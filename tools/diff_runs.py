"""Cell-by-cell difference of two loopsim output directories.

Usage, from the root of a checkout:

    python3 tools/diff_runs.py <dir_a> <dir_b>

For every file in either directory, prints how many cells differ and the
largest relative move |a - b| / max(|a|, |b|) among the numeric ones. A
trace.csv is reported per stat_name, another CSV per column, a JSON file
per top-level key. config.txt and manifest.json name the output directory
and the wall clock, so they are skipped. Exits 0 when no cell differs, 1
otherwise. Standard library only.
"""

import argparse
import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

SKIP = ("config.txt", "manifest.json")


def _cells(path: Path) -> dict:
    """{(group, key): text} for every cell of one CSV or JSON file."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        header, body = rows[0], rows[1:]
        if header[:3] == ["step", "repeat", "stat_name"]:
            return {(r[2], (r[0], r[1])): r[3] for r in body}
        return {(col, i): cell for i, r in enumerate(body) for col, cell in zip(header, r)}
    out = {}

    def walk(group, key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(group, f"{key}/{k}", v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(group, f"{key}/{i}", v)
        else:
            out[(group, key)] = json.dumps(value)

    for name, value in json.loads(path.read_text(encoding="utf-8")).items():
        walk(name, "", value)
    return out


def _relative_move(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))  # 0.0 against -0.0


def diff_files(a: Path, b: Path) -> dict:
    """{group: (cells, differing cells, largest relative move)}."""
    ca, cb = _cells(a), _cells(b)
    stats = defaultdict(lambda: [0, 0, 0.0])
    for group, key in sorted(set(ca) | set(cb), key=str):
        entry = stats[group]
        entry[0] += 1
        va, vb = ca.get((group, key)), cb.get((group, key))
        if va != vb:
            entry[1] += 1
            move = math.inf if va is None or vb is None else _relative_move(va, vb)
            entry[2] = max(entry[2], move)
    return {group: tuple(v) for group, v in stats.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    names = sorted({p.name for d in (args.dir_a, args.dir_b) for p in d.iterdir() if p.is_file()})
    differ = False
    for name in names:
        if name in SKIP:
            continue
        a, b = args.dir_a / name, args.dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {args.dir_a if a.is_file() else args.dir_b}")
            differ = True
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
            continue
        differ = True
        moved_groups = [(g, v) for g, v in diff_files(a, b).items() if v[1]]
        for group, (cells, moved, worst) in moved_groups:
            print(f"{name} {group}: {moved} of {cells} cells differ, "
                  f"largest relative move {worst:.2g}")
        if not moved_groups:
            print(f"{name}: bytes differ, every cell is equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
