"""Shows that every output check rejects a corrupted artifact.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs one pass of each workload, confirms that the untouched artifacts pass
every check (apart from the known ladder-overflow fault on
autonomy_sampling_flatten), then applies one corruption per check to a
copy of the artifacts, re-hashes the manifest unless the manifest is the
target, and confirms that the named check fails and makes the pass
incorrect. Exits 1 if any corruption goes unnoticed. Takes about half a
minute.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    KNOWN_FAULT, mass_names, check_pass, expected_probe_steps, sha256_file)
from run import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FLATTEN, COLLAPSE, SWEEP, LONGRUN = (
    "autonomy_sampling_flatten", "moments_sliding_collapse", "sweep_sgd_grid",
    "trace_sampling_longrun")
# the corruptions pick rows and probes by position, so any loop seed serves
SEED = 1


def _read(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write(path: Path, rows: list) -> None:
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")


def rehash(out_dir: Path) -> None:
    path = out_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["content_hashes"] = {name: sha256_file(out_dir / name)
                                  for name in manifest["content_hashes"]}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class Trace:
    """Editable trace.csv: value(step, repeat, stat) and set(...)."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / "trace.csv"
        self.rows = _read(self.path)
        self.index = {(int(r[0]), int(r[1]), r[2]): r for r in self.rows[1:]}

    def value(self, step, repeat, stat) -> float:
        return float(self.index[(step, repeat, stat)][3])

    def set(self, step, repeat, stat, value) -> None:
        self.index[(step, repeat, stat)][3] = repr(float(value))

    def masses(self) -> list:
        return mass_names({k[2] for k in self.index})

    def save(self) -> None:
        _write(self.path, self.rows)


def _edit_trace(fn):
    def corrupt(out_dir, workload):
        trace = Trace(out_dir)
        fn(trace, workload, expected_probe_steps(workload))
        trace.save()
    return corrupt


def _edit_csv(name, fn):
    def corrupt(out_dir, workload):
        rows = _read(out_dir / name)
        fn(rows)
        _write(out_dir / name, rows)
    return corrupt


def _per_repeat(fn):
    """Apply fn(trace, repeat, first step, last step) to every repeat."""
    def edit(trace, workload, steps):
        for r in range(workload.repeats):
            fn(trace, r, steps[0], steps[-1])
    return edit


def _flip_digit(out_dir, workload):
    path = out_dir / "trace.csv"
    text = path.read_text(encoding="utf-8")
    i = text.index("\n0,0,") + 5
    while not text[i].isdigit():
        i += 1
    path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:], encoding="utf-8")


def _drop_stat(stat):
    def corrupt(out_dir, workload):
        rows = _read(out_dir / "trace.csv")
        _write(out_dir / "trace.csv", [r for r in rows if r[2] != stat])
    return corrupt


def _bad_fit(out_dir, workload):
    path = out_dir / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["fits"]["full"]["r2"] = 0.5
    path.write_text(json.dumps(summary), encoding="utf-8")


def _mark_used(rows):
    for r in rows[1:600]:
        r[6] = "1"


def _bad_residual(rows):
    row = next(r for r in rows[1:] if r[6] == "0")
    row[7] = repr(float(row[7]) + 1e-3)


def _surface(fn):
    def edit(rows):
        cells = {(float(r[0]), float(r[1])): r for r in rows[1:]}
        fn(cells, sorted({k[0] for k in cells}), sorted({k[1] for k in cells}))
    return edit


def _reverse(cells, keys):
    values = [cells[k][2] for k in keys]
    for k, v in zip(keys, reversed(values)):
        cells[k][2] = v


CORRUPTIONS = [
    (COLLAPSE, "manifest", "flip one digit of trace.csv, keep the old hash", _flip_digit, False),
    (COLLAPSE, "trace_rows", "drop the last trace.csv row",
     _edit_csv("trace.csv", lambda rows: rows.pop()), True),
    (COLLAPSE, "required_stats", "drop every moment_l1 row", _drop_stat("moment_l1"), True),
    (COLLAPSE, "pvalue_range", "normality p of 1.5",
     _edit_trace(lambda t, w, s: t.set(s[3], 0, "normality_p", 1.5)), True),
    (COLLAPSE, "mass_range", "largest-kappa mass of 1.25",
     _edit_trace(lambda t, w, s: t.set(s[3], 0, t.masses()[-1], 1.25)), True),
    (COLLAPSE, "mass_monotone", "smallest-kappa mass above the next one",
     _edit_trace(lambda t, w, s: t.set(0, 0, t.masses()[0],
                                       t.value(0, 0, t.masses()[1]) + 0.01)), True),
    (COLLAPSE, "moment2_identity", "moment_2 off by 1e-9 relative",
     _edit_trace(lambda t, w, s: t.set(s[5], 1, "moment_2",
                                       t.value(s[5], 1, "moment_2") * (1 + 1e-9))), True),
    (COLLAPSE, "moment4_bound", "moment_4 below moment_2 squared",
     _edit_trace(lambda t, w, s: t.set(s[7], 2, "moment_4",
                                       0.5 * t.value(s[7], 2, "moment_2") ** 2)), True),
    (COLLAPSE, "moment_l1_bound", "moment_l1 below |moment_2|",
     _edit_trace(lambda t, w, s: t.set(s[9], 3, "moment_l1",
                                       0.5 * t.value(s[9], 3, "moment_2"))), True),
    (COLLAPSE, KNOWN_FAULT, "moment_l1 of inf outside the workload that expects it",
     _edit_trace(lambda t, w, s: t.set(s[11], 4, "moment_l1", float("inf"))), True),
    (FLATTEN, "moment_l1_finite", "moment_l1 of nan",
     _edit_trace(lambda t, w, s: t.set(s[3], 0, "moment_l1", float("nan"))), True),
    (FLATTEN, "moment_l1_finite", "an overflowed moment_l1 marked truncated",
     _edit_trace(lambda t, w, s: t.set(s[-1], 0, "moment_l1_truncated", 1.0)), True),
    (COLLAPSE, "collapse_psi", "final psi equal to the initial psi",
     _edit_trace(_per_repeat(lambda t, r, a, b: t.set(b, r, "psi", t.value(a, r, "psi")))), True),
    (COLLAPSE, "collapse_mass", "final smallest-kappa mass of 0.5",
     _edit_trace(_per_repeat(lambda t, r, a, b: t.set(b, r, t.masses()[0], 0.5))), True),
    (COLLAPSE, "collapse_ladder", "final moment_l1 equal to the initial one",
     _edit_trace(_per_repeat(lambda t, r, a, b: t.set(
         b, r, "moment_l1", t.value(a, r, "moment_l1")))), True),
    (FLATTEN, "flatten_psi", "final psi ten times the initial psi",
     _edit_trace(_per_repeat(lambda t, r, a, b: t.set(b, r, "psi", 10 * t.value(a, r, "psi")))),
     True),
    (FLATTEN, "flatten_mass", "final largest-kappa mass equal to the initial one",
     _edit_trace(_per_repeat(lambda t, r, a, b: t.set(
         b, r, t.masses()[-1], t.value(a, r, t.masses()[-1])))), True),
    (FLATTEN, "flatten_fit", "log-linear fit r2 of 0.5", _bad_fit, True),
    (LONGRUN, "neutral_psi", "final psi three times the initial psi",
     _edit_trace(_per_repeat(lambda t, r, a, b: t.set(b, r, "psi", 3 * t.value(a, r, "psi")))),
     True),
    (LONGRUN, "steps_rows", "drop the last steps.csv row",
     _edit_csv("steps.csv", lambda rows: rows.pop()), True),
    (LONGRUN, "used_rate", "599 used predictions at the start of repeat 0",
     _edit_csv("steps.csv", _mark_used), True),
    (LONGRUN, "residual_identity", "one residual off by 1e-3",
     _edit_csv("steps.csv", _bad_residual), True),
    (SWEEP, "cell_count", "drop the last surface cell",
     _edit_csv("surface.csv", lambda rows: rows.pop()), True),
    (SWEEP, "cell_status", "one cell reports an error",
     _edit_csv("surface.csv", lambda rows: rows[7].__setitem__(4, "error")), True),
    (SWEEP, "usage0_row", "usage-0 stddev changes with adherence",
     _edit_csv("surface.csv", _surface(lambda c, ps, ss: c[(ps[0], ss[-1])].__setitem__(
         2, repr(float(c[(ps[0], ss[-1])][2]) * 1.01)))), True),
    (SWEEP, "monotone_s", "usage-1 stddev reversed over adherence",
     _edit_csv("surface.csv", _surface(lambda c, ps, ss: _reverse(c, [(ps[-1], s) for s in ss]))),
     True),
    (SWEEP, "monotone_p", "adherence-0 stddev reversed over usage",
     _edit_csv("surface.csv", _surface(lambda c, ps, ss: _reverse(c, [(p, ss[0]) for p in ps]))),
     True),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    root = Path.cwd()
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(root / "src"))
    from loopsim import cli

    base = root / ".bench_out" / f"selfcheck-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    missed = 0
    try:
        for name, workload in WORKLOADS.items():
            argv = [*workload.argv(SEED, workload.workers), "--out-dir", str(base / name)]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{name}: loopsim run failed")
            clean = {f[0] for f in check_pass(workload, base / name).failures}
            expected = {KNOWN_FAULT} if workload.known_fault else set()
            print(f"{'ok  ' if clean == expected else 'FAIL'} {name}: untouched artifacts "
                  f"fail {sorted(clean) or 'no check'}")
            missed += clean != expected
        for name, check, what, corrupt, reseal in CORRUPTIONS:
            copy = base / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(base / name, copy)
            corrupt(copy, WORKLOADS[name])
            if reseal:
                rehash(copy)
            # caught: the named check fails and the pass no longer counts as correct
            failed = {f[0] for f in check_pass(WORKLOADS[name], copy).unexpected}
            caught = check in failed
            missed += not caught
            print(f"{'ok  ' if caught else 'MISS'} {check:18s} rejects {what} ({name})")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(CORRUPTIONS) - missed} of {len(CORRUPTIONS)} corruptions rejected"
          if not missed else f"{missed} problem(s)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
