"""Output checks for one pass of a workload.

Every check compares the artifacts a `loopsim run` wrote against a
property the method must have, never against stored output. Operations
are probes (repeat, step), or grid cells for the sweep; a failed check
marks the operations it speaks of as failed. The module needs only the
standard library, so the benchmark's parent process never loads numpy.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import REQUIRED_STATS, Workload

# The one fault the benchmark keeps and counts: moment_l1_sum returns
# value=inf with truncated_at=None once the extended-precision sum leaves
# the float64 range, so trace.csv holds `inf` with moment_l1_truncated=0.
# Only that signature, and only on a workload marked known_fault, leaves a
# pass correct; any other non-finite moment_l1 fails "moment_l1_finite".
KNOWN_FAULT = "moment_l1_overflow"

REL_TOL = 1e-12


@dataclass
class PassCheck:
    """Outcome of the checks on one pass."""

    operations: set
    tolerated: frozenset = frozenset()  # check names that leave the pass correct
    failed: set = field(default_factory=set)
    failures: list = field(default_factory=list)  # (check name, detail, ops failed)

    def fail(self, check: str, detail: str, ops=None) -> None:
        ops = set(self.operations if ops is None else ops)
        self.failed |= ops
        self.failures.append((check, detail, len(ops)))

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if f[0] not in self.tolerated]


def _arg(workload: Workload, flag: str) -> str:
    return workload.args[workload.args.index(flag) + 1]


def _grid(workload: Workload, flag: str) -> list:
    return [float(v) for v in _arg(workload, flag).split(",")]


def expected_probe_steps(workload: Workload) -> list:
    total = workload.total_steps
    every = int(_arg(workload, "--probe-every"))
    return sorted(set(range(0, total + 1, every)) | {0, total})


def expected_operations(workload: Workload) -> set:
    if workload.regime == "sweep":
        return {(p, s) for p in _grid(workload, "--usage-grid")
                for s in _grid(workload, "--adherence-grid")}
    return {(r, t) for r in range(workload.repeats) for t in expected_probe_steps(workload)}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_pass(workload: Workload, out_dir) -> PassCheck:
    """Run every check that applies to the workload on one output directory."""
    out_dir = Path(out_dir)
    result = PassCheck(expected_operations(workload),
                       frozenset({KNOWN_FAULT}) if workload.known_fault else frozenset())
    if not _check_manifest(out_dir, result):
        return result
    if workload.regime == "sweep":
        _check_sweep(workload, out_dir, result)
    else:
        table = _check_trace(workload, out_dir, result)
        if table is not None:
            _check_regime(workload, out_dir, table, result)
        if "--collect-traces" in workload.args:
            _check_steps(workload, out_dir, result)
    return result


def _check_manifest(out_dir: Path, result: PassCheck) -> bool:
    path = out_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        result.fail("manifest", f"unreadable manifest: {exc}")
        return False
    if manifest.get("status") != "ok":
        result.fail("manifest", f"run status {manifest.get('status')!r}")
        return False
    hashes = manifest.get("content_hashes", {})
    listed = manifest.get("output_paths", [])
    if not listed or set(listed) != set(hashes):
        result.fail("manifest", "output_paths and content_hashes disagree")
        return False
    for name, recorded in hashes.items():
        target = out_dir / name
        if not target.is_file() or sha256_file(target) != recorded:
            result.fail("manifest", f"{name}: hash does not match the file")
            return False
    return True


# ---------------------------------------------------------------------------
# trace experiments


def read_trace(path: Path) -> tuple[dict, int]:
    """trace.csv as {(repeat, step): {stat: value}} plus its data-row count."""
    table = {}
    rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for step, repeat, name, value in reader:
            table.setdefault((int(repeat), int(step)), {})[name] = float(value)
            rows += 1
    return table, rows


def _check_trace(workload: Workload, out_dir: Path, result: PassCheck):
    try:
        table, rows = read_trace(out_dir / "trace.csv")
    except (OSError, ValueError, StopIteration) as exc:
        result.fail("trace_rows", f"unreadable trace.csv: {exc}")
        return None
    stats = set().union(*table.values()) if table else set()
    if set(table) != result.operations or rows != len(table) * len(stats) or any(
        len(v) != len(stats) for v in table.values()
    ):
        result.fail("trace_rows",
                    f"{rows} rows, expected {workload.repeats} repeats x "
                    f"{len(expected_probe_steps(workload))} probes x {len(stats)} stats")
        return None
    missing = [s for s in REQUIRED_STATS[workload.regime] if s not in stats]
    if missing:
        result.fail("required_stats", f"trace.csv lacks {missing}")
        return None
    for op, values in table.items():
        _check_probe(op, values, result)
    return table


def mass_names(names) -> list:
    """The mass@<kappa> statistics, by increasing kappa."""
    return sorted((n for n in names if n.startswith("mass@")),
                  key=lambda n: float(n.split("@", 1)[1]))


def _ladder(values: dict) -> list:
    return [v for k, v in values.items()
            if k.startswith("moment_") and k[len("moment_"):].isdigit()
            and int(k[len("moment_"):]) <= 6]


def _check_probe(op, v: dict, result: PassCheck) -> None:
    """Per-probe properties, each applied where its statistics are present."""
    p = v.get("normality_p")
    if p is not None and not 0.0 <= p <= 1.0:
        result.fail("pvalue_range", f"probe {op}: normality p {p}", [op])
    masses = [v[n] for n in mass_names(v)]
    if any(not 0.0 <= m <= 1.0 for m in masses):
        result.fail("mass_range", f"probe {op}: masses {masses}", [op])
    if any(b < a for a, b in zip(masses, masses[1:])):
        result.fail("mass_monotone", f"probe {op}: masses {masses} decrease in kappa", [op])
    m1, m2, m4, sd = (v.get(k) for k in ("moment_1", "moment_2", "moment_4", "stddev"))
    if None not in (m1, m2, sd):
        expected = sd * sd + m1 * m1
        if not abs(m2 - expected) <= REL_TOL * abs(m2):
            result.fail("moment2_identity",
                        f"probe {op}: moment_2 {m2!r} vs stddev^2 + moment_1^2 {expected!r}",
                        [op])
    if None not in (m2, m4) and not m4 >= m2 * m2 * (1.0 - REL_TOL):
        result.fail("moment4_bound", f"probe {op}: moment_4 {m4!r} < moment_2^2", [op])
    l1 = v.get("moment_l1")
    if l1 is not None:
        truncated = v.get("moment_l1_truncated")
        if l1 == math.inf and truncated == 0.0:
            result.fail(KNOWN_FAULT, f"probe {op}: moment_l1 inf, not marked truncated", [op])
        elif not math.isfinite(l1):
            result.fail("moment_l1_finite",
                        f"probe {op}: moment_l1 {l1} with truncated flag {truncated}", [op])
        else:
            head = math.fsum(abs(m) for m in _ladder(v))
            if not l1 >= head * (1.0 - REL_TOL):
                result.fail("moment_l1_bound",
                            f"probe {op}: moment_l1 {l1!r} < sum |moment_k| {head!r}", [op])


def _mean_at(table: dict, stat: str, step: int) -> float:
    values = [v[stat] for (r, t), v in table.items() if t == step and math.isfinite(v[stat])]
    return math.fsum(values) / len(values) if values else math.nan


def _ratio(table: dict, stat: str, first: int, last: int) -> float:
    base = _mean_at(table, stat, first)
    return _mean_at(table, stat, last) / base if base else math.nan


def _check_regime(workload: Workload, out_dir: Path, table: dict, result: PassCheck) -> None:
    steps = expected_probe_steps(workload)
    first, last = steps[0], steps[-1]
    some = next(iter(table.values()))
    kappas = mass_names(some)
    has_psi = "psi" in some
    psi_ratio = _ratio(table, "psi", first, last) if has_psi else math.nan
    if workload.regime == "flatten":
        if not psi_ratio < 0.5:
            result.fail("flatten_psi", f"psi ratio {psi_ratio:.4g}, need < 0.5")
        if kappas:
            mass_ratio = _ratio(table, kappas[-1], first, last)
            if not mass_ratio < 0.5:
                result.fail("flatten_mass", f"{kappas[-1]} ratio {mass_ratio:.4g}, need < 0.5")
        try:
            summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            fit = summary["fits"]["full"]
            slope, r2 = float(fit["slope"]), float(fit["r2"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.fail("flatten_fit", f"no log-linear fit in summary.json: {exc!r}")
        else:
            if not (slope < 0.0 and r2 >= 0.9):
                result.fail("flatten_fit", f"fit slope {slope:.4g}, r2 {r2:.4g}; "
                            "need slope < 0 and r2 >= 0.9")
    elif workload.regime == "collapse":
        if has_psi and not psi_ratio > 5.0:
            result.fail("collapse_psi", f"psi ratio {psi_ratio:.4g}, need > 5")
        if kappas:
            final_mass = _mean_at(table, kappas[0], last)
            if not final_mass > 0.9:
                result.fail("collapse_mass", f"final {kappas[0]} {final_mass:.4g}, need > 0.9")
        ladder = _ratio(table, "moment_l1", first, last)
        if not ladder < 0.1:
            result.fail("collapse_ladder", f"moment_l1 ratio {ladder:.4g}, need < 0.1")
    elif workload.regime == "neutral":
        if not 0.5 <= psi_ratio <= 2.0:
            result.fail("neutral_psi", f"psi ratio {psi_ratio:.4g}, need in [0.5, 2]")


def _check_steps(workload: Workload, out_dir: Path, result: PassCheck) -> None:
    """steps.csv: row count, binomial used-prediction rate, residual identity."""
    total = workload.total_steps
    p = float(_arg(workload, "--usage"))
    counts = [0] * workload.repeats
    used = [0] * workload.repeats
    bad_residual = [0] * workload.repeats
    extra = 0
    try:
        with open(out_dir / "steps.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for repeat, _step, _item, y_true, y_pred, _z, flag, residual in reader:
                r = int(repeat)
                if not 0 <= r < workload.repeats:
                    extra += 1
                    continue
                counts[r] += 1
                if flag == "1":
                    used[r] += 1
                elif float(residual) != float(y_true) - float(y_pred):
                    bad_residual[r] += 1
    except (OSError, ValueError, StopIteration) as exc:
        result.fail("steps_rows", f"unreadable steps.csv: {exc}")
        return
    band = 4.0 * math.sqrt(p * (1.0 - p) / total)
    for r in range(workload.repeats):
        ops = {op for op in result.operations if op[0] == r}
        if counts[r] != total or extra:
            result.fail("steps_rows", f"repeat {r}: {counts[r]} rows, expected {total}"
                        f" ({extra} rows name no repeat)", ops)
        elif not abs(used[r] / total - p) <= band:
            result.fail("used_rate", f"repeat {r}: used rate {used[r] / total:.4f}, "
                        f"binomial band {p} +- {band:.4f}", ops)
        if bad_residual[r]:
            result.fail("residual_identity", f"repeat {r}: {bad_residual[r]} rows with "
                        "residual != y_true - y_pred", ops)


# ---------------------------------------------------------------------------
# sweep


def _check_sweep(workload: Workload, out_dir: Path, result: PassCheck) -> None:
    cells = {}
    try:
        with open(out_dir / "surface.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for p, s, mean, std, status in reader:
                cells[(float(p), float(s))] = (float(mean), float(std), status)
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, StopIteration) as exc:
        result.fail("cell_count", f"unreadable surface: {exc}")
        return
    if set(cells) != result.operations:
        result.fail("cell_count", f"{len(cells)} cells, expected {len(result.operations)}")
        return
    p_grid = sorted({p for p, _ in cells})
    s_grid = sorted({s for _, s in cells})
    for op, (mean, std, status) in cells.items():
        if status != "ok" or not (math.isfinite(mean) and math.isfinite(std)):
            result.fail("cell_status", f"cell {op}: status {status!r}, mean {mean}", [op])
    if summary.get("errors"):
        result.fail("cell_status", f"summary.json errors {summary['errors']}")
    row0 = [cells[(p_grid[0], s)] for s in s_grid]
    if any(c[:2] != row0[0][:2] for c in row0):
        # p=0 never replaces a target, so adherence cannot change the run
        result.fail("usage0_row", f"usage-0 row differs across adherence: {row0}",
                    [(p_grid[0], s) for s in s_grid])
    s_row = [cells[(p_grid[-1], s)][0] for s in s_grid]
    if sum(b < a for a, b in zip(s_row, s_row[1:])) > 1:
        result.fail("monotone_s", f"stddev at usage {p_grid[-1]} over adherence: {s_row}",
                    [(p_grid[-1], s) for s in s_grid])
    p_col = [cells[(p, s_grid[0])][0] for p in p_grid]
    if sum(b > a for a, b in zip(p_col, p_col[1:])) > 1:
        result.fail("monotone_p", f"stddev at adherence {s_grid[0]} over usage: {p_col}",
                    [(p, s_grid[0]) for p in p_grid])
