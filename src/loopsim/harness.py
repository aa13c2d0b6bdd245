"""Experiment orchestration and persistent, reproducible outputs.

Configuration is a flat key=value text file plus overrides; every run
resolves to a canonical flat form that is written next to the outputs,
hashed, and recorded in a manifest together with content hashes of every
emitted file. Re-running from a manifest reproduces the CSVs byte for
byte (timestamps live only in the manifest, which is never hashed).
"""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import types
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import loopsim
from loopsim.analytic import (
    AnalyticMap,
    autonomy_check,
    envelope_norm,
    gaussian_density,
    linear_sequence,
    power_sequence,
    triangle_test_function,
    weak_limit_probe,
)
from loopsim.data import (
    FLOAT_FORMAT,
    RNG_ALGORITHM,
    Dataset,
    format_float,
    generate_friedman1,
    generate_linear,
    read_dataset,
    write_csv,
)
from loopsim.diagnostics import autonomy_fit
from loopsim.engine import (
    ALL_STATS,
    SETTING_SAMPLING,
    SETTING_SLIDING,
    STEP_RECORD,
    LoopConfig,
    LoopDefaults,
    check_kappas,
    resolve_probes,
    run,
    stddev_surface,
)

EXPERIMENTS = ("sweep", "density_trace", "normality", "autonomy", "moments", "analytic_demo")
# the optional probe statistics (engine.OPTIONAL_STATS) each trace experiment
# writes; every probe also writes psi, stddev and the interval masses
EXPERIMENT_STATS = {
    "density_trace": ALL_STATS,
    "moments": ALL_STATS,
    "normality": ("normality_p",),
    "autonomy": (),
}
GENERATOR_KINDS = ("linear", "friedman1")
SETTING_ALIASES = {
    "sampling": SETTING_SAMPLING,
    "sampling_update": SETTING_SAMPLING,
    "sliding": SETTING_SLIDING,
    "sliding_window": SETTING_SLIDING,
}


class ConfigError(ValueError):
    """Invalid or unknown configuration; maps to exit code 2."""


class IntegrityError(RuntimeError):
    """A manifest is not a JSON object, or a hash it records does not match."""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# configuration


# LoopConfig fields whose ExperimentConfig key has another name; the others
# match, and those with a default both inherit from LoopDefaults
_LOOP_KEYS = {"total_steps": "steps", "usage_p": "usage", "adherence_s": "adherence"}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(LoopDefaults):
    """Resolved experiment description; every field has a canonical string form."""

    experiment: str
    dataset: str = ""
    kind: str = "linear"
    rows: int = 2000
    cols: int = 10
    noise: float = 1.0
    data_seed: int = 7
    setting: str = SETTING_SAMPLING
    usage: float = 1.0
    adherence: float = 0.0
    steps: int = 1000
    probes: tuple[int, ...] | None = None
    kappas: tuple[float, ...] | None = None
    usage_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    adherence_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    segment: tuple[float, float] | None = None
    psi: str = "power:2"
    demo_variance: float = 25.0
    t_list: tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100)
    out_dir: str = ""
    workers: int = 0
    collect_traces: bool = False  # write the report's step records to steps.csv

    def to_flat_dict(self) -> dict:
        """Canonical flat key=value view; parsing it back is the identity."""
        flat = {}
        for key, (_parse, fmt) in _CODECS.items():
            value = getattr(self, key)
            flat[key] = "" if value is None else fmt(value)
        return flat

    def loop_config(self) -> LoopConfig:
        return LoopConfig(**{
            field.name: getattr(self, _LOOP_KEYS.get(field.name, field.name))
            for field in dataclasses.fields(LoopConfig)
        })

    def resolved_out_dir(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        return Path(os.environ.get("LOOPSIM_OUT", "loopsim_out"))

    def resolved_workers(self) -> int:
        """workers, else LOOPSIM_WORKERS, else one per CPU this process may
        run on; 0 means unset."""
        source, value = "workers", self.workers
        env = os.environ.get("LOOPSIM_WORKERS", "")
        if value == 0 and env.strip():
            source = "LOOPSIM_WORKERS"
            try:
                value = int(env)
            except ValueError as exc:
                raise ConfigError(f"LOOPSIM_WORKERS must be an integer, got {env!r}") from exc
        if value < 0:
            raise ConfigError(f"{source} must be nonnegative, got {value}")
        if value:
            return value
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


def parse_config_file(path) -> dict:
    """Read a flat key=value file; '#' starts a comment, blanks are skipped,
    and a key given twice is refused."""
    raw = {}
    first_line = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not valid UTF-8: {path}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: {key} is given again (first on line {first_line[key]})"
            )
        first_line[key] = lineno
        raw[key] = value.strip()
    return raw


def _cast_int(key, value):
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from exc


def _cast_float(key, value):
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _cast_bool(key, value):
    low = value.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _parse_grid(key, value) -> tuple:
    """A grid is 'start:stop:step' (inclusive), a comma list, or one number."""
    text = value.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key} range must be start:stop:step, got {value!r}")
        start, stop, step = (_cast_float(key, p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"{key} range needs step > 0 and stop >= start, got {value!r}")
        count = (stop - start) / step
        if not all(math.isfinite(v) for v in (start, stop, step, count)):
            raise ConfigError(f"{key} range needs a finite start, stop, step and point count, "
                              f"got {value!r}")
        n = int(math.floor(count + 1e-9)) + 1
        return tuple(start + i * step for i in range(n))
    if "," in text:
        return tuple(_cast_float(key, p) for p in text.split(",") if p.strip())
    return (_cast_float(key, text),)


def _parse_int_list(key, value) -> tuple:
    try:
        return tuple(int(p) for p in value.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"{key} must be a comma list of integers, got {value!r}") from exc


def _parse_segment(key, value) -> tuple:
    parts = value.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{key} must be lo:hi, got {value!r}")
    lo, hi = (_cast_float(key, p) for p in parts)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"{key} needs finite lo < hi, got {value!r}")
    return (lo, hi)


def _format_list(fmt):
    return lambda values: ",".join(fmt(v) for v in values)


# (parse, format) by field type; parse(key, text) raises ConfigError
_TYPE_CODECS = {
    str: (lambda key, text: text, str),
    int: (_cast_int, str),
    float: (_cast_float, repr),
    bool: (_cast_bool, lambda value: "true" if value else "false"),
    tuple[int, ...]: (_parse_int_list, _format_list(str)),
    tuple[float, ...]: (_parse_grid, _format_list(repr)),
    tuple[float, float]: (_parse_segment, lambda value: f"{value[0]!r}:{value[1]!r}"),
}


def _field_codec(field):
    """The codec of a field's type; ``X | None`` uses the codec of X."""
    kind = field.type
    if isinstance(kind, types.UnionType):
        (kind,) = (arg for arg in typing.get_args(kind) if arg is not type(None))
    return _TYPE_CODECS[kind]


_CODECS = {field.name: _field_codec(field) for field in dataclasses.fields(ExperimentConfig)}
# an empty value leaves these keys at their default
_BLANK_DEFAULTS = {
    field.name for field in dataclasses.fields(ExperimentConfig) if field.default in (None, "")
}


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a flat string mapping and produce an ExperimentConfig.

    Unknown keys and values that are not strings are rejected outright.
    Loop parameters are checked here, before anything runs, by the
    engine's own rules: constructing the engine config (on a sweep, the
    config of every grid cell), and on a trace experiment resolving its
    probe steps and checking its kappas. The dataset is checked by its
    generator or reader when execute resolves it.
    """
    unknown = sorted(set(raw) - set(_CODECS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, text in raw.items():
        if not isinstance(text, str):
            raise ConfigError(f"{key} must be given as a string, got {text!r}")
    if not raw.get("experiment", "").strip():
        raise ConfigError("missing required key: experiment")
    values = {}
    for key, text in raw.items():
        text = text.strip()
        if text == "" and key in _BLANK_DEFAULTS:
            continue
        if text == "":
            raise ConfigError(f"{key} has an empty value")
        value = _CODECS[key][0](key, text)
        if value == ():
            # "" is the unset form, so an empty list could not round-trip
            raise ConfigError(f"{key} lists no values")
        values[key] = value
    experiment = values.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    setting = values.get("setting", SETTING_SAMPLING)
    if setting not in SETTING_ALIASES:
        raise ConfigError(f"setting must be one of {sorted(set(SETTING_ALIASES))}, got {setting!r}")
    values["setting"] = SETTING_ALIASES[setting]
    kind = values.get("kind", "linear")
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"kind must be one of {GENERATOR_KINDS}, got {kind!r}")
    config = ExperimentConfig(**values)
    if experiment != "analytic_demo":
        try:
            loop_config = config.loop_config()
            if experiment == "sweep":
                for p, s in itertools.product(config.usage_grid, config.adherence_grid):
                    dataclasses.replace(loop_config, usage_p=p, adherence_s=s)
            else:
                resolve_probes(loop_config, config.probes)
                if config.kappas is not None:
                    check_kappas(config.kappas)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        psi = _parse_psi(config.psi)
        try:
            gaussian_density(0.0, config.demo_variance)
        except ValueError as exc:
            raise ConfigError(f"demo_variance: {exc}") from exc
        # the autonomy check reads psi up to step 2 even when t_list stops at 1;
        # both sequences are monotone, so the end steps bound every step read
        for t in (*config.t_list, 2):
            try:
                psi.at(t)
            except ValueError as exc:
                raise ConfigError(f"psi {config.psi}: {exc}") from exc
    if config.segment is not None and experiment not in ("autonomy",):
        raise ConfigError("segment only applies to the autonomy experiment")
    return config


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the canonical config, ignoring where and how wide it runs."""
    flat = config.to_flat_dict()
    for key in ("out_dir", "workers"):
        flat.pop(key, None)
    blob = "\n".join(f"{k}={flat[k]}" for k in sorted(flat))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _parse_psi(value: str):
    """'power:<a>' or 'linear' into a scaling sequence."""
    text = value.strip()
    if text == "linear":
        return linear_sequence()
    if text.startswith("power:"):
        try:
            a = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"psi power base must be a number, got {value!r}") from exc
        if a <= 0:
            raise ConfigError(f"psi power base must be positive, got {a}")
        return power_sequence(a)
    raise ConfigError(f"psi must be 'linear' or 'power:<base>', got {value!r}")


# ---------------------------------------------------------------------------
# output writers


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _trace_rows(report):
    """Long-format rows (step, repeat, stat_name, value), deterministic order."""
    steps = report.probe_steps
    names = sorted(report.per_repeat)
    for repeat in range(report.repeats_aggregated):
        for i, step_t in enumerate(steps):
            for name in names:
                value = report.per_repeat[name][repeat, i]
                yield (str(step_t), str(repeat), name, format_float(value))


def write_trace_csv(path: Path, report) -> None:
    write_csv(path, ["step", "repeat", "stat_name", "value"], _trace_rows(report))


def write_steps_csv(path: Path, report) -> None:
    """One row per loop step of every repeat, formatted as write_csv would
    with format_float, but by one %-format per row: the largest CSV a run
    writes."""
    header = ["repeat", "step", *STEP_RECORD.names[1:]]
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        for repeat, record in enumerate(report.step_traces):
            row = f"{repeat},%d,%d,{FLOAT_FORMAT},{FLOAT_FORMAT},{FLOAT_FORMAT},%d,{FLOAT_FORMAT}\n"
            out.writelines(row % values for values in record.tolist())


# ---------------------------------------------------------------------------
# experiments


def generate_dataset(kind: str, rows: int, cols: int, noise: float, seed: int) -> Dataset:
    """A synthetic dataset; ConfigError carries its generator's refusal."""
    generate = generate_linear if kind == "linear" else generate_friedman1
    try:
        return generate(rows, cols, noise, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset:
        try:
            return read_dataset(config.dataset)
        except FileNotFoundError as exc:
            raise ConfigError(f"dataset not found: {exc.filename}") from exc
        except ValueError as exc:
            raise ConfigError(f"{config.dataset}: {exc}") from exc
    return generate_dataset(config.kind, config.rows, config.cols, config.noise, config.data_seed)


def _summarize_report(report) -> dict:
    summary = {
        "probe_steps": report.probe_steps,
        "kappas": report.kappa_list,
        "psi_mean": report.psi_trace,
        "psi_std": report.std("psi"),
        "stddev_mean": report.stddev_trace,
        "stddev_std": report.std("stddev"),
        "interval_mass_mean": {repr(k): v for k, v in report.interval_masses.items()},
        "spike_counts": report.spike_counts,
        "repeats": report.repeats_aggregated,
    }
    # only the statistics the probes computed
    for stat, key in (("moment_l1", "moment_l1_mean"), ("normality_p", "normality_p_mean")):
        if stat in report.per_repeat:
            summary[key] = report.mean(stat)
    return summary


def _run_trace_experiment(config: ExperimentConfig, out_dir: Path, data: Dataset,
                          loop_config: LoopConfig, workers: int) -> tuple[list, dict]:
    report = run(
        data,
        loop_config,
        probes=config.probes,
        kappa_list=config.kappas,
        stats=EXPERIMENT_STATS[config.experiment],
        workers=workers,
    )
    outputs = []
    trace_path = out_dir / "trace.csv"
    write_trace_csv(trace_path, report)
    outputs.append(trace_path)
    if config.collect_traces:
        steps_path = out_dir / "steps.csv"
        write_steps_csv(steps_path, report)
        outputs.append(steps_path)
    summary = _summarize_report(report)

    if config.experiment == "normality":
        final = report.per_repeat["normality_p"][:, -1]
        valid = final[np.isfinite(final)]
        summary["final_rejection_fraction_005"] = (
            float(np.mean(valid < 0.05)) if valid.size else None
        )
    elif config.experiment == "autonomy":
        steps = np.asarray(report.probe_steps, dtype=float)

        def fit(psi, segment=None):
            try:
                return autonomy_fit(steps, psi, segment=segment).to_json_dict()
            except ValueError as exc:
                return {"error": str(exc)}

        summary["fits"] = {"full": fit(report.psi_trace)}
        if config.segment is not None:
            summary["fits"]["segment"] = fit(report.psi_trace, config.segment)
        summary["per_repeat_fits"] = [fit(psi) for psi in report.per_repeat["psi"]]
    elif config.experiment == "moments":
        summary["moment_mean"] = {str(k): v for k, v in report.moment_traces.items()}
        summary["truncated_fraction"] = np.mean(
            report.per_repeat["moment_l1_truncated"], axis=0
        )
    return outputs, summary


def _run_sweep(config: ExperimentConfig, out_dir: Path, data: Dataset,
               loop_config: LoopConfig, workers: int) -> tuple[list, dict]:
    surface = stddev_surface(
        data,
        list(config.usage_grid),
        list(config.adherence_grid),
        loop_config,
        workers=workers,
    )
    path = out_dir / "surface.csv"
    header = ["usage_p", "adherence_s", "mean_final_stddev", "std_final_stddev", "status"]

    def rows():
        for i, p in enumerate(surface.p_grid):
            for j, s in enumerate(surface.s_grid):
                status = surface.errors.get((i, j), "ok")
                cells = (p, s, surface.mean[i, j], surface.std[i, j])
                yield (*map(format_float, cells), status.replace(",", ";"))

    write_csv(path, header, rows())
    summary = {
        "p_grid": list(surface.p_grid),
        "s_grid": list(surface.s_grid),
        "mean_final_stddev": surface.mean,
        "std_final_stddev": surface.std,
        "errors": {f"{i},{j}": msg for (i, j), msg in surface.errors.items()},
    }
    return [path], summary


def _run_analytic_demo(config: ExperimentConfig, out_dir: Path) -> tuple[list, dict]:
    psi = _parse_psi(config.psi)
    base = gaussian_density(0.0, config.demo_variance)
    amap = AnalyticMap(base, psi)
    phi = triangle_test_function()
    t_list = list(config.t_list)
    weak = weak_limit_probe(amap, phi, t_list)
    norms = [envelope_norm(amap, t) for t in t_list]
    psi_values = [psi.at(t) for t in t_list]
    check = autonomy_check(psi, horizon=max(2, min(50, max(t_list))))
    path = out_dir / "analytic.csv"

    def rows():
        for t, pv, wv, nv in zip(t_list, psi_values, weak, norms):
            yield (str(t), "psi", format_float(pv))
            yield (str(t), "weak_limit", format_float(wv))
            yield (str(t), "norm", format_float(nv))

    write_csv(path, ["t", "stat_name", "value"], rows())
    summary = {
        "psi": config.psi,
        "demo_variance": config.demo_variance,
        "t_list": t_list,
        "psi_values": psi_values,
        "weak_limit": weak,
        "norms": norms,
        "autonomy": {
            "autonomous": check.autonomous,
            "max_violation": check.max_violation,
            "worst_pair": list(check.worst_pair),
        },
    }
    return [path], summary


@dataclass(frozen=True)
class RunResult:
    out_dir: Path
    manifest_path: Path
    output_paths: list


def execute(config: ExperimentConfig) -> RunResult:
    """Run one experiment end to end. Every input is resolved before the
    first write, so a ConfigError leaves nothing behind; after that a
    manifest is always written, and a failure is recorded as its status
    and re-raised."""
    workers = config.resolved_workers()
    if config.experiment != "analytic_demo":
        data = _resolve_dataset(config)
        loop_config = config.loop_config()
        try:
            loop_config.check_rows(data.n_rows, probed=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    out_dir = config.resolved_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    outputs = []
    config_path = out_dir / "config.txt"
    flat = config.to_flat_dict()
    config_path.write_text(
        "".join(f"{k}={flat[k]}\n" for k in sorted(flat)), encoding="utf-8"
    )
    outputs.append(config_path)
    status = "ok"
    try:
        if config.experiment == "sweep":
            files, summary = _run_sweep(config, out_dir, data, loop_config, workers)
        elif config.experiment == "analytic_demo":
            files, summary = _run_analytic_demo(config, out_dir)
        else:
            files, summary = _run_trace_experiment(config, out_dir, data, loop_config, workers)
        outputs.extend(files)
        summary_path = out_dir / "summary.json"
        _write_json(summary_path, {"experiment": config.experiment, **summary})
        outputs.append(summary_path)
    except Exception as exc:
        status = f"failed: {exc}"
        raise
    finally:
        manifest_path = _write_manifest(out_dir, config, status, started, outputs)
    return RunResult(out_dir, manifest_path, outputs)


def _write_manifest(out_dir: Path, config, status, started, outputs) -> Path:
    manifest = {
        "tool_version": loopsim.__version__,
        "rng_algorithm": RNG_ALGORITHM,
        "seed": config.seed,
        "config_snapshot": config.to_flat_dict(),
        "config_hash": config_hash(config),
        "status": status,
        "started_at": started,
        "finished_at": _utcnow(),
        "output_paths": [p.name for p in outputs],
        "content_hashes": {p.name: sha256_file(p) for p in outputs if p.exists()},
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def config_from_manifest(path) -> ExperimentConfig:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"manifest not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"manifest is not valid JSON: {path}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest is not a JSON object: {path}")
    version = manifest.get("tool_version")
    if version != loopsim.__version__:
        # another version may produce other bytes from the same config
        raise ConfigError(
            f"manifest was written by loopsim {version}, this is {loopsim.__version__}: {path}"
        )
    snapshot = manifest.get("config_snapshot")
    if not isinstance(snapshot, dict):
        raise ConfigError(f"manifest has no config_snapshot: {path}")
    try:
        return build_config(snapshot)
    except ConfigError as exc:
        raise ConfigError(f"{exc}: {path}") from exc


# ---------------------------------------------------------------------------
# report merging


# the manifest fields report reads: key -> (JSON type, its name)
_MANIFEST_FIELDS = {
    "config_hash": (str, "a string"),
    "config_snapshot": (dict, "an object"),
    "content_hashes": (dict, "an object"),
    "output_paths": (list, "an array"),
}


def _verify_manifest(manifest_path: Path) -> dict:
    """The manifest, once every output report would merge checks out.

    IntegrityError names the manifest if it or a field report reads is
    malformed, and names the output whose hash is missing or mismatched.
    """
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        manifest = None
    if not isinstance(manifest, dict):
        raise IntegrityError(f"{manifest_path}: not valid JSON")
    for key, (kind, name) in _MANIFEST_FIELDS.items():
        if not isinstance(manifest.get(key, kind()), kind):
            raise IntegrityError(f"{manifest_path}: {key} is not {name}")
    if not all(isinstance(name, str) for name in manifest.get("output_paths", [])):
        raise IntegrityError(f"{manifest_path}: output_paths holds a non-string entry")
    base = manifest_path.parent
    hashes = manifest.get("content_hashes", {})
    for name, recorded in hashes.items():
        target = base / name
        if not target.exists():
            raise IntegrityError(f"{target}: listed in manifest but missing")
        actual = sha256_file(target)
        if actual != recorded:
            raise IntegrityError(f"{target}: content hash mismatch")
    for name in manifest.get("output_paths", []):
        if name in _MERGED_OUTPUTS and name not in hashes:
            raise IntegrityError(f"{base / name}: listed in output_paths without a content hash")
    return manifest


# run output -> (merged file, the columns put before the output's own)
_MERGED_OUTPUTS = {
    "trace.csv": ("merged_traces.csv", ("config_hash", "experiment")),
    "surface.csv": ("merged_surfaces.csv", ("config_hash",)),
    "analytic.csv": ("merged_analytic.csv", ("config_hash",)),
}


def report(manifest_paths, out_dir) -> dict:
    """Merge verified run outputs into tidy long-format CSVs.

    Trace-style rows gain (config_hash, experiment) columns so disjoint
    configs stay separable; identical configs concatenate by repeat. The
    merged header is those columns and the outputs' own header, which
    every output merged into one file must share. Any hash mismatch or
    differing header aborts with the offending file named.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged = {name: [] for name in _MERGED_OUTPUTS}
    headers = {}
    groups = {}
    for mp in manifest_paths:
        mp = Path(mp)
        manifest = _verify_manifest(mp)
        chash = manifest.get("config_hash", "")
        experiment = manifest.get("config_snapshot", {}).get("experiment", "")
        groups.setdefault(chash, {"experiment": experiment, "manifests": []})
        groups[chash]["manifests"].append(str(mp))
        prefix_values = {"config_hash": chash, "experiment": experiment}
        for name in manifest.get("output_paths", []):
            if name not in merged:
                continue
            merged_name, prefix_columns = _MERGED_OUTPUTS[name]
            header, *body = (mp.parent / name).read_text(encoding="utf-8").splitlines()
            if headers.setdefault(name, header) != header:
                raise IntegrityError(
                    f"{mp.parent / name}: header differs from the {name} headers merged "
                    f"into {merged_name}"
                )
            prefix = ",".join(prefix_values[column] for column in prefix_columns)
            merged[name].extend((prefix, row) for row in body)
    written = []
    for name, (merged_name, prefix_columns) in _MERGED_OUTPUTS.items():
        if merged[name]:
            path = out_dir / merged_name
            write_csv(path, [*prefix_columns, headers[name]], merged[name])
            written.append(path)
    summary = {
        "groups": groups,
        "merged_files": [p.name for p in written],
        # merged_traces.csv -> traces
        "row_counts": {merged_name.removeprefix("merged_").removesuffix(".csv"): len(merged[name])
                       for name, (merged_name, _) in _MERGED_OUTPUTS.items()},
    }
    _write_json(out_dir / "report_summary.json", summary)
    return summary
