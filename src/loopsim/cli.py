"""Command-line front end: gen-data, run, report, selftest.

Exit codes: 0 success, 2 configuration/validation failure, 1 runtime
failure. A configuration error writes nothing; every `run` whose inputs
resolved leaves a manifest in the output directory, even when it fails.
"""

import argparse
import dataclasses
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from loopsim import harness
from loopsim.data import generate_linear, write_dataset
from loopsim.harness import ConfigError, IntegrityError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_RUN_KEYS = tuple(sorted(f.name for f in dataclasses.fields(harness.ExperimentConfig)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopsim",
        description="Repeated-learning feedback-loop simulator and analysis harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_default = {f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig)}
    gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV plus JSON sidecar")
    gen.add_argument("--kind", choices=harness.GENERATOR_KINDS, default=run_default["kind"])
    gen.add_argument("--rows", type=int, default=run_default["rows"])
    gen.add_argument("--cols", type=int, default=run_default["cols"])
    gen.add_argument("--noise", type=float, default=run_default["noise"])
    gen.add_argument("--seed", type=int, default=run_default["data_seed"])
    gen.add_argument("--out-dir", default=None, help="target directory (default: LOOPSIM_OUT or .)")

    runp = sub.add_parser("run", help="execute one experiment and write trace/summary/manifest")
    runp.add_argument("--config", default=None, help="flat key=value config file")
    runp.add_argument("--from-manifest", default=None,
                      help="rerun the config recorded in an earlier manifest")
    for key in _RUN_KEYS:
        flag = "--" + key.replace("_", "-")
        if key == "collect_traces":
            runp.add_argument(flag, dest=key, action="store_const", const="true", default=None)
        else:
            runp.add_argument(flag, dest=key, default=None, metavar="V")

    rep = sub.add_parser("report", help="verify manifests and merge outputs into tidy CSVs")
    rep.add_argument("manifests", nargs="+", help="manifest.json paths")
    rep.add_argument("--out-dir", default=None)

    sub.add_parser("selftest", help="run the built-in invariant checks")
    return parser


def _cmd_gen_data(args) -> int:
    out_dir = Path(args.out_dir or os.environ.get("LOOPSIM_OUT", "."))
    data = harness.generate_dataset(args.kind, args.rows, args.cols, args.noise, args.seed)
    stem = f"{args.kind}_m{args.rows}_d{args.cols}_s{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path, sidecar_path = write_dataset(data, out_dir / f"{stem}.csv")
    print(csv_path)
    print(sidecar_path)
    return EXIT_OK


def _cmd_run(args) -> int:
    raw = {}
    if args.from_manifest and args.config:
        raise ConfigError("--config and --from-manifest cannot be given together")
    if args.from_manifest:
        raw = harness.config_from_manifest(args.from_manifest).to_flat_dict()
    elif args.config:
        try:
            raw = harness.parse_config_file(args.config)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
    for key in _RUN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    config = harness.build_config(raw)
    result = harness.execute(config)
    print(f"{config.experiment}: ok")
    for path in result.output_paths:
        print(path)
    print(result.manifest_path)
    return EXIT_OK


def _cmd_report(args) -> int:
    out_dir = args.out_dir or os.environ.get("LOOPSIM_OUT", "loopsim_report")
    summary = harness.report(args.manifests, out_dir)
    print(f"merged {len(summary['groups'])} config group(s) into {out_dir}")
    for name in summary["merged_files"]:
        print(Path(out_dir) / name)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def _check_data():
    from loopsim.data import friedman_response

    a = generate_linear(50, 3, 1.0, seed=11)
    b = generate_linear(50, 3, 1.0, seed=11)
    assert np.array_equal(a.features, b.features) and np.array_equal(a.targets, b.targets)
    rows = np.array([[0.5, 1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 1.0, 1.0]])
    resp = friedman_response(rows)
    assert abs(resp[0] - 10.0) < 1e-12 and abs(resp[1] - 15.0) < 1e-12
    return "generators deterministic, closed-form rows match"


def _check_density():
    from loopsim.density import EmpiricalDistribution, dkw_epsilon

    eps = dkw_epsilon(0.05, 2000)
    assert abs(eps - 0.030368073309) < 1e-9
    assert abs(dkw_epsilon(0.05, 8000) - eps / 2) < 1e-15
    dist = EmpiricalDistribution(np.array([-1.0, 0.0, 1.0]))
    assert abs(dist.ecdf(0.5) - 2.0 / 3.0) < 1e-15
    assert abs(dist.interval_mass(0.5) - 1.0 / 3.0) < 1e-15
    pair = EmpiricalDistribution(np.array([-0.5, 0.5]))
    assert abs(pair.moment_l1_sum(4).value - 0.3125) < 1e-15
    assert pair.raw_moment(1) == 0.0 and pair.raw_moment(2) == 0.25
    return "ECDF, DKW, interval mass, moment sums match hand values"


def _check_regressors():
    from loopsim.regressors import fit_huber_line, fit_ridge

    model = fit_ridge(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]), 0.1)
    assert abs(model.weights[0] - 20.0 / 21.0) < 1e-12
    assert abs(model.intercept - 2.0 / 21.0) < 1e-12
    t = np.arange(10.0)
    line = fit_huber_line(t, 3.0 * t - 2.0)
    assert abs(line.weights[0] - 3.0) < 1e-8 and abs(line.intercept + 2.0) < 1e-8
    return "ridge hand solution and exact-line robust fit match"


def _check_analytic():
    from loopsim.analytic import (
        AnalyticMap, autonomy_check, apply_map, envelope_step, gaussian_density,
        linear_sequence, operator_norm_lower_bound, power_sequence,
    )

    amap = AnalyticMap(gaussian_density(0.0, 25.0), linear_sequence())
    assert abs(apply_map(amap, 5, 0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12
    assert autonomy_check(power_sequence(3.0), 10).autonomous
    assert not autonomy_check(linear_sequence(), 2).autonomous
    b = operator_norm_lower_bound(envelope_step(0.5), (0.0, 1.0), breakpoints=[0.5])
    assert abs(b - 0.5) < 1e-8
    return "scaling map, autonomy check, and norm bounds match hand values"


def _check_engine():
    from loopsim.data import generate_linear as gen
    from loopsim.engine import LoopConfig, run

    data = gen(60, 3, 1.0, seed=4)
    config = LoopConfig(
        setting="sampling_update", total_steps=200, usage_p=0.5, adherence_s=1.0,
        model="ridge_exact", seed=9, repeats=2, probe_every=50,
    )
    r1 = run(data, config)
    r2 = run(data, config)
    assert np.array_equal(r1.psi_trace, r2.psi_trace, equal_nan=True)
    assert np.array_equal(r1.stddev_trace, r2.stddev_trace, equal_nan=True)
    for record in r1.step_traces:
        used = np.count_nonzero(record.used_prediction)
        band = 4.0 * math.sqrt(0.5 * 0.5 / 200)
        assert abs(used / 200 - 0.5) <= band
    return "runs deterministic; used-prediction rate inside the binomial band"


def _check_diagnostics():
    from loopsim.diagnostics import normality_test

    rng = np.random.default_rng(123)
    x = rng.standard_normal(500)
    s1, _ = normality_test(x)
    s2, _ = normality_test(3.7 * x - 11.0)
    assert abs(s1 - s2) < 1e-8
    return "normality statistic affine-invariant"


def _check_end_to_end():
    with tempfile.TemporaryDirectory() as tmp:
        base = {
            "experiment": "density_trace", "kind": "linear", "rows": "80", "cols": "3",
            "noise": "1", "data_seed": "2", "setting": "sampling", "usage": "1",
            "adherence": "0.5", "steps": "120", "probe_every": "60", "seed": "3",
            "repeats": "2", "workers": "1",
        }
        cfg_a = harness.build_config({**base, "out_dir": str(Path(tmp) / "a")})
        cfg_b = harness.build_config({**base, "out_dir": str(Path(tmp) / "b")})
        res_a = harness.execute(cfg_a)
        res_b = harness.execute(cfg_b)
        ha = {p.name: harness.sha256_file(p) for p in res_a.output_paths if p.name != "config.txt"}
        hb = {p.name: harness.sha256_file(p) for p in res_b.output_paths if p.name != "config.txt"}
        assert ha == hb, "re-run outputs differ"
        cfg_c = harness.build_config(
            {**harness.config_from_manifest(res_a.manifest_path).to_flat_dict(),
             "out_dir": str(Path(tmp) / "c")}
        )
        res_c = harness.execute(cfg_c)
        hc = {p.name: harness.sha256_file(p) for p in res_c.output_paths if p.name != "config.txt"}
        assert ha == hc, "manifest rerun outputs differ"
    return "tiny run reproduces byte-identical outputs, incl. from manifest"


_SELFTEST_CHECKS = (
    ("synthetic data", _check_data),
    ("density estimates", _check_density),
    ("regressors", _check_regressors),
    ("analytic maps", _check_analytic),
    ("loop engine", _check_engine),
    ("diagnostics", _check_diagnostics),
    ("end-to-end determinism", _check_end_to_end),
)


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        try:
            detail = check()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}: {detail}")
    if failures:
        print(f"{failures} of {len(_SELFTEST_CHECKS)} checks failed")
        return EXIT_RUNTIME
    print(f"all {len(_SELFTEST_CHECKS)} checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-data": _cmd_gen_data,
        "run": _cmd_run,
        "report": _cmd_report,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
