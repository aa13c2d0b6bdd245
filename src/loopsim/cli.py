"""Command-line front end: gen-data, run, report.

Exit codes: 0 success, 2 configuration/validation failure, 1 runtime
failure. A configuration error writes nothing; every `run` whose inputs
resolved leaves a manifest in the output directory, even when it fails.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from loopsim import harness
from loopsim.data import write_dataset
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-data": _cmd_gen_data,
        "run": _cmd_run,
        "report": _cmd_report,
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
