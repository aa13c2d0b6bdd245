"""loopsim benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 prints the end-to-end metrics (setup_s, wall_s, steps_per_s,
peak_rss_mib); --trace 1 prints the per-layer metrics of a traced pass.
Either way every pass's artifacts go through the property checks in
checks.py, and the last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import PassCheck, check_pass, expected_operations  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The whole run, set-up timing and checks included, must end within
# DEADLINE_FIXED_S + DEADLINE_PER_S x --seconds: the fixed part covers the
# set-up interpreters and the passes of a fixed size (the traced run's serial
# and parallel passes and the pass that overruns --seconds); 170 s at 12 s.
DEADLINE_FIXED_S = 152.0
DEADLINE_PER_S = 1.5
SETUP_SAMPLES = 5  # fresh interpreters per setup.* metric in the traced run
SETUP_S_SAMPLES = 4  # for setup_s: this many before the passes and as many after
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORTTIME_MODULES = ("loopsim", "loopsim.analytic", "loopsim.diagnostics",
                      "loopsim.regressors", "loopsim.cli")


def child_env(root: Path) -> dict:
    """Environment for every process the benchmark starts.

    One BLAS/OpenMP thread per process: with at most two pool workers,
    workers x threads stays within the two cores. src/ goes on PYTHONPATH.
    """
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    # an installed loopsim has its bytecode cached; so does the checkout
    # after the first interpreter, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv, env, cwd, timeout, capture_stderr=False) -> subprocess.CompletedProcess:
    """Run a child in its own process group and reap it.

    On timeout, or when this process is asked to stop, the whole group
    (the child and any pool workers it forked) is killed before returning.
    """
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if capture_stderr else subprocess.DEVNULL,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def time_interpreter(code: str, env, root, samples: int, warm_up: bool = True) -> list:
    """Wall times of fresh interpreters running `code`; the warm-up
    interpreter, untimed, fills the bytecode cache."""
    walls = []
    for i in range(samples + warm_up):
        start = time.perf_counter()
        done = run_child([sys.executable, "-c", code], env, root, timeout=60)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"interpreter running {code!r} exited {done.returncode}")
        if i or not warm_up:
            walls.append(wall)
    return walls


def import_times(env, root, samples: int) -> dict:
    """Median cumulative import time per loopsim module, from -X importtime."""
    seen = {name: [] for name in IMPORTTIME_MODULES}
    for _ in range(samples):
        done = run_child([sys.executable, "-X", "importtime", "-c", "import loopsim.cli"],
                         env, root, timeout=60, capture_stderr=True)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()].append(int(parts[1]) / 1e6)
    # a module that is no longer imported at start-up costs nothing
    return {f"setup.import.{name}_s": statistics.median(values) if values else 0.0
            for name, values in seen.items()}


def check_passes(workload, passes) -> list:
    checks = []
    for p in passes:
        if p["exit"] != 0:
            result = PassCheck(expected_operations(workload))
            result.fail("exit", f"loopsim run exited {p['exit']}: {p['log'].strip()[-300:]}")
        else:
            result = check_pass(workload, p["dir"])
        checks.append(result)
    return checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()
    deadline = DEADLINE_FIXED_S + DEADLINE_PER_S * args.seconds
    root = Path.cwd()
    if not (root / "src" / "loopsim" / "__init__.py").is_file():
        print("perfbench: run from the root of a loopsim checkout (src/loopsim not found)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    out_base = root / ".bench_out" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(out_base, ignore_errors=True)
    out_base.mkdir(parents=True)
    metrics = {}
    try:
        if args.trace:
            metrics["setup.interpreter_s"] = statistics.median(
                time_interpreter("pass", env, root, SETUP_SAMPLES))
            metrics.update(import_times(env, root, SETUP_SAMPLES))
        else:
            # samples on both sides of the passes average over the machine's
            # speed drift, which runs in phases of seconds to minutes
            setup = time_interpreter("import loopsim.cli", env, root, SETUP_S_SAMPLES)
        remaining = deadline - (time.perf_counter() - started)
        try:
            done = run_child(
                [sys.executable, str(HERE / "runner.py"), "--workload", workload.name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out-dir", str(out_base)],
                env, root, timeout=remaining, capture_stderr=True)
        except subprocess.TimeoutExpired:
            print(f"perfbench: runner exceeded the {deadline:.0f} s deadline", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: runner exited {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        report = json.loads(done.stdout.strip().splitlines()[-1])
        passes = report["passes"]
        if not args.trace:
            setup += time_interpreter("import loopsim.cli", env, root, SETUP_S_SAMPLES,
                                      warm_up=False)
        checks = check_passes(workload, passes)
    finally:
        shutil.rmtree(out_base, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            out_base.parent.rmdir()

    if args.trace:
        metrics.update(report["metrics"])
    else:
        wall = statistics.median(p["wall_s"] for p in passes)
        metrics.update({
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "steps_per_s": workload.loop_steps / wall,
            "peak_rss_mib": report["peak_rss_mib"],
        })
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted = sum(len(c.operations) for c in checks)
    failed = sum(len(c.failed) for c in checks)
    first_failure = {}
    for c in checks:
        for name, detail, _ops in c.failures:
            first_failure.setdefault(name, detail)
    for name, detail in first_failure.items():
        times = sum(f[0] == name for c in checks for f in c.failures)
        print(f"check {name} failed {times} time(s), first: {detail}")
    print(f"{workload.name}: seed {args.seed}, {len(passes)} pass(es), "
          f"{failed} of {attempted} operations failed")
    for m in listed:
        print(f"  {m['name']} = {metrics[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": not any(c.unexpected for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
