"""Runs one workload's passes in a process that has already imported loopsim.

Started by run.py with the thread-count variables set; prints one JSON
object on stdout. Untraced mode runs whole passes until --seconds have
passed and reports each pass's wall time plus the peak memory of this
process and its pool workers, sampled. Trace mode runs one untraced pass at
workers=1, then traced passes at workers=1 (so every call is recorded in
this process) until --seconds have passed, then one untraced pass at the
workload's own worker count when that is above 1.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from loopsim import cli  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SAMPLE_S = 0.1  # memory sampling period; one sample costs ~4 ms with two workers


def _pss_kib(pid) -> int:
    """Proportional set size: a page shared by n processes counts 1/n in each."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):  # the process has just ended
        pass
    return 0


def _children() -> list:
    pids = []
    for task in os.listdir("/proc/self/task"):
        with contextlib.suppress(OSError):
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as fh:
                pids += fh.read().split()
    return pids


class PeakMemory:
    """Peak summed PSS of this process and its children while in the block.

    Forked pool workers share most of their pages with this process; PSS
    counts each shared page once over the tree, where adding up resident
    sizes would count it once per process. Sampled every SAMPLE_S seconds,
    so a peak shorter than that can be missed.
    """

    def __enter__(self):
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while True:
            before = _pss_kib("self")
            workers = sum(_pss_kib(pid) for pid in _children())
            # A fork or an exit during the sample moves shared pages between
            # this process and a worker; of the readings taken before and
            # after the workers', the smaller never counts them twice.
            total = min(before, _pss_kib("self")) + workers
            self.peak_kib = max(self.peak_kib, total)
            if self._stop.wait(SAMPLE_S):
                return

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _run(main, argv, out_dir: Path) -> dict:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = main([*argv, "--out-dir", str(out_dir)])
        wall = time.perf_counter() - start
    return {"dir": str(out_dir), "wall_s": wall, "exit": code,
            "log": sink.getvalue() if code else ""}


def _lines(path: Path) -> int:
    if not path.is_file():
        return 0
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1


def untraced(workload, seed, seconds, out_base) -> dict:
    passes = []
    start = time.perf_counter()
    with PeakMemory() as memory:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(_run(cli.main, workload.argv(seed, workload.workers),
                               out_base / f"pass-{len(passes)}"))
    return {"passes": passes, "peak_rss_mib": memory.peak_kib / 1024.0}


def traced(workload, seed, seconds, out_base) -> dict:
    from layertrace import LayerTrace

    passes = []

    def one(name, workers, main=cli.main):
        passes.append(_run(main, workload.argv(seed, workers), out_base / name))
        return passes[-1]["wall_s"]

    serial = one("serial", 1)
    per_pass = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        name = f"traced-{len(per_pass)}"
        with LayerTrace() as trace:
            wall = one(name, 1, trace.main)
        metrics = trace.metrics()
        out_dir = out_base / name
        metrics["harness.steps_rows"] = _lines(out_dir / "steps.csv")
        metrics["harness.trace_rows"] = _lines(out_dir / "trace.csv")
        metrics["harness.output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        metrics["trace.overhead_s"] = wall - serial
        per_pass.append(metrics)
    # means per traced pass keep the layer self times adding up to trace.wall_s
    metrics = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["parallel.serial_wall_s"] = serial
    metrics["parallel.speedup"] = (
        serial / one("parallel", workload.workers) if workload.workers > 1 else 1.0
    )
    return {"passes": passes, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out_base = Path(args.out_dir)
    if args.trace:
        result = traced(workload, args.seed, args.seconds, out_base)
    else:
        result = untraced(workload, args.seed, args.seconds, out_base)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
