"""The four benchmark workloads, each a `loopsim run` command line.

Every workload uses linear data with d=10, noise variance 1 and data seed
42. The loop seed comes from the benchmark's ``--seed``, except on
``autonomy_sampling_flatten``: there the known ladder-overflow fault is
counted as failed probes, and the number of such probes depends on the loop
seed, so that workload keeps loop seed 7 and its failed share stays fixed.
It is the only workload marked ``known_fault``: elsewhere that fault makes
a pass incorrect.
"""

from dataclasses import dataclass

DATA_ARGS = ("--kind", "linear", "--cols", "10", "--noise", "1", "--data-seed", "42")


@dataclass(frozen=True)
class Workload:
    name: str
    regime: str  # flatten, collapse, neutral or sweep
    args: tuple  # `loopsim run` arguments, without --seed, --workers, --out-dir
    workers: int
    repeats: int
    total_steps: int
    cells: int = 1
    fixed_seed: int | None = None
    known_fault: bool = False  # the ladder overflow of checks.KNOWN_FAULT is expected

    @property
    def loop_steps(self) -> int:
        """Simulated loop steps in one pass, over repeats and grid cells."""
        return self.cells * self.repeats * self.total_steps

    def loop_seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    def argv(self, seed: int, workers: int) -> list:
        return ["run", *self.args, "--seed", str(self.loop_seed(seed)), "--workers", str(workers)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="autonomy_sampling_flatten",
            regime="flatten",
            args=DATA_ARGS + (
                "--rows", "2000", "--experiment", "autonomy", "--setting", "sampling",
                "--usage", "1", "--adherence", "3", "--steps", "3000", "--repeats", "5",
                "--probe-every", "100",
            ),
            workers=1, repeats=5, total_steps=3000, fixed_seed=7, known_fault=True,
        ),
        Workload(
            name="moments_sliding_collapse",
            regime="collapse",
            args=DATA_ARGS + (
                "--rows", "2000", "--experiment", "moments", "--setting", "sliding",
                "--window-fraction", "0.3", "--usage", "1", "--adherence", "0",
                "--steps", "1400", "--repeats", "5", "--probe-every", "10",
            ),
            workers=1, repeats=5, total_steps=1400,
        ),
        Workload(
            name="sweep_sgd_grid",
            regime="sweep",
            args=DATA_ARGS + (
                "--rows", "400", "--experiment", "sweep", "--setting", "sliding",
                "--model", "sgd", "--steps", "280", "--repeats", "3",
                "--usage-grid", "0,0.25,0.5,0.75,1", "--adherence-grid", "0,0.75,1.5,2.25,3",
            ),
            workers=2, repeats=3, total_steps=280, cells=25,
        ),
        Workload(
            name="trace_sampling_longrun",
            regime="neutral",
            args=DATA_ARGS + (
                "--rows", "2000", "--experiment", "density_trace", "--setting", "sampling",
                "--usage", "0.1", "--adherence", "0.9", "--steps", "20000", "--repeats", "4",
                "--probe-every", "2000", "--collect-traces",
            ),
            workers=2, repeats=4, total_steps=20000,
        ),
    )
}

# statistics each experiment reads; the other trace.csv statistics may be
# dropped by the program without failing a check
REQUIRED_STATS = {
    "flatten": ("psi", "stddev"),
    "collapse": ("moment_l1",),
    "neutral": ("psi",),
}
