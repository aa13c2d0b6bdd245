"""The benchmark's layer trace must find, and reach, every call site it wraps."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
# loaded by path, as the benchmark itself loads it
_SPEC = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)

# no loop fits through fit_sgd until the SGD lanes get a patch point of their own
DEAD_BY_DESIGN = {"regressors.fit_sgd"}


def test_every_layertrace_patch_point_resolves():
    # never entered, so nothing is patched
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _name, _hook in layertrace._patch_points()
               if not hasattr(owner, attr)]
    assert missing == []


def test_every_layertrace_span_is_recorded(tmp_path):
    # a span missing here is a call site the code no longer goes through,
    # such as data generation that stopped calling harness.generate_linear
    common = ["--rows", "120", "--steps", "40", "--repeats", "1", "--workers", "1"]
    with layertrace.LayerTrace() as trace:
        for flags in (["--experiment", "density_trace", "--collect-traces"],
                      ["--experiment", "autonomy"],
                      ["--experiment", "sweep", "--usage-grid", "0,1", "--adherence-grid", "1"]):
            out = tmp_path / flags[1]
            assert trace.main(["run", *flags, *common, "--out-dir", str(out)]) == 0
    recorded = {name for _seq, _parent, name, _start, _end in trace.spans}
    names = {name for _owner, _attr, name, _hook in layertrace._patch_points()}
    assert names - DEAD_BY_DESIGN - recorded == set()
