"""The benchmark's layer trace must find every call site it wraps."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_layertrace_patch_point_resolves():
    # loaded by path and never entered, so nothing is patched
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _name, _hook in layertrace._patch_points()
               if not hasattr(owner, attr)]
    assert missing == []
