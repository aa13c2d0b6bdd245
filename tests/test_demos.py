"""Smoke test: every narrative demo runs to the end and cleans up after itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopsim

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_there_are_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly_and_leaves_nothing_behind(demo, tmp_path):
    # the demo's temporary files and its working directory are both tmp_path
    src = str(Path(loopsim.__file__).resolve().parents[1])
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == []
