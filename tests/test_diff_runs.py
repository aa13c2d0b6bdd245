"""tools/diff_runs.py on two tiny runs: identical, doctored and reseeded."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from loopsim.harness import build_config, execute

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_runs.py"


def _run(out_dir, seed):
    execute(build_config({
        "experiment": "moments", "kind": "linear", "rows": "200", "cols": "4",
        "setting": "sliding", "usage": "1", "adherence": "0.5", "steps": "120",
        "probe_every": "40", "repeats": "2", "seed": str(seed), "out_dir": str(out_dir),
    }))
    return out_dir


def _diff(a, b):
    done = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout.splitlines()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("diff_runs")
    return _run(root / "a", 3), _run(root / "b", 3), _run(root / "c", 4)


def test_two_runs_of_one_config_are_identical(runs):
    a, b, _ = runs
    assert _diff(a, b) == (0, ["summary.json: identical", "trace.csv: identical"])


def test_a_moved_cell_is_counted_under_its_stat_with_its_relative_move(runs, tmp_path):
    a, _, _ = runs
    doctored = Path(shutil.copytree(a, tmp_path / "doctored"))
    lines = (doctored / "trace.csv").read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if ",moment_2," in line)
    step, repeat, stat, value = lines[row].split(",")
    lines[row] = f"{step},{repeat},{stat},{float(value) * (1 + 1e-3)!r}"
    cells = sum(",moment_2," in line for line in lines)
    (doctored / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out = _diff(a, doctored)
    assert code == 1
    assert out == ["summary.json: identical",
                   f"trace.csv moment_2: 1 of {cells} cells differ, largest relative move 0.001"]


def test_another_seed_moves_cells_of_every_file(runs):
    a, _, c = runs
    code, out = _diff(a, c)
    assert code == 1
    assert any(line.startswith("trace.csv psi: ") for line in out)
    assert any(line.startswith("summary.json psi_mean: ") for line in out)
    assert not any(line.endswith("identical") for line in out)
