"""Package surface: the star import, the export list and the version."""

import warnings
from pathlib import Path

import loopsim

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from loopsim import *", namespace)
    assert [name for name in loopsim.__all__ if name not in namespace] == []


def test_all_has_no_duplicates():
    assert len(loopsim.__all__) == len(set(loopsim.__all__))


def test_pyproject_reads_the_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        # older setuptools flags [tool.setuptools] tables as beta
        warnings.simplefilter("ignore")
        project = read_configuration(PYPROJECT)["project"]
    assert project["version"] == loopsim.__version__
