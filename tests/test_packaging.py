"""Packaging metadata agrees with the importable package."""

import warnings
from pathlib import Path

import fcrg

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is flagged as beta
        config = read_configuration(str(PYPROJECT))
    assert config["project"]["version"] == fcrg.__version__
