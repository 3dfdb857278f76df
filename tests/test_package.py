from pathlib import Path

import pytest

import dicketangle


def test_public_names_resolve():
    for name in dicketangle.__all__:
        assert hasattr(dicketangle, name), name
    namespace = {}
    exec("from dicketangle import *", namespace)
    assert set(dicketangle.__all__) <= set(namespace)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == dicketangle.__version__
