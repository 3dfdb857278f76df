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



_WRONG_TYPE_CALLS = [
    ("tangle_record", [(3, 1, 0.5)], "DickeParams"),
    ("two_qubit_marginal", [(3, 1, 0.5)], "DickeParams"),
    ("amplitudes", [(3, 1, 0.5)], "DickeParams"),
    ("expand_state", [(3, 1, 0.5)], "DickeParams"),
    ("symmetrize_two_spinors", [3, 1, (1, 0), (0, 1)], "Spinor"),
    ("partial_trace_to_two", [None], "FullState"),
    ("partial_trace_to_one", [None], "FullState"),
    ("single_qubit_marginal", [None], "TwoQubitMarginal"),
    ("negativity_two_qubit", [None], "TwoQubitMarginal"),
    ("marginal_matrix", [None], "TwoQubitMarginal"),
    ("one_vs_rest", [None], "SingleQubitMarginal"),
    ("concurrence_two_qubit", [None], "SmallMatrix"),
]


@pytest.mark.parametrize(
    "name,args,expected", _WRONG_TYPE_CALLS, ids=[call[0] for call in _WRONG_TYPE_CALLS]
)
def test_wrong_argument_type_raises_typed_error(name, args, expected):
    # concurrence_two_qubit keeps the error type it raises for a matrix that is not 4x4
    error = (
        dicketangle.WrongDimensionError
        if name == "concurrence_two_qubit"
        else dicketangle.InvalidParamsError
    )
    with pytest.raises(error, match=f"must be a {expected}, got"):
        getattr(dicketangle, name)(*args)
