from pathlib import Path

import numpy as np
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


_P = dicketangle.DickeParams(4, 2, 0.5)


_WRONG_VALUE_TYPES = [
    ("single-qubit-rho", lambda: dicketangle.SingleQubitMarginal(_P, "x"),
     dicketangle.NotDensityMatrixError, "rho must be a SmallMatrix, got str"),
    ("record-params", lambda: dicketangle.TangleRecord("p", 0.1, 0.0, 0.1, 0.0, 0.1),
     dicketangle.InvalidParamsError, "params must be a DickeParams, got str"),
    ("two-qubit-str", lambda: dicketangle.TwoQubitMarginal(_P, "1", 0, 0, 0, 0, 0),
     dicketangle.InvalidParamsError, "A must be a real number, got str"),
    ("two-qubit-none", lambda: dicketangle.TwoQubitMarginal(_P, None, 0, 0, 0, 0, 0),
     dicketangle.InvalidParamsError, "A must be a real number, got NoneType"),
    ("record-str", lambda: dicketangle.TangleRecord(_P, "0.1", 0.0, 0.1, 0.0, 0.1),
     dicketangle.InvalidParamsError, "c1_sq must be a real number, got str"),
    ("two-qubit-params", lambda: dicketangle.TwoQubitMarginal("p", 1.0, 0, 0, 0, 0, 0),
     dicketangle.InvalidParamsError, "params must be a DickeParams or None, got str"),
    ("record-past-float-range", lambda: dicketangle.TangleRecord(_P, 10**400, 0, 0, 0, 0),
     dicketangle.InvalidParamsError, "c1_sq must lie within float range"),
    ("two-qubit-past-float-range",
     lambda: dicketangle.TwoQubitMarginal(_P, 10**400, 0, 0, 0, 0, 0),
     dicketangle.InvalidParamsError, "A must lie within float range"),
    ("single-qubit-params",
     lambda: dicketangle.SingleQubitMarginal("p", dicketangle.SmallMatrix(2, (1.0, 0.0, 0.0, 0.0))),
     dicketangle.InvalidParamsError, "params must be a DickeParams or None, got str"),
]


@pytest.mark.parametrize(
    "build,error,message", [case[1:] for case in _WRONG_VALUE_TYPES],
    ids=[case[0] for case in _WRONG_VALUE_TYPES],
)
def test_value_types_raise_typed_errors_for_wrong_field_types(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_value_types_store_their_numbers_as_floats():
    m = dicketangle.TwoQubitMarginal(_P, 1, 0, np.float64(0.0), 0, 0, 0)
    assert [type(getattr(m, name)) for name in "ABCDEF"] == [float] * 6
    rec = dicketangle.TangleRecord(_P, 1, 0, 1, np.int64(0), 1)
    assert [type(x) for x in (rec.c1_sq, rec.c2_sq, rec.tau, rec.n2, rec.xi)] == [float] * 5


def test_marginal_types_accept_params_of_none():
    # a marginal built from a dense state alone belongs to no DickeParams
    assert dicketangle.TwoQubitMarginal(None, 1.0, 0, 0, 0, 0, 0).params is None
    rho = dicketangle.SmallMatrix(2, (1.0, 0.0, 0.0, 0.0))
    assert dicketangle.SingleQubitMarginal(None, rho).params is None
