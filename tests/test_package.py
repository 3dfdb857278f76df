from pathlib import Path

import numpy as np
import pytest

import dicketangle
from dicketangle import cli


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
    with pytest.raises(dicketangle.InvalidParamsError, match=f"must be a {expected}, got"):
        getattr(dicketangle, name)(*args)


_P = dicketangle.DickeParams(4, 2, 0.5)


_WRONG_VALUE_TYPES = [
    ("record-params", lambda: dicketangle.TangleRecord("p", 0.1, 0.0, 0.1, 0.0, 0.1),
     dicketangle.InvalidParamsError, "params must be a DickeParams, got str"),
    ("two-qubit-str", lambda: dicketangle.TwoQubitMarginal(_P, "1", 0, 0, 0, 0, 0),
     dicketangle.InvalidParamsError, "A must be a real number, got str"),
    ("two-qubit-none", lambda: dicketangle.TwoQubitMarginal(_P, None, 0, 0, 0, 0, 0),
     dicketangle.InvalidParamsError, "A must be a real number, got None$"),
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


# every entry point that takes numbers from outside: how it takes a value, and whether it
# wants real numbers (the others take complex ones)
_NUMBER_ENTRY_POINTS = {
    "DickeParams-a": (lambda v: dicketangle.DickeParams(4, 2, v), True),
    "tangle_table-a_values": (lambda v: dicketangle.tangle_table(4, 2, v), True),
    "tangle_grid-a_values": (lambda v: dicketangle.tangle_grid([(4, 2)], v), True),
    "run_sweep-a_min": (lambda v: cli.run_sweep((4,), (1,), a_min=v), True),
    "run_sweep-a_max": (lambda v: cli.run_sweep((4,), (1,), a_max=v), True),
    "run_check-tol": (lambda v: cli.run_check(4, 3, v), True),
    "run_oracle-tol": (lambda v: cli.run_oracle(3, 3, v), True),
    "TwoQubitMarginal-A": (lambda v: dicketangle.TwoQubitMarginal(None, v, 0, 0, 0, 0, 0), True),
    "TangleRecord-c1_sq": (lambda v: dicketangle.TangleRecord(_P, v, 0, 0, 0, 0), True),
    "SmallMatrix-entries": (lambda v: dicketangle.SmallMatrix(2, v), True),
    "Spinor-c0": (lambda v: dicketangle.Spinor(v, 0.0), False),
    "FullState-amplitudes": (lambda v: dicketangle.FullState(1, v), False),
}
_BAD_NUMBERS = {
    "str": ("0.5", False),
    "bytes": (b"0.5", False),
    "np.str_": (np.str_("0.5"), False),
    "None": (None, False),
    "list-with-str": ([0.5, "0.5"], False),
    "10**400": (10**400, False),
    "complex-array": (np.array([1, 0, 0, 1j]), True),
}
_BAD_NUMBER_CASES = [
    pytest.param(call, value, id=f"{entry}-{bad}")
    for entry, (call, wants_real) in _NUMBER_ENTRY_POINTS.items()
    for bad, (value, only_where_real) in _BAD_NUMBERS.items()
    if wants_real or not only_where_real
]


@pytest.mark.parametrize("call,value", _BAD_NUMBER_CASES)
def test_every_entry_point_refuses_what_is_not_a_number_by_one_rule(call, value):
    # dicke.check_numbers decides for all of them, so they cannot drift apart
    with pytest.raises(dicketangle.DicketangleError) as refused:
        call(value)
    assert refused.type is dicketangle.InvalidParamsError
    assert refused.match(r"must (be a (real )?number, got |lie within float range)")


_UP, _DOWN = dicketangle.Spinor(1.0, 0.0), dicketangle.Spinor(0.0, 1.0)

# a value of the wrong type, shape or range, whichever entry point it enters
_SHAPE_OR_RANGE_MISTAKES = {
    "SmallMatrix-dim-3": lambda: dicketangle.SmallMatrix(3, range(9)),
    "SmallMatrix-3-entries-for-dim-2": lambda: dicketangle.SmallMatrix(2, (1.0, 0.0, 0.0)),
    "concurrence-of-a-2x2": lambda: dicketangle.concurrence_two_qubit(
        dicketangle.SmallMatrix(2, (0.5, 0.0, 0.0, 0.5))
    ),
    "SingleQubitMarginal-of-a-4x4": lambda: dicketangle.SingleQubitMarginal(
        _P, dicketangle.SmallMatrix(4, (0.0,) * 16)
    ),
    "SingleQubitMarginal-of-a-str": lambda: dicketangle.SingleQubitMarginal(_P, "x"),
    "partial_trace_to_two-of-one-qubit": lambda: dicketangle.partial_trace_to_two(
        dicketangle.FullState(1, [1.0, 0.0])
    ),
    "symmetrize-n-1": lambda: dicketangle.symmetrize_two_spinors(1, 1, _UP, _DOWN),
    "symmetrize-k-0": lambda: dicketangle.symmetrize_two_spinors(4, 0, _UP, _DOWN),
    "symmetrize-k-n": lambda: dicketangle.symmetrize_two_spinors(4, 4, _UP, _DOWN),
    "FullState-3-amplitudes": lambda: dicketangle.FullState(2, [1.0, 0.0, 0.0]),
    "tangle_table-2d-a_values": lambda: dicketangle.tangle_table(4, 2, [[0.1, 0.2], [0.3, 0.4]]),
    "DickeParams-k-past-n-half": lambda: dicketangle.DickeParams(4, 3, 0.5),
}


@pytest.mark.parametrize(
    "build", _SHAPE_OR_RANGE_MISTAKES.values(), ids=list(_SHAPE_OR_RANGE_MISTAKES)
)
def test_every_shape_or_range_mistake_raises_invalid_params(build):
    with pytest.raises(dicketangle.DicketangleError) as refused:
        build()
    assert refused.type is dicketangle.InvalidParamsError


def test_readme_python_examples_run(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 3
    for block in blocks:
        exec(block.split("```")[0], {})
    assert len(capsys.readouterr().out.splitlines()) == 3
