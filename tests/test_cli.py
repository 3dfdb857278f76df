import io
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import dicketangle
from dicketangle import cli, marginals, measures, oracle
from dicketangle.cli import (
    _a_grid,
    main,
    run_check,
    run_oracle,
    run_sweep,
)
from dicketangle.dicke import DickeParams, amplitude_rows
from dicketangle.errors import (
    CapExceededError,
    InvalidParamsError,
    NotDensityMatrixError,
    NumericalInstabilityError,
)

from test_marginals import _fails_to_converge

HEADER = "N,k,a,c1_sq,c2_sq,tau,n2,xi"


def _sweep_text(**kwargs):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_sweep(**kwargs)
    return rc, out.getvalue(), err.getvalue()


def test_sweep_header_and_grid_shape():
    rc, text, _ = _sweep_text(n_values=(4,), k_values=None, a_steps=5)
    lines = text.splitlines()
    assert rc == 0
    assert lines[0] == HEADER
    assert len(lines) == 1 + 2 * 5  # k = 1, 2 at five a-values each
    assert text.endswith("\n")
    assert "\r" not in text


def test_sweep_a_grid_includes_endpoints():
    _, text, _ = _sweep_text(n_values=(4,), k_values=(1,), a_steps=3)
    a_col = [line.split(",")[2] for line in text.splitlines()[1:]]
    assert a_col == ["0", "0.5", "1"]

    # 0.065 + 10 * (1.0 - 0.065) / 10 rounds to 1.0000000000000002
    rc, text, err = _sweep_text(n_values=(4,), k_values=(1,), a_min=0.065, a_max=1.0, a_steps=11)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert (rc, err, len(rows)) == (0, "", 11)
    assert rows[-1][2:] == ["1", "0", "0", "0", "0", "0"]


@pytest.mark.parametrize(
    "a_min,a_max,a_steps",
    [(0.065, 1.0, 11), (0.002, 1.0, 7), (0.003, 0.95, 11), (0.0, 1.0, 101), (0.4, 0.4, 2)],
)
def test_a_grid_keeps_its_points_inside_the_endpoints(a_min, a_max, a_steps):
    # on the first three, a_min + (a_steps - 1) * (a_max - a_min) / (a_steps - 1)
    # rounds to 1.0000000000000002, 0.9999999999999999 and 0.9499999999999998
    grid = _a_grid(a_min, a_max, a_steps)
    assert len(grid) == a_steps
    assert grid[0] == a_min and grid[-1] == a_max
    assert all(a_min <= a <= a_max for a in grid)
    assert grid == sorted(grid)


def test_sweep_rows_match_tangle_records():
    rc, text, _ = _sweep_text(n_values=(3, 4), k_values=None, a_steps=5)
    assert rc == 0
    for line in text.splitlines()[1:]:
        n, k, a, c1_sq, c2_sq, tau, n2, xi = line.split(",")
        rec = measures.tangle_record(DickeParams(int(n), int(k), float(a)))
        assert float(c1_sq) == pytest.approx(rec.c1_sq, abs=1e-11)
        assert float(c2_sq) == pytest.approx(rec.c2_sq, abs=1e-11)
        assert float(tau) == pytest.approx(rec.tau, abs=1e-11)
        assert float(n2) == pytest.approx(rec.n2, abs=1e-11)
        assert float(xi) == pytest.approx(rec.xi, abs=1e-11)


def test_sweep_w_state_row_values():
    rc, text, _ = _sweep_text(n_values=(3,), k_values=(1,), a_min=0.0, a_max=0.0, a_steps=2)
    assert rc == 0
    row = text.splitlines()[1].split(",")
    assert row[:3] == ["3", "1", "0"]
    assert float(row[3]) == pytest.approx(8 / 9, abs=1e-11)
    assert float(row[5]) == pytest.approx(0.0, abs=1e-9)
    assert float(row[7]) == pytest.approx((4 * math.sqrt(5) - 4) / 9, abs=1e-11)


def test_sweep_is_deterministic():
    cfg = dict(n_values=(4, 5), k_values=None, a_steps=7)
    assert _sweep_text(**cfg) == _sweep_text(**cfg)


def test_sweep_precision_flag():
    _, text, _ = _sweep_text(n_values=(3,), k_values=(1,), a_steps=2, precision=3)
    row = text.splitlines()[1].split(",")
    assert row[3] == "0.889"  # c1_sq = 8/9 at three significant digits


def test_sweep_precision_past_767_digits_prints_the_same_bytes():
    # a double's exact decimal value has at most 767 significant digits, so every precision
    # from 767 up prints the same text; the field is capped there, as % formatting would
    # otherwise reserve about `precision` bytes for each value (1 GB here)
    cfg = dict(n_values=(4,), k_values=(1,), a_steps=2)
    want = _sweep_text(**cfg, precision=767)
    tracemalloc.start()
    try:
        got = _sweep_text(**cfg, precision=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert want[0] == 0 and got == want
    assert peak < 1e6


def test_sweep_negative_zero_never_printed(monkeypatch):
    # the last grid point is a_max itself, so the grid is [0.0, -0.0]
    cfg = dict(n_values=(3,), k_values=(1,), a_min=0.0, a_max=-0.0, a_steps=2)
    rc, text, _ = _sweep_text(**cfg)
    assert rc == 0
    assert [line[:6] for line in text.splitlines()[1:]] == ["3,1,0,", "3,1,0,"]

    def negative_zeros(pairs, a_values):
        return measures.TangleTable(*[np.full(len(pairs) * len(a_values), -0.0)] * 5)

    want = (0, HEADER + "\n" + "3,1,0,0,0,0,0,0\n" * 2, "")
    monkeypatch.setattr(measures, "tangle_grid", negative_zeros)
    assert _sweep_text(**cfg) == want


def _reference_csv(n_values, grid, precision):
    lines = [HEADER]
    for n in n_values:
        for k in range(1, n // 2 + 1):
            table = measures.tangle_table(n, k, grid)
            for a, *row in zip(grid, *(col.tolist() for col in table)):
                values = [format(x + 0.0, f".{precision}g") for x in (a, *row)]
                lines.append(",".join([str(n), str(k), *values]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("precision", [1, 12, 17, 25])
def test_sweep_matches_reference_formatting(monkeypatch, precision):
    rc, text, _ = _sweep_text(n_values=(10,), k_values=None, a_steps=11, precision=precision)
    assert rc == 0
    assert text == _reference_csv((10,), _a_grid(0.0, 1.0, 11), precision)

    # one chunk holds both N's pairs on a grid that does not start at 0, so every a string
    # and "N,k," prefix is shared; 25 digits print exact expansions longer than 17 digits
    orig = measures.tangle_grid
    calls = []

    def spy(pairs, a_values):
        calls.append(list(pairs))
        return orig(pairs, a_values)

    monkeypatch.setattr(measures, "tangle_grid", spy)
    cfg = dict(n_values=(10, 11), k_values=None, a_min=0.3, a_max=0.9, a_steps=7)
    rc, text, err = _sweep_text(**cfg, precision=precision)
    assert (rc, err) == (0, "")
    assert calls == [[(n, k) for n in (10, 11) for k in range(1, n // 2 + 1)]]
    assert text == _reference_csv((10, 11), _a_grid(0.3, 0.9, 7), precision)


def test_sweep_spanning_several_chunks_matches_per_pair_reference(monkeypatch):
    # 10,605 rows: more than one chunk, each of whole pairs, made by one tangle_grid call
    grid = _a_grid(0.0, 1.0, 101)
    orig = measures.tangle_grid
    rows = []

    def spy(pairs, a_values):
        rows.append(len(pairs) * len(a_values))
        return orig(pairs, a_values)

    monkeypatch.setattr(measures, "tangle_grid", spy)
    rc, text, err = _sweep_text(n_values=(10, 200), k_values=None, a_steps=101)
    assert (rc, err) == (0, "")
    assert sum(rows) == len(text.splitlines()) - 1 > cli._CHUNK_ROWS
    assert len(rows) > 1 and max(rows) <= cli._CHUNK_ROWS
    want = _reference_csv((10, 200), grid, 12)
    # lists, not strings: pytest's diff of two 10k-line strings takes minutes
    assert text.split("\n") == want.split("\n")


def test_sweep_to_file_matches_stdout(tmp_path):
    target = tmp_path / "rows.csv"
    _, text, _ = _sweep_text(n_values=(4,), k_values=None, a_steps=5)
    with redirect_stderr(io.StringIO()):
        rc = run_sweep(n_values=(4,), k_values=None, a_steps=5, output_path=str(target))
    assert rc == 0
    assert target.read_bytes() == text.encode()


def test_sweep_skips_invalid_pairs_with_warning():
    rc, text, err = _sweep_text(n_values=(3, 4), k_values=(2,), a_steps=3)
    assert rc == 0
    assert "skipping invalid pair N=3, k=2" in err
    assert len(text.splitlines()) == 1 + 3  # only N=4 survives
    rc, text, err = _sweep_text(n_values=(4,), k_values=(1, 10**5000), a_steps=3)
    assert rc == 0
    assert err == "warning: skipping invalid pair N=4, k=<16610-bit integer>\n"
    assert len(text.splitlines()) == 1 + 3


def test_sweep_empty_grid_fails():
    rc, _, err = _sweep_text(n_values=(3,), k_values=(2,), a_steps=3)
    assert rc == 2
    assert "empty" in err


def test_sweep_stops_at_an_abort_in_its_second_chunk(monkeypatch, capsys, tmp_path):
    # two chunks of two pairs of three rows; the second chunk's engine call aborts
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 6)
    argv = ["sweep", "--n", "4,5", "--a-steps", "3"]
    assert main(argv) == 0
    first_chunk = [line for line in capsys.readouterr().out.splitlines() if line[:2] == "4,"]
    assert len(first_chunk) == 6
    orig = measures.tangle_grid

    def second_call_aborts(pairs, a_values):
        if pairs[0] == (5, 1):
            raise NumericalInstabilityError("injected abort")
        return orig(pairs, a_values)

    monkeypatch.setattr(measures, "tangle_grid", second_call_aborts)
    want_err = "error: injected abort (chunk from N=5, k=1 to N=5, k=2)\n"
    assert main(argv) == 2
    assert capsys.readouterr() == ("\n".join([HEADER, *first_chunk]) + "\n", want_err)
    target = tmp_path / "rows.csv"
    assert main([*argv, "--out", str(target)]) == 2
    assert capsys.readouterr() == ("", want_err)
    assert target.read_text().splitlines() == [HEADER, *first_chunk]


def test_sweep_writes_no_file_when_every_row_fails(monkeypatch, capsys, tmp_path):
    def explode(pairs, a_values):
        raise InvalidParamsError("injected failure")

    monkeypatch.setattr(measures, "tangle_grid", explode)
    target = tmp_path / "rows.csv"
    assert main(["sweep", "--n", "4", "--a-steps", "3", "--out", str(target)]) == 2
    assert capsys.readouterr().err == "error: injected failure (chunk from N=4, k=1 to N=4, k=2)\n"
    assert not target.exists()


def test_run_sweep_raises_an_abort_and_writes_nothing_before_its_first_chunk(monkeypatch):
    def explode(pairs, a_values):
        raise NumericalInstabilityError("injected abort")

    monkeypatch.setattr(measures, "tangle_grid", explode)
    out, err = io.StringIO(), io.StringIO()
    want = r"^injected abort \(chunk from N=4, k=1 to N=4, k=2\)$"
    with redirect_stdout(out), redirect_stderr(err):
        with pytest.raises(NumericalInstabilityError, match=want):
            run_sweep(n_values=(4,), k_values=None, a_steps=3)
    # not even the header: the stream is opened by the first chunk's rows
    assert (out.getvalue(), err.getvalue()) == ("", "")


_ERRORS = [InvalidParamsError, CapExceededError, NotDensityMatrixError, NumericalInstabilityError]


@pytest.mark.parametrize("error", _ERRORS)
def test_chunk_abort_keeps_its_class_and_names_the_chunk(monkeypatch, error):
    def abort(pairs, a_values):
        raise error("injected abort")

    monkeypatch.setattr(measures, "tangle_grid", abort)
    with pytest.raises(error) as info:
        cli._chunk_tangles([(4, 1), (4, 2), (5, 1)], [0.5])
    assert type(info.value) is error
    assert str(info.value) == "injected abort (chunk from N=4, k=1 to N=5, k=1)"
    assert type(info.value.__cause__) is error
    assert str(info.value.__cause__) == "injected abort"


@pytest.mark.parametrize("precision", [1, 12, 17])
def test_sweep_one_pair_per_chunk_prints_the_one_chunk_bytes(monkeypatch, precision):
    cfg = dict(n_values=(10,), k_values=None, a_steps=11, precision=precision)
    orig = measures.tangle_grid
    calls = []

    def spy(pairs, a_values):
        calls.append(pairs)
        return orig(pairs, a_values)

    monkeypatch.setattr(measures, "tangle_grid", spy)
    want = _sweep_text(**cfg)
    assert calls == [[(10, k) for k in range(1, 6)]]
    # fewer rows per chunk than the grid has values: one tangle_grid call per pair
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 1)
    assert _sweep_text(**cfg) == want
    assert calls[1:] == [[(10, k)] for k in range(1, 6)]


def test_sweep_config_validation():
    bad = [
        dict(n_values=(), k_values=None),
        dict(n_values=(1,), k_values=None),
        dict(n_values=(4,), k_values=None, a_min=0.9, a_max=0.1),
        dict(n_values=(4,), k_values=None, a_steps=1),
        dict(n_values=(4,), k_values=(1,), a_steps=3.5),
        dict(n_values=(4,), k_values=(1,), precision=2.5),
        dict(n_values=(4,), k_values=(1,), precision=-(10**5000)),
        dict(n_values=(4,), k_values=(1,), precision=2**31),
        dict(n_values=(4,), k_values=(1,), precision=10**5000),
        dict(n_values=(4,), k_values=(1,), a_steps=-(10**5000)),
        dict(n_values=(4,), k_values=("x",)),
        dict(n_values=(4,), k_values=()),
        dict(n_values=(4.5,), k_values=(1,)),
        dict(n_values=(4,), k_values=(1,), a_min=-0.1),
        dict(n_values=(4,), k_values=(1,), a_max=1.5),
        dict(n_values=(4,), k_values=(1,), a_max=10**400),
        dict(n_values=(4,), k_values=(1,), a_max=None),
        dict(n_values=(4,), k_values=(1,), a_min="x"),
        dict(n_values=(4,), k_values=(1,), a_min=(0.1, 0.2)),
        dict(n_values=4, k_values=None),
        dict(n_values=(4,), k_values=1),
        dict(n_values=np.array([]), k_values=None),
    ]
    for kwargs in bad:
        with pytest.raises(InvalidParamsError):
            _sweep_text(**kwargs)


def test_sweep_accepts_any_iterable_of_n_and_k():
    want = _sweep_text(n_values=(4, 6), k_values=None, a_steps=3)
    assert want[0] == 0
    for n in (np.array([4, 6]), [6, 4], range(4, 7, 2), iter((4, 6))):
        assert _sweep_text(n_values=n, k_values=None, a_steps=3) == want
    want = _sweep_text(n_values=(4, 6), k_values=(1, 2), a_steps=3)
    assert _sweep_text(n_values=np.array([4, 6]), k_values=np.array([2, 1]), a_steps=3) == want


def test_sweep_accepts_integral_n_of_any_type():
    want = _sweep_text(n_values=(4,), k_values=None, a_steps=3)
    assert want[0] == 0
    for n in (np.int64(4), 4.0):
        assert _sweep_text(n_values=(n,), k_values=None, a_steps=3) == want
        assert _sweep_text(n_values=(n,), k_values=(1, 2.0), a_steps=3) == want
    # numeric strings for the endpoints are refused, as DickeParams refuses them for a
    with pytest.raises(InvalidParamsError, match="must be a real number, got str"):
        _sweep_text(n_values=(4,), k_values=None, a_min="0", a_max="1", a_steps=3)


@pytest.mark.parametrize(
    "endpoint,value,message",
    [
        ("a_min", [0.5, "0.5"], "a_min must be a real number, got str"),
        ("a_min", [0.2], r"a_min must be a single number, got shape \(1,\)"),
        ("a_max", (0.1, 0.2), r"a_max must be a single number, got shape \(2,\)"),
        ("a_max", "1", "a_max must be a real number, got str"),
        ("a_max", 10**400, "a_max must lie within float range"),
        # a number outside [0, 1] is refused by check_a_values, which names every a alike
        ("a_max", float("nan"), r"non-orthogonality a must lie in \[0, 1\], got nan"),
        ("a_min", -0.1, r"non-orthogonality a must lie in \[0, 1\], got -0.1"),
    ],
    ids=["list-with-str", "one-number-list", "pair", "str", "10**400", "nan", "negative"],
)
def test_sweep_names_the_endpoint_it_refuses(endpoint, value, message):
    with pytest.raises(InvalidParamsError, match=f"^{message}$"):
        _sweep_text(n_values=(4,), k_values=(1,), **{endpoint: value})


def test_check_passes_on_honest_code():
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run_check(5, 3, 1e-9)
    lines = out.getvalue().splitlines()
    assert rc == 0
    assert lines, "expected one line per property"
    assert all(line.startswith("PASS ") for line in lines)
    assert any(line.startswith("PASS n-decay") for line in lines)


@pytest.mark.parametrize("chunk_rows", [2**13, 64])
def test_check_output_is_frozen(monkeypatch, chunk_rows):
    # margins and locations of the default check, tie rule included (first tightest point wins);
    # with 64-row chunks, pairs and their neighbours fall into different engine calls
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run_check(12, 11, 1e-9) == 0
    assert out.getvalue().splitlines() == [
        "PASS a-monotonicity: margin 4.932e-09 (tightest at (N=100, k=2, a=0.9->1))",
        "PASS endpoint-max-at-a-0: margin 1.000e-09 (tightest at (N=6, k=1, a=0.1))",
        "PASS k-ordering: margin 4.932e-09 (tightest at (N=100, k=1->2, a=0.9))",
        "PASS monogamy-tau: margin 1.000e-09 (tightest at (N=3, k=1, a=0.2))",
        "PASS monogamy-xi: margin 1.000e-09 (tightest at (N=3, k=1, a=1))",
        "PASS n-decay: margin 1.000e-09 (tightest at (N=4->5, k=1, a=0.2))",
        "PASS ordering-xi-ge-tau: margin 1.000e-09 (tightest at (N=4, k=2, a=0.3))",
        "PASS vanishing-at-a-1: margin 1.000e-09 (tightest at (N=3, k=1, a=1))",
        "PASS w-class-saturation: margin 1.000e-09 (tightest at (N=3, k=1, a=0.2))",
    ]


def _triple_engine_concurrence(monkeypatch):
    """Triple C2 (clamped to 1) in the engine's output, with tau to match. The engine reads C2
    from eigvalsh of triplet_blocks' H and concurrence_stack from eigvalsh of G^T Y G, and
    both finish in _wootters, so the error is planted after the engine's C2, in the engine
    alone, where the dense route cannot carry it too."""
    orig = measures._tangles

    def tripled(pairs, a):
        table = orig(pairs, a)
        c2_sq = np.minimum(1.0, 9.0 * table.c2_sq)
        n_minus_1 = np.repeat([n - 1.0 for n, _ in pairs], len(a))
        return table._replace(c2_sq=c2_sq, tau=table.c1_sq - n_minus_1 * c2_sq)

    monkeypatch.setattr(measures, "_tangles", tripled)


def test_check_detects_broken_concurrence(monkeypatch):
    # inflating the pair concurrence violates monogamy, which check must flag
    _triple_engine_concurrence(monkeypatch)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run_check(5, 3, 1e-9)
    assert rc == 1
    assert any(line.startswith("FAIL monogamy-tau") for line in out.getvalue().splitlines())


@pytest.mark.parametrize("chunk_rows", [2**13, 64])
def test_check_compares_neighbouring_k_and_n(monkeypatch, chunk_rows):
    # raising tau of (7, 2) alone breaks the ordering against its neighbours k = 3 and N = 6
    orig = measures.tangle_grid

    def bumped(pairs, a_values):
        table = orig(pairs, a_values)
        rows = np.repeat([tuple(pair) == (7, 2) for pair in pairs], len(a_values))
        return table._replace(tau=table.tau + 1e-3 * rows)

    monkeypatch.setattr(measures, "tangle_grid", bumped)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run_check(12, 11, 1e-9) == 1
    lines = out.getvalue().splitlines()
    assert any(line.startswith("FAIL k-ordering:") and "(N=7, k=2->3, a=" in line for line in lines)
    assert any(line.startswith("FAIL n-decay:") and "(N=6->7, k=2, a=" in line for line in lines)


def test_check_fails_on_a_nan_tangle(monkeypatch):
    # a NaN margin is never below 0; each property that reads the NaN tau must still FAIL
    orig = measures.tangle_grid

    def poisoned(pairs, a_values):
        table = orig(pairs, a_values)
        tau = table.tau.copy()
        tau[1] = math.nan
        return table._replace(tau=tau)

    monkeypatch.setattr(measures, "tangle_grid", poisoned)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run_check(6, 3, 1e-9) == 1
    lines = out.getvalue().splitlines()
    assert not any("nan" in line for line in lines if line.startswith("PASS"))
    assert "FAIL monogamy-tau: violated by nan at (N=3, k=1, a=0.5)" in lines


def test_check_stops_with_exit_2_on_a_numerical_abort(monkeypatch, capsys):
    def explode(pairs, a_values):
        raise NumericalInstabilityError("injected abort")

    monkeypatch.setattr(measures, "tangle_grid", explode)
    assert main(["check", "--n-max", "4", "--a-steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the message names the chunk, whose last pair is the last spot check
    assert captured.err == "error: injected abort (chunk from N=3, k=1 to N=100, k=5)\n"


def test_check_abort_names_the_chunk_it_happened_in(monkeypatch, capsys):
    # one pair per chunk; the chunk of (4, 2), the third, aborts
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    orig = measures.tangle_grid
    calls = []

    def third_pair_aborts(pairs, a_values):
        calls.append(pairs)
        if pairs == [(4, 2)]:
            raise NumericalInstabilityError("injected abort")
        return orig(pairs, a_values)

    monkeypatch.setattr(measures, "tangle_grid", third_pair_aborts)
    assert main(["check", "--n-max", "4", "--a-steps", "3"]) == 2
    assert calls == [[(3, 1)], [(4, 1)], [(4, 2)]]
    assert capsys.readouterr() == ("", "error: injected abort (chunk from N=4, k=2 to N=4, k=2)\n")


BAD_TOLS = [math.nan, math.inf, -1.0, None, "x", 1j, 10**400, 10**5000]


def test_check_rejects_bad_arguments():
    with pytest.raises(InvalidParamsError):
        run_check(2, 3, 1e-9)
    with pytest.raises(InvalidParamsError):
        run_check(5, 1, 1e-9)
    with pytest.raises(InvalidParamsError):
        run_check(5, 3.5, 1e-9)
    with pytest.raises(InvalidParamsError):
        run_check(3.5, 3, 1e-9)
    with pytest.raises(InvalidParamsError, match="tol must be a real number, got str"):
        run_check(5, 3, "1e-9")
    with pytest.raises(InvalidParamsError, match=r"tol must be a single number, got shape \(2,\)"):
        run_check(4, 3, [1e-9, 1e-9])
    # a nan margin is never negative, so a nan tol would pass every property
    for tol in BAD_TOLS:
        with pytest.raises(InvalidParamsError, match="tol"):
            run_check(5, 3, tol)


def test_oracle_rejects_bad_tolerance():
    for tol in BAD_TOLS:
        with pytest.raises(InvalidParamsError, match="tol"):
            run_oracle(3, 3, tol)


def test_oracle_rejects_bad_arguments():
    for n_max, a_steps in ((1, 3), (3, 1), (3, 3.5), (2.5, 3), (-(10**5000), 3), (3, -(10**5000))):
        with pytest.raises(InvalidParamsError):
            run_oracle(n_max, a_steps, 1e-9)
    for tol in (None, "x"):
        with pytest.raises(InvalidParamsError, match="tol"):
            run_oracle(3, 3, tol)


def test_oracle_passes_and_reports_deviations():
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run_oracle(4, 3, 1e-9)
    lines = out.getvalue().splitlines()
    assert rc == 0
    assert lines[0].startswith("N=2 k=1:")
    assert lines[-1].startswith("PASS")
    assert any(line.startswith("max deviation:") for line in lines)


def test_oracle_fails_on_impossible_tolerance():
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run_oracle(6, 5, 1e-18)
    assert rc == 1
    assert out.getvalue().splitlines()[-1].startswith("FAIL")


def test_oracle_detects_broken_concurrence(monkeypatch):
    # the oracle holds the engine's concurrence, the one sweep prints, against the dense route
    _triple_engine_concurrence(monkeypatch)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run_oracle(6, 5, 1e-10)
    assert rc == 1
    assert out.getvalue().splitlines()[-1].startswith("FAIL")


def test_oracle_detects_broken_negativity(monkeypatch):
    # the dense N2 comes from the partial-transpose spectrum, not from the engine's _negativity
    orig = measures._negativity
    monkeypatch.setattr(
        measures, "_negativity", lambda *elems: np.minimum(1.0, 3.0 * orig(*elems))
    )
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run_oracle(6, 5, 1e-10)
    assert rc == 1
    assert out.getvalue().splitlines()[-1].startswith("FAIL")


@pytest.mark.parametrize("index,name", [(0, "marginal"), (1, "partial-transpose"), (3, "rho1")])
def test_oracle_detects_perturbed_triplet_blocks(monkeypatch, index, name):
    # adds 1e-9 I to R (index 0), P (index 1) or rho_1 (index 3) where both the engine and
    # the oracle read it
    orig = marginals.triplet_blocks

    def perturbed(*elems):
        blocks = list(orig(*elems))
        blocks[index] = blocks[index] + 1e-9 * np.eye(blocks[index].shape[-1])
        return tuple(blocks)

    monkeypatch.setattr(marginals, "triplet_blocks", perturbed)
    monkeypatch.setattr(measures, "triplet_blocks", perturbed)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run_oracle(6, 5, 1e-10) == 1
    *pair_lines, _, verdict = out.getvalue().splitlines()
    assert max(float(line.split(f" {name}=")[1].split()[0]) for line in pair_lines) > 1e-10
    assert verdict.startswith("FAIL")


def test_oracle_fails_on_a_nan_measure(monkeypatch):
    # a NaN deviation is never above tol; it must still FAIL and be printed
    orig = measures.tangle_table

    def poisoned(n_qubits, degeneracy, a_values):
        table = orig(n_qubits, degeneracy, a_values)
        c2_sq = table.c2_sq.copy()
        if (n_qubits, degeneracy) == (3, 1):
            c2_sq[1] = math.nan
        return table._replace(c2_sq=c2_sq)

    monkeypatch.setattr(measures, "tangle_table", poisoned)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run_oracle(4, 3, 1e-10) == 1
    lines = out.getvalue().splitlines()
    assert " measures=nan" in lines[1] and lines[1].startswith("N=3 k=1:")
    assert lines[-2] == "max deviation: nan (measures at N=3, k=1)"
    assert lines[-1].startswith("FAIL")


def test_oracle_builds_no_scalar_marginal(monkeypatch):
    # the oracle compares the engine's arrays; no TwoQubitMarginal is built on its route
    # (two_qubit_marginal builds one without __post_init__, so it is made unreachable too)
    built = []
    orig = marginals.TwoQubitMarginal.__post_init__

    def counted(self):
        built.append(self)
        orig(self)

    def unreachable(*args):
        raise AssertionError("the oracle route called a scalar marginal helper")

    monkeypatch.setattr(marginals.TwoQubitMarginal, "__post_init__", counted)
    monkeypatch.setattr(marginals, "two_qubit_marginal", unreachable)
    monkeypatch.setattr(marginals, "marginal_matrix", unreachable)
    monkeypatch.setattr(marginals, "single_qubit_marginal", unreachable)
    devs = cli.oracle_deviations(6, 3, [0.0, 0.4, 1.0])
    assert built == []
    assert max(devs.values()) <= 1e-10


def test_oracle_marginal_catches_singlet_weight(monkeypatch):
    # the engine's marginal has no singlet weight, so 1e-9 of the singlet projector in
    # the dense rho2 shows at the [3, 3] corner of T rho2 T^T
    grid = [0.0, 0.3, 0.7, 1.0]
    assert cli.oracle_deviations(6, 3, grid)["marginal"] <= 1e-10
    orig = oracle.partial_traces
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)

    def mixed(amplitudes, dim):
        rho = orig(amplitudes, dim)
        return (1 - 1e-9) * rho + 1e-9 * np.outer(singlet, singlet) if dim == 4 else rho

    monkeypatch.setattr(oracle, "partial_traces", mixed)
    assert cli.oracle_deviations(6, 3, grid)["marginal"] > 1e-10


def test_oracle_runs_the_density_rule_on_the_dense_rho1(monkeypatch):
    # C1 comes from the stacked dense rho1, which must pass the rule as a SingleQubitMarginal does
    orig = oracle.partial_traces

    def off_trace(amplitudes, dim):
        rho = orig(amplitudes, dim)
        return rho + np.diag([1e-11, 0.0]) if dim == 2 else rho

    monkeypatch.setattr(oracle, "partial_traces", off_trace)
    with pytest.raises(NotDensityMatrixError, match="single-qubit marginal must have unit trace"):
        cli.oracle_deviations(6, 3, [0.0, 0.4, 1.0])


def _full_swap_pair_choice(amplitudes, n):
    """pair-choice= of one dense state, from full copies with each neighbouring pair exchanged."""
    tensor = amplitudes.reshape((2,) * n)
    return max(float(np.max(np.abs(tensor - tensor.swapaxes(q, q + 1)))) for q in range(n - 1))


def _per_point_deviations(n, k, grid):
    """oracle_deviations recomputed one point at a time through the public scalar functions."""
    table = measures.tangle_table(n, k, grid)
    beta = amplitude_rows(n, k, grid)
    A, B, C, D, E, F = elements = marginals.marginal_elements(n, beta)
    R, blocks, singlet, _ = marginals.triplet_blocks(*elements)
    P = blocks[:, 1]
    h = math.sqrt(0.5)
    bell = np.array([[1, 0, 0, 0], [0, h, h, 0], [0, 0, 0, 1], [0, h, -h, 0]])
    devs = {name: 0.0 for name in ("state", "marginal", "partial-transpose", "pair-choice",
                                   "rho1", "measures")}

    def record(name, *diffs):
        devs[name] = max(devs[name], *(float(np.max(np.abs(diff))) for diff in diffs))

    for i, a in enumerate(grid):
        params = DickeParams(n, k, a)
        psi = oracle.expand_state(params)
        up, eps2 = oracle.Spinor(1.0, 0.0), oracle.Spinor(a, params.b)
        sym = oracle.symmetrize_two_spinors(n, k, up, eps2).amplitudes
        dicke = [2**r - 1 for r in range(k + 1)]
        norms = np.sqrt([math.comb(n, r) for r in range(k + 1)])
        record("state", psi.amplitudes - sym, norms * psi.amplitudes[dicke] - beta[i])
        record("pair-choice", _full_swap_pair_choice(psi.amplitudes, n))
        brute, single = oracle.partial_trace_to_two(psi), oracle.partial_trace_to_one(psi)
        rho2, rho1 = brute.to_array(), single.to_array()
        swapped = rho2.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        engine_rho2, engine_swapped = np.zeros((4, 4)), np.zeros((4, 4))
        engine_rho2[:3, :3] = R[i]
        engine_swapped[:3, :3], engine_swapped[3, 3] = P[i], singlet[i]
        record("marginal", bell @ rho2 @ bell.T - engine_rho2)
        record("partial-transpose", bell @ swapped @ bell.T - engine_swapped)
        engine_rho1 = np.array([[A[i] + D[i], B[i] + E[i]], [B[i] + E[i], D[i] + F[i]]])
        traced = np.trace(rho2.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        record("rho1", rho1 - engine_rho1, traced - rho1)
        c2 = measures.concurrence_two_qubit(brute)
        n2 = max(0.0, float(np.abs(np.linalg.eigvalsh(swapped)).sum()) - 1.0)
        c1 = measures.one_vs_rest(marginals.SingleQubitMarginal(params, single))
        engine = np.sqrt(table.c2_sq[i]), table.n2[i], np.sqrt(table.c1_sq[i])
        record("measures", np.subtract(engine, (c2, n2, c1)))
    return devs


@pytest.mark.parametrize("rows", [1, cli._ORACLE_ROWS])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (7, 3), (12, 1), (12, 6)])
def test_oracle_deviations_equal_a_per_point_recomputation(monkeypatch, rows, n, k):
    # the printed deviations alone cannot tell a computed key from a zero; this holds every
    # key, bit for bit, to the scalar route, with one-point slices and with the default slices
    monkeypatch.setattr(cli, "_ORACLE_ROWS", rows)
    grid = [0.0, 0.3, 0.7, 1.0]
    got = cli.oracle_deviations(n, k, grid)
    want = _per_point_deviations(n, k, grid)
    assert list(got) == list(want)
    assert got == want


@pytest.mark.parametrize("q", range(4))
def test_oracle_pair_choice_catches_a_state_that_is_not_exchange_symmetric(monkeypatch, q):
    # qubits q + 1 and q + 2 (of 5) no longer exchange, but the qubits up to q + 1 and those
    # from q + 2 on still permute among themselves, so only that neighbouring pair shows it
    n, grid = 5, [0.0, 0.5, 1.0]
    assert cli.oracle_deviations(n, 2, grid)["pair-choice"] == 0.0
    orig = oracle.expand_states
    states = []

    def broken(n_qubits, degeneracy, a_values):
        # |0..0> on qubits 1..q+1 times the W state of qubits q+2..N, added with weight 0.1
        amp = orig(n_qubits, degeneracy, a_values).copy()
        amp[:, [1 << b for b in range(n - q - 1)]] += 0.1
        states.extend(row / np.linalg.norm(row) for row in amp)
        return np.array(states[-len(amp):])

    monkeypatch.setattr(oracle, "expand_states", broken)
    got = cli.oracle_deviations(n, 2, grid)["pair-choice"]
    assert got > 1e-3
    assert got == max(_full_swap_pair_choice(amp, n) for amp in states)


@pytest.mark.parametrize("name,key", [
    ("expand_state", "state"), ("partial_trace_to_two", "marginal"), ("partial_trace_to_one", "rho1"),
])
def test_oracle_holds_the_public_route_to_its_stacked_rows(monkeypatch, name, key):
    # the one-point functions run once per slice, at its first a; any difference from the
    # stacked rows counts in their key
    grid = [0.0, 0.3, 0.7, 1.0]
    monkeypatch.setattr(cli, "_ORACLE_ROWS", 3)
    assert cli.oracle_deviations(6, 3, grid)[key] <= 1e-10
    orig, calls = getattr(oracle, name), []

    def shifted(arg):
        calls.append(arg)
        out = orig(arg)
        if name == "expand_state":
            # the same unit norm, with the amplitudes moved one bitstring along
            return oracle.FullState(out.n_qubits, np.roll(out.amplitudes, 1))
        return oracle.SmallMatrix(out.dim, np.add(out.entries, 1e-9))

    monkeypatch.setattr(oracle, name, shifted)
    assert cli.oracle_deviations(6, 3, grid)[key] >= 1e-9
    assert len(calls) == 2


def test_oracle_holds_the_engine_amplitudes_against_the_dense_state(monkeypatch):
    # expand_state shares no formula with amplitude_rows, so a fault in the rows shows in state=
    orig = cli.amplitude_rows

    def perturbed(n, k, a_values):
        # still unit rows, so the marginal checks downstream pass
        rows = orig(n, k, a_values) + 1e-6
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    monkeypatch.setattr(cli, "amplitude_rows", perturbed)
    assert cli.oracle_deviations(6, 3, [0.0, 0.3, 0.7, 1.0])["state"] > 1e-10


def test_oracle_enforces_cap():
    with pytest.raises(CapExceededError):
        run_oracle(13, 3, 1e-10)
    with pytest.raises(CapExceededError, match="got <16610-bit integer>"):
        run_oracle(10**5000, 3, 1e-10)


def test_check_enforces_cap(capsys):
    cap = cli._CHECK_N_MAX
    with pytest.raises(CapExceededError):
        run_check(cap + 1, 3, 1e-9)
    with pytest.raises(CapExceededError, match="got <16610-bit integer>"):
        run_check(10**5000, 3, 1e-9)
    assert main(["check", "--n-max", str(cap + 1)]) == 2
    assert f"capped at n_max <= {cap}" in capsys.readouterr().err


def test_check_caps_its_row_count_before_building_anything(monkeypatch, capsys):
    # 22,499 pairs * 101 rows at n_max = 300, above the 202,499 * 11 of the largest default run
    assert cli._CHECK_ROWS_MAX == 2_227_489 == len(cli._check_pairs(900)) * 11
    with pytest.raises(CapExceededError, match=r"capped at 2227489 \(pair, a\) rows, got 2272399"):
        run_check(300, 101, 1e-9)
    assert main(["check", "--n-max", "300", "--a-steps", "101"]) == 2
    assert "capped at 2227489 (pair, a) rows" in capsys.readouterr().err

    def unreachable(*args):
        raise AssertionError("built before the row cap was checked")

    monkeypatch.setattr(cli, "_a_grid", unreachable)
    monkeypatch.setattr(measures, "tangle_grid", unreachable)
    with pytest.raises(CapExceededError):
        run_check(12, 10**12, 1e-9)
    with pytest.raises(CapExceededError, match="got 2429988"):
        run_check(900, 12, 1e-9)


def test_main_exit_codes(capsys):
    assert main(["sweep", "--n", "4", "--k", "1", "--a-steps", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == HEADER

    assert main(["oracle", "--n-max", "13"]) == 2
    assert "capped at n_max <= 12" in capsys.readouterr().err

    assert main(["sweep", "--a-min", "0.9", "--a-max", "0.1"]) == 2
    assert "error:" in capsys.readouterr().err

    # past the largest precision % accepts: refused before any row is built
    argv = ["sweep", "--n", "4", "--k", "1", "--a-steps", "2", "--precision", "2147483648"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: precision must be <= 2147483647, got 2147483648\n")

    assert main(["check", "--n-max", "4", "--a-steps", "3"]) == 0

    assert main(["oracle", "--n-max", "3", "--tol", "nan"]) == 2
    assert "tol must be a finite number >= 0" in capsys.readouterr().err


def test_oracle_eigensolver_failure_exits_2(monkeypatch, capsys):
    # LAPACK fails on the dense partial transposes alone, the oracle's own eigensolve: a
    # typed error and exit 2, not a LinAlgError traceback
    solve = marginals._umath_linalg.eigvalsh_lo

    def fails_on_partial_transposes(mats, signature):
        w = solve(mats, signature=signature)
        if mats.shape[-1] == 4 and np.minimum.reduce(w, axis=None) < -0.1:
            return _fails_to_converge(mats, signature)
        return w

    monkeypatch.setattr(marginals._umath_linalg, "eigvalsh_lo", fails_on_partial_transposes)
    assert main(["oracle", "--n-max", "3", "--a-steps", "2"]) == 2
    assert capsys.readouterr().err == "error: eigensolver failed: Eigenvalues did not converge\n"


def test_main_reads_k_all_as_every_k(capsys):
    assert main(["sweep", "--n", "6,7", "--a-steps", "3"]) == 0
    want = capsys.readouterr()
    for k in ("all", " ALL "):
        assert main(["sweep", "--n", "6,7", "--k", k, "--a-steps", "3"]) == 0
        assert capsys.readouterr() == want


def test_main_exits_2_for_n_that_float_cannot_hold(capsys):
    # exit code 1 means a property was violated; an N past 2**53 is a usage error
    assert main(["sweep", "--n", str(10**400), "--k", "1", "--a-steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need at most 2**53 = 9007199254740992 qubits, got 1000")


def test_main_exits_2_when_memory_runs_out(monkeypatch, capsys):
    # exit code 1 means a property was violated, so an oversized grid must not end there;
    # a failed Python allocation raises MemoryError without a message
    def exhausted(pairs, a_values):
        raise MemoryError

    monkeypatch.setattr(measures, "tangle_grid", exhausted)
    assert main(["sweep", "--n", "4", "--k", "1", "--a-steps", "3"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_main_rejects_malformed_argv():
    with pytest.raises(SystemExit):
        main(["bogus"])
    with pytest.raises(SystemExit):
        main(["sweep", "--n", "x"])


def test_module_entry_point_matches_in_process_output():
    _, text, _ = _sweep_text(n_values=(3,), k_values=(1,), a_steps=5)
    # the child imports the same source tree as this process, installed or not
    src = os.path.dirname(os.path.dirname(dicketangle.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dicketangle", "sweep", "--n", "3", "--k", "1", "--a-steps", "5"],
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.decode() == text
