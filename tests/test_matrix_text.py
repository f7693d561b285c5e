"""The CLI's matrix writer gives the bytes of
``np.savetxt(..., fmt="%.17e", delimiter=",")``, the reference here."""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import savetxt_bytes
from semismi.cli import RunRecorder, _matrix_chunks, _matrix_rows

DBL_MIN = float(np.finfo(np.float64).tiny)


def _written(matrix) -> bytes:
    return b"".join(_matrix_chunks(matrix))


def assert_same_bytes(matrix):
    written, expected = _written(matrix), savetxt_bytes(matrix)
    if written != expected:
        lines = zip(written.splitlines(), expected.splitlines())
        first = next(((a, b) for a, b in lines if a != b), (written[-80:], expected[-80:]))
        raise AssertionError(f"writer {first[0]!r} != savetxt {first[1]!r}")


_EDGES = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    np.finfo(float).max, 1e-99, 9.99999999999999e-100, 1e100, 9.999999999999999e99,
    1e-300, -1e300, 1e153, 12345678901234.03125, 1e-100, -1e-100, 9.99999999999999e-101,
    DBL_MIN, -DBL_MIN, np.nextafter(DBL_MIN, 0.0), np.nextafter(DBL_MIN, 1.0),
]
_ENTRIES = st.one_of(
    st.floats(min_value=-1e100, max_value=1e100),
    st.floats(),
    st.floats(min_value=1e-310, max_value=1e-295),
    st.floats(min_value=DBL_MIN, max_value=1e-99),
    st.floats(min_value=1e295, max_value=1e305),
    st.sampled_from(_EDGES),
)


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 9), st.integers(1, 9)),
        elements=_ENTRIES,
    )
)
def test_writer_matches_savetxt(matrix):
    assert_same_bytes(matrix)


def _powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-330, 309):
        v = float(f"1e{k}")
        values += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    return np.array(values)


def test_powers_of_ten_and_their_neighbours():
    values = _powers_of_ten_and_their_neighbours()
    assert_same_bytes(values.reshape(-1, 3))
    assert_same_bytes(-values.reshape(3, -1))


@pytest.mark.parametrize("nudge", [-1e-9, 1e-9])
def test_exponent_is_exact_where_log10_is_one_off(monkeypatch, nudge):
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + nudge)
    assert_same_bytes(_powers_of_ten_and_their_neighbours().reshape(-1, 3))


def test_no_double_in_the_fast_range_rounds_up_to_a_power_of_ten():
    # so the writer needs no carry into the next decade between DBL_MIN
    # and 1e100; 1e153 is the nearest double below its power that does carry
    for k in range(-307, 100):
        v = float(f"1e{k}")
        below = v if Decimal(v) < Decimal(10) ** k else float(np.nextafter(v, 0.0))
        assert int(("%.17e" % below).split("e")[1]) == k - 1
    assert Decimal(1e153) < Decimal(10) ** 153
    assert "%.17e" % 1e153 == "1.00000000000000000e+153"
    assert_same_bytes(np.array([[1e153, np.nextafter(1e153, 0.0)]]))


@pytest.mark.parametrize("k", [-100, -101, -150, -200, -250, -299, -300, -301, -307, -308])
def test_three_digit_negative_exponents_take_the_fast_path(k):
    # a row the fast path formats never reaches the CPython row format,
    # which is garbage here; a subnormal sends its row to CPython
    rng = np.random.default_rng(-k)
    low = max(float(f"1e{k}"), DBL_MIN)
    rows = rng.uniform(1.0, 10.0, (6, 5)) * low
    rows[:, 2] *= -1.0
    rows[1, 1] = low
    rows[2, 4] = np.nextafter(float(f"1e{k + 1}"), 0.0)
    rows[3, 0] = 0.0
    rows[4, 3] = 0.5  # a short exponent beside long ones
    cpython = "%.0s" * 5 + "cpython\n"
    assert _matrix_rows(rows, cpython) == savetxt_bytes(rows)
    rows[5, 1] = np.nextafter(DBL_MIN, 0.0)
    assert _matrix_rows(rows, cpython) == savetxt_bytes(rows[:5]) + b"cpython\n"


def test_carries_through_trailing_nines():
    # entries whose dropped digits round the 18th digit up through a run of 9s
    rng = np.random.default_rng(1)
    carries = []
    for x in rng.uniform(-8.0, 8.0, 200_000):
        x = float(10.0 ** x)
        digits = Decimal(x).as_tuple().digits
        if digits[15:18] == (9, 9, 9) and digits[18] >= 5:
            carries.append(x)
    assert len(carries) >= 20
    assert_same_bytes(np.array(carries)[:, None])


def test_exact_decimal_ties_round_half_to_even():
    ties = []
    for j in range(3, 26):
        # m / 2**j has j decimals ending in 5; this decade gives it 19 digits
        m = (10 ** (18 - j) * 2**j if j <= 18 else 2**j // 10 ** (j - 18)) + 1
        m += 1 - m % 2
        for odd in (m, m + 2):
            x = odd / 2**j
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 19 and digits[-1] == 5
            ties += [x, -x]
    assert_same_bytes(np.array(ties).reshape(-1, 2))
    assert "%.17e" % 12345678901234.03125 == "1.23456789012340312e+13"


def test_empty_and_one_column_shapes():
    for shape in [(0, 3), (5, 1), (1, 1), (1, 7)]:
        assert_same_bytes(np.random.default_rng(2).standard_normal(shape))


def test_rows_mixing_fast_and_fallback_entries_keep_their_order():
    matrix = np.random.default_rng(3).standard_normal((40, 5))
    matrix[[1, 7, 8, 39], [0, 4, 2, 3]] = [np.nan, 1e-200, -np.inf, 12345678901234.03125]
    assert_same_bytes(matrix)
    assert_same_bytes(np.full((70_000, 1), 1e-200))
    assert_same_bytes(np.full((70_000, 1), 5e-324))


def test_literal_bytes():
    matrix = np.array([[1.0, -0.5, 0.1], [-0.0, np.nan, -np.inf], [1e-300, 6.02214076e23, 0.0]])
    assert _written(matrix) == (
        b"1.00000000000000000e+00,-5.00000000000000000e-01,1.00000000000000006e-01\n"
        b"-0.00000000000000000e+00,nan,-inf\n"
        b"1.00000000000000003e-300,6.02214075999999987e+23,0.00000000000000000e+00\n"
    )


def test_writing_a_large_matrix_allocates_little_beyond_the_input(tmp_path):
    # a whole-matrix string or byte buffer would take some 24 MB here
    matrix = np.random.default_rng(4).random((1000, 1000)) * 1e-3
    recorder = RunRecorder("test", [], tmp_path, {})
    tracemalloc.start()
    try:
        recorder.write("plan.csv", matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    assert (tmp_path / "plan.csv").read_bytes() == savetxt_bytes(matrix)
