"""Newton-identity bridge: traces <-> elementary coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracewitt import elementary_to_traces, integrality_check, traces_to_elementary
from tracewitt.newton import as_integers

from .oracles import lucas, newton_by_definition, series_traces

INTS = st.lists(st.integers(min_value=-30, max_value=30), max_size=8)
# det(1 + t*f) of degree 0..10, zero coefficients drawn often
DEGREE_R = st.lists(st.just(0) | st.integers(min_value=-4, max_value=4), max_size=10)


def test_fibonacci_coefficients():
    assert traces_to_elementary([1, 3]) == (1, -1)


def test_invalid_sequence_gives_fraction():
    assert traces_to_elementary([0, 1]) == (0, Fraction(-1, 2))


def test_empty():
    assert traces_to_elementary([]) == ()
    assert elementary_to_traces([], 5) == (0, 0, 0, 0, 0)


def test_lucas_from_coefficients():
    assert elementary_to_traces([1, -1], 8) == tuple(lucas(n) for n in range(1, 9))


def test_teichmueller_powers():
    assert elementary_to_traces([2], 5) == (2, 4, 8, 16, 32)


def test_identity_matrix_traces():
    # a = binomials of (1+t)^3, traces constant 3
    assert elementary_to_traces([3, 3, 1], 6) == (3,) * 6


@given(INTS)
def test_round_trip_from_traces(b):
    coeffs = traces_to_elementary(b)
    assert list(elementary_to_traces(coeffs, len(b))) == b


@given(INTS)
def test_round_trip_from_coeffs(a):
    traces = elementary_to_traces(a, len(a))
    assert traces_to_elementary(traces) == tuple(map(Fraction, a))


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6))
def test_matches_series_oracle(a):
    # independent route: traces as coefficients of -t P'(t)/P(t)
    assert list(elementary_to_traces(a, 12)) == series_traces(a, 12)


@given(INTS)
def test_longer_traces_than_coeffs(a):
    # beyond r the recursion drops the n*a_n term; series oracle covers it
    n_max = len(a) + 5
    assert list(elementary_to_traces(a, n_max)) == series_traces(a, n_max)


def test_integrality_check_positions():
    values = (1, Fraction(1, 2), 3, Fraction(2, 3))
    assert integrality_check(values) == [2, 4]
    assert integrality_check((1, 2, 3)) == []
    assert integrality_check(()) == []


@pytest.mark.parametrize("values", [[1.0], [1, True], [1, "1/2"], [1.0, "1/2", True]])
def test_integrality_check_refuses_floats_bools_and_strings(values):
    with pytest.raises(ValueError, match="must be an int or a Fraction, got "):
        integrality_check(values)
    with pytest.raises(ValueError, match="must be an int or a Fraction, got "):
        as_integers(values)


def test_as_integers_accepts_integral_fractions():
    assert as_integers((Fraction(4, 2), 3)) == (2, 3)


def test_as_integers_rejects_non_integral():
    with pytest.raises(ValueError):
        as_integers((Fraction(1, 2),))


def test_fraction_inputs_allowed():
    coeffs = traces_to_elementary([Fraction(1, 2)])
    assert coeffs == (Fraction(1, 2),)


@settings(deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=60))
def test_series_oracle_on_arbitrary_integers(b):
    # almost every such b is not a trace sequence: the common denominator
    # grows at many steps
    coeffs = traces_to_elementary(b)
    assert all(type(a) is Fraction for a in coeffs)
    assert series_traces(list(coeffs), len(b)) == b


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=10),
    st.integers(min_value=5, max_value=60),
    st.integers(min_value=1, max_value=5),
)
def test_series_oracle_on_early_bump(a, n, pos):
    # a +1 at an early position spoils integrality from there on
    b = list(elementary_to_traces(a, n))
    b[pos - 1] += 1
    coeffs = traces_to_elementary(b)
    assert integrality_check(coeffs)
    assert series_traces(list(coeffs), n) == b


@given(st.lists(st.fractions(max_denominator=12) | st.integers(-30, 30), max_size=12))
def test_series_oracle_on_rationals(b):
    coeffs = traces_to_elementary(b)
    assert all(type(a) is Fraction for a in coeffs)
    assert series_traces(list(coeffs), len(b)) == b


@pytest.mark.parametrize(
    "call",
    [
        lambda: traces_to_elementary([1, 0.5]),
        lambda: traces_to_elementary([1, True]),
        lambda: elementary_to_traces([1, 0.5], 3),
        lambda: elementary_to_traces([1, False], 3),
    ],
)
def test_float_and_bool_entries_rejected(call):
    with pytest.raises(ValueError, match="entry 2 must be an int or a Fraction"):
        call()


@settings(deadline=None)
@given(DEGREE_R, st.integers(min_value=0, max_value=80), st.data())
def test_newton_oracle_on_degree_r_traces(a, n, data):
    # the kernel sums only up to the last nonzero coefficient; a bump or a
    # rational entry makes later coefficients nonzero and the sums full again
    b = list(elementary_to_traces(a, n))
    if n and data.draw(st.booleans(), label="bump"):
        b[data.draw(st.integers(0, n - 1), label="pos")] += data.draw(st.sampled_from((1, -1)))
    if n and data.draw(st.booleans(), label="fractions"):
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        b = [Fraction(x) if m else x for x, m in zip(b, mask)]
        if data.draw(st.booleans(), label="non-integral"):
            b[data.draw(st.integers(0, n - 1))] = data.draw(st.fractions(max_denominator=6))
    coeffs = traces_to_elementary(b)
    assert all(type(x) is Fraction for x in coeffs)
    assert list(coeffs) == newton_by_definition(b)


class CountingInt(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return int.__mul__(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return CountingInt(-int(self))


def test_degree_r_traces_cost_n_times_r_products():
    a, n = (2, -1, 3), 300
    b = [CountingInt(x) for x in elementary_to_traces(a, n)]
    CountingInt.products = 0
    assert traces_to_elementary(b) == tuple(map(Fraction, a)) + (0,) * (n - len(a))
    assert CountingInt.products <= (len(a) + 1) * n
    bumped = b[:]
    bumped[150] = CountingInt(bumped[150] + 1)
    assert list(traces_to_elementary(bumped)) == newton_by_definition(bumped)
