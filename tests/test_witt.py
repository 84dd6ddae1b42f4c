"""Witt coordinates, ghost components, and the connecting bijections."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracewitt import (
    check_trace_sequence,
    coeffs_to_witt,
    divisors,
    elementary_to_traces,
    ghost_from_witt,
    traces_to_elementary,
    witt_from_ghost,
    witt_to_coeffs,
)

from .oracles import ghost_by_definition, series_traces, witt_by_definition, witt_product_coeffs

INT_VECS = st.lists(st.integers(min_value=-20, max_value=20), max_size=12)
SMALL_VECS = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=8)
# ints and Fractions, with zeros of both types drawn often
EXACT = st.sampled_from([0, Fraction(0)]) | st.integers(-9, 9) | st.fractions(max_denominator=6)
MIXED_VECS = st.lists(EXACT, max_size=14)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(13) == [1, 13]
    with pytest.raises(ValueError):
        divisors(0)


class TestCoeffsWitt:
    def test_fibonacci(self):
        assert coeffs_to_witt((1, -1)) == (1, 1)

    def test_teichmueller(self):
        assert coeffs_to_witt([2], 4) == (2, 0, 0, 0)

    def test_empty(self):
        assert coeffs_to_witt(()) == ()
        assert witt_to_coeffs(()) == ()

    @given(INT_VECS)
    def test_round_trip(self, a):
        assert witt_to_coeffs(coeffs_to_witt(a)) == tuple(a)

    @given(INT_VECS)
    def test_reverse_round_trip(self, x):
        assert coeffs_to_witt(witt_to_coeffs(x)) == tuple(x)

    @given(INT_VECS)
    def test_integer_coeffs_give_integer_witt(self, a):
        assert all(isinstance(x, int) for x in coeffs_to_witt(a))

    @given(INT_VECS)
    def test_witt_to_coeffs_matches_product_oracle(self, x):
        coeffs = witt_to_coeffs(x)
        assert list(coeffs) == witt_product_coeffs(x, len(x))
        assert all(type(a) is int for a in coeffs)

    @settings(deadline=None)
    @given(st.lists(st.integers(-4, 4), max_size=8), st.integers(0, 40), st.data())
    def test_witt_to_coeffs_types_match_product_oracle(self, a, n, data):
        # Witt coordinates of a degree-r polynomial, perhaps bumped or with Fraction entries
        x = list(coeffs_to_witt(a, n))
        if n and data.draw(st.booleans(), label="bump"):
            x[data.draw(st.integers(0, n - 1), label="pos")] += 1
        if n and data.draw(st.booleans(), label="fraction"):
            pos = data.draw(st.integers(0, n - 1), label="fraction pos")
            x[pos] = data.draw(st.sampled_from((Fraction(x[pos]), Fraction(1, 2))))
        coeffs = witt_to_coeffs(x)
        assert list(coeffs) == witt_product_coeffs(x, n)
        expected = Fraction if any(type(v) is Fraction for v in x) else int
        assert all(type(c) is expected for c in coeffs)

    def test_truncation_and_padding(self):
        full = coeffs_to_witt((1, -1), 6)
        assert len(full) == 6
        assert coeffs_to_witt((1, -1), 1) == (1,)


class TestGhost:
    def test_single_coordinate_in_degree_two(self):
        # only x_2 set: b_n = 2 * x_2^(n/2) at even n, 0 at odd n
        assert ghost_from_witt((0, 1), 4) == (0, 2, 0, 2)

    def test_teichmueller(self):
        assert ghost_from_witt([1], 3) == (1, 1, 1)

    def test_divisor_sum_by_hand(self):
        # b_4 = x1^4 + 2 x2^2 + 4 x4
        x = (2, 3, 5, 7)
        assert ghost_from_witt(x, 4)[3] == 2**4 + 2 * 3**2 + 4 * 7

    @given(SMALL_VECS)
    def test_matches_series_path(self, x):
        # independent route: product expansion then -t P'/P
        n = len(x)
        coeffs = witt_product_coeffs(x, n)
        assert list(ghost_from_witt(x, n)) == series_traces(coeffs, n)

    def test_empty(self):
        assert ghost_from_witt((), 0) == ()


class TestGhostInverse:
    def test_teichmueller(self):
        assert witt_from_ghost((2, 4, 8, 16)) == (2, 0, 0, 0)

    def test_non_integral_witness(self):
        assert witt_from_ghost((0, 1)) == (0, Fraction(1, 2))

    def test_empty(self):
        assert witt_from_ghost(()) == ()

    @given(INT_VECS)
    def test_round_trip(self, x):
        ghosts = ghost_from_witt(x, len(x))
        assert witt_from_ghost(ghosts) == tuple(map(Fraction, x))

    @given(INT_VECS)
    def test_reverse_round_trip(self, b):
        witt = witt_from_ghost(b)
        assert all(type(x) is Fraction for x in witt)
        assert ghost_from_witt(witt, len(b)) == tuple(map(Fraction, b))

    @given(st.lists(st.fractions(max_denominator=12) | st.integers(-20, 20), max_size=10))
    def test_reverse_round_trip_on_rationals(self, b):
        witt = witt_from_ghost(b)
        assert all(type(x) is Fraction for x in witt)
        assert ghost_from_witt(witt, len(b)) == tuple(b)


class TestCharacterizationBridge:
    @given(st.lists(st.integers(min_value=-10, max_value=10), max_size=8))
    def test_checker_agrees_with_witt_integrality(self, b):
        # the characterization: b passes all congruences iff its Witt vector is integral
        witt = witt_from_ghost(b)
        integral = all(x.denominator == 1 for x in map(Fraction, witt))
        assert check_trace_sequence(b).overall == integral

    @given(st.lists(st.integers(min_value=-8, max_value=8), max_size=8))
    def test_ghost_equals_newton_traces(self, a):
        # two routes from coefficients to traces agree:
        # Newton recursion vs Witt peel + divisor sums
        n = len(a)
        via_newton = elementary_to_traces(a, n)
        via_witt = ghost_from_witt(coeffs_to_witt(a), n)
        assert tuple(map(Fraction, via_newton)) == tuple(map(Fraction, via_witt))

    @given(st.lists(st.integers(min_value=-8, max_value=8), max_size=8))
    def test_witt_of_traces_equals_witt_of_coeffs(self, b):
        # triangle commutes: traces -> coeffs -> Witt == traces -> Witt
        coeffs = traces_to_elementary(b)
        assert coeffs_to_witt(coeffs) == witt_from_ghost(b)


class TestSieve:
    """The sieve maps against the divisor sum written from its definition."""

    @given(MIXED_VECS, st.integers(min_value=0, max_value=20))
    def test_ghost_from_witt_matches_definition(self, x, n_max):
        ghosts = ghost_from_witt(x, n_max)
        assert list(ghosts) == ghost_by_definition(x, n_max)
        for n, b in enumerate(ghosts, start=1):
            # a Fraction only where a nonzero Fraction coordinate contributes
            fraction_term = any(
                isinstance(x[d - 1], Fraction) and x[d - 1] != 0
                for d in range(1, min(n, len(x)) + 1)
                if n % d == 0
            )
            assert type(b) is (Fraction if fraction_term else int)

    @given(MIXED_VECS)
    def test_witt_from_ghost_matches_definition(self, b):
        witt = witt_from_ghost(b)
        assert list(witt) == witt_by_definition(b)
        assert all(type(x) is Fraction for x in witt)

    @given(st.lists(st.integers(-9, 9) | st.fractions(max_denominator=6), max_size=10), st.data())
    def test_coeffs_to_witt_inverts_series_traces(self, a, data):
        n = data.draw(st.integers(min_value=0, max_value=len(a) + 8))
        witt = coeffs_to_witt(a, n)
        assert list(witt) == witt_by_definition(series_traces(a, n))
        if any(isinstance(c, Fraction) for c in a[:n]):
            assert all(type(x) is Fraction for x in witt)
        else:
            assert all(type(x) is int for x in witt)

    @given(MIXED_VECS, st.integers(min_value=0, max_value=20))
    def test_round_trip_ghost_then_witt(self, x, n_max):
        padded = (list(x) + [0] * n_max)[:n_max]
        assert witt_from_ghost(ghost_from_witt(x, n_max)) == tuple(map(Fraction, padded))

    @given(MIXED_VECS)
    def test_round_trip_coeffs_then_witt(self, x):
        assert coeffs_to_witt(witt_to_coeffs(x)) == tuple(x)
        assert witt_to_coeffs(coeffs_to_witt(x)) == tuple(x)

    def test_fraction_beyond_the_truncation_keeps_ints(self):
        assert coeffs_to_witt([1, -1, Fraction(1, 2)], 2) == (1, 1)
        assert all(type(x) is int for x in coeffs_to_witt([1, -1, Fraction(1, 2)], 2))
        assert witt_to_coeffs([1, 1, Fraction(1, 2)], 2) == (1, -1)
        assert all(type(a) is int for a in witt_to_coeffs([1, 1, Fraction(1, 2)], 2))

    def test_mixed_input_gives_fractions_throughout(self):
        witt = coeffs_to_witt([0, Fraction(1, 2)])
        assert witt == (0, Fraction(-1, 2))
        assert all(type(x) is Fraction for x in witt)
        coeffs = witt_to_coeffs([0, Fraction(1, 2)])
        assert coeffs == (0, Fraction(-1, 2))
        assert all(type(a) is Fraction for a in coeffs)
        # one rule for both inverse maps: the input types decide, not the values
        for convert, entries, expected in [
            (coeffs_to_witt, [0, Fraction(0)], (0, 0)),
            (witt_to_coeffs, [0, Fraction(0)], (0, 0)),
            (witt_to_coeffs, [1, Fraction(0)], (1, 0)),
            (coeffs_to_witt, [Fraction(1), -1], (1, 1)),
        ]:
            result = convert(entries)
            assert result == expected
            assert all(type(v) is Fraction for v in result)

    @given(MIXED_VECS, st.data())
    def test_witt_to_coeffs_matches_product(self, x, data):
        n = data.draw(st.integers(min_value=0, max_value=len(x) + 8))
        coeffs = witt_to_coeffs(x, n)
        assert list(coeffs) == witt_product_coeffs(x, n)
        if any(isinstance(c, Fraction) for c in x[:n]):
            assert all(type(a) is Fraction for a in coeffs)
        else:
            assert all(type(a) is int for a in coeffs)


def test_witt_maps_call_no_divisors(monkeypatch):
    """The four maps work by sieving along multiples: with ``divisors``
    disabled at every binding site they still return."""
    import tracewitt

    def refuse(n):
        raise AssertionError("divisor list")

    for name, module in list(sys.modules.items()):
        if (name == "tracewitt" or name.startswith("tracewitt.")) and hasattr(module, "divisors"):
            monkeypatch.setattr(module, "divisors", refuse)
    with pytest.raises(AssertionError):
        tracewitt.divisors(6)
    x = (2, -1, Fraction(1, 3), 0, 5)
    assert witt_from_ghost(ghost_from_witt(x, 30))[:5] == x
    assert witt_to_coeffs(coeffs_to_witt((1, -1, 3), 30), 3) == (1, -1, 3)


class TestExactEntriesOnly:
    """Floats and bools are refused at the public boundary, by position."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: witt_from_ghost([0.5]),
            lambda: coeffs_to_witt([0.5], 2),
            lambda: ghost_from_witt([1, 0.5], 3),
            lambda: witt_to_coeffs([0.5]),
            lambda: witt_from_ghost([True]),
            lambda: coeffs_to_witt([1, False]),
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="entry [12] must be an int or a Fraction"):
            call()

    def test_position_is_named(self):
        with pytest.raises(ValueError, match="entry 3 .* got 2.0"):
            ghost_from_witt([1, Fraction(1, 2), 2.0], 4)
