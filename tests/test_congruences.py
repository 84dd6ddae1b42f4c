"""Congruence checkers against brute-force and cross-path oracles."""

import argparse
import contextlib
import io
import json
import re
import sys
import time
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracewitt import (
    CharacterTable,
    IntMatrix,
    InvalidTraceSequenceError,
    check_character,
    check_exterior_congruence,
    check_matrix_congruences,
    check_trace_sequence,
    divisors,
    exterior_via_compound,
    is_prime,
    lemma6_verify,
    prime_power_split,
    random_matrix,
    synthesize,
    trace_sequence,
)
from tracewitt.cli import _emit_report
from tracewitt.congruences import SPRP_BOUND, CongruenceRow, exterior_levels
from tracewitt.witt import factor, smallest_prime_factors

from .oracles import (
    char_coeffs_perm,
    character_violations,
    murnaghan_nakayama,
    naive_pow,
    naive_trace,
    partitions,
    sieve_primes,
)


def test_is_prime_small_table():
    # the strong probable-prime tests, trial division and the sieve against the oracle
    assert [n for n in range(-5, 10**5 + 1) if is_prime(n)] == sieve_primes(10**5)
    # the least strong pseudoprimes to the prime bases below 11, 37 and 41: a base list
    # one short takes the one it no longer reaches for a prime
    for factors in ((151, 751, 28351), (149491, 747451, 34233211), (399165290221, 798330580441)):
        assert not is_prime(prod(factors))
    assert is_prime(2**61 - 1) and is_prime(10**14 + 31) and not is_prime(10000004400000259)
    # at or above the pseudoprime bound a failed base still proves n composite, with or without a
    # small factor; a number that passes every base there is refused (TestPrimalityBound)
    assert not any(map(is_prime, (3317044064679887385961982, 3 * 10**30, 7 * (2**89 - 1), 1009**9)))
    spf = smallest_prime_factors(2000)
    assert len(spf) == 2001 and spf[:2] == [0, 1]
    assert [n for n in range(2, 2001) if spf[n] == n] == sieve_primes(2000)
    assert all(spf[n] == next(factor(n))[0] for n in range(2, 2001))
    assert smallest_prime_factors(0) == [0] and smallest_prime_factors(-1) == []


class TestPrimalityBound:
    """At or above SPRP_BOUND, is_prime proves compositeness or refuses: it never says prime."""

    @pytest.mark.parametrize("n", [SPRP_BOUND, 2**89 - 1, 2**127 - 1], ids=["bound", "M89", "M127"])
    def test_numbers_that_pass_every_base_are_refused(self, n):
        # the bound is a strong pseudoprime to all 13 bases; the Mersenne numbers are prime
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^primality is not proven at or above {SPRP_BOUND}: "):
            is_prime(n)
        assert time.perf_counter() - start < 0.1

    def test_checks_refuse_a_prime_they_cannot_prove(self):
        # every check that takes a prime p inherits is_prime's rule through _require_prime
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^primality is not proven"):
            check_exterior_congruence(IntMatrix.from_rows([[2]]), 2**89 - 1, 1)
        assert time.perf_counter() - start < 0.1

    def test_composites_without_a_small_factor(self):
        # a failed base proves these composite: no trial divisor below 2^61 - 1 and 2^89 - 1
        assert not is_prime((2**61 - 1) * (2**89 - 1)) and not is_prime((2**89 - 1) ** 2)

    @given(st.integers(SPRP_BOUND, 2**256))
    def test_never_true_at_or_above_the_bound(self, n):
        with contextlib.suppress(ValueError):  # refused: it passes every base
            assert is_prime(n) is False

    @given(st.sampled_from(sieve_primes(1000)), st.integers(0, 2**200))
    def test_a_multiple_of_a_small_prime_is_composite(self, q, extra):
        assert is_prime(q * (SPRP_BOUND // q + 1 + extra)) is False


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: is_prime(7.0), "n"),
        (lambda: is_prime(True), "n"),
        (lambda: prime_power_split(12.0), "n"),
        (lambda: divisors(12.0), "n"),
        (lambda: IntMatrix(2.0, ((1, 0), (0, 1))), "dim"),
        (lambda: CharacterTable(2.0, (1, 1)), "order"),
        (lambda: lemma6_verify(True, 2, 1), "a"),
        (lambda: lemma6_verify(3, 2.0, 1), "p"),
        (lambda: lemma6_verify(3, 2, True), "k"),
        (lambda: check_matrix_congruences(IntMatrix.identity(1), 2, 1.0), "k_max"),
    ],
    ids=["is_prime", "is_prime-bool", "split", "divisors", "dim", "order", "a", "p", "k", "k_max"],
)
def test_scalar_parameters_refuse_floats_and_bools(call, name):
    # a float (or a bool) never reaches the arithmetic: 7.0 is not called prime, 12.0 not factored
    with pytest.raises(ValueError, match=rf"^{name} must be an int, got "):
        call()


class TestPrimePowerSplit:
    def test_examples(self):
        assert prime_power_split(12) == ((2, 2, 3), (3, 1, 4))
        assert prime_power_split(8) == ((2, 3, 1),)
        assert prime_power_split(1) == ()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            prime_power_split(0)

    @given(st.integers(min_value=1, max_value=5000))
    def test_parts_reassemble(self, n):
        for p, k, s in prime_power_split(n):
            assert is_prime(p)
            assert p**k * s == n
            assert s % p != 0


class TestCheckTraceSequence:
    def test_intro_counterexample(self):
        report = check_trace_sequence([0, 1])
        assert not report.overall
        assert [(r.n, r.p, r.k) for r in report.failures()] == [(2, 2, 1)]

    def test_fibonacci_passes(self):
        assert check_trace_sequence([1, 3, 4, 7]).overall

    def test_constant_sequence_passes(self):
        assert check_trace_sequence([5] * 20).overall

    def test_short_sequences_vacuous(self):
        assert check_trace_sequence([]).overall
        assert check_trace_sequence([123]).overall

    def test_row_structure(self):
        report = check_trace_sequence([1, 3, 4, 7, 11, 18])
        row = next(r for r in report.checks if r.n == 6 and r.p == 3)
        assert row.modulus == 3
        assert row.lhs == 18
        assert row.rhs == 3  # b_{6/3} = b_2

    def test_row_count(self):
        # one row per (n, prime factor of n)
        report = check_trace_sequence([0] * 12)
        assert len(report.checks) == sum(len(prime_power_split(n)) for n in range(2, 13))

    def test_rows_follow_prime_power_split(self):
        # every length N = 0..600, rows in the order of prime_power_split(n), n ascending
        b = [(n * n) % 17 - 8 for n in range(1, 601)]
        expected = []
        for length in range(601):
            if length >= 2:
                for p, k, _ in prime_power_split(length):
                    lhs, rhs = b[length - 1], b[length // p - 1]
                    expected.append(CongruenceRow(length, p, k, lhs, rhs, p**k, (lhs - rhs) % p**k == 0))
            assert check_trace_sequence(b[:length]).checks == tuple(expected)
        assert not all(row.passed for row in expected) and any(row.passed for row in expected)

    def test_witness_attached_on_request(self):
        report = check_trace_sequence([2, 4, 8], with_witness=True)
        assert report.witness == (2, 0, 0)
        assert check_trace_sequence([2, 4, 8]).witness is None

    def test_non_integral_witness_on_failure(self):
        report = check_trace_sequence([0, 1], with_witness=True)
        assert report.witness == (0, Fraction(1, 2))

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**64 - 1))
    def test_matrix_traces_always_pass(self, dim, seed):
        f = random_matrix(dim, 4, seed)
        assert check_trace_sequence(trace_sequence(f, 3 * dim)).overall


class TestSynthesize:
    def test_scalar(self):
        assert synthesize([2]).entries == ((2,),)

    def test_fibonacci(self):
        assert synthesize([1, 3]).entries == ((0, 1), (1, 1))

    def test_rejects_invalid_with_report(self):
        with pytest.raises(InvalidTraceSequenceError) as exc:
            synthesize([0, 1])
        assert not exc.value.report.overall
        assert exc.value.report.witness == (0, Fraction(1, 2))

    def test_empty(self):
        assert synthesize([]).dim == 0

    def test_dimension_is_degree(self):
        assert synthesize([2, 4, 8, 16]).entries == ((2,),)
        assert synthesize([0, 0, 0]).dim == 0

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**64 - 1))
    def test_round_trip_on_matrix_traces(self, dim, seed):
        f = random_matrix(dim, 3, seed)
        b = trace_sequence(f, dim + 3)
        witness = synthesize(b)
        assert trace_sequence(witness, len(b)) == b
        coeffs = char_coeffs_perm([list(row) for row in f.entries])
        assert witness.dim == max((i for i, a in enumerate(coeffs, 1) if a), default=0)


class TestLemma6:
    def test_fermat_base_case(self):
        assert lemma6_verify(3, 5, 1)
        assert lemma6_verify(10, 5, 1)

    def test_exhaustive_small(self):
        assert all(
            lemma6_verify(a, p, k)
            for a in range(-20, 21)
            for p in (2, 3, 5)
            for k in (1, 2, 3)
        )

    def test_matches_full_exponentiation(self):
        # the modular shortcut decides the same divisibility as literal powers
        for a in range(-6, 7):
            for p, k in ((2, 1), (2, 3), (3, 2), (5, 1)):
                low = a ** (p ** (k - 1))
                assert lemma6_verify(a, p, k) == ((low**p - low) % p**k == 0)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            lemma6_verify(2, 4, 1)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            lemma6_verify(2, 3, 0)


class TestMatrixCongruences:
    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from([2, 3, 5]),
    )
    def test_random_matrices_pass(self, dim, seed, p):
        f = random_matrix(dim, 3, seed)
        assert check_matrix_congruences(f, p, 3).overall

    def test_grid_shape(self):
        f = random_matrix(3, 2, 11)
        report = check_matrix_congruences(f, 2, 4)
        assert len(report.checks) == 10  # triangular: 1+2+3+4
        assert [(r.n, r.modulus) for r in report.checks] == [
            (2, 2),
            (4, 4), (4, 2),
            (8, 8), (8, 4), (8, 2),
            (16, 16), (16, 8), (16, 4), (16, 2),
        ]

    def test_values_against_naive_powers(self):
        f = random_matrix(3, 2, 5)
        rows = [list(r) for r in f.entries]
        report = check_matrix_congruences(f, 2, 3)
        by_power = {r.n: r.lhs for r in report.checks}
        for k in (1, 2, 3):
            assert by_power[2**k] == naive_trace(naive_pow(rows, 2**k))

    @pytest.mark.parametrize("dim", range(7))
    @pytest.mark.parametrize("p, k_max", [(2, 5), (3, 3), (5, 2)])
    def test_rows_against_naive_powers(self, dim, p, k_max):
        f = random_matrix(dim, 2, 1000 * p + dim)
        rows = [list(r) for r in f.entries]
        trace = {p**k: naive_trace(naive_pow(rows, p**k)) for k in range(k_max + 1)}
        expected = [
            (p**k, trace[p**k], trace[p ** (k - j)], p ** (k - j + 1))
            for k in range(1, k_max + 1)
            for j in range(1, k + 1)
        ]
        report = check_matrix_congruences(f, p, k_max)
        assert [(r.n, r.lhs, r.rhs, r.modulus) for r in report.checks] == expected

    def test_rejects_bad_args(self):
        f = random_matrix(2, 2, 0)
        with pytest.raises(ValueError):
            check_matrix_congruences(f, 6, 2)
        with pytest.raises(ValueError):
            check_matrix_congruences(f, 2, 0)

    def test_empty_matrix(self):
        from tracewitt import IntMatrix

        assert check_matrix_congruences(IntMatrix.from_rows([]), 2, 2).overall


class TestExteriorCongruence:
    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from([2, 3]),
        st.integers(min_value=1, max_value=2),
    )
    def test_random_matrices_pass(self, dim, seed, p, k):
        f = random_matrix(dim, 3, seed)
        assert check_exterior_congruence(f, p, k).overall

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=1, max_value=3),
    )
    def test_two_paths_identical(self, dim, seed, p, k):
        f = random_matrix(dim, 3, seed)
        direct = check_exterior_congruence(f, p, k)
        compound = exterior_via_compound(f, p, k)
        assert [(r.n, r.lhs, r.rhs, r.modulus) for r in direct.checks] == [
            (r.n, r.lhs, r.rhs, r.modulus) for r in compound.checks
        ]

    @pytest.mark.parametrize("p, k, count", [(2, 1, 1), (2, 2, 2), (3, 2, 4), (2, 3, 3)])
    def test_compound_route_raises_the_lower_power_to_p(self, monkeypatch, p, k, count):
        # the r x r power p^(k-1) once, then p more; no compound matrix is powered
        from tracewitt import matrices

        products = []
        mat_mul = matrices.mat_mul
        monkeypatch.setattr(matrices, "mat_mul", lambda a, b: products.append(1) or mat_mul(a, b))
        f = random_matrix(5, 3, 29)
        rows = exterior_via_compound(f, p, k).checks
        assert len(products) == count
        assert rows == check_exterior_congruence(f, p, k).checks

    @pytest.mark.parametrize("dim", range(6))
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_compound_route_matches_permutation_oracle(self, dim, p, k):
        # permutation-expansion coefficients of triple-loop powers: no _minor, no mat_mul
        f = random_matrix(dim, 2, 7 * dim + p)
        rows = [list(r) for r in f.entries]
        high, low = (char_coeffs_perm(naive_pow(rows, e)) for e in (p**k, p ** (k - 1)))
        report = exterior_via_compound(f, p, k)
        assert [(r.n, r.lhs, r.rhs) for r in report.checks] == [
            (i, high[i - 1], low[i - 1]) for i in range(1, dim + 1)
        ]

    def test_empty_matrix_passes_vacuously(self):
        # det(1 + t*f) = 1 has no coefficients, so every exterior check has zero rows and passes
        f = IntMatrix(0, ())
        reports = [
            (exterior_levels(f, 2, 3), {"kind": "exterior-power", "p": 2, "k_max": 3, "dim": 0}),
            (check_exterior_congruence(f, 3, 2), {"kind": "exterior-power", "p": 3, "k": 2, "dim": 0}),
            (exterior_via_compound(f, 5, 1), {"kind": "exterior-power-compound", "p": 5, "k": 1, "dim": 0}),
        ]
        for report, policy in reports:
            assert report.checks == () and report.overall and report.policy == policy

    def test_top_row_is_determinant(self):
        from .oracles import det_perm

        f = random_matrix(3, 2, 21)
        rows = [list(r) for r in f.entries]
        report = check_exterior_congruence(f, 2, 1)
        top = report.checks[-1]
        assert top.lhs == det_perm(naive_pow(rows, 2))
        assert top.rhs == det_perm(rows)

    def test_rejects_bad_args(self):
        f = random_matrix(2, 2, 0)
        with pytest.raises(ValueError, match="^9 is not prime$"):
            check_exterior_congruence(f, 9, 1)
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            check_exterior_congruence(f, 2, 0)
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            check_exterior_congruence(f, 9, 0)  # k is read first, then the kernel reads p
        with pytest.raises(ValueError):
            exterior_via_compound(f, 2, 0)
        # the kernel checks its own arguments: zero rows, rows "mod 4^1" and k_max = True as 1 never run
        for p, k_max, message in [
            (2, 0, "k_max must be at least 1"),
            (4, 1, "4 is not prime"),
            (2, True, "k_max must be an int, got True"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                exterior_levels(f, p, k_max)


class TestCharacterTable:
    def test_value_wraps(self):
        t = CharacterTable(3, (5, 1, 1))
        assert t.value(7) == t.value(1) == 1

    def test_json_round_trip(self):
        payload = {"order": 4, "values": {"0": 4, "1": 0, "2": -2, "3": 0}}
        assert CharacterTable.from_json_dict(payload) == CharacterTable(4, (4, 0, -2, 0))

    def test_json_missing_residue(self):
        with pytest.raises(ValueError):
            CharacterTable.from_json_dict({"order": 2, "values": {"0": 1}})

    def test_json_extra_residue(self):
        with pytest.raises(ValueError):
            CharacterTable.from_json_dict({"order": 1, "values": {"0": 1, "1": 2}})

    def test_json_big_values_round_trip(self):
        payload = {"order": 2, "values": {"0": str(2**60), "1": str(-(2**60))}}
        assert CharacterTable.from_json_dict(payload) == CharacterTable(2, (2**60, -(2**60)))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            CharacterTable(3, (1, 2))

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            CharacterTable(1, (True,))


def regular_table(m: int) -> CharacterTable:
    return CharacterTable(m, (m,) + (0,) * (m - 1))


class TestCheckCharacter:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_regular_character_passes(self, m):
        assert check_character(regular_table(m)).overall

    def test_trivial_character_all_zero_diffs(self):
        report = check_character(CharacterTable(8, (1,) * 8))
        assert report.overall
        assert all(r.lhs == r.rhs for r in report.checks)

    def test_corrupted_order_two(self):
        report = check_character(CharacterTable(2, (2, 1)))
        assert not report.overall
        first = report.failures()[0]
        assert (first.p, first.k) == (2, 1)
        assert (first.lhs, first.rhs) == (2, 1)

    def test_policy_records_bounds(self):
        report = check_character(regular_table(6))
        assert report.policy["kind"] == "character"
        assert set(report.policy["k_bounds"]) == {"2", "3", "5"}
        for m in range(1, 61):
            bounds = check_character(regular_table(m)).policy["k_bounds"]
            assert list(bounds) == [str(p) for p in sieve_primes(m)]

    def test_non_character_fails_past_the_first_power(self):
        # every k = 1 row passes; n = 4 compares chi(g^0) = 3 with chi(g^2) = 1 mod 4
        report = check_character(CharacterTable(4, (3, 1, 1, 1)))
        assert not report.overall
        assert [(r.n, r.p, r.k, r.lhs, r.rhs) for r in report.failures()] == [(4, 2, 2, 3, 1)]
        assert all(r.passed for r in report.checks if r.k == 1)

    @pytest.mark.parametrize("bad", [Fraction(0), 0.0, False], ids=["fraction", "float", "bool"])
    def test_table_names_a_bad_value_by_position(self, bad):
        with pytest.raises(ValueError, match=rf"^entry 2 must be an int, got {re.escape(repr(bad))}$"):
            CharacterTable(3, (3, bad, 0))

    def test_order_one_vacuous(self):
        assert check_character(CharacterTable(1, (7,))).overall

    def test_symmetric_group_characters_pass(self):
        # the paper's own example: every irreducible character of S_n, n <= 10, on the powers of an
        # element of every cycle type; in g^e each l-cycle is gcd(l, e) cycles of length l / gcd(l, e)
        tables = 0
        for n in range(1, 11):
            for cycle_type in partitions(n):
                order = lcm(*cycle_type)
                powers = [
                    tuple(sorted((l // gcd(l, e) for l in cycle_type for _ in range(gcd(l, e))), reverse=True))
                    for e in range(order)
                ]
                for shape in partitions(n):
                    table = CharacterTable(order, tuple(murnaghan_nakayama(shape, c) for c in powers))
                    assert check_character(table).overall, (shape, cycle_type)
                    tables += 1
        assert tables == 3582

    @settings(deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.data(),
    )
    def test_bound_policy_matches_deep_oracle(self, m, data):
        # the finite K(p) bound must give the same verdict as a far deeper
        # scan over the same primes
        values = data.draw(st.lists(
            st.integers(min_value=-9, max_value=9), min_size=m, max_size=m
        ))
        table = CharacterTable(m, tuple(values))
        primes = [p for p in range(2, m + 1) if is_prime(p)]
        deep = character_violations(m, values, primes, 40)
        assert check_character(table).overall == (not deep)

    def test_bound_grows_with_values(self):
        def bound(values):
            return check_character(CharacterTable(6, values)).policy["k_bounds"]["2"]

        assert bound((1000,) + (0,) * 5) > bound((1,) + (0,) * 5)

    def test_bound_covers_forcing_threshold(self):
        k = check_character(CharacterTable(7, (50,) + (0,) * 6)).policy["k_bounds"]["3"]
        assert 3**k > 2 * 50

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3: primes above the order are not run")
    def test_pass_holds_for_primes_above_the_order(self):
        # on C_15, 29 is 14 mod 15, so the k = 1 row at p = 29 compares chi(g^14) = 2 with chi(g) = 1 mod 29;
        # item 3 removes this marker once the check runs such primes and the test passes
        values = (1,) * 14 + (2,)
        assert character_violations(15, values, [29], 1)
        assert not check_character(CharacterTable(15, values)).overall


def test_kernel_builds_no_matrix_power(monkeypatch):
    """The four kernel functions run on polynomials alone: with dense
    products disabled at every binding site they still return."""
    from tracewitt import char_poly_coeffs, congruences, matrices

    def refuse(*args):
        raise AssertionError("dense matrix product")

    for module in (matrices, congruences):
        for name in ("mat_mul", "mat_pow"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    f = random_matrix(5, 3, 17)
    with pytest.raises(AssertionError):
        exterior_via_compound(f, 2, 1)
    assert len(char_poly_coeffs(f)) == 5
    assert len(trace_sequence(f, 40)) == 40
    assert check_matrix_congruences(f, 2, 6).overall
    assert check_exterior_congruence(f, 3, 3).overall


def test_root_powering_needs_no_polynomial_powers(monkeypatch):
    """Exterior coefficients and the Witt maps are Newton composed with the
    trace recurrence and the ghost sieve: with ``x^m mod chi`` disabled at
    every binding site only the matrix check stops."""
    from tracewitt import coeffs_to_witt, witt_to_coeffs

    def refuse(*args):
        raise AssertionError("polynomial power mod chi")

    for name, module in list(sys.modules.items()):
        if name == "tracewitt" or name.startswith("tracewitt."):
            for attr in ("_mul_mod", "_pow_mod"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    f = random_matrix(5, 3, 17)
    with pytest.raises(AssertionError):
        check_matrix_congruences(f, 2, 3)
    assert check_exterior_congruence(f, 3, 2).overall
    compound = [row for k in (2, 3) for row in exterior_via_compound(f, 2, k).checks]
    assert [(r.n, r.lhs, r.rhs, r.modulus) for r in exterior_levels(f, 2, 3).checks[f.dim :]] == [
        (r.n, r.lhs, r.rhs, r.modulus) for r in compound
    ]
    assert witt_to_coeffs(coeffs_to_witt((1, -1, 3), 30), 3) == (1, -1, 3)


@pytest.mark.parametrize(
    "call, pos",
    [
        (lambda: check_trace_sequence([Fraction(1, 2), Fraction(5, 2)]), 1),
        (lambda: check_trace_sequence([1, Fraction(3)], with_witness=True), 2),
        (lambda: synthesize([Fraction(1), Fraction(3)]), 1),
    ],
    ids=["report", "witness", "synthesize"],
)
def test_fraction_traces_rejected(call, pos):
    """Traces are integers: a Fraction, integral or not, is refused by position
    (``[1/2, 5/2]`` used to pass every congruence as rationals)."""
    with pytest.raises(ValueError, match=f"entry {pos} must be an int, got Fraction"):
        call()


@given(st.lists(st.integers(-9, 9) | st.fractions(max_denominator=4), max_size=10))
def test_trace_report_renders_as_json(b):
    """Every report check_trace_sequence returns renders as JSON and parses back."""
    try:
        report = check_trace_sequence(b, with_witness=True)
    except ValueError:
        assert any(isinstance(x, Fraction) for x in b)
        return
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_report(report, argparse.Namespace(format="json"))
    payload = json.loads(out.getvalue())
    assert [(r["lhs"], r["rhs"]) for r in payload["checks"]] == [
        (r.lhs, r.rhs) for r in report.checks
    ]
    assert [Fraction(x) for x in payload["witness"]] == list(report.witness)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_trace_sequence([0.5, 1.5]),
        lambda: check_trace_sequence([1, 3.0], with_witness=True),
        lambda: synthesize([1, 3.0]),
        lambda: synthesize([True, 1]),
    ],
)
def test_float_and_bool_traces_rejected(call):
    with pytest.raises(ValueError, match=r"^entry \d+ must be an int, got (0\.5|3\.0|True)$"):
        call()


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=6),
)
def test_exterior_levels_match_one_level_at_a_time(dim, seed, p, k_max):
    """Every range of levels k_first..k_last <= k_max is a slice of this comparison."""
    f = random_matrix(dim, 3, seed)
    report = exterior_levels(f, p, k_max)
    one_at_a_time = [row for k in range(1, k_max + 1) for row in check_exterior_congruence(f, p, k).checks]
    assert report.checks == tuple(one_at_a_time)
    assert report.policy == {"kind": "exterior-power", "p": p, "k_max": k_max, "dim": dim}
