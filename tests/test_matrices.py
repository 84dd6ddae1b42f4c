"""Exact matrix arithmetic against naive reference implementations."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracewitt import (
    IntMatrix,
    SplitMix64,
    char_poly_coeffs,
    companion_matrix,
    compound_matrix,
    elementary_to_traces,
    mat_mul,
    mat_pow,
    random_matrix,
    trace_sequence,
    traces_to_elementary,
)
from tracewitt import matrices
from tracewitt.matrices import decode_int, encode_int, encode_scalar, parse_decimal, parse_decimals

from .oracles import (
    char_coeffs_perm,
    compound_perm,
    det_perm,
    naive_mul,
    naive_pow,
    naive_trace,
    parse_token_by_token,
)

ENTRY = st.integers(min_value=-9, max_value=9)


def square(dim_max=4, entries=ENTRY):
    return st.integers(min_value=1, max_value=dim_max).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def as_matrix(rows):
    return IntMatrix.from_rows(rows)


class TestConstruction:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])

    def test_rejects_bool_entries(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[True]])

    def test_rejects_float_entries(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1.0]])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix(3, ((1, 2), (3, 4)))

    @pytest.mark.parametrize("bad", [Fraction(3), 3.0, True], ids=["fraction", "float", "bool"])
    def test_names_a_bad_entry_by_row_major_position(self, bad):
        with pytest.raises(ValueError, match=rf"^entry 3 must be an int, got {re.escape(repr(bad))}$"):
            IntMatrix.from_rows([[1, 2], [bad, 4]])

    def test_int_subclass_entries_accepted(self):
        class Tagged(int):
            pass

        assert IntMatrix.from_rows([[Tagged(2), 0], [0, 1]]).trace() == 3

    def test_empty_matrix(self):
        assert IntMatrix.from_rows([]).dim == 0
        assert IntMatrix.from_rows([]).trace() == 0

    def test_identity(self):
        assert IntMatrix.identity(3).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestArithmetic:
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n),
        )
    ))
    def test_mul_matches_naive(self, pair):
        a, b = pair
        got = mat_mul(as_matrix(a), as_matrix(b))
        assert [list(r) for r in got.entries] == naive_mul(a, b)
        assert as_matrix(a) * as_matrix(b) == got

    @given(square(3), st.integers(min_value=0, max_value=7))
    def test_pow_matches_naive(self, rows, n):
        got = mat_pow(as_matrix(rows), n)
        assert [list(r) for r in got.entries] == naive_pow(rows, n)

    def test_pow_product_count(self, monkeypatch):
        # the result starts as the power at the lowest set bit: no identity product
        products = []
        monkeypatch.setattr(matrices, "mat_mul", lambda a, b: products.append(1) or mat_mul(a, b))
        rows = [[1, 2, 0], [-1, 1, 3], [2, 0, -2]]
        for n in range(40):
            products.clear()
            got = mat_pow(as_matrix(rows), n)
            assert len(products) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
            assert [list(r) for r in got.entries] == naive_pow(rows, n)

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            mat_pow(IntMatrix.identity(2), -1)

    def test_mul_dim_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(IntMatrix.identity(2), IntMatrix.identity(3))
        with pytest.raises(TypeError):
            IntMatrix.identity(2) * 2

    def test_huge_entries_no_overflow(self):
        f = IntMatrix.from_rows([[10**30, 1], [0, 10**30]])
        assert mat_pow(f, 3).entries[0][0] == 10**90

    @given(square(3), st.integers(min_value=0, max_value=10))
    def test_trace_sequence_matches_naive(self, rows, n_max):
        got = trace_sequence(as_matrix(rows), n_max)
        assert list(got) == [naive_trace(naive_pow(rows, n)) for n in range(1, n_max + 1)]

    @pytest.mark.parametrize("dim", range(7))
    @pytest.mark.parametrize("seed", range(3))
    def test_trace_sequence_past_the_recurrence_boundary(self, dim, seed):
        # n <= dim comes from Newton's identities, n > dim from the recurrence
        rows = [list(r) for r in random_matrix(dim, 2 + seed, 10 * dim + seed).entries]
        n_max = 3 * dim + 2
        got = trace_sequence(as_matrix(rows), n_max)
        assert list(got) == [naive_trace(naive_pow(rows, n)) for n in range(1, n_max + 1)]


class TestCharPoly:
    @given(square(4, st.integers(min_value=-5, max_value=5)))
    def test_matches_permutation_expansion(self, rows):
        assert list(char_poly_coeffs(as_matrix(rows))) == char_coeffs_perm(rows)

    @given(square(4, st.integers(min_value=-5, max_value=5)))
    def test_top_coefficient_is_determinant(self, rows):
        assert char_poly_coeffs(as_matrix(rows))[-1] == det_perm(rows)

    def test_empty(self):
        assert char_poly_coeffs(IntMatrix.from_rows([])) == ()

    @pytest.mark.parametrize("dim", range(7))
    @pytest.mark.parametrize("seed", range(4))
    def test_small_dims_match_permutation_expansion(self, dim, seed):
        f = random_matrix(dim, 1 + seed, 100 * dim + seed)
        assert list(char_poly_coeffs(f)) == char_coeffs_perm([list(r) for r in f.entries])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sparse_matches_permutation_expansion(self, data):
        # zero bordering columns are skipped, so this one is mostly zeros, some columns wholly so
        dim = data.draw(st.integers(min_value=0, max_value=7))
        zero_cols = data.draw(st.sets(st.integers(min_value=0, max_value=max(dim - 1, 0))))
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
        rows = [[0 if j in zero_cols else data.draw(entry) for j in range(dim)] for _ in range(dim)]
        assert list(char_poly_coeffs(as_matrix(rows))) == char_coeffs_perm(rows)

    def test_companion_costs_cubic_products(self, monkeypatch):
        # on a companion matrix only the last bordering column is nonzero: O(r^3), not O(r^4)
        products = []
        monkeypatch.setattr(matrices, "mul", lambda x, y: products.append(1) or x * y)
        coeffs = list(range(1, 41))
        assert list(char_poly_coeffs(companion_matrix(coeffs))) == coeffs
        assert len(products) < 2 * 40**3

    @pytest.mark.parametrize("dim", range(7, 13))
    def test_large_dims_match_newton_on_naive_traces(self, dim):
        f = random_matrix(dim, 3, dim)
        rows = [list(r) for r in f.entries]
        traces = [naive_trace(naive_pow(rows, n)) for n in range(1, dim + 1)]
        assert char_poly_coeffs(f) == traces_to_elementary(traces)


class TestCompound:
    @settings(deadline=None)
    @given(square(5, st.integers(min_value=-4, max_value=4)), st.data())
    def test_trace_is_elementary_coefficient(self, rows, data):
        i = data.draw(st.integers(min_value=1, max_value=len(rows)))
        f = as_matrix(rows)
        assert compound_matrix(f, i).trace() == char_poly_coeffs(f)[i - 1]

    @settings(deadline=None)
    @given(square(4, st.integers(min_value=-3, max_value=3)), st.data())
    def test_functorial(self, rows, data):
        i = data.draw(st.integers(min_value=1, max_value=len(rows)))
        g_rows = data.draw(
            st.lists(
                st.lists(st.integers(min_value=-3, max_value=3), min_size=len(rows), max_size=len(rows)),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        f, g = as_matrix(rows), as_matrix(g_rows)
        lhs = compound_matrix(mat_mul(f, g), i)
        rhs = mat_mul(compound_matrix(f, i), compound_matrix(g, i))
        assert lhs == rhs

    # dims to 6 reach minors of size 5 and 6; half the entries are zero, so the expansion skips some
    @settings(deadline=None, max_examples=40)
    @given(square(6, st.one_of(st.just(0), ENTRY)))
    def test_matches_minor_oracle(self, rows):
        f = as_matrix(rows)
        for i in range(1, len(rows) + 1):
            got = compound_matrix(f, i)
            assert [list(r) for r in got.entries] == compound_perm(rows, i)

    @staticmethod
    def dim_seven():
        gen = SplitMix64(7)
        return IntMatrix.from_rows([[gen.integer(1, 3) for _ in range(7)] for _ in range(7)])

    # level s holds each s x s minor once: C(7, s)^2 of them, each expanded from level s - 1
    def test_minor_table_has_every_minor_once(self):
        levels = list(matrices._minor_levels(self.dim_seven().entries))
        assert [(len(level), *{len(row) for row in level}) for level in levels] == [
            (7, 7), (21, 21), (35, 35), (35, 35), (21, 21), (7, 7), (1, 1)
        ]
        assert levels[-1] == [[det_perm([list(row) for row in self.dim_seven().entries])]]

    # compound_matrix(f, i) stops at level i: the levels past it are never built
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 7])
    def test_compound_draws_i_levels(self, monkeypatch, i):
        drawn, levels = [], matrices._minor_levels

        def counted(entries):
            for level in levels(entries):
                drawn.append(len(level))
                yield level

        monkeypatch.setattr(matrices, "_minor_levels", counted)
        assert compound_matrix(self.dim_seven(), i).dim == drawn[-1]
        assert drawn == [7, 21, 35, 35, 21, 7, 1][:i]

    # the hypothesis oracle stops at dim 6; these are the bench's largest cells, on a matrix with zeros
    @pytest.mark.parametrize("i", [2, 3, 4])
    def test_dim_seven_matches_minor_oracle(self, i):
        f = random_matrix(7, 3, 3)
        rows = [list(r) for r in f.entries]
        assert 0 in sum(rows, [])
        assert [list(r) for r in compound_matrix(f, i).entries] == compound_perm(rows, i)

    def test_first_compound_is_self(self):
        f = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert compound_matrix(f, 1) == f

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            compound_matrix(IntMatrix.identity(2), 3)
        with pytest.raises(ValueError):
            compound_matrix(IntMatrix.identity(2), 0)


class TestCompanion:
    def test_fibonacci_layout(self):
        assert companion_matrix((1, -1)).entries == ((0, 1), (1, 1))

    def test_dim_one(self):
        assert companion_matrix((7,)).entries == ((7,),)

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
    def test_round_trip_contract(self, coeffs):
        assert list(char_poly_coeffs(companion_matrix(coeffs))) == coeffs

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
    def test_traces_match_newton(self, coeffs):
        r = len(coeffs)
        got = trace_sequence(companion_matrix(coeffs), r)
        assert list(got) == list(elementary_to_traces(coeffs, r))

    def test_empty_coeffs_give_empty_matrix(self):
        assert companion_matrix(()).dim == 0

    @pytest.mark.parametrize(
        "coeffs, pos", [([1, 2.0], 2), ([True, 1], 1), (["3", 2], 1), (["3", 2.0, True], 1)]
    )
    def test_rejects_floats_bools_and_strings(self, coeffs, pos):
        with pytest.raises(ValueError, match=f"^entry {pos} must be an int or a Fraction, got "):
            companion_matrix(coeffs)


class TestRandomMatrix:
    def test_deterministic(self):
        assert random_matrix(4, 3, 99) == random_matrix(4, 3, 99)

    def test_seed_changes_output(self):
        assert random_matrix(4, 3, 1) != random_matrix(4, 3, 2)

    def test_bounds_respected(self):
        f = random_matrix(6, 4, 12345)
        assert all(-4 <= e <= 4 for row in f.entries for e in row)

    def test_all_values_reachable(self):
        seen = set()
        for seed in range(200):
            seen.update(e for row in random_matrix(3, 2, seed).entries for e in row)
        assert seen == {-2, -1, 0, 1, 2}

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            random_matrix(2, 0, 1)


class TestSplitMix:
    def test_published_seed_zero_vector(self):
        # first outputs of the reference splitmix64 implementation for seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_below_range_and_determinism(self):
        rng = SplitMix64(42)
        values = [rng.below(10) for _ in range(1000)]
        assert set(values) <= set(range(10))
        assert len(set(values)) == 10

    def test_integer_bounds(self):
        rng = SplitMix64(7)
        values = [rng.integer(-3, 3) for _ in range(500)]
        assert set(values) == set(range(-3, 4))
        with pytest.raises(ValueError, match="^empty range$"):
            SplitMix64(1).integer(3, 1)

    @pytest.mark.parametrize("n, words", [(3, 1), (2**64, 1), (2**64 + 1, 2), (10**40, 3)])
    def test_below_takes_enough_words(self, n, words):
        # one 64-bit output cannot cover a range above 2^64: rejection used to loop forever
        rng, raw = SplitMix64(5), SplitMix64(5)
        value = rng.below(n)
        u = 0
        for _ in range(words):
            u = u << 64 | raw.next_u64()
        assert value == u % n  # the seed's first draw is accepted
        assert rng.next_u64() == raw.next_u64()


class TestJson:
    def test_round_trip(self):
        f = IntMatrix.from_rows([[1, -2], [3, 4]])
        assert IntMatrix.from_json_dict(f.to_json_dict()) == f

    def test_big_entries_become_strings(self):
        big = 2**60
        f = IntMatrix.from_rows([[big]])
        payload = f.to_json_dict()
        assert payload["entries"][0][0] == str(big)
        assert IntMatrix.from_json_dict(payload) == f

    def test_small_entries_stay_ints(self):
        payload = IntMatrix.from_rows([[5]]).to_json_dict()
        assert payload["entries"][0][0] == 5

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="^matrix JSON has the unknown key 'extra'$"):
            IntMatrix.from_json_dict({"dim": 1, "entries": [[1]], "extra": 0})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="^matrix JSON lacks the key 'entries'$"):
            IntMatrix.from_json_dict({"dim": 1})

    def test_rejects_non_objects(self):
        with pytest.raises(ValueError, match="^matrix JSON must be an object$"):
            IntMatrix.from_json_dict([[1]])

    def test_rejects_float_entry(self):
        with pytest.raises(ValueError):
            IntMatrix.from_json_dict({"dim": 1, "entries": [[1.5]]})

    def test_encode_decode_int(self):
        limit = (1 << 53) - 1
        assert encode_int(limit) == limit
        assert encode_int(limit + 1) == str(limit + 1)
        assert encode_int(-limit - 1) == str(-limit - 1)
        assert decode_int(str(limit + 1)) == limit + 1
        assert decode_int(7) == 7
        # an integral Fraction encodes as its integer; any other as "p/q"
        assert encode_scalar(Fraction(2 * limit + 2, 2)) == str(limit + 1)
        assert encode_scalar(Fraction(6, 3)) == encode_scalar(2) == 2
        assert encode_scalar(Fraction(-1, 2)) == "-1/2"

    def test_decode_rejects_junk(self):
        with pytest.raises(ValueError):
            decode_int("3.5")
        with pytest.raises(ValueError):
            decode_int(True)
        with pytest.raises(ValueError):
            decode_int(2.0)


DECIMAL_TOKEN = st.one_of(
    st.integers(-(10**45), 10**45).map(str),
    st.sampled_from(["1_0", "١٢", "１", "+3", "-0", "1/0", "2/4", "-6/3", ".5", "x", "", "\x00" * 41]),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(DECIMAL_TOKEN, max_size=6), st.sampled_from([int, Fraction]))
def test_parse_decimals_matches_token_by_token(tokens, convert):
    """One guard for all the tokens gives the values, and the error naming the
    first bad token, that testing each token on its own gives."""
    try:
        want = parse_token_by_token(tokens, convert, "number")
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_decimals(tokens, convert, "number")
        assert str(got.value) == str(exc)
        if len(tokens) == 1:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                parse_decimal(tokens[0], convert, "number")
    else:
        got = parse_decimals(tokens, convert, "number")
        assert got == want and list(map(type, got)) == list(map(type, want))
        if len(tokens) == 1:
            assert parse_decimal(tokens[0], convert, "number") == want[0]
