"""Sanity checks on the oracles themselves against hand-computed values."""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .oracles import (
    char_coeffs_perm,
    compound_perm,
    det_perm,
    fib,
    ghost_by_definition,
    lucas,
    murnaghan_nakayama,
    naive_mul,
    naive_pow,
    partitions,
    perm_sign,
    poly_mul_trunc,
    series_traces,
    sieve_primes,
    witt_by_definition,
    witt_product_coeffs,
)

FIB = [[0, 1], [1, 1]]


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


def test_det_perm_hand_values():
    assert det_perm([[5]]) == 5
    assert det_perm([[1, 2], [3, 4]]) == -2
    assert det_perm([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_perm([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_naive_mul_and_pow():
    assert naive_mul(FIB, FIB) == [[1, 1], [1, 2]]
    assert naive_pow(FIB, 0) == [[1, 0], [0, 1]]
    assert naive_pow(FIB, 5) == [[fib(4), fib(5)], [fib(5), fib(6)]]


def test_poly_mul_trunc():
    assert poly_mul_trunc([1, 1], [1, 1], 2) == [1, 2, 1]
    assert poly_mul_trunc([1, 2, 3], [1, 1], 1) == [1, 3]


def test_char_coeffs_perm_hand_values():
    assert char_coeffs_perm([[3]]) == [3]
    assert char_coeffs_perm(FIB) == [1, -1]
    assert char_coeffs_perm([[1, 0], [0, 1]]) == [2, 1]
    assert char_coeffs_perm([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == [10, 31, 30]


def test_series_traces_identity_matrix():
    assert series_traces([3, 3, 1], 5) == [Fraction(3)] * 5


def test_series_traces_fibonacci():
    assert series_traces([1, -1], 6) == [lucas(n) for n in range(1, 7)]


def test_witt_product_teichmueller():
    # single factor (1 - 2t): a_1 = 2, everything above degree 1 vanishes
    assert witt_product_coeffs([2, 0, 0, 0], 4) == [2, 0, 0, 0]
    # (1-t)(1-t^2) = 1 - t - t^2 + t^3, truncated: a = (1, -1)
    assert witt_product_coeffs([1, 1], 2) == [1, -1]


def test_witt_product_single_higher_factor():
    # (1 - t^2) = 1 - t^2: a_1=0, a_2=-(-1)... signs: raw coeff c_2=-1, a_2=(-1)^2*c_2=-1
    assert witt_product_coeffs([0, 1, 0, 0], 4) == [0, -1, 0, 0]


def test_sieve_primes():
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_compound_perm_full_minor_is_det():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert compound_perm(m, 3) == [[det_perm(m)]]
    assert compound_perm(m, 1) == m


def test_ghost_and_witt_by_definition_hand_values():
    x = [2, 3, 5, 7]
    b = [2, 2**2 + 2 * 3, 2**3 + 3 * 5, 2**4 + 2 * 3**2 + 4 * 7]
    assert ghost_by_definition(x, 4) == b
    assert ghost_by_definition(x, 6)[5] == 2**6 + 2 * 3**3 + 3 * 5**2
    assert witt_by_definition(b) == x
    assert witt_by_definition([0, 1]) == [0, Fraction(1, 2)]


def test_murnaghan_nakayama_known_characters():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [murnaghan_nakayama((2, 2), c) for c in partitions(4)] == [0, -1, 2, 0, 2]
    for n in range(1, 11):
        shapes = partitions(n)
        assert sum(murnaghan_nakayama(shape, (1,) * n) ** 2 for shape in shapes) == factorial(n)
        for c in shapes:
            # column orthogonality: the squares sum to the centralizer order, prod of l^m * m!
            centralizer = prod(l**m * factorial(m) for l, m in Counter(c).items())
            assert sum(murnaghan_nakayama(shape, c) ** 2 for shape in shapes) == centralizer
            assert murnaghan_nakayama((n,), c) == 1
            assert murnaghan_nakayama((1,) * n, c) == (-1) ** (n - len(c))  # the sign character
            if n >= 2:
                assert murnaghan_nakayama((n - 1, 1), c) == c.count(1) - 1  # fixed points - 1
