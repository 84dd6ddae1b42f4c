"""Exact dense integer matrices.

Products, powers, exterior powers and companion forms, plus characteristic
coefficients by Berkowitz's division-free algorithm and traces of powers by
the Newton recurrence on them (neither builds a matrix power), all over
Python's arbitrary-precision integers.  Traces of powers overflow 64 bits
almost immediately (entries of size 4 at dimension 6 do so around the 24th
power), and a single silently wrapped value would falsify every congruence
downstream, so fixed-width arithmetic and floats are banned outright.

Dimension 0 and 1 matrices are ordinary values here, not errors: the empty
matrix has ``trace(f^n) = 0`` and ``det(1 + t*f) = 1``.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .newton import Scalar, _elementary_to_traces, _exact_int, as_integers, exact_ints
from .rng import SplitMix64

# Largest magnitude a JSON consumer with IEEE doubles can hold exactly.
_JSON_SAFE_INT = (1 << 53) - 1


def encode_int(value: int):
    """JSON-encode an integer: literal when doubles hold it, else a string."""
    return value if -_JSON_SAFE_INT <= value <= _JSON_SAFE_INT else str(value)


def encode_scalar(value: Scalar):
    """JSON-encode an int or Fraction: :func:`encode_int` if integral, else ``"p/q"``."""
    if type(value) is int:  # exact ints only: a bool still encodes as 0 or 1, not as true or false
        return encode_int(value)
    q = Fraction(value)
    return encode_int(int(q)) if q.denominator == 1 else str(q)


def parse_decimals(
    tokens: Sequence[str], convert: Callable[[str], object] = int, what: str = "integer"
) -> tuple:
    """``convert`` of each token, for plain decimal text: ``int`` and ``Fraction``
    alone also take ``"1_0"`` for 10 and non-ASCII digits.  The first bad token
    raises ValueError naming ``what`` and echoing at most 40 characters."""
    text = "".join(tokens)
    with suppress(ValueError, ZeroDivisionError):
        if "_" not in text and text.isascii():  # one test for all the tokens
            return tuple(map(convert, tokens))
    if len(tokens) != 1:
        return tuple(parse_decimal(token, convert, what) for token in tokens)  # stops at the bad one
    raise ValueError(f"invalid {what} {text[:40]!r}")


def parse_decimal(token: str, convert: Callable[[str], object] = int, what: str = "integer"):
    """:func:`parse_decimals` of one token."""
    return parse_decimals((token,), convert, what)[0]


def decode_int(obj: object) -> int:
    """Inverse of :func:`encode_int`: accept a JSON integer or decimal string."""
    if isinstance(obj, bool):
        raise ValueError(f"expected an integer, got {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return parse_decimal(obj.strip(), what="decimal integer string")
    raise ValueError(f"expected an integer or string, got {repr(obj)[:40]}")


def decode_object(obj: object, what: str, keys: Iterable) -> list:
    """The values at ``map(str, keys)`` of the JSON object ``obj``, which must have exactly those keys.
    The walk stops at the first key missing, so ``keys`` may be a range longer than any input."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    values = []
    for key in map(str, keys):
        if key not in obj:
            raise ValueError(f"{what} lacks the key {key!r:.40}")
        values.append(obj[key])
    if len(values) != len(obj):
        known = set(map(str, keys))
        extra = next(key for key in obj if key not in known)
        raise ValueError(f"{what} has the unknown key {extra!r:.40}")
    return values


@dataclass(frozen=True)
class IntMatrix:
    """An immutable square matrix of integers.

    >>> IntMatrix.from_rows([[0, 1], [1, 1]]).trace()
    1
    >>> (IntMatrix.from_rows([[0, 1], [1, 1]]) ** 5).entries
    ((3, 5), (5, 8))
    """

    dim: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _exact_int(self.dim, "dim", 0)
        rows = tuple(map(tuple, self.entries))
        if len(rows) != self.dim or any(len(row) != self.dim for row in rows):
            raise ValueError(f"entries do not form a {self.dim}x{self.dim} square")
        exact_ints(tuple(chain.from_iterable(rows)))  # positions count in row-major order
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(len(rows), rows)

    @classmethod
    def identity(cls, dim: int) -> "IntMatrix":
        span = range(_exact_int(dim, "dim", 0))
        return cls(dim, tuple(tuple(int(i == j) for j in span) for i in span))

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.dim))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __pow__(self, n: int) -> "IntMatrix":
        return mat_pow(self, n)

    def to_json_dict(self) -> dict:
        """Render as ``{"dim": r, "entries": [[...]]}`` with big entries as strings."""
        return {
            "dim": self.dim,
            "entries": [[encode_int(v) for v in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "IntMatrix":
        dim, rows = decode_object(obj, "matrix JSON", ("dim", "entries"))
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise ValueError('"entries" must be a list of rows')
        return cls(decode_int(dim), [list(map(decode_int, row)) for row in rows])


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product; dimensions must agree."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    n = a.dim
    rows_a = a.entries
    cols_b = tuple(zip(*b.entries)) if n else ()
    product = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols_b) for row in rows_a
    )
    return IntMatrix(n, product)


def _power(x, n: int, mul: Callable):
    """``x**n`` under the product ``mul``, for n >= 1, by square-and-multiply from the top bit:
    ``n.bit_length() - 1`` squarings and ``popcount(n) - 1`` products by x."""
    result = x
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def mat_pow(f: IntMatrix, n: int) -> IntMatrix:
    """``f**n``: the identity for n = 0, else :func:`_power` over :func:`mat_mul` (the ladder that
    ``check_matrix_congruences`` runs mod chi), at ``n.bit_length() + popcount(n) - 2`` products."""
    return _power(f, n, mat_mul) if _exact_int(n, "n", 0) else IntMatrix.identity(f.dim)


def trace_sequence(f: IntMatrix, n_max: int) -> tuple[int, ...]:
    """Traces of f, f^2, ..., f^n_max, by the Newton recurrence on det(1 + t*f)."""
    _exact_int(n_max, "n_max", 0)
    return _elementary_to_traces(char_poly_coeffs(f), n_max)


def char_poly_coeffs(f: IntMatrix) -> tuple[int, ...]:
    """Coefficients a_1..a_r of ``det(1 + t*f)``, by Berkowitz (Inf. Proc. Lett. 18, 1984).

    Let p_k(x) = det(x - f_k) for the leading k x k block f_k, bordered by
    the row R, column C and corner a of f_(k+1).  Then p_(k+1) is p_k times
    1 - a*y - RC*y^2 - R f_k C*y^3 - ... - R f_k^(k-1) C*y^(k+1), y = 1/x, cut
    at y^(k+1); with no division, integer input needs no integrality check.

    >>> char_poly_coeffs(IntMatrix.from_rows([[0, 1], [1, 1]]))
    (1, -1)
    >>> char_poly_coeffs(IntMatrix.identity(3))
    (3, 3, 1)
    """
    rows = f.entries
    poly = [1]  # p_k, highest degree first
    for k, row in enumerate(rows):
        block = rows[:k]  # zip and map stop at the shorter input, so these rows act as f_k
        col = [r[k] for r in block]
        toeplitz = [1, -row[k]] + [0] * k
        if any(col):  # else R f_k^j C = 0 for every j: a companion matrix skips all but its last column
            toeplitz[2] = -sum(map(mul, row, col))
            for j in range(3, k + 2):  # k - 1 products: f_k^k C is never read
                col = [sum(map(mul, r, col)) for r in block]
                toeplitz[j] = -sum(map(mul, row, col))
        poly = [sum(map(mul, poly, toeplitz[i::-1])) for i in range(k + 2)]
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(poly[1:], start=1))


def _minor_levels(entries: Sequence[Sequence[int]]) -> Iterator[list[list[int]]]:
    """Every s x s minor of the square ``entries``, one level per s = 1..r: ``level[a][b]`` is the minor
    on the a-th row and the b-th column subset of size s, in ``combinations`` order.  The minor on rows R
    and columns C is the sum over j of (-1)^j * f[R_0][C_j] * minor(R[1:], C without C_j) from the level
    below (the first from the 0 x 0 minor, 1), zero entries skipped: C(r, s)^2 * s products at most."""
    span, level = range(len(entries)), [[1]]
    for s in range(1, len(entries) + 1):
        below = {cols: b for b, cols in enumerate(combinations(span, s - 1))}
        subsets = list(combinations(span, s))  # each C's drops: (C_j, index of C without C_j below, j % 2)
        drops = [[(c, below[cols[:j] + cols[j + 1 :]], j % 2) for j, c in enumerate(cols)] for cols in subsets]
        level, tails = [], level
        for rows in subsets:
            row, tail, minors = entries[rows[0]], tails[below[rows[1:]]], []
            for drop in drops:
                total = 0
                for c, b, odd in drop:
                    if row[c]:
                        term = row[c] * tail[b]
                        total = total - term if odd else total + term
                minors.append(total)
            level.append(minors)
        yield level


def compound_matrix(f: IntMatrix, i: int) -> IntMatrix:
    """The i-th exterior power of f: the matrix of all i x i minors, level i of the minor table.

    Rows and columns are indexed by the size-i subsets of ``{0..r-1}`` in lexicographic order, so
    the result is ``C(r, i)`` square.  Its trace is the i-th characteristic coefficient of f, and it
    respects products: ``compound(f*g, i) == compound(f, i) * compound(g, i)``.
    """
    if not 1 <= _exact_int(i, "i") <= f.dim:
        raise ValueError(f"minor size {i} out of range for dimension {f.dim}")
    level = next(islice(_minor_levels(f.entries), i - 1, None))
    return IntMatrix(len(level), tuple(map(tuple, level)))


def companion_matrix(coeffs: Sequence[int]) -> IntMatrix:
    """Integer matrix whose ``det(1 + t*f)`` has the given coefficients.

    This is the Frobenius companion of the monic polynomial
    ``x^r - a_1*x^(r-1) + a_2*x^(r-2) - ... + (-1)^r * a_r``: ones on the
    subdiagonal, the coefficient column (with alternating signs) last.

    >>> companion_matrix([1, -1]).entries
    ((0, 1), (1, 1))
    """
    values = as_integers(coeffs)
    r = len(values)
    rows = [[0] * r for _ in range(r)]
    for i in range(1, r):
        rows[i][i - 1] = 1
    for i in range(r):
        a = values[r - i - 1]
        rows[i][r - 1] = a if (r - i - 1) % 2 == 0 else -a
    return IntMatrix.from_rows(rows)


def random_matrix(dim: int, bound: int, seed: int) -> IntMatrix:
    """Seeded random matrix with entries uniform in ``[-bound, bound]``.

    Uses :class:`tracewitt.rng.SplitMix64`, so a fixed seed yields the same
    matrix on every platform and Python version.  Entries are drawn in
    row-major order.
    """
    _exact_int(bound, "bound", 1)
    gen = SplitMix64(_exact_int(seed, "seed"))
    span = range(_exact_int(dim, "dim", 0))
    return IntMatrix(dim, tuple(tuple(gen.integer(-bound, bound) for _ in span) for _ in span))


__all__ = [
    "IntMatrix",
    "mat_mul",
    "mat_pow",
    "trace_sequence",
    "char_poly_coeffs",
    "compound_matrix",
    "companion_matrix",
    "random_matrix",
]
