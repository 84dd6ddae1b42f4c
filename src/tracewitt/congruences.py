"""Divisibility laws of trace sequences, as executable checks.

The central fact: integers b_1, ..., b_r are the traces of powers of some
integer matrix if and only if

    b_n == b_{n/p}  (mod p^k)   whenever  n = p^k * s <= r  with  gcd(p, s) = 1.

(The first instance is the classical ``b_1 == b_2 mod 2``, and the family
generalizes Fermat's little theorem.)  This module checks that condition on
raw sequences, on matrices directly (traces of p-power powers), on exterior
powers (coefficientwise congruence of characteristic polynomials, with the
determinant as the top coefficient), and on integer-valued character tables
restricted to the powers of one group element.  Every check produces a
:class:`CongruenceReport` whose rows carry the exact values, modulus, and
verdict, so failures are self-explaining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple, Sequence

from .matrices import (
    IntMatrix,
    _minor_levels,
    _power,
    char_poly_coeffs,
    companion_matrix,
    decode_int,
    decode_object,
    encode_int,
    mat_pow,
    trace_sequence,
)
from .newton import _elementary_to_traces, _exact_int, _traces_to_elementary, exact_ints, integrality_check
from .witt import _witt, factor, smallest_prime_factors


_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
SPRP_BOUND = 3317044064679887385961981  # the least strong pseudoprime to every base above


def is_prime(n: int) -> bool:
    """Deterministic primality.  Below SPRP_BOUND, the least strong pseudoprime to the
    prime bases 2..41, strong probable-prime tests to those bases decide it (Sorenson
    and Webster, Math. Comp. 86, 2017); trial division at and above it."""
    if _exact_int(n, "n") >= SPRP_BOUND:
        return next(factor(n)) == (n, 1)
    if n < 2 or any(n % a == 0 for a in _SPRP_BASES):
        return n in _SPRP_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _SPRP_BASES:  # a^d is 1, or one of a^d, a^(2d), ..., a^(2^(s-1)*d) is -1 (mod n)
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in accumulate(repeat(n, s - 1), lambda y, m: y * y % m, initial=x):
            return False
    return True


def _require_prime(p: int, k: int, name: str = "k") -> None:
    if not is_prime(_exact_int(p, "p")):
        raise ValueError(f"{p} is not prime")
    _exact_int(k, name, 1)


class PrimePower(NamedTuple):
    """One part of a factorization: n = p**k * s with gcd(p, s) = 1."""

    p: int
    k: int
    s: int


def prime_power_split(n: int) -> tuple[PrimePower, ...]:
    """Factor n into (p, k, s) parts with p ascending; n = 1 gives ().

    >>> prime_power_split(12)
    (PrimePower(p=2, k=2, s=3), PrimePower(p=3, k=1, s=4))
    """
    return tuple(PrimePower(p, k, n // p**k) for p, k in factor(n))


@dataclass(frozen=True)
class CongruenceRow:
    """One checked congruence: ``lhs == rhs (mod p^k)``.

    ``n`` names what the row is about -- the sequence index for trace sequences,
    the power of the matrix for power-trace checks, the coefficient index for
    exterior-power checks, or the power p^k of g for character checks.
    """

    n: int
    p: int
    k: int
    lhs: int
    rhs: int
    modulus: int
    passed: bool


def _row(n: int, p: int, k: int, lhs: int, rhs: int) -> CongruenceRow:
    """The row checking ``lhs == rhs (mod p**k)``.  Its fields are set in one call,
    not by the frozen ``__init__``'s seven."""
    modulus = p**k
    passed = (lhs - rhs) % modulus == 0
    row = object.__new__(CongruenceRow)
    object.__setattr__(
        row, "__dict__", {"n": n, "p": p, "k": k, "lhs": lhs, "rhs": rhs, "modulus": modulus, "passed": passed}
    )
    return row


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of a batch of congruence checks, in deterministic order."""

    checks: tuple[CongruenceRow, ...]
    policy: dict = field(default_factory=dict)
    witness: tuple[Fraction, ...] | None = None

    @cached_property
    def overall(self) -> bool:
        """Whether every row passed, worked out on the first read."""
        return all(row.passed for row in self.checks)

    def failures(self) -> tuple[CongruenceRow, ...]:
        return tuple(row for row in self.checks if not row.passed)


class InvalidTraceSequenceError(Exception):
    """Raised when a sequence fails the congruence characterization."""

    def __init__(self, report: CongruenceReport):
        self.report = report
        failed = report.failures()
        first = f", first at (n={failed[0].n}, p={failed[0].p}, k={failed[0].k})" if failed else ""
        super().__init__(f"not a trace sequence: {len(failed)} of {len(report.checks)} congruences fail{first}")


def check_trace_sequence(
    traces: Sequence[int], *, with_witness: bool = False
) -> CongruenceReport:
    """Decide whether b_1..b_N is the trace sequence of an integer matrix.

    For every index n and every prime-power part n = p^k * s, one row checks
    ``b_n == b_{n/p} (mod p^k)``.  All rows passing is both necessary and
    sufficient for an integer witness to exist; its dimension is the degree
    of det(1 + t*f) recovered from b, at most N.

    >>> check_trace_sequence([0, 1]).overall
    False
    >>> check_trace_sequence([1, 3, 4, 7]).overall
    True
    """
    traces = exact_ints(traces)
    spf = smallest_prime_factors(len(traces))
    rows = []
    for n in range(2, len(traces) + 1):
        rest = n
        while rest > 1:  # the parts of prime_power_split(n), p ascending
            p, k = spf[rest], 0
            while rest % p == 0:
                rest //= p
                k += 1
            rows.append(_row(n, p, k, traces[n - 1], traces[n // p - 1]))
    witness = tuple(map(Fraction, _witt(traces))) if with_witness else None
    policy = {"kind": "trace-sequence", "length": len(traces)}
    return CongruenceReport(tuple(rows), policy, witness)


def synthesize(traces: Sequence[int]) -> IntMatrix:
    """Produce an integer matrix whose power traces are exactly b_1..b_N.

    The witness is the companion matrix of the characteristic coefficients
    recovered through Newton's identities; those coefficients are integral
    precisely because the congruences hold.  Trailing zero coefficients are
    dropped, so the witness dimension is deg det(1 + t*f) <= N: the smallest
    companion that reproduces all N traces (``synthesize([2, 4, 8, 16])`` is
    ``[[2]]``).  The traces are recomputed from the result before returning.

    Raises :class:`InvalidTraceSequenceError`, carrying the failing report
    rows and the Witt witness, when the sequence is not a trace sequence.
    """
    traces = tuple(traces)  # read once: a one-shot iterator feeds the check, the coefficients and the comparison
    if not check_trace_sequence(traces).overall:  # the one input check
        raise InvalidTraceSequenceError(check_trace_sequence(traces, with_witness=True))
    coeffs = _traces_to_elementary(traces)  # ints, since the congruences hold
    degree = len(coeffs)
    while degree and coeffs[degree - 1] == 0:
        degree -= 1
    matrix = companion_matrix(coeffs[:degree])
    if trace_sequence(matrix, len(traces)) != traces:
        raise ArithmeticError("synthesized matrix fails to reproduce its traces; this is a bug")
    return matrix


def lemma6_verify(a: int, p: int, k: int) -> bool:
    """Check the divisibility ``p^k | a^(p^k) - a^(p^(k-1))`` exactly.

    True for every integer a, prime p and k >= 1 (k = 1 is Fermat's little
    theorem); exposed as a predicate so the claim itself is testable.
    Exponentiation is done modulo p^k, which decides the same divisibility
    without materializing the full powers.
    """
    _exact_int(a, "a")
    _require_prime(p, k)
    modulus = p**k
    return (pow(a, p**k, modulus) - pow(a, p ** (k - 1), modulus)) % modulus == 0


def _mul_mod(u: list[int], v: list[int], signed: Sequence[int]) -> list[int]:
    """``u * v`` modulo ``chi(x) = x^r - signed_1*x^(r-1) - ... - signed_r`` on coefficient
    lists, lowest degree first, missing high ones zero; by Cayley-Hamilton it is u(f)*v(f)."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v, start=i):
            prod[j] += a * b
    while len(prod) > len(signed):
        top = prod.pop()  # x^d = sum signed_i * x^(d-i), with d = len(prod)
        for i, s in enumerate(signed, start=1):
            prod[-i] += s * top
    return prod


def _pth_power(coeffs: Sequence[int], p: int) -> tuple[int, ...]:
    """Coefficients of ``det(1 + t*f^p)`` from those of ``det(1 + t*f)``: the
    traces of f^p are every p-th trace of f (Graeffe's root powering), and
    integer Newton turns the first r of them back into coefficients."""
    powered = _traces_to_elementary(_elementary_to_traces(coeffs, len(coeffs) * p)[p - 1 :: p])
    if integrality_check(powered):
        raise ArithmeticError("det(1 + t*f^p) came out non-integral; this is a bug, not bad input")
    return powered


def check_matrix_congruences(f: IntMatrix, p: int, k_max: int) -> CongruenceReport:
    """Trace congruences of matrix p-power powers, with all gap sizes.

    For every 1 <= j <= k <= k_max, one row checks

        trace(f^(p^k)) == trace(f^(p^(k-j)))  (mod p^(k-j+1)).

    The gap-1 rows are the sharpest (modulus p^k); wider gaps trade modulus
    for reach.  Rows are ordered by (k, j); each row stores the power p^k
    in ``n`` and the modulus exponent k-j+1 in ``k``.
    """
    _require_prime(p, k_max, "k_max")
    # tr(f^(p^k)) is u = x^(p^k) mod chi, at most r terms, dotted with the traces (r, b_1, ..., b_(r-1)).
    # Root powering (_pth_power) would carry all of det(1 + t*f^(p^k)), integers about r
    # times longer: 1.7x slower at dims 8-12, p^k = 49..125, and 0.16 -> 2.6 s at dim 6, p^k = 2^16.
    coeffs = char_poly_coeffs(f)
    signed = [a if i % 2 else -a for i, a in enumerate(coeffs, start=1)]
    basis = (f.dim, *_elementary_to_traces(coeffs, f.dim - 1))
    x = _mul_mod([0, 1], [1], signed)  # reduced like every later power: at dim 1 the constant b_1
    powers = accumulate(repeat(p, k_max), lambda u, e: _power(u, e, lambda a, b: _mul_mod(a, b, signed)), initial=x)
    power_traces = [sum(map(mul, u, basis)) for u in powers]
    rows = []
    for k in range(1, k_max + 1):
        for j in range(1, k + 1):
            rows.append(_row(p**k, p, k - j + 1, power_traces[k], power_traces[k - j]))
    policy = {"kind": "matrix-power", "p": p, "k_max": k_max, "dim": f.dim}
    return CongruenceReport(tuple(rows), policy)


def check_exterior_congruence(f: IntMatrix, p: int, k: int) -> CongruenceReport:
    """Coefficientwise congruence of ``det(1 + t*f^(p^k))`` mod p^k.

    Row i compares the i-th characteristic coefficient of ``f^(p^k)``
    against that of ``f^(p^(k-1))`` modulo p^k.  The top row (i = r) is the
    determinant congruence ``det(f^(p^k)) == det(f^(p^(k-1))) (mod p^k)``.
    """
    rows = tuple(row for row in exterior_levels(f, p, _exact_int(k, "k", 1)).checks if row.k == k)
    return CongruenceReport(rows, {"kind": "exterior-power", "p": p, "k": k, "dim": f.dim})


def exterior_levels(f: IntMatrix, p: int, k_max: int) -> CongruenceReport:
    """:func:`check_exterior_congruence` for k = 1..k_max in one report, p prime and k_max >= 1:
    ``det(1 + t*f^(p^k))``, k = 0..k_max, by root powering from chi (Newton and the trace
    recurrence alone, no matrix power), each level computed once."""
    _require_prime(p, k_max, "k_max")
    levels = list(accumulate(repeat(p, k_max), _pth_power, initial=char_poly_coeffs(f)))
    rows = []
    for k in range(1, k_max + 1):
        pairs = enumerate(zip(levels[k], levels[k - 1]), start=1)
        rows += (_row(i, p, k, high, low) for i, (high, low) in pairs)
    return CongruenceReport(tuple(rows), {"kind": "exterior-power", "p": p, "k_max": k_max, "dim": f.dim})


def exterior_via_compound(f: IntMatrix, p: int, k: int) -> CongruenceReport:
    """The same congruences as :func:`check_exterior_congruence`, from dense powers and minors
    instead of characteristic polynomials: the i-th coefficient of ``det(1 + t*g)`` is
    ``trace(compound(g, i))``, the sum of g's principal i x i minors, the diagonal of level i of its
    minor table, and by Cauchy-Binet ``compound(f, i)^(p^k) == compound(f^(p^k), i)``, so only the
    r x r powers ``f^(p^(k-1))`` and ``f^(p^k)`` are built.  The two routes must agree row for row,
    each a cross-check of the other.
    """
    _require_prime(p, k)
    low = mat_pow(f, p ** (k - 1))
    powers = (mat_pow(low, p).entries, low.entries)
    levels = enumerate(zip(*map(_minor_levels, powers)), start=1)
    rows = (_row(i, p, k, *(sum(row[a] for a, row in enumerate(level)) for level in pair)) for i, pair in levels)
    policy = {"kind": "exterior-power-compound", "p": p, "k": k, "dim": f.dim}
    return CongruenceReport(tuple(rows), policy)


@dataclass(frozen=True)
class CharacterTable:
    """Integer values of one character on the powers of a group element.

    ``values[e]`` is the character at the e-th power of an element of the
    given order, for every residue  0 <= e < order.
    """

    order: int
    values: tuple[int, ...]

    def __post_init__(self):
        _exact_int(self.order, "order", 1)
        vals = tuple(self.values)
        if len(vals) != self.order:
            raise ValueError(f"need exactly {self.order} values, got {len(vals)}")
        object.__setattr__(self, "values", exact_ints(vals))

    def value(self, exponent: int) -> int:
        return self.values[_exact_int(exponent, "exponent") % self.order]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "values": {str(e): encode_int(v) for e, v in enumerate(self.values)},
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "CharacterTable":
        order, values = decode_object(obj, "character table JSON", ("order", "values"))
        order = decode_int(order)
        values = decode_object(values, 'character table "values"', range(order))
        return cls(order, tuple(map(decode_int, values)))


def character_check_bound(p: int, order: int, max_abs: int) -> int:
    """Default exponent bound K(p) for :func:`check_character`.

    The congruence family being checked quantifies over every k >= 1; a
    finite run is honest because of two facts.  First, once ``p^k > 2 * max_abs`` the
    congruence can only hold by outright equality of the two values.
    Second, the residues ``p^k mod order`` are eventually periodic, so those
    forced equalities repeat.  Checking up to

        K(p) = max(k0, preperiod) + period,

    where k0 is the smallest k with ``p^k > 2 * max_abs``, therefore covers
    every larger k by repetition.
    """
    _exact_int(p, "p", 2)  # for p = 0 or 1, p^k would never pass 2 * max_abs
    _exact_int(order, "order", 1)
    _exact_int(max_abs, "max_abs", 0)
    k0 = 1
    while p**k0 <= 2 * max_abs:
        k0 += 1
    seen: dict[int, int] = {}
    value = 1 % order
    index = 0
    while value not in seen:
        seen[value] = index
        value = value * p % order
        index += 1
    preperiod = seen[value]
    period = index - preperiod
    return max(k0, preperiod) + period


def check_character(table: CharacterTable) -> CongruenceReport:
    """Check ``chi(g^(p^k)) == chi(g^(p^(k-1))) (mod p^k)`` on a table.

    Runs over every prime p up to the element order and k from 1 to K(p),
    the :func:`character_check_bound`, past which every congruence repeats
    one already checked; so the run decides the whole family.  The policy
    section of the report records the bounds used.  True characters always
    pass; a corrupted table generally does not.
    """
    m = table.order
    max_abs = max((abs(v) for v in table.values), default=0)
    spf = smallest_prime_factors(m)
    bounds = {p: character_check_bound(p, m, max_abs) for p in range(2, m + 1) if spf[p] == p}
    rows = []
    for p, bound in bounds.items():
        exponent = 1 % m
        for k in range(1, bound + 1):
            next_exponent = exponent * p % m
            rows.append(_row(p**k, p, k, table.values[next_exponent], table.values[exponent]))
            exponent = next_exponent
    policy = {
        "kind": "character",
        "order": m,
        "max_abs_value": max_abs,
        "k_bounds": {str(p): bound for p, bound in bounds.items()},
    }
    return CongruenceReport(tuple(rows), policy)


__all__ = [
    "is_prime",
    "PrimePower",
    "prime_power_split",
    "CongruenceRow",
    "CongruenceReport",
    "InvalidTraceSequenceError",
    "check_trace_sequence",
    "synthesize",
    "lemma6_verify",
    "check_matrix_congruences",
    "check_exterior_congruence",
    "exterior_via_compound",
    "CharacterTable",
    "character_check_bound",
    "check_character",
]
