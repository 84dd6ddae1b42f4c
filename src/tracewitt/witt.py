"""Witt coordinates and ghost components of truncated power series.

A coefficient vector a_1..a_r (think: ``det(1 + t*f)`` of an integer matrix)
determines a unique sequence x_1, x_2, ... with

    prod_{i >= 1} (1 - x_i * t^i)  =  1 - a_1*t + a_2*t^2 - a_3*t^3 + ...

and the x_i are integers exactly when the a_i are.  The *ghost components*
of x are

    b_n = sum_{d | n} d * x_d^(n/d),

which for a matrix's Witt coordinates are precisely its traces of powers.
All series are handled modulo ``t^(N+1)`` for the requested truncation N;
a short coefficient vector is implicitly padded with zeros.

Both ghost maps are a sieve: ``-t d/dt log`` of the product is
``sum_d sum_j d * x_d^j * t^(d*j)``, so x_d reaches b_d, b_2d, ... through
the running term d * x_d^j, one multiply each -- O(N log N) multiplies for N
components, no divisor lists.  Coefficients and Witt coordinates meet in
their traces, since the ghosts are the traces: Newton's identities (O(N*r)
for degree r, O(N^2) once a congruence fails) composed with the sieve.

Non-integral inputs are allowed everywhere and propagate as exact
:class:`fractions.Fraction` values: a near-miss like ``x_2 = 1/2`` is useful
diagnostic output, so these functions report it rather than refusing.  An
entry that is neither an int nor a Fraction (a float, a bool) is refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, Sequence

from .newton import Scalar, _elementary_to_traces, _exact_int, _traces_to_elementary, exact_entries


def factor(n: int) -> Iterator[tuple[int, int]]:
    """The prime powers p**k exactly dividing n >= 1, as pairs (p, k) with p ascending.
    One trial-division loop, going on from the last divisor; lazy, so ``next`` stops at the
    smallest prime factor.  A non-int n or n < 1 raises ValueError on the first ``next``."""
    _exact_int(n, "n", 1)
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            yield d, k
        d += 1
    if n > 1:
        yield n, 1


def smallest_prime_factors(limit: int) -> list[int]:
    """Table ``spf`` with ``spf[n]`` the smallest prime factor of each
    2 <= n <= limit (``spf[0] = 0``, ``spf[1] = 1``), so n >= 2 is prime exactly
    when ``spf[n] == n``.  One sieve: going down from isqrt(limit), each d marks
    its multiples from d*d, so the smallest divisor d >= 2 of n with d*d <= n,
    which is n's smallest prime factor when n is composite, writes last."""
    spf = list(range(limit + 1))
    for d in range(isqrt(max(limit, 0)), 1, -1):
        spf[d * d :: d] = [d] * ((limit - d * d) // d + 1)
    return spf


def divisors(n: int) -> list[int]:
    """Divisors of n in ascending order, from its prime factors."""
    divs = [1]
    for p, k in factor(n):
        divs = [d * p**j for j in range(k + 1) for d in divs]
    return sorted(divs)


def _witt(ghosts: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """:func:`witt_from_ghost` on checked input, keeping ints where they divide."""
    residues = list(ghosts)
    for n in range(1, len(residues) + 1):
        residue = residues[n - 1]
        if isinstance(residue, int):
            x, remainder = divmod(residue, n)
            if remainder:
                x = Fraction(residue, n)
        else:
            x = residue / n
        residues[n - 1] = x
        if x:
            term = n * x
            for m in range(2 * n - 1, len(residues), n):
                term *= x
                residues[m] -= term
    return tuple(residues)


def _promoted(values: Sequence[Scalar], used: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """``values`` as Fractions throughout when a Fraction, zero included, is among
    ``used``, the entries they were computed from; all-int ``used`` gives ints."""
    if any(isinstance(x, Fraction) for x in used):
        return tuple(map(Fraction, values))
    return tuple(values)


def coeffs_to_witt(coeffs: Sequence[Scalar], n_max: int | None = None) -> tuple[Scalar, ...]:
    """Witt coordinates x_1..x_N of a coefficient vector a_1..a_r.

    The sieve of :func:`witt_from_ghost` on the traces b_1..b_N, found in O(N*r).
    Integer input gives integer output (the divisions are exact); input with
    a Fraction among a_1..a_N, even a zero one, gives fractions throughout.

    >>> coeffs_to_witt([1, -1])
    (1, 1)
    >>> coeffs_to_witt([2], 4)
    (2, 0, 0, 0)
    """
    coeffs = exact_entries(coeffs)  # checked once, then measured and sliced
    n = len(coeffs) if n_max is None else _exact_int(n_max, "n_max", 0)
    used = coeffs[:n]
    return _promoted(_witt(_elementary_to_traces(used, n)), used)


def witt_to_coeffs(witt: Sequence[Scalar], n_max: int | None = None) -> tuple[Scalar, ...]:
    """Coefficients a_1..a_N from Witt coordinates; inverse of coeffs_to_witt.

    Newton's identities on the ghosts b_1..b_N, which are the traces: O(N*r)
    multiplies for degree r, O(N^2) once a congruence fails.  Integer input
    gives integer output; input with a Fraction among x_1..x_N, even a zero
    one, gives fractions throughout, as in :func:`coeffs_to_witt`.

    >>> witt_to_coeffs([1, 1])
    (1, -1)
    """
    witt = exact_entries(witt)
    n = len(witt) if n_max is None else n_max
    return _promoted(_traces_to_elementary(ghost_from_witt(witt, n)), witt[:n])


def ghost_from_witt(witt: Sequence[Scalar], n_max: int) -> tuple[Scalar, ...]:
    """Ghost components b_1..b_{n_max} by the sieve: O(N log N) multiplies.

    Witt coordinates beyond ``len(witt)`` are taken to be zero.

    >>> ghost_from_witt([0, 1], 4)
    (0, 2, 0, 2)
    >>> ghost_from_witt([1], 3)
    (1, 1, 1)
    """
    ghosts: list[Scalar] = [0] * _exact_int(n_max, "n_max", 0)
    for d, x in enumerate(exact_entries(witt)[:n_max], start=1):
        if x:
            term = d * x
            ghosts[d - 1] += term
            for n in range(2 * d - 1, n_max, d):
                term *= x
                ghosts[n] += term
    return tuple(ghosts)


def witt_from_ghost(ghosts: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Witt coordinates of a ghost sequence, by inverting the divisor sum:

        n * x_n = b_n - sum_{d | n, d < n} d * x_d^(n/d).

    The sieve subtracts d * x_d^j at j*d, in ascending d: O(N log N) multiplies.
    The division by n makes the result rational in general; the coordinates
    are all integers exactly when the ghosts satisfy the prime-power trace
    congruences.  Integer residues are divided with exact ``divmod``; a
    :class:`~fractions.Fraction` enters only at a coordinate that does not
    divide, and the result is returned as fractions throughout.

    >>> witt_from_ghost([2, 4, 8, 16])
    (Fraction(2, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
    >>> witt_from_ghost([0, 1])
    (Fraction(0, 1), Fraction(1, 2))
    """
    return tuple(map(Fraction, _witt(exact_entries(ghosts))))


__all__ = [
    "divisors",
    "coeffs_to_witt",
    "witt_to_coeffs",
    "ghost_from_witt",
    "witt_from_ghost",
]
