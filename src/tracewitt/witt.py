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

Non-integral inputs are allowed everywhere and propagate as exact
:class:`fractions.Fraction` values: a near-miss like ``x_2 = 1/2`` is useful
diagnostic output, so these functions report it rather than refusing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .newton import Scalar


def divisors(n: int) -> list[int]:
    """Divisors of n in ascending order, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _signed_series(coeffs: Sequence[Scalar], n_max: int) -> list[Scalar]:
    """Coefficients of ``1 - a_1*t + a_2*t^2 - ...`` up to degree n_max."""
    series: list[Scalar] = [1] + [0] * n_max
    for n, a in enumerate(coeffs[:n_max], start=1):
        series[n] = a if n % 2 == 0 else -a
    return series


def coeffs_to_witt(coeffs: Sequence[Scalar], n_max: int | None = None) -> tuple[Scalar, ...]:
    """Witt coordinates x_1..x_N of a coefficient vector a_1..a_r.

    Peels one factor ``(1 - x_n*t^n)`` per degree: after the factors below n
    are divided out, the residual series is ``1 - x_n*t^n + O(t^(n+1))``.
    No division by integers occurs, so integer input gives integer output.

    >>> coeffs_to_witt([1, -1])
    (1, 1)
    >>> coeffs_to_witt([2], 4)
    (2, 0, 0, 0)
    """
    n = len(coeffs) if n_max is None else n_max
    if n < 0:
        raise ValueError("n_max must be non-negative")
    residual = _signed_series(coeffs, n)
    witt: list[Scalar] = []
    for i in range(1, n + 1):
        x = -residual[i]
        witt.append(x)
        if x != 0:
            # Divide the residual by (1 - x*t^i) in place.
            for m in range(i, n + 1):
                residual[m] += x * residual[m - i]
    return tuple(witt)


def witt_to_coeffs(witt: Sequence[Scalar], n_max: int | None = None) -> tuple[Scalar, ...]:
    """Coefficients a_1..a_N from Witt coordinates; inverse of coeffs_to_witt.

    Expands ``prod (1 - x_i*t^i)`` modulo ``t^(N+1)`` and reads off the
    alternating-sign coefficients.

    >>> witt_to_coeffs([1, 1])
    (1, -1)
    """
    n = len(witt) if n_max is None else n_max
    if n < 0:
        raise ValueError("n_max must be non-negative")
    series: list[Scalar] = [1] + [0] * n
    for i, x in enumerate(witt[:n], start=1):
        if x == 0:
            continue
        for m in range(n, i - 1, -1):
            series[m] -= x * series[m - i]
    return tuple(series[m] if m % 2 == 0 else -series[m] for m in range(1, n + 1))


def ghost_from_witt(witt: Sequence[Scalar], n_max: int) -> tuple[Scalar, ...]:
    """Ghost components b_1..b_{n_max} via the divisor sum.

    Witt coordinates beyond ``len(witt)`` are taken to be zero.

    >>> ghost_from_witt([0, 1], 4)
    (0, 2, 0, 2)
    >>> ghost_from_witt([1], 3)
    (1, 1, 1)
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    ghosts: list[Scalar] = []
    for n in range(1, n_max + 1):
        total: Scalar = 0
        for d in divisors(n):
            if d <= len(witt):
                x = witt[d - 1]
                if x != 0:
                    total += d * x ** (n // d)
        ghosts.append(total)
    return tuple(ghosts)


def witt_from_ghost(ghosts: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Witt coordinates of a ghost sequence, by inverting the divisor sum:

        n * x_n = b_n - sum_{d | n, d < n} d * x_d^(n/d).

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
    witt: list[Scalar] = []
    for n, b in enumerate(ghosts, start=1):
        residue = b if isinstance(b, int) else Fraction(b)
        for d in divisors(n)[:-1]:
            x = witt[d - 1]
            if x != 0:
                residue -= d * x ** (n // d)
        if isinstance(residue, int):
            quotient, remainder = divmod(residue, n)
            witt.append(Fraction(residue, n) if remainder else quotient)
        else:
            witt.append(residue / n)
    return tuple(map(Fraction, witt))


__all__ = [
    "divisors",
    "coeffs_to_witt",
    "witt_to_coeffs",
    "ghost_from_witt",
    "witt_from_ghost",
]
