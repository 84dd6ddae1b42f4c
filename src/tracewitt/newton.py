"""Newton's identities: the bridge between power sums and elementary
symmetric coefficients.

A square integer matrix with eigenvalues l_1, ..., l_r has two natural
coordinate systems attached to it:

* the power sums ``b_n = l_1^n + ... + l_r^n`` (the traces of its powers),
* the elementary symmetric functions ``a_n = e_n(l_1, ..., l_r)`` (the
  coefficients of ``det(1 + t*f) = 1 + a_1*t + ... + a_r*t^r``).

Newton's recursion

    n * a_n = sum_{i=1..n} (-1)^(i-1) * a_{n-i} * b_i,    a_0 = 1

converts one into the other.  Going from traces to coefficients divides by
``n``, so the result is a priori rational; whether it is integral is exactly
the question the congruence checker answers.  The recursion runs on integer
numerators over one common denominator, which stays 1 for a trace
sequence; :class:`fractions.Fraction` appears only in the output (and for
rational input) -- no floating point, ever.  Each step sums only up to the
last nonzero coefficient: N traces of degree r cost O(N*r) multiplies, and
O(N^2) only once a congruence fails.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _exact(values: Iterable[object], kinds: tuple[type, ...], what: str) -> tuple:
    values = tuple(values)  # read once: a one-shot iterator is checked and returned, not used up
    if not set(kinds).issuperset(map(type, values)):  # else admit subclasses, but never bool
        for pos, value in enumerate(values, start=1):
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"entry {pos} must be {what}, got {value!r:.40}")
    return values


def exact_entries(values: Iterable[object]) -> tuple[Scalar, ...]:
    """``values`` as a tuple, once each entry is checked to be an int (not a bool) or a Fraction;
    anything else, a float above all, raises ValueError naming its 1-based position."""
    return _exact(values, (int, Fraction), "an int or a Fraction")


def exact_ints(values: Iterable[object]) -> tuple[int, ...]:
    """``values`` as a tuple, once each entry is checked to be an int (not a bool); anything
    else, a Fraction or a float too, raises ValueError naming its 1-based position."""
    return _exact(values, (int,), "an int")


def _exact_int(value: object, name: str, low: int | None = None) -> int:
    """``value``, once checked to be an int (not a bool) and, given ``low``, at least ``low``;
    else ValueError naming the parameter.  Every integer parameter of the API goes through it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r:.40}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}")
    return value


def traces_to_elementary(traces: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Convert power sums b_1..b_N into elementary coefficients a_1..a_N.

    The result is exact and possibly non-integral; use
    :func:`integrality_check` to find the offending positions.

    >>> traces_to_elementary([1, 3])
    (Fraction(1, 1), Fraction(-1, 1))
    >>> traces_to_elementary([0, 1])
    (Fraction(0, 1), Fraction(-1, 2))
    """
    return tuple(map(Fraction, _traces_to_elementary(exact_entries(traces))))


def _traces_to_elementary(traces: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """:func:`traces_to_elementary` on checked input; ints when the common denominator stays 1."""
    # a_k = numer[k] / denom throughout.  At step n the sum acc equals
    # n * denom * a_n; the common denominator grows by n // gcd(acc, n) only
    # when n does not divide acc, which never happens for a trace sequence.
    # The signed traces run backwards, so numer[i] meets (-1)^(n-i-1) * b_(n-i)
    # at signed[count - n + i]; the sum stops at numer[last], the last nonzero one.
    count = len(traces)
    signed = [b if i % 2 else -b for i, b in enumerate(traces, start=1)][::-1]
    numer: list[Scalar] = [1]
    denom, last = 1, 0
    for n in range(1, count + 1):
        acc = sum(map(mul, numer, signed[count - n : count - n + last + 1]))
        if isinstance(acc, int):
            g = gcd(acc, n)
            if g != n:
                scale = n // g
                numer = [x * scale for x in numer]
                denom *= scale
            numer.append(acc // g)
        else:
            numer.append(acc / n)
        if acc:
            last = n
    return tuple(numer[1:]) if denom == 1 else tuple(Fraction(x, denom) for x in numer[1:])


def elementary_to_traces(coeffs: Sequence[Scalar], n_max: int) -> tuple[Scalar, ...]:
    """Recover power sums b_1..b_{n_max} from elementary coefficients a_1..a_r.

    For ``n <= r`` this solves Newton's recursion for ``b_n``; past ``r`` the
    traces obey the linear recurrence

        b_n = a_1*b_{n-1} - a_2*b_{n-2} + ... + (-1)^(r-1) * a_r * b_{n-r}

    coming from the characteristic polynomial.  No division occurs, so
    integer input gives integer output.

    >>> elementary_to_traces([1, -1], 4)
    (1, 3, 4, 7)
    >>> elementary_to_traces([2], 3)
    (2, 4, 8)
    """
    return _elementary_to_traces(exact_entries(coeffs), _exact_int(n_max, "n_max", 0))


def _elementary_to_traces(coeffs: Sequence[Scalar], n_max: int) -> tuple[Scalar, ...]:
    signed = [c if i % 2 else -c for i, c in enumerate(coeffs, start=1)]
    traces: list[Scalar] = []
    for n in range(1, n_max + 1):
        acc = sum(map(mul, signed, reversed(traces)))
        if n <= len(signed):
            acc += n * signed[n - 1]
        traces.append(acc)
    return tuple(traces)


def integrality_check(values: Sequence[Scalar]) -> list[int]:
    """Return the 1-based positions whose value is not an integer.

    An empty list means every entry has denominator 1.  Entries must be
    ints or Fractions (:func:`exact_entries`).

    >>> integrality_check([Fraction(1), Fraction(-1)])
    []
    >>> integrality_check([Fraction(0), Fraction(-1, 2)])
    [2]
    """
    return [pos for pos, value in enumerate(exact_entries(values), start=1) if value.denominator != 1]


def as_integers(values: Sequence[Scalar]) -> tuple[int, ...]:
    """Collapse integral rationals to plain ints, rejecting anything else."""
    values = exact_entries(values)
    bad = integrality_check(values)
    if bad:
        raise ValueError(f"non-integer values at positions {bad}")
    return tuple(int(v) for v in values)


__all__ = ["traces_to_elementary", "elementary_to_traces", "integrality_check"]
