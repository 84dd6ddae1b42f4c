"""Seeded pseudo-random numbers with a fixed, documented algorithm.

Fixtures and fuzz runs must be bit-reproducible across Python versions and
platforms, so we do not use :mod:`random` (whose integer methods are not
guaranteed stable).  Instead this module implements SplitMix64, a tiny
public-domain generator with a 64-bit state:

    state += 0x9E3779B97F4A7C15            (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Bounded draws use rejection sampling, so they are exactly uniform.
"""

from __future__ import annotations

from .newton import _exact_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 generator seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = _exact_int(seed, "seed") & _MASK64

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)``, bias-free via rejection over enough 64-bit outputs."""
        _exact_int(n, "n", 1)
        words = max(1, -(-(n - 1).bit_length() // 64))
        threshold = (1 << 64 * words) - (1 << 64 * words) % n
        while True:
            u = 0
            for _ in range(words):
                u = u << 64 | self.next_u64()
            if u < threshold:
                return u % n

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in the closed interval ``[lo, hi]``."""
        if _exact_int(lo, "lo") > _exact_int(hi, "hi"):
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)


__all__ = ["SplitMix64"]
