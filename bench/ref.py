"""The benchmark's own generator and reference arithmetic.

Nothing here imports tracewitt.  Inputs are drawn from this module's
SplitMix64 and its own trace recurrence, so a change to the package cannot
change the inputs, the set-up time, or the answers the checks compare
against.  Matrix answers are verified modulo the prime Q = 2^61 - 1 at a
few points; sequence answers against the generating coefficients.
"""

from __future__ import annotations

from fractions import Fraction

Q = (1 << 61) - 1
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: a 64-bit state, the same stream on every platform."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next()
            if u < threshold:
                return u % n

    def integer(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def random_rows(rng: SplitMix64, dim: int, bound: int = 3) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(rng.integer(-bound, bound) for _ in range(dim)) for _ in range(dim))


def random_coeffs(rng: SplitMix64, degree: int, bound: int = 3) -> tuple[int, ...]:
    """a_1..a_degree of det(1 + t*f) with a nonzero top coefficient."""
    top = rng.integer(1, bound) * (1 if rng.below(2) else -1)
    return tuple(rng.integer(-bound, bound) for _ in range(degree - 1)) + (top,)


def traces_from_coeffs(coeffs: tuple[int, ...], count: int) -> list[int]:
    """b_1..b_count from a_1..a_r by the Newton recurrence.

    b_n = sum_{i<n, i<=r} (-1)^(i-1) a_i b_(n-i)  +  (-1)^(n-1) n a_n  [n <= r]
    """
    r = len(coeffs)
    signed = [a if i % 2 == 0 else -a for i, a in enumerate(coeffs)]
    b: list[int] = []
    for n in range(1, count + 1):
        acc = sum(signed[i - 1] * b[n - i - 1] for i in range(1, min(n - 1, r) + 1))
        if n <= r:
            acc += n * signed[n - 1]
        b.append(acc)
    return b


def divisor_table(limit: int) -> list[list[int]]:
    """divs[n] = the proper divisors of n, for n <= limit."""
    divs: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit // 2 + 1):
        for m in range(2 * d, limit + 1, d):
            divs[m].append(d)
    return divs


def prime_power_parts(n: int) -> list[tuple[int, int]]:
    """(p, k) with p^k exactly dividing n, p ascending."""
    parts = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            parts.append((p, k))
        p += 1
    if n > 1:
        parts.append((n, 1))
    return parts


def witt_from_traces(b: list[int], divs: list[list[int]]) -> list:
    """Witt coordinates of a sequence of ghost components, by

    n x_n = b_n - sum_{d | n, d < n} d x_d^(n/d):

    plain ints while the division is exact, exact Fractions otherwise.
    """
    x: list = []
    for n, bn in enumerate(b, start=1):
        residue = bn - sum(d * x[d - 1] ** (n // d) for d in divs[n] if x[d - 1])
        if isinstance(residue, int) and residue % n == 0:
            x.append(residue // n)
        else:
            x.append(Fraction(residue, n))
    return x


def elementary_after_bump(coeffs: tuple[int, ...], pos: int, length: int) -> list[Fraction]:
    """a_1..a_length for the traces of ``coeffs`` with 1 added to b_pos.

    Newton's identities say 1 + sum a_n t^n = exp(sum (-1)^(n-1) b_n t^n / n),
    so the bump multiplies the series by exp(e t^pos / pos), e = (-1)^(pos-1).
    """
    e = Fraction((-1) ** (pos - 1), pos)
    factor = [Fraction(0)] * (length + 1)
    term = Fraction(1)
    for m in range(length // pos + 1):
        factor[m * pos] = term
        term = term * e / (m + 1)
    a = (1,) + tuple(coeffs)
    return [sum(a[i] * factor[n - i] for i in range(min(n, len(a) - 1) + 1)) for n in range(1, length + 1)]


def max_bits(values) -> int:
    """Bit length of the largest integer among ints and Fractions."""
    top = 0
    for v in values:
        if isinstance(v, Fraction):
            top = max(top, abs(v.numerator).bit_length(), v.denominator.bit_length())
        else:
            top = max(top, abs(v).bit_length())
    return top


# --- arithmetic modulo Q ---------------------------------------------------


def mat_mod(rows) -> list[list[int]]:
    return [[v % Q for v in row] for row in rows]


def mul_mod(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % Q for col in cols] for row in a]


def pow_mod(a: list[list[int]], e: int) -> list[list[int]]:
    n = len(a)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            result = mul_mod(result, a)
        e >>= 1
        if e:
            a = mul_mod(a, a)
    return result


def trace_mod(a: list[list[int]]) -> int:
    return sum(a[i][i] for i in range(len(a))) % Q


def det_mod(a: list[list[int]]) -> int:
    """Determinant modulo Q by Gaussian elimination."""
    m = [row[:] for row in a]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % Q
        inv = pow(m[c][c], Q - 2, Q)
        for r in range(c + 1, n):
            factor = m[r][c] * inv % Q
            if factor:
                m[r] = [(x - factor * y) % Q for x, y in zip(m[r], m[c])]
    return det % Q


def det_one_plus_t(a_mod: list[list[int]], t: int) -> int:
    """det(1 + t*a) modulo Q."""
    n = len(a_mod)
    return det_mod([[(int(i == j) + t * a_mod[i][j]) % Q for j in range(n)] for i in range(n)])


def poly_mod(coeffs, t: int) -> int:
    """1 + a_1 t + a_2 t^2 + ... modulo Q (Horner)."""
    acc = 0
    for a in reversed(coeffs):
        acc = (acc + a) * t % Q
    return (acc + 1) % Q


SPOT_POINTS = (2, 3, 1 << 40)


def charpoly_matches(coeffs, a_mod: list[list[int]]) -> bool:
    """Whether 1 + sum a_i t^i agrees with det(1 + t*a) mod Q at SPOT_POINTS."""
    return all(poly_mod(coeffs, t) == det_one_plus_t(a_mod, t) for t in SPOT_POINTS)
