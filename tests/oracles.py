"""Independent reference implementations used as test oracles.

Everything here is written from definitions (triple-loop products,
permutation-expansion determinants, formal power series) and deliberately
shares no code with the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

Rows = list[list[int]]


def naive_mul(a: Rows, b: Rows) -> Rows:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def naive_pow(a: Rows, n: int) -> Rows:
    result = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(n):
        result = naive_mul(result, a)
    return result


def naive_trace(a: Rows) -> int:
    return sum(a[i][i] for i in range(len(a)))


def perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def det_perm(a: Rows) -> int:
    """Determinant by full permutation expansion."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def minor(a: Rows, rows: tuple[int, ...], cols: tuple[int, ...]) -> Rows:
    return [[a[i][j] for j in cols] for i in rows]


def compound_perm(a: Rows, i: int) -> Rows:
    """Compound matrix with every minor evaluated by permutation expansion."""
    subsets = list(combinations(range(len(a)), i))
    return [[det_perm(minor(a, r, c)) for c in subsets] for r in subsets]


def poly_mul_trunc(p: list, q: list, n: int) -> list:
    """Product of coefficient lists truncated to degree n."""
    out = [0] * (n + 1)
    for i, pi in enumerate(p[: n + 1]):
        if pi == 0:
            continue
        for j, qj in enumerate(q[: n + 1 - i]):
            out[i + j] += pi * qj
    return out


def char_coeffs_perm(a: Rows) -> list[int]:
    """Coefficients a_1..a_r of det(1 + t*a) by permutation expansion.

    Each matrix entry becomes the linear polynomial delta_ij + t*a_ij and
    the determinant is expanded over all permutations with exact
    polynomial arithmetic.
    """
    n = len(a)
    total = [0] * (n + 1)
    for perm in permutations(range(n)):
        term = [perm_sign(perm)]
        for i in range(n):
            term = poly_mul_trunc(term, [int(i == perm[i]), a[i][perm[i]]], n)
        for d in range(len(term)):
            total[d] += term[d]
    assert total[0] == 1
    return total[1:]


def series_traces(coeffs: list[int], n_max: int) -> list[Fraction]:
    """Traces from characteristic coefficients via -t*P'(t)/P(t).

    P(t) = det(1 - t*f) = sum_n (-1)^n a_n t^n; the quotient's n-th
    coefficient is tr(f^n).  Formal power series division over Q.
    """
    r = len(coeffs)
    p = [Fraction(1)] + [Fraction(-1) ** n * coeffs[n - 1] for n in range(1, r + 1)]
    p += [Fraction(0)] * max(0, n_max + 1 - len(p))
    numer = [Fraction(0)] + [-n * p[n] for n in range(1, n_max + 1)]
    quot = [Fraction(0)] * (n_max + 1)
    for n in range(n_max + 1):
        acc = numer[n]
        for i in range(1, n + 1):
            acc -= p[i] * quot[n - i]
        quot[n] = acc
    return quot[1 : n_max + 1]


def witt_product_coeffs(witt: list, n_max: int) -> list:
    """Coefficients a_1..a_{n_max} of the product prod_n (1 - x_n t^n).

    The signed product expands to sum (-1)^m a_m t^m, so a_m is recovered
    as (-1)^m times the raw coefficient.
    """
    series = [1] + [0] * n_max
    for n, x in enumerate(witt[:n_max], start=1):
        series = poly_mul_trunc(series, [1] + [0] * (n - 1) + [-x], n_max)
    return [(-1) ** m * series[m] for m in range(1, n_max + 1)]


def ghost_by_definition(witt: list, n_max: int) -> list:
    """b_n = sum of d * x_d^(n/d) over every d <= n with n % d == 0."""
    return [
        sum(d * witt[d - 1] ** (n // d) for d in range(1, min(n, len(witt)) + 1) if n % d == 0)
        for n in range(1, n_max + 1)
    ]


def witt_by_definition(ghosts: list) -> list[Fraction]:
    """x_n = (b_n - sum of d * x_d^(n/d) over d < n with n % d == 0) / n, over Q."""
    witt: list[Fraction] = []
    for n, b in enumerate(ghosts, start=1):
        rest = b - sum(d * witt[d - 1] ** (n // d) for d in range(1, n) if n % d == 0)
        witt.append(Fraction(rest) / n)
    return witt


def newton_by_definition(traces: list) -> list[Fraction]:
    """a_n = (sum of (-1)^(i-1) * a_(n-i) * b_i over every i = 1..n) / n, a_0 = 1, over Q."""
    coeffs = [Fraction(1)]
    for n in range(1, len(traces) + 1):
        acc = sum((-1) ** (i - 1) * coeffs[n - i] * traces[i - 1] for i in range(1, n + 1))
        coeffs.append(acc / n)
    return coeffs[1:]


def sieve_primes(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return [p for p, f in enumerate(flags) if f]


def character_violations(order: int, values: list[int], primes: list[int], k_max: int):
    """Brute-force congruence failures value(p^k mod m) vs value(p^(k-1) mod m)."""
    bad = []
    for p in primes:
        for k in range(1, k_max + 1):
            lhs = values[pow(p, k, order)]
            rhs = values[pow(p, k - 1, order)]
            if (lhs - rhs) % p**k != 0:
                bad.append((p, k))
    return bad


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of n, parts descending, in reverse lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(min(n, largest), 0, -1) for rest in partitions(n - k, k)]


@cache
def murnaghan_nakayama(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """The irreducible character chi^shape of S_n at a permutation of the given cycle type.

    On the beta-set {shape_i + m - i} of an m-part shape, removing a rim hook of length r
    moves one bead b to the empty position b - r, with sign (-1)^(beads strictly between);
    the rule sums over those moves for the first cycle (Sagan, The Symmetric Group, §4.10).
    """
    if not cycle_type:
        return 1
    r, rest, m = cycle_type[0], cycle_type[1:], len(shape)
    beta = {part + m - 1 - i for i, part in enumerate(shape)}
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            moved = sorted(beta - {b} | {b - r}, reverse=True)
            smaller = tuple(x - (m - 1 - i) for i, x in enumerate(moved))
            sign = (-1) ** sum(b - r < c < b for c in beta)
            total += sign * murnaghan_nakayama(tuple(x for x in smaller if x), rest)
    return total


JSON_SAFE_INT = 2**53 - 1


def json_int(value: int):
    """An integer as JSON would hold it exactly: a literal within 2^53 - 1, else a string."""
    return value if -JSON_SAFE_INT <= value <= JSON_SAFE_INT else str(value)


def json_scalar(value):
    """An int or Fraction through Fraction: json_int when integral, else "p/q"."""
    q = Fraction(value)
    return json_int(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def report_json_by_rows(report) -> dict:
    """A congruence report's JSON object, each row encoded on its own."""
    out = {
        "overall": all(row.passed for row in report.checks),
        "checks": [
            {
                "n": json_int(row.n),
                "p": json_int(row.p),
                "k": row.k,
                "lhs": json_int(row.lhs),
                "rhs": json_int(row.rhs),
                "modulus": json_int(row.modulus),
                "pass": row.passed,
            }
            for row in report.checks
        ],
        "policy": {key: json_int(v) if isinstance(v, int) else v for key, v in report.policy.items()},
    }
    if report.witness is not None:
        out["witness"] = [json_scalar(x) for x in report.witness]
    return out


def report_text_by_rows(report) -> str:
    """A congruence report's text table, built row by row: every cell converted
    where it appears, each column right-aligned to its widest cell."""
    if report.policy.get("kind") == "trace-sequence":
        table = [("n", "p^k", "b_n", "b_{n/p}", "diff", "verdict")]
    else:
        table = [("n", "p^k", "lhs", "rhs", "diff", "verdict")]
    for row in report.checks:
        verdict = "PASS" if row.passed else "FAIL"
        table.append((str(row.n), f"{row.p}^{row.k}", str(row.lhs), str(row.rhs), str(row.lhs - row.rhs), verdict))
    widths = [max(len(line[col]) for line in table) for col in range(6)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in table]
    failed = sum(1 for row in report.checks if not row.passed)
    lines.append("overall: " + (f"FAIL ({failed} of {len(report.checks)} checks)" if failed else "PASS"))
    if report.policy:
        parts = []
        for key, value in report.policy.items():
            if isinstance(value, dict):
                value = "{" + ",".join(f"{k}:{v}" for k, v in value.items()) + "}"
            parts.append(f"{key}={value}")
        lines.append("policy: " + " ".join(parts))
    if report.witness is not None:
        lines.append("witness: " + ",".join(map(str, report.witness)))
    return "\n".join(lines)


def parse_token_by_token(tokens, convert=int, what: str = "integer") -> tuple:
    """Plain decimal tokens, each tested on its own: no "_", ASCII only, and
    ``convert`` must take it.  The first bad token raises ValueError."""
    out = []
    for token in tokens:
        try:
            if "_" in token or not token.isascii():
                raise ValueError
            out.append(convert(token))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"invalid {what} {token[:40]!r}") from None
    return tuple(out)


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a
