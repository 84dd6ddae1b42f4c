"""Congruences satisfied by every integer matrix, checked on live examples.

tr(f^(p^k)) == tr(f^(p^(k-1))) (mod p^k) generalizes Fermat's little
theorem from numbers to matrices; widening the gap trades modulus for
reach.  The same law holds coefficientwise for the full characteristic
polynomial, which the compound (exterior power) matrix construction
reproves by reducing each coefficient to a trace.
"""

from tracewitt import (
    char_poly_coeffs,
    check_exterior_congruence,
    check_matrix_congruences,
    compound_matrix,
    exterior_via_compound,
    random_matrix,
)

f = random_matrix(4, 3, seed=42)
print("A random 4x4 matrix with entries in [-3, 3]:")
for row in f.entries:
    print(f"  {list(row)}")
print()

print("Power-trace grid for p = 2, all gaps j <= k <= 3:")
grid = check_matrix_congruences(f, 2, 3)
for row in grid.checks:
    print(
        f"  tr(f^{row.n}) == tr(f^{row.n // row.p ** row.k}) (mod {row.modulus}):"
        f"  {row.lhs} vs {row.rhs}  diff {row.lhs - row.rhs}"
    )
print(f"  overall: {grid.overall}")
print()

print("Characteristic coefficients obey the same congruence; row i compares")
print("the i-th coefficient of det(1 + t f^(p^k)) against p^(k-1):")
ext = check_exterior_congruence(f, 3, 1)
for row in ext.checks:
    print(f"  a_{row.n}: {row.lhs} == {row.rhs} (mod {row.modulus})  diff {row.lhs - row.rhs}")
print(f"  overall: {ext.overall}")
print()

print("The exterior-power route computes the identical rows from minors: a_i of")
print("f^(p^k) is the trace of its i-th compound, the sum of its principal i x i minors:")
via = exterior_via_compound(f, 3, 1)
assert [(r.lhs, r.rhs) for r in via.checks] == [(r.lhs, r.rhs) for r in ext.checks]
print("  identical, row for row (asserted)")
print()

wedge = compound_matrix(f, 2)
print(f"For the record, the 2nd compound of f is {wedge.dim}x{wedge.dim} and")
print(f"its trace {wedge.trace()} equals the coefficient a_2 = {char_poly_coeffs(f)[1]}.")
