"""Integer-valued character tables satisfy trace-style congruences.

Restricted to powers of a single group element g of order m, an
integer-valued character behaves like a trace sequence:
chi(g^(p^k)) == chi(g^(p^(k-1))) (mod p^k).  The checker covers every
prime p <= m with an exponent bound that provably exhausts the infinite
family: once p^k exceeds twice the largest value, congruence means
equality, and the exponents p^k mod m repeat periodically.

The paper's own example is the symmetric group; the last section runs
every irreducible character of S_4 on the powers of every element.
"""

from math import gcd, lcm

from tracewitt import CharacterTable, check_character

m = 6
regular = CharacterTable(m, (m,) + (0,) * (m - 1))
print(f"Regular representation of a cyclic group of order {m}:")
print(f"  values {regular.values}")
report = check_character(regular)
print(f"  checks run: {len(report.checks)}, overall: {report.overall}")
print(f"  exponent bounds used: {report.policy['k_bounds']}")
print()

print("Corrupt one entry and the congruences object.  Setting chi(g^5) = 1")
print("(the true value is 0) breaks the p = 5 family:")
corrupted = CharacterTable(m, (6, 0, 0, 0, 0, 1))
report = check_character(corrupted)
for row in report.failures():
    print(
        f"  chi(g^{row.n % m}) == chi(g^{row.n // row.p % m}) (mod {row.modulus}):"
        f"  {row.lhs} vs {row.rhs}  VIOLATED"
    )
print(f"  overall: {report.overall}")
print()

print("Not every corruption is visible: chi(g^0) never occurs as p^k mod 6")
print("(that would need a prime divisible by both 2 and 3), so the identity")
print("column is unconstrained by this family of congruences:")
shifted = CharacterTable(m, (7, 0, 0, 0, 0, 0))
print(f"  values {shifted.values} -> overall {check_character(shifted).overall}")
print()

print("The trivial character passes with every difference equal to zero:")
trivial = CharacterTable(8, (1,) * 8)
report = check_character(trivial)
print(f"  all diffs zero: {all(r.lhs == r.rhs for r in report.checks)}")
print()

# The character table of S_4 (rows: irreducibles by partition; columns: cycle types).
classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
s4 = {
    "(4)": (1, 1, 1, 1, 1),
    "(3,1)": (3, 1, -1, 0, -1),
    "(2,2)": (2, 0, 2, -1, 0),
    "(2,1,1)": (3, -1, -1, 0, 1),
    "(1,1,1,1)": (1, -1, 1, 1, -1),
}


def power_class(cycle_type, e):
    """The cycle type of g^e: each l-cycle of g splits into gcd(l, e) cycles of length l / gcd(l, e)."""
    return tuple(sorted((l // gcd(l, e) for l in cycle_type for _ in range(gcd(l, e))), reverse=True))


def table(chi, cycle_type):
    """e -> chi(g^e) for g of the given cycle type, of order lcm of its cycle lengths."""
    order = lcm(*cycle_type)
    return CharacterTable(order, tuple(chi[classes.index(power_class(cycle_type, e))] for e in range(order)))


print("The paper's example, the symmetric group S_4: every irreducible chi on the")
print("powers of an element g of every cycle type, e -> chi(g^e):")
print(f"  {'cycle types':<14} {classes}")
for name, chi in s4.items():
    verdicts = [check_character(table(chi, c)).overall for c in classes]
    print(f"  chi^{name:<10} {str(chi):<34} all {len(verdicts)} tables pass: {all(verdicts)}")
print()

four_cycle = table(s4["(3,1)"], (4,))
print(f"chi^(3,1) on a 4-cycle g: values {four_cycle.values}.  Setting chi(g^2) = 1")
print("(the true value is -1) breaks the p = 2 family:")
corrupted = CharacterTable(4, (3, -1, 1, -1))
report = check_character(corrupted)
for row in report.failures():
    print(
        f"  chi(g^{row.n % 4}) == chi(g^{row.n // row.p % 4}) (mod {row.modulus}):"
        f"  {row.lhs} vs {row.rhs}  VIOLATED"
    )
print(f"  overall: {report.overall}")
