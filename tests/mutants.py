"""Mutation check: every listed mutant of ``src/`` or ``tests/`` must fail its killing test file.

    python3 tests/mutants.py

Each mutant is (file, old text, new text, test file).  The file is a name under
``src/tracewitt``, or a path from the repository root such as ``tests/oracles.py``.
For each one the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, replaces the old text in the copy, where it must occur
exactly once, and runs ``pytest -x -q`` there on the copied test file with the
copied ``src/`` on ``PYTHONPATH``.  It exits 1 if a mutant survives (its
test file passes) or if an old text does not occur exactly once, so a
refactor of a listed kernel must update its mutants here; it stops with an
error if pytest exits otherwise than pass (0) or fail (1).  Needs pytest and
hypothesis, as the test suite does; it is a CI step, not part of the suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DROPS = "[(c, below[cols[:j] + cols[j + 1 :]], j % 2) for j, c in enumerate(cols)]"
EXPANDED = "row, tail, minors = entries[rows[0]], tails[below[rows[1:]]], []"
PARSE_ARGS = r'''args = parser.parse_args([" " + a if re.match(r"-\.?\d", a) else a for a in argv])'''
X_MOD_CHI = "x = _mul_mod([0, 1], [1], signed)  # reduced like every later power: at dim 1 the constant b_1"
TOEPLITZ = "toeplitz = [1, -row[k]] + [0] * k"
KRYLOV = "col = [sum(map(mul, r, col)) for r in block]"
ROOT_POWERING = "powered = _traces_to_elementary(_elementary_to_traces(coeffs, len(coeffs) * p)[p - 1 :: p])"
SPRP_CHAIN = "if x != 1 and n - 1 not in accumulate(repeat(n, s - 1), lambda y, m: y * y % m, initial=x):"
JSON_INT = """f'"{e}"' if isinstance(e := encode_int(value), str) else str(e)"""
ROW_PASS = '"pass":{"true" if r.passed else "false"}'
ROW_VALUES = '"lhs":{m[r.lhs]},"rhs":{m[r.rhs]}'
RIM_HOOK = "sign = (-1) ** sum(b - r < c < b for c in beta)"
VERDICT = '''verdict = "PASS" if report.overall else f"FAIL ({columns[5].count('FAIL')} of {len(rows)} checks)"'''


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    test: str


MUTANTS = (
    # the minor table: the cofactor parity, the row it expands along, the rows of the minor below
    Mutant("matrices.py", DROPS, DROPS.replace("j % 2)", "1 - j % 2)"), "test_matrices.py"),
    Mutant("matrices.py", EXPANDED, EXPANDED.replace("rows[0]", "rows[-1]"), "test_matrices.py"),
    Mutant("matrices.py", EXPANDED, EXPANDED.replace("rows[1:]", "rows[:-1]"), "test_matrices.py"),
    # Berkowitz skips a column only when all of it is zero
    Mutant("matrices.py", "if any(col):", "if all(col):", "test_matrices.py"),
    # Newton's window of numerators one term short
    Mutant("newton.py", "count - n + last + 1]", "count - n + last]", "test_newton.py"),
    # the smallest-prime-factor sieve must run from isqrt(limit) down
    Mutant(
        "witt.py",
        "range(isqrt(max(limit, 0)), 1, -1)",
        "range(2, isqrt(max(limit, 0)) + 1)",
        "test_congruences.py",
    ),
    # the cross-check raises f^(p^(k-1)) to p, not f
    Mutant("congruences.py", "mat_pow(low, p)", "mat_pow(f, p)", "test_congruences.py"),
    # a field of two values holds one token too many; the fault's position counts the commas up to it
    Mutant("cli.py", 'len(tokens) > text.count(",") + 1', 'len(tokens) > text.count(",") + 2', "test_cli.py"),
    Mutant("cli.py", "wrapped.count(',', 0, bad.start() + 1)", "wrapped.count(',', 0, bad.start())", "test_cli.py"),
    # main shields a positional that starts with "-." from argparse, as it does "-2" and "-1/2"
    Mutant("cli.py", PARSE_ARGS, PARSE_ARGS.replace(r"-\.?\d", r"-\d"), "test_cli.py"),
    # square-and-multiply: the top bit is the start, and a one bit multiplies by the base
    Mutant("matrices.py", "for bit in bin(n)[3:]:", "for bit in bin(n)[2:]:", "test_matrices.py"),
    Mutant("matrices.py", 'if bit == "1":', 'if bit == "0":', "test_matrices.py"),
    # the matrix check starts from x reduced mod chi, which at dim 1 is a constant
    Mutant(
        "congruences.py",
        X_MOD_CHI,
        X_MOD_CHI.replace("_mul_mod([0, 1], [1], signed)", "[0, 1]"),
        "test_congruences.py",
    ),
    # Berkowitz: the sign of the corner term, the padding of the Toeplitz column, the Krylov update over all of f_k
    Mutant("matrices.py", TOEPLITZ, TOEPLITZ.replace("-row[k]", "row[k]"), "test_matrices.py"),
    Mutant("matrices.py", TOEPLITZ, TOEPLITZ.replace("[0] * k", "[0] * (k - 1)"), "test_matrices.py"),
    Mutant("matrices.py", KRYLOV, KRYLOV.replace("in block]", "in block[1:]]"), "test_matrices.py"),
    # reduction mod chi, root powering's every p-th trace, the row's modulus, the SPRP chain
    Mutant("congruences.py", "prod[-i] += s * top", "prod[-i] -= s * top", "test_congruences.py"),
    Mutant("congruences.py", ROOT_POWERING, ROOT_POWERING.replace("[p - 1 :: p]", "[p :: p]"), "test_congruences.py"),
    Mutant(
        "congruences.py",
        "passed = (lhs - rhs) % modulus == 0",
        "passed = (lhs - rhs) % p == 0",
        "test_congruences.py",
    ),
    Mutant("congruences.py", SPRP_CHAIN, SPRP_CHAIN.replace("n - 1 not in", "n + 1 not in"), "test_congruences.py"),
    # a pass at the pseudoprime bound itself is refused, not called prime
    Mutant("congruences.py", "if n >= SPRP_BOUND:", "if n > SPRP_BOUND:", "test_congruences.py"),
    # the Witt sieve's first multiple of n is 2n, at index 2n - 1; each running term carries its d (or n)
    Mutant(
        "witt.py",
        "for m in range(2 * n - 1, len(residues), n):",
        "for m in range(2 * n, len(residues), n):",
        "test_witt.py",
    ),
    Mutant("witt.py", "term = d * x", "term = x", "test_witt.py"),
    Mutant("witt.py", "term = n * x", "term = x", "test_witt.py"),
    # Newton's identities: the n * e_n term
    Mutant("newton.py", "acc += n * signed[n - 1]", "acc += signed[n - 1]", "test_newton.py"),
    # the report counts its failing rows
    Mutant("cli.py", VERDICT, VERDICT.replace("count('FAIL')", "count('PASS')"), "test_reports.py"),
    # the JSON writer: 2^53 - 1 is the last literal, a string is quoted, a row's verdict is its own
    Mutant("matrices.py", "value <= _JSON_SAFE_INT else", "value < _JSON_SAFE_INT else", "test_reports.py"),
    Mutant("cli.py", JSON_INT, JSON_INT.replace("""f'"{e}"'""", "str(e)"), "test_reports.py"),
    Mutant(
        "cli.py",
        ROW_PASS,
        ROW_PASS.replace('"true" if r.passed else "false"', '"false" if r.passed else "true"'),
        "test_reports.py",
    ),
    # ... and its lhs, rhs and modulus are its own
    Mutant("cli.py", ROW_VALUES, '"lhs":{m[r.rhs]},"rhs":{m[r.lhs]}', "test_reports.py"),
    Mutant("cli.py", '"modulus":{m[r.modulus]}', '"modulus":{m[r.p]}', "test_reports.py"),
    # the one JSON printer writes every line compactly
    Mutant("cli.py", 'separators=(",", ":")', 'separators=(", ", ":")', "test_reports.py"),
    # the Murnaghan-Nakayama oracle: a rim hook's height counts the beads strictly between its ends
    Mutant("tests/oracles.py", RIM_HOOK, RIM_HOOK.replace("c < b", "c <= b"), "test_oracles.py"),
)


def apply(mutant: Mutant, copy: Path) -> None:
    """Write ``mutant`` into the copy of the repository at ``copy``."""
    path = copy / mutant.file if "/" in mutant.file else copy / "src" / "tracewitt" / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {found} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def killed(mutant: Mutant) -> bool:
    """Whether a test in the mutant's test file fails against a mutated copy of ``src/`` and ``tests/``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(copy / "tests" / mutant.test)],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
        )
        if run.returncode not in (0, 1):  # 1: a test failed; anything else: pytest could not run them
            raise RuntimeError(f"pytest exited {run.returncode} on {mutant.test}:\n{run.stdout[-2000:]}")
        return run.returncode == 1


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        try:
            verdict = "killed" if killed(mutant) else "SURVIVED"
        except ValueError as exc:
            verdict = f"STALE ({exc})"
        survivors += verdict != "killed"
        seconds = time.perf_counter() - start
        print(f"{verdict:8}  {seconds:4.1f} s  {mutant.file}: {mutant.old!r} -> {mutant.new!r}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
