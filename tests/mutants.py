"""Mutation check: every listed mutant of ``src/`` must fail its killing test file.

    python3 tests/mutants.py

Each mutant is (file under ``src/tracewitt``, old text, new text, test file).
For each one the script copies ``src/`` to a temporary directory, replaces the
old text, which must occur exactly once, and runs ``pytest -x -q`` on the test
file with that copy on ``PYTHONPATH``.  It exits 1 if a mutant survives (its
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
TWO_BY_TWO = "entries[a][c] * entries[b][d] - entries[a][d] * entries[b][c]"


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    test: str


MUTANTS = (
    # the closed 2x2 minor: a sign, the order of its terms, one index
    Mutant("matrices.py", TWO_BY_TWO, TWO_BY_TWO.replace(" - ", " + "), "test_matrices.py"),
    Mutant(
        "matrices.py",
        TWO_BY_TWO,
        "entries[a][d] * entries[b][c] - entries[a][c] * entries[b][d]",
        "test_matrices.py",
    ),
    Mutant("matrices.py", TWO_BY_TWO, TWO_BY_TWO.replace("entries[b][c]", "entries[c][b]"), "test_matrices.py"),
    # the cofactor sign of the expansion along the first row
    Mutant(
        "matrices.py",
        "total - term if j % 2 else total + term",
        "total + term if j % 2 else total - term",
        "test_matrices.py",
    ),
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
)


def apply(mutant: Mutant, src: Path) -> None:
    """Write ``mutant`` into the copy of ``src/tracewitt`` under ``src``."""
    path = src / "tracewitt" / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {found} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def killed(mutant: Mutant) -> bool:
    """Whether a test in the mutant's test file fails against a mutated copy of ``src/``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src)
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(ROOT / "tests" / mutant.test)],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
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
