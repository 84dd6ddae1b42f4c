"""Acceptance gate: every criterion as one test, with its stated budget.

Each test prints one PASS line (visible under ``pytest -v`` as the test
verdict and under ``-s`` as a summary with timing).  Corpora are seeded, so
failures reproduce exactly.
"""

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

from tracewitt import (
    CharacterTable,
    SplitMix64,
    check_character,
    check_exterior_congruence,
    check_matrix_congruences,
    check_trace_sequence,
    coeffs_to_witt,
    elementary_to_traces,
    exterior_via_compound,
    ghost_from_witt,
    lemma6_verify,
    prime_power_split,
    random_matrix,
    synthesize,
    trace_sequence,
    traces_to_elementary,
    witt_from_ghost,
    witt_to_coeffs,
)
from tracewitt.cli import main

from .oracles import character_violations, sieve_primes


def report(name: str, elapsed: float, budget: float | None = None) -> None:
    window = f" (budget {budget:g} s)" if budget is not None else ""
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.3f} s{window}")


def quiet_main(argv) -> int:
    with redirect_stdout(io.StringIO()):
        return main(argv)


def test_criterion_01_intro_congruence_cli():
    # warm the import/dispatch path once, then time the two calls
    quiet_main(["check-traces", "7"])
    start = time.perf_counter()
    bad = quiet_main(["check-traces", "0,1"])
    good = quiet_main(["check-traces", "1,3"])
    elapsed = time.perf_counter() - start
    assert bad == 1
    assert good == 0
    failing = check_trace_sequence([0, 1]).failures()
    assert [(r.n, r.p, r.k) for r in failing] == [(2, 2, 1)]
    assert elapsed < 0.010, f"took {elapsed:.4f} s"
    report("1 intro congruence", elapsed, 0.010)


def test_criterion_02_necessity_500_matrices():
    start = time.perf_counter()
    rng = SplitMix64(2024)
    violations = 0
    for i in range(500):
        dim = 1 + i % 6
        f = random_matrix(dim, 4, rng.next_u64())
        if not check_trace_sequence(trace_sequence(f, 24)).overall:
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10, f"took {elapsed:.2f} s"
    report("2 necessity 500 matrices", elapsed, 10)


def sample_trace_sequence(rng: SplitMix64, length: int, bound: int = 20) -> list[int]:
    """Rejection-sample a vector in [-bound, bound]^length until it passes.

    Checks run per position with early exit, so almost all candidates die
    after two draws; precomputing the congruence plan keeps a length-8 hit
    (acceptance odds 1/40320) affordable.
    """
    plan = [
        [(n // p - 1, p**k) for p, k, _ in prime_power_split(n)]
        for n in range(1, length + 1)
    ]
    while True:
        b: list[int] = []
        ok = True
        for n in range(1, length + 1):
            b.append(rng.integer(-bound, bound))
            for rhs_index, modulus in plan[n - 1]:
                if (b[-1] - b[rhs_index]) % modulus:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return b


def test_criterion_03_sufficiency_200_sequences():
    start = time.perf_counter()
    rng = SplitMix64(777)
    corpus: list[tuple[int, ...]] = []
    for i in range(150):  # matrix-generated, lengths 2..8
        dim = 1 + i % 6
        length = 2 + i % 7
        corpus.append(trace_sequence(random_matrix(dim, 4, rng.next_u64()), length))
    quotas = {2: 10, 3: 10, 4: 10, 5: 8, 6: 5, 7: 4, 8: 3}
    for length, count in quotas.items():  # rejection-sampled vectors
        for _ in range(count):
            corpus.append(tuple(sample_trace_sequence(rng, length)))
    assert len(corpus) == 200
    good = 0
    for b in corpus:
        assert check_trace_sequence(b).overall
        if trace_sequence(synthesize(b), len(b)) == b:
            good += 1
    elapsed = time.perf_counter() - start
    assert good == 200
    assert elapsed < 5, f"took {elapsed:.2f} s"
    report("3 sufficiency 200 sequences", elapsed, 5)


def test_criterion_04_checker_equals_witt_integrality():
    start = time.perf_counter()
    rng = SplitMix64(4096)
    agreements = 0
    for _ in range(1000):
        b = [rng.integer(-10, 10) for _ in range(12)]
        checker = check_trace_sequence(b).overall
        witt = witt_from_ghost(b)
        integral = all(Fraction(x).denominator == 1 for x in witt)
        if checker == integral:
            agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 1000
    report("4 checker == Witt integrality", elapsed)


def test_criterion_05_lemma6_exhaustive():
    start = time.perf_counter()
    checked = 0
    for a in range(-100, 101):
        for p in (2, 3, 5, 7, 11):
            for k in range(1, 5):
                assert lemma6_verify(a, p, k)
                checked += 1
    elapsed = time.perf_counter() - start
    # stated ranges give 201 * 5 * 4 assertions
    assert checked == 4020
    assert elapsed < 2, f"took {elapsed:.2f} s"
    report("5 lemma6 exhaustive", elapsed, 2)


def exterior_corpus():
    rng = SplitMix64(606)
    return [random_matrix(1 + i % 4, 3, rng.next_u64()) for i in range(100)]


def test_criterion_06_exterior_two_paths():
    start = time.perf_counter()
    for f in exterior_corpus():
        for p in (2, 3):
            for k in (1, 2):
                direct = check_exterior_congruence(f, p, k)
                assert direct.overall
                compound = exterior_via_compound(f, p, k)
                assert [(r.lhs - r.rhs) for r in direct.checks] == [
                    (r.lhs - r.rhs) for r in compound.checks
                ]
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.2f} s"
    report("6 exterior two paths", elapsed, 30)


def test_criterion_07_power_trace_grid():
    start = time.perf_counter()
    for f in exterior_corpus():
        report_ = check_matrix_congruences(f, 2, 4)
        assert report_.overall
        assert len(report_.checks) == 10  # all (k, j) with j <= k <= 4
    elapsed = time.perf_counter() - start
    report("7 power trace grid", elapsed)


def test_criterion_08_round_trips():
    start = time.perf_counter()
    rng = SplitMix64(888)
    for _ in range(200):  # traces <-> coefficients, lengths <= 8
        b = tuple(rng.integer(-30, 30) for _ in range(rng.below(9)))
        assert elementary_to_traces(traces_to_elementary(b), len(b)) == b
        a = tuple(rng.integer(-30, 30) for _ in range(rng.below(9)))
        assert traces_to_elementary(elementary_to_traces(a, len(a))) == tuple(map(Fraction, a))
    for _ in range(200):  # coefficients <-> Witt, lengths <= 16
        a = tuple(rng.integer(-30, 30) for _ in range(rng.below(17)))
        assert witt_to_coeffs(coeffs_to_witt(a)) == a
        x = tuple(rng.integer(-30, 30) for _ in range(rng.below(17)))
        assert coeffs_to_witt(witt_to_coeffs(x)) == x
    for _ in range(200):  # Witt <-> ghost, lengths <= 16
        x = tuple(rng.integer(-30, 30) for _ in range(rng.below(17)))
        assert witt_from_ghost(ghost_from_witt(x, len(x))) == tuple(map(Fraction, x))
        b = tuple(rng.integer(-30, 30) for _ in range(rng.below(17)))
        assert ghost_from_witt(witt_from_ghost(b), len(b)) == tuple(map(Fraction, b))
    elapsed = time.perf_counter() - start
    report("8 round trips", elapsed)


def test_criterion_09_character_tables():
    start = time.perf_counter()
    for m in range(2, 25):
        table = CharacterTable(m, (m,) + (0,) * (m - 1))
        assert check_character(table).overall
    # single-entry corruptions of the m = 6 regular table, verdicts against
    # a much deeper brute-force scan (all primes <= 97, k <= 12)
    base = [6, 0, 0, 0, 0, 0]
    deep_primes = sieve_primes(97)
    detected = 0
    breaking = 0
    for position in range(6):
        for wrong in range(-12, 13):
            if wrong == base[position]:
                continue
            values = list(base)
            values[position] = wrong
            breaks = bool(character_violations(6, values, deep_primes, 12))
            verdict = check_character(CharacterTable(6, tuple(values))).overall
            assert verdict == (not breaks), (position, wrong)
            breaking += breaks
            detected += breaks and not verdict
    elapsed = time.perf_counter() - start
    assert breaking > 0 and detected == breaking
    report("9 character tables", elapsed)


def test_criterion_10_fuzz_determinism():
    start = time.perf_counter()
    args = [
        sys.executable, "-m", "tracewitt", "fuzz",
        "--trials", "25", "--dim", "3",
        "--seed", "31337", "--format", "json",
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    elapsed = time.perf_counter() - start
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["ok"] is True
    report("10 fuzz determinism", elapsed)
