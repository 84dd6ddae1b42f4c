"""The three workloads: seeded passes of tasks and their independent checks.

A workload is a *pass*: a fixed list of task specs whose kinds and sizes
come from a grid, so every seed runs the same mix of kinds and sizes and only
the random entries and the order differ.  ``generate`` runs in set-up and
uses only ``ref.py``.  ``bind`` turns specs into :class:`Task` objects
that reach tracewitt through its module attributes at call time, so the
wrappers of the traced run see every call.

Every check compares against answers the package cannot change along with
the code it measures: the generating coefficients for sequences, and the
benchmark's own arithmetic modulo Q for matrices.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import pickle
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from ref import (
    Q,
    SplitMix64,
    charpoly_matches,
    divisor_table,
    elementary_after_bump,
    mat_mod,
    det_mod,
    pow_mod,
    prime_power_parts,
    random_coeffs,
    random_rows,
    trace_mod,
    traces_from_coeffs,
    witt_from_traces,
)

MAX_LENGTH = 400
_DIVS = divisor_table(MAX_LENGTH)


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    degree: int = 0  # deg det(1 + t*f) of the sequence a synthesize task gets
    verified: bytes | None = None  # digest of the last output that passed the check

    def passes(self, out) -> bool:
        """Check an output; one with the last verified output's digest passes as is.

        Only a digest is kept, so the outputs themselves do not count towards
        the run's peak memory.
        """
        digest = _digest(out)
        if digest == self.verified:
            return True
        ok = self.check(out)
        if ok:
            self.verified = digest
        return ok


def _digest(out) -> bytes:
    return hashlib.blake2b(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)).digest()


def _values_digest(values) -> bytes:
    """Digest of a sequence of exact numbers; an int and an equal Fraction agree."""
    return _digest([(v.numerator, v.denominator) for v in values])


@dataclass
class CliResult:
    code: int
    out: str
    err: str


# How many tasks of each kind a pass holds follows one rule on every
# workload: each kind gets about the same share of the pass's busy time, so a
# given relative speed-up of any one kind moves tasks_per_s by the same
# amount.  A kind's count is the workload's time per kind (stated above its
# plan) divided by the kind's mean latency over its grid, measured at the
# commit that defined the benchmark; NOTES.md lists the figures, and every
# run prints the busy share each kind actually got.  Where one task per cell
# of a kind's grid already takes about that time, the kind runs its grid once.


def _plan(rng: SplitMix64, entries) -> list[tuple[str, int, tuple]]:
    """(kind, index within kind, grid cell) for one pass, shuffled.

    Cells cycle through each kind's grid, so the size mix is the same for
    every seed.  Grids list the size that matters most fastest, so a count
    that is not a whole number of grids still covers every size.
    """
    out = []
    for kind, count, grid in entries:
        out += [(kind, i, grid[i % len(grid)]) for i in range(count)]
    return rng.shuffle(out)


# --- shared reference answers ----------------------------------------------


def _padded(coeffs, length: int) -> list[int]:
    return list(coeffs[:length]) + [0] * max(0, length - len(coeffs))


# Integers grow by GROWTH bits per term: coefficient vectors are redrawn until
# the first PROBE traces grow at that rate, so every seed gets integers of the
# same size and big-integer cost does not vary with the seed.
GROWTH = (0.9, 1.1)
PROBE = 80


def _sequence(rng: SplitMix64, degree: int, length: int, corrupt: bool) -> dict:
    while True:
        coeffs = random_coeffs(rng, degree)
        rate = max(abs(v) for v in traces_from_coeffs(coeffs, PROBE)).bit_length() / PROBE
        if GROWTH[0] <= rate <= GROWTH[1]:
            break
    b = traces_from_coeffs(coeffs, length)
    pos = rng.integer(1, length) if corrupt else 0
    if pos:
        b[pos - 1] += 1
    return {"coeffs": coeffs, "b": b, "pos": pos}


def _trace_rows(b: list[int]) -> list[tuple]:
    """(n, p, k, lhs, rhs, modulus, passed) rows of the trace-sequence check."""
    rows = []
    for n in range(2, len(b) + 1):
        for p, k in prime_power_parts(n):
            lhs, rhs, mod = b[n - 1], b[n // p - 1], p**k
            rows.append((n, p, k, lhs, rhs, mod, (lhs - rhs) % mod == 0))
    return rows


def _rows_of(report) -> list[tuple]:
    return [(r.n, r.p, r.k, r.lhs, r.rhs, r.modulus, r.passed) for r in report.checks]


def _witt_ok(out, seq: dict) -> bool:
    return list(out) == witt_from_traces(seq["b"], _DIVS)


def _elementary_ok(out, seq: dict) -> bool:
    length, pos = len(seq["b"]), seq["pos"]
    if pos:
        return list(out) == elementary_after_bump(seq["coeffs"], pos, length)
    return list(out) == _padded(seq["coeffs"], length)


def _witness_ok(entries, seq: dict) -> bool:
    """A synthesized matrix reproduces b_1, b_2 exactly and det(1 + t*f) mod Q."""
    dim = len(entries)
    if dim < len(seq["coeffs"]) or any(len(row) != dim for row in entries):
        return False
    b = seq["b"]
    tr1 = sum(entries[i][i] for i in range(dim))
    tr2 = sum(entries[i][j] * entries[j][i] for i in range(dim) for j in range(dim))
    return tr1 == b[0] and tr2 == b[1] and charpoly_matches(seq["coeffs"], mat_mod(entries))


def _exterior_rows_ok(rows, rows_mod, p: int, k: int) -> bool:
    """Rows i = 1..r of det(1 + t*f^(p^k)) against det(1 + t*f^(p^(k-1))) mod p^k."""
    dim, mod = len(rows_mod), p**k
    if [(r[0], r[1], r[2], r[5], r[6]) for r in rows] != [(i, p, k, mod, True) for i in range(1, dim + 1)]:
        return False
    return charpoly_matches([r[3] for r in rows], pow_mod(rows_mod, p**k)) and charpoly_matches(
        [r[4] for r in rows], pow_mod(rows_mod, p ** (k - 1))
    )


# --- matrix workload -------------------------------------------------------

DIMS = (4, 6, 8, 10, 12)
EXTERIOR_PK = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))
COMPOUND_DIMS = (5, 6, 7)

# About 0.33 s of busy time per kind and pass; exterior_via_compound runs its
# three cells once, which is less than that.  Each exterior_via_compound task
# brings a check_exterior_congruence task on the same input, counted in the
# latter's share.
MATRIX_PLAN = (
    ("trace_sequence", 12, [(d, n) for n in (100, 200, 300) for d in (4, 6, 8, 10)]),
    ("char_poly_coeffs", 229, [(d,) for d in range(4, 13)]),
    ("check_matrix_congruences", 74, [(d, p, k) for p, k in ((2, 9), (3, 6), (5, 4), (7, 3)) for d in DIMS]),
    ("check_exterior_congruence", 76, [(d, p, k) for p, k in EXTERIOR_PK for d in DIMS]),
    ("exterior_via_compound", 3, [(5, 2, 2), (6, 5, 1), (7, 3, 1)]),
    ("compound_matrix", 63, [(d, i) for i in (2, 3, 4) for d in COMPOUND_DIMS]),
)


def matrix_generate(rng: SplitMix64) -> list[dict]:
    specs = []
    for kind, _, cell in _plan(rng, MATRIX_PLAN):
        spec = {"kind": kind, "cell": cell, "rows": random_rows(rng, cell[0])}
        if kind == "trace_sequence":
            n = cell[1]
            spec["spots"] = sorted({1, 2, n, rng.integer(3, n), rng.integer(3, n)})
        elif kind == "compound_matrix":
            # Every principal minor (the diagonal) and three other entries are checked.
            count = len(list(combinations(range(cell[0]), cell[1])))
            spec["spots"] = [(rng.below(count), rng.below(count)) for _ in range(3)]
        specs.append(spec)
        if kind == "exterior_via_compound":
            # The characteristic-polynomial route on the same input, to compare row for row.
            specs.append({**spec, "kind": "check_exterior_congruence"})
    return specs


def matrix_bind(specs: list[dict], tw) -> list[Task]:
    exterior_seen: dict = {}  # (rows, p, k) -> rows of whichever route was verified first
    tasks = []
    for spec in specs:
        kind, cell, rows = spec["kind"], spec["cell"], spec["rows"]
        f = tw.IntMatrix.from_rows(rows)
        rows_mod = mat_mod(rows)
        if kind == "trace_sequence":
            n, spots = cell[1], spec["spots"]

            def check(out, n=n, spots=spots, rows_mod=rows_mod):
                return len(out) == n and all(
                    (out[s - 1] - trace_mod(pow_mod(rows_mod, s))) % Q == 0 for s in spots
                )

            tasks.append(Task(kind, lambda f=f, n=n: tw.trace_sequence(f, n), check))
        elif kind == "char_poly_coeffs":

            def check(out, rows_mod=rows_mod):
                return len(out) == len(rows_mod) and charpoly_matches(out, rows_mod)

            tasks.append(Task(kind, lambda f=f: tw.char_poly_coeffs(f), check))
        elif kind == "check_matrix_congruences":
            p, k_max = cell[1], cell[2]

            def check(out, rows_mod=rows_mod, p=p, k_max=k_max):
                powers = [rows_mod]
                for _ in range(k_max):
                    powers.append(pow_mod(powers[-1], p))
                t = [trace_mod(m) for m in powers]
                want = [
                    (p**k, p, k - j + 1, t[k], t[k - j], p ** (k - j + 1), True)
                    for k in range(1, k_max + 1)
                    for j in range(1, k + 1)
                ]
                got = [(n, q, e, lhs % Q, rhs % Q, m, ok) for n, q, e, lhs, rhs, m, ok in _rows_of(out)]
                return out.overall and got == want

            tasks.append(Task(kind, lambda f=f, p=p, k=k_max: tw.check_matrix_congruences(f, p, k), check))
        elif kind == "compound_matrix":
            i, spots = cell[1], spec["spots"]

            def check(out, rows=rows, i=i, spots=spots):
                subsets = list(combinations(range(len(rows)), i))
                if out.dim != len(subsets):
                    return False
                for r, c in [(j, j) for j in range(len(subsets))] + spots:
                    minor = [[rows[a][b] % Q for b in subsets[c]] for a in subsets[r]]
                    if (out.entries[r][c] - det_mod(minor)) % Q:
                        return False
                return True

            tasks.append(Task(kind, lambda f=f, i=i: tw.compound_matrix(f, i), check))
        else:  # the two exterior routes, which must agree row for row
            p, k = cell[1], cell[2]
            key = (rows, p, k)

            def check(out, rows_mod=rows_mod, p=p, k=k, key=key):
                got = _rows_of(out)
                if not (out.overall and _exterior_rows_ok(got, rows_mod, p, k)):
                    return False
                return exterior_seen.setdefault(key, got) == got

            if kind == "exterior_via_compound":
                run = lambda f=f, p=p, k=k: tw.exterior_via_compound(f, p, k)  # noqa: E731
            else:
                run = lambda f=f, p=p, k=k: tw.check_exterior_congruence(f, p, k)  # noqa: E731
            tasks.append(Task(kind, run, check))
    return tasks


# --- sequence workload -----------------------------------------------------

LENGTHS = (100, 175, 250, 325, 400)
DEGREES = tuple(range(2, 11))
SEQ_GRID = [(n, d) for d in DEGREES for n in LENGTHS]

# About 0.8 s of busy time per kind and pass.
SEQUENCE_PLAN = (
    ("check_trace_sequence", 65, SEQ_GRID),
    ("traces_to_elementary", 4, [(175, 4), (250, 6), (325, 8), (400, 10)]),
    ("witt_from_ghost", 78, SEQ_GRID),
    ("coeffs_to_witt", 142, SEQ_GRID),
    ("elementary_to_traces", 1460, SEQ_GRID),
    ("witt_to_coeffs", 132, SEQ_GRID),
    ("ghost_from_witt", 651, SEQ_GRID),
    ("synthesize", 12, [(n, d) for d in (2, 10) for n in (15, 20, 25, 30, 35, 40)]),
)
# Kinds whose input is a sequence b: a quarter of these get +1 at one position.
_CORRUPTIBLE = {"check_trace_sequence", "traces_to_elementary", "witt_from_ghost", "synthesize"}


def sequence_generate(rng: SplitMix64) -> list[dict]:
    specs = []
    for kind, index, (length, degree) in _plan(rng, SEQUENCE_PLAN):
        corrupt = kind in _CORRUPTIBLE and index % 4 == 3
        spec = {"kind": kind, "n": length, **_sequence(rng, degree, length, corrupt)}
        if kind in ("witt_to_coeffs", "ghost_from_witt"):
            spec["witt"] = witt_from_traces(spec["b"], _DIVS)
        # The forward maps' expected outputs are kept only as digests, so
        # the inputs held through a run stay small next to the package's own
        # memory use.
        if kind in ("elementary_to_traces", "ghost_from_witt"):
            spec["want"] = _values_digest(spec.pop("b"))
        elif kind == "coeffs_to_witt":
            spec["want"] = _values_digest(witt_from_traces(spec.pop("b"), _DIVS))
        specs.append(spec)
    return specs


def sequence_bind(specs: list[dict], tw) -> list[Task]:
    tasks = []
    for seq in specs:
        kind, b, coeffs, n = seq["kind"], seq.get("b"), seq["coeffs"], seq["n"]
        matches = lambda out, want=seq.get("want"): _values_digest(out) == want  # noqa: E731
        if kind == "check_trace_sequence":

            def check(out, seq=seq):
                return (
                    out.overall == (not seq["pos"])
                    and _rows_of(out) == _trace_rows(seq["b"])
                    and _witt_ok(out.witness, seq)
                )

            run = lambda b=b: tw.check_trace_sequence(b, with_witness=True)  # noqa: E731
        elif kind == "traces_to_elementary":
            check = functools.partial(_elementary_ok, seq=seq)
            run = lambda b=b: tw.traces_to_elementary(b)  # noqa: E731
        elif kind == "witt_from_ghost":
            check = functools.partial(_witt_ok, seq=seq)
            run = lambda b=b: tw.witt_from_ghost(b)  # noqa: E731
        elif kind == "coeffs_to_witt":
            check = matches
            run = lambda c=coeffs, n=n: tw.coeffs_to_witt(c, n)  # noqa: E731
        elif kind == "elementary_to_traces":
            check = matches
            run = lambda c=coeffs, n=n: tw.elementary_to_traces(c, n)  # noqa: E731
        elif kind == "witt_to_coeffs":
            check = lambda out, want=_padded(coeffs, n): list(out) == want  # noqa: E731
            run = lambda w=seq["witt"], n=n: tw.witt_to_coeffs(w, n)  # noqa: E731
        elif kind == "ghost_from_witt":
            check = matches
            run = lambda w=seq["witt"], n=n: tw.ghost_from_witt(w, n)  # noqa: E731
        else:  # synthesize: a witness for clean prefixes, a rejection otherwise

            def run(b=b):
                try:
                    return tw.synthesize(b)
                except tw.InvalidTraceSequenceError as exc:
                    return exc

            def check(out, seq=seq):
                if seq["pos"]:
                    return isinstance(out, tw.InvalidTraceSequenceError) and not out.report.overall
                return isinstance(out, tw.IntMatrix) and _witness_ok(out.entries, seq)

        tasks.append(Task(kind, run, check, len(coeffs) if kind == "synthesize" else 0))
    return tasks


# --- cli workload ----------------------------------------------------------

CLI_LENGTHS = (100, 200, 300, 400)
CLI_SEQ_GRID = [(n, d) for d in (2, 4, 6, 8, 10) for n in CLI_LENGTHS]

# About 0.16 s of busy time per kind and pass.
CLI_PLAN = (
    ("check-traces", 27, CLI_SEQ_GRID),
    ("check-traces-json", 27, CLI_SEQ_GRID),
    ("witt", 14, CLI_SEQ_GRID),
    ("ghost", 35, CLI_SEQ_GRID),
    ("charpoly", 51, [(d,) for d in range(4, 11)]),
    ("traces", 12, [(d, n) for n in (50, 100, 150, 200) for d in (4, 6, 8)]),
    ("synthesize", 12, [(n, d) for d in (2, 6, 10) for n in (12, 16, 20, 24)]),
    ("check-exterior", 48, [(d, p, k) for p, k in ((2, 2), (3, 1), (5, 1)) for d in (3, 4, 5, 6)]),
    ("check-character", 67, [(n,) for n in (4, 6, 8, 10, 12, 14)]),
    ("fuzz", 18, [(3, 3), (4, 2), (2, 4), (3, 4)]),
)
_CLI_CORRUPTIBLE = {"check-traces", "check-traces-json", "witt", "synthesize"}


def _cycle_type(rng: SplitMix64, points: int) -> list[int]:
    cycles = []
    while points:
        c = rng.integer(1, min(points, 7))
        cycles.append(c)
        points -= c
    return cycles


def cli_generate(rng: SplitMix64) -> list[dict]:
    specs = []
    for kind, index, cell in _plan(rng, CLI_PLAN):
        spec: dict = {"kind": kind, "cell": cell}
        if kind in ("check-traces", "check-traces-json", "witt", "ghost", "synthesize"):
            corrupt = kind in _CLI_CORRUPTIBLE and index % 4 == 3
            spec.update(_sequence(rng, cell[1], cell[0], corrupt))
            if kind == "ghost":
                spec["witt"] = witt_from_traces(spec["b"], _DIVS)
        elif kind in ("charpoly", "traces", "check-exterior"):
            spec["rows"] = random_rows(rng, cell[0])
            if kind == "traces":
                spec["spots"] = sorted({1, 2, cell[1], rng.integer(3, cell[1])})
        elif kind == "check-character":
            spec["cycles"] = _cycle_type(rng, cell[0])
        else:
            spec["seed"] = rng.below(1 << 32)
        specs.append(spec)
    return specs


def _call_main(tw, argv: list[str], stdin_text: str) -> CliResult:
    """Run ``tracewitt.cli.main`` in-process with in-memory standard streams."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        try:
            code = tw.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return CliResult(code, sys.stdout.getvalue(), sys.stderr.getvalue())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def _overall_index(lines: list[str]) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith("overall: "))


def _passes(text: str) -> bool:
    """The verdict of a text report."""
    lines = text.splitlines()
    return lines[_overall_index(lines)] == "overall: PASS"


def _table_rows(text: str) -> list[list[str]]:
    """Body rows of a text report: the lines between the header and 'overall:'."""
    lines = text.splitlines()
    return [line.split() for line in lines[1 : _overall_index(lines)]]


def _parse_table(text: str) -> list[tuple]:
    out = []
    for n, pk, lhs, rhs, _diff, verdict in _table_rows(text):
        p, k = pk.split("^")
        out.append((int(n), int(p), int(k), int(lhs), int(rhs), int(p) ** int(k), verdict == "PASS"))
    return out


def _parse_json_rows(rows: list[dict]) -> list[tuple]:
    return [
        (int(r["n"]), r["p"], r["k"], int(r["lhs"]), int(r["rhs"]), int(r["modulus"]), r["pass"])
        for r in rows
    ]


def _parse_values(text: str) -> list[Fraction]:
    return [Fraction(v) for v in text.strip().split(",")]


def _permutation_character(cycles: list[int]) -> tuple[int, list[int]]:
    """Order and values of the fixed-point count on powers of a permutation."""
    order = math.lcm(*cycles)
    return order, [sum(c for c in cycles if e % c == 0) for e in range(order)]


def _character_ok(res: CliResult, order: int, values: list[int]) -> bool:
    rows = _parse_table(res.out)
    primes = sorted({r[1] for r in rows})
    if res.code != 0 or primes != [p for p in range(2, order + 1) if prime_power_parts(p) == [(p, 1)]]:
        return False
    lines = res.out.splitlines()
    policy = re.findall(r" (order|max_abs_value)=(\d+)", lines[_overall_index(lines) + 1])
    if policy != [("order", str(order)), ("max_abs_value", str(max(values)))]:
        return False
    for p in primes:
        ks = [r[2] for r in rows if r[1] == p]
        if ks != list(range(1, len(ks) + 1)):
            return False
    return all(
        n == p**k and lhs == values[p**k % order] and rhs == values[p ** (k - 1) % order] and ok
        for n, p, k, lhs, rhs, _, ok in rows
    )


def cli_bind(specs: list[dict], tw) -> list[Task]:
    tasks = []
    for spec in specs:
        kind, cell = spec["kind"], spec["cell"]
        stdin = ""
        if "b" in spec:
            stdin = ",".join(map(str, spec["witt"] if kind == "ghost" else spec["b"]))
        if kind in ("check-traces", "check-traces-json"):
            as_json = kind.endswith("json")
            argv = ["check-traces", "-"] + (["--format", "json"] if as_json else [])

            def check(res, seq=spec, as_json=as_json):
                valid = not seq["pos"]
                if res.code != (0 if valid else 1):
                    return False
                if as_json:
                    payload = json.loads(res.out)
                    verdict, rows = payload["overall"], _parse_json_rows(payload["checks"])
                else:
                    verdict, rows = _passes(res.out), _parse_table(res.out)
                return verdict == valid and rows == _trace_rows(seq["b"])

        elif kind == "witt":
            argv = ["witt", "-"]
            check = lambda res, seq=spec: res.code == 0 and _witt_ok(_parse_values(res.out), seq)  # noqa: E731
        elif kind == "ghost":
            argv = ["ghost", "-", "--count", str(cell[0])]
            check = lambda res, b=spec["b"]: res.code == 0 and _parse_values(res.out) == b  # noqa: E731
        elif kind == "synthesize":
            argv = ["synthesize", "-"]

            def check(res, seq=spec):
                if seq["pos"]:
                    return res.code == 1 and not _passes(res.out)
                matrix = json.loads(res.out)
                entries = [[int(v) for v in row] for row in matrix["entries"]]
                return res.code == 0 and matrix["dim"] == len(entries) and _witness_ok(entries, seq)

        elif kind == "charpoly":
            argv = ["charpoly", "-"]
            stdin = json.dumps({"dim": cell[0], "entries": spec["rows"]})

            def check(res, m=mat_mod(spec["rows"])):
                vals = [int(v) for v in _parse_values(res.out)]
                return res.code == 0 and len(vals) == len(m) and charpoly_matches(vals, m)

        elif kind == "traces":
            argv = ["traces", "-", "--count", str(cell[1])]
            stdin = json.dumps({"dim": cell[0], "entries": spec["rows"]})

            def check(res, m=mat_mod(spec["rows"]), n=cell[1], spots=spec["spots"]):
                vals = [int(v) for v in _parse_values(res.out)]
                return res.code == 0 and len(vals) == n and all(
                    (vals[s - 1] - trace_mod(pow_mod(m, s))) % Q == 0 for s in spots
                )

        elif kind == "check-exterior":
            dim, p, k_max = cell
            argv = ["check-exterior", "-", "--prime", str(p), "--kmax", str(k_max)]
            stdin = json.dumps({"dim": dim, "entries": spec["rows"]})

            def check(res, m=mat_mod(spec["rows"]), p=p, k_max=k_max):
                rows = _parse_table(res.out)
                if res.code != 0 or len(rows) != len(m) * k_max:
                    return False
                blocks = [rows[(k - 1) * len(m) : k * len(m)] for k in range(1, k_max + 1)]
                return all(_exterior_rows_ok(block, m, p, k) for k, block in enumerate(blocks, start=1))

        elif kind == "check-character":
            order, values = _permutation_character(spec["cycles"])
            argv = ["check-character", "-"]
            stdin = json.dumps({"order": order, "values": {str(e): v for e, v in enumerate(values)}})
            check = functools.partial(_character_ok, order=order, values=values)
        else:  # fuzz
            trials, dim = cell
            argv = ["fuzz", "--trials", str(trials), "--dim", str(dim), "--seed", str(spec["seed"])]
            argv += ["--format", "json"]
            trace_rows = trials * sum(len(prime_power_parts(n)) for n in range(2, 4 * dim + 1))

            def check(res, trials=trials, dim=dim, trace_rows=trace_rows):
                s = json.loads(res.out)
                return (
                    res.code == 0
                    and s["ok"] is True
                    and s["violations"] == []
                    and s["trials"] == trials
                    and s["trace_checks"] == trace_rows
                    and s["exterior_checks"] == (trials * 4 * dim if 1 <= dim <= 4 else 0)
                )

        run = lambda argv=argv, stdin=stdin: _call_main(tw, argv, stdin)  # noqa: E731
        tasks.append(Task(kind, run, check, len(spec["coeffs"]) if kind == "synthesize" else 0))
    return tasks


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]  # tracewitt modules a user of this workload imports
    generate: Callable[[SplitMix64], list[dict]]
    bind: Callable[[list[dict], object], list[Task]]


WORKLOADS = {
    "matrix": Workload("matrix", ("tracewitt",), matrix_generate, matrix_bind),
    "sequence": Workload("sequence", ("tracewitt",), sequence_generate, sequence_bind),
    "cli": Workload("cli", ("tracewitt", "tracewitt.cli"), cli_generate, cli_bind),
}
