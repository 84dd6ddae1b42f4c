"""Command-line surface: check, synthesize, convert, verify, fuzz.

Exit codes: 0 all checks passed, 1 a congruence or synthesis check failed
(a report is printed), 2 malformed input or usage.  A value command prints one
comma-separated line; a report command an aligned table, or ``--format json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from .congruences import (
    SPRP_BOUND,
    CharacterTable,
    CongruenceReport,
    InvalidTraceSequenceError,
    check_character,
    check_trace_sequence,
    exterior_levels,
    is_prime,
    synthesize,
)
from .matrices import (
    IntMatrix, char_poly_coeffs, encode_int, encode_scalar, parse_decimal, parse_decimals, random_matrix, trace_sequence
)
from .newton import Scalar
from .rng import SplitMix64
from .witt import ghost_from_witt, witt_from_ghost

OK, MATH_FAIL, INPUT_ERROR = 0, 1, 2


def _rational(token: str) -> Scalar:
    """An int when ``token`` reads as one, else a Fraction narrowed to an int when integral."""
    try:
        return int(token)
    except ValueError:
        q = Fraction(token)
        return int(q) if q.denominator == 1 else q


def _sequence(args, convert=int, what: str = "integer") -> tuple:
    """The comma- or space-separated sequence argument, read from stdin for '-'.  Once the
    text holds a comma, every comma-separated field must hold one value."""
    text = sys.stdin.read() if args.values == "-" else args.values
    tokens, wrapped = text.replace(",", " ").split(), f",{text},"
    # cheaper than splitting into fields: with no field empty, a token more than fields is a field of two
    if "," in text and (re.search(r",\s*,", wrapped) or len(tokens) > text.count(",") + 1):
        bad = re.search(r",\s*(?:,|[^,\s]+\s+[^,\s])", wrapped)  # the first empty or two-value field
        problem = "empty entry" if bad[0].endswith(",") else "space between values in entry"
        raise ValueError(f"{problem} at position {wrapped.count(',', 0, bad.start() + 1)}")
    return parse_decimals(tokens, convert, what)


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _matrix(args) -> IntMatrix:
    return IntMatrix.from_json_dict(_load_json(args.matrix))


def _emit_json(payload: dict, head: str = "{") -> None:
    print(head + json.dumps(payload, separators=(",", ":"))[1:])  # head: "{" and any members before payload's


def _emit_values(values: Sequence[Scalar]) -> int:
    print(",".join(map(str, values)))
    return OK


def _policy_text(policy: dict) -> str:
    parts = []
    for key, value in policy.items():
        if isinstance(value, dict):
            inner = ",".join(f"{k}:{v}" for k, v in value.items())
            parts.append(f"{key}={{{inner}}}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _report_text(report: CongruenceReport) -> str:
    rows = report.checks
    lhs, rhs = ("b_n", "b_{n/p}") if report.policy.get("kind") == "trace-sequence" else ("lhs", "rhs")
    columns = [
        ["n", *(str(row.n) for row in rows)],
        ["p^k", *(f"{row.p}^{row.k}" for row in rows)],
        [lhs, *(str(row.lhs) for row in rows)],
        [rhs, *(str(row.rhs) for row in rows)],
        ["diff", *(str(row.lhs - row.rhs) for row in rows)],
        ["verdict", *("PASS" if row.passed else "FAIL" for row in rows)],
    ]
    line = "  ".join(f"{{:>{max(map(len, column))}}}" for column in columns)
    lines = list(map(line.format, *columns))
    verdict = "PASS" if report.overall else f"FAIL ({columns[5].count('FAIL')} of {len(rows)} checks)"
    lines.append(f"overall: {verdict}")
    if report.policy:
        lines.append(f"policy: {_policy_text(report.policy)}")
    if report.witness is not None:
        lines.append("witness: " + ",".join(str(x) for x in report.witness))
    return "\n".join(lines)


class _JsonInts(dict):  # each integer's JSON text, encoded on its first lookup only
    def __missing__(self, value: int) -> str:
        return self.setdefault(value, f'"{e}"' if isinstance(e := encode_int(value), str) else str(e))


def _emit_report(report: CongruenceReport, args) -> int:
    if args.format == "json":  # the one JSON writer of reports: rows formatted straight to text, each int encoded once
        m = _JsonInts()
        rows = ",".join(
            f'{{"n":{m[r.n]},"p":{m[r.p]},"k":{r.k},"lhs":{m[r.lhs]},"rhs":{m[r.rhs]},"modulus":{m[r.modulus]},'
            f'"pass":{"true" if r.passed else "false"}}}'
            for r in report.checks
        )
        tail = {"policy": {key: encode_int(v) if isinstance(v, int) else v for key, v in report.policy.items()}}
        if report.witness is not None:
            tail["witness"] = [encode_scalar(x) for x in report.witness]
        _emit_json(tail, f'{{"overall":{"true" if report.overall else "false"},"checks":[{rows}],')
    else:
        print(_report_text(report))
    return OK if report.overall else MATH_FAIL


def cmd_check_traces(args) -> int:
    return _emit_report(check_trace_sequence(_sequence(args)), args)


def cmd_synthesize(args) -> int:
    try:
        matrix = synthesize(_sequence(args))
    except InvalidTraceSequenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _emit_report(exc.report, args)
    _emit_json(matrix.to_json_dict())
    return OK


def cmd_traces(args) -> int:
    return _emit_values(trace_sequence(_matrix(args), args.count))


def cmd_charpoly(args) -> int:
    return _emit_values(char_poly_coeffs(_matrix(args)))


def cmd_witt(args) -> int:
    return _emit_values(witt_from_ghost(_sequence(args)))


def cmd_ghost(args) -> int:
    return _emit_values(ghost_from_witt(_sequence(args, _rational, "rational"), args.count))


def cmd_check_character(args) -> int:
    return _emit_report(check_character(CharacterTable.from_json_dict(_load_json(args.table))), args)


def cmd_check_exterior(args) -> int:
    return _emit_report(exterior_levels(_matrix(args), args.prime, args.kmax), args)


def run_fuzz(trials: int, dim: int, seed: int) -> dict:
    """Random-matrix oracle run, entries in [-3, 3]; any violation means a bug somewhere."""
    master = SplitMix64(seed)
    trial_seeds = [master.next_u64() for _ in range(trials)]
    counts = {"trace": 0, "exterior": 0}
    violations = []
    for index, trial_seed in enumerate(trial_seeds):
        matrix = random_matrix(dim, 3, trial_seed)
        checks = [("trace", check_trace_sequence(trace_sequence(matrix, 4 * dim)).checks)]
        if 1 <= dim <= 4:
            checks += [("exterior", exterior_levels(matrix, p, 2).checks) for p in (2, 3)]
        for kind, rows in checks:
            counts[kind] += len(rows)
            violations += ({"trial": index, "kind": kind, "n": row.n, "p": row.p} for row in rows if not row.passed)
    return {
        "trials": trials,
        "dim": dim,
        "entry_bound": 3,
        "seed": seed,
        "trace_checks": counts["trace"],
        "exterior_checks": counts["exterior"],
        "violations": violations,
        "ok": not violations,
    }


def cmd_fuzz(args) -> int:
    summary = run_fuzz(args.trials, args.dim, args.seed)
    if args.format == "json":
        _emit_json({key: encode_int(v) if isinstance(v, int) else v for key, v in summary.items()})
    else:
        for key in ("trials", "dim", "entry_bound", "seed", "trace_checks", "exterior_checks"):
            print(f"{key}: {summary[key]}")
        print(f"violations: {len(summary['violations'])}")
        for item in summary["violations"]:
            print(f"  {item}")
    return OK if summary["ok"] else MATH_FAIL


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):  # a subcommand refuses its own leftovers,
        args, extras = super().parse_known_args(args, namespace)  # so its usage comes with the error
        return self.error("unrecognized arguments: " + " ".join(map(str.lstrip, extras))) if extras else (args, extras)

    def error(self, message):  # argparse echoes a bad token by repr, up to 10 times as long: cap it
        super().error(message if len(message) <= 250 else message[:247] + "...")


def _integer(low: int | None = None, prime: bool = False):
    """An integer option's ``type``: the sequence grammar's integer, at least ``low``, prime if asked."""
    def read(token: str) -> int:
        value = parse_decimal(token)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        if prime and value >= SPRP_BOUND:  # is_prime would refuse it, after hours of powers at 100k digits
            raise argparse.ArgumentTypeError(f"must be below {SPRP_BOUND}")
        if prime and not is_prime(value):
            raise argparse.ArgumentTypeError(f"{value} is not prime")
        return value

    read.__name__ = "int"  # argparse reports a token that parse_decimal refuses as an "invalid int value"
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tracewitt",
        description="Decide, synthesize and transform integer trace sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, operand=None, operand_help=None):
        p = sub.add_parser(name, help=help_text)
        if operand:
            p.add_argument(operand, help=operand_help)
        p.set_defaults(func=func)
        return p

    values = ("values", "comma-separated values ('-' for stdin)")
    matrix = ("matrix", "matrix JSON file ('-' for stdin)")
    table = ("table", "character table JSON file ('-' for stdin)")
    command("check-traces", cmd_check_traces, "check the trace-sequence congruences", *values)
    command("synthesize", cmd_synthesize, "build a witness matrix for a sequence", *values)
    command("witt", cmd_witt, "Witt coordinates of a trace sequence", *values)
    ghost = command("ghost", cmd_ghost, "ghost components of Witt coordinates (rationals allowed)", *values)
    ghost.add_argument("--count", type=_integer(0), required=True, help="number of components to produce")
    traces = command("traces", cmd_traces, "traces of powers of a matrix", *matrix)
    traces.add_argument("--count", type=_integer(0), required=True, help="number of traces to produce")
    command("charpoly", cmd_charpoly, "characteristic coefficients of det(1+tf)", *matrix)
    command("check-character", cmd_check_character, "check a character table's congruences", *table)
    exterior = command("check-exterior", cmd_check_exterior, "check exterior-power congruences of a matrix", *matrix)
    fz = command("fuzz", cmd_fuzz, "random-matrix oracle run")
    for report in ("check-traces", "synthesize", "check-character", "check-exterior", "fuzz"):  # the report commands
        sub.choices[report].add_argument("--format", choices=("text", "json"), default="text")
    exterior.add_argument("--prime", type=_integer(prime=True), required=True)
    exterior.add_argument("--kmax", type=_integer(1), default=1)
    fz.add_argument("--seed", type=_integer(), default=0, help="PRNG seed of the trial matrices")
    fz.add_argument("--trials", type=_integer(1), default=100)
    fz.add_argument("--dim", type=_integer(0), default=4)

    return parser


# main() builds its parser on the first call and reuses it: parsing leaves the
# parser unchanged, and argparse lays out help text when it prints, not here.
# build_parser() itself still returns a fresh parser that a caller may change.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    # Exact inputs and results outgrow Python's default 4300-digit int/str cap.
    saved_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # argparse takes "-2,3" or "-1/2" for an unknown option; after a space it is
        # an option value or the positional sequence, and every parser here strips it.
        args = parser.parse_args([" " + a if re.match(r"-\.?\d", a) else a for a in argv])
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (MemoryError, OverflowError) as exc:  # a count too large to allocate or index
        print(f"error: input too large: {type(exc).__name__}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return INPUT_ERROR
    finally:
        sys.set_int_max_str_digits(saved_limit)


if __name__ == "__main__":
    sys.exit(main())
