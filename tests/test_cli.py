"""Command-line behavior: exit codes, output formats, determinism."""

import argparse
import ast
import inspect
import io
import json
import subprocess
import sys
import time

import pytest

import tracewitt.cli
from tracewitt import check_trace_sequence
from tracewitt.cli import _parser, _report_text, build_parser, main, run_fuzz

from .oracles import report_json_by_rows


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "tracewitt", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


class TestExitCodes:
    def test_valid_sequence_exits_zero(self):
        assert run_cli("check-traces", "1,3").returncode == 0

    def test_invalid_sequence_exits_one(self):
        assert run_cli("check-traces", "0,1").returncode == 1

    def test_parse_error_exits_two(self):
        proc = run_cli("check-traces", "1,x")
        assert proc.returncode == 2
        assert "x" in proc.stderr

    def test_missing_file_exits_two(self):
        assert run_cli("traces", "/no/such/file.json", "--count", "3").returncode == 2

    def test_unknown_flag_exits_two(self):
        assert run_cli("check-traces", "1,3", "--bogus").returncode == 2

    def test_unknown_command_exits_two(self):
        assert run_cli("frobnicate").returncode == 2

    def test_synthesize_invalid_exits_one(self):
        proc = run_cli("synthesize", "0,1")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout
        assert proc.stderr == "error: not a trace sequence: 1 of 1 congruences fail, first at (n=2, p=2, k=1)\n"

    def test_synthesize_failure_line_is_bounded(self, capsys, monkeypatch):
        # the report on stdout keeps every failing row; stderr names the first
        traces = list(range(1, 401))
        monkeypatch.setattr(sys, "stdin", io.StringIO(",".join(map(str, traces))))
        assert main(["synthesize", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == _report_text(check_trace_sequence(traces, with_witness=True)) + "\n"
        assert captured.err == "error: not a trace sequence: 790 of 790 congruences fail, first at (n=2, p=2, k=1)\n"


class TestCheckTraces:
    def test_failing_row_identified(self):
        proc = run_cli("check-traces", "0,1", "--format", "json")
        report = json.loads(proc.stdout)
        assert report["overall"] is False
        bad = [c for c in report["checks"] if not c["pass"]]
        assert [(c["n"], c["p"], c["k"]) for c in bad] == [(2, 2, 1)]

    def test_text_table_headers(self):
        proc = run_cli("check-traces", "1,3")
        assert "b_n" in proc.stdout and "b_{n/p}" in proc.stdout
        assert "overall: PASS" in proc.stdout

    def test_positional_argument(self):
        assert run_cli("check-traces", "1,3").returncode == 0

    def test_stdin_input(self):
        proc = run_cli("check-traces", "-", stdin="1 3 4 7\n")
        assert proc.returncode == 0

    def test_no_sequence_given(self):
        assert run_cli("check-traces").returncode == 2

    def test_leading_negative_positional(self):
        proc = run_cli("check-traces", "-2,3")
        assert proc.returncode == 1
        assert "2  2^1    3       -2     5     FAIL" in proc.stdout


class TestSynthesize:
    def test_fibonacci_exact_output(self):
        proc = run_cli("synthesize", "1,3")
        assert proc.stdout.strip() == '{"dim":2,"entries":[[0,1],[1,1]]}'

    def test_scalar_exact_output(self):
        proc = run_cli("synthesize", "2")
        assert proc.stdout.strip() == '{"dim":1,"entries":[[2]]}'

    def test_round_trips_through_traces(self):
        matrix_json = run_cli("synthesize", "1,3,4,7").stdout
        proc = run_cli("traces", "-", "--count", "4", stdin=matrix_json)
        assert proc.stdout.strip() == "1,3,4,7"


class TestConversions:
    def test_traces_of_fibonacci_matrix(self, tmp_path):
        path = tmp_path / "fib.json"
        path.write_text('{"dim":2,"entries":[[0,1],[1,1]]}')
        proc = run_cli("traces", str(path), "--count", "4")
        assert proc.stdout.strip() == "1,3,4,7"

    def test_charpoly(self, tmp_path):
        path = tmp_path / "fib.json"
        path.write_text('{"dim":2,"entries":[[0,1],[1,1]]}')
        proc = run_cli("charpoly", str(path))
        assert proc.stdout.strip() == "1,-1"

    def test_witt_of_powers_of_two(self):
        proc = run_cli("witt", "2,4,8,16")
        assert proc.stdout.strip() == "2,0,0,0"

    def test_witt_rational_rendering(self):
        proc = run_cli("witt", "0,1")
        assert proc.stdout.strip() == "0,1/2"

    def test_ghost_teichmueller(self):
        proc = run_cli("ghost", "1", "--count", "3")
        assert proc.stdout.strip() == "1,1,1"

    def test_ghost_accepts_rationals(self):
        proc = run_cli("ghost", "0,1/2", "--count", "2")
        assert proc.stdout.strip() == "0,1"

    def test_values_json_format(self):
        proc = run_cli("witt", "0,1", "--format", "json")
        assert json.loads(proc.stdout) == {"values": [0, "1/2"]}


class TestCharacterCommand:
    def test_regular_table_passes(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"order": 4, "values": {"0": 4, "1": 0, "2": 0, "3": 0}}))
        assert run_cli("check-character", str(path)).returncode == 0

    def test_corrupted_table_fails(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"order": 2, "values": {"0": 2, "1": 1}}))
        assert run_cli("check-character", str(path)).returncode == 1

    def test_schema_violation_exits_two(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"order": 2, "values": {"0": 2}}))
        assert run_cli("check-character", str(path)).returncode == 2

    def test_policy_in_json_report(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"order": 2, "values": {"0": 1, "1": 1}}))
        proc = run_cli("check-character", str(path), "--format", "json")
        report = json.loads(proc.stdout)
        assert report["policy"]["kind"] == "character"
        assert "k_bounds" in report["policy"]
        path.write_text(json.dumps({"order": 2, "values": {"0": 10**19, "1": 10**19}}))
        proc = run_cli("check-character", str(path), "--format", "json")
        assert json.loads(proc.stdout)["policy"]["max_abs_value"] == str(10**19)

    def test_table_that_fails_only_past_k_1_exits_one(self, capsys, monkeypatch):
        table = {"order": 4, "values": {"0": 3, "1": 1, "2": 1, "3": 1}}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(table)))
        assert main(["check-character", "-"]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            " 4  2^2    3    1     2     FAIL",
            "overall: FAIL (1 of 8 checks)",
        ]

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"order": 1, "values": {"0": 1}, "junk": 0}, "character table JSON has the unknown key 'junk'"),
            ({"order": 1, "values": {"0": 1, "1": 1}}, """character table "values" has the unknown key '1'"""),
        ],
        ids=["top-level", "residue"],
    )
    def test_unknown_key_exits_two(self, capsys, monkeypatch, table, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(table)))
        assert main(["check-character", "-"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_huge_order_exits_two_at_once(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"order": 10**12, "values": {"0": 1}})))
        start = time.perf_counter()
        assert main(["check-character", "-"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == """error: character table "values" lacks the key '1'\n"""


class TestExteriorCommand:
    def test_fibonacci_matrix_passes(self, tmp_path):
        path = tmp_path / "fib.json"
        path.write_text('{"dim":2,"entries":[[0,1],[1,1]]}')
        proc = run_cli("check-exterior", str(path), "--prime", "2", "--kmax", "2")
        assert proc.returncode == 0
        assert "overall: PASS" in proc.stdout

    def test_composite_prime_rejected(self, tmp_path):
        path = tmp_path / "fib.json"
        path.write_text('{"dim":2,"entries":[[0,1],[1,1]]}')
        assert run_cli("check-exterior", str(path), "--prime", "4").returncode == 2

    @pytest.mark.parametrize("prime", ["2", "4"])
    def test_zero_kmax_rejected(self, tmp_path, prime):
        path = tmp_path / "fib.json"
        path.write_text('{"dim":2,"entries":[[0,1],[1,1]]}')
        proc = run_cli("check-exterior", str(path), "--prime", prime, "--kmax", "0")
        assert proc.returncode == 2
        assert "PASS" not in proc.stdout


    def test_report_is_the_per_level_checks_in_order(self, tmp_path, capsys):
        from tracewitt import CongruenceReport, check_exterior_congruence, random_matrix

        f = random_matrix(4, 3, 5)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(f.to_json_dict()))
        argv = ["check-exterior", str(path), "--prime", "3", "--kmax", "4", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = tuple(row for k in range(1, 5) for row in check_exterior_congruence(f, 3, k).checks)
        assert payload["checks"] == report_json_by_rows(CongruenceReport(rows))["checks"]
        assert payload["policy"] == {"kind": "exterior-power", "p": 3, "k_max": 4, "dim": 4}


FIB = '{"dim": 2, "entries": [[0, 1], [1, 1]]}'

# (argv, stdin) of one passing call of each subcommand
EVERY_SUBCOMMAND = [
    (["check-traces", "1,3"], ""),
    (["synthesize", "1,3"], ""),
    (["witt", "0,1"], ""),
    (["ghost", "1/2", "--count", "3"], ""),
    (["traces", "-", "--count", "4"], FIB),
    (["charpoly", "-"], FIB),
    (["check-character", "-"], '{"order": 2, "values": {"0": 2, "1": 0}}'),
    (["check-exterior", "-", "--prime", "2", "--kmax", "2"], FIB),
    (["fuzz", "--trials", "2", "--dim", "2"], ""),
]


def test_json_output_is_a_function_of_the_input(capsys, monkeypatch):
    # no wall-clock field: two runs of each subcommand print the same bytes
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [argv[0] for argv, _ in EVERY_SUBCOMMAND] == list(sub.choices)
    for argv, stdin in EVERY_SUBCOMMAND:
        outputs = []
        for _ in range(2):
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            assert main([*argv, "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv
        assert "timestamp" not in json.loads(outputs[0]), argv


class TestFuzz:
    def test_clean_run(self):
        proc = run_cli("fuzz", "--trials", "5", "--dim", "3", "--seed", "7")
        assert proc.returncode == 0
        assert "violations: 0" in proc.stdout

    def test_dim_zero_trivial(self):
        proc = run_cli("fuzz", "--trials", "1", "--dim", "0", "--seed", "1")
        assert proc.returncode == 0

    def test_zero_trials_rejected(self):
        assert run_cli("fuzz", "--trials", "0").returncode == 2

    def test_byte_identical_given_seed(self):
        args = ("fuzz", "--trials", "4", "--dim", "2", "--seed", "123", "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_summary_counts(self, capsys):
        summary = run_fuzz(trials=3, dim=2, entry_bound=2, seed=5)
        # 8 trace checks per trial (N=8: one row per prime-power part)
        assert summary["trials"] == 3
        assert summary["ok"] is True
        assert summary["trace_checks"] > 0
        assert summary["exterior_checks"] == 3 * 2 * 2 * 2  # trials * primes * k * dim
        # JSON writes summary integers past 2^53 - 1 as strings, text as they are
        argv = ["fuzz", "--trials", "1", "--dim", "1", "--seed", str(2**64), "--entry-bound", str(10**19)]
        assert main([*argv, "--format", "json"]) == 0
        assert f'"entry_bound":"{10**19}","seed":"{2**64}",' in capsys.readouterr().out
        assert main(argv) == 0
        assert f"entry_bound: {10**19}\nseed: {2**64}\n" in capsys.readouterr().out


class TestInProcessMain:
    def test_check_ok(self, capsys):
        assert main(["check-traces", "1,3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fail(self, capsys):
        assert main(["check-traces", "0,1"]) == 1
        capsys.readouterr()

    def test_parse_error(self, capsys):
        assert main(["check-traces", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_synthesize(self, capsys):
        assert main(["synthesize", "2"]) == 0
        assert capsys.readouterr().out.strip() == '{"dim":1,"entries":[[2]]}'


class TestCountTooLarge:
    @pytest.mark.parametrize(
        "count, cause",
        [
            ("4611686018427387904", "MemoryError: out of memory"),  # over the largest list
            ("10000000000000000000", "OverflowError: "),  # over the index range
        ],
    )
    def test_exits_two_with_one_line(self, capsys, count, cause):
        # each is refused before any allocation
        assert main(["ghost", "1", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: input too large: {cause}")
        assert captured.err.count("\n") == 1


class TestOneParserPerProcess:
    """main() reuses one parser; each call must still behave like a fresh process."""

    SEQUENCE = [
        ["check-traces", "1,3,4,7", "--format", "json"],
        ["check-traces", "1,3,4,7"],
        ["check-traces", "1,2", "3"],
        ["--help"],
        ["ghost", "x", "--count", "3"],
        ["synthesize", "1,3"],
        ["ghost", "1/2,3", "--count", "4"],
        ["check-traces", "--help"],
        ["check-traces", "0,1", "--format", "json"],
        ["check-traces", "0,1"],
    ]

    @staticmethod
    def in_process(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_is_built_once(self):
        assert _parser() is _parser()
        # the public builder still hands each caller a parser of its own
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize("columns", ["80", "40"])
    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch, columns):
        # help text is laid out when printed, so the width a call sees is its own
        monkeypatch.setenv("COLUMNS", columns)
        got = [self.in_process(argv, capsys) for argv in self.SEQUENCE]
        fresh = [run_cli(*argv) for argv in self.SEQUENCE]
        assert got == [(p.returncode, p.stdout, p.stderr) for p in fresh]
        assert [code for code, _, _ in got] == [0, 0, 2, 0, 2, 0, 0, 0, 1, 1]
        assert got[0][1].startswith('{"overall":true') and got[1][1].startswith("n  p^k")
        assert max(map(len, got[7][1].splitlines())) <= int(columns)  # check-traces --help


class TestParserSurface:
    """Every settable value has a caller, and each input comes in one way."""

    DESTS = {
        "check-traces": ("format", "values"),
        "synthesize": ("format", "values"),
        "witt": ("format", "values"),
        "ghost": ("format", "values", "count"),
        "traces": ("format", "matrix", "count"),
        "charpoly": ("format", "matrix"),
        "check-character": ("format", "table"),
        "check-exterior": ("format", "matrix", "prime", "kmax"),
        "fuzz": ("format", "seed", "trials", "dim", "entry_bound"),
    }

    def test_option_dests_per_subcommand(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: tuple(a.dest for a in command._actions if a.dest != "help")
            for name, command in sub.choices.items()
        }
        assert got == self.DESTS
        assert sum(map(len, got.values())) == 25

    # what an option's type reads from each probe: the value, or None where it refuses the probe
    PROBES = ("-1", "0", "1", "2", "4")
    ANY, AT_LEAST_0, AT_LEAST_1 = (-1, 0, 1, 2, 4), (None, 0, 1, 2, 4), (None, None, 1, 2, 4)
    PRIME = (None, None, None, 2, None)

    @classmethod
    def reads(cls, reader) -> tuple | None:
        if reader is None:
            return None
        values = []
        for token in cls.PROBES:
            try:
                values.append(reader(token))
            except argparse.ArgumentTypeError:
                values.append(None)
        return tuple(values)

    # (dest, help, what its type reads, default, required) of each argument after the common one
    COMMON = (("format", None, None, "text", False),)
    VALUES = ("values", "comma-separated values ('-' for stdin)", None, None, True)
    MATRIX = ("matrix", "matrix JSON file ('-' for stdin)", None, None, True)
    SPECS = {
        "check-traces": ("check the trace-sequence congruences", VALUES),
        "synthesize": ("build a witness matrix for a sequence", VALUES),
        "witt": ("Witt coordinates of a trace sequence", VALUES),
        "ghost": (
            "ghost components of Witt coordinates (rationals allowed)",
            VALUES,
            ("count", "number of components to produce", AT_LEAST_0, None, True),
        ),
        "traces": (
            "traces of powers of a matrix",
            MATRIX,
            ("count", "number of traces to produce", AT_LEAST_0, None, True),
        ),
        "charpoly": ("characteristic coefficients of det(1+tf)", MATRIX),
        "check-character": (
            "check a character table's congruences",
            ("table", "character table JSON file ('-' for stdin)", None, None, True),
        ),
        "check-exterior": (
            "check exterior-power congruences of a matrix",
            MATRIX,
            ("prime", None, PRIME, None, True),
            ("kmax", None, AT_LEAST_1, 1, False),
        ),
        "fuzz": (
            "random-matrix oracle run",
            ("seed", "PRNG seed of the trial matrices", ANY, 0, False),
            ("trials", None, AT_LEAST_1, 100, False),
            ("dim", None, AT_LEAST_0, 4, False),
            ("entry_bound", None, AT_LEAST_1, 3, False),
        ),
    }

    def test_help_lines_and_argument_specs(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            choice.dest: (
                choice.help,
                *(
                    (a.dest, a.help, self.reads(a.type), a.default, a.required)
                    for a in sub.choices[choice.dest]._actions
                    if a.dest != "help"
                ),
            )
            for choice in sub._choices_actions
        }
        assert got == {name: (line, *self.COMMON, *args) for name, (line, *args) in self.SPECS.items()}

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-traces", "1,3", "--seed", "1"],
            ["check-traces", "--traces", "1,3"],
            ["synthesize", "1,3", "--no-self-check"],
            ["check-character", "-", "--kmax", "1"],
        ],
        ids=["seed", "traces", "no-self-check", "character-kmax"],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# Each integer option, in a call that passes when a plain value follows it (11 and 3 are prime).
INTEGER_OPTIONS = {
    "ghost-count": ["ghost", "1", "--count"],
    "traces-count": ["traces", "-", "--count"],
    "kmax": ["check-exterior", "-", "--prime", "2", "--kmax"],
    "prime": ["check-exterior", "-", "--prime"],
    "trials": ["fuzz", "--dim", "1", "--trials"],
    "dim": ["fuzz", "--trials", "1", "--dim"],
    "entry-bound": ["fuzz", "--trials", "1", "--dim", "1", "--entry-bound"],
    "seed": ["fuzz", "--trials", "1", "--dim", "1", "--seed"],
}


class TestSubcommandValueErrors:
    """A bad option value or a leftover argument fails inside argparse, through its own subcommand's parser."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["ghost", "1", "--count", "-1"], "argument --count: must be at least 0", id="ghost"),
            pytest.param(["traces", "-", "--count", "-1"], "argument --count: must be at least 0", id="traces"),
            pytest.param(["fuzz", "--dim", "-1"], "argument --dim: must be at least 0", id="fuzz"),
            pytest.param(
                ["check-exterior", "-", "--prime", "2", "--kmax", "0"],
                "argument --kmax: must be at least 1",
                id="exterior-kmax",
            ),
            pytest.param(
                ["check-exterior", "-", "--prime", "4"], "argument --prime: 4 is not prime", id="exterior-prime"
            ),
            # at and above the bound is_prime is trial division: days on this 25-digit semiprime
            pytest.param(
                ["check-exterior", "-", "--prime", "3317044064679887385961981"],
                "argument --prime: must be below 3317044064679887385961981",
                id="exterior-prime-bound",
            ),
            pytest.param(
                ["check-exterior", "-", "--prime", "3317044064679887385961980"],
                "argument --prime: 3317044064679887385961980 is not prime",
                id="exterior-prime-below-bound",
            ),
            # every integer option reads its value as a sequence reads an entry: int() would take these as 11 and 3
            *(
                pytest.param(
                    [*argv, token], f"argument {argv[-1]}: invalid int value: {token!r}", id=f"{name}-{label}"
                )
                for name, argv in INTEGER_OPTIONS.items()
                for label, token in (("underscore", "1_1"), ("non-ascii", "\u0663"))
            ),
            pytest.param(["check-traces", "1,3", "--bogus"], "unrecognized arguments: --bogus", id="unknown-option"),
            pytest.param(["check-traces", "1,3", "4"], "unrecognized arguments: 4", id="extra-positional"),
            # main's shield of a leading minus, a space, stays out of the message
            pytest.param(["check-traces", "1,3", "-2"], "unrecognized arguments: -2", id="extra-negative"),
            pytest.param(["fuzz", "--dim", "2", "--bogus=1"], "unrecognized arguments: --bogus=1", id="fuzz-unknown"),
            # the JSON output has no timestamp to omit: drop the flag
            pytest.param(
                ["check-traces", "1,3", "--format", "json", "--no-timestamp"],
                "unrecognized arguments: --no-timestamp",
                id="no-timestamp",
            ),
        ],
    )
    def test_usage_and_error_name_the_subcommand(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim": 1, "entries": [[1]]}'))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: tracewitt {argv[0]} [-h] ")
        assert captured.err.endswith(f"\ntracewitt {argv[0]}: error: {message}\n")

    def test_unknown_option_before_the_subcommand_is_the_top_level_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--bogus", "check-traces", "1,3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tracewitt [-h]") and "--format" not in err
        assert err.endswith("\ntracewitt: error: unrecognized arguments: --bogus\n")


def test_cli_imports_no_private_library_name():
    # the CLI is a client of the library's public surface
    tree = ast.parse(inspect.getsource(tracewitt.cli))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    names = [alias.name for node in imports for alias in node.names]
    assert "parse_decimal" in names
    assert [name for name in names if name.startswith("_")] == []


class TestInputGrammar:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check-traces", "1_0,2"],
            ["check-traces", "١٢,3"],
            ["synthesize", "2,4_0"],
            ["ghost", "1_0", "--count", "2"],
            ["ghost", "1/2_0", "--count", "2"],
            ["witt", "１,2"],
        ],
    )
    def test_underscores_and_non_ascii_digits_rejected(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid ")

    def test_json_string_entry_with_underscore_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim": 1, "entries": [["1_0"]]}'))
        assert main(["charpoly", "-"]) == 2
        assert "'1_0'" in capsys.readouterr().err
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim": 1, "entries": 5}'))
        assert main(["charpoly", "-"]) == 2
        assert capsys.readouterr().err == 'error: "entries" must be a list of rows\n'

    def test_plain_forms_still_accepted(self, capsys):
        assert main(["ghost", "1/2,.5,+3,-0.25,007,2e1", "--count", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"
        assert main(["check-traces", "+1,0003"]) == 0
        assert "2  2^1    3        1     2     PASS" in capsys.readouterr().out

    def test_error_echoes_a_short_token(self, capsys):
        assert main(["check-traces", "x" * 5000]) == 2
        err = capsys.readouterr().err
        assert "xxx" in err
        assert len(err) < 80

    @pytest.mark.parametrize(
        "argv, position",
        [(["check-traces", "1,,3"], 2), (["check-traces", "1,3,"], 3), (["witt", ",2"], 1)],
    )
    def test_empty_entry_is_an_input_error(self, capsys, argv, position):
        # dropping the empty field would move every later value to another index
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: empty entry at position {position}\n")

    @pytest.mark.parametrize(
        "argv, position, fault",
        [
            (["check-traces", "1,3 4,7"], 2, "space between values in"),
            (["check-traces", "1 2,3"], 1, "space between values in"),
            (["synthesize", "1,3\t4"], 2, "space between values in"),
            (["ghost", "1/2,1 3", "--count", "2"], 2, "space between values in"),
            (["check-traces", "1,3 4,,7"], 2, "space between values in"),
            (["witt", "1,,3 4"], 2, "empty"),
        ],
    )
    def test_field_of_two_values_is_an_input_error(self, capsys, argv, position, fault):
        # once the text holds a comma, a space typed for a comma would move every later value to another index
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {fault} entry at position {position}\n")

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["1, 3"], ""),
            (["1 3 4"], ""),
            (["-"], "1,3\n"),
            ([""], ""),
            (["5"], ""),
            (["  "], ""),
            ([" 1 , 3 "], ""),
            (["-"], "1,\t3, 4\r\n"),
        ],
    )
    def test_separators_without_an_empty_entry_still_accepted(self, capsys, monkeypatch, argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(["check-traces", *argv]) == 0
        assert capsys.readouterr().out.startswith(("n  p^k", "overall: PASS"))

    @pytest.mark.parametrize(
        "values, count, out", [("-.5", "2", "-1/2,1/4"), ("-.5,.25", "3", "-1/2,3/4,-1/8")]
    )
    def test_positional_starting_with_minus_point(self, capsys, values, count, out):
        # argparse reads a lone "-.5" as a negative number, but "-.5,.25" as an unknown option
        assert main(["ghost", values, "--count", count]) == 0
        assert capsys.readouterr() == (out + "\n", "")


class TestDeepJson:
    @pytest.mark.parametrize(
        "command", [["charpoly", "-"], ["traces", "-", "--count", "3"], ["check-character", "-"]]
    )
    def test_deep_nesting_is_an_input_error(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: JSON input is nested too deeply\n"


class TestDigitLimit:
    def test_long_output_parses_back(self, capsys, monkeypatch):
        # det(x - f) = x^2 - 5x - 2, so b_n = 5 b_(n-1) + 2 b_(n-2); b_6000
        # has 4381 digits, past Python's default 4300-digit conversion cap.
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim":2,"entries":[[5,2],[1,0]]}'))
        limit = sys.get_int_max_str_digits()
        assert main(["traces", "-", "--count", "6000"]) == 0
        assert sys.get_int_max_str_digits() == limit
        tokens = capsys.readouterr().out.strip().split(",")
        sys.set_int_max_str_digits(0)
        try:
            b = [int(t) for t in tokens]
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(b) == 6000 and len(tokens[-1]) > limit
        assert b[:2] == [5, 29]
        assert all(b[n] == 5 * b[n - 1] + 2 * b[n - 2] for n in range(2, 6000))

    def test_limit_restored_after_an_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["check-traces", "1,x"]) == 2
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(SystemExit):
            main(["ghost", "1", "--count", "x"])
        assert sys.get_int_max_str_digits() == limit

    def test_long_option_value(self, capsys):
        # an option's integer, like a sequence entry, may be longer than the cap
        seed = "1" * 5000
        assert main(["fuzz", "--trials", "1", "--dim", "1", "--seed", seed, "--format", "json"]) == 0
        assert f'"seed":"{seed}",' in capsys.readouterr().out
