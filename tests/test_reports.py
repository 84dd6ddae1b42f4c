"""Report writers and rows: the fast builders against row-by-row oracles."""

import argparse
import contextlib
import dataclasses
import io
import json
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracewitt import (
    CharacterTable,
    IntMatrix,
    InvalidTraceSequenceError,
    check_character,
    check_matrix_congruences,
    check_trace_sequence,
    random_matrix,
    synthesize,
    trace_sequence,
)
from tracewitt.cli import _emit_report, _report_text, main
from tracewitt.congruences import CongruenceReport, CongruenceRow, _row, exterior_levels
from tracewitt.matrices import encode_scalar

from .oracles import json_scalar, report_json_by_rows, report_text_by_rows

BIG = 2**53
EDGES = (BIG - 1, BIG, 1 - BIG, -BIG)  # the largest JSON-safe magnitude and the least past it


def cli_json(report: CongruenceReport) -> str:
    """The report as ``--format json`` prints it, without the newline."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_report(report, argparse.Namespace(format="json"))
    return out.getvalue().removesuffix("\n")


def assert_writers_match(report: CongruenceReport) -> None:
    assert _report_text(report) == report_text_by_rows(report)
    assert cli_json(report) == json.dumps(report_json_by_rows(report), separators=(",", ":"))


@st.composite
def trace_sequences(draw):
    """Traces of a small random matrix, cut to 0..30 terms, scaled (possibly
    negative, possibly past 2^53) and, half the time, with one entry bumped."""
    dim = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32))
    length = draw(st.one_of(st.integers(0, 3), st.integers(4, 30)))
    scale = draw(st.sampled_from([1, -1, 3, -BIG - 5, 2**70 + 1]))
    traces = [scale * b for b in trace_sequence(random_matrix(dim, 3, seed), length)]
    if traces and draw(st.booleans()):
        spot = draw(st.integers(0, len(traces) - 1))
        traces[spot] += draw(st.sampled_from([1, -1, BIG]))
    return traces


class TestReportWriters:
    @settings(deadline=None, max_examples=150)
    @given(trace_sequences(), st.booleans())
    def test_trace_reports(self, traces, with_witness):
        assert_writers_match(check_trace_sequence(traces, with_witness=with_witness))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 12), st.lists(st.integers(-(2**60), 2**60), min_size=12, max_size=12))
    def test_character_reports(self, order, values):
        report = check_character(CharacterTable(order, tuple(values[:order])))
        assert_writers_match(report)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4), st.integers(0, 2**32), st.sampled_from([2, 3, 5]), st.integers(1, 3))
    def test_matrix_and_exterior_reports(self, dim, seed, p, k):
        f = random_matrix(dim, 4, seed)
        assert_writers_match(check_matrix_congruences(f, p, k))
        assert_writers_match(exterior_levels(f, p, k))

    def test_synthesize_failure_report_carries_its_witness(self):
        with pytest.raises(InvalidTraceSequenceError) as exc:
            synthesize([1, 3, 5, 7, BIG])
        assert exc.value.report == check_trace_sequence([1, 3, 5, 7, BIG], with_witness=True)
        assert exc.value.report.witness is not None
        assert_writers_match(exc.value.report)

    def test_empty_and_policy_free_reports(self):
        assert_writers_match(CongruenceReport(()))
        assert_writers_match(check_trace_sequence([]))
        assert_writers_match(CongruenceReport((_row(2, 2, 1, 1, 0),), {}, (Fraction(1, 2), 3)))
        # a prime past 2^53 - 1 is a string in the row and in the policy, like n and the modulus
        big_p = check_matrix_congruences(IntMatrix.from_rows([[1]]), BIG + 5, 1)
        assert_writers_match(big_p)
        payload = json.loads(cli_json(big_p))
        assert payload["checks"][0]["p"] == payload["policy"]["p"] == str(BIG + 5)

    def test_json_safe_edges_in_every_integer_field(self):
        base = {"n": 4, "p": 2, "k": 2, "lhs": 5, "rhs": 1, "modulus": 4}
        fields = ("n", "p", "lhs", "rhs", "modulus")
        rows = tuple(CongruenceRow(**{**base, field: v, "passed": v > 0}) for field in fields for v in EDGES)
        policy = {"kind": "edges", **{f"v{i}": v for i, v in enumerate(EDGES)}}
        report = CongruenceReport(rows, policy, (*EDGES, Fraction(-BIG, 3)))
        assert_writers_match(report)
        lhs = [row["lhs"] for row in json.loads(cli_json(report))["checks"][8:12]]
        assert lhs == [BIG - 1, str(BIG), 1 - BIG, str(-BIG)]

    @pytest.mark.parametrize("traces", [[1, 3, 4, 7], [0, 1, -BIG, 2**80]])
    def test_cli_bytes(self, capsys, monkeypatch, traces):
        report = check_trace_sequence(traces)
        text = ",".join(map(str, traces))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        main(["check-traces", "-"])
        assert capsys.readouterr().out == report_text_by_rows(report) + "\n"
        main(["check-traces", text, "--format", "json"])
        want = json.dumps(report_json_by_rows(report), separators=(",", ":"))
        assert capsys.readouterr().out == want + "\n"


class TestRow:
    ARGS = (12, 2, 2, BIG + 1, -(2**70), 4)

    def test_fast_row_equals_constructed_row(self):
        n, p, k, lhs, rhs, modulus = self.ARGS
        fast = _row(n, p, k, lhs, rhs)
        slow = CongruenceRow(n, p, k, lhs, rhs, modulus, (lhs - rhs) % modulus == 0)
        assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
        assert vars(fast) == vars(slow)
        for row in (fast, slow):
            assert pickle.loads(pickle.dumps(row)) == row
            assert dataclasses.replace(row, lhs=lhs + 1) == CongruenceRow(n, p, k, lhs + 1, rhs, modulus, False)
            with pytest.raises(dataclasses.FrozenInstanceError):
                row.lhs = 0
        assert dataclasses.is_dataclass(fast) and dataclasses.astuple(fast) == dataclasses.astuple(slow)


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(
        st.integers(),
        st.integers(-(2**54), 2**54),
        st.sampled_from([0, BIG - 1, BIG, -BIG + 1, -BIG, True, False]),
        st.fractions(),
        st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80)),
    )
)
def test_encode_scalar_bytes(value):
    assert json.dumps(encode_scalar(value)) == json.dumps(json_scalar(value))


class TestOverall:
    def test_read_once_and_recomputed_by_replace(self):
        report = check_trace_sequence([1, 3, 4, 7])
        assert report.overall
        failing = dataclasses.replace(report, checks=(*report.checks, _row(2, 2, 1, 1, 0)))
        assert not failing.overall and report.overall
        assert dataclasses.replace(failing, checks=report.checks).overall
        assert pickle.loads(pickle.dumps(failing)) == failing and not pickle.loads(pickle.dumps(failing)).overall
        assert repr(report) == repr(check_trace_sequence([1, 3, 4, 7]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.overall = False

    @pytest.mark.parametrize("traces, code", [("1,3,4,7", 0), ("0,1", 1), ("5", 0)], ids=["pass", "fail", "no-rows"])
    def test_json_text_and_exit_code_agree(self, capsys, traces, code):
        assert main(["check-traces", traces]) == code
        (verdict,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("overall: ")]
        assert (verdict == "overall: PASS") == (code == 0)
        assert main(["check-traces", traces, "--format", "json"]) == code
        assert json.loads(capsys.readouterr().out)["overall"] == (code == 0)
