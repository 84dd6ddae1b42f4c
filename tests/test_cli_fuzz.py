"""Hypothesis fuzz of the command line, run in-process on malformed input.

Whatever the argv, stdin or JSON, ``main`` must exit 0, 1 or 2, print no
traceback, and keep stderr to at most 500 characters.  Every input is
bounded so that each call stays well under a second: tokens have at most 40
characters, input comes from stdin only, and the sizes that drive the work
(``--count``, ``--prime`` with ``--kmax``, ``fuzz --trials/--dim``) come from
small ranges.  ``traces`` allocates nothing up front, so a huge ``--count``
there would append until memory runs out; it is never drawn.
"""

import argparse
import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracewitt.cli import build_parser, main

# No digit of any script, so a junk token never reads as a number: numbers
# come only from the bounded strategies below.  ODD holds tokens that the
# grammar refuses, two whose repr is long ("\U000e0000" has 10 characters),
# and three odd forms that it reads, as 1 or 0: any larger value could stand
# for a bounded size (`--kmax " 7 "` with `--prime 11` checks levels up to
# 11^7, which never ends).
JUNK = st.text(max_size=40).filter(lambda s: not any(c.isdigit() for c in s))
ODD = st.sampled_from(
    ["1_0", "١٢", "１", " 1 ", "+1", "-0", "1/0", "2e1", ".5", "0x10", "nan", "-", "", "\x00" * 40, "\U000e0000" * 40]
)
SMALL = st.integers(-3, 3)
BIG = st.integers(-(10**39), 10**39)  # at most 40 characters
FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "text"], ["--format", "xml"]])
JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.floats() | SMALL | JUNK | ODD,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JUNK, inner, max_size=3),
    max_leaves=8,
)


def mostly(valid, flawed):
    """``valid`` three times in four, else ``flawed``: most inputs get past the first check."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else flawed)


def flaw(draw):
    return draw(mostly(st.just(False), st.just(True)))


def option(name, values):
    return mostly(values.map(str), JUNK | ODD).map(lambda value: [name, value])


def sequence(token):
    return mostly(st.lists(token, max_size=12).map(",".join), JUNK | ODD)


@st.composite
def matrix_json(draw, entry, junk):
    n = draw(st.integers(0, 3))
    entry = draw(mostly(st.just(entry), st.just(entry | junk)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if rows and flaw(draw):
        rows[-1] = rows[-1][:-1]  # ragged
    dim = draw(mostly(st.just(n), st.sampled_from([n + 1, -1, str(n), True, 10**12])))
    obj = {"dim": dim, "entries": rows}
    if flaw(draw):
        obj[draw(JUNK)] = draw(JSON_JUNK)  # an unknown key, or a replaced one
    return json.dumps(obj)


@st.composite
def table_json(draw):
    order = draw(mostly(st.integers(1, 12), st.integers(-1, 0) | st.sampled_from([10**12, "3", True, 1.5, None])))
    span = range(order) if isinstance(order, int) and 0 <= order <= 12 else range(2)
    entry = draw(mostly(st.just(SMALL | BIG), st.just(SMALL | st.sampled_from([None, 1.5, "x", "1_0", [1]]))))
    values = {str(e): draw(entry) for e in span}
    if values and flaw(draw):
        del values[draw(st.sampled_from(sorted(values)))]
    if flaw(draw):
        values[draw(JUNK | st.integers(-1, 20).map(str))] = 1
    obj = {"order": order, "values": values}
    if flaw(draw):
        obj[draw(JUNK)] = draw(JSON_JUNK)
    return json.dumps(obj)


def stdin_json(valid):
    return mostly(valid, JSON_JUNK.map(json.dumps) | st.text(max_size=200))


@st.composite
def exterior_options(draw):
    # p^kmax at most 10^4: the checked levels' integers grow like p^kmax
    kmax = draw(st.integers(-1, 3))
    bound = int(10 ** (4 / max(kmax, 1)))
    prime = draw(mostly(st.sampled_from([p for p in (2, 3, 5, 7, 11, 97, 9973) if p <= bound]), st.integers(-3, bound)))
    return [draw(option("--prime", st.just(prime))), draw(option("--kmax", st.just(kmax)))]


MATRIX_SMALL = matrix_json(SMALL, st.sampled_from([None, 1.5, True, "2", " -1 ", "1_0", "٣", [1]]))
INTEGERS = sequence(mostly(BIG.map(str), JUNK | ODD))
COMMANDS = {
    "check-traces": st.tuples(INTEGERS, st.just([])),
    "synthesize": st.tuples(INTEGERS, st.just([])),
    "witt": st.tuples(INTEGERS, st.just([])),
    "ghost": st.tuples(
        sequence(mostly(st.fractions(-3, 3, max_denominator=5).map(str), JUNK | ODD)),
        st.tuples(option("--count", st.integers(-3, 2000) | st.just(2**62))),
    ),
    "traces": st.tuples(stdin_json(MATRIX_SMALL), st.tuples(option("--count", st.integers(-3, 2000)))),
    "charpoly": st.tuples(stdin_json(matrix_json(BIG | BIG.map(str), JUNK)), st.just([])),
    "check-exterior": st.tuples(stdin_json(MATRIX_SMALL), exterior_options()),
    "check-character": st.tuples(stdin_json(table_json()), st.just([])),
    "fuzz": st.tuples(
        st.just(""),
        st.tuples(
            option("--trials", st.integers(-1, 3)),
            option("--dim", st.integers(-1, 4)),
            option("--seed", BIG),
        ),
    ),
}
JSON_COMMANDS = {"traces", "charpoly", "check-exterior", "check-character"}
(SUBCOMMANDS,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
REPORT_COMMANDS = {name for name, p in SUBCOMMANDS.items() if any(a.dest == "format" for a in p._actions)}


def call_main(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err) <= 500


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_commands_on_malformed_input(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    payload, options = data.draw(COMMANDS[command], label="input")
    through_stdin = command in JSON_COMMANDS or data.draw(st.booleans(), label="stdin")
    if command == "fuzz":
        positional, stdin = [], ""
    elif through_stdin:
        positional, stdin = ["-"], payload
    else:
        positional, stdin = [payload], ""
    # an option keeps its value next to it, so no bounded value lands on another option
    groups = [positional, *options, data.draw(FORMAT) if command in REPORT_COMMANDS else []]
    groups = data.draw(st.permutations(groups), label="order")
    code, _, err = call_main([command, *(token for group in groups for token in group)], stdin)
    assert_clean(code, err)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.sampled_from(sorted(COMMANDS)) | JUNK | ODD, max_size=6),
    st.text(max_size=200),
)
def test_arbitrary_argv_tokens(argv, stdin):
    code, _, err = call_main(argv, stdin)
    assert_clean(code, err)


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["charpoly", "-"], "[" * 100_000 + "]" * 100_000, 2),
        (["check-character", "-"], "{" * 100_000, 2),
        (["check-character", "-"], json.dumps({"order": 10**12, "values": {"0": 1}}), 2),
        (["traces", "-", "--count", "3"], json.dumps({"dim": 10**12, "entries": []}), 2),
        (["ghost", "1", "--count", str(2**62)], "", 2),
        (["fuzz", "--trials", "3", "--dim", "4", "--entry-bound", "9" * 40], "", 2),  # entries are always in [-3, 3]
        (["check-exterior", "-", "--prime", "9973", "--kmax", "1"], '{"dim":2,"entries":[[0,1],[1,1]]}', 0),
    ],
    ids=["deep-list", "deep-object", "huge-order", "huge-dim", "huge-ghost-count", "huge-entry-bound", "big-prime"],
)
def test_fixed_cases(argv, stdin, code):
    got, _, err = call_main(argv, stdin)
    assert got == code
    assert_clean(got, err)
