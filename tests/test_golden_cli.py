"""Replay of the golden CLI corpus, ``tests/golden_cli.json``: each command's exit
code, stdout and stderr, run in-process as ``tests/golden_cli.py`` recorded them."""

import json

import pytest

from .golden_cli import COMMANDS, GOLDEN, run

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_lists_every_command_in_order():
    # a command added to or dropped from COMMANDS without regenerating the file
    assert [(case["argv"], case["stdin"], "stderr_last_line" in case) for case in CASES] == COMMANDS


@pytest.mark.parametrize("case", CASES, ids=[f"{i:03d}-{' '.join(case['argv'][:1])}" for i, case in enumerate(CASES)])
def test_command_output_is_unchanged(case):
    code, out, err = run(case["argv"], case["stdin"])
    assert code == case["exit"]
    if "stderr_last_line" in case:
        assert err.splitlines()[-1:] == [case["stderr_last_line"]]
    else:
        assert (out, err) == (case["stdout"], case["stderr"])
