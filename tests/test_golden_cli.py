"""Replay of the golden CLI corpus, ``tests/golden_cli.json``: each command's exit
code, stdout and stderr, run in-process as ``tests/golden_cli.py`` recorded them."""

import json

import pytest

from .golden_cli import COMMANDS, GOLDEN, case_ids, run

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_lists_every_command_in_order():
    # a command added to or dropped from COMMANDS without regenerating the file
    assert [(case["argv"], case["stdin"], "stderr_last_line" in case) for case in CASES] == COMMANDS
    assert len({case["id"] for case in CASES}) == len(CASES)


def test_ids_survive_a_deletion_and_stay_short():
    ids = [case["id"] for case in CASES]
    for gone in (0, 48, len(CASES) - 1):
        assert case_ids(COMMANDS[:gone] + COMMANDS[gone + 1 :], CASES) == ids[:gone] + ids[gone + 1 :]
    # named afresh, as a new command is: argv and a digest of stdin, one id per command
    fresh = case_ids(COMMANDS, [])
    assert len(set(fresh)) == len(fresh) and max(map(len, fresh)) < 80
    assert fresh[0] == "check-traces 1,3"
    assert case_ids(COMMANDS[:1] * 3, []) == ["check-traces 1,3", "check-traces 1,3 #2", "check-traces 1,3 #3"]


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_command_output_is_unchanged(case):
    code, out, err = run(case["argv"], case["stdin"])
    assert code == case["exit"]
    if "stderr_last_line" in case:
        assert err.splitlines()[-1:] == [case["stderr_last_line"]]
    else:
        assert (out, err) == (case["stdout"], case["stderr"])
