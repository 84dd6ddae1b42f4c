"""Golden CLI corpus: the exit code, stdout and stderr of every command in ``COMMANDS``.

    PYTHONPATH=src python3 tests/golden_cli.py

runs each command through ``tracewitt.cli.main`` in-process, with its stdin and
``COLUMNS=80``, and writes ``tests/golden_cli.json``; ``tests/test_golden_cli.py``
replays the file.  A change that alters CLI output regenerates it and records the
change in CHANGES.md.  Importing this module runs nothing.

Each case carries its test id.  Regenerating keeps the id a command already has, so
adding or deleting a command renames no other test; a new command is named by its
argv, a digest of its stdin, and a count for a repeat.

Bytes that Python itself words are not pinned, so that one file holds on every
supported version: a command marked ``tail`` (an argparse usage error, or an error
whose text comes from the JSON decoder or an ``OSError``) pins only its exit code and
the last line of stderr, and no ``--help`` is listed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from tracewitt.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
JSON = ("--format", "json")
FIB = '{"dim": 2, "entries": [[0, 1], [1, 1]]}'
EMPTY = '{"dim": 0, "entries": []}'
IDENTITY = '{"dim": 3, "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'
THREE = '{"dim": 3, "entries": [[1, -2, 0], [3, 1, 2], [-1, 0, 2]]}'
BIG = '{"dim": 1, "entries": [["123456789012345678901234567890"]]}'
REGULAR = '{"order": 6, "values": {"0": 6, "1": 0, "2": 0, "3": 0, "4": 0, "5": 0}}'
STANDARD = '{"order": 3, "values": {"0": 2, "1": -1, "2": -1}}'
CORRUPT = '{"order": 4, "values": {"0": 3, "1": 1, "2": 1, "3": 1}}'


def _commands() -> list[tuple[list[str], str, bool]]:
    """(argv, stdin, tail) of each command, in file order."""
    out = []

    def cmd(*argv: str, stdin: str = "", tail: bool = False, json_too: bool = False) -> None:
        out.append((list(argv), stdin, tail))
        if json_too:
            out.append(([*argv, *JSON], stdin, tail))

    passing = ("1,3", "1,3,4,7,11,18,29", "1 3 4 7", "1, 3", "", "5", "2,4,8,16")
    for values in (*passing, "0,1", "-2,3", "1,2,3,4,5,6,7,8"):
        cmd("check-traces", values, json_too=True)
    cmd("check-traces", "-", stdin="1,3,4,7\n", json_too=True)
    cmd("check-traces", "-", stdin="")
    cmd("check-traces", "+1,0003")
    for bad in ("1,x", "1_0,2", "١٢,3", "x" * 60, "1,,3", "1,3,", " , ", ",1"):
        cmd("check-traces", bad)
    cmd("check-traces", "-", stdin="1,3,\n")
    cmd("check-traces", tail=True)

    for values in ("1,3", "2,4,8,16", "2", "1,3,4,7", "", "-1,-1,-1,3"):
        cmd("synthesize", values)
    cmd("synthesize", "-", stdin="1 3 4 7 11\n")
    cmd("synthesize", "0,1", json_too=True)
    cmd("synthesize", "1,2,3,4,5")
    for bad in ("1,a", ",2", "2,4,,8"):
        cmd("synthesize", bad)

    # a value command prints one comma-separated line: its --format json twin is a usage error
    for values in ("0,1", "2,4,8,16", "1,3,4,7", "1", ""):
        cmd("witt", values)
        cmd("witt", values, *JSON, tail=True)
    for bad in ("1/2", ",2", "1,2,", "2,4_0"):
        cmd("witt", bad)

    ghosts = (("1", "3"), ("0,1/2", "2"), ("-.5", "2"), ("-.5,.25", "3"), ("-1/2", "3"), (".5,.25", "4"))
    for values, count in (*ghosts, ("1", "0"), ("2,1", "6")):
        cmd("ghost", values, "--count", count)
        cmd("ghost", values, "--count", count, *JSON, tail=True)
    cmd("ghost", "1/2,.5,+3,-0.25,007,2e1", "--count", "1")
    for bad in ("1,,2", "1/0", "1/2_0", "1,"):
        cmd("ghost", bad, "--count", "2")
    for count in ("-1", "1_0", "x"):
        cmd("ghost", "1", "--count", count, tail=True)
    cmd("ghost", "1", tail=True)

    for matrix, count in ((FIB, "6"), (FIB, "0"), (EMPTY, "3"), (THREE, "8"), (BIG, "3")):
        cmd("traces", "-", "--count", count, stdin=matrix)
        cmd("traces", "-", "--count", count, *JSON, stdin=matrix, tail=True)
    for bad in (
        '{"dim": 2, "entries": [[1]]}',
        '{"dim": 1, "entries": [[true]]}',
        '{"dim": 1}',
        "[1]",
        '{"dim": 1, "entries": [["1_0"]]}',
        '{"dim": 1, "entries": [[1]], "extra": 0}',
    ):
        cmd("traces", "-", "--count", "3", stdin=bad)
    cmd("traces", "-", "--count", "3", stdin="", tail=True)
    cmd("traces", "-", "--count", "3", stdin="{not json", tail=True)
    cmd("traces", "no-such-dir/matrix.json", "--count", "3", tail=True)
    cmd("traces", "-", stdin=FIB, tail=True)

    for matrix in (FIB, EMPTY, THREE, BIG, IDENTITY):
        cmd("charpoly", "-", stdin=matrix)
        cmd("charpoly", "-", *JSON, stdin=matrix, tail=True)
    cmd("charpoly", "-", stdin='{"dim": 1, "entries": 5}')
    cmd("charpoly", "-", stdin='{"dim": -1, "entries": []}')

    for table in (REGULAR, CORRUPT, '{"order": 1, "values": {"0": 7}}', STANDARD):
        cmd("check-character", "-", stdin=table, json_too=True)
    for bad in (
        '{"order": 2, "values": {"0": 1}}',
        '{"order": 1, "values": {"0": 1, "x": 2}}',
        '{"order": 0, "values": {}}',
        '{"values": {}}',
    ):
        cmd("check-character", "-", stdin=bad)
    cmd("check-character", "-", stdin="[", tail=True)

    exteriors = ((FIB, "2", "2"), (FIB, "3", "1"), (THREE, "2", "3"), (THREE, "5", "1"), (EMPTY, "2", "1"))
    for matrix, prime, kmax in exteriors:
        cmd("check-exterior", "-", "--prime", prime, "--kmax", kmax, stdin=matrix, json_too=True)
    cmd("check-exterior", "-", "--prime", "2", stdin=FIB)
    for prime, kmax in (("4", "1"), ("2", "0"), ("1_1", "1"), ("3317044064679887385961981", "1")):
        cmd("check-exterior", "-", "--prime", prime, "--kmax", kmax, stdin=FIB, tail=True)
    cmd("check-exterior", "-", stdin=FIB, tail=True)

    for trials, dim, seed in (("3", "2", "7"), ("2", "0", "0"), ("2", "1", "3"), ("1", "4", "11")):
        cmd("fuzz", "--trials", trials, "--dim", dim, "--seed", seed, json_too=True)
    cmd("fuzz", "--trials", "2", "--dim", "3", "--entry-bound", "1", tail=True)  # entries are always in [-3, 3]
    for option, value in (("--trials", "0"), ("--entry-bound", "0"), ("--dim", "-1")):
        cmd("fuzz", option, value, tail=True)

    cmd(tail=True)

    # added after the first 160, so that earlier commands keep their indices
    for values in ("1,3 4,7", "1 2,3", "1,3 4,,7", " 1 , 3 "):
        cmd("check-traces", values)
    cmd("check-traces", "-", stdin="1,3 4\n")
    cmd("synthesize", "1,3\t4")
    cmd("witt", "1,2 3")
    cmd("ghost", "1/2 1,3", "--count", "2")
    # a leftover argument is an error of the parser that left it
    cmd("check-traces", "1,3", "--bogus", tail=True)
    cmd("check-traces", "1,3", "4", tail=True)
    cmd("check-traces", "1,3", "-2", tail=True)
    cmd("fuzz", "--bogus", tail=True)
    cmd("--bogus", "check-traces", "1,3", tail=True)
    return out


COMMANDS = _commands()


def run(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``main(argv)`` in-process, reading ``stdin``, at ``COLUMNS=80``.
    A usage error's ``SystemExit`` gives its code, as a process would."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(argv: list[str], stdin: str, tail: bool) -> dict:
    """The corpus entry of one command: all of stdout and stderr, or for ``tail`` the last stderr line."""
    code, out, err = run(argv, stdin)
    pinned = {"stderr_last_line": err.splitlines()[-1]} if tail else {"stdout": out, "stderr": err}
    return {"argv": argv, "stdin": stdin, "exit": code, **pinned}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def new_id(argv: list[str], stdin: str, taken: set[str]) -> str:
    """The test id of a command new to the corpus, under 80 characters as pytest prints it: the
    argv (past 60 characters cut to 52 and a digest of the whole), ``<`` and a digest of a
    nonempty stdin, and `` #2``, `` #3``, ... when that id is taken."""
    text = " ".join(argv).encode("ascii", "backslashreplace").decode() or "(no arguments)"
    if len(text) > 60:
        text = f"{text[:52]}~{_digest(text)}"
    if stdin:
        text += f" <{_digest(stdin)}"
    name, count = text, 1
    while name in taken:
        count += 1
        name = f"{text} #{count}"
    return name


def case_ids(commands: list[tuple[list[str], str, bool]], recorded: list[dict]) -> list[str]:
    """The id of each command: the one ``recorded`` gives its argv and stdin, else a new one."""
    known = {(tuple(case["argv"]), case["stdin"]): case["id"] for case in recorded}
    taken = set(known.values())
    ids = []
    for argv, stdin, _ in commands:
        ids.append(known.get((tuple(argv), stdin)) or new_id(argv, stdin, taken))
        taken.add(ids[-1])
    return ids


def main() -> None:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []
    ids = case_ids(COMMANDS, recorded)
    cases = [{"id": i, **record(argv, stdin, tail)} for i, (argv, stdin, tail) in zip(ids, COMMANDS)]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} commands to {GOLDEN.name}")


if __name__ == "__main__":
    main()
