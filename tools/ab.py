"""Paired A/B of this tree's tracewitt against an earlier commit, task by task.

    python3 tools/ab.py --parent <rev> --workload {matrix,sequence,cli}

The parent's ``src/`` is extracted with ``git archive <rev> src | tar -x`` into
a temporary directory, twice, and each tree (the parent, the candidate in this
checkout's ``src/``, and the parent's second copy) is loaded in this one
process as a package of its own.  The benchmark's seeded inputs for the
workload at seed 1 (``bench/workloads.py``, which this script only reads) are
bound to every tree.

Each task then runs on the three trees back to back, each call timed in thread
CPU time.  The order of the three moves on by one of its six permutations
from task to task and from pass to pass, so in its six passes every task runs in
every order: the second of two calls on the same input is often the faster,
by up to half on a short task.  Garbage is collected between tasks, not
inside a timed call, as ``timeit`` does.  Every output is checked with the
task's own checker; the script exits 1 if any check fails.

It prints two JSON lines, candidate/parent and the A/A control copy/parent:
the ratio of the time spent in each kind and in each grid cell (below 1: the
first tree is faster), and the tasks_per_s (above 1: faster), p50 and p99
latency ratios.  Only the standard library is used; this is evidence for a
change, not a gate.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import itertools
import json
import math
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in bench/ or in the extracted trees
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from ref import SplitMix64  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1  # the input seed of the benchmark runs this compares with
PASSES = 6  # one per order of the three trees


def load(name: str, package: Path):
    """The tracewitt package at ``package``, imported as ``name`` with its CLI."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")  # binds module.cli, which the cli workload calls
    return module


def extract(rev: str, into: Path) -> Path:
    """``src/tracewitt`` of ``rev``, written under ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
    if archive.returncode:  # git has said why on stderr
        raise SystemExit(2)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into / "src" / "tracewitt"


def cell(spec: dict) -> tuple:
    return spec["cell"] if "cell" in spec else (spec["n"], len(spec["coeffs"]))


def timed(task) -> tuple[int, bool]:
    """(thread CPU ns of one call, whether its output passed the task's check)."""
    start = time.thread_time_ns()
    try:
        out = task.run()
    except Exception as exc:  # a raise is a failed task, as in bench/run.py
        print(f"task {task.kind} raised {exc!r}", file=sys.stderr)
        return time.thread_time_ns() - start, False
    spent = time.thread_time_ns() - start
    return spent, task.passes(out)


def percentile(values: list[int], level: float) -> int:
    ordered = sorted(values)
    return ordered[max(math.ceil(level / 100 * len(ordered)), 1) - 1]


def summary(label: str, keys: list[tuple[str, str]], base: list[int], other: list[int]) -> dict:
    """Ratios of ``other`` to ``base``, paired task by task."""
    by_kind, by_cell = defaultdict(lambda: [0, 0]), defaultdict(lambda: [0, 0])
    for (kind, where), b, o in zip(keys, base, other):
        for totals in (by_kind[kind], by_cell[f"{kind} {where}"]):
            totals[0] += b
            totals[1] += o
    return {
        "compare": label,
        "tasks": len(base),
        "tasks_per_s": round(sum(base) / sum(other), 4),
        "latency_p50": round(percentile(other, 50) / percentile(base, 50), 4),
        "latency_p99": round(percentile(other, 99) / percentile(base, 99), 4),
        "kinds": {k: round(o / b, 4) for k, (b, o) in sorted(by_kind.items())},
        "cells": {k: round(o / b, 4) for k, (b, o) in sorted(by_cell.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    specs = workload.generate(SplitMix64(SEED))
    keys = [(spec["kind"], str(cell(spec))) for spec in specs] * PASSES
    times: dict[str, list[int]] = {"parent": [], "candidate": [], "copy": []}  # ns per task run, in order
    orders = list(itertools.permutations(times))  # each tree first, second and third equally often
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {
            "parent": load("tw_parent", extract(args.parent, Path(tmp) / "parent")),
            "candidate": load("tw_candidate", ROOT / "src" / "tracewitt"),
            "copy": load("tw_parent_copy", extract(args.parent, Path(tmp) / "copy")),
        }
        tasks = {name: workload.bind(specs, tw) for name, tw in trees.items()}
        if any(len(bound) != len(specs) for bound in tasks.values()):
            raise SystemExit("error: the workload binds other than one task per input")
        gc.disable()  # as timeit does: a collection lands in no timed call, but between tasks
        gc.freeze()  # the inputs and the trees stay put, so those collections need not walk them
        for run in range(len(keys)):
            i = run % len(specs)
            for name in orders[(i + run // len(specs)) % len(orders)]:
                spent, ok = timed(tasks[name][i])
                times[name].append(spent)
                if not ok:
                    failed += 1
                    print(f"{name}: task {i} ({keys[i][0]}) failed its check", file=sys.stderr)
            gc.collect()
    for label, other in (("candidate/parent", "candidate"), ("copy/parent (A/A)", "copy")):
        line = summary(label, keys, times["parent"], times[other])
        print(json.dumps({"workload": args.workload, **line}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
