"""Self-test of the benchmark: its checker counts wrong outputs as failures.

    python3 bench/selftest.py

For each workload it runs one pass with genuine outputs (no failure
allowed), then one pass in which every third output is corrupted before the
check, and requires the failure count to equal the number corrupted.  It
also requires BENCHMARK.json to list exactly the metrics run.py reports.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import run
from workloads import WORKLOADS, CliResult, Task


def corrupt(out, tw):
    """A wrong version of one task output."""
    if isinstance(out, CliResult):
        if out.code:
            return dataclasses.replace(out, code=0)
        first = re.search(r"\d", out.out)
        digit = str((int(first.group()) + 1) % 10)
        return dataclasses.replace(out, out=out.out[: first.start()] + digit + out.out[first.end() :])
    if isinstance(out, tw.InvalidTraceSequenceError):
        return ()
    if isinstance(out, tw.IntMatrix):
        rows = [list(row) for row in out.entries]
        rows[0][0] += 1
        return tw.IntMatrix.from_rows(rows)
    if isinstance(out, tw.CongruenceReport):
        last = dataclasses.replace(out.checks[-1], lhs=out.checks[-1].lhs + 1)
        return dataclasses.replace(out, checks=out.checks[:-1] + (last,))
    return out[:-1] + (out[-1] + 1,)


def check_workload(name: str) -> list[str]:
    workload = WORKLOADS[name]
    tw, specs, _, _ = run.setup(workload, seed=1)
    tasks = workload.bind(specs, tw)
    errors = []

    genuine = run.Stats()
    run.run_tasks(tasks, genuine)
    if genuine.failed:
        errors.append(f"{name}: {genuine.failed} genuine outputs failed their check")

    def spoiled(task: Task) -> Task:
        return Task(task.kind, lambda: corrupt(task.run(), tw), task.check)

    corrupted = [spoiled(t) if i % 3 == 0 else t for i, t in enumerate(tasks)]
    stats = run.Stats()
    run.run_tasks(corrupted, stats)
    want = len(range(0, len(tasks), 3))
    if stats.failed != want:
        errors.append(f"{name}: {stats.failed} failures counted for {want} corrupted outputs")
    return errors


def check_manifest() -> list[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    if sorted(w["name"] for w in manifest["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in manifest["end_to_end"]] != list(run.END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] != list(run.PER_LAYER):
        errors.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return errors


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    errors = check_manifest()
    for name in WORKLOADS:
        errors += check_workload(name)
        print(f"{name}: checked", file=sys.stderr)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
