"""tracewitt benchmark: one workload, one process, one caller, no threads.

    python3 bench/run.py --workload matrix|sequence|cli --seed N --seconds S --trace 0|1

Set-up imports tracewitt from ``src/`` once untimed, then SETUP_REPEATS
times more, each time after dropping every module the import loaded;
``setup_s`` is the median of those imports.  The workload's inputs are then
generated once, untimed: they come from the benchmark's own code, which no
package change can slow.  After a short warm-up the
run goes through whole passes of the workload's task list in a closed loop
(the next task starts when the previous one returns) until the time spent
inside tasks reaches S seconds.  Each output is checked against the
benchmark's own answers right after its task, outside the timed call.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced passes alternate with traced ones, in which the
package's public functions are wrapped (see spans.py), until S seconds are
spent in tasks; the last line reports the per-layer metrics for one traced
pass, and the spans are written to ``.bench_out/``.  Metric definitions and
their expected effects: NOTES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import re
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from ref import SplitMix64, max_bits
from spans import POST_INIT, TRACED, Tracer
from workloads import WORKLOADS, CliResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 25
WARMUP_TASKS = 5
# The tail latency is the highest of these with at least ten samples beyond
# it.  Runs of every workload take 5000-25000 tasks, so it is p99 throughout.
# p99.9 is left out: a faster commit runs more tasks in the same seconds, and
# would otherwise be compared with its parent at another percentile.
TAIL_LEVELS = (99.0, 90.0, 50.0)

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _layer_metrics() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        ("matrices.mat_mul.calls", "count", "lower"),
        ("matrices.mat_mul.self_s", "s", "lower"),
        ("matrices.mat_mul.word_mults", "count", "lower"),
    ]
    timed = [f"matrices.{f}" for f in ("mat_pow", "compound_matrix", "trace_sequence", "char_poly_coeffs")]
    timed += [POST_INIT]
    timed += [f"newton.{f}" for f in TRACED["newton"]]
    timed += [f"witt.{f}" for f in TRACED["witt"]]
    timed += [f"congruences.{f}" for f in TRACED["congruences"][:4]]
    for name in timed:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for f in TRACED["congruences"][4:]:
        out.append((f"congruences.{f}.self_s", "s", "lower"))
    out += [
        ("matrices.max_bits", "bits", "lower"),
        ("congruences.rows", "count", "lower"),
        ("congruences.synthesize.witness_dim_ratio", "ratio", "higher"),
        ("witt.witt_from_ghost.calls_under_synthesize", "count", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("cli.run_fuzz.self_s", "s", "lower"),
        ("trace_overhead_frac", "frac", "lower"),
    ]
    return tuple(out)


PER_LAYER = _layer_metrics()


class Stats:
    """Latencies and verdicts of the tasks run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []  # the kind of each task, in step with latencies
        self.failed = 0
        self.bits = 0
        self.synth_degree = 0
        self.synth_dim = 0
        self.out_bytes = 0

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)

    def add(self, kind: str, latency: float) -> None:
        self.latencies.append(latency)
        self.kinds.append(kind)

    def busy_shares(self) -> str:
        """Each kind's share of the busy time, largest first."""
        busy: Counter[str] = Counter()
        for kind, latency in zip(self.kinds, self.latencies):
            busy[kind] += latency
        return ", ".join(f"{k} {v / self.busy:.3f}" for k, v in busy.most_common())


def _output_bits(out) -> int:
    if isinstance(out, CliResult):
        return max((int(d).bit_length() for d in re.findall(r"\d+", out.out)), default=0)
    if hasattr(out, "checks"):
        values = [v for r in out.checks for v in (r.lhs, r.rhs)] + list(out.witness or ())
        return max_bits(values)
    if hasattr(out, "entries"):
        return max_bits(v for row in out.entries for v in row)
    if isinstance(out, tuple):
        return max_bits(out)
    return 0  # a rejection carries no output values


def _witness_dim(out) -> int:
    if isinstance(out, CliResult):
        return json.loads(out.out)["dim"] if out.code == 0 else 0
    return getattr(out, "dim", 0)


def run_tasks(tasks, stats: Stats, observe: bool = False) -> None:
    """One closed-loop pass: time each call, then check its output."""
    for task in tasks:
        start = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # an unexpected raise is a failed task
            stats.add(task.kind, time.perf_counter() - start)
            stats.failed += 1
            print(f"task {task.kind} raised {exc!r}", file=sys.stderr)
            continue
        stats.add(task.kind, time.perf_counter() - start)
        try:
            ok = task.passes(out)
        except Exception as exc:  # an unparsable output fails its check
            print(f"check of {task.kind} raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            stats.failed += 1
            print(f"task {task.kind} gave a wrong answer", file=sys.stderr)
        if observe:
            stats.bits = max(stats.bits, _output_bits(out))
            if task.degree and _witness_dim(out):
                stats.synth_degree += task.degree
                stats.synth_dim += _witness_dim(out)
            if isinstance(out, CliResult):
                stats.out_bytes += len(out.out.encode())


def run_passes(tasks, seconds: float) -> Stats:
    stats = Stats()
    while stats.busy < seconds:
        run_tasks(tasks, stats)
    return stats


def setup(workload, seed: int):
    """(tracewitt, input specs, median import time, generation time).

    Each import starts from the modules loaded before the first, so the
    standard-library modules that only tracewitt pulls in count too.
    """
    preloaded = {n for n in sys.modules if n != "tracewitt" and not n.startswith("tracewitt.")}
    times = []
    for _ in range(SETUP_REPEATS + 1):
        for name in [n for n in sys.modules if n not in preloaded]:
            del sys.modules[name]
        gc.collect()  # free the dropped modules, so re-imports do not pile up memory
        start = time.perf_counter()
        for module in workload.modules:
            importlib.import_module(module)
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    specs = workload.generate(SplitMix64(seed))
    generate_s = time.perf_counter() - start
    return sys.modules["tracewitt"], specs, statistics.median(times[1:]), generate_s


def tail_latency(stats: Stats) -> tuple[float, float, list[str]]:
    """(percentile, value, kinds of the samples beyond it) for the highest
    TAIL_LEVELS entry with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(zip(stats.latencies, stats.kinds))
    n = len(ordered)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100 * n)
        if n - rank >= 10:
            return level, ordered[rank - 1][0], [kind for _, kind in ordered[rank:]]
    return 100.0, ordered[-1][0], []


def _counts(kinds: list[str]) -> str:
    return ", ".join(f"{k} {v}" for k, v in Counter(kinds).most_common())


def end_to_end(stats: Stats, setup_s: float) -> tuple[dict, list[str]]:
    level, tail, beyond = tail_latency(stats)
    n = len(stats.latencies)
    values = {
        "setup_s": setup_s,
        "tasks_per_s": n / stats.busy,
        "latency_p50_ms": statistics.median(stats.latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"latency_tail_ms is p{level:g} of {n} tasks, {len(beyond)} beyond it: {_counts(beyond)}",
        f"failed_frac {stats.failed / n:.6g} frac ({stats.failed} of {n})",
        f"busy share by kind: {stats.busy_shares()}",
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def per_layer(tracer: Tracer, traced: Stats, untraced: Stats, rounds: int) -> dict:
    """Per-layer numbers for one traced pass (the traced passes are identical)."""
    calls, self_s = tracer.totals()
    discarded = tracer.calls_under("witt.witt_from_ghost", "congruences.synthesize")
    rate = len(traced.latencies) / traced.busy
    untraced_rate = len(untraced.latencies) / untraced.busy
    values = {
        "matrices.mat_mul.word_mults": tracer.word_mults // rounds,
        "matrices.max_bits": traced.bits,
        "congruences.rows": tracer.rows // rounds,
        # 0 when the workload runs no synthesize that returns a matrix.
        "congruences.synthesize.witness_dim_ratio": traced.synth_degree / traced.synth_dim if traced.synth_dim else 0.0,
        "witt.witt_from_ghost.calls_under_synthesize": discarded // rounds,
        "cli.output_bytes": traced.out_bytes // rounds,
        "trace_overhead_frac": 1 - rate / untraced_rate,
    }
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls.get(span, 0) // rounds
        elif field == "self_s":
            values[name] = self_s.get(span, 0.0) / rounds
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tracewitt" / "__init__.py").is_file():
        print(f"error: no tracewitt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tw, specs, setup_s, generate_s = setup(workload, args.seed)
    if not Path(tw.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported tracewitt from {tw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tasks = workload.bind(specs, tw)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_tasks(tasks[:WARMUP_TASKS], Stats())

    if not args.trace:
        stats = run_passes(tasks, args.seconds)
        metrics, notes = end_to_end(stats, setup_s)
        attempted, failed = len(stats.latencies), stats.failed
    else:
        # Untraced and traced passes alternate, so drift in the machine's
        # speed cancels out of trace_overhead_frac.
        tracer = Tracer()
        traced_tasks = [dataclasses.replace(t, run=tracer.wrap(f"task.{t.kind}", t.run)) for t in tasks]
        untraced, traced = Stats(), Stats()
        rounds = 0
        while rounds == 0 or untraced.busy + traced.busy < args.seconds:
            run_tasks(tasks, untraced)
            tracer.install()
            run_tasks(traced_tasks, traced, observe=True)
            tracer.uninstall()
            rounds += 1
        metrics = per_layer(tracer, traced, untraced, rounds)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        notes = [
            f"per-layer numbers are for one traced pass; {rounds} traced passes ran",
            f"spans written to {spans.relative_to(ROOT)}",
            "no layer queues work, so no wait time is reported",
        ]
        attempted = len(untraced.latencies) + len(traced.latencies)
        failed = untraced.failed + traced.failed
    notes += [
        f"inputs generated in {generate_s:.3f} s (not part of setup_s)",
        f"peak rss before the first task {rss_before:.1f} MB",
    ]

    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(note)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
