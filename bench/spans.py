"""Spans around tracewitt's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every binding site in
the loaded ``tracewitt`` modules (``tracewitt.mat_pow``,
``tracewitt.matrices.mat_pow`` and the name ``congruences`` imported are
all the same wrapper), plus ``IntMatrix.__post_init__`` on the class, and
``Tracer.uninstall`` puts the originals back.  Only the traced run calls
them; the untraced run never wraps anything.

Each call records a span: id, parent id, name, start and end (ns), and its
self time, which is the span minus the time its child calls took.  Spans are
kept in memory and written out by ``Tracer.write``.  Nothing in the package
queues, so there is no wait time to record.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

TRACED = {
    "matrices": ("mat_mul", "mat_pow", "compound_matrix", "trace_sequence", "char_poly_coeffs"),
    "newton": ("traces_to_elementary", "elementary_to_traces", "integrality_check"),
    "witt": ("witt_from_ghost", "ghost_from_witt", "coeffs_to_witt", "witt_to_coeffs", "divisors"),
    "congruences": (
        "check_trace_sequence",
        "prime_power_split",
        "is_prime",
        "synthesize",
        "check_matrix_congruences",
        "check_exterior_congruence",
        "exterior_via_compound",
        "check_character",
    ),
    "cli": ("main", "run_fuzz"),
}
POST_INIT = "matrices.IntMatrix.post_init"
_REPORTS = {
    "congruences.check_trace_sequence",
    "congruences.check_matrix_congruences",
    "congruences.check_exterior_congruence",
    "congruences.exterior_via_compound",
    "congruences.check_character",
}


def _entry_bits(matrix) -> int:
    rows = matrix.entries
    if not rows:
        return 0
    return max(max(map(max, rows)), -min(map(min, rows))).bit_length()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {c: array("q") for c in ("id", "parent", "name", "start", "end", "self")}
        self.stack = [[0, -1]]  # frames: [ns spent in child calls, span id]
        self.ids = itertools.count()
        self.word_mults = 0  # computed: dim^3 * ceil(bits_a/64) * ceil(bits_b/64) per mat_mul
        self.rows = 0  # congruence rows in every report a check returned
        self.patches: list[tuple] | None = None

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(args, result)`` runs
        after the span closes and is charged to neither span."""
        name_id = self._name_id(name)
        stack, ids, c = self.stack, self.ids, self.cols
        col_id, col_parent, col_name = c["id"].append, c["parent"].append, c["name"].append
        col_start, col_end, col_self = c["start"].append, c["end"].append, c["self"].append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter_ns()
            parent = stack[-1]
            frame = [0, next(ids)]
            stack.append(frame)
            done = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                col_id(frame[1])
                col_parent(parent[1])
                col_name(name_id)
                col_start(start)
                col_end(end)
                col_self(end - start - frame[0])
                if done and hook is not None:
                    hook(args, result)
                parent[0] += perf_counter_ns() - entered

        return wrapper

    def install(self) -> None:
        if self.patches is None:
            self.patches = self._patches()
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding site."""
        wrappers = {}
        for short, funcs in TRACED.items():
            module = sys.modules.get(f"tracewitt.{short}")
            for fname in funcs if module else ():
                original = getattr(module, fname)
                name = f"{short}.{fname}"
                wrappers[id(original)] = (original, self.wrap(name, original, self._hook(name)))
        patches = []
        for module_name, module in list(sys.modules.items()):
            if module_name == "tracewitt" or module_name.startswith("tracewitt."):
                for attr, value in vars(module).items():
                    if id(value) in wrappers:
                        patches.append((module, attr, *wrappers[id(value)]))
        int_matrix = sys.modules["tracewitt.matrices"].IntMatrix
        post_init = int_matrix.__post_init__
        patches.append((int_matrix, "__post_init__", post_init, self.wrap(POST_INIT, post_init)))
        return patches

    def _hook(self, name: str):
        if name == "matrices.mat_mul":

            def count_words(args, result):
                a, b = args
                self.word_mults += a.dim**3 * -(-_entry_bits(a) // 64) * -(-_entry_bits(b) // 64)

            return count_words
        if name in _REPORTS:

            def count_rows(args, result):
                self.rows += len(result.checks)

            return count_rows
        return None

    # --- derived numbers ---------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Calls and self seconds per span name."""
        calls: dict = defaultdict(int)
        self_ns: dict = defaultdict(int)
        for name_id, s in zip(self.cols["name"], self.cols["self"]):
            calls[self.names[name_id]] += 1
            self_ns[self.names[name_id]] += s
        return dict(calls), {k: v / 1e9 for k, v in self_ns.items()}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with a span named ``ancestor`` above them."""
        parent_of = dict(zip(self.cols["id"], self.cols["parent"]))
        name_of = {sid: self.names[n] for sid, n in zip(self.cols["id"], self.cols["name"])}
        count = 0
        for sid, n in name_of.items():
            if n != name:
                continue
            up = parent_of[sid]
            while up != -1 and name_of[up] != ancestor:
                up = parent_of[up]
            count += up != -1
        return count

    def write(self, path) -> None:
        """Spans as tab-separated text: id, parent, name, start_ns, end_ns, self_ns."""
        c = self.cols
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for row in zip(c["id"], c["parent"], c["name"], c["start"], c["end"], c["self"]):
                fh.write(f"{row[0]}\t{row[1]}\t{self.names[row[2]]}\t{row[3]}\t{row[4]}\t{row[5]}\n")
