"""Tracing for the per-layer run.

Wraps public functions of ``logrewrite`` in every module namespace that
binds them (the modules import each other's functions by name), records
one span per call in memory, and counts work at the same boundaries.
Nothing here runs in an untraced run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# timed functions, by layer (module); "Class.method" wraps the method
TIMED = {
    "presentation": ("parse_presentation",),
    "rewriting": ("complete_presentation", "find_overlaps", "process_overlap", "logged_reduce"),
    "orderings": ("OrderSpec.compare",),
    "ysequences": ("act", "peiffer_closure", "cancel_adjacent", "is_primary_identity"),
    "identities": ("build_cayley_graph", "compute_k1", "separation_identity", "simplify_identity_list"),
}
# free-group kernel: counted only, a span per call would swamp the trace
COUNTED = ("free_multiply", "inverse")
CONSTRUCTED = ("GroupWord", "MonoidWord")
STATUSES = ("trivial", "duplicate", "inverse-dup", "conjugate-dup", "primary")

COUNT_NAMES = (
    "rewriting.passes",
    "rewriting.rules_formed",
    "rewriting.rules_removed",
    "rewriting.identities_harvested",
    "rewriting.overlaps_listed",
    "rewriting.overlaps_processed",
    "rewriting.new_rules",
    "rewriting.reduce_letters_in",
    "rewriting.log_terms_out",
    "ysequences.act_terms",
    "ysequences.is_primary_identity.errors",
    "identities.vertices",
    "identities.records",
    "identities.kept",
    *(f"identities.status.{s}" for s in STATUSES),
    *(f"words.{name}.calls" for name in CONSTRUCTED + COUNTED),
    "words.GroupWord.letters",
)


def timed_names() -> list:
    return [f"{module}.{name}" for module, names in TIMED.items() for name in names]


def _observe_report(c: Counter, args, res) -> None:
    c["rewriting.passes"] += res.passes
    c["rewriting.rules_formed"] += res.rules_formed
    c["rewriting.rules_removed"] += res.rules_removed
    c["rewriting.identities_harvested"] += len(res.identities)


def _observe_overlap(c: Counter, args, res) -> None:
    c["rewriting.overlaps_processed"] += 1
    c["rewriting.new_rules"] += not hasattr(res, "identity")


def _observe_reduce(c: Counter, args, res) -> None:
    c["rewriting.reduce_letters_in"] += len(args[0])
    c["rewriting.log_terms_out"] += len(res[1])


def _observe_records(c: Counter, args, res) -> None:
    c["identities.records"] += len(res)
    for rec in res:
        c["identities.kept" if rec.status == "kept" else f"identities.status.{rec.status}"] += 1


OBSERVERS = {
    "rewriting.complete_presentation": _observe_report,
    "rewriting.find_overlaps": lambda c, args, res: c.update({"rewriting.overlaps_listed": len(res)}),
    "rewriting.process_overlap": _observe_overlap,
    "rewriting.logged_reduce": _observe_reduce,
    "ysequences.act": lambda c, args, res: c.update({"ysequences.act_terms": len(args[0])}),
    "identities.build_cayley_graph": lambda c, args, res: c.update({"identities.vertices": len(res)}),
    "identities.simplify_identity_list": _observe_records,
}


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index, operation]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list = []

    def install(self) -> None:
        """Wrap the timed and counted names of a freshly imported logrewrite."""
        modules = [m for name, m in sys.modules.items() if name == "logrewrite" or name.startswith("logrewrite.")]
        word_error = getattr(sys.modules["logrewrite"], "WordError", Exception)
        for module, names in TIMED.items():
            home = sys.modules.get(f"logrewrite.{module}")
            for name in names:
                key = f"{module}.{name}"
                self._replace(modules, home, name, lambda fn, key=key: self._spanning(fn, key, word_error))
        words = sys.modules.get("logrewrite.words")
        for name in COUNTED:
            self._replace(modules, words, name, lambda fn, key=f"words.{name}": self._counting(fn, key))
        for name in CONSTRUCTED:
            cls = getattr(words, name, None)
            if cls is not None:
                cls.__init__ = self._counting_init(cls.__init__, f"words.{name}")

    @staticmethod
    def _replace(modules, home, name, make) -> None:
        """Replace a function (or ``Class.method``) of module ``home`` by
        ``make(original)`` in every namespace that binds it."""
        cls_name, _, attr = name.rpartition(".")
        owner = getattr(home, cls_name, None) if cls_name else home
        original = getattr(owner, attr, None)
        if original is None:
            return  # the name is gone; its metrics read 0
        wrapper = make(original)
        if cls_name:
            setattr(owner, attr, wrapper)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _spanning(self, fn, key, word_error):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(key)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            record = [key, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                res = fn(*args, **kwargs)
            except word_error:
                counts[key + ".errors"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, res)
            return res

        return wrapper

    def _counting(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_init(self, init, key):
        counts = self.counts

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counts[key + ".calls"] += 1
            counts[key + ".letters"] += len(obj.letters)

        return wrapper

    def metrics(self) -> dict:
        """Per-function calls, inclusive and self seconds, and the counts."""
        out = {}
        for key in timed_names():
            out[f"{key}.calls"] = 0
            out[f"{key}.s"] = 0.0
            out[f"{key}.self_s"] = 0.0
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        c = self.counts
        for name in COUNT_NAMES:
            out[name] = c[name]
        out["rewriting.new_rule_frac"] = c["rewriting.new_rules"] / max(1, c["rewriting.overlaps_processed"])
        out["identities.kept_frac"] = c["identities.kept"] / max(1, c["identities.records"])
        return out

    def write(self, path) -> None:
        """All spans as CSV: name, start, end, parent index, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
