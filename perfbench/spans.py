"""In-memory spans for the traced run, and the self-time arithmetic.

A span is a list ``[name, start_ns, end_ns, parent, op]``: ``parent`` is
the index of the enclosing span in the same tracer (-1 for an op's root
span) and ``op`` the id of the op that caused it. Spans are only recorded
around calls the benchmark itself makes into pcore; nothing inside
``src/pcore`` is changed to produce them.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

FIELDS = ("name", "start_ns", "end_ns", "parent", "op")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = Counter()
        self.op = -1

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        rec = [name, 0, 0, self.stack[-1], self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter_ns()
            self.stack.pop()

    def wrap(self, name, fn, on_result=None):
        """A stand-in for ``fn`` that records a span and a call count per
        call; ``on_result(result, args)`` sees each result."""
        calls = name + ".calls"

        def traced(*args):
            self.counts[calls] += 1
            result = self.call(name, fn, *args)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced


def layer_times(spans):
    """Per span name, (self ns, inclusive ns) summed over ``spans``. A
    span's self time is its duration minus the durations of its direct
    children; children are assumed to lie inside their parent."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns, incl_ns = Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        incl_ns[name] += end - start
        self_ns[name] += end - start - child[i]
    return self_ns, incl_ns


def write_spans(path, passes):
    """One JSON header line, then one JSON array per span, tagged with the
    index of the traced pass it belongs to."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps({"fields": ("pass",) + FIELDS}) + "\n")
        for p, spans in enumerate(passes):
            for rec in spans:
                f.write(json.dumps([p, *rec]) + "\n")
