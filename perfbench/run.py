#!/usr/bin/env python3
"""pcore's layered benchmark.

    python3 perfbench/run.py --workload stf-routing --seed 1 --seconds 20 --trace 0

runs one workload from the root of a source tree, or each workload in its
own process with ``--workload all``. ``--trace 0`` times the ops with
tracing off, puts the times at reference pace (``pace.py``) and prints
the end-to-end metrics. ``--trace 1`` makes passes
over the workload's op list until the time is up, running each op untraced
and then traced; it prints the per-layer metrics, the exact counts, the
tracing overhead and the layer-sum gap, and writes the spans to
``perfbench/out/``. The
last line of standard output is one JSON object; the exit code is 1 when
any output was wrong. ``perfbench/README.md`` describes the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from pace import at_reference_pace, local_paces, pace_after, pace_for
from spans import Tracer, layer_times, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("stf-routing", "check-corpus", "oracles")

SETUP_REPEATS = 5
SETUP_PACE_S = 0.2  # reference chunks before and after each set-up
WARMUP_OPS = 5
MIN_PASSES = 3

LAYER_SPANS = (
    "lexer", "parser", "typecheck.program", "typecheck.machine",
    "interp.instantiate", "interp.apply", "target.lookup", "target.add_rule",
    "target.native", "stf.parse", "gen", "unions.translate", "unions.compare",
)
EXACT_COUNTS = (
    "lexer.tokens", "parser.decls", "typecheck.programs", "typecheck.rejected",
    "interp.steps", "target.lookup.calls", "target.lookup.hits",
    "target.native.calls", "stf.packets", "gen.programs",
)
MODULES = (
    "__init__", "cli", "errors", "gen", "interp", "lexer", "ops", "parser",
    "pretty", "stf", "syntax", "target", "typecheck", "unions",
)

UNITS = {
    "lexer.tokens_per_s": "tokens/s", "interp.steps_per_s": "steps/s",
    "stf.packets_per_s": "packets/s", "target.lookup.hit_ratio": "ratio",
    "trace.overhead_s": "s", "trace.layer_sum_gap": "ratio",
}
PER_LAYER = (
    "lexer.s", "lexer.tokens", "lexer.tokens_per_s", "parser.s", "parser.decls",
    "typecheck.program.s", "typecheck.programs", "typecheck.rejected",
    "typecheck.machine.s",
    "interp.instantiate.s", "interp.apply.s", "interp.steps", "interp.steps_per_s",
    "target.lookup.s", "target.lookup.calls", "target.lookup.hit_ratio",
    "target.add_rule.s", "target.native.s", "target.native.calls",
    "stf.parse.s", "stf.packets", "stf.packets_per_s",
    "gen.s", "gen.programs",
    "unions.translate.s", "unions.compare.s",
    "unattributed.s", "trace.overhead_s", "trace.layer_sum_gap",
)


def load_workload(name, seed):
    """Import pcore and the workload module afresh, then build the
    workload's inputs; returns (wall seconds taken, the same at reference
    pace, workload). The pace is read just before and just after."""
    for mod in [m for m in sys.modules
                if m in ("pcore", "workloads") or m.startswith("pcore.")]:
        del sys.modules[mod]
    gc.collect()
    chunks = pace_for(SETUP_PACE_S)
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](seed)
    elapsed = time.perf_counter() - start
    chunks += pace_for(SETUP_PACE_S)
    return elapsed, at_reference_pace(elapsed, statistics.median(chunks)), workload


class Ops:
    """Runs ops one at a time, times them, checks their outcomes against
    the reference answers and tallies failures. No outcome outlives its
    op, as in a pcore process that handles one input."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, i, what):
        self.failed += 1
        if self.failed <= 3:
            print(f"op {i} failed: {what}", file=sys.stderr)

    def one(self, i, fn, *args):
        """Runs item i through ``fn``; returns (seconds, outcome), with
        outcome None when the op raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # noqa: BLE001 - every failure is counted and shown
            elapsed = time.perf_counter() - start
            self.fail(i, traceback.format_exc())
            return elapsed, None
        elapsed = time.perf_counter() - start
        if not self.w.check(self.w.items[i], out):
            self.fail(i, "output differs from the reference answer")
        return elapsed, out

    def paced_pass(self):
        """One pass over the items, each followed by reference chunks;
        returns the items' latencies and the chunk times after each."""
        latencies, chunk_times = [], []
        for i, item in enumerate(self.w.items):
            latencies.append(self.one(i, self.w.run, item)[0])
            chunk_times.append(pace_after(latencies[-1]))
        return latencies, chunk_times

    def paired_pass(self, pass_no):
        """One pass that runs each item untraced and traced, the two taking
        turns at going first, so that neither is favoured by the caches the
        other warmed. The traced outcome must equal the untraced entry
        point's.
        Returns (tracer, untraced op seconds, traced op seconds)."""
        tr = Tracer()
        op_s = [0.0, 0.0]
        for i, item in enumerate(self.w.items):
            tr.op = pass_no * len(self.w.items) + i
            runs = [(0, self.w.run, (item,)),
                    (1, tr.call, ("op", self.w.run_traced, item, tr))]
            outs = [None, None]
            for k, fn, args in runs if i % 2 == 0 else runs[::-1]:
                elapsed, outs[k] = self.one(i, fn, *args)
                op_s[k] += elapsed
            if None not in outs and outs[0] != outs[1]:
                self.fail(i, "traced outcome differs from the untraced entry point's")
        return tr, op_s[0], op_s[1]


def end_to_end(ops, seconds, setup_s):
    """Whole passes over the items until ``seconds`` have passed, and at
    least MIN_PASSES. Each op's wall time is put at reference pace by the
    reference chunks run around it (see pace.py), and an item's latency is
    the median of its runs. The percentiles are taken over the items, and
    throughput is the items divided by the sum of their latencies."""
    passes, wall_s, chunk_s = [], 0.0, []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        latencies, chunk_times = ops.paced_pass()
        passes.append([at_reference_pace(t, p)
                       for t, p in zip(latencies, local_paces(chunk_times))])
        wall_s += sum(latencies)
        chunk_s += [t for ts in chunk_times for t in ts]
    n = len(ops.w.items)
    per_item = [statistics.median(lat[i] for lat in passes) for i in range(n)]
    print(f"timed: {len(passes)} passes of {n} ops; wall clock "
          f"{n * len(passes) / wall_s:.4g} ops/s; reference chunk "
          f"median {statistics.median(chunk_s) * 1e3:.4g} ms over {len(chunk_s)}")
    return {
        "ops_per_s": (n / sum(per_item), "ops/s"),
        "op_ms.p50": (statistics.median(per_item) * 1e3, "ms"),
        "op_ms.p90": (statistics.quantiles(per_item, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def pass_metrics(tr, untraced_op_s, traced_op_s):
    """Per-layer metrics of one paired pass."""
    self_ns, incl_ns = layer_times(tr.spans)
    c = tr.counts
    m = {f"{name}.s": self_ns[name] / 1e9 for name in LAYER_SPANS}
    m["unattributed.s"] = self_ns["op"] / 1e9
    packet_path_s = (incl_ns["interp.instantiate"] + incl_ns["interp.apply"]) / 1e9
    interp_s = m["interp.instantiate.s"] + m["interp.apply.s"]
    m["lexer.tokens_per_s"] = c["lexer.tokens"] / m["lexer.s"] if m["lexer.s"] else 0.0
    m["interp.steps_per_s"] = c["interp.steps"] / interp_s if interp_s else 0.0
    m["stf.packets_per_s"] = c["stf.packets"] / packet_path_s if c["stf.packets"] else 0.0
    layers_s = sum(m[f"{name}.s"] for name in LAYER_SPANS)
    m["trace.overhead_s"] = traced_op_s - untraced_op_s
    m["trace.layer_sum_gap"] = (layers_s + m["unattributed.s"]) / untraced_op_s - 1
    m["trace.layers_share"] = layers_s / untraced_op_s
    m["untraced.op_s"] = untraced_op_s
    return m


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.startswith("lines."):
        return "lines"
    return "s" if name.endswith(".s") else "count"


def code_lines():
    pkg = SRC / "pcore"
    lines = {f"lines.{m}": _count_lines(pkg / f"{m}.py") for m in MODULES}
    lines["lines.total"] = sum(_count_lines(p) for p in pkg.glob("*.py"))
    return lines


def _count_lines(path):
    if not path.is_file():
        return 0
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def per_layer(ops, seconds, workload_name, seed):
    items = ops.w.items
    passes, counts, span_lists = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tr, untraced_s, traced_s = ops.paired_pass(len(passes))
        passes.append(pass_metrics(tr, untraced_s, traced_s))
        counts.append({k: tr.counts[k] for k in EXACT_COUNTS})
        span_lists.append(tr.spans)
    stable = all(c == counts[0] for c in counts)
    if not stable:
        print("exact counts differ between passes: "
              + json.dumps(counts), file=sys.stderr)
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics.update(counts[0])
    calls = counts[0]["target.lookup.calls"]
    metrics["target.lookup.hit_ratio"] = (
        counts[0]["target.lookup.hits"] / calls if calls else 0.0)
    metrics.update(code_lines())

    path = HERE / "out" / f"spans-{workload_name}-seed{seed}.jsonl"
    write_spans(path, span_lists)
    untraced_s = metrics["untraced.op_s"]
    print(f"traced run: {len(passes)} passes of {len(items)} ops, each run "
          f"untraced then traced; spans in {path.relative_to(ROOT)}")
    print("exact counts per pass ("
          + ("repeat in every pass" if stable else "NOT STABLE") + "): "
          + " ".join(f"{k}={counts[0][k]}" for k in EXACT_COUNTS))
    print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per pass, "
          f"{metrics['trace.overhead_s'] / untraced_s:+.1%} of the untraced "
          f"op time, {untraced_s:.4f} s")
    print(f"layer sum: layer self-times + unattributed.s are "
          f"{metrics['trace.layer_sum_gap']:+.1%} off the untraced op time; "
          f"the layers alone cover {metrics['trace.layers_share']:.1%} of it")
    names = PER_LAYER + tuple(sorted(k for k in metrics if k.startswith("lines.")))
    return {name: (metrics[name], unit_of(name)) for name in names}, stable


def run_all(args):
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run([
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        status = max(status, proc.returncode)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "pcore" / "__init__.py").is_file():
        print(f"error: no pcore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times, setup_paced = [], []
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous copy before building the next
        elapsed, paced, workload = load_workload(args.workload, args.seed)
        setup_times.append(elapsed)
        setup_paced.append(paced)
    setup_s = statistics.median(setup_paced)
    # A pcore process holds one input, not a whole workload: keep the
    # inputs out of the collector's way so they do not slow the ops.
    gc.collect()
    gc.freeze()
    ops = Ops(workload)
    for i in range(min(WARMUP_OPS, len(workload.items))):
        ops.one(i, workload.run, workload.items[i])

    print(f"{args.workload} seed {args.seed}: {len(workload.items)} distinct ops; "
          f"setup {', '.join(f'{t:.3f}' for t in setup_times)} s wall clock, "
          f"{', '.join(f'{t:.3f}' for t in setup_paced)} s at reference pace")
    if args.trace:
        metrics, stable = per_layer(ops, args.seconds, args.workload, args.seed)
    else:
        metrics = end_to_end(ops, args.seconds, setup_s)
        stable = True
    correct = ops.failed == 0 and stable
    print(f"  {'fail_ratio':28s} {ops.failed}/{ops.attempted} failed/attempted")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
