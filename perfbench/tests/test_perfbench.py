"""Tests of the benchmark itself, kept out of pcore's own test suite:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
FIXTURES = ROOT / "src" / "pcore" / "fixtures"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pace  # noqa: E402
import workloads  # noqa: E402
from pcore.stf import AddCmd, ExpectCmd, PacketCmd, parse_stf, run_stf  # noqa: E402
from spans import Tracer, layer_times  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    make = workloads.WORKLOADS[name]
    first = make(7).items
    assert make(7).items == first
    assert make(8).items != first
    assert len(first) >= 100  # p90 is taken over the distinct ops


def test_routing_model_matches_the_fixture_script():
    stf_text = (FIXTURES / "source_routing.stf").read_text()
    cmds = parse_stf(stf_text)
    allowed = {(int(dict(c.keys)["ingress"]), int(dict(c.keys)["egress"]))
               for c in cmds if isinstance(c, AddCmd) and c.action == "allow"}
    packets = [(c.port, c.payload) for c in cmds if isinstance(c, PacketCmd)]
    predicted = [workloads.route(allowed, port, hexbytes) for port, hexbytes in packets]
    assert [p for p in predicted if p is not None] == [
        (c.port, c.payload) for c in cmds if isinstance(c, ExpectCmd)]
    assert None in predicted

    report = run_stf((FIXTURES / "source_routing.pcore").read_text(), stf_text)
    assert [None if p.dropped else (p.egress, p.payload_out)
            for p in report.packets] == predicted


def test_generated_scripts_agree_with_run_stf_and_the_traced_path():
    w = workloads.StfRouting(3)
    small = sorted(w.items, key=lambda item: len(item.text))[:4]
    for item in small:
        outcome = w.run(item)
        assert w.check(item, outcome)
        assert w.run_traced(item, Tracer()) == outcome


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        ["op", 0, 100, -1, 0],
        ["lexer", 10, 30, 0, 0],
        ["parser", 30, 70, 0, 0],
        ["interp.apply", 70, 95, 0, 0],
        ["target.native", 75, 80, 3, 0],
        ["target.native", 85, 90, 3, 0],
        ["op", 100, 150, -1, 1],
        ["lexer", 100, 150, 6, 1],
    ]
    self_ns, incl_ns = layer_times(spans)
    assert self_ns == {"op": 15, "lexer": 70, "parser": 40,
                       "interp.apply": 15, "target.native": 10}
    assert incl_ns == {"op": 150, "lexer": 70, "parser": 40,
                       "interp.apply": 25, "target.native": 10}
    assert sum(self_ns.values()) == incl_ns["op"]


def test_local_pace_is_the_median_chunk_time_of_nearby_ops():
    window = pace.WINDOW
    # op i was followed by chunks of i ms; every op also by one of 1000 ms
    chunk_times = [[i * 1e-3, 1.0] for i in range(3 * window)]
    paces = pace.local_paces(chunk_times)
    assert len(paces) == len(chunk_times)
    # ops 0..window: chunks 0..window ms plus as many 1 s ones
    assert paces[0] == (window * 1e-3 + 1.0) / 2
    # a full window holds 2 * window + 1 ops, and the median of their
    # 4 * window + 2 chunk times is the mean of op i + window's two
    i = window + 2
    assert paces[i] == ((i + window) * 1e-3 + 1.0) / 2
    # half the pace, twice the latency at reference pace, and vice versa
    assert pace.at_reference_pace(0.5, pace.REFERENCE_S) == 0.5
    assert pace.at_reference_pace(0.5, 2 * pace.REFERENCE_S) == 0.25


def test_reference_chunk_repeats_its_result():
    assert pace.chunk() == pace.chunk() > 0
    assert len(pace.pace_after(0.0)) == 1
    assert sum(pace.pace_for(0.01)) >= 0.01


def test_tracer_links_children_and_counts_wrapped_calls():
    tr = Tracer()
    double = tr.wrap("target.native", lambda x: 2 * x)
    assert tr.call("op", lambda: tr.call("interp.apply", double, 21)) == 42
    assert [(name, parent) for name, _, _, parent, _ in tr.spans] == [
        ("op", -1), ("interp.apply", 0), ("target.native", 1)]
    assert tr.counts["target.native.calls"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_across_runs(name):
    counts = []
    for _ in range(2):
        proc = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["typecheck.programs"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "oracles", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
