"""Acceptance criteria, one per test, each printing a single PASS/FAIL line.

Tolerances are pinned in the assertions: the packet fixture must run in
under 1 second; the 1000-program soundness suite in under 120 seconds with
zero failures and zero budget exhaustions; compile-time/runtime agreement is
checked 10,000 times; operator grids are exhaustive for widths 1-4; the
union differential runs 200 cases with at least 95% fault detection; havoc
draws are checked 1000 times; round-trip identity over 1000 programs.
"""

import random
import time
from pathlib import Path

import pytest

import pcore
from pcore import interp, ops, typecheck
from pcore.gen import (
    GenConfig, generate_cte_expr, generate_type, generate_typed_program,
    generate_union_program, run_soundness_suite,
)
from pcore.interp import eval_expression, eval_program, run_with_budget
from pcore.parser import parse_program
from pcore.pretty import pretty_program
from pcore.stf import run_stf
from pcore.syntax import BoolV, ExitUnwind, IntV, Machine
from pcore.target import HavocOracle, ThreeStageLiteTarget
from pcore.unions import WrongTagTranslator, diff_union_semantics

FIXTURES = Path(pcore.__file__).parent / "fixtures"


RESULTS = []


def report(n, desc, ok):
    line = f"[{n}] {desc}: {'PASS' if ok else 'FAIL'}"
    RESULTS.append(line)
    print("\n" + line)
    assert ok


@pytest.fixture(scope="module")
def soundness_stats():
    t0 = time.time()
    stats = run_soundness_suite(1000, max_steps=10**6)
    stats["elapsed"] = time.time() - t0
    return stats


def test_1_source_routing_packet_test():
    program = (FIXTURES / "source_routing.pcore").read_text()
    script = (FIXTURES / "source_routing.stf").read_text()
    t0 = time.time()
    rep = run_stf(program, script)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 1.0
    report(1, f"source-routing packet test passes in {elapsed:.3f}s (<1s)", ok)


def test_2_aliased_copy_out_order(monkeypatch):
    text = (
        "bit<8> x := 5w8;\n"
        "{} f(out bit<8> a, out bit<8> b) {b := 2w8;}\n"
        "{} r := f(x, x);\n"
    )

    def final_x():
        program = parse_program(text)
        typecheck.check_program(program)
        m = Machine(target=ThreeStageLiteTarget(havoc_oracle=HavocOracle("zero")))
        eval_program(None, typecheck.initial_delta(), m, program)
        return m.store[m.env["x"]]

    in_order = final_x()
    orig = interp.copy_out
    monkeypatch.setattr(
        interp, "copy_out",
        lambda machine, tasks: orig(machine, list(reversed(tasks))),
    )
    reversed_order = final_x()
    ok = in_order == IntV(2, 8) and reversed_order == IntV(0, 8)
    report(2, f"aliased f(x, x) observes copy-out order "
              f"({in_order.value} in order, {reversed_order.value} reversed; "
              f"want 2/0)", ok)


def test_3_soundness_suite(soundness_stats):
    s = soundness_stats
    ok = (not s["failures"]) and s["elapsed"] < 120.0
    report(3, f"1000 generated programs typecheck, evaluate, and satisfy "
              f"machine typing in {s['elapsed']:.1f}s (<120s), "
              f"{len(s['failures'])} failures", ok)


def test_4_termination_within_budget(soundness_stats):
    s = soundness_stats
    ok = not s["budget_failures"]
    report(4, f"all 1000 generated programs terminate within 10^6 steps "
              f"({len(s['budget_failures'])} budget exhaustions)", ok)


def test_5_compile_time_runtime_agreement():
    failures = 0
    for seed in range(10_000):
        rng = random.Random(seed)
        e, expected = generate_cte_expr(rng, depth=3)
        m = Machine(target=ThreeStageLiteTarget(havoc_oracle=HavocOracle("zero")))
        static = typecheck.cteval({}, e)
        dynamic = eval_expression(m, e)
        if not (static == expected == dynamic):
            failures += 1
    report(5, f"compile-time and runtime evaluation agree on 10000 "
              f"expressions ({failures} disagreements)", failures == 0)


def test_6_operator_grids_vs_bigint_oracle():
    model = {
        "add": lambda a, b, w: (a + b) % (1 << w),
        "sub": lambda a, b, w: (a - b) % (1 << w),
        "mul": lambda a, b, w: (a * b) % (1 << w),
        "band": lambda a, b, w: a & b,
        "bor": lambda a, b, w: a | b,
        "bxor": lambda a, b, w: a ^ b,
        "div": lambda a, b, w: a // b,
        "mod": lambda a, b, w: a % b,
        "lt": lambda a, b, w: a < b,
        "le": lambda a, b, w: a <= b,
        "gt": lambda a, b, w: a > b,
        "ge": lambda a, b, w: a >= b,
        "eq": lambda a, b, w: a == b,
        "neq": lambda a, b, w: a != b,
    }
    checked = failures = 0
    for w in (1, 2, 3, 4):
        for a in range(1 << w):
            for b in range(1 << w):
                for op, fn in model.items():
                    if op in ("div", "mod") and b == 0:
                        continue
                    got = ops.eval_binop(op, IntV(a, w), IntV(b, w))
                    want = fn(a, b, w)
                    want = BoolV(want) if isinstance(want, bool) else IntV(want, w)
                    checked += 1
                    failures += got != want
                for k in range(2 * w):
                    got = ops.eval_binop("shl", IntV(a, w), IntV(k, None))
                    checked += 1
                    failures += got != IntV((a << k) % (1 << w), w)
                    got = ops.eval_binop("shr", IntV(a, w), IntV(k, None))
                    checked += 1
                    failures += got != IntV(a >> k, w)
    for w1 in (1, 2, 3, 4):
        for w2 in (1, 2, 3, 4):
            for a in range(1 << w1):
                for b in range(1 << w2):
                    got = ops.eval_binop("concat", IntV(a, w1), IntV(b, w2))
                    checked += 1
                    failures += got != IntV((a << w2) | b, w1 + w2)
    report(6, f"exhaustive operator grids (widths 1-4, {checked} cases) "
              f"match the big-integer oracle ({failures} mismatches)",
           failures == 0)


def test_7_union_differential():
    passes = detected = 0
    n = 200
    for seed in range(n):
        p = generate_union_program(seed)
        if diff_union_semantics(p)["pass"]:
            passes += 1
        if not diff_union_semantics(p, WrongTagTranslator())["pass"]:
            detected += 1
    ok = passes == n and detected >= 0.95 * n
    report(7, f"union translation differential: {passes}/{n} pass, "
              f"wrong-tag detected {detected}/{n} (>=95%)", ok)


def test_8_havoc_draws_well_typed():
    delta = typecheck.initial_delta()
    failures = 0
    oracle = HavocOracle("seeded", 42)
    zero = HavocOracle("zero")
    for i in range(1000):
        rng = random.Random(i)
        t = generate_type(rng)
        v = oracle.draw(t, i)
        if not typecheck.check_value({}, {}, delta, v, t):
            failures += 1
        if zero.havoc(t) != ops.init_value(t):
            failures += 1
    report(8, f"1000 havoc draws satisfy value typing and zero-mode equals "
              f"the default value ({failures} failures)", failures == 0)


def test_9_round_trip_identity():
    failures = 0
    for seed in range(1000):
        cfg = GenConfig(seed=seed, unions=(seed % 4 == 0))
        p = generate_typed_program(cfg)
        try:
            if parse_program(pretty_program(p)) != p:
                failures += 1
        except Exception:
            failures += 1
    report(9, f"parse(pretty(p)) == p for 1000 generated programs "
              f"({failures} failures)", failures == 0)
