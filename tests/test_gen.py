"""Generator properties: determinism, well-typedness by construction, and
agreement between compile-time and runtime evaluation."""

import random

import pytest

from pcore import typecheck
from pcore.gen import (
    GenConfig, _ProgramGen, generate_cte_expr, generate_type,
    generate_typed_program, generate_union_program, run_soundness_case,
    run_soundness_suite,
)
from pcore.interp import eval_expression
from pcore.parser import parse_program
from pcore.syntax import FunT, TableT, UnionD
from pcore.target import make_machine


class TestProgramGen:
    def test_deterministic(self):
        a = generate_typed_program(GenConfig(seed=12))
        b = generate_typed_program(GenConfig(seed=12))
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_typed_program(GenConfig(seed=1)) != \
            generate_typed_program(GenConfig(seed=2))

    @pytest.mark.parametrize("seed", range(30))
    def test_always_typechecks(self, seed):
        typecheck.check_program(generate_typed_program(GenConfig(seed=seed)))

    @pytest.mark.parametrize("seed", range(15))
    def test_soundness_case(self, seed):
        p = generate_typed_program(GenConfig(seed=seed))
        obs = run_soundness_case(p)
        assert obs["machine_ok"]
        assert obs["steps"] <= 10**6

    def test_suite_aggregates(self):
        stats = run_soundness_suite(20)
        assert stats["n"] == 20
        assert stats["failures"] == []
        assert stats["budget_failures"] == []

    def test_suite_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            run_soundness_suite(0)


class TestScopeIsTheCheckers:
    """The generator draws from its own record of the top-level scope; it
    must be what the checker makes of the program it emits."""

    @pytest.mark.parametrize("unions", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_scope_agrees_with_check_program(self, seed, unions):
        g = _ProgramGen(GenConfig(seed=seed, unions=unions))
        sigma, gamma, delta = typecheck.check_program(g.generate())
        assert list(g.delta.items()) == list(delta.items())
        # == ignores an open enumeration's members
        assert g.delta["error"].members == delta["error"].members
        assert g.funcs == [(n, t) for n, t in gamma.items() if isinstance(t, FunT)]
        assert [n for n, _, _ in g.vars] == [
            n for n, t in gamma.items() if not isinstance(t, (FunT, TableT))]
        for name, t, assignable in g.vars:
            assert gamma[name] == t
            assert assignable == (name not in sigma)


class TestSoundnessCaseOnTheTarget:
    """A soundness case is checked on the target's natives and run by the
    one case runner, on the machine every command runs on."""

    def test_native_calls_reach_the_oracle(self):
        # the oracle re-checks f's body, which calls drop, in its captured
        # scope; the natives' own locations are not counted
        obs = run_soundness_case(parse_program(
            "bit<8> i := get_ingress(); {} f() { drop(); } {} r := f();"))
        assert obs == {"machine_ok": True, "steps": 10, "exited": False,
                       "locations": 3}

    def test_a_target_error_is_an_outcome(self):
        # extract_bits on the empty packet fails before r is bound
        obs = run_soundness_case(parse_program(
            "typedef header {bit<8> a;} H; H h;\n"
            "{} g() { extract_bits<:H:>(h); } {} r := g();"))
        assert obs["machine_ok"] and not obs["exited"]

    def test_main_is_run(self):
        obs = run_soundness_case(parse_program(
            "bit<8> x := 0w8;\n"
            "control M() { apply { x := get_ingress() + 1w8; exit; } }\n"
            "M() main;\n"))
        assert obs["machine_ok"] and obs["exited"]  # only main exits


class TestCteGen:
    @pytest.mark.parametrize("seed", range(50))
    def test_compile_time_and_runtime_agree(self, seed):
        rng = random.Random(seed)
        e, expected = generate_cte_expr(rng, depth=4)
        assert typecheck.cteval({}, e) == expected
        assert eval_expression(make_machine(), e) == expected

    def test_deterministic(self):
        assert generate_cte_expr(random.Random(9), 3) == \
            generate_cte_expr(random.Random(9), 3)


class TestTypeGen:
    def test_variety(self):
        rng = random.Random(0)
        kinds = {type(generate_type(rng)).__name__ for _ in range(200)}
        assert len(kinds) >= 5


class TestUnionGen:
    @pytest.mark.parametrize("seed", range(20))
    def test_properties(self, seed):
        p = generate_union_program(seed)
        typecheck.check_program(p)
        unions = [d for d in p.decls if isinstance(d, UnionD)]
        assert unions
        assert all(len(u.alts) >= 2 for u in unions)
