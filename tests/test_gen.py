"""Generator properties: determinism, well-typedness by construction, and
agreement between compile-time and runtime evaluation."""

import random

import pytest

from pcore import ops, typecheck
from pcore.gen import (
    GenConfig, _ProgramGen, _STMT_RULES, generate_cte_expr, generate_type,
    generate_typed_program, generate_union_program, run_soundness_case,
    run_soundness_suite,
)
from pcore.interp import eval_expression
from pcore.parser import parse_program
from pcore.syntax import (
    BinopE, BitT, BoolT, FunT, HeaderT, IndexE, IntE, Param, RecordT, StackT,
    TableT, UnionD, UnopE, VarE, VarT,
)
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


class _Recording(_ProgramGen):
    """A generator that records each (type, scope) that expr receives."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.asked = []

    def expr(self, t, depth, env):
        self.asked.append((t, list(env)))
        return super().expr(t, depth, env)


class TestScan:
    """expr walks the scope once per expression; each list it finds is what
    a comprehension asking that one question gives."""

    @pytest.mark.parametrize("unions", [False, True])
    def test_one_pass_agrees_with_a_comprehension_per_question(self, unions):
        seen = set()
        for seed in range(50):
            g = _Recording(GenConfig(seed=seed, unions=unions))
            g.generate()
            for t, env in g.asked:
                names = [n for n, vt, _ in env if vt == t]
                assert g._scan(env, t, False) == {"var": names}, seed
                if not isinstance(t, BitT):
                    continue
                want = {
                    "var": names,
                    "slice": [(n, vt.width) for n, vt, _ in env
                              if isinstance(vt, BitT) and vt.width > t.width],
                    "index": [(n, vt.size) for n, vt, _ in env
                              if isinstance(vt, StackT) and vt.elem == t
                              and vt.size > 0],
                    "member": [(n, f) for n, vt, _ in env
                               if isinstance(vt, (RecordT, HeaderT))
                               for f, ft in vt.fields if ft == t],
                }
                assert g._scan(env, t, True) == want, seed
                seen |= {kind for kind, found in want.items() if found}
        # every list was non-empty somewhere
        assert seen == {"var", "slice", "index", "member"}

    def test_an_empty_stack_has_no_element_to_index(self):
        # the generator declares no zero-size stack, so the programs above
        # never hold one
        g = _ProgramGen(GenConfig(seed=0))
        env = [("e", StackT(BitT(8), 0), True), ("s", StackT(BitT(8), 2), True)]
        assert g._scan(env, BitT(8), True)["index"] == [("s", 2)]


def test_an_assignment_to_an_empty_stack_writes_past_its_end():
    # the write is discarded at run time; the generator declares no
    # zero-size stack, so no generated program reaches this
    g = _ProgramGen(GenConfig(seed=0))
    s = _STMT_RULES["assign"](g, [("e", StackT(BitT(8), 0), True)], 1)
    assert s.lhs == IndexE(VarE("e"), IntE(0, 32))


class TestArgsFor:
    """_callable_funcs and the call arm of stmts skip _args_for for a callee
    whose parameters are all `in`. That keeps every draw in its order
    because, for such a callee, _args_for cannot fail and draws nothing."""

    @pytest.mark.parametrize("ft, type_arg, want", [
        (FunT((), (), BoolT()), None, []),
        (FunT((), (Param("in", "a", BitT(8)), Param("in", "b", BoolT())), BoolT()),
         None, [("expr", BitT(8)), ("expr", BoolT())]),
        (FunT(("X",), (Param("in", "p", VarT("X")),), VarT("X")), BitT(4),
         [("expr", BitT(4))]),
        (FunT(("X",), (Param("in", "p", VarT("X")),), VarT("X")), None,
         [("expr", BitT(8))]),
    ], ids=["no-params", "in", "generic", "generic-default"])
    def test_in_only_callee_takes_expressions_and_draws_nothing(
            self, ft, type_arg, want):
        g = _ProgramGen(GenConfig(seed=5))
        env = [("v", BitT(8), True), ("w", BoolT(), True)]
        state = g.rng.getstate()
        assert g._args_for(ft, env, type_arg) == want
        assert g.rng.getstate() == state

    def test_out_parameter_without_an_assignable_variable_is_not_callable(self):
        g = _ProgramGen(GenConfig(seed=5))
        # a constant of the type, and a variable of another type
        env = [("c", BitT(8), False), ("v", BitT(4), True)]
        ft = FunT((), (Param("in", "a", BoolT()), Param("out", "b", BitT(8))),
                  BoolT())
        assert g._args_for(ft, env) is None


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

    def test_every_operator_is_drawn(self):
        # over the seeds and depth of acceptance test [5]
        drawn = set()

        def walk(e):
            if isinstance(e, (BinopE, UnopE)):
                drawn.add(e.op)
                for sub in (e.left, e.right) if isinstance(e, BinopE) else (e.operand,):
                    walk(sub)

        for seed in range(10_000):
            walk(generate_cte_expr(random.Random(seed), depth=3)[0])
        assert drawn == {*ops.BINOPS, *ops.UNOPS}


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
