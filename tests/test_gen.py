"""Generator properties: determinism, well-typedness by construction, and
agreement between compile-time and runtime evaluation."""

import random

import pytest

from pcore import typecheck
from pcore.gen import (
    GenConfig, generate_cte_expr, generate_type, generate_typed_program,
    generate_union_program, run_soundness_case, run_soundness_suite,
)
from pcore.interp import eval_expression
from pcore.syntax import Machine, UnionD
from pcore.target import HavocOracle, ThreeStageLiteTarget


def machine():
    return Machine(target=ThreeStageLiteTarget(havoc_oracle=HavocOracle("zero")))


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


class TestCteGen:
    @pytest.mark.parametrize("seed", range(50))
    def test_compile_time_and_runtime_agree(self, seed):
        rng = random.Random(seed)
        e, expected = generate_cte_expr(rng, depth=4)
        assert typecheck.cteval({}, e) == expected
        m = machine()
        assert eval_expression(m, e) == expected

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
