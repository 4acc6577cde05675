"""Dynamic semantics: copy-in/copy-out, exit unwinding, scoping, headers,
stacks, tables, and the machine-typing oracle."""

from pathlib import Path

import pytest

import pcore
from pcore import interp, typecheck
from pcore.errors import BudgetExhausted, IndexOutOfBounds, PcoreError
from pcore.interp import eval_program, run_program, run_with_budget
from pcore.parser import parse_program
from pcore.syntax import (
    BoolV, ClosureV, CtorClosureV, ExitUnwind, HeaderV, IntV, Machine,
    NativeV, RecordV,
)
from pcore.target import (
    ControlPlane, HavocOracle, ThreeStageLiteTarget, three_stage_lite_bootstrap,
)

FIXTURES = Path(pcore.__file__).parent / "fixtures"


def run(text, cp=None, max_steps=10**6, havoc="zero", seed=0):
    program = parse_program(text)
    typecheck.check_program(program)
    machine = Machine(
        target=ThreeStageLiteTarget(havoc_oracle=HavocOracle(havoc, seed))
    )
    exited = False
    try:
        run_with_budget(
            machine, max_steps,
            lambda: eval_program(cp, typecheck.initial_delta(), machine, program),
        )
    except ExitUnwind:
        exited = True
    machine.exited = exited
    return machine


def val(machine, name):
    return machine.store[machine.env[name]]


class TestCopyInOut:
    def test_out_params_aliased_last_wins(self):
        m = run(
            "bit<8> x := 5w8;\n"
            "{} f(out bit<8> a, out bit<8> b) {b := 2w8;}\n"
            "{} r := f(x, x);\n"
        )
        # copy-out runs in parameter order: a writes its default 0, then b
        # writes 2; the later write wins
        assert val(m, "x") == IntV(2, 8)

    def test_out_params_aliased_reversed_order(self, monkeypatch):
        orig = interp.copy_out
        monkeypatch.setattr(
            interp, "copy_out",
            lambda machine, tasks: orig(machine, list(reversed(tasks))),
        )
        m = run(
            "bit<8> x := 5w8;\n"
            "{} f(out bit<8> a, out bit<8> b) {b := 2w8;}\n"
            "{} r := f(x, x);\n"
        )
        assert val(m, "x") == IntV(0, 8)

    def test_inout_aliasing_snapshot(self):
        # both parameters are copied in before the body runs, so each sees
        # the original value of x
        m = run(
            "bit<8> x := 0w8;\n"
            "{} g(inout bit<8> a, inout bit<8> b) "
            "{a := a + 1w8; b := b + 10w8;}\n"
            "{} r := g(x, x);\n"
        )
        assert val(m, "x") == IntV(10, 8)

    def test_out_param_starts_at_default(self):
        m = run(
            "bit<8> x := 77w8;\n"
            "bit<8> f(out bit<8> a) {return a;}\n"
            "bit<8> r := f(x);\n"
        )
        assert val(m, "r") == IntV(0, 8)
        assert val(m, "x") == IntV(0, 8)

    def test_in_param_not_written_back(self):
        m = run(
            "bit<8> x := 3w8;\n"
            "{} f(in bit<8> a) {bit<8> b := a;}\n"
            "{} r := f(x);\n"
        )
        assert val(m, "x") == IntV(3, 8)

    def test_member_path_copy_out(self):
        m = run(
            "typedef record {bit<8> a; bit<8> b;} R;\n"
            "R r := {a = 1w8, b = 2w8};\n"
            "{} f(inout bit<8> v) {v := v + 1w8;}\n"
            "{} u := f(r.b);\n"
        )
        assert val(m, "r") == RecordV((("a", IntV(1, 8)), ("b", IntV(3, 8))))


class TestExit:
    def test_exit_skips_rest_of_program(self):
        m = run("{} f() {exit;}\nbool before := true;\n{} r := f();\n"
                "bool after := true;\n")
        assert m.exited
        assert "before" in m.env and "after" not in m.env

    def test_exit_preserves_copy_out(self):
        m = run(
            "bit<8> x := 0w8;\n"
            "{} f(inout bit<8> a) {a := 7w8; exit; a := 9w8;}\n"
            "{} r := f(x);\n"
        )
        assert m.exited
        assert val(m, "x") == IntV(7, 8)

    def test_exit_restores_block_scopes(self):
        m = run(
            "{} f() {{bit<8> inner := 1w8; exit;}}\n"
            "{} r := f();\n"
        )
        assert m.exited
        assert "inner" not in m.env

    def test_return_stops_function_only(self):
        m = run(
            "bit<8> f(in bool b) {if (b) {return 1w8;} return 2w8;}\n"
            "bit<8> r1 := f(true);\nbit<8> r2 := f(false);\n"
        )
        assert not m.exited
        assert val(m, "r1") == IntV(1, 8)
        assert val(m, "r2") == IntV(2, 8)


class TestScoping:
    def test_block_locals_do_not_leak(self):
        m = run("{} f() {{bit<8> y := 1w8;}}\n{} r := f();\n")
        assert "y" not in m.env

    def test_shadowing_restores_outer(self):
        m = run(
            "bit<8> x := 1w8;\n"
            "{} f() {{bit<8> x := 9w8; x := 10w8;}}\n"
            "{} r := f();\n"
        )
        assert val(m, "x") == IntV(1, 8)

    def test_closure_captures_declaration_env(self):
        # f sees the global g that existed when f was declared
        m = run(
            "bit<8> g := 1w8;\n"
            "bit<8> f() {return g;}\n"
            "bit<8> r1 := f();\n"
            "{} bump() {g := 2w8;}\n"
            "{} u := bump();\n"
            "bit<8> r2 := f();\n"
        )
        assert val(m, "r1") == IntV(1, 8)
        assert val(m, "r2") == IntV(2, 8)  # same location, updated value


class TestHeadersAndStacks:
    def test_invalid_header_write_discarded(self):
        m = run(
            "typedef header {bit<8> a;} H;\n"
            "H h;\n"
            "{} f() {h.a := 5w8;}\n"
            "{} r := f();\n"
            "bit<8> probe := h.a;\n"
        )
        assert val(m, "h").valid is False
        assert val(m, "probe") == IntV(0, 8)  # zero-mode havoc

    def test_cast_makes_valid_header(self):
        m = run(
            "typedef header {bit<8> a;} H;\n"
            "H h;\n"
            "{} f() {h := (H) {a = 5w8}; h.a := 6w8;}\n"
            "{} r := f();\n"
        )
        assert val(m, "h") == HeaderV(True, (("a", None, IntV(6, 8)),)) or \
            val(m, "h").fields[0][2] == IntV(6, 8)
        assert val(m, "h").valid is True

    def test_invalid_header_read_havocs_seeded(self):
        m1 = run("typedef header {bit<8> a;} H;\nH h;\nbit<8> r := h.a;\n",
                 havoc="seeded", seed=11)
        m2 = run("typedef header {bit<8> a;} H;\nH h;\nbit<8> r := h.a;\n",
                 havoc="seeded", seed=11)
        assert val(m1, "r") == val(m2, "r")  # deterministic replay

    def test_stack_read_oob_havocs(self):
        m = run("bit<8>[2] s;\nbit<8> r := s[5w32];\n")
        assert val(m, "r") == IntV(0, 8)

    def test_stack_write_oob_is_error(self):
        with pytest.raises(IndexOutOfBounds):
            run("bit<8>[2] s;\n{} f() {s[5w32] := 1w8;}\n{} r := f();\n")

    def test_stack_write_in_bounds(self):
        m = run("bit<8>[3] s;\n{} f() {s[1w32] := 9w8;}\n{} r := f();\n")
        assert val(m, "s").values[1] == IntV(9, 8)

    def test_slice_write(self):
        m = run("bit<8> x := 0w8;\n{} f() {x[7:4] := 15w4;}\n{} r := f();\n")
        assert val(m, "x") == IntV(0xF0, 8)


class TestTables:
    PROGRAM = (
        "bit<8> x := 1w8;\n"
        "bit<8> res := 0w8;\n"
        "{} hit(in bit<8> v) {res := v;}\n"
        "{} miss() {res := 255w8;}\n"
        "table t {key = {x : exact;} actions = {hit(; v:bit<8>); miss();}}\n"
        "{} go() {t();}\n"
        "{} r := go();\n"
    )

    def test_default_action_without_control_plane(self):
        m = run(self.PROGRAM)
        assert val(m, "res") == IntV(255, 8)

    def test_rule_hits(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "hit", ["42"])
        m = run(self.PROGRAM, cp=cp)
        assert val(m, "res") == IntV(42, 8)

    def test_rule_misses_falls_to_default(self):
        cp = ControlPlane()
        cp.add_rule("t", ["9"], "hit", ["42"])
        m = run(self.PROGRAM, cp=cp)
        assert val(m, "res") == IntV(255, 8)

    def test_first_matching_rule_wins(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "hit", ["10"])
        cp.add_rule("t", ["1"], "hit", ["20"])
        m = run(self.PROGRAM, cp=cp)
        assert val(m, "res") == IntV(10, 8)


    @pytest.mark.parametrize("with_cp", [False, True])
    def test_default_action_needs_its_control_plane_args(self, with_cp):
        # the default action takes a control-plane argument that no rule
        # supplies, with or without a control plane
        program = self.PROGRAM.replace("hit(; v:bit<8>); miss();",
                                       "miss(); hit(; v:bit<8>);")
        with pytest.raises(PcoreError, match="expects 1"):
            run(program, cp=ControlPlane() if with_cp else None)

class TestControls:
    def test_instance_runs_with_ctor_args(self):
        m = run(
            "bit<8> out_v := 0w8;\n"
            "control C()(bit<8> base) {\n"
            "  apply {out_v := base + 1w8;}\n"
            "}\n"
            "C(4w8) inst;\n"
            "{} r := inst();\n"
        )
        assert val(m, "out_v") == IntV(5, 8)


class TestBudget:
    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhausted):
            run("bit<8> x := 0w8;\n"
                "{} f() {x := x + 1w8; x := x + 1w8; x := x + 1w8;}\n"
                "{} r := f();\n", max_steps=5)

    def test_steps_counted(self):
        m = run("bit<8> x := 1w8 + 2w8;\n")
        assert m.steps > 0


class TestMachineOracle:
    def test_final_machine_well_typed(self):
        text = TestTables.PROGRAM
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program)
        m = run(text)
        xi = typecheck.build_xi(delta, m, gamma)
        assert typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_corrupted_store_detected(self):
        text = "bit<8> x := 1w8;\n"
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program)
        m = run(text)
        m.store[m.env["x"]] = BoolV(True)  # wrong type for x
        xi = typecheck.build_xi(delta, m, gamma)
        assert not typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_sigma_disagreement_detected(self):
        text = "const bit<8> c = 7w8;\n"
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program)
        m = run(text)
        m.store[m.env["c"]] = IntV(8, 8)  # breaks sigma agreement
        xi = typecheck.build_xi(delta, m, gamma)
        assert not typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_fixture_with_controls_well_typed(self):
        program = parse_program((FIXTURES / "source_routing.pcore").read_text())
        sigma0, gamma0, delta0, make_machine = three_stage_lite_bootstrap()
        sigma, gamma, delta = typecheck.check_program(
            program, sigma0, gamma0, delta0)
        cp = ControlPlane()
        cp.add_rule("acl", ["0", "1"], "allow")
        m = make_machine("03FF", 0)
        assert not run_program(cp, m, program, entry=True)
        kinds = {type(v) for v in m.store.values()}
        assert {CtorClosureV, ClosureV, NativeV} <= kinds
        xi = typecheck.build_xi(delta, m, gamma)
        assert typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_corrupted_capture_detected(self):
        # x is left out of gamma, so only f's body check can see the damage
        text = ("bit<8> x := 1w8;\n"
                "bit<8> f() { return x; }\n"
                "bit<8> y := f();\n")
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program)
        gamma = {n: t for n, t in gamma.items() if n != "x"}
        m = run(text)
        xi = typecheck.build_xi(delta, m, gamma)
        assert typecheck.check_machine(xi, sigma, gamma, delta, m)
        m.store[m.env["x"]] = BoolV(True)
        xi = typecheck.build_xi(delta, m, gamma)
        assert not typecheck.check_machine(xi, sigma, gamma, delta, m)
