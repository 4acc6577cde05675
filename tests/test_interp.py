"""Dynamic semantics: copy-in/copy-out, exit unwinding, scoping, headers,
stacks, tables, and the machine-typing oracle."""

from dataclasses import replace
from pathlib import Path

import pytest

import pcore
from pcore import interp, typecheck
from pcore.errors import (
    BudgetExhausted, EvalError, PcoreError, TypeError_,
)
from pcore.gen import run_soundness_case
from pcore.interp import run_program
from pcore.parser import parse_program
from pcore.stf import run_packet, run_stf
from pcore.syntax import (
    BitT, BoolV, ClosureV, CtorT, FunT, HeaderV, IntV, NativeV, RecordV, StackV,
)
from pcore.target import GAMMA0, ControlPlane, HavocOracle, make_machine

FIXTURES = Path(pcore.__file__).parent / "fixtures"


def run(text, cp=None, max_steps=10**6, havoc="zero", seed=0):
    program = parse_program(text)
    typecheck.check_program(program, gamma=GAMMA0)
    machine = make_machine(havoc_oracle=HavocOracle(havoc, seed),
                           max_steps=max_steps)
    machine.exited = run_program(cp, machine, program)
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

    def test_stack_element_copy_in_out(self):
        # s starts at 0, 0, 0; each call reads s[1] into v, returns it and
        # writes it back plus 5
        m = run(
            "bit<8>[3] s;\n"
            "bit<8> f(inout bit<8> v) {bit<8> old := v; v := v + 5w8; return old;}\n"
            "bit<8> a := f(s[1w32]);\n"
            "bit<8> b := f(s[1w32]);\n"
        )
        assert (val(m, "a"), val(m, "b")) == (IntV(0, 8), IntV(5, 8))
        assert val(m, "s") == StackV(BitT(8), (IntV(0, 8), IntV(10, 8), IntV(0, 8)))

    def test_bit_slice_copy_in_out(self):
        # 0xA5 is 1010_0101: bits 5..2 are 1001 = 9; 9 + 1 = 1010 written
        # back makes 1010_1001 = 0xA9
        m = run(
            "bit<8> x := 0xA5w8;\n"
            "bit<4> f(inout bit<4> v) {bit<4> old := v; v := v + 1w4; return old;}\n"
            "bit<4> r := f(x[5:2]);\n"
        )
        assert val(m, "r") == IntV(9, 4)
        assert val(m, "x") == IntV(0xA9, 8)


class TestShifts:
    @pytest.mark.parametrize("decl", [
        "bit<8> x := 1w8 << 100000000000;",
        "const bit<8> x = 1w8 << 100000000000;",
        "bit<8> x := 0xFFw8 >> 100000000000;",
        "const bit<8> x = 0xFFw8 >> 100000000000;",
    ])
    def test_shift_past_the_width_is_zero(self, decl):
        """The checker evaluates a const and the evaluator every
        declaration; neither builds the unwrapped result of a long shift."""
        assert val(run(decl), "x") == IntV(0, 8)


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

    def test_body_sees_the_type_names_of_its_declaration(self):
        # k's T is the typedef bit<4>, not its caller's type parameter
        m = run("typedef bit<4> T;\n"
                "bit<8> k(in bit<8> a) { T z := (T) a; return (bit<8>) z; }\n"
                "bit<8> h<:T:>(in T x) { return k(200w8); }\n"
                "bit<8> via := h<:bit<8>:>(1w8);\n")
        assert val(m, "via") == IntV(8, 8)

    def test_body_sees_an_enum_its_caller_shadows(self):
        text = ("enum Color {red, green}\n"
                "bool k(in bit<8> a) { return Color.red == Color.red; }\n"
                "bool h<:Color:>(in Color x) { return k(200w8); }\n"
                "bool via := h<:bit<8>:>(1w8);\n")
        assert val(run(text), "via") == BoolV(True)
        assert run_soundness_case(parse_program(text))["machine_ok"]

    def test_arguments_use_the_callers_type_names(self):
        # the argument's T is the typedef, not id's type parameter
        m = run("typedef bit<4> T;\n"
                "T id<:T:>(in T x) { return x; }\n"
                "bit<8> v := 200w8;\n"
                "bit<8> r := id<:bit<8>:>((bit<8>) ((T) v));\n")
        assert val(m, "r") == IntV(8, 8)

    def test_native_arguments_use_the_callers_type_names(self):
        # emit_bits's type parameter is also named X
        program = parse_program(
            "typedef bit<4> X;\n"
            "bit<8> v := 200w8;\n"
            "control Main() {\n"
            "  apply { emit_bits<:bit<8>:>((bit<8>) ((X) v)); }\n"
            "}\n"
            "Main() main;\n")
        typecheck.check_program(program, gamma=GAMMA0)
        assert run_packet(program, None, "", 0).payload_out == "08"

    def test_switch_label_stays_in_its_case(self):
        # the inner block declares nothing; its scope is still restored
        # without the case's binding of the label `some`
        m = run("union opt_t {bit<8> some; bool none;}\n"
                "bit<8> f() { opt_t o; bit<8> some := 5w8; o.some := 41w8;\n"
                "  { switch (o) { case some: { } case none: { } } }\n"
                "  return some; }\n"
                "bit<8> result := f();\n")
        assert val(m, "result") == IntV(5, 8)

    @pytest.mark.parametrize("prefix, suffix", [
        ("", ""),
        ("control C() {\n", "apply { out_v := r; } }\nC() c;\n{} u := c();\n"),
    ], ids=["top-level", "control-locals"])
    def test_closure_misses_a_later_declaration(self, prefix, suffix):
        # f sees the g declared before it, not the g that shadows it later
        m = run("bit<8> out_v := 0w8;\n" + prefix
                + "bit<8> g := 1w8;\n"
                  "bit<8> f() { return g; }\n"
                  "bit<8> g := 2w8;\n"
                  "bit<8> r := f();\n" + suffix)
        assert val(m, "out_v" if suffix else "r") == IntV(1, 8)

    def test_action_locals_stay_in_the_action(self):
        program = parse_program(
            "control Main() {\n"
            "  bit<8> x := 1w8;\n"
            "  {} allow() { bit<8> x := 7w8; set_egress(x); }\n"
            "  table acl { key = {x : exact;} actions = {allow();} }\n"
            "  apply { acl(); emit_bits<:bit<8>:>(x); }\n"
            "}\n"
            "Main() main;\n")
        typecheck.check_program(program, gamma=GAMMA0)
        out = run_packet(program, None, "", 0)
        assert (out.egress, out.payload_out) == (7, "01")


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

    def test_stack_write_oob_is_discarded(self):
        # the spec leaves it undefined; like a write into an invalid header,
        # it leaves the stack as it was
        m = run("bit<8>[2] s;\n{} f() {s[0w32] := 3w8; s[5w32] := 1w8;}\n"
                "{} r := f();\n")
        assert val(m, "s").values == (IntV(3, 8), IntV(0, 8))

    def test_extract_past_the_end_consumes_its_bits(self):
        program = parse_program(
            "typedef header {bit<8> a;} h_t;\n"
            "control C() { h_t[2] s; apply { extract_bits<:h_t:>(s[2w32]); } }\n"
            "C() main;\n")
        typecheck.check_program(program, gamma=GAMMA0)
        assert run_packet(program, None, "AABB", 0).payload_out == "BB"

    def test_deep_write_changes_only_its_bits(self):
        m = run("typedef record {bit<8> f; bit<8> g;} R;\n"
                "R[2] s;\n"
                "{} go() {s[0w32].f := 255w8; s[1w32].f := 160w8; "
                "s[1w32].g := 7w8; s[1w32].f[3:0] := 5w4;}\n"
                "{} r := go();\n")
        assert val(m, "s").values == (
            RecordV((("f", IntV(255, 8)), ("g", IntV(0, 8)))),
            RecordV((("f", IntV(0xA5, 8)), ("g", IntV(7, 8)))))

    def test_stack_write_in_bounds(self):
        m = run("bit<8>[3] s;\n{} f() {s[1w32] := 9w8;}\n{} r := f();\n")
        assert val(m, "s").values[1] == IntV(9, 8)

    def test_slice_write(self):
        m = run("bit<8> x := 0w8;\n{} f() {x[7:4] := 15w4;}\n{} r := f();\n")
        assert val(m, "x") == IntV(0xF0, 8)

    @pytest.mark.parametrize("value", [
        RecordV((("a", IntV(1, 8)),)),
        HeaderV(True, (("a", BitT(8), IntV(1, 8)),)),
    ], ids=["record", "header"])
    def test_a_missing_field_is_an_eval_error(self, value):
        # a well-typed program never reads one; a caller with a bad value
        # gets the evaluator's error, not Python's KeyError
        with pytest.raises(EvalError, match="no field 'b'"):
            interp._read_field(make_machine(), value, "b")

    @pytest.mark.parametrize("text, message", [
        ("bool b := (bool) 1w8;", "cannot cast bit<8> to bool"),
        ("bit<8> x := 1w8; bit<8> y := x.f;", "field read on bit<8>"),
        ("bit<8> x := 1w8; bit<8> y := x[0];", "indexing a non-stack bit<8>"),
        ("bit<8> x := 1w8; {} f() { x.f := 1w8; } {} r := f();",
         "field write on bit<8>"),
        ("bool x := true; bit<8> y := x();", "calling a non-function bool"),
        ("bit<8> x := 1w8; {} f() { switch (x) { default: {} } } {} r := f();",
         "switch on a non-union bit<8>"),
    ], ids=["cast", "field-read", "index", "field-write", "call", "switch"])
    def test_an_unchecked_program_names_a_value_by_its_type(self, text, message):
        # no checker runs first, so the evaluator meets the ill-typed value
        with pytest.raises(EvalError) as info:
            run_program(None, make_machine(), parse_program(text))
        got = str(info.value)
        assert "IntV(" not in got and "BoolT(" not in got
        assert got == message


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

    @pytest.mark.parametrize("ctrl, kept", [
        ("v:bit<8>", True), ("v:B", False),
    ], ids=["normal", "typedef"])
    def test_action_refs_are_kept_when_their_types_are_normal(self, ctrl, kept):
        program = parse_program(
            "typedef bit<8> B;\n" + self.PROGRAM.replace("v:bit<8>", ctrl))
        typecheck.check_program(program, gamma=GAMMA0)
        m = make_machine()
        run_program(None, m, program)
        declared, actions = program.decls[5].actions, val(m, "t").actions
        assert actions[0].ctrl_params == (("v", BitT(8)),)
        assert (actions[0] is declared[0]) is kept
        assert actions[1] is declared[1]  # miss() has no parameter types

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
        # no rule supplies the default action's control-plane argument on a
        # miss, so T-TableDecl rejects the table before any run
        program = self.PROGRAM.replace("hit(; v:bit<8>); miss();",
                                       "miss(); hit(; v:bit<8>);")
        with pytest.raises(TypeError_, match="T-TableDecl at 5:1: the default"):
            run(program, cp=ControlPlane() if with_cp else None)

    def test_lookup_types_keys_where_the_table_is_applied(self):
        # error {Late} follows the table, but precedes the control applying it
        program = ("error e;\n"
                   "{} hit() { set_egress(1w8); }\n"
                   "{} miss() { drop(); }\n"
                   "table t { key = {e : exact;} actions = {hit(); miss();} }\n"
                   "error {Late}\n"
                   "control Main() { apply { e := error.Late; t(); } }\n"
                   "Main() main;\n")
        (out,) = run_stf(program, "add t e:Late hit()\npacket 0 00\n").packets
        assert out.egress == 1

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

    @pytest.mark.parametrize("text, msg", [
        # one closure class: its type tells a constructor from a function
        ("control C() { apply { } }\n{} r := C();\n", "calling a non-function"),
        ("{} f() { }\nf() i;\n", "'f' is not a constructor"),
    ], ids=["call-constructor", "instantiate-function"])
    def test_closure_type_decides_call_and_instantiation(self, text, msg):
        # the checker rejects both, so run them unchecked
        machine = make_machine()
        with pytest.raises(EvalError, match=msg):
            run_program(None, machine, parse_program(text))


class TestBudget:
    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhausted):
            run("bit<8> x := 0w8;\n"
                "{} f() {x := x + 1w8; x := x + 1w8; x := x + 1w8;}\n"
                "{} r := f();\n", max_steps=5)

    def test_steps_counted(self):
        m = run("bit<8> x := 1w8 + 2w8;\n")
        assert m.steps > 0

    def test_every_machine_has_a_budget(self):
        # there is no unbounded machine: a budget outlives the one that
        # run_with_budget installs in its place
        machine = make_machine()
        assert machine.max_steps is interp.MAX_STEPS
        program = parse_program("bit<8> x := 1w8 + 2w8;\n")
        with pytest.raises(BudgetExhausted):
            interp.run_with_budget(
                machine, 2, lambda: run_program(None, machine, program))
        assert machine.max_steps is interp.MAX_STEPS
        assert interp.run_with_budget(machine, 7, lambda: machine.max_steps) == 7
        assert machine.max_steps is interp.MAX_STEPS


class TestMachineOracle:
    def test_final_machine_well_typed(self):
        text = TestTables.PROGRAM
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program, gamma=GAMMA0)
        m = run(text)
        xi = typecheck.build_xi(delta, m, gamma)
        assert typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_corrupted_store_detected(self):
        text = "bit<8> x := 1w8;\n"
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program, gamma=GAMMA0)
        m = run(text)
        m.store[m.env["x"]] = BoolV(True)  # wrong type for x
        xi = typecheck.build_xi(delta, m, gamma)
        assert not typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_sigma_disagreement_detected(self):
        text = "const bit<8> c = 7w8;\n"
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program, gamma=GAMMA0)
        m = run(text)
        m.store[m.env["c"]] = IntV(8, 8)  # breaks sigma agreement
        xi = typecheck.build_xi(delta, m, gamma)
        assert not typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_unbound_constructor_detected(self):
        # a constructor is a closure like any other, so its name is bound
        text = "control C() { apply { } }\n"
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program, gamma=GAMMA0)
        m = run(text)
        xi = typecheck.build_xi(delta, m, gamma)
        assert typecheck.check_machine(xi, sigma, gamma, delta, m)
        del m.env["C"]
        assert not typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_fixture_with_controls_well_typed(self):
        program = parse_program((FIXTURES / "source_routing.pcore").read_text())
        sigma, gamma, delta = typecheck.check_program(program, gamma=GAMMA0)
        cp = ControlPlane()
        cp.add_rule("acl", ["0", "1"], "allow")
        m = make_machine("03FF", 0)
        assert not run_program(cp, m, program)
        # a closure's type says constructor, or function and instance
        kinds = {(type(v), type(getattr(v, "type", None)))
                 for v in m.store.values()}
        assert {(ClosureV, CtorT), (ClosureV, FunT), (NativeV, FunT)} <= kinds
        xi = typecheck.build_xi(delta, m, gamma)
        assert typecheck.check_machine(xi, sigma, gamma, delta, m)

    def test_corrupted_capture_detected(self):
        # x is left out of gamma, so only f's body check can see the damage
        text = ("bit<8> x := 1w8;\n"
                "bit<8> f() { return x; }\n"
                "bit<8> y := f();\n")
        program = parse_program(text)
        sigma, gamma, delta = typecheck.check_program(program, gamma=GAMMA0)
        gamma = {n: t for n, t in gamma.items() if n != "x"}
        m = run(text)
        xi = typecheck.build_xi(delta, m, gamma)
        assert typecheck.check_machine(xi, sigma, gamma, delta, m)
        m.store[m.env["x"]] = BoolV(True)
        xi = typecheck.build_xi(delta, m, gamma)
        assert not typecheck.check_machine(xi, sigma, gamma, delta, m)

    @pytest.mark.parametrize("text, name, corrupt", [
        # the body is checked under the type definitions f captured
        ("typedef bit<4> T;\nT f() { T x := 1w4; return x; }\n", "f",
         lambda v: replace(v, delta=typecheck.initial_delta())),
        # a table is checked by T-TableDecl, default-action rule included
        (TestTables.PROGRAM, "t", lambda v: replace(v, actions=v.actions[::-1])),
    ], ids=["closure-delta", "table-default"])
    def test_captured_value_checked_in_its_own_scope(self, text, name, corrupt):
        sigma, gamma, delta = typecheck.check_program(parse_program(text),
                                                     gamma=GAMMA0)
        m = run(text)
        xi = typecheck.build_xi(delta, m, gamma)
        assert typecheck.check_machine(xi, sigma, gamma, delta, m)
        m.store[m.env[name]] = corrupt(val(m, name))
        assert not typecheck.check_machine(xi, sigma, gamma, delta, m)
