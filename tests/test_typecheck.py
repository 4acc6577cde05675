"""Static semantics: expression/statement/declaration rules, compile-time
evaluation, type normalization and equality."""

import tracemalloc

import pytest

from pcore import syntax, typecheck
from pcore.errors import TypeError_
from pcore.gen import run_soundness_case
from pcore.interp import run_program
from pcore.parser import (
    parse_expression, parse_program, parse_statement, parse_type,
)
from pcore.pretty import pretty_program, pretty_type
from pcore.syntax import (
    BitT, BlockS, BoolT, BoolV, CallE, CallS, ControlD, CtorT, EnumT, FuncD,
    FunT, HeaderT, IntE, IntT, IntV, MemberV, OPEN_ENUMS, Param, Program,
    RecordT, StackT, TableT, UnionT, VarE, VarT, VarUninitD, VOID,
)
from pcore.target import GAMMA0, HavocOracle, make_machine


def chk(text, **initial):
    return typecheck.check_program(parse_program(text), **initial)


def expr(text, gamma=None, sigma=None, delta=None):
    return typecheck.check_expression(
        sigma or {}, gamma or {}, delta or typecheck.initial_delta(),
        parse_expression(text),
    )


class TestTypeEqual:
    def test_alpha_renaming(self):
        f1 = FunT(("X",), (Param("in", "a", VarT("X")),), VarT("X"))
        f2 = FunT(("Y",), (Param("in", "b", VarT("Y")),), VarT("Y"))
        assert f1 == f2

    def test_open_enums_compare_by_kind(self):
        assert EnumT("error", ("A",)) == EnumT("error", ("B",))
        assert EnumT("match_kind", ("x",)) == EnumT("match_kind", ())
        assert EnumT("error", ()) != EnumT("match_kind", ())

    def test_closed_enums_with_other_members_differ(self):
        assert EnumT("E", ("a", "b")) != EnumT("E", ("a",))
        assert EnumT("E", ("a", "b")) != EnumT("E", ("b", "a"))
        assert EnumT("E", ("a",)) == EnumT("E", ("a",))

    def test_structural_inequality(self):
        assert BitT(8) != BitT(9)
        assert RecordT((("a", BitT(8)),)) != RecordT((("b", BitT(8)),))


class TestSimplify:
    def test_width_expression(self):
        t = parse_type("bit<4 + 4>")
        assert typecheck.simplify_type({}, typecheck.initial_delta(), t) == BitT(8)

    def test_width_from_const(self):
        sigma, gamma, delta = chk("const int w = 16;\nbit<w> x := 0w16;")
        assert gamma["x"] == BitT(16)

    def test_zero_width_rejected(self):
        with pytest.raises(TypeError_):
            chk("bit<0> x := 0w1;")

    def test_typedef_chain(self):
        sigma, gamma, delta = chk(
            "typedef bit<8> byte;\ntypedef byte octet;\noctet x := 1w8;"
        )
        assert gamma["x"] == BitT(8)

    def test_unbound_type_var(self):
        with pytest.raises(TypeError_):
            chk("Mystery x := 1w8;")


H8 = HeaderT((("a", BitT(8)), ("b", BoolT())))
# one normal form of each type class, in a scope where X is a type variable
NORMAL = [
    BoolT(), IntT(), BitT(8), EnumT("E", ("a",)), VarT("X"), TableT(),
    RecordT((("a", BitT(8)), ("h", H8))), H8, StackT(H8, 3),
    UnionT("U", (("a", BitT(8)), ("b", BoolT()))),
    FunT(("Y",), (Param("in", "y", VarT("Y")), Param("out", "x", VarT("X"))),
         BitT(8)),
    CtorT((("n", BitT(8)),), FunT((), (Param("inout", "h", H8),), VOID)),
]
SCOPE = typecheck.initial_delta().bind_var("X").bind("byte", BitT(8))


def parts(t):
    """The types that t is made of, one level down."""
    match t:
        case StackT(elem, _):
            return [elem]
        case RecordT(fs) | HeaderT(fs) | UnionT(_, fs):
            return [ft for _, ft in fs]
        case FunT(_, ps, ret):
            return [p.type for p in ps] + [ret]
        case CtorT(ps, ret):
            return [pt for _, pt in ps] + [ret]
    return []


class TestSharedNormalForms:
    """simplify_type returns a type itself when no part of it changes, and
    a fresh type, sharing the parts that did not change, when one does."""

    def test_every_type_class_has_a_normal_form(self):
        def leaves(c):
            return {c} if not c.__subclasses__() else set().union(
                *map(leaves, c.__subclasses__()))
        # the classes syntax binds: a class a slotted dataclass replaced may
        # linger among the subclasses until it is collected
        classes = {c for c in leaves(syntax.Type)
                   if getattr(syntax, c.__name__, None) is c}
        assert {type(t) for t in NORMAL} == classes

    @pytest.mark.parametrize("t", NORMAL, ids=lambda t: type(t).__name__)
    def test_a_normal_form_is_shared(self, t):
        assert typecheck.simplify_type({}, SCOPE, t) is t

    @pytest.mark.parametrize("t, want", [
        (BitT(IntE(8)), BitT(8)),
        (StackT(BitT(8), IntE(2)), StackT(BitT(8), 2)),
        (StackT(VarT("byte"), 2), StackT(BitT(8), 2)),
        (RecordT((("a", VarT("byte")), ("h", H8))),
         RecordT((("a", BitT(8)), ("h", H8)))),
        (HeaderT((("a", BitT(IntE(4))),)), HeaderT((("a", BitT(4)),))),
        (UnionT("U", (("a", BoolT()), ("b", VarT("byte")))),
         UnionT("U", (("a", BoolT()), ("b", BitT(8))))),
        (FunT((), (Param("in", "a", VarT("byte")), Param("in", "h", H8)), H8),
         FunT((), (Param("in", "a", BitT(8)), Param("in", "h", H8)), H8)),
        (FunT((), (Param("in", "h", H8),), VarT("byte")),
         FunT((), (Param("in", "h", H8),), BitT(8))),
        (CtorT((("n", VarT("byte")),), FunT((), (), VOID)),
         CtorT((("n", BitT(8)),), FunT((), (), VOID))),
    ], ids=["bit-width", "stack-size", "stack-elem", "record", "header",
            "union", "fun-param", "fun-ret", "ctor"])
    def test_a_changed_part_makes_a_fresh_type(self, t, want):
        before = repr(t)
        got = typecheck.simplify_type({}, SCOPE, t)
        assert got == want and got is not t and repr(t) == before
        # the parts that did not change are shared
        for old, new, part in zip(parts(t), parts(got), parts(want)):
            assert (new is old) == (part == old), (new, old)

    @pytest.mark.parametrize("t, rule, message", [
        (BitT(0), "TyS-Bit", "bit width must be positive, got 0"),
        (StackT(BitT(8), -1), "TyS-Stack", "stack size must be nonnegative, got -1"),
        (RecordT((("a", BitT(8)), ("a", BitT(8)))), "TyS-Record",
         "duplicate field name"),
        (HeaderT((("a", BitT(8)), ("a", BoolT()))), "TyS-Record",
         "duplicate field name"),
    ], ids=["bit", "stack", "record", "header"])
    def test_a_shared_form_is_still_checked(self, t, rule, message):
        with pytest.raises(TypeError_, match=message) as exc:
            typecheck.simplify_type({}, SCOPE, t)
        assert exc.value.rule == rule


class TestCteval:
    def test_arith(self):
        assert typecheck.cteval({}, parse_expression("2 + 3 * 4")) == \
            IntV(14, None)

    def test_const_lookup(self):
        assert typecheck.cteval({"c": IntV(5, None)},
                                parse_expression("c * c")) == IntV(25, None)

    def test_not_compile_time(self):
        with pytest.raises(TypeError_) as exc:
            typecheck.cteval({}, parse_expression("x + 1"))
        assert exc.value.rule == "NotCompileTime"

    @pytest.mark.parametrize("t, want", [
        ("bit<1 / 0>", "T-BinOp at 1:7: '/' requires a nonnegative dividend "
                       "and a positive divisor, got 1 and 0"),
        ("bit<true + 1>", "T-BinOp at 1:10: operator '+' not defined at "
                          "(bool, int)"),
        ("bit<!1>", "T-UOp at 1:5: operator '!' not defined at (int)"),
        ("bit<8>[true]", "TyS at 1:1: stack size true is not an integer"),
    ])
    def test_widths_and_sizes_are_typed(self, t, want):
        # a width or size is evaluated without being checked first
        with pytest.raises(TypeError_) as exc:
            chk(f"{t} x;")
        assert str(exc.value) == want


class TestExpressions:
    def test_literal_width_check(self):
        with pytest.raises(TypeError_):
            expr("9w3")

    @pytest.mark.parametrize("text, want", [
        ("bit<300w8> x;", "T-Bit at 1:5: 300 does not fit in bit<8>"),
        ("bit<8>[3w1] s;", "T-Bit at 1:8: 3 does not fit in bit<1>"),
        ("bool b := 0w0 == 0w0;", "T-Bit at 1:11: bit width must be positive, got 0"),
        ("bit<1> b := 0w0 ++ 1w1;",
         "T-Bit at 1:13: bit width must be positive, got 0"),
    ], ids=["width", "stack-size", "zero-width-eq", "zero-width-concat"])
    def test_one_literal_rule_everywhere(self, text, want):
        """A literal with a width is checked by T-Bit wherever it stands, in a
        width, a stack size or an expression."""
        with pytest.raises(TypeError_) as exc:
            chk(text)
        assert str(exc.value) == want

    @pytest.mark.parametrize("text", [
        "bit<8w8> x;", "bit<8>[3w2] s;", "bit<1> b := 1w1;", "bool b := 0w1 == 0w1;",
    ])
    def test_literals_that_fit_check(self, text):
        chk(text)

    def test_a_wide_literal_is_checked_in_little_memory(self):
        # 1 << width, to bound the literal, would alone take 12.5 MB
        program = parse_program("bit<100000000> x := 1w100000000;")
        tracemalloc.start()
        try:
            typecheck.check_program(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_var_direction(self):
        te = expr("x", gamma={"x": BitT(8)})
        assert te.direction == "inout"

    def test_const_direction(self):
        te = expr("c", gamma={"c": BitT(8)}, sigma={"c": IntV(1, 8)})
        assert te.direction == "in"

    def test_member_preserves_direction(self):
        g = {"r": RecordT((("a", BitT(4)),))}
        assert expr("r.a", gamma=g).direction == "inout"

    def test_index_requires_bit32(self):
        g = {"s": StackT(BitT(8), 2)}
        assert expr("s[0w32]", gamma=g).type == BitT(8)
        with pytest.raises(TypeError_):
            expr("s[0w16]", gamma=g)
        with pytest.raises(TypeError_):
            expr("s[0]", gamma=g)

    def test_slice_bounds(self):
        g = {"x": BitT(8)}
        assert expr("x[7:4]", gamma=g).type == BitT(4)
        with pytest.raises(TypeError_):
            expr("x[8:0]", gamma=g)
        with pytest.raises(TypeError_):
            expr("x[2:5]", gamma=g)

    def test_slice_endpoints_compile_time(self):
        g = {"x": BitT(8), "i": IntT()}
        with pytest.raises(TypeError_):
            expr("x[i:0]", gamma=g)

    def test_enum_member(self):
        d = typecheck.initial_delta().bind("E", EnumT("E", ("a", "b")))
        assert expr("E.a", delta=d).type == EnumT("E", ("a", "b"))
        with pytest.raises(TypeError_):
            expr("E.zz", delta=d)

    def test_error_member(self):
        te = expr("error.NoError")
        assert te.type == EnumT("error", ("NoError",))

    def test_enum_name_is_not_a_value(self):
        d = typecheck.initial_delta().bind("E", EnumT("E", ("a",)))
        with pytest.raises(TypeError_):
            expr("E", delta=d)

    def test_record_literal(self):
        te = expr("{a = 1w8, b = true}")
        assert te.type == RecordT((("a", BitT(8)), ("b", BoolT())))

    def test_div_requires_compile_time_divisor(self):
        g = {"x": BitT(8), "y": BitT(8)}
        assert expr("x / 3w8", gamma=g).type == BitT(8)
        with pytest.raises(TypeError_):
            expr("x / y", gamma=g)
        with pytest.raises(TypeError_):
            expr("x / 0w8", gamma=g)

    def test_int_shift_amount_compile_time_nonneg(self):
        g = {"x": BitT(8), "i": IntT()}
        assert expr("x << 2", gamma=g).type == BitT(8)
        with pytest.raises(TypeError_):
            expr("x << i", gamma=g)
        with pytest.raises(TypeError_):
            expr("x << -1", gamma=g)

    def test_bit_shift_amount_dynamic_ok(self):
        g = {"x": BitT(8), "y": BitT(4)}
        assert expr("x >> y", gamma=g).type == BitT(8)


class TestStatements:
    def test_assign_needs_inout(self):
        with pytest.raises(TypeError_):
            chk("const bit<8> c = 1w8;\n{} f() {c := 2w8;}")

    @pytest.mark.parametrize("lhs, rule", [
        ("c", "TS-Assign"), ("g()", "TS-Assign"), ("1w8", "TS-Assign"),
        ("(bit<8>) 1w8", "TS-Assign"), ("c + 1w8", "TS-Assign"),
        ("h().x", "T-Union"),
    ])
    def test_left_side_that_cannot_be_assigned_is_named(self, lhs, rule):
        # as written, whether a constant, a call result, a literal, a cast,
        # an operator or an alternative of a call's union
        with pytest.raises(TypeError_) as exc:
            chk("const bit<8> c = 1w8;\nbit<8> g() {return c;}\n"
                "union U {bit<8> x;}\nU h() {U u; u.x := c; return u;}\n"
                f"{{}} f() {{{lhs} := 2w8;}}")
        assert (exc.value.rule, exc.value.msg) == (rule, f"{lhs} cannot be assigned")

    def test_assign_type_mismatch(self):
        with pytest.raises(TypeError_):
            chk("bit<8> x := 1w8;\n{} f() {x := true;}")

    def test_block_scoping(self):
        # inner declarations do not leak
        with pytest.raises(TypeError_):
            chk("{} f() {{bit<8> y := 1w8;} y := 2w8;}")

    def test_shadowing_const(self):
        sigma, gamma, delta = chk(
            "const bit<8> c = 1w8;\n"
            "bit<8> f() {bit<8> c := 2w8; c := 3w8; return c;}"
        )
        assert sigma["c"] == IntV(1, 8)

    def test_no_type_decls_in_blocks(self):
        with pytest.raises(TypeError_):
            chk("{} f() {enum E {a} exit;}")

    def test_enum_member_is_not_assignable(self):
        # the left side's base is typed as an expression, where an enum
        # name is not a value
        with pytest.raises(TypeError_, match="enum name 'Color' is not a value"):
            chk("enum Color {red, green}\n{} f() {Color.red := Color.green;}")

    def test_return_type_checked(self):
        with pytest.raises(TypeError_):
            chk("bit<8> f() {return true;}")

    def test_return_outside_function_rejected(self):
        with pytest.raises(TypeError_):
            typecheck.check_statement({}, {}, typecheck.initial_delta(),
                                      parse_statement("return 1;"))


class TestReturnsAnalysis:
    def test_missing_return(self):
        with pytest.raises(TypeError_) as exc:
            chk("bit<8> f(in bool b) {if (b) {return 1w8;}}")
        assert exc.value.rule == "MissingReturn"

    def test_both_branches(self):
        chk("bit<8> f(in bool b) {if (b) {return 1w8;} else {exit;}}")

    def test_void_falls_through(self):
        chk("{} f() {bit<8> x := 1w8;}")


class TestDeclarations:
    def test_const_must_be_compile_time(self):
        with pytest.raises(TypeError_):
            chk("bit<8> x := 1w8;\nconst bit<8> c = x;")

    def test_duplicate_enum_member(self):
        with pytest.raises(TypeError_) as exc:
            chk("enum E {a, a}")
        assert exc.value.rule == "DuplicateEnumMember"

    def test_error_members_merge(self):
        sigma, gamma, delta = chk("error {A}\nerror {B}")
        assert set(delta.get("error").members) >= {"NoError", "A", "B"}

    def test_duplicate_type_name(self):
        with pytest.raises(TypeError_):
            chk("enum E {a}\nenum E {b}")

    def test_duplicate_param_names(self):
        with pytest.raises(TypeError_):
            chk("{} f(in bit<8> p, in bool p) {}")

    @pytest.mark.parametrize("text, rule, message", [
        pytest.param("typedef record {bit<8> a; bool a;} R;\n"
                     "control C() { R r; apply { set_egress(r.a); } }\nC() main;",
                     "TyS-Record", "duplicate field name", id="record"),
        pytest.param("typedef header {bit<8> a; bit<8> a;} H;",
                     "TyS-Record", "duplicate field name", id="header"),
        pytest.param("{} f() { record {bit<8> a; bool a;} r; }",
                     "TyS-Record", "duplicate field name", id="local-record"),
        pytest.param("control C()(bit<8> a, bit<8> a) { apply { } }",
                     "T-FuncDecl", "duplicate parameter name", id="ctor-params"),
        pytest.param("control C(in bit<8> x)(bit<8> x) { apply { } }",
                     "T-FuncDecl", "duplicate parameter name",
                     id="ctor-and-run-time-params"),
    ])
    def test_names_do_not_repeat(self, text, rule, message):
        # with a repeated name, r.a would be typed by the first field and
        # read from the last
        with pytest.raises(TypeError_, match=message) as exc:
            chk(text, gamma=GAMMA0)
        assert exc.value.rule == rule

    def test_generic_function(self):
        sigma, gamma, delta = chk(
            "X id<:X:>(in X v) {return v;}\n"
            "bit<8> r := id<:bit<8>:>(7w8);"
        )
        assert gamma["r"] == BitT(8)

    def test_two_type_arguments(self):
        program = parse_program("Y snd<:X, Y:>(in X a, in Y b) {return b;}\n"
                                "bool r := snd<:bit<8>, bool:>(7w8, true);")
        assert typecheck.check_program(program)[1]["r"] == BoolT()
        machine = make_machine()
        run_program(None, machine, program)
        assert machine.store[machine.env["r"]] == BoolV(True)

    def test_generic_call_type_mismatch(self):
        with pytest.raises(TypeError_):
            chk("X id<:X:>(in X v) {return v;}\n"
                "bit<8> r := id<:bit<4>:>(7w8);")

    def test_out_arg_requires_inout_path(self):
        with pytest.raises(TypeError_):
            chk("{} f(out bit<8> p) {p := 1w8;}\n"
                "const bit<8> c = 0w8;\n"
                "{} g() {f(c);}")

    def test_table_keys_eq_comparable(self):
        with pytest.raises(TypeError_):
            chk("typedef record {bit<8> a;} R;\n"
                "R r := {a = 1w8};\n"
                "{} act() {}\n"
                "table t {key = {r : exact;} actions = {act();}}")

    def test_table_needs_action(self):
        with pytest.raises(Exception):
            parse_program("table t {key = {} actions = {}}")

    def test_unknown_match_kind(self):
        with pytest.raises(TypeError_):
            chk("bit<8> x := 0w8;\n{} act() {}\n"
                "table t {key = {x : ternary;} actions = {act();}}")

    def test_sibling_controls_each_declare_an_enum(self):
        program = parse_program(
            "bool cb := false;\nbool dc := false;\n"
            "control C() {enum E {a, b} E v := E.b; apply {cb := v == E.b;}}\n"
            "control D() {enum E {c} E v := E.c; apply {dc := v == E.c;}}\n"
            "C() c;\nD() d;\n"
            "control M() {apply {c(); d();}}\nM() main;"
        )
        assert typecheck.check_program(program)[2].get("E") is None
        machine = make_machine()
        run_program(None, machine, program)
        assert [machine.store[machine.env[n]] for n in ("cb", "dc")] == \
            [BoolV(True), BoolV(True)]

    def test_match_kind_extension(self):
        chk("match_kind {ternary}\nbit<8> x := 0w8;\n{} act() {}\n"
            "table t {key = {x : ternary;} actions = {act();}}")

    def test_control_decl(self):
        sigma, gamma, delta = chk(
            "control C() {bit<8> v; apply {v := 1w8;}}\nC() inst;"
        )
        assert gamma["inst"] == FunT((), (), VOID)

    def test_control_ctor_args(self):
        chk("control C()(bit<8> base) {apply {}}\nC(3w8) inst;")
        with pytest.raises(TypeError_):
            chk("control C()(bit<8> base) {apply {}}\nC(true) inst;")

    def test_action_ctrl_params_direction_in(self):
        sigma, gamma, delta = chk(
            "bit<8> x := 0w8;\n"
            "{} act(in bit<8> p) {x := p;}\n{} dfl() {}\n"
            "table t {key = {x : exact;} actions = {act(; p:bit<8>); dfl();}}"
        )
        assert "t" in gamma


def _table(action, refs, body=""):
    """A control that declares action, an action b() and a table t whose
    actions are refs, and whose apply block is body."""
    return ("control C() {\n  " + action + "\n  {} b() { }\n"
            "  table t { key = {} actions = {" + refs + "} }\n"
            "  apply { " + body + " }\n}")


@pytest.mark.parametrize("text, rule, pos, msg", [
    ("bool b := true;\nbit<1> c := b[0:0];", "T-Slice", (2, 14), "non-bit"),
    ("record {bit<8> a;} r := {a = 1w8};\nbit<8> y := r.b;", "T-Mem", (2, 14),
     "no field 'b'"),
    (_table("{} a() { }", "b();", "bit<8> x := t();"), "T-Call", (5, 24),
     "tables are applied as statements"),
    ("bit<8> f(in bit<8> a) { return a; }\nbit<8> y := f();", "T-Call", (2, 14),
     "expected 1 arguments, got 0"),
    ("union U {bit<8> a;}\ncontrol C() { apply {\n"
     "  U u; switch (u) { case b: { } }\n} }", "T-Switch", (3, 8),
     "'b' is not an alternative"),
    ("union U {}", "T-Union", (1, 1), "no alternatives"),
    ("union U {bit<8> x;}\nU h() { U u; u.x := 1w8; return u; }\n"
     "control C() { apply {\n  h().x := 1w8;\n} }", "T-Union", (4, 3),
     "h().x cannot be assigned"),
    (_table("{} a() { }", "a(); a(); b();"), "T-TableDecl", (4, 3),
     "duplicate action"),
    (_table("bit<8> a;", "a(); b();"), "Type-Partial-App", (4, 33),
     "is not a function"),
    (_table("{} a<:T:>() { }", "a(); b();"), "Type-Partial-App", (4, 33),
     "must not be generic"),
    (_table("{} a(in bit<8> p) { }", "a(); b();"), "Type-Partial-App", (4, 33),
     "do not cover 1 parameters"),
    (_table("{} a(inout bit<8> p) { }", "a(; p: bit<8>); b();"),
     "Type-Partial-App", (4, 33), "must be in, got inout"),
    (_table("{} a(in bit<8> p) { }", "a(; p: bool); b();"),
     "Type-Partial-App", (4, 33), "has type bool, expected bit<8>"),
    ("int x := -1 / 2;", "T-BinOp", (1, 13), "dividend must be nonnegative"),
    ("int y := 1;\nint x := y / 2;", "T-BinOp", (2, 10),
     "int dividend must be compile-time known"),
], ids=["slice-non-bit", "missing-field", "table-in-expression", "argument-count",
        "switch-label", "empty-union", "alternative-of-call", "repeated-action",
        "action-not-function", "action-generic", "action-uncovered",
        "control-plane-inout", "control-plane-type", "negative-int-dividend",
        "variable-int-dividend"])
def test_rejection_rule_and_position(text, rule, pos, msg):
    # each case reaches its own raise site of the rule
    with pytest.raises(TypeError_) as exc:
        chk(text, gamma=GAMMA0)
    assert (exc.value.rule, exc.value.pos) == (rule, pos)
    assert msg in exc.value.msg


@pytest.mark.parametrize("text, msg", [
    ("typedef record {bit<8> a;} R; R r := {a = true};",
     "initializer has type record {bool a;}, expected record {bit<8> a;}"),
    ("typedef header {bit<8> a;} H; H h; bit<8> y := h;",
     "initializer has type header {bit<8> a;}, expected bit<8>"),
    ("enum Color {red} bit<8> y := Color.red;",
     "initializer has type Color, expected bit<8>"),
    ("union U {bit<8> a;} U u; bit<8> y := u;",
     "initializer has type U, expected bit<8>"),
    ("{} f() { } bit<8> y := f();", "initializer has type {}, expected bit<8>"),
    ("X id<:X:>(in X x) { return x; } bit<8> y := id;",
     "initializer has type fun<:X:>(in X x) -> X, expected bit<8>"),
    ("control C()(bit<8> a) { apply { } } bit<8> y := C;",
     "initializer has type ctor(bit<8> a) -> fun() -> {}, expected bit<8>"),
    (_table("{} a() { }", "b();", "bit<8> y := t;"),
     "initializer has type table, expected bit<8>"),
    ("bool b := !{a = 1w8, b = {}};",
     "operator '!' not defined at (record {bit<8> a; {} b;})"),
], ids=["record", "header", "enum", "union", "empty-record", "function",
        "constructor", "table", "operand"])
def test_messages_spell_types_as_source(text, msg):
    # through pretty_type: a base type as the parser reads it, and a
    # function, constructor or table type in the notation of the calculus
    with pytest.raises(TypeError_) as exc:
        chk(text, gamma=GAMMA0)
    assert exc.value.msg == msg


@pytest.mark.parametrize("decl, rule, msg", [
    (FuncD(VOID, "f", (), (Param("in", "g", FunT((), (), VOID)),), BlockS(())),
     "T-FuncDecl", "parameter 'g' must have a base type"),
    (ControlD("C", (), (), (VarUninitD(BitT(8), "x"),), BlockS((CallS(
        CallE(VarE("is_valid"), (TableT(),), (VarE("x"),))),))),
     "T-Call", "type arguments must be base types"),
], ids=["function-parameter", "type-argument"])
def test_stratum_guards_on_hand_built_trees(decl, rule, msg):
    """The parser spells only base types, so only a tree built by hand
    reaches the stratum's guards in T-FuncDecl and T-Call."""
    with pytest.raises(TypeError_) as exc:
        typecheck.check_program(Program((decl,)), gamma=GAMMA0)
    assert exc.value.rule == rule and exc.value.msg == msg


OPEN = [("error", "NoError"), ("match_kind", "exact")]
ENUMS = OPEN + [("Color", "red")]  # the shared cases hold for a closed enum
open_enums = pytest.mark.parametrize("kw, first", OPEN,
                                     ids=[kw for kw, _ in OPEN])
all_enums = pytest.mark.parametrize("kw, first", ENUMS,
                                    ids=[kw for kw, _ in ENUMS])


class TestOpenEnumerations:
    """`error` and `match_kind` are enumerations named by a keyword whose
    declarations add members: the same rules hold for each, and for a
    closed enum but for the adding."""

    def program(self, kw, first):
        if kw in OPEN_ENUMS:
            decls = f"{kw} {{A, B}}\n{kw} {{B, C}}\n"
        else:
            decls = f"enum {kw} {{{first}, A, B, C}}\n"
        return parse_program(
            decls +
            f"{kw} c := {kw}.C;\n"
            f"{kw} x := {kw}.A;\n"
            f"bool same := x == {kw}.A;\n"
            f"bool differ := x != c;\n"
            f"{kw} d;\n"
        )

    @open_enums
    def test_declarations_merge_members(self, kw, first):
        _, gamma, delta = typecheck.check_program(self.program(kw, first))
        assert delta.get(kw) == EnumT(kw, ())
        assert delta.get(kw).members == (first, "A", "B", "C")
        assert gamma["x"] == EnumT(kw, ()) and gamma["same"] == BoolT()

    @open_enums
    def test_duplicate_member_names_the_enumeration(self, kw, first):
        with pytest.raises(TypeError_, match=f"'{kw}'") as exc:
            chk(f"{kw} {{A, B, A}}\n")
        assert exc.value.rule == "DuplicateEnumMember"

    @open_enums
    def test_undeclared_member_is_an_error_of_the_declaration(self, kw, first):
        with pytest.raises(TypeError_, match="T-Err"):
            expr(f"{kw}.Undeclared")

    @all_enums
    def test_member_typed_evaluated_and_compared(self, kw, first):
        _, _, delta = typecheck.check_program(self.program(kw, first))
        assert expr(f"{kw}.{first}", delta=delta).type == delta.get(kw)
        assert expr(f"{kw}.{first} == {kw}.{first}", delta=delta).type == BoolT()
        machine = make_machine()
        run_program(None, machine, self.program(kw, first))
        value = {n: machine.store[loc] for n, loc in machine.env.items()}
        assert value["x"] == MemberV(kw, "A") and value["c"] == MemberV(kw, "C")
        assert value["same"] == BoolV(True) and value["differ"] == BoolV(True)
        assert value["d"] == MemberV(kw, first)  # the default is the first

    @all_enums
    def test_machine_typing_after_soundness_case(self, kw, first):
        assert run_soundness_case(self.program(kw, first))["machine_ok"]

    @all_enums
    def test_member_through_a_typedef(self, kw, first):
        # the value names the enumeration, not the typedef
        program = parse_program(
            pretty_program(self.program(kw, first)) +
            f"typedef {kw} E;\nbool b := E.A == {kw}.A;\nE e := E.C;\n")
        typecheck.check_program(program)
        machine = make_machine()
        run_program(None, machine, program)
        assert machine.store[machine.env["b"]] == BoolV(True)
        assert machine.store[machine.env["e"]] == MemberV(kw, "C")
        assert run_soundness_case(program)["machine_ok"]

    @open_enums
    def test_typedef_sees_members_declared_after_it(self, kw, first):
        program = parse_program(
            f"typedef {kw} E;\n{kw} {{Late}}\nE e := E.Late;\n")
        typecheck.check_program(program)
        assert run_soundness_case(program)["machine_ok"]
        with pytest.raises(TypeError_, match=f"not a declared {kw} member"):
            chk(f"typedef {kw} E;\nE e := E.Undeclared;\n")

    @all_enums
    def test_seeded_havoc_draws_are_well_typed(self, kw, first):
        _, _, delta = typecheck.check_program(self.program(kw, first))
        t = typecheck.simplify_type({}, delta, VarT(kw))
        oracle = HavocOracle("seeded", 3)
        drawn = {oracle.havoc(t) for _ in range(40)}
        assert all(typecheck.check_value({}, {}, delta, v, t) for v in drawn)
        assert {v.member for v in drawn} == {first, "A", "B", "C"}

    @all_enums
    def test_parse_pretty_round_trip(self, kw, first):
        program = self.program(kw, first)
        assert parse_program(pretty_program(program)) == program
        t = EnumT(kw, (first,))
        assert parse_type(pretty_type(t)) == VarT(kw)
