"""Operator, cast, and default-value oracles."""

import pytest
from hypothesis import given, strategies as st

from pcore import ops, typecheck
from pcore.errors import ArithmeticError_, EvalError, Uninhabitable
from pcore.lexer import KIND, lex
from pcore.parser import parse_expression
from pcore.pretty import pretty_expr
from pcore.syntax import (
    BinopE, BitT, BoolT, BoolV, EnumT, HeaderT, HeaderV, IntT, IntV,
    MemberV, RecordT, RecordV, StackT, StackV, UnopE, VarE, VarT,
)
from pcore.target import HavocOracle

WIDTHS = (1, 2, 3, 4)


def bitv(n, w):
    return IntV(n % (1 << w), w)


class TestBinopOracle:
    """Every bit-vector arithmetic/bitwise operator, exhaustively for small
    widths, against a plain big-integer model."""

    MODEL = {
        "add": lambda a, b, w: (a + b) % (1 << w),
        "sub": lambda a, b, w: (a - b) % (1 << w),
        "mul": lambda a, b, w: (a * b) % (1 << w),
        "band": lambda a, b, w: a & b,
        "bor": lambda a, b, w: a | b,
        "bxor": lambda a, b, w: a ^ b,
    }

    @pytest.mark.parametrize("op", sorted(MODEL))
    def test_exhaustive(self, op):
        for w in WIDTHS:
            for a in range(1 << w):
                for b in range(1 << w):
                    got = ops.eval_binop(op, IntV(a, w), IntV(b, w))
                    assert got == IntV(self.MODEL[op](a, b, w), w)

    def test_div_mod_exhaustive(self):
        for w in WIDTHS:
            for a in range(1 << w):
                for b in range(1, 1 << w):
                    assert ops.eval_binop("div", IntV(a, w), IntV(b, w)) == \
                        IntV(a // b, w)
                    assert ops.eval_binop("mod", IntV(a, w), IntV(b, w)) == \
                        IntV(a % b, w)

    def test_shifts_exhaustive(self):
        for w in WIDTHS:
            for a in range(1 << w):
                for k in range(0, 2 * w):
                    assert ops.eval_binop("shl", IntV(a, w), IntV(k, None)) \
                        == IntV((a << k) % (1 << w), w)
                    assert ops.eval_binop("shr", IntV(a, w), IntV(k, None)) \
                        == IntV(a >> k, w)

    def test_concat_exhaustive(self):
        for w1 in WIDTHS:
            for w2 in WIDTHS:
                for a in range(1 << w1):
                    for b in range(1 << w2):
                        got = ops.eval_binop("concat", IntV(a, w1), IntV(b, w2))
                        assert got == IntV((a << w2) | b, w1 + w2)

    def test_comparisons_exhaustive(self):
        for w in WIDTHS:
            for a in range(1 << w):
                for b in range(1 << w):
                    for op, fn in [("lt", int.__lt__), ("le", int.__le__),
                                   ("gt", int.__gt__), ("ge", int.__ge__),
                                   ("eq", int.__eq__), ("neq", lambda x, y: x != y)]:
                        got = ops.eval_binop(op, IntV(a, w), IntV(b, w))
                        assert got == BoolV(bool(fn(a, b)))

    def test_div_by_zero(self):
        # a run-time fault, like every other one
        assert issubclass(ArithmeticError_, EvalError)
        with pytest.raises(ArithmeticError_, match="^'/' requires a "
                           "nonnegative dividend and a positive divisor, got "
                           "1 and 0$"):
            ops.eval_binop("div", IntV(1, 4), IntV(0, 4))

    def test_negative_div(self):
        with pytest.raises(ArithmeticError_):
            ops.eval_binop("div", IntV(-1, None), IntV(2, None))

    def test_negative_shift(self):
        with pytest.raises(ArithmeticError_, match="^'<<' requires a "
                           "nonnegative shift amount, got -1$"):
            ops.eval_binop("shl", IntV(1, 4), IntV(-1, None))

    @given(st.integers(), st.integers())
    def test_int_arith_unbounded(self, a, b):
        assert ops.eval_binop("add", IntV(a, None), IntV(b, None)) == \
            IntV(a + b, None)
        assert ops.eval_binop("mul", IntV(a, None), IntV(b, None)) == \
            IntV(a * b, None)


class TestUnop:
    def test_exhaustive(self):
        for w in WIDTHS:
            for a in range(1 << w):
                assert ops.eval_unop("bitnot", IntV(a, w)) == \
                    IntV(a ^ ((1 << w) - 1), w)
                assert ops.eval_unop("neg", IntV(a, w)) == IntV(-a % (1 << w), w)
        assert ops.eval_unop("not", BoolV(True)) == BoolV(False)
        assert ops.eval_unop("neg", IntV(5, None)) == IntV(-5, None)


class TestOperatorTable:
    """Each row of the operator table: its token, its printed and parsed
    forms, and typing that is sound for its evaluation."""

    TYPES = (BoolT(), IntT(), BitT(1), BitT(4), BitT(8),
             EnumT("E", ("a", "b", "c")), EnumT("error", ("NoError",)))
    DELTA = typecheck.initial_delta()
    DRAWS = 8

    def well_typed(self, v, t):
        return typecheck.check_value({}, {}, self.DELTA, v, t)

    @pytest.mark.parametrize("op", sorted(ops.BINOPS))
    def test_binop_row(self, op):
        tok = ops.BINOPS[op][0]
        assert [t[KIND] for t in lex(tok)] == [tok, "eof"]
        e = BinopE(op, VarE("a"), VarE("b"))
        for form in (e, BinopE(op, e, BinopE(op, VarE("c"), VarE("d")))):
            assert parse_expression(pretty_expr(form)) == form
        for t1 in self.TYPES:
            for t2 in self.TYPES:
                rt = ops.type_of_binop(op, t1, t2)
                if rt is None:
                    continue
                for k in range(self.DRAWS):
                    h = HavocOracle("seeded", k)
                    v1, v2 = h.havoc(t1), h.havoc(t2)
                    try:
                        v = ops.eval_binop(op, v1, v2)
                    except ArithmeticError_:
                        assert op in ("div", "mod", "shl", "shr")
                        continue
                    assert self.well_typed(v, rt), (op, v1, v2, v)

    @pytest.mark.parametrize("op", sorted(ops.UNOPS))
    def test_unop_row(self, op):
        tok = ops.UNOPS[op][0]
        assert [t[KIND] for t in lex(tok)] == [tok, "eof"]
        for form in (UnopE(op, VarE("a")), UnopE(op, UnopE(op, VarE("a")))):
            assert parse_expression(pretty_expr(form)) == form
        for t in self.TYPES:
            rt = ops.type_of_unop(op, t)
            if rt is None:
                continue
            for k in range(self.DRAWS):
                v = HavocOracle("seeded", k).havoc(t)
                assert self.well_typed(ops.eval_unop(op, v), rt), (op, v)

    def test_unknown_operator(self):
        assert ops.type_of_binop("pow", IntT(), IntT()) is None
        with pytest.raises(EvalError, match="^unknown operator 'pow'$"):
            ops.eval_binop("pow", IntV(1, None), IntV(2, None))
        assert ops.type_of_unop("pow", IntT()) is None
        with pytest.raises(EvalError, match="^unknown operator 'pow'$"):
            ops.eval_unop("pow", IntV(1, None))


class TestTypeOfOp:
    def test_arith_needs_equal_types(self):
        assert ops.type_of_binop("add", BitT(8), BitT(16)) is None

    def test_bitwise_rejects_int(self):
        assert ops.type_of_binop("band", IntT(), IntT()) is None

    def test_concat_widths(self):
        assert ops.type_of_binop("concat", BitT(3), BitT(5)) == BitT(8)

    def test_shift_keeps_left_width(self):
        assert ops.type_of_binop("shl", BitT(8), IntT()) == BitT(8)
        assert ops.type_of_binop("shr", BitT(8), BitT(4)) == BitT(8)

    def test_eq_on_enum(self):
        t = EnumT("E", ("a", "b"))
        assert ops.type_of_binop("eq", t, t) == BoolT()

    def test_eq_rejects_records(self):
        t = RecordT((("a", BitT(8)),))
        assert ops.type_of_binop("eq", t, t) is None

    def test_logic_needs_bool(self):
        assert ops.type_of_binop("land", BitT(1), BitT(1)) is None


class TestSliceBits:
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7))
    def test_extract_matches_shifting(self, v, hi, lo):
        if hi < lo:
            hi, lo = lo, hi
        got = ops.slice_bits(IntV(v, 8), hi, lo)
        assert got == IntV((v >> lo) % (1 << (hi - lo + 1)), hi - lo + 1)

    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=255))
    def test_set_then_get(self, v, hi, lo, x):
        if hi < lo:
            hi, lo = lo, hi
        w = hi - lo + 1
        xv = IntV(x % (1 << w), w)
        updated = ops.set_bits(IntV(v, 8), hi, lo, xv)
        assert ops.slice_bits(updated, hi, lo) == xv
        # untouched bits survive
        if lo > 0:
            assert ops.slice_bits(updated, lo - 1, 0) == \
                ops.slice_bits(IntV(v, 8), lo - 1, 0)


class TestCast:
    def test_numeric(self):
        assert ops.eval_cast(IntV(255, 8), BitT(4)) == IntV(15, 4)
        assert ops.eval_cast(IntV(9, 4), IntT()) == IntV(9, None)
        assert ops.eval_cast(IntV(-1, None), BitT(8)) == IntV(255, 8)

    def test_record_to_header(self):
        rt = RecordT((("a", BitT(8)),))
        ht = HeaderT((("a", BitT(8)),))
        assert ops.check_cast(rt, ht)
        v = ops.eval_cast(RecordV((("a", IntV(7, 8)),)), ht)
        assert v == HeaderV(True, (("a", BitT(8), IntV(7, 8)),))

    def test_rejects_bool(self):
        assert not ops.check_cast(BoolT(), BitT(1))


class TestInitValue:
    def test_scalars(self):
        assert ops.init_value(BitT(8)) == IntV(0, 8)
        assert ops.init_value(IntT()) == IntV(0, None)
        assert ops.init_value(BoolT()) == BoolV(False)

    def test_enum_first_member(self):
        assert ops.init_value(EnumT("E", ("x", "y"))) == MemberV("E", "x")

    def test_header_invalid(self):
        v = ops.init_value(HeaderT((("a", BitT(4)),)))
        assert v == HeaderV(False, (("a", BitT(4), IntV(0, 4)),))

    def test_stack(self):
        v = ops.init_value(StackT(BitT(2), 3))
        assert v == StackV(BitT(2), (IntV(0, 2),) * 3)

    def test_uninhabited(self):
        # named as the source spells the type, with no class name
        with pytest.raises(Uninhabitable, match="^type has no default value: E$"):
            ops.init_value(EnumT("E", ()))
        with pytest.raises(Uninhabitable, match="^type has no default value: X$"):
            ops.init_value(VarT("X"))
