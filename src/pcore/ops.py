"""The operator table with operator typing and evaluation, cast legality,
bit slicing, and default initialization.

These are the pluggable arithmetic oracles: all width/wraparound conventions
live here (unsigned `bit<w>` wraps mod 2^w, `int` is arbitrary precision,
division and modulo require nonnegative operands).
"""

from __future__ import annotations

import operator

from .errors import ArithmeticError_, EvalError, Uninhabitable
from .syntax import (
    BitT, BoolT, BoolV, EnumT, HeaderT, HeaderV, IntT, IntV, MemberV, RecordT,
    RecordV, StackT, StackV, UnionT, UnionV,
)

_NUMERIC = (IntT, BitT)

# The one definition of each operator, by name; the lexer, the parser and
# the printer derive their tables from these. A binary row is (token,
# precedence level, kind, fn): level 0 binds loosest and each level
# associates left; the kind names the typing and evaluation rule, one arm of
# type_of_binop and of eval_binop, and the generators' rule (the rows of a
# kind are in the order the generators draw them); fn acts on the operands'
# Python values (on the values themselves for eq). The partial operators
# are the kinds "divide" and "shift", whose operands the checker guards.
BINOPS = {
    "land": ("&&", 1, "logic", operator.and_),
    "lor": ("||", 0, "logic", operator.or_),
    "eq": ("==", 2, "eq", operator.eq),
    "neq": ("!=", 2, "eq", operator.ne),
    "lt": ("<", 3, "compare", operator.lt),
    "le": ("<=", 3, "compare", operator.le),
    "gt": (">", 3, "compare", operator.gt),
    "ge": (">=", 3, "compare", operator.ge),
    "band": ("&", 6, "bitwise", operator.and_),
    "bor": ("|", 4, "bitwise", operator.or_),
    "bxor": ("^", 5, "bitwise", operator.xor),
    "shl": ("<<", 7, "shift", operator.lshift),
    "shr": (">>", 7, "shift", operator.rshift),
    # the left operand arrives shifted past the right one's width
    "concat": ("++", 8, "concat", operator.or_),
    "add": ("+", 9, "arith", operator.add),
    "sub": ("-", 9, "arith", operator.sub),
    "mul": ("*", 10, "arith", operator.mul),
    "div": ("/", 10, "divide", operator.floordiv),
    "mod": ("%", 10, "divide", operator.mod),
}
# A unary row is (token, operand types, fn); the result has the operand's
# type, and fn acts on the operand's Python value.
UNOPS = {
    "not": ("!", (BoolT,), operator.not_),
    "bitnot": ("~", (BitT,), operator.invert),
    "neg": ("-", _NUMERIC, operator.neg),
}
_UNKNOWN = (None, None, None, None)


def type_of_unop(op, t):
    """Result type of a unary operator, or None where it is not defined."""
    return t if op in UNOPS and isinstance(t, UNOPS[op][1]) else None


def type_of_binop(op, t1, t2):
    """Result type of a binary operator, or None where it is not defined;
    no implicit casts."""
    match BINOPS.get(op, _UNKNOWN)[2]:
        case "arith" | "divide" if isinstance(t1, _NUMERIC) and t1 == t2:
            return t1
        case "bitwise" if isinstance(t1, BitT) and t1 == t2:
            return t1
        case "shift" if isinstance(t1, BitT) and isinstance(t2, _NUMERIC):
            return t1
        case "concat" if isinstance(t1, BitT) and isinstance(t2, BitT):
            return BitT(t1.width + t2.width)
        case "compare" if isinstance(t1, _NUMERIC) and t1 == t2:
            return BoolT()
        case "eq" if _eq_comparable(t1) and t1 == t2:
            return BoolT()
        case "logic" if isinstance(t1, BoolT) and isinstance(t2, BoolT):
            return BoolT()
    return None


def _eq_comparable(t):
    # equality is restricted to scalars and enumerations
    return isinstance(t, (BoolT, IntT, BitT, EnumT))


def _wrap(n, width):
    return n if width is None else n % (1 << width)


def eval_unop(op, v):
    if op not in UNOPS:
        raise EvalError(f"unknown operator {op!r}")
    fn = UNOPS[op][2]
    if isinstance(v, BoolV):
        return BoolV(fn(v.value))
    return IntV(_wrap(fn(v.value), v.width), v.width)


def eval_binop(op, v1, v2):
    """Evaluate a binary operator on values accepted by type_of_binop."""
    tok, _, kind, fn = BINOPS.get(op, _UNKNOWN)
    match kind:
        case "arith":
            return IntV(_wrap(fn(v1.value, v2.value), v1.width), v1.width)
        case "eq":
            return BoolV(fn(v1, v2))
        case "compare" | "logic":
            return BoolV(fn(v1.value, v2.value))
        case "bitwise":
            return IntV(fn(v1.value, v2.value), v1.width)
        case "shift":
            if v2.value < 0:
                raise ArithmeticError_(
                    f"{tok!r} requires a nonnegative shift amount, got {v2.value}")
            amount = min(v2.value, v1.width)  # a bit<w> shifted w or more places is 0
            return IntV(_wrap(fn(v1.value, amount), v1.width), v1.width)
        case "concat":
            return IntV(fn(v1.value << v2.width, v2.value),
                        v1.width + v2.width)
        case "divide":  # last, so that no other operator tests for it
            if v1.value < 0 or v2.value <= 0:
                raise ArithmeticError_(
                    f"{tok!r} requires a nonnegative dividend and a positive "
                    f"divisor, got {v1.value} and {v2.value}")
            # of nonnegatives, no wider than the dividend: nothing to wrap
            return IntV(fn(v1.value, v2.value), v1.width)
    raise EvalError(f"unknown operator {op!r}")


def check_cast(t_from, t_to):
    """Legal casts: between numeric types, and record-to-header with
    type-equal field lists."""
    match t_from, t_to:
        case (IntT() | BitT()), (IntT() | BitT()):
            return True
        case RecordT(), HeaderT(fs):
            return t_from == RecordT(fs)
        case _:
            return False


def eval_cast(v, t_to):
    """v cast to t_to; an EvalError, worded by the caller, for another t_to."""
    match t_to:
        case IntT():
            return IntV(v.value, None)
        case BitT(w):
            return IntV(_wrap(v.value, w), w)
        case HeaderT(fs):
            vals = dict(v.fields)
            return HeaderV(True, tuple((n, ft, vals[n]) for n, ft in fs))
    raise EvalError("no cast to this type")


def slice_bits(v, hi, lo):
    """Bits hi..lo inclusive of v, as a bit<hi-lo+1> value."""
    assert v.width is not None and v.width > hi >= lo >= 0
    width = hi - lo + 1
    return IntV((v.value >> lo) % (1 << width), width)


def set_bits(target, hi, lo, v):
    """target with bits hi..lo replaced by v."""
    assert target.width is not None and target.width > hi >= lo >= 0
    width = hi - lo + 1
    mask = ((1 << width) - 1) << lo
    return IntV((target.value & ~mask) | ((v.value << lo) & mask), target.width)


def init_value(t):
    """Default value of a normalized, inhabitable type."""
    rule = _INIT_RULES.get(type(t))
    if rule is None:
        raise Uninhabitable(t)
    return rule(t)


def _init_enum(t):
    if not t.members:
        raise Uninhabitable(t)
    return MemberV(t.name, t.members[0])


_INIT_RULES = {
    BoolT: lambda t: BoolV(False),
    IntT: lambda t: IntV(0, None),
    BitT: lambda t: IntV(0, t.width),
    EnumT: _init_enum,
    RecordT: lambda t: RecordV(tuple([(n, init_value(ft)) for n, ft in t.fields])),
    HeaderT: lambda t: HeaderV(
        False, tuple([(n, ft, init_value(ft)) for n, ft in t.fields])),
    # values are immutable, so a stack repeats one default element
    StackT: lambda t: StackV(
        t.elem, (init_value(t.elem),) * t.size if t.size else ()),
    UnionT: lambda t: UnionV(t, t.alts[0][0], init_value(t.alts[0][1])),
}
