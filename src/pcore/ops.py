"""Operator typing and evaluation, cast legality, bit slicing, and default
initialization.

These are the pluggable arithmetic oracles: all width/wraparound conventions
live here (unsigned `bit<w>` wraps mod 2^w, `int` is arbitrary precision,
division and modulo require nonnegative operands).
"""

from __future__ import annotations

from .errors import ArithmeticError_, IllTypedOperator, Uninhabitable
from .syntax import (
    BitT, BoolT, BoolV, EnumT, ErrorT, HeaderT, HeaderV, IntT, IntV,
    MatchKindT, MemberV, RecordT, RecordV, StackT, StackV, UnionT, UnionV,
    type_equal,
)

# (token, name) pairs; binary operators by precedence level, loosest first.
# The parser and the printer derive their tables from these.
BINOP_LEVELS = (
    (("||", "lor"),),
    (("&&", "land"),),
    (("==", "eq"), ("!=", "neq")),
    (("<", "lt"), ("<=", "le"), (">", "gt"), (">=", "ge")),
    (("|", "bor"),),
    (("^", "bxor"),),
    (("&", "band"),),
    (("<<", "shl"), (">>", "shr")),
    (("++", "concat"),),
    (("+", "add"), ("-", "sub")),
    (("*", "mul"), ("/", "div"), ("%", "mod")),
)
UNOP_TOKENS = (("!", "not"), ("~", "bitnot"), ("-", "neg"))

_ARITH = {"add", "sub", "mul", "div", "mod"}
_BITWISE = {"band", "bor", "bxor"}
_COMPARE = {"lt", "le", "gt", "ge"}


def _is_numeric(t):
    return isinstance(t, (IntT, BitT))


def type_of_unop(op, t):
    """Result type of a unary operator, or IllTypedOperator."""
    match op, t:
        case "not", BoolT():
            return BoolT()
        case "neg", (IntT() | BitT()):
            return t
        case "bitnot", BitT():
            return t
    raise IllTypedOperator(op, [t])


def type_of_binop(op, t1, t2):
    """Result type of a binary operator, or IllTypedOperator.

    Arithmetic, bitwise, and comparison operators require equal numeric
    types; no implicit casts. Shifts take any numeric shift amount; the
    result keeps the left width. Concatenation adds widths.
    """
    if op in _ARITH:
        if _is_numeric(t1) and type_equal(t1, t2):
            return t1
    elif op in _BITWISE:
        if isinstance(t1, BitT) and type_equal(t1, t2):
            return t1
    elif op in ("shl", "shr"):
        if isinstance(t1, BitT) and _is_numeric(t2):
            return t1
    elif op == "concat":
        if isinstance(t1, BitT) and isinstance(t2, BitT):
            return BitT(t1.width + t2.width)
    elif op in _COMPARE:
        if _is_numeric(t1) and type_equal(t1, t2):
            return BoolT()
    elif op in ("eq", "neq"):
        if _eq_comparable(t1) and type_equal(t1, t2):
            return BoolT()
    elif op in ("land", "lor"):
        if isinstance(t1, BoolT) and isinstance(t2, BoolT):
            return BoolT()
    else:
        raise IllTypedOperator(op, [t1, t2])
    raise IllTypedOperator(op, [t1, t2])


def _eq_comparable(t):
    # equality is restricted to scalars and (open) enumerations
    return isinstance(t, (BoolT, IntT, BitT, EnumT, ErrorT, MatchKindT))


def _wrap(n, width):
    return n if width is None else n % (1 << width)


def eval_unop(op, v):
    match op:
        case "not":
            return BoolV(not v.value)
        case "neg":
            return IntV(_wrap(-v.value, v.width), v.width)
        case "bitnot":
            return IntV(_wrap(~v.value, v.width), v.width)
    raise IllTypedOperator(op, [v])


def eval_binop(op, v1, v2):
    """Evaluate a binary operator on values accepted by type_of_binop."""
    match op:
        case "land":
            return BoolV(v1.value and v2.value)
        case "lor":
            return BoolV(v1.value or v2.value)
        case "eq":
            return BoolV(v1 == v2)
        case "neq":
            return BoolV(v1 != v2)
        case "lt":
            return BoolV(v1.value < v2.value)
        case "le":
            return BoolV(v1.value <= v2.value)
        case "gt":
            return BoolV(v1.value > v2.value)
        case "ge":
            return BoolV(v1.value >= v2.value)
        case "add":
            return IntV(_wrap(v1.value + v2.value, v1.width), v1.width)
        case "sub":
            return IntV(_wrap(v1.value - v2.value, v1.width), v1.width)
        case "mul":
            return IntV(_wrap(v1.value * v2.value, v1.width), v1.width)
        case "div" | "mod":
            if v1.value < 0 or v2.value <= 0:
                raise ArithmeticError_(
                    f"{op} requires a nonnegative dividend and a positive "
                    f"divisor, got {v1.value} and {v2.value}"
                )
            r = v1.value // v2.value if op == "div" else v1.value % v2.value
            return IntV(_wrap(r, v1.width), v1.width)
        case "shl" | "shr":
            if v2.value < 0:
                raise ArithmeticError_(
                    f"{op} requires a nonnegative shift amount, got {v2.value}"
                )
            if op == "shl":
                return IntV(_wrap(v1.value << v2.value, v1.width), v1.width)
            return IntV(v1.value >> v2.value, v1.width)
        case "band":
            return IntV(v1.value & v2.value, v1.width)
        case "bor":
            return IntV(v1.value | v2.value, v1.width)
        case "bxor":
            return IntV(v1.value ^ v2.value, v1.width)
        case "concat":
            return IntV(
                (v1.value << v2.width) | v2.value, v1.width + v2.width
            )
    raise IllTypedOperator(op, [v1, v2])


def check_cast(t_from, t_to):
    """Legal casts: between numeric types, and record-to-header with
    type-equal field lists."""
    match t_from, t_to:
        case (IntT() | BitT()), (IntT() | BitT()):
            return True
        case RecordT(fs1), HeaderT(fs2):
            return (
                len(fs1) == len(fs2)
                and all(
                    n1 == n2 and type_equal(a, b)
                    for (n1, a), (n2, b) in zip(fs1, fs2)
                )
            )
        case _:
            return False


def eval_cast(v, t_to):
    match t_to:
        case IntT():
            return IntV(v.value, None)
        case BitT(w):
            return IntV(_wrap(v.value, w), w)
        case HeaderT(fs):
            vals = dict(v.fields)
            return HeaderV(True, tuple((n, ft, vals[n]) for n, ft in fs))
    raise IllTypedOperator("cast", [v, t_to])


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
    match t:
        case BoolT():
            return BoolV(False)
        case IntT():
            return IntV(0, None)
        case BitT(w):
            return IntV(0, w)
        case EnumT(name, members):
            if not members:
                raise Uninhabitable(t)
            return MemberV(name, members[0])
        case ErrorT(members):
            if not members:
                raise Uninhabitable(t)
            return MemberV("error", members[0])
        case MatchKindT(members):
            if not members:
                raise Uninhabitable(t)
            return MemberV("match_kind", members[0])
        case RecordT(fs):
            return RecordV(tuple((n, init_value(ft)) for n, ft in fs))
        case HeaderT(fs):
            return HeaderV(False, tuple((n, ft, init_value(ft)) for n, ft in fs))
        case StackT(elem, n):
            return StackV(elem, tuple(init_value(elem) for _ in range(n)))
        case UnionT(_, alts):
            f0, t0 = alts[0]
            return UnionV(t, f0, init_value(t0))
    raise Uninhabitable(t)
