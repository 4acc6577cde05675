"""Static semantics: type simplification, compile-time evaluation,
expression/statement/declaration typing with directions, the definite-return
analysis, and value/store/environment typing (the soundness-test oracles).

The checker has the calculus's two judgments: a declaration extends the
contexts, sigma, gamma, delta |- d -| sigma', gamma', delta'
(`check_declaration`), and a statement is only checked, sigma, gamma,
delta |- s (`check_statement`, which returns nothing). Each judgment, and
value typing, is one table from node or value class to rule.

Contexts:
- sigma: name -> Value, compile-time constants;
- gamma: name -> Type (variables, functions, tables, constructor types, and
  the reserved `return` name);
- delta: ordered type definitions / type variables (syntax.Delta);
- xi:    location -> Type, the store typing used by the machine oracle.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import NamedTuple

from .errors import ArithmeticError_, PcoreError, TypeError_
from . import ops
from .pretty import pretty_expr, pretty_type
from .syntax import (
    AssignS, BaseType, BinopE, BitT, BlockS, BoolE, BoolT, BoolV, CallE, CallS,
    CastE, ClosureV, ConstD, ControlD, CtorT, Delta, EnumD, EnumT, ExitS,
    FuncD, FunT, HeaderT, HeaderV, IfS, IndexE, InstD, IntE, IntT, IntV,
    MemberE, MemberV, NativeV, OPEN_ENUMS, Param, RecordE, RecordT, RecordV,
    ReturnS, SliceE, StackT, StackV, SwitchS, TableD, TableT, TableV, TypedefD,
    UnionD, UnionT, UnionV, UnopE, VarE, VarInitD, VarT, VarUninitD, VOID,
    free_type_vars, subst_type,
)

VAR_DECLS = (ConstD, VarInitD, VarUninitD, InstD)


def initial_delta():
    """Bootstrap definitions: the open enumerations start with one member
    each so that error/match_kind values are always inhabitable."""
    return Delta({kw: EnumT(kw, (m,)) for kw, m in OPEN_ENUMS.items()})


# ---------------------------------------------------------------------------
# Type simplification and compile-time evaluation

def simplify_type(sigma, delta, t):
    """Normalize t: resolve defined type names via delta (leaving `X var`
    entries as type variables) and evaluate width/size expressions."""
    rule = _SIMPLIFY_RULES.get(type(t))
    return t if rule is None else rule(sigma, delta, t)


def _simplify_at(sigma, delta, t, pos):
    """simplify_type on a type written inside an expression at pos: an
    error without a position is placed there, unless pos is the default."""
    try:
        return simplify_type(sigma, delta, t)
    except TypeError_ as exc:
        if exc.pos is None and pos != (0, 0):
            exc.pos = pos
        raise


def _simplify_var(sigma, delta, t):
    entry = delta.get(t.name)
    if entry is None:
        raise TypeError_("UnboundTypeVar", f"type name {t.name!r} is not defined")
    return t if entry == "var" else entry


def _simplify_bit(sigma, delta, t):
    w = _cte_nat(sigma, t.width, "bit width")
    if w < 1:
        raise TypeError_("TyS-Bit", f"bit width must be positive, got {w}")
    return t if w is t.width else BitT(w)


def _simplify_stack(sigma, delta, t):
    n = _cte_nat(sigma, t.size, "stack size")
    if n < 0:
        raise TypeError_("TyS-Stack", f"stack size must be nonnegative, got {n}")
    elem = simplify_type(sigma, delta, t.elem)
    return t if elem is t.elem and n is t.size else StackT(elem, n)


def _simplify_fun(sigma, delta, t):
    inner = delta.bind_var(*t.type_params)
    ps = tuple([p if (pt := simplify_type(sigma, inner, p.type)) is p.type
                else Param(p.direction, p.name, pt) for p in t.params])
    ret = simplify_type(sigma, inner, t.ret)
    return t if ret is t.ret and ps == t.params else FunT(t.type_params, ps, ret)


def _simplify_fields(sigma, delta, fs):
    out = tuple([(n, simplify_type(sigma, delta, ft)) for n, ft in fs])
    return fs if out == fs else out


def _simplify_record(sigma, delta, t):
    """A record or header type, whose field names are distinct."""
    if len({n for n, _ in t.fields}) != len(t.fields):
        raise TypeError_("TyS-Record", "duplicate field name")
    fs = _simplify_fields(sigma, delta, t.fields)
    return t if fs is t.fields else type(t)(fs)


def _simplify_ctor(sigma, delta, t):
    ps = _simplify_fields(sigma, delta, t.params)
    ret = simplify_type(sigma, delta, t.ret)
    return t if ps is t.params and ret is t.ret else CtorT(ps, ret)


# a rule returns its type itself when no part of it changes
_SIMPLIFY_RULES = {
    VarT: _simplify_var,
    BitT: _simplify_bit,
    RecordT: _simplify_record,
    HeaderT: _simplify_record,
    UnionT: lambda sigma, delta, t: t if (alts := _simplify_fields(
        sigma, delta, t.alts)) is t.alts else UnionT(t.name, alts),
    StackT: _simplify_stack,
    FunT: _simplify_fun,
    CtorT: _simplify_ctor,
}


def _cte_nat(sigma, e, what):
    if isinstance(e, int):  # already evaluated
        return e
    v = cteval(sigma, e)
    if not isinstance(v, IntV):
        raise TypeError_("TyS", f"{what} {pretty_expr(e)} is not an integer")
    return v.value


def cteval(sigma, e):
    """Compile-time evaluation: literals, constant names, unops, binops. A
    type's width or size is not checked first, so operators are typed here."""
    match e:
        case BoolE(v):
            return BoolV(v)
        case IntE(v, w):
            if w is not None:
                _check_bit_literal(e)
            return IntV(v, w)
        case VarE(name) if name in sigma:
            return sigma[name]
        case UnopE(op, operand):
            v = cteval(sigma, operand)
            _operator_type(e, infer_type_of_value(None, v))
            return ops.eval_unop(op, v)
        case BinopE(op, l, r):
            vs = cteval(sigma, l), cteval(sigma, r)
            _operator_type(e, *(infer_type_of_value(None, v) for v in vs))
            try:
                return ops.eval_binop(op, *vs)
            except ArithmeticError_ as exc:
                raise TypeError_("T-BinOp", str(exc), e.pos) from exc
    raise TypeError_("NotCompileTime",
                     f"not a compile-time expression: {pretty_expr(e)}", e.pos)


# ---------------------------------------------------------------------------
# Expression typing

class TypedExpr(NamedTuple):
    type: object  # normalized
    direction: str  # "in" | "inout"


_typed = partial(tuple.__new__, TypedExpr)  # skips the NamedTuple's __new__


def check_expression(sigma, gamma, delta, e):
    rule = _EXPR_RULES.get(type(e))
    if rule is None:
        raise TypeError_("T-Expr", f"cannot type {type(e).__name__}",
                         getattr(e, "pos", None))
    return rule(sigma, gamma, delta, e)


def _check_int(sigma, gamma, delta, e):
    if e.width is None:
        return _typed((IntT(), "in"))
    _check_bit_literal(e)
    return _typed((BitT(e.width), "in"))


def _check_bit_literal(e):
    """T-Bit, for a literal with a width wherever it stands, in a width or
    stack size too: the width is positive and the value fits in it. A width
    past sys.maxsize is more bits than an int can hold, so the input is too
    large for any run."""
    if e.width < 1:
        raise TypeError_("T-Bit", f"bit width must be positive, got {e.width}", e.pos)
    if e.width > sys.maxsize:
        raise OverflowError(f"bit<{e.width}> is wider than an int can be")
    if not (e.value >= 0 and e.value.bit_length() <= e.width):
        raise TypeError_("T-Bit", f"{e.value} does not fit in bit<{e.width}>", e.pos)


def _storable(t):
    """A value of base type is stored, assigned and passed; a function,
    constructor or table is only called, so it cannot tie a recursive knot."""
    return isinstance(t, BaseType)


def _check_var(sigma, gamma, delta, e):
    if e.name not in gamma:
        if isinstance(delta.get(e.name), EnumT):
            raise TypeError_("T-Var", f"enum name {e.name!r} is not a value", e.pos)
        raise TypeError_("T-Var", f"unbound variable {e.name!r}", e.pos)
    t = gamma[e.name]
    return _typed((t, "inout" if e.name not in sigma and _storable(t) else "in"))


def _check_index(sigma, gamma, delta, e):
    tb = check_expression(sigma, gamma, delta, e.base)
    if not isinstance(tb.type, StackT):
        raise TypeError_("T-Index", f"indexing a non-stack {pretty_type(tb.type)}",
                         e.pos)
    ti = check_expression(sigma, gamma, delta, e.index)
    if ti.type != BitT(32):
        raise TypeError_("T-Index", "index must have type bit<32>, got "
                         f"{pretty_type(ti.type)}", e.pos)
    return _typed((tb.type.elem, tb.direction))


def _check_slice(sigma, gamma, delta, e):
    tb = check_expression(sigma, gamma, delta, e.base)
    if not isinstance(tb.type, BitT):
        raise TypeError_("T-Slice", f"slicing a non-bit {pretty_type(tb.type)}",
                         e.pos)
    for ep in (e.hi, e.lo):
        te = check_expression(sigma, gamma, delta, ep)
        if not isinstance(te.type, IntT):
            raise TypeError_("T-Slice", "slice endpoint must be int, got "
                             f"{pretty_type(te.type)}", e.pos)
    h = _cte_nat(sigma, e.hi, "slice high endpoint")
    l = _cte_nat(sigma, e.lo, "slice low endpoint")
    if not tb.type.width > h >= l >= 0:
        raise TypeError_("T-Slice", f"bounds violated: need {tb.type.width} > {h} "
                         f">= {l} >= 0", e.pos)
    return _typed((BitT(h - l + 1), tb.direction))


def _check_binop(sigma, gamma, delta, e):
    tl = check_expression(sigma, gamma, delta, e.left)
    tr = check_expression(sigma, gamma, delta, e.right)
    rt = _operator_type(e, tl.type, tr.type)
    _check_partial_binop(sigma, e, tl, tr)
    return _typed((rt, "in"))


def _check_cast(sigma, gamma, delta, e):
    to = check_expression(sigma, gamma, delta, e.operand)
    t2 = _simplify_at(sigma, delta, e.type, e.pos)
    if not ops.check_cast(to.type, t2):
        raise TypeError_("T-Cast", f"illegal cast from {pretty_type(to.type)} to "
                         f"{pretty_type(t2)}", e.pos)
    return _typed((t2, "in"))


def _check_record(sigma, gamma, delta, e):
    names = [n for n, _ in e.fields]
    if len(set(names)) != len(names):
        raise TypeError_("T-Record", "duplicate field name", e.pos)
    fts = tuple(
        (n, check_expression(sigma, gamma, delta, fe).type)
        for n, fe in e.fields
    )
    return _typed((RecordT(fts), "in"))


def _check_member_expr(sigma, gamma, delta, e):
    """T-Enum/T-Err on an enum name's member, else T-Mem."""
    if isinstance(e.base, VarE) and e.base.name not in gamma and isinstance(
            et := delta.get(e.base.name), EnumT):
        if et.open:  # a typedef's snapshot misses later members
            et = delta.get(et.name)
        if e.field in et.members:
            return _typed((et, "in"))
        if et.open:
            raise TypeError_("T-Err", f"{e.field!r} is not a declared {et.name} "
                             "member", e.pos)
        raise TypeError_("T-Enum", f"{e.field!r} is not a member of enum {et.name}",
                         e.pos)
    return _check_member(check_expression(sigma, gamma, delta, e.base), e)


_EXPR_RULES = {
    BoolE: lambda sigma, gamma, delta, e: _typed((BoolT(), "in")),
    IntE: _check_int,
    VarE: _check_var,
    IndexE: _check_index,
    SliceE: _check_slice,
    UnopE: lambda sigma, gamma, delta, e: _typed((_operator_type(
        e, check_expression(sigma, gamma, delta, e.operand).type), "in")),
    BinopE: _check_binop,
    CastE: _check_cast,
    RecordE: _check_record,
    MemberE: _check_member_expr,
    CallE: lambda sigma, gamma, delta, e: check_call(
        sigma, gamma, delta, e, check_expression(sigma, gamma, delta, e.callee)),
}


def _check_member(tb, e):
    """T-Mem: the field e.field of a record or header base typed tb."""
    match tb.type:
        case RecordT(fs) | HeaderT(fs):
            for n, ft in fs:
                if n == e.field:
                    return _typed((ft, tb.direction))
            raise TypeError_("T-Mem", f"no field {e.field!r} in "
                             f"{pretty_type(tb.type)}", e.pos)
    raise TypeError_("T-Mem", f"member access on {pretty_type(tb.type)}", e.pos)


def _operator_type(e, *ts):
    """T-UOp/T-BinOp: the type of e's operator at the operand types ts."""
    unary = isinstance(e, UnopE)
    rt = (ops.type_of_unop if unary else ops.type_of_binop)(e.op, *ts)
    if rt is None:
        tok = (ops.UNOPS if unary else ops.BINOPS).get(e.op, (e.op,))[0]
        tys = ", ".join(map(pretty_type, ts))
        raise TypeError_("T-UOp" if unary else "T-BinOp",
                         f"operator {tok!r} not defined at ({tys})", e.pos)
    return rt


def _check_partial_binop(sigma, e, tl, tr):
    """The partial kinds require compile-time evidence that the dangerous
    operand is safe: a positive divisor (and a nonnegative dividend at type
    int) to divide, and a nonnegative shift amount of type int."""
    tok, _, kind, _ = ops.BINOPS[e.op]
    if kind == "divide":
        dv = _cte_guard(sigma, e.right, tok, "divisor")
        if dv.value <= 0:
            raise TypeError_("T-BinOp", f"{tok!r} divisor must be positive", e.pos)
        if isinstance(tl.type, IntT):
            nv = _cte_guard(sigma, e.left, tok, "int dividend")
            if nv.value < 0:
                raise TypeError_(
                    "T-BinOp", f"{tok!r} dividend must be nonnegative", e.pos
                )
    elif kind == "shift" and isinstance(tr.type, IntT):
        sv = _cte_guard(sigma, e.right, tok, "int shift amount")
        if sv.value < 0:
            raise TypeError_(
                "T-BinOp", f"{tok!r} shift amount must be nonnegative", e.pos
            )


def _cte_guard(sigma, operand, tok, what):
    try:
        return cteval(sigma, operand)
    except PcoreError as exc:
        raise TypeError_(
            "T-BinOp", f"{tok!r} {what} must be compile-time known", operand.pos
        ) from exc


def check_call(sigma, gamma, delta, e, tc):
    """T-Call: the call e, whose callee is typed tc."""
    if isinstance(tc.type, TableT):
        raise TypeError_(
            "T-Call", "tables are applied as statements, not expressions", e.pos
        )
    if not isinstance(tc.type, FunT):
        raise TypeError_("T-Call", f"calling a non-function {pretty_type(tc.type)}",
                         e.pos)
    ft = tc.type
    if len(e.type_args) != len(ft.type_params):
        raise TypeError_(
            "T-Call",
            f"expected {len(ft.type_params)} type arguments, got {len(e.type_args)}",
            e.pos,
        )
    tvars = {}
    for x, ta in zip(ft.type_params, e.type_args):
        ta = _simplify_at(sigma, delta, ta, e.pos)
        if not _storable(ta):
            raise TypeError_("T-Call", "type arguments must be base types", e.pos)
        tvars[x] = ta
    if len(e.args) != len(ft.params):
        raise TypeError_(
            "T-Call",
            f"expected {len(ft.params)} arguments, got {len(e.args)}",
            e.pos,
        )
    # the callee's types are normal but for its type parameters
    for p, arg in zip(ft.params, e.args):
        _check_arg(sigma, gamma, delta, p, subst_type(p.type, tvars), arg,
                   "T-Call", e.pos)
    return _typed((subst_type(ft.ret, tvars), "in"))


def _check_arg(sigma, gamma, delta, p, pt, arg, rule, pos):
    """The argument rule of calls, static action arguments and constructor
    arguments: arg has the parameter's type pt, and goes inout for an out or
    inout p."""
    ta = check_expression(sigma, gamma, delta, arg)
    if ta.type != pt:
        raise TypeError_(rule, f"argument for {p.name!r} has type "
                         f"{pretty_type(ta.type)}, expected {pretty_type(pt)}", pos)
    if p.direction in ("out", "inout") and ta.direction != "inout":
        raise TypeError_(
            rule,
            f"argument for {p.direction} parameter {p.name!r} must be "
            "assignable (goes inout)",
            pos,
        )


# ---------------------------------------------------------------------------
# Statement typing

def check_statement(sigma, gamma, delta, s):
    """sigma, gamma, delta |- s; a block's declarations scope over its rest."""
    rule = _STMT_RULES.get(type(s))
    if rule is None:  # a declaration other than a variable's
        raise TypeError_("TS-Block", f"declaration of {s.name!r} not "
                         "allowed in statement position", s.pos)
    rule(sigma, gamma, delta, s)


def _check_block(sigma, gamma, delta, s):
    for item in s.stmts:
        if isinstance(item, VAR_DECLS):
            sigma, gamma, _ = check_declaration(sigma, gamma, delta, item)
        else:
            check_statement(sigma, gamma, delta, item)


def _check_if(sigma, gamma, delta, s):
    tc = check_expression(sigma, gamma, delta, s.cond)
    if not isinstance(tc.type, BoolT):
        raise TypeError_("TS-If", f"condition has type {pretty_type(tc.type)}, "
                         "expected bool", s.pos)
    check_statement(sigma, gamma, delta, s.then)
    check_statement(sigma, gamma, delta, s.els)


def _check_call_stmt(sigma, gamma, delta, s):
    tc = check_expression(sigma, gamma, delta, s.call.callee)
    if not isinstance(tc.type, TableT):
        check_call(sigma, gamma, delta, s.call, tc)
    elif s.call.args or s.call.type_args:
        raise TypeError_("TS-TblCall", "table application takes no arguments", s.pos)


def _check_return(sigma, gamma, delta, s):
    if "return" not in gamma:
        raise TypeError_("TS-Ret", "return outside a function body", s.pos)
    tv = check_expression(sigma, gamma, delta, s.value)
    if tv.type != gamma["return"]:
        raise TypeError_("TS-Ret", f"returning {pretty_type(tv.type)}, expected "
                         f"{pretty_type(gamma['return'])}", s.pos)


def check_assign(sigma, gamma, delta, s):
    """TS-Assign, or T-Union: assigning a union's field replaces the union."""
    lhs = s.lhs
    if isinstance(lhs, MemberE):
        tb = check_expression(sigma, gamma, delta, lhs.base)
        if isinstance(tb.type, UnionT):
            if tb.direction != "inout":
                raise TypeError_("T-Union", f"{pretty_expr(lhs)} cannot be assigned",
                                 s.pos)
            alts = dict(tb.type.alts)
            if lhs.field not in alts:
                raise TypeError_("T-Union", f"{lhs.field!r} is not an alternative "
                                 f"of {pretty_type(tb.type)}", s.pos)
            tr = check_expression(sigma, gamma, delta, s.rhs)
            if tr.type != alts[lhs.field]:
                raise TypeError_("T-Union", f"assigning {pretty_type(tr.type)} to "
                                 "alternative of type "
                                 f"{pretty_type(alts[lhs.field])}", s.pos)
            return
        tl = _check_member(tb, lhs)
    else:
        tl = check_expression(sigma, gamma, delta, lhs)
    if tl.direction != "inout":
        typed = "" if _storable(tl.type) else f" has type {pretty_type(tl.type)} and"
        raise TypeError_("TS-Assign", f"{pretty_expr(lhs)}{typed} cannot be assigned",
                         s.pos)
    tr = check_expression(sigma, gamma, delta, s.rhs)
    if tl.type != tr.type:
        raise TypeError_("TS-Assign", f"assigning {pretty_type(tr.type)} to "
                         f"{pretty_type(tl.type)}", s.pos)


def check_switch(sigma, gamma, delta, s):
    ts = check_expression(sigma, gamma, delta, s.scrutinee)
    if not isinstance(ts.type, UnionT):
        raise TypeError_("T-Switch", "switch scrutinee has type "
                         f"{pretty_type(ts.type)}, expected a union", s.pos)
    alts = dict(ts.type.alts)
    seen = set()
    for label, body in s.cases:
        if label in seen:
            raise TypeError_("T-Switch", f"duplicate case {label!r}", s.pos)
        seen.add(label)
        if label is None:
            check_statement(sigma, gamma, delta, body)
            continue
        if label not in alts:
            raise TypeError_("T-Switch", f"{label!r} is not an alternative of "
                             f"{pretty_type(ts.type)}", s.pos)
        check_statement(*bind_vars(sigma, gamma, [(label, alts[label])]),
                        delta, body)


_STMT_RULES = {
    BlockS: _check_block,
    AssignS: check_assign,
    IfS: _check_if,
    CallS: _check_call_stmt,
    ExitS: lambda sigma, gamma, delta, s: None,
    ReturnS: _check_return,
    SwitchS: check_switch,
}


def returns_analysis(s):
    """True iff every control path through s ends in return or exit."""
    match s:
        case ReturnS() | ExitS():
            return True
        case BlockS(stmts):
            return any(returns_analysis(x) for x in stmts)
        case IfS(_, then, els):
            return returns_analysis(then) and returns_analysis(els)
        case SwitchS(_, cases):
            return any(l is None for l, _ in cases) and all(
                returns_analysis(b) for _, b in cases
            )
        case _:
            return False


# ---------------------------------------------------------------------------
# Declaration typing

def check_declaration(sigma, gamma, delta, d):
    """sigma, gamma, delta |- d -| sigma', gamma', delta'. An error without a
    position gets that of d, the innermost declaration around it."""
    rule = _DECL_RULES.get(type(d))
    if rule is None:
        raise TypeError_("T-Decl", f"unknown declaration {d!r}",
                         getattr(d, "pos", None))
    try:
        return rule(sigma, gamma, delta, d)
    except TypeError_ as exc:
        exc.pos = exc.pos or d.pos
        raise


def _check_var_init(sigma, gamma, delta, d):
    const = isinstance(d, ConstD)
    t2 = simplify_type(sigma, delta, d.type)
    ti = check_expression(sigma, gamma, delta, d.init)
    if ti.type != t2:
        raise TypeError_("Type-Const" if const else "Type-VarInit",
                         f"initializer has type {pretty_type(ti.type)}, expected "
                         f"{pretty_type(t2)}", d.pos)
    s2, g2 = bind_vars(sigma, gamma, [(d.name, t2)])
    if const:  # only a constant also binds its value
        s2[d.name] = cteval(sigma, d.init)
    return s2, g2, delta


def _check_var_uninit(sigma, gamma, delta, d):
    t2 = simplify_type(sigma, delta, d.type)
    if free_type_vars(t2):
        raise TypeError_("Type-Var", f"cannot default-initialize {pretty_type(t2)}",
                         d.pos)
    return (*bind_vars(sigma, gamma, [(d.name, t2)]), delta)


def _check_inst(sigma, gamma, delta, d):
    ct = gamma.get(d.type_name)
    if not isinstance(ct, CtorT):
        raise TypeError_("Type-Inst", f"{d.type_name!r} is not a constructor", d.pos)
    if len(d.args) != len(ct.params):
        raise TypeError_("Type-Inst", f"expected {len(ct.params)} constructor "
                         f"arguments, got {len(d.args)}", d.pos)
    for (pname, pt), arg in zip(ct.params, d.args):
        _check_arg(sigma, gamma, delta, Param("in", pname, pt), pt,
                   arg, "Type-Inst", d.pos)
    return (*bind_vars(sigma, gamma, [(d.name, ct.ret)]), delta)


def _check_typedef(sigma, gamma, delta, d):
    _check_fresh_type_name(delta, d.name, d)
    return sigma, gamma, delta.bind(d.name, simplify_type(sigma, delta, d.type))


def _check_enum(sigma, gamma, delta, d):
    name, members = d.name, d.members
    if name not in OPEN_ENUMS:  # whose declarations add members
        _check_fresh_type_name(delta, name, d)
        if not members:
            raise TypeError_("T-EnumDecl", f"enum {name!r} has no members", d.pos)
    for i, m in enumerate(members):
        if m in members[:i]:
            raise TypeError_("DuplicateEnumMember",
                             f"{m!r} repeated in declaration of {name!r}", d.pos)
    return sigma, gamma, delta.bind(name, EnumT(name, tuple(members)))


def _check_union(sigma, gamma, delta, d):
    name, alts = d.name, d.alts
    _check_fresh_type_name(delta, name, d)
    if not alts:
        raise TypeError_("T-Union", f"union {name!r} has no alternatives", d.pos)
    names = [n for n, _ in alts]
    if len(set(names)) != len(names):
        raise TypeError_("T-Union", "duplicate union alternative", d.pos)
    salts = []
    for n, at in alts:
        at2 = simplify_type(sigma, delta, at)
        if not _union_alt_ok(at2):
            raise TypeError_("T-Union", f"alternative {n!r} has unsupported type "
                             f"{pretty_type(at2)}", d.pos)
        salts.append((n, at2))
    return sigma, gamma, delta.bind(name, UnionT(name, tuple(salts)))


def _check_table_decl(sigma, gamma, delta, d):
    for e, kind in d.keys:
        te = check_expression(sigma, gamma, delta, e)
        if not ops._eq_comparable(te.type):
            raise TypeError_("T-TableDecl", f"key of type {pretty_type(te.type)} "
                             "cannot be matched", d.pos)
        if kind not in delta.get("match_kind").members:
            raise TypeError_("T-TableDecl", f"unknown match kind {kind!r}", d.pos)
    if not d.actions:
        raise TypeError_("T-TableDecl", "table needs at least one action", d.pos)
    anames = [a.name for a in d.actions]
    if len(set(anames)) != len(anames):
        raise TypeError_("T-TableDecl", "duplicate action reference", d.pos)
    if d.actions[-1].ctrl_params:
        raise TypeError_("T-TableDecl", "the default action takes "
                         "no control-plane arguments", d.pos)
    for a in d.actions:
        check_action_ok(sigma, gamma, delta, a)
    return sigma, {**gamma, d.name: TableT()}, delta


def _check_closure_decl(sigma, gamma, delta, d):
    """T-FuncDecl, of a function or a control: the type d spells has
    distinct type parameters and parameter names and, normalized, parameters
    of base type; a non-void body returns on every path."""
    cps, ft = _signature(d.type)
    if len(set(ft.type_params)) != len(ft.type_params):
        raise TypeError_("T-FuncDecl", "duplicate type parameter", d.pos)
    names = [n for n, _ in cps] + [p.name for p in ft.params]
    if len(set(names)) != len(names):
        raise TypeError_("T-FuncDecl", "duplicate parameter name", d.pos)
    t = simplify_type(sigma, delta, d.type)
    for p in _signature(t)[1].params:
        if not _storable(p.type):
            raise TypeError_("T-FuncDecl",
                             f"parameter {p.name!r} must have a base type", d.pos)
    if not check_body(sigma, gamma, delta, t, d.local_decls, d.body):
        raise TypeError_("MissingReturn", f"body of {d.name!r} may fall through", d.pos)
    return sigma, {**gamma, d.name: t}, delta


_DECL_RULES = {
    ConstD: _check_var_init,
    VarInitD: _check_var_init,
    VarUninitD: _check_var_uninit,
    InstD: _check_inst,
    TypedefD: _check_typedef,
    EnumD: _check_enum,
    UnionD: _check_union,
    TableD: _check_table_decl,
    FuncD: _check_closure_decl,
    ControlD: _check_closure_decl,
}


def bind_vars(sigma, gamma, bindings):
    """(sigma', gamma') with the (name, type) bindings added to gamma; each
    binding shadows the constant of the same name."""
    names = {n for n, _ in bindings}
    return ({k: v for k, v in sigma.items() if k not in names},
            {**gamma, **dict(bindings)})


def _union_alt_ok(t):
    # alternatives are restricted to types whose defaults are expressible as
    # source expressions (the union-elimination translation needs them)
    if isinstance(t, RecordT):
        return all(_union_alt_ok(ft) for _, ft in t.fields)
    return isinstance(t, (BoolT, IntT, BitT, EnumT))


def _check_fresh_type_name(delta, name, d):
    if delta.get(name) is not None or name in OPEN_ENUMS:
        raise TypeError_("T-TypeDecl", f"type name {name!r} already defined", d.pos)


def check_body(sigma, gamma, delta, t, local_decls, body):
    """Check the local declarations and the body of a function of type t, or
    of a control of constructor type t, in its body_contexts. Returns whether
    a non-void body returns on every path."""
    sb, gb, delta = body_contexts(sigma, gamma, delta, t)
    for ld in local_decls:
        sb, gb, delta = check_declaration(sb, gb, delta, ld)
    check_statement(sb, gb, delta, body)
    return gb["return"] == VOID or returns_analysis(body)


def body_contexts(sigma, gamma, delta, t):
    """(sigma', gamma', delta') of the body of a function of type t, or of a
    control of constructor type t: the constructor parameters, the parameters
    and `return` shadow constants of the same name, and the type parameters
    are type variables."""
    cps, ft = _signature(t)
    bindings = [*cps, *((p.name, p.type) for p in ft.params), ("return", ft.ret)]
    return (*bind_vars(sigma, gamma, bindings), delta.bind_var(*ft.type_params))


def _signature(t):
    """(constructor parameters, function type) of a function type t, or of
    a control's constructor type t."""
    return (t.params, t.ret) if isinstance(t, CtorT) else ((), t)


def check_action_ok(sigma, gamma, delta, a):
    ft = gamma.get(a.name)
    if not isinstance(ft, FunT):
        raise TypeError_(
            "Type-Partial-App", f"action {a.name!r} is not a function", a.pos
        )
    if ft.type_params:
        raise TypeError_(
            "Type-Partial-App", f"action {a.name!r} must not be generic", a.pos
        )
    if len(a.args) + len(a.ctrl_params) != len(ft.params):
        raise TypeError_(
            "Type-Partial-App",
            f"action {a.name!r}: {len(a.args)} static + {len(a.ctrl_params)} "
            f"control-plane arguments do not cover {len(ft.params)} parameters",
            a.pos,
        )
    for p, arg in zip(ft.params, a.args):
        _check_arg(sigma, gamma, delta, p, p.type, arg, "Type-Partial-App",
                   a.pos)
    for (cname, ct), p in zip(a.ctrl_params, ft.params[len(a.args):]):
        if p.direction != "in":
            raise TypeError_(
                "Type-Partial-App",
                f"control-plane parameter {cname!r} must be in, "
                f"got {p.direction}",
                a.pos,
            )
        ct2 = simplify_type(sigma, delta, ct)
        if ct2 != p.type:
            raise TypeError_(
                "Type-Partial-App",
                f"control-plane parameter {cname!r} has type {pretty_type(ct2)}, "
                f"expected {pretty_type(p.type)}",
                a.pos,
            )


def check_program(program, sigma=None, gamma=None, delta=None):
    """Check all top-level declarations; returns the final contexts."""
    s = dict(sigma or {})
    g = dict(gamma or {})
    d = delta.copy() if delta is not None else initial_delta()
    for decl in program.decls:
        s, g, d = check_declaration(s, g, d, decl)
    return s, g, d


# ---------------------------------------------------------------------------
# Value / store / environment typing (test oracles)

def check_value(xi, sigma, delta, v, t):
    """True iff v inhabits normalized type t."""
    rule = _VALUE_RULES.get((type(v), type(t)))
    return rule is not None and rule(xi, sigma, delta, v, t)


def _check_member_value(xi, sigma, delta, v, t):
    name, members = t.name, t.members
    if t.open:  # its members grow: read the scope's
        members = getattr(delta.get(name), "members", ())
    return v.type_name == name and v.member in members


def _check_union_value(xi, sigma, delta, v, t):
    if v.type != t:
        return False
    alts = dict(t.alts)
    return v.field in alts and check_value(xi, sigma, delta, v.value, alts[v.field])


def _check_captured(xi, sigma, env, check):
    """check(sigma', gamma) for a value that captured env: gamma types env
    through xi and sigma' is sigma restricted to env. False when a captured
    location is untyped or check raises a PcoreError."""
    if any(loc not in xi for loc in env.values()):
        return False
    gamma = {name: xi[loc] for name, loc in env.items()}
    try:
        return check({k: v for k, v in sigma.items() if k in gamma}, gamma)
    except PcoreError:
        return False


def _check_closure(xi, sigma, delta, v, t):
    """A function or constructor closure of type t: its body checks in its
    captured scope."""
    return v.type == t and _check_captured(
        xi, sigma, v.env, lambda sb, gamma: check_body(
            sb, gamma, v.delta, v.type, v.local_decls, v.body))


def _check_table(xi, sigma, delta, v, t):
    def check(sb, gamma):
        check_declaration(sb, gamma, v.delta, TableD(v.name, v.keys, v.actions))
        return True
    return _check_captured(xi, sigma, v.env, check)


_VALUE_RULES = {
    (BoolV, BoolT): lambda xi, sigma, delta, v, t: True,
    (IntV, IntT): lambda xi, sigma, delta, v, t: v.width is None,
    (IntV, BitT): lambda xi, sigma, delta, v, t:
        v.width == t.width and 0 <= v.value < (1 << t.width),
    (MemberV, EnumT): _check_member_value,
    (RecordV, RecordT): lambda xi, sigma, delta, v, t:
        len(v.fields) == len(t.fields) and all(
            n1 == n2 and check_value(xi, sigma, delta, fv, ft)
            for (n1, fv), (n2, ft) in zip(v.fields, t.fields)
        ),
    (HeaderV, HeaderT): lambda xi, sigma, delta, v, t:
        len(v.fields) == len(t.fields) and all(
            n1 == n2
            and vt == ft
            and check_value(xi, sigma, delta, fv, ft)
            for (n1, vt, fv), (n2, ft) in zip(v.fields, t.fields)
        ),
    (StackV, StackT): lambda xi, sigma, delta, v, t: (
        v.elem_type == t.elem
        and len(v.values) == t.size
        and all(check_value(xi, sigma, delta, x, t.elem) for x in v.values)
    ),
    (UnionV, UnionT): _check_union_value,
    (NativeV, FunT): lambda xi, sigma, delta, v, t: v.type == t,
    (ClosureV, FunT): _check_closure,
    (ClosureV, CtorT): _check_closure,
    (TableV, TableT): _check_table,
}


def infer_type_of_value(delta, v):
    """Reconstruct a normalized type for a closed run-time value."""
    rule = _INFER_RULES.get(type(v))
    if rule is None:
        raise PcoreError(f"cannot infer a type for {v!r}")
    return rule(delta, v)


_INFER_RULES = {
    BoolV: lambda delta, v: BoolT(),
    IntV: lambda delta, v: IntT() if v.width is None else BitT(v.width),
    MemberV: lambda delta, v: t if isinstance(
        t := delta.get(v.type_name), EnumT) else EnumT(v.type_name, ()),
    RecordV: lambda delta, v: RecordT(
        tuple((n, infer_type_of_value(delta, fv)) for n, fv in v.fields)),
    HeaderV: lambda delta, v: HeaderT(tuple((n, ft) for n, ft, _ in v.fields)),
    StackV: lambda delta, v: StackT(v.elem_type, len(v.values)),
    UnionV: lambda delta, v: v.type,
    ClosureV: lambda delta, v: v.type,
    NativeV: lambda delta, v: v.type,
    TableV: lambda delta, v: TableT(),
}


def build_xi(delta, machine, gamma):
    """Infer a store typing for every location, preferring the declared types
    of env-reachable names in gamma."""
    xi = {}
    for name, loc in machine.env.items():
        if name in gamma and loc in machine.store:
            xi[loc] = gamma[name]
    for loc, v in machine.store.items():
        if loc not in xi:
            xi[loc] = infer_type_of_value(delta, v)
    return xi


def check_machine(xi, sigma, gamma, delta, machine):
    """Store typing + environment typing + constant agreement."""
    for loc, t in xi.items():
        if loc not in machine.store:
            return False
        if not check_value(xi, sigma, delta, machine.store[loc], t):
            return False
    for name, t in gamma.items():
        if name not in machine.env:
            return False
        loc = machine.env[name]
        if loc not in xi or xi[loc] != t:
            return False
    for name, val in sigma.items():
        if name not in machine.env:
            return False
        if machine.store.get(machine.env[name]) != val:
            return False
    return True
