"""Static semantics: type simplification, compile-time evaluation,
expression/statement/declaration typing with directions, the definite-return
analysis, and value/store/environment typing (the soundness-test oracles).

The checker has the calculus's two judgments: a declaration extends the
contexts, sigma, gamma, delta |- d -| sigma', gamma', delta'
(`check_declaration`), and a statement is only checked, sigma, gamma,
delta |- s (`check_statement`, which returns nothing).

Contexts:
- sigma: name -> Value, compile-time constants;
- gamma: name -> Type (variables, functions, tables, constructor types, and
  the reserved `return` name);
- delta: ordered type definitions / type variables (syntax.Delta);
- xi:    location -> Type, the store typing used by the machine oracle.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ArithmeticError_, PcoreError, TypeError_
from . import ops
from .pretty import pretty_expr
from .syntax import (
    AssignS, BinopE, BitT, BlockS, BoolE, BoolT, BoolV, CallE, CallS, CastE,
    ClosureV, ConstD, ControlD, CtorClosureV, CtorT, Delta, EnumD, EnumT,
    ExitS, FuncD, FunT, HeaderT, HeaderV, IfS, IndexE, InstD, IntE, IntT,
    IntV, MemberE, MemberV, NativeV, OPEN_ENUMS, Param, RecordE, RecordT,
    RecordV, ReturnS, SliceE, StackT, StackV, SwitchS, TableD, TableT, TableV,
    TypedefD, UnionD, UnionT, UnionV, UnopE, VarE, VarInitD, VarT, VarUninitD,
    VOID, free_type_vars, subst_type,
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
    entry = delta.lookup(t.name)
    if entry is None:
        raise TypeError_("UnboundTypeVar", f"type name {t.name!r} is not defined")
    return t if entry == "var" else entry


def _simplify_bit(sigma, delta, t):
    w = _cte_nat(sigma, t.width, "bit width")
    if w < 1:
        raise TypeError_("TyS-Bit", f"bit width must be positive, got {w}")
    return BitT(w)


def _simplify_stack(sigma, delta, t):
    n = _cte_nat(sigma, t.size, "stack size")
    if n < 0:
        raise TypeError_("TyS-Stack", f"stack size must be nonnegative, got {n}")
    return StackT(simplify_type(sigma, delta, t.elem), n)


def _simplify_fun(sigma, delta, t):
    inner = delta.bind_var(*t.type_params)
    ps = tuple(
        Param(p.direction, p.name, simplify_type(sigma, inner, p.type))
        for p in t.params
    )
    return FunT(t.type_params, ps, simplify_type(sigma, inner, t.ret))


def _simplify_fields(sigma, delta, fs):
    return tuple((n, simplify_type(sigma, delta, ft)) for n, ft in fs)


_SIMPLIFY_RULES = {
    VarT: _simplify_var,
    BitT: _simplify_bit,
    RecordT: lambda sigma, delta, t: RecordT(
        _simplify_fields(sigma, delta, t.fields)),
    HeaderT: lambda sigma, delta, t: HeaderT(
        _simplify_fields(sigma, delta, t.fields)),
    UnionT: lambda sigma, delta, t: UnionT(
        t.name, _simplify_fields(sigma, delta, t.alts)),
    StackT: _simplify_stack,
    FunT: _simplify_fun,
    CtorT: lambda sigma, delta, t: CtorT(
        _simplify_fields(sigma, delta, t.params),
        simplify_type(sigma, delta, t.ret)),
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


def check_expression(sigma, gamma, delta, e):
    match e:
        case BoolE():
            return TypedExpr(BoolT(), "in")
        case IntE(v, w):
            if w is None:
                return TypedExpr(IntT(), "in")
            if not 0 <= v < (1 << w):
                raise TypeError_("T-Bit", f"{v} does not fit in bit<{w}>", e.pos)
            return TypedExpr(BitT(w), "in")
        case VarE(name):
            if name not in gamma:
                if isinstance(delta.lookup(name), EnumT):
                    raise TypeError_("T-Var", f"enum name {name!r} is not a value", e.pos)
                raise TypeError_("T-Var", f"unbound variable {name!r}", e.pos)
            return TypedExpr(gamma[name], "in" if name in sigma else "inout")
        case IndexE(base, idx):
            tb = check_expression(sigma, gamma, delta, base)
            if not isinstance(tb.type, StackT):
                raise TypeError_("T-Index", f"indexing a non-stack {tb.type}", e.pos)
            ti = check_expression(sigma, gamma, delta, idx)
            if ti.type != BitT(32):
                raise TypeError_(
                    "T-Index", f"index must have type bit<32>, got {ti.type}", e.pos
                )
            return TypedExpr(tb.type.elem, tb.direction)
        case SliceE(base, hi, lo):
            tb = check_expression(sigma, gamma, delta, base)
            if not isinstance(tb.type, BitT):
                raise TypeError_("T-Slice", f"slicing a non-bit {tb.type}", e.pos)
            for ep in (hi, lo):
                te = check_expression(sigma, gamma, delta, ep)
                if not isinstance(te.type, IntT):
                    raise TypeError_(
                        "T-Slice", f"slice endpoint must be int, got {te.type}", e.pos
                    )
            h = _cte_nat(sigma, hi, "slice high endpoint")
            l = _cte_nat(sigma, lo, "slice low endpoint")
            if not tb.type.width > h >= l >= 0:
                raise TypeError_(
                    "T-Slice",
                    f"bounds violated: need {tb.type.width} > {h} >= {l} >= 0",
                    e.pos,
                )
            return TypedExpr(BitT(h - l + 1), tb.direction)
        case UnopE(_, operand):
            to = check_expression(sigma, gamma, delta, operand)
            return TypedExpr(_operator_type(e, to.type), "in")
        case BinopE(op, l, r):
            tl = check_expression(sigma, gamma, delta, l)
            tr = check_expression(sigma, gamma, delta, r)
            rt = _operator_type(e, tl.type, tr.type)
            _check_partial_binop(sigma, e, op, tl, tr)
            return TypedExpr(rt, "in")
        case CastE(t, operand):
            to = check_expression(sigma, gamma, delta, operand)
            t2 = _simplify_at(sigma, delta, t, e.pos)
            if not ops.check_cast(to.type, t2):
                raise TypeError_(
                    "T-Cast", f"illegal cast from {to.type} to {t2}", e.pos
                )
            return TypedExpr(t2, "in")
        case RecordE(fields):
            names = [n for n, _ in fields]
            if len(set(names)) != len(names):
                raise TypeError_("T-Record", "duplicate field name", e.pos)
            fts = tuple(
                (n, check_expression(sigma, gamma, delta, fe).type)
                for n, fe in fields
            )
            return TypedExpr(RecordT(fts), "in")
        case MemberE(VarE(name), member) if (
            name not in gamma and isinstance(et := delta.lookup(name), EnumT)
        ):
            if et.open:  # a typedef's snapshot misses later members
                et = delta.lookup(et.name)
            if member in et.members:
                return TypedExpr(et, "in")
            if et.open:
                raise TypeError_(
                    "T-Err", f"{member!r} is not a declared {et.name} member", e.pos
                )
            raise TypeError_(
                "T-Enum", f"{member!r} is not a member of enum {et.name}", e.pos
            )
        case MemberE(base):
            return _check_member(check_expression(sigma, gamma, delta, base), e)
        case CallE(callee):
            return check_call(sigma, gamma, delta, e,
                              check_expression(sigma, gamma, delta, callee))
    raise TypeError_("T-Expr", f"cannot type {type(e).__name__}", getattr(e, "pos", None))


def _check_member(tb, e):
    """T-Mem: the field e.field of a record or header base typed tb."""
    match tb.type:
        case RecordT(fs) | HeaderT(fs):
            for n, ft in fs:
                if n == e.field:
                    return TypedExpr(ft, tb.direction)
            raise TypeError_("T-Mem", f"no field {e.field!r} in {tb.type}", e.pos)
    raise TypeError_("T-Mem", f"member access on {tb.type}", e.pos)


def _operator_type(e, *ts):
    """T-UOp/T-BinOp: the type of e's operator at the operand types ts."""
    unary = isinstance(e, UnopE)
    rt = (ops.type_of_unop if unary else ops.type_of_binop)(e.op, *ts)
    if rt is None:
        tok = (ops.UNOPS if unary else ops.BINOPS).get(e.op, (e.op,))[0]
        tys = ", ".join(str(t) for t in ts)
        raise TypeError_("T-UOp" if unary else "T-BinOp",
                         f"operator {tok!r} not defined at ({tys})", e.pos)
    return rt


def _check_partial_binop(sigma, e, op, tl, tr):
    """Operators that are partial at run time require compile-time evidence
    that the dangerous operand is safe: positive divisors for div/mod (plus
    a nonnegative dividend at type int) and nonnegative int shift amounts."""
    tok = ops.BINOPS[op][0]
    if op in ("div", "mod"):
        dv = _cte_guard(sigma, e.right, tok, "divisor")
        if dv.value <= 0:
            raise TypeError_("T-BinOp", f"{tok!r} divisor must be positive", e.pos)
        if isinstance(tl.type, IntT):
            nv = _cte_guard(sigma, e.left, tok, "int dividend")
            if nv.value < 0:
                raise TypeError_(
                    "T-BinOp", f"{tok!r} dividend must be nonnegative", e.pos
                )
    elif op in ("shl", "shr") and isinstance(tr.type, IntT):
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
        raise TypeError_("T-Call", f"calling a non-function {tc.type}", e.pos)
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
        if isinstance(ta, (FunT, CtorT, TableT)):
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
    return TypedExpr(subst_type(ft.ret, tvars), "in")


def _check_arg(sigma, gamma, delta, p, pt, arg, rule, pos):
    """The argument rule of calls, static action arguments and constructor
    arguments: arg has the parameter's type pt, and goes inout for an out or
    inout p."""
    ta = check_expression(sigma, gamma, delta, arg)
    if ta.type != pt:
        raise TypeError_(
            rule, f"argument for {p.name!r} has type {ta.type}, expected {pt}",
            pos,
        )
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
    match s:
        case BlockS(stmts):
            for item in stmts:
                if isinstance(item, VAR_DECLS):
                    sigma, gamma, _ = check_declaration(sigma, gamma, delta, item)
                else:
                    check_statement(sigma, gamma, delta, item)
        case AssignS():
            check_assign(sigma, gamma, delta, s)
        case IfS(cond, then, els):
            tc = check_expression(sigma, gamma, delta, cond)
            if not isinstance(tc.type, BoolT):
                raise TypeError_(
                    "TS-If", f"condition has type {tc.type}, expected bool", s.pos
                )
            check_statement(sigma, gamma, delta, then)
            check_statement(sigma, gamma, delta, els)
        case CallS(call):
            tc = check_expression(sigma, gamma, delta, call.callee)
            if not isinstance(tc.type, TableT):
                check_call(sigma, gamma, delta, call, tc)
            elif call.args or call.type_args:
                raise TypeError_(
                    "TS-TblCall", "table application takes no arguments", s.pos
                )
        case ExitS():
            pass
        case ReturnS(value):
            if "return" not in gamma:
                raise TypeError_("TS-Ret", "return outside a function body", s.pos)
            tv = check_expression(sigma, gamma, delta, value)
            if tv.type != gamma["return"]:
                raise TypeError_(
                    "TS-Ret", f"returning {tv.type}, expected {gamma['return']}",
                    s.pos,
                )
        case SwitchS():
            check_switch(sigma, gamma, delta, s)
        case _:  # a declaration other than a variable's
            raise TypeError_("TS-Block", f"declaration of {s.name!r} not "
                             "allowed in statement position", s.pos)


def check_assign(sigma, gamma, delta, s):
    """TS-Assign, or T-Union: assigning a union's field replaces the union."""
    lhs = s.lhs
    if isinstance(lhs, MemberE):
        tb = check_expression(sigma, gamma, delta, lhs.base)
        if isinstance(tb.type, UnionT):
            if tb.direction != "inout":
                raise TypeError_("T-Union", "assigning into a constant union", s.pos)
            alts = dict(tb.type.alts)
            if lhs.field not in alts:
                raise TypeError_(
                    "T-Union",
                    f"{lhs.field!r} is not an alternative of {tb.type}",
                    s.pos,
                )
            tr = check_expression(sigma, gamma, delta, s.rhs)
            if tr.type != alts[lhs.field]:
                raise TypeError_(
                    "T-Union",
                    f"assigning {tr.type} to alternative of type {alts[lhs.field]}",
                    s.pos,
                )
            return
        tl = _check_member(tb, lhs)
    else:
        tl = check_expression(sigma, gamma, delta, lhs)
    if tl.direction != "inout":
        raise TypeError_("TS-Assign", "left operand goes in", s.pos)
    tr = check_expression(sigma, gamma, delta, s.rhs)
    if tl.type != tr.type:
        raise TypeError_(
            "TS-Assign", f"assigning {tr.type} to {tl.type}", s.pos
        )


def check_switch(sigma, gamma, delta, s):
    ts = check_expression(sigma, gamma, delta, s.scrutinee)
    if not isinstance(ts.type, UnionT):
        raise TypeError_(
            "T-Switch", f"switch scrutinee has type {ts.type}, expected a union",
            s.pos,
        )
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
            raise TypeError_(
                "T-Switch", f"{label!r} is not an alternative of {ts.type}", s.pos
            )
        check_statement(*bind_vars(sigma, gamma, [(label, alts[label])]),
                        delta, body)


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
    try:
        match d:
            case ConstD(t, name, init) | VarInitD(t, name, init):
                const = isinstance(d, ConstD)
                t2 = simplify_type(sigma, delta, t)
                ti = check_expression(sigma, gamma, delta, init)
                if ti.type != t2:
                    raise TypeError_(
                        "Type-Const" if const else "Type-VarInit",
                        f"initializer has type {ti.type}, expected {t2}", d.pos,
                    )
                s2, g2 = bind_vars(sigma, gamma, [(name, t2)])
                if const:  # only a constant also binds its value
                    s2[name] = cteval(sigma, init)
                return s2, g2, delta
            case VarUninitD(t, name):
                t2 = simplify_type(sigma, delta, t)
                if free_type_vars(t2):
                    raise TypeError_(
                        "Type-Var", f"cannot default-initialize {t2}", d.pos
                    )
                return (*bind_vars(sigma, gamma, [(name, t2)]), delta)
            case InstD(type_name, args, name):
                ct = gamma.get(type_name)
                if not isinstance(ct, CtorT):
                    raise TypeError_(
                        "Type-Inst", f"{type_name!r} is not a constructor", d.pos
                    )
                if len(args) != len(ct.params):
                    raise TypeError_(
                        "Type-Inst",
                        f"expected {len(ct.params)} constructor arguments, "
                        f"got {len(args)}",
                        d.pos,
                    )
                for (pname, pt), arg in zip(ct.params, args):
                    _check_arg(sigma, gamma, delta, Param("in", pname, pt), pt,
                               arg, "Type-Inst", d.pos)
                return (*bind_vars(sigma, gamma, [(name, ct.ret)]), delta)
            case TypedefD(t, name):
                _check_fresh_type_name(delta, name, d)
                return sigma, gamma, delta.bind(name, simplify_type(sigma, delta, t))
            case EnumD(name, members):
                if name not in OPEN_ENUMS:  # whose declarations add members
                    _check_fresh_type_name(delta, name, d)
                    if not members:
                        raise TypeError_("T-EnumDecl",
                                         f"enum {name!r} has no members", d.pos)
                for i, m in enumerate(members):
                    if m in members[:i]:
                        raise TypeError_(
                            "DuplicateEnumMember",
                            f"{m!r} repeated in declaration of {name!r}", d.pos)
                return sigma, gamma, delta.bind(name, EnumT(name, tuple(members)))
            case UnionD(name, alts):
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
                        raise TypeError_(
                            "T-Union",
                            f"alternative {n!r} has unsupported type {at2}",
                            d.pos,
                        )
                    salts.append((n, at2))
                return sigma, gamma, delta.bind(name, UnionT(name, tuple(salts)))
            case TableD(name, keys, actions):
                for e, kind in keys:
                    te = check_expression(sigma, gamma, delta, e)
                    if not ops._eq_comparable(te.type):
                        raise TypeError_(
                            "T-TableDecl",
                            f"key of type {te.type} cannot be matched", d.pos,
                        )
                    if kind not in delta.lookup("match_kind").members:
                        raise TypeError_(
                            "T-TableDecl", f"unknown match kind {kind!r}", d.pos
                        )
                if not actions:
                    raise TypeError_("T-TableDecl", "table needs at least one action", d.pos)
                anames = [a.name for a in actions]
                if len(set(anames)) != len(anames):
                    raise TypeError_("T-TableDecl", "duplicate action reference", d.pos)
                if actions[-1].ctrl_params:
                    raise TypeError_("T-TableDecl", "the default action takes "
                                     "no control-plane arguments", d.pos)
                for a in actions:
                    check_action_ok(sigma, gamma, delta, a)
                return sigma, {**gamma, name: TableT()}, delta
            case FuncD(ret, name, tps, params, body):
                if len(set(tps)) != len(tps):
                    raise TypeError_("T-FuncDecl", "duplicate type parameter", d.pos)
                inner = delta.bind_var(*tps)
                ps = _check_params(sigma, inner, params, d)
                ret2 = simplify_type(sigma, inner, ret)
                bindings = [(p.name, p.type) for p in ps]
                if not check_body(sigma, gamma, inner, bindings, ret2, (), body):
                    raise TypeError_("MissingReturn",
                                     f"body of {name!r} may fall through", d.pos)
                return sigma, {**gamma, name: FunT(tuple(tps), ps, ret2)}, delta
            case ControlD(name, params, ctor_params, local_decls, body):
                ps = _check_params(sigma, delta, params, d)
                cps = tuple(
                    (n, simplify_type(sigma, delta, t)) for n, t in ctor_params
                )
                bindings = list(cps) + [(p.name, p.type) for p in ps]
                check_body(sigma, gamma, delta, bindings, VOID, local_decls, body)
                return sigma, {**gamma, name: CtorT(cps, FunT((), ps, VOID))}, delta
    except TypeError_ as exc:
        exc.pos = exc.pos or d.pos
        raise
    raise TypeError_("T-Decl", f"unknown declaration {d!r}", getattr(d, "pos", None))


def bind_vars(sigma, gamma, bindings):
    """(sigma', gamma') with the (name, type) bindings added to gamma; each
    binding shadows the constant of the same name."""
    names = {n for n, _ in bindings}
    return ({k: v for k, v in sigma.items() if k not in names},
            {**gamma, **dict(bindings)})


def _union_alt_ok(t):
    # alternatives are restricted to types whose defaults are expressible as
    # source expressions (the union-elimination translation needs them)
    match t:
        case BoolT() | IntT() | BitT() | EnumT():
            return True
        case RecordT(fs):
            return all(_union_alt_ok(ft) for _, ft in fs)
        case _:
            return False


def _check_fresh_type_name(delta, name, d):
    if delta.lookup(name) is not None or name in OPEN_ENUMS:
        raise TypeError_("T-TypeDecl", f"type name {name!r} already defined", d.pos)


def check_body(sigma, gamma, delta, bindings, ret, local_decls, body):
    """Check the local declarations and the body of a function or control in
    its body_contexts. Returns whether a non-void body returns on every
    path."""
    sb, gb = body_contexts(sigma, gamma, bindings, ret)
    for ld in local_decls:
        sb, gb, delta = check_declaration(sb, gb, delta, ld)
    check_statement(sb, gb, delta, body)
    return ret == VOID or returns_analysis(body)


def body_contexts(sigma, gamma, bindings, ret):
    """(sigma', gamma') of a function or control body: its (name, type)
    bindings shadow constants of the same name, and `return` has type ret."""
    return bind_vars(sigma, gamma, [*bindings, ("return", ret)])


def _check_params(sigma, delta, params, d):
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise TypeError_("T-FuncDecl", "duplicate parameter name", d.pos)
    out = []
    for p in params:
        pt = simplify_type(sigma, delta, p.type)
        if isinstance(pt, (FunT, CtorT, TableT)):
            raise TypeError_(
                "T-FuncDecl", f"parameter {p.name!r} must have a base type", d.pos
            )
        out.append(Param(p.direction, p.name, pt))
    return tuple(out)


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
                f"control-plane parameter {cname!r} has type {ct2}, "
                f"expected {p.type}",
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
    match v, t:
        case BoolV(), BoolT():
            return True
        case IntV(n, None), IntT():
            return True
        case IntV(n, w), BitT(tw):
            return w == tw and 0 <= n < (1 << tw)
        case MemberV(tn, m), EnumT(name, members):
            if t.open:  # its members grow: read the scope's
                members = getattr(delta.lookup(name), "members", ())
            return tn == name and m in members
        case RecordV(fvs), RecordT(fts):
            return len(fvs) == len(fts) and all(
                n1 == n2 and check_value(xi, sigma, delta, fv, ft)
                for (n1, fv), (n2, ft) in zip(fvs, fts)
            )
        case HeaderV(_, fvs), HeaderT(fts):
            return len(fvs) == len(fts) and all(
                n1 == n2
                and vt == ft
                and check_value(xi, sigma, delta, fv, ft)
                for (n1, vt, fv), (n2, ft) in zip(fvs, fts)
            )
        case StackV(et, vs), StackT(elem, n):
            return (
                et == elem
                and len(vs) == n
                and all(check_value(xi, sigma, delta, x, elem) for x in vs)
            )
        case UnionV(ut, f, payload), UnionT():
            if ut != t:
                return False
            alts = dict(t.alts)
            return f in alts and check_value(xi, sigma, delta, payload, alts[f])
        case NativeV(), FunT():
            return FunT(v.type_params, v.params, v.ret) == t
        case ClosureV(), FunT():
            return _check_closure(xi, sigma, v, t)
        case TableV(), TableT():
            return _check_table(xi, sigma, v)
        case CtorClosureV(), CtorT():
            return _check_ctor_closure(xi, sigma, v, t)
        case _:
            return False


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


def _check_closure(xi, sigma, v, t):
    if FunT(v.type_params, v.params, v.ret) != t:
        return False
    inner = v.delta.bind_var(*v.type_params)
    bindings = [(p.name, p.type) for p in v.params]
    return _check_captured(xi, sigma, v.env, lambda sb, gamma: check_body(
        sb, gamma, inner, bindings, v.ret, v.local_decls, v.body))


def _check_table(xi, sigma, v):
    def check(sb, gamma):
        check_declaration(sb, gamma, v.delta, TableD(v.name, v.keys, v.actions))
        return True
    return _check_captured(xi, sigma, v.env, check)


def _check_ctor_closure(xi, sigma, v, t):
    if t.ret != FunT((), v.params, VOID):
        return False
    bindings = list(v.ctor_params) + [(p.name, p.type) for p in v.params]
    return _check_captured(xi, sigma, v.env, lambda sb, gamma: check_body(
        sb, gamma, v.delta, bindings, VOID, v.local_decls, v.body))


def infer_type_of_value(delta, v):
    """Reconstruct a normalized type for a closed run-time value."""
    match v:
        case BoolV():
            return BoolT()
        case IntV(_, None):
            return IntT()
        case IntV(_, w):
            return BitT(w)
        case MemberV(tn, _):
            t = delta.lookup(tn)
            return t if isinstance(t, EnumT) else EnumT(tn, ())
        case RecordV(fs):
            return RecordT(tuple((n, infer_type_of_value(delta, fv)) for n, fv in fs))
        case HeaderV(_, fs):
            return HeaderT(tuple((n, ft) for n, ft, _ in fs))
        case StackV(et, vs):
            return StackT(et, len(vs))
        case UnionV(ut, _, _):
            return ut
        case ClosureV() | NativeV():
            return FunT(v.type_params, v.params, v.ret)
        case TableV():
            return TableT()
        case CtorClosureV():
            return CtorT(v.ctor_params, FunT((), v.params, VOID))
    raise PcoreError(f"cannot infer a type for {v!r}")


def build_xi(delta, machine, gamma=None):
    """Infer a store typing for every location, preferring the declared types
    of env-reachable names when gamma is given."""
    xi = {}
    if gamma:
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
        if name == "return":
            continue
        if isinstance(t, CtorT) and name not in machine.env:
            continue
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
