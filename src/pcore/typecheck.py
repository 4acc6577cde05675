"""Static semantics: type simplification, compile-time evaluation,
expression/statement/declaration typing with directions, the definite-return
analysis, and value/store/environment typing (the soundness-test oracles).

Contexts:
- sigma: name -> Value, compile-time constants;
- gamma: name -> Type (variables, functions, tables, constructor types, and
  the reserved `return` name);
- delta: ordered type definitions / type variables (syntax.Delta);
- xi:    location -> Type, the store typing used by the machine oracle.
"""

from __future__ import annotations

from .errors import (
    DuplicateEnumMember, MissingReturn, NotCompileTime, PcoreError,
    TypeError_, UnboundTypeVar,
)
from . import ops
from .syntax import (
    AssignS, BinopE, BitT, BlockS, BoolE, BoolT, BoolV, CallE, CallS, CastE,
    ClosureV, ConstD, ControlD, CtorClosureV, CtorT, Delta, EnumD, EnumT,
    ErrorT, ExitS, FuncD, FunT, HeaderT, HeaderV, IfS, IndexE, InstD, IntE,
    IntT, IntV, MatchKindT, MemberE, MemberV, NativeV, OPEN_ENUMS, OpenEnumD,
    OpenEnumT, Param, RecordE, RecordT, RecordV, ReturnS, SliceE, StackT,
    StackV, SwitchS, TableD, TableT, TableV, TypedefD, TypeMemberE, UnionD,
    UnionT, UnionV, UnopE, VarE, VarInitD, VarT, VarUninitD, VOID,
    free_type_vars, type_equal,
)

VAR_DECLS = (ConstD, VarInitD, VarUninitD, InstD)
TYPE_DECLS = (TypedefD, EnumD, OpenEnumD, UnionD)
OBJ_DECLS = (TableD, ControlD, FuncD)


def initial_delta():
    """Bootstrap definitions: open enums start with one member each so that
    error/match_kind values are always inhabitable."""
    d = Delta()
    d = d.bind("error", ErrorT(("NoError",)))
    d = d.bind("match_kind", MatchKindT(("exact",)))
    return d


# ---------------------------------------------------------------------------
# Type simplification and compile-time evaluation

def simplify_type(sigma, delta, t):
    """Normalize t: resolve defined type names via delta (leaving `X var`
    entries as type variables) and evaluate width/size expressions."""
    match t:
        case VarT(name):
            entry = delta.lookup(name)
            if entry is None:
                raise UnboundTypeVar(name)
            return t if entry == "var" else entry
        case BitT(w):
            if not isinstance(w, int):
                w = _cte_nat(sigma, w, "bit width")
            if w < 1:
                raise TypeError_("TyS-Bit", f"bit width must be positive, got {w}")
            return BitT(w)
        case OpenEnumT():
            return delta.lookup(t.name) or type(t)()
        case RecordT(fs):
            return RecordT(tuple((n, simplify_type(sigma, delta, ft)) for n, ft in fs))
        case HeaderT(fs):
            return HeaderT(tuple((n, simplify_type(sigma, delta, ft)) for n, ft in fs))
        case UnionT(name, alts):
            return UnionT(name, tuple(
                (n, simplify_type(sigma, delta, ft)) for n, ft in alts
            ))
        case StackT(elem, n):
            if not isinstance(n, int):
                n = _cte_nat(sigma, n, "stack size")
            if n < 0:
                raise TypeError_("TyS-Stack", f"stack size must be nonnegative, got {n}")
            return StackT(simplify_type(sigma, delta, elem), n)
        case FunT(tps, params, ret):
            inner = delta.bind_var(*tps)
            ps = tuple(
                Param(p.direction, p.name, simplify_type(sigma, inner, p.type))
                for p in params
            )
            return FunT(tps, ps, simplify_type(sigma, inner, ret))
        case CtorT(params, ret):
            ps = tuple(
                (n, simplify_type(sigma, delta, pt)) for n, pt in params
            )
            return CtorT(ps, simplify_type(sigma, delta, ret))
        case _:
            return t


def _cte_nat(sigma, e, what):
    v = cteval(sigma, e)
    if not isinstance(v, IntV):
        raise TypeError_("TyS", f"{what} must be an integer, got {v}")
    return v.value


def cteval(sigma, e):
    """Compile-time evaluation: literals, constant names, unops, binops."""
    match e:
        case BoolE(v):
            return BoolV(v)
        case IntE(v, w):
            return IntV(v, w)
        case VarE(name):
            if name in sigma:
                return sigma[name]
            raise NotCompileTime(f"{name} is not a constant", e.pos)
        case UnopE(op, operand):
            return ops.eval_unop(op, cteval(sigma, operand))
        case BinopE(op, l, r):
            return ops.eval_binop(op, cteval(sigma, l), cteval(sigma, r))
    raise NotCompileTime(type(e).__name__, getattr(e, "pos", None))


# ---------------------------------------------------------------------------
# Expression typing

class TypedExpr:
    """An expression with its normalized type and direction (in / inout)."""

    __slots__ = ("expr", "type", "direction")

    def __init__(self, expr, t, direction):
        self.expr = expr
        self.type = t
        self.direction = direction

    def __repr__(self):
        return f"TypedExpr({self.expr!r} : {self.type} goes {self.direction})"


def check_expression(sigma, gamma, delta, e):
    match e:
        case BoolE():
            return TypedExpr(e, BoolT(), "in")
        case IntE(v, w):
            if w is None:
                return TypedExpr(e, IntT(), "in")
            if not 0 <= v < (1 << w):
                raise TypeError_("T-Bit", f"{v} does not fit in bit<{w}>", e.pos)
            return TypedExpr(e, BitT(w), "in")
        case VarE(name):
            entry = delta.lookup(name)
            if isinstance(entry, EnumT) and name not in gamma:
                raise TypeError_("T-Var", f"enum name {name!r} is not a value", e.pos)
            if name not in gamma:
                raise TypeError_("T-Var", f"unbound variable {name!r}", e.pos)
            d = "in" if name in sigma else "inout"
            return TypedExpr(e, gamma[name], d)
        case IndexE(base, idx):
            tb = check_expression(sigma, gamma, delta, base)
            if not isinstance(tb.type, StackT):
                raise TypeError_("T-Index", f"indexing a non-stack {tb.type}", e.pos)
            ti = check_expression(sigma, gamma, delta, idx)
            if ti.type != BitT(32):
                raise TypeError_(
                    "T-Index", f"index must have type bit<32>, got {ti.type}", e.pos
                )
            return TypedExpr(e, tb.type.elem, tb.direction)
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
            return TypedExpr(e, BitT(h - l + 1), tb.direction)
        case UnopE(op, operand):
            to = check_expression(sigma, gamma, delta, operand)
            try:
                rt = ops.type_of_unop(op, to.type)
            except PcoreError as exc:
                raise TypeError_("T-UOp", str(exc), e.pos) from exc
            return TypedExpr(e, rt, "in")
        case BinopE(op, l, r):
            tl = check_expression(sigma, gamma, delta, l)
            tr = check_expression(sigma, gamma, delta, r)
            try:
                rt = ops.type_of_binop(op, tl.type, tr.type)
            except PcoreError as exc:
                raise TypeError_("T-BinOp", str(exc), e.pos) from exc
            _check_partial_binop(sigma, e, op, tl, tr)
            return TypedExpr(e, rt, "in")
        case CastE(t, operand):
            to = check_expression(sigma, gamma, delta, operand)
            t2 = simplify_type(sigma, delta, t)
            if not ops.check_cast(to.type, t2):
                raise TypeError_(
                    "T-Cast", f"illegal cast from {to.type} to {t2}", e.pos
                )
            return TypedExpr(e, t2, "in")
        case RecordE(fields):
            names = [n for n, _ in fields]
            if len(set(names)) != len(names):
                raise TypeError_("T-Record", "duplicate field name", e.pos)
            fts = tuple(
                (n, check_expression(sigma, gamma, delta, fe).type)
                for n, fe in fields
            )
            return TypedExpr(e, RecordT(fts), "in")
        case MemberE(VarE(name), member) if (
            isinstance(delta.lookup(name), EnumT) and name not in gamma
        ):
            et = delta.lookup(name)
            if member not in et.members:
                raise TypeError_(
                    "T-Enum", f"{member!r} is not a member of enum {name}", e.pos
                )
            return TypedExpr(e, et, "in")
        case MemberE(base, member):
            tb = check_expression(sigma, gamma, delta, base)
            match tb.type:
                case RecordT(fs) | HeaderT(fs):
                    for n, ft in fs:
                        if n == member:
                            return TypedExpr(e, ft, tb.direction)
                    raise TypeError_(
                        "T-Mem", f"no field {member!r} in {tb.type}", e.pos
                    )
                case _:
                    raise TypeError_(
                        "T-Mem", f"member access on {tb.type}", e.pos
                    )
        case TypeMemberE(tn, member):
            t = delta.lookup(tn)
            if isinstance(t, OpenEnumT) and member in t.members:
                return TypedExpr(e, t, "in")
            raise TypeError_(
                "T-Err", f"{member!r} is not a declared {tn} member", e.pos
            )
        case CallE():
            return check_call(sigma, gamma, delta, e)
    raise TypeError_("T-Expr", f"cannot type {type(e).__name__}", getattr(e, "pos", None))


def _check_partial_binop(sigma, e, op, tl, tr):
    """Operators that are partial at run time require compile-time evidence
    that the dangerous operand is safe: positive divisors for div/mod (plus
    a nonnegative dividend at type int) and nonnegative int shift amounts."""
    if op in ("div", "mod"):
        dv = _cte_guard(sigma, e.right, op, "divisor")
        if dv.value <= 0:
            raise TypeError_("T-BinOp", f"{op} divisor must be positive", e.pos)
        if isinstance(tl.type, IntT):
            nv = _cte_guard(sigma, e.left, op, "int dividend")
            if nv.value < 0:
                raise TypeError_(
                    "T-BinOp", f"{op} dividend must be nonnegative", e.pos
                )
    elif op in ("shl", "shr") and isinstance(tr.type, IntT):
        sv = _cte_guard(sigma, e.right, op, "int shift amount")
        if sv.value < 0:
            raise TypeError_("T-BinOp", "shift amount must be nonnegative", e.pos)


def _cte_guard(sigma, operand, op, what):
    try:
        return cteval(sigma, operand)
    except PcoreError as exc:
        raise TypeError_(
            "T-BinOp", f"{op} {what} must be compile-time known", operand.pos
        ) from exc


def check_call(sigma, gamma, delta, e):
    tc = check_expression(sigma, gamma, delta, e.callee)
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
    inner = delta
    for x, ta in zip(ft.type_params, e.type_args):
        ta = simplify_type(sigma, delta, ta)
        if isinstance(ta, (FunT, CtorT, TableT)):
            raise TypeError_("T-Call", "type arguments must be base types", e.pos)
        inner = inner.bind(x, ta)
    if len(e.args) != len(ft.params):
        raise TypeError_(
            "T-Call",
            f"expected {len(ft.params)} arguments, got {len(e.args)}",
            e.pos,
        )
    for p, arg in zip(ft.params, e.args):
        pt = simplify_type(sigma, inner, p.type)
        _check_arg(sigma, gamma, delta, p, pt, arg, "T-Call", e.pos)
    return TypedExpr(e, simplify_type(sigma, inner, ft.ret), "in")


def _check_arg(sigma, gamma, delta, p, pt, arg, rule, pos):
    """The argument rule of calls, static action arguments and constructor
    arguments: arg has the parameter's type pt, and goes inout for an out or
    inout p."""
    ta = check_expression(sigma, gamma, delta, arg)
    if not type_equal(ta.type, pt):
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
    """Returns (sigma', gamma'); per the block rule, scoped constructs
    return their entry contexts."""
    match s:
        case BlockS(stmts):
            sg, gg = sigma, gamma
            for item in stmts:
                if isinstance(item, VAR_DECLS):
                    sg, gg, _ = check_var_declaration(sg, gg, delta, item)
                elif isinstance(item, (TYPE_DECLS, OBJ_DECLS)):
                    raise TypeError_(
                        "TS-Block",
                        f"{type(item).__name__} not allowed in statement position",
                        item.pos,
                    )
                else:
                    sg, gg = check_statement(sg, gg, delta, item)
            return sigma, gamma
        case AssignS(lhs, rhs):
            check_assign(sigma, gamma, delta, s, lhs, rhs)
            return sigma, gamma
        case IfS(cond, then, els):
            tc = check_expression(sigma, gamma, delta, cond)
            if not isinstance(tc.type, BoolT):
                raise TypeError_(
                    "TS-If", f"condition has type {tc.type}, expected bool", s.pos
                )
            check_statement(sigma, gamma, delta, then)
            check_statement(sigma, gamma, delta, els)
            return sigma, gamma
        case CallS(call):
            tcal = check_expression(sigma, gamma, delta, call.callee)
            if isinstance(tcal.type, TableT):
                if call.args or call.type_args:
                    raise TypeError_(
                        "TS-TblCall", "table application takes no arguments", s.pos
                    )
                return sigma, gamma
            check_call(sigma, gamma, delta, call)
            return sigma, gamma
        case ExitS():
            return sigma, gamma
        case ReturnS(value):
            if "return" not in gamma:
                raise TypeError_("TS-Ret", "return outside a function body", s.pos)
            rt = simplify_type(sigma, delta, gamma["return"])
            tv = check_expression(sigma, gamma, delta, value)
            if not type_equal(tv.type, rt):
                raise TypeError_(
                    "TS-Ret", f"returning {tv.type}, expected {rt}", s.pos
                )
            return sigma, gamma
        case SwitchS():
            check_switch(sigma, gamma, delta, s)
            return sigma, gamma
    raise TypeError_("TS", f"cannot type {type(s).__name__}", getattr(s, "pos", None))


def check_assign(sigma, gamma, delta, s, lhs, rhs):
    # union field assignment replaces the whole union value
    if isinstance(lhs, MemberE):
        tb = try_union_base(sigma, gamma, delta, lhs.base)
        if tb is not None:
            if tb.direction != "inout":
                raise TypeError_("T-Union", "assigning into a constant union", s.pos)
            alts = dict(tb.type.alts)
            if lhs.field not in alts:
                raise TypeError_(
                    "T-Union",
                    f"{lhs.field!r} is not an alternative of {tb.type}",
                    s.pos,
                )
            tr = check_expression(sigma, gamma, delta, rhs)
            if not type_equal(tr.type, alts[lhs.field]):
                raise TypeError_(
                    "T-Union",
                    f"assigning {tr.type} to alternative of type {alts[lhs.field]}",
                    s.pos,
                )
            return
    tl = check_expression(sigma, gamma, delta, lhs)
    if tl.direction != "inout":
        raise TypeError_("TS-Assign", "left operand goes in", s.pos)
    tr = check_expression(sigma, gamma, delta, rhs)
    if not type_equal(tl.type, tr.type):
        raise TypeError_(
            "TS-Assign", f"assigning {tr.type} to {tl.type}", s.pos
        )


def try_union_base(sigma, gamma, delta, base):
    try:
        tb = check_expression(sigma, gamma, delta, base)
    except TypeError_:
        return None
    return tb if isinstance(tb.type, UnionT) else None


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
        g2 = dict(gamma)
        g2[label] = alts[label]
        s2 = {k: v for k, v in sigma.items() if k != label}
        check_statement(s2, g2, delta, body)


def returns_analysis(s):
    """True iff every control path through s ends in return or exit."""
    match s:
        case ReturnS() | ExitS():
            return True
        case BlockS(stmts):
            return any(
                not isinstance(x, VAR_DECLS) and returns_analysis(x) for x in stmts
            )
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

def check_var_declaration(sigma, gamma, delta, d):
    match d:
        case ConstD(t, name, init) | VarInitD(t, name, init):
            const = isinstance(d, ConstD)
            t2 = simplify_type(sigma, delta, t)
            ti = check_expression(sigma, gamma, delta, init)
            if not type_equal(ti.type, t2):
                raise TypeError_(
                    "Type-Const" if const else "Type-VarInit",
                    f"initializer has type {ti.type}, expected {t2}", d.pos,
                )
            s2, g2, _ = _bind_var(sigma, gamma, delta, name, t2)
            if const:  # only a constant also binds its value
                s2[name] = cteval(sigma, init)
            return s2, g2, delta
        case VarUninitD(t, name):
            t2 = simplify_type(sigma, delta, t)
            if free_type_vars(t2):
                raise TypeError_(
                    "Type-Var", f"cannot default-initialize {t2}", d.pos
                )
            return _bind_var(sigma, gamma, delta, name, t2)
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
                _check_arg(sigma, gamma, delta, Param("in", pname, pt), pt, arg,
                           "Type-Inst", d.pos)
            return _bind_var(sigma, gamma, delta, name, ct.ret)
    raise TypeError_("Type-Var", f"not a variable declaration: {d!r}", d.pos)


def _bind_var(sigma, gamma, delta, name, t):
    s2 = {k: v for k, v in sigma.items() if k != name}
    return s2, {**gamma, name: t}, delta


def check_type_declaration(sigma, gamma, delta, d):
    match d:
        case TypedefD(t, name):
            _check_fresh_type_name(delta, name, d)
            return sigma, gamma, delta.bind(name, simplify_type(sigma, delta, t))
        case EnumD(name, members):
            _check_fresh_type_name(delta, name, d)
            _check_members(name, members, d)
            if not members:
                raise TypeError_("T-EnumDecl", f"enum {name!r} has no members", d.pos)
            return sigma, gamma, delta.bind(name, EnumT(name, tuple(members)))
        case OpenEnumD(members):
            _check_members(d.type.name, members, d)
            return sigma, gamma, delta.bind(d.type.name, d.type(tuple(members)))
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
    raise TypeError_("T-TypeDecl", f"not a type declaration: {d!r}", d.pos)


def _union_alt_ok(t):
    # alternatives are restricted to types whose defaults are expressible as
    # source expressions (the union-elimination translation needs them)
    match t:
        case BoolT() | IntT() | BitT() | EnumT() | OpenEnumT():
            return True
        case RecordT(fs):
            return all(_union_alt_ok(ft) for _, ft in fs)
        case _:
            return False


def _check_fresh_type_name(delta, name, d):
    if delta.lookup(name) is not None or name in OPEN_ENUMS:
        raise TypeError_("T-TypeDecl", f"type name {name!r} already defined", d.pos)


def _check_members(name, members, d):
    seen = set()
    for m in members:
        if m in seen:
            raise DuplicateEnumMember(name, m, d.pos)
        seen.add(m)


def check_object_declaration(sigma, gamma, delta, d):
    match d:
        case TableD(name, keys, actions):
            mk = delta.lookup("match_kind")
            for e, kind in keys:
                te = check_expression(sigma, gamma, delta, e)
                if not ops._eq_comparable(te.type):
                    raise TypeError_(
                        "T-TableDecl",
                        f"key of type {te.type} cannot be matched", d.pos,
                    )
                if kind not in (mk.members if mk else ()):
                    raise TypeError_(
                        "T-TableDecl", f"unknown match kind {kind!r}", d.pos
                    )
            if not actions:
                raise TypeError_("T-TableDecl", "table needs at least one action", d.pos)
            anames = [a.name for a in actions]
            if len(set(anames)) != len(anames):
                raise TypeError_("T-TableDecl", "duplicate action reference", d.pos)
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
                raise MissingReturn(name, d.pos)
            return sigma, {**gamma, name: FunT(tuple(tps), ps, ret2)}, delta
        case ControlD(name, params, ctor_params, local_decls, body):
            ps = _check_params(sigma, delta, params, d)
            cps = tuple(
                (n, simplify_type(sigma, delta, t)) for n, t in ctor_params
            )
            bindings = list(cps) + [(p.name, p.type) for p in ps]
            check_body(sigma, gamma, delta, bindings, VOID, local_decls, body)
            return sigma, {**gamma, name: CtorT(cps, FunT((), ps, VOID))}, delta
    raise TypeError_("T-ObjDecl", f"not an object declaration: {d!r}", d.pos)


def check_body(sigma, gamma, delta, bindings, ret, local_decls, body):
    """Check the local declarations and the body of a function or control,
    whose (name, type) bindings shadow constants of the same name and whose
    `return` has type ret. Returns whether a non-void body returns on every
    path."""
    names = {n for n, _ in bindings}
    sb = {k: v for k, v in sigma.items() if k not in names}
    gb = dict(gamma)
    gb.update(bindings)
    gb["return"] = ret
    for ld in local_decls:
        sb, gb, delta = check_declaration(sb, gb, delta, ld)
    check_statement(sb, gb, delta, body)
    return ret == VOID or returns_analysis(body)


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
        if not type_equal(ct2, p.type):
            raise TypeError_(
                "Type-Partial-App",
                f"control-plane parameter {cname!r} has type {ct2}, "
                f"expected {p.type}",
                a.pos,
            )


def check_declaration(sigma, gamma, delta, d):
    if isinstance(d, VAR_DECLS):
        return check_var_declaration(sigma, gamma, delta, d)
    if isinstance(d, TYPE_DECLS):
        return check_type_declaration(sigma, gamma, delta, d)
    if isinstance(d, OBJ_DECLS):
        return check_object_declaration(sigma, gamma, delta, d)
    raise TypeError_("T-Decl", f"unknown declaration {d!r}", getattr(d, "pos", None))


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
            return tn == name and m in members
        case MemberV(tn, m), OpenEnumT():
            et = delta.lookup(t.name)
            return tn == t.name and et is not None and m in et.members
        case RecordV(fvs), RecordT(fts):
            return len(fvs) == len(fts) and all(
                n1 == n2 and check_value(xi, sigma, delta, fv, ft)
                for (n1, fv), (n2, ft) in zip(fvs, fts)
            )
        case HeaderV(_, fvs), HeaderT(fts):
            return len(fvs) == len(fts) and all(
                n1 == n2
                and type_equal(vt, ft)
                and check_value(xi, sigma, delta, fv, ft)
                for (n1, vt, fv), (n2, ft) in zip(fvs, fts)
            )
        case StackV(et, vs), StackT(elem, n):
            return (
                type_equal(et, elem)
                and len(vs) == n
                and all(check_value(xi, sigma, delta, x, elem) for x in vs)
            )
        case UnionV(ut, f, payload), UnionT():
            if not type_equal(ut, t):
                return False
            alts = dict(t.alts)
            return f in alts and check_value(xi, sigma, delta, payload, alts[f])
        case NativeV(), FunT():
            return type_equal(FunT(v.type_params, v.params, v.ret), t)
        case ClosureV(), FunT():
            return _check_closure(xi, sigma, delta, v, t)
        case TableV(), TableT():
            return _check_table(xi, sigma, delta, v)
        case CtorClosureV(), CtorT():
            return _check_ctor_closure(xi, sigma, delta, v, t)
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


def _check_closure(xi, sigma, delta, v, t):
    if not type_equal(FunT(v.type_params, v.params, v.ret), t):
        return False
    inner = delta.bind_var(*v.type_params)
    bindings = [(p.name, p.type) for p in v.params]
    return _check_captured(xi, sigma, v.env, lambda sb, gamma: check_body(
        sb, gamma, inner, bindings, v.ret, v.local_decls, v.body))


def _check_table(xi, sigma, delta, v):
    def check(sb, gamma):
        for e, _ in v.keys:
            check_expression(sb, gamma, delta, e)
        for a in v.actions:
            check_action_ok(sb, gamma, delta, a)
        return True
    return _check_captured(xi, sigma, v.env, check)


def _check_ctor_closure(xi, sigma, delta, v, t):
    if not type_equal(t.ret, FunT((), v.params, VOID)):
        return False
    bindings = list(v.ctor_params) + [(p.name, p.type) for p in v.params]
    return _check_captured(xi, sigma, v.env, lambda sb, gamma: check_body(
        sb, gamma, delta, bindings, VOID, v.local_decls, v.body))


def infer_type_of_value(delta, v):
    """Reconstruct a normalized type for a closed run-time value."""
    match v:
        case BoolV():
            return BoolT()
        case IntV(_, None):
            return IntT()
        case IntV(_, w):
            return BitT(w)
        case MemberV(tn, _) if tn in OPEN_ENUMS:
            return delta.lookup(tn) or OPEN_ENUMS[tn].type()
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
        case ClosureV():
            return FunT(v.type_params, v.params, v.ret)
        case NativeV():
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
        if loc not in xi or not type_equal(xi[loc], t):
            return False
    for name, val in sigma.items():
        if name not in machine.env:
            return False
        if machine.store.get(machine.env[name]) != val:
            return False
    return True
