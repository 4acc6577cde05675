"""Seeded generators of well-typed fragments.

All generation is a pure function of the seed. The program generator builds
programs bottom-up from typed pieces so that the checker always accepts the
result; partial operations (division, shifts, stack writes) are only emitted
in configurations the type system accepts and evaluation cannot fault on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import ops
from .errors import BudgetExhausted
from .syntax import (
    ActionRef, AssignS, BinopE, BitT, BlockS, BoolE, BoolT, BoolV, CallE,
    CallS, CastE, ConstD, EnumD, EnumT, ExitS, FuncD, HeaderT, IfS,
    IndexE, IntE, IntT, IntV, MemberE, Param, Program, RecordE,
    RecordT, ReturnS, SliceE, StackT, SwitchS, TableD, TypedefD, UnionD,
    UnopE, VarE, VarInitD, VarT, VarUninitD, VOID, subst_type,
)
from . import typecheck
from .interp import MAX_STEPS
from .stf import run_case
from .target import GAMMA0


@dataclass
class GenConfig:
    """The seed and size limits of one generated program."""
    seed: int = 0
    max_depth: int = 5
    max_decls: int = 6
    unions: bool = False


# ---------------------------------------------------------------------------
# Typed program generation

BIT_WIDTHS = (1, 4, 8, 16, 32)
# the scalar types every program has; nodes are immutable, so programs
# may share them
SCALARS = (BoolT(), IntT(), *(BitT(w) for w in BIT_WIDTHS))

# A literal of each type class that has one: a record's fields and a
# header's (as a record, then cast) are literals in turn.
_LITERAL_RULES = {
    BoolT: lambda g, t: BoolE(g.rng.random() < 0.5),
    IntT: lambda g, t: IntE(g.rng.randint(0, 100), None),
    BitT: lambda g, t: IntE(g.rng.randrange(1 << t.width), t.width),
    EnumT: lambda g, t: MemberE(VarE(t.name), g.rng.choice(t.members)),
    RecordT: lambda g, t: RecordE(tuple((n, g.literal(ft)) for n, ft in t.fields)),
    HeaderT: lambda g, t: CastE(g.surface(t), g.literal(RecordT(t.fields))),
}

# The kinds of expression of each type class at depth > 0, operator kinds
# among them. A bit<w> with w > 1 also offers _WIDE_KINDS, and each of
# _BASE_KINDS the scope has a base for; var, lit and call where t has one.
_DEEP_KINDS = {
    BoolT: ("not", "logic", "compare", "eq"),
    IntT: ("arith", "neg"),
    BitT: ("arith", "bitwise", "bitnot", "neg", "cast"),
    RecordT: ("recordlit",),
}
_WIDE_KINDS = ("concat", "divide", "shift")
_BASE_KINDS = ("slice", "index", "member")


# An expression rule builds an expression of type t from the generator g,
# the depth left, the scope env and what expr found for t: its names
# ("var"), the literal it drew ("lit") and a bit type's bases (_BASE_KINDS).

def _unary(op):
    return lambda g, t, depth, env, found: UnopE(op, g.expr(t, depth - 1, env))


def _binary(kind, operand=lambda g, t: t, right=None):
    """An operator of kind on a left operand of the type operand(g, t) draws
    and a right one of that type, or the literal right(g, t) draws first."""
    ops_ = tuple(op for op, (_, _, k, _) in ops.BINOPS.items() if k == kind)

    def rule(g, t, depth, env, found):
        ot = operand(g, t)
        op = g.rng.choice(ops_)
        lit = right and right(g, t)
        left = g.expr(ot, depth - 1, env)
        return BinopE(op, left, lit or g.expr(ot, depth - 1, env))
    return rule


def _concat(g, t, depth, env, found):
    a = g.rng.randint(1, t.width - 1)
    return BinopE("concat", g.expr(BitT(a), depth - 1, env),
                  g.expr(BitT(t.width - a), depth - 1, env))


def _slice(g, t, depth, env, found):
    name, w2 = g.rng.choice(found["slice"])
    lo = g.rng.randint(0, w2 - t.width)
    return SliceE(VarE(name), IntE(lo + t.width - 1, None), IntE(lo, None))


def _index(g, t, depth, env, found):
    name, n = g.rng.choice(found["index"])
    idx = g.rng.randint(0, n)  # == n exercises the havoc path
    return IndexE(VarE(name), IntE(idx, 32))


def _member(g, t, depth, env, found):
    name, f = g.rng.choice(found["member"])
    return MemberE(VarE(name), f)


def _call(g, t, depth, env, found):
    # asked again, not kept from expr: _args_for draws, so reusing the
    # first list would move every later draw of the program
    fname, ft = g.rng.choice(g._callable_funcs(t, env))
    return g.call_expr(fname, ft, depth, env,
                       type_arg=t if ft.type_params else None)


_EXPR_RULES = {
    "var": lambda g, t, depth, env, found: VarE(g.rng.choice(found["var"])),
    "lit": lambda g, t, depth, env, found: found["lit"],
    "not": _unary("not"),
    "logic": _binary("logic"),
    "compare": _binary("compare", lambda g, t: g.rng.choice(SCALARS[1:])),
    "eq": _binary("eq", lambda g, t: g.rng.choice(g.scalars)),
    "arith": _binary("arith"),
    "neg": _unary("neg"),
    "bitwise": _binary("bitwise"),
    "bitnot": _unary("bitnot"),
    # a positive divisor, and a shift amount below any width (bit<1> offers
    # neither kind)
    "divide": _binary("divide", right=lambda g, t: IntE(
        g.rng.randrange(1, 1 << t.width), t.width)),
    "shift": _binary("shift", right=lambda g, t: IntE(g.rng.randint(0, 3), None)),
    "concat": _concat,
    "cast": lambda g, t, depth, env, found: CastE(
        t, g.expr(g.rng.choice(SCALARS[1:]), depth - 1, env)),
    "slice": _slice,
    "index": _index,
    "member": _member,
    "recordlit": lambda g, t, depth, env, found: RecordE(tuple(
        (n, g.expr(ft, depth - 1, env)) for n, ft in t.fields)),
    "call": _call,
}


# A statement rule returns a statement for the scope env, which a local
# declaration extends, or None where it has none to make.

def _local(g, env, depth):
    t = g.rng.choice(g.scalars)
    name = g.fresh("l")
    s = VarInitD(g.surface(t), name, g.expr(t, depth, env))
    env.append((name, t, True))
    return s


def _assign(g, env, depth):
    rng = g.rng
    mut = [(n, t) for n, t, m in env if m]
    if not mut:
        return None
    name, t = rng.choice(mut)
    if isinstance(t, StackT):
        idx = rng.randrange(t.size) if t.size else 0
        return AssignS(IndexE(VarE(name), IntE(idx, 32)), g.expr(t.elem, depth, env))
    if isinstance(t, BitT) and t.width > 1 and rng.random() < 0.3:
        lo = rng.randrange(t.width - 1)
        hi = rng.randint(lo, t.width - 2)
        lhs = SliceE(VarE(name), IntE(hi, None), IntE(lo, None))
        return AssignS(lhs, g.expr(BitT(hi - lo + 1), depth, env))
    if isinstance(t, (RecordT, HeaderT)) and t.fields:
        f, ft = rng.choice(t.fields)
        return AssignS(MemberE(VarE(name), f), g.expr(ft, depth, env))
    return AssignS(VarE(name), g.expr(t, depth, env))


def _if(g, env, depth):
    cond = g.expr(BoolT(), depth, env)
    then = BlockS(tuple(g.stmts(env, max(0, depth - 1), 2)))
    if g.rng.random() < 0.1:
        then = BlockS(then.stmts + (ExitS(),))
    els = (BlockS(tuple(g.stmts(env, max(0, depth - 1), 1)))
           if g.rng.random() < 0.5 else BlockS(()))
    return IfS(cond, then, els)


def _call_stmt(g, env, depth):
    cands = [
        (n, ft) for n, ft in g.funcs
        if (all(p.direction == "in" for p in ft.params)
            or g._args_for(ft, env) is not None)
        and not ft.type_params
    ]
    if not cands:
        return None
    fname, ft = g.rng.choice(cands)
    return CallS(g.call_expr(fname, ft, depth, env))


_STMT_RULES = {
    "local": _local,
    "assign": _assign,
    "if": _if,
    "call": _call_stmt,
    "block": lambda g, env, depth: BlockS(tuple(g.stmts(env, max(0, depth - 1), 2))),
}
_STMT_KINDS = ("local", "assign", "assign", "if", "call", "block")


class _ProgramGen:
    def __init__(self, cfg):
        assert cfg.max_depth >= 1
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.decls = []
        # the top-level scope, pinned to check_program's by tests/test_gen.py:
        # Δ, each function's (name, normal type) and each constant's or
        # variable's (name, normal type, assignable), in declaration order
        self.funcs = []
        self.vars = []
        self.counter = 0
        self.set_delta(typecheck.initial_delta())

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def surface(self, t):
        """Surface spelling of a normalized type: the name Δ defines a
        record, header or enum by (void, the empty record, has none)."""
        if isinstance(t, (RecordT, HeaderT)):
            return next((VarT(n) for n, dt in self.delta.items() if dt == t), t)
        if isinstance(t, EnumT):
            return VarT(t.name)
        if isinstance(t, StackT):
            return StackT(self.surface(t.elem), t.size)
        return t

    # -- scope --------------------------------------------------------------

    def set_delta(self, delta):
        """Take Δ, and the scalar types: SCALARS, Δ's closed enums, error."""
        self.delta = delta
        self.scalars = [*SCALARS, *(t for t in delta.values()
                                    if isinstance(t, EnumT) and not t.open),
                        delta["error"]]

    def define(self, d):
        """Emit the type declaration d, with the Δ the checker gives it."""
        self.decls.append(d)
        self.set_delta(typecheck.check_declaration({}, {}, self.delta, d)[2])

    def declare_function(self, d):
        """Emit the function declaration d, with the normal type the checker
        gives it."""
        self.decls.append(d)
        self.funcs.append((d.name, typecheck.simplify_type({}, self.delta, d.type)))

    def declare_var(self, d, t):
        """Emit the constant or variable declaration d of normal type t."""
        self.decls.append(d)
        self.vars.append((d.name, t, not isinstance(d, ConstD)))

    def _scan(self, env, t, bases):
        """One pass over env, which draws nothing: the names of type t
        ("var") and, with bases (t is a bit<w>), the wider bit variables with
        their widths ("slice"), the nonempty stacks of t with their sizes
        ("index") and each record or header variable with its field of type
        t ("member")."""
        if not bases:
            return {"var": [name for name, vt, _ in env if vt == t]}
        names, slices, stacks, members = [], [], [], []
        for name, vt, _ in env:
            if isinstance(vt, BitT):  # == t by its width alone
                if vt.width == t.width:
                    names.append(name)
                elif vt.width > t.width:
                    slices.append((name, vt.width))
            elif isinstance(vt, StackT):
                if vt.size > 0 and vt.elem == t:
                    stacks.append((name, vt.size))
            elif isinstance(vt, (RecordT, HeaderT)):
                members += [(name, f) for f, ft in vt.fields if ft == t]
        return {"var": names, "slice": slices, "index": stacks, "member": members}

    # -- expressions --------------------------------------------------------

    def literal(self, t):
        rule = _LITERAL_RULES.get(t.__class__)
        return rule(self, t) if rule else None

    def expr(self, t, depth, env):
        bits = depth > 0 and isinstance(t, BitT)
        found = self._scan(env, t, bits)
        found["lit"] = self.literal(t)
        options = ["var", "var"] if found["var"] else []
        if found["lit"] is not None:
            options.append("lit")
        if depth > 0:
            options += _DEEP_KINDS.get(t.__class__, ())
            if bits:
                if t.width > 1:
                    options += _WIDE_KINDS
                options += [kind for kind in _BASE_KINDS if found[kind]]
            if self._callable_funcs(t, env):
                options.append("call")
        if not options:
            return BoolE(False)
        return _EXPR_RULES[self.rng.choice(options)](self, t, depth, env, found)

    def _callable_funcs(self, ret, env):
        out = []
        for name, ft in self.funcs:
            if (subst_type(ft.ret, dict.fromkeys(ft.type_params, ret))
                    if ft.type_params else ft.ret) != ret:
                continue
            # with only `in` parameters, _args_for cannot fail and draws nothing
            if (all(p.direction == "in" for p in ft.params)
                    or self._args_for(ft, env, ret) is not None):
                out.append((name, ft))
        return out

    def _args_for(self, ft, env, type_arg=None):
        """Pick argument recipes for ft, or None if some out/inout parameter
        has no matching mutable variable in scope."""
        recipes = []
        tvars = dict.fromkeys(ft.type_params, type_arg or BitT(8))
        for p in ft.params:
            pt = subst_type(p.type, tvars)
            if p.direction == "in":
                recipes.append(("expr", pt))
            else:
                cands = [n for n, vt, mut in env if mut and vt == pt]
                if not cands:
                    return None
                recipes.append(("lval", self.rng.choice(cands)))
        return recipes

    def call_expr(self, fname, ft, depth, env, type_arg=None):
        if ft.type_params and type_arg is None:
            type_arg = self.rng.choice(SCALARS[2:])
        recipes = self._args_for(ft, env, type_arg)
        args = []
        for kind, payload in recipes:
            if kind == "expr":
                args.append(self.expr(payload, max(0, depth - 1), env))
            else:
                args.append(VarE(payload))
        targs = (self.surface(type_arg),) if ft.type_params else ()
        return CallE(VarE(fname), targs, tuple(args))

    # -- statements ---------------------------------------------------------

    def stmts(self, env, depth, budget=None):
        rng = self.rng
        env = list(env)
        out = []
        for _ in range(budget if budget is not None else rng.randint(1, 4)):
            s = _STMT_RULES[rng.choice(_STMT_KINDS)](self, env, depth)
            if s is not None:
                out.append(s)
        return out

    # -- declarations -------------------------------------------------------

    def gen_type_decls(self):
        rng = self.rng
        if rng.random() < 0.4:
            self.define(EnumD("error", (self.fresh("Err"), self.fresh("Err"))))
        if rng.random() < 0.6:
            name = self.fresh("En")
            self.define(EnumD(name, tuple(
                self.fresh("m") for _ in range(rng.randint(2, 3)))))
        if rng.random() < 0.6:
            name = self.fresh("Rec")
            fs = tuple(
                (self.fresh("f"), rng.choice([BitT(8), BitT(4), BoolT()]))
                for _ in range(rng.randint(1, 3))
            )
            self.define(TypedefD(RecordT(fs), name))
        if rng.random() < 0.5:
            name = self.fresh("Hdr")
            fs = tuple(
                (self.fresh("f"), rng.choice([BitT(8), BitT(4), BitT(1)]))
                for _ in range(rng.randint(1, 2))
            )
            self.define(TypedefD(HeaderT(fs), name))

    def gen_consts(self):
        rng = self.rng
        for _ in range(rng.randint(1, 3)):
            name = self.fresh("c")
            if rng.random() < 0.5:
                t, init = IntT(), IntE(rng.randint(0, 40))
            else:
                w = rng.choice(BIT_WIDTHS)
                t, init = BitT(w), IntE(rng.randrange(1 << w), w)
            self.declare_var(ConstD(t, name, init), t)

    def gen_globals(self):
        rng = self.rng
        pool = [BoolT(), IntT(), BitT(8)] + [BitT(w) for w in BIT_WIDTHS]
        defs = [t for t in self.delta.values() if isinstance(t, (RecordT, HeaderT))]
        pool += defs
        pool.append(StackT(BitT(8), 3))
        pool += [StackT(t, 2) for t in defs if isinstance(t, HeaderT)]
        # always keep one bit<8> variable around for tables/actions
        chosen = [BitT(8)] + [pool[rng.randrange(len(pool))]
                              for _ in range(rng.randint(2, 4))]
        for t in chosen:
            name = self.fresh("g")
            if isinstance(t, (HeaderT, StackT)):
                self.declare_var(VarUninitD(self.surface(t), name), t)
            else:
                init = self.expr(t, 2, self.vars)
                self.declare_var(VarInitD(self.surface(t), name, init), t)

    def gen_function(self):
        rng = self.rng
        name = self.fresh("fn")
        if rng.random() < 0.12:
            # generic identity-style function
            p = Param("in", self.fresh("p"), VarT("X"))
            body = BlockS((
                VarInitD(VarT("X"), "y", VarE(p.name)),
                ReturnS(VarE("y")),
            ))
            self.declare_function(FuncD(VarT("X"), name, ("X",), (p,), body))
            return
        params = []
        global_types = [t for _, t, assignable in self.vars if assignable
                        and not isinstance(t, (HeaderT, StackT))]
        for _ in range(rng.randint(0, 3)):
            direction = rng.choice(["in", "in", "inout", "out"])
            if direction == "in":
                t = rng.choice(self.scalars)
            else:
                if not global_types:
                    direction, t = "in", BitT(8)
                else:
                    t = rng.choice(global_types)
            params.append(Param(direction, self.fresh("p"), t))
        ret = rng.choice(self.scalars)
        env = self.vars + [(p.name, p.type, True) for p in params]
        depth = min(self.cfg.max_depth, 3)
        body_stmts = self.stmts(env, depth)
        body_stmts.append(ReturnS(self.expr(ret, depth, env)))
        body = BlockS(tuple(body_stmts))
        spelled = tuple(Param(p.direction, p.name, self.surface(p.type))
                        for p in params)
        self.declare_function(FuncD(self.surface(ret), name, (), spelled, body))

    def gen_table(self):
        rng = self.rng
        # gen_globals' first variable, always a bit<8>
        gname = next(n for n, _, assignable in self.vars if assignable)
        act = self.fresh("act")
        self.declare_function(FuncD(
            VOID, act, (), (Param("in", "p", BitT(8)),),
            BlockS((AssignS(VarE(gname), VarE("p")), )),
        ))
        dft = self.fresh("act")
        self.declare_function(FuncD(
            VOID, dft, (), (),
            BlockS((AssignS(VarE(gname), IntE(rng.randrange(256), 8)), )),
        ))
        tname = self.fresh("tbl")
        self.decls.append(TableD(
            tname,
            ((VarE(gname), "exact"),),
            (ActionRef(act, (), (("p", BitT(8)),)), ActionRef(dft, (), ())),
        ))
        app = self.fresh("fn")
        self.declare_function(FuncD(
            VOID, app, (), (),
            BlockS((CallS(CallE(VarE(tname), (), ())), )),
        ))

    def gen_union(self):
        rng = self.rng
        uname = self.fresh("U")
        alts = tuple(
            (self.fresh("alt"), rng.choice([BitT(8), BoolT(), IntT(), BitT(4)]))
            for _ in range(rng.randint(2, 4))
        )
        self.define(UnionD(uname, alts))
        fname = self.fresh("fn")
        stmts = [VarUninitD(VarT(uname), "u"),
                 VarInitD(BitT(8), "r", IntE(0, 8))]
        env2 = self.vars + [("r", BitT(8), True)]
        f, ft = rng.choice(alts)
        stmts.append(AssignS(MemberE(VarE("u"), f), self.expr(ft, 2, env2)))
        cases = []
        for i, (an, at) in enumerate(alts):
            marker = AssignS(VarE("r"), IntE(10 * (i + 1), 8))
            cases.append((an, BlockS((marker,))))
        cases.append((None, BlockS((AssignS(VarE("r"), IntE(99, 8)),))))
        stmts.append(SwitchS(VarE("u"), tuple(cases)))
        stmts.append(ReturnS(VarE("r")))
        self.declare_function(FuncD(BitT(8), fname, (), (), BlockS(tuple(stmts))))

    def gen_results(self):
        env = self.vars[:]  # the results do not take part in later calls
        for fname, ft in self.funcs:
            if ft.type_params:
                continue
            recipes = self._args_for(ft, env)
            if recipes is None:
                continue
            call = self.call_expr(fname, ft, 2, env)
            name = self.fresh("r")
            self.declare_var(VarInitD(self.surface(ft.ret), name, call), ft.ret)

    def generate(self):
        self.gen_type_decls()
        self.gen_consts()
        self.gen_globals()
        for _ in range(self.rng.randint(1, max(1, self.cfg.max_decls - 2))):
            self.gen_function()
        if self.rng.random() < 0.6:
            self.gen_table()
        if self.cfg.unions and self.rng.random() < 0.8:
            self.gen_union()
        self.gen_results()
        return Program(tuple(self.decls))


def generate_typed_program(cfg):
    return _ProgramGen(cfg).generate()


# ---------------------------------------------------------------------------
# Value-tracked compile-time expression generation

def generate_cte_expr(rng, depth):
    """Returns (expr, expected value); the expression uses only literals and
    operators, with partial operations kept in their defined domains."""
    return _cte(rng, depth, rng.choice(SCALARS))


def _cte(rng, depth, t):
    if depth <= 0 or rng.random() < 0.25:
        return _cte_leaf(rng, t)
    op = rng.choice(_cte_ops(t))
    if op in ops.UNOPS:
        e, v = _cte(rng, depth - 1, t)
        return UnopE(op, e), ops.eval_unop(op, v)
    (e1, v1), (e2, v2) = _CTE_KINDS[ops.BINOPS[op][2]][1](rng, depth - 1, t)
    return BinopE(op, e1, e2), ops.eval_binop(op, v1, v2)


def _cte_ops(t):
    """The operators that make a value of type t: the unary ones with t among
    their operand types, and the binary ones whose kind makes t."""
    return ([op for op, (_, ts, _) in ops.UNOPS.items() if isinstance(t, ts)]
            + [op for op, (_, _, kind, _) in ops.BINOPS.items()
               if _CTE_KINDS[kind][0](t)])


def _cte_leaf(rng, t, least=0, most=50):
    """A literal of type t with its value: an int in least..most, a bit<w>
    at least least."""
    if isinstance(t, BoolT):
        b = rng.random() < 0.5
        return BoolE(b), BoolV(b)
    w = t.width if isinstance(t, BitT) else None
    n = rng.randint(least, most if w is None else (1 << w) - 1)
    return IntE(n, w), IntV(n, w)


def _cte_pair(rng, depth, t):
    return _cte(rng, depth, t), _cte(rng, depth, t)


def _cte_divide(rng, depth, t):
    dividend = _cte(rng, depth, t)
    if dividend[1].value < 0:  # only an int can be negative
        dividend = _cte_leaf(rng, t)
    return dividend, _cte_leaf(rng, t, least=1)


def _cte_concat(rng, depth, t):
    a = rng.randint(1, t.width - 1)
    return _cte(rng, depth, BitT(a)), _cte(rng, depth, BitT(t.width - a))


# One row per kind of binary operator: whether the kind makes values of a
# type t, and how it draws its two operands, each an (expression, value)
# pair, for a result of type t at the depth left.
_CTE_KINDS = {
    "logic": (lambda t: isinstance(t, BoolT), _cte_pair),
    "eq": (lambda t: isinstance(t, BoolT),
           lambda rng, depth, t: _cte_pair(rng, depth, rng.choice(SCALARS))),
    "compare": (lambda t: isinstance(t, BoolT),
                lambda rng, depth, t: _cte_pair(rng, depth, rng.choice(SCALARS[1:]))),
    "bitwise": (lambda t: isinstance(t, BitT), _cte_pair),
    "shift": (lambda t: isinstance(t, BitT), lambda rng, depth, t: (
        _cte(rng, depth, t), _cte_leaf(rng, IntT(), most=3))),
    "concat": (lambda t: isinstance(t, BitT) and t.width > 1, _cte_concat),
    "arith": (lambda t: isinstance(t, (IntT, BitT)), _cte_pair),
    "divide": (lambda t: isinstance(t, (IntT, BitT)), _cte_divide),
}


# ---------------------------------------------------------------------------
# Random normalized types (for the havoc/typing property suites)

def generate_type(rng, depth=3):
    leaves = [BoolT(), IntT(), BitT(rng.randint(1, 16)),
              EnumT("Color", ("red", "green", "blue")),
              EnumT("error", ("NoError",))]
    if depth <= 0:
        return rng.choice(leaves)
    match rng.randint(0, 6):
        case 0 | 1:
            return rng.choice(leaves)
        case 2:
            fs = tuple(
                (f"f{i}", generate_type(rng, depth - 1))
                for i in range(rng.randint(1, 3))
            )
            return RecordT(fs)
        case 3:
            fs = tuple(
                (f"f{i}", BitT(rng.randint(1, 16)))
                for i in range(rng.randint(1, 3))
            )
            return HeaderT(fs)
        case 4:
            return StackT(generate_type(rng, depth - 1), rng.randint(0, 3))
        case _:
            return rng.choice(leaves)


# ---------------------------------------------------------------------------
# Union corpus for the translation differential

def generate_union_program(seed):
    g = _ProgramGen(GenConfig(seed=seed))
    g.gen_consts()
    g.gen_globals()
    g.gen_union()
    if g.rng.random() < 0.5:
        g.gen_union()
    g.gen_results()
    return Program(tuple(g.decls))


# ---------------------------------------------------------------------------
# Soundness / termination suite

def run_soundness_case(program, max_steps=MAX_STEPS):
    """Typecheck on the target's natives, run through the case runner, then
    apply the machine-typing oracle. Returns a dict of observations; raises
    on any failure but a target error, which ends the run as its signal."""
    sigma, gamma, delta = typecheck.check_program(program, gamma=GAMMA0)
    machine, signal = run_case(program, max_steps)
    if signal != "continue":
        # the run stopped early: the machine corresponds to the prefix of
        # declarations actually executed, so restrict the contexts to it
        gamma = {n: t for n, t in gamma.items() if n in machine.env}
        sigma = {n: v for n, v in sigma.items() if n in machine.env}
    xi = typecheck.build_xi(delta, machine, gamma)
    ok = typecheck.check_machine(xi, sigma, gamma, delta, machine)
    # locations the run allocated, not those of the natives bound before it
    return {"machine_ok": ok, "steps": machine.steps,
            "exited": signal == "exit",
            "locations": len(machine.store) - len(GAMMA0)}


def run_soundness_suite(n, max_steps=MAX_STEPS):
    """Generate n programs and run the executable soundness/termination
    theorem on each; returns aggregate statistics."""
    if n <= 0:
        raise ValueError("suite size must be positive")
    failures = []
    budget_failures = []
    steps_total = 0
    for seed in range(n):
        program = generate_typed_program(GenConfig(seed=seed))
        try:
            obs = run_soundness_case(program, max_steps)
        except Exception as exc:  # noqa: BLE001 - suite reports all failures
            if isinstance(exc, BudgetExhausted):
                budget_failures.append(seed)
            failures.append((seed, repr(exc)))
            continue
        if not obs["machine_ok"]:
            failures.append((seed, "check_machine failed"))
        steps_total += obs["steps"]
    return {
        "n": n,
        "failures": failures,
        "budget_failures": budget_failures,
        "total_steps": steps_total,
    }
