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

    def vars_of(self, env, t, mutable=False):
        return [
            name for name, vt, mut in env
            if vt == t and (mut or not mutable)
        ]

    # -- expressions --------------------------------------------------------

    def literal(self, t):
        rng = self.rng
        match t:
            case BoolT():
                return BoolE(rng.random() < 0.5)
            case IntT():
                return IntE(rng.randint(0, 100), None)
            case BitT(w):
                return IntE(rng.randrange(1 << w), w)
            case EnumT(name, members):
                return MemberE(VarE(name), rng.choice(members))
            case RecordT(fs):
                return RecordE(tuple((n, self.literal(ft)) for n, ft in fs))
            case HeaderT(fs):
                rec = RecordT(fs)
                return CastE(self.surface(t), self.literal(rec))
        return None

    def expr(self, t, depth, env):
        rng = self.rng
        options = []
        names = self.vars_of(env, t)
        if names:
            options += ["var"] * 2
        lit = self.literal(t)
        if lit is not None:
            options.append("lit")
        if depth > 0:
            match t:
                case BoolT():
                    options += ["not", "logic", "cmp", "eqop"]
                case IntT():
                    options += ["arith", "neg"]
                case BitT(w):
                    options += ["arith", "bitwise", "bitnot", "neg", "cast"]
                    if w > 1:
                        options += ["concat", "divmod", "shift"]
                    if self._slice_bases(env, w):
                        options.append("slice")
                    if self._stack_bases(env, t):
                        options.append("index")
                    if self._member_bases(env, t):
                        options.append("member")
                case RecordT():
                    options.append("recordlit")
            if self._callable_funcs(t, env):
                options.append("call")
        if not options:
            return lit if lit is not None else BoolE(False)
        match rng.choice(options):
            case "var":
                return VarE(rng.choice(names))
            case "lit":
                return lit
            case "not":
                return UnopE("not", self.expr(t, depth - 1, env))
            case "logic":
                op = rng.choice(["land", "lor"])
                return BinopE(op, self.expr(t, depth - 1, env),
                              self.expr(t, depth - 1, env))
            case "cmp":
                ct = rng.choice(SCALARS[1:])
                op = rng.choice(["lt", "le", "gt", "ge"])
                return BinopE(op, self.expr(ct, depth - 1, env),
                              self.expr(ct, depth - 1, env))
            case "eqop":
                ct = rng.choice(self.scalars)
                op = rng.choice(["eq", "neq"])
                return BinopE(op, self.expr(ct, depth - 1, env),
                              self.expr(ct, depth - 1, env))
            case "arith":
                op = rng.choice(["add", "sub", "mul"])
                return BinopE(op, self.expr(t, depth - 1, env),
                              self.expr(t, depth - 1, env))
            case "neg":
                return UnopE("neg", self.expr(t, depth - 1, env))
            case "bitwise":
                op = rng.choice(["band", "bor", "bxor"])
                return BinopE(op, self.expr(t, depth - 1, env),
                              self.expr(t, depth - 1, env))
            case "bitnot":
                return UnopE("bitnot", self.expr(t, depth - 1, env))
            case "divmod":
                op = rng.choice(["div", "mod"])
                divisor = IntE(rng.randrange(1, 1 << t.width), t.width)
                return BinopE(op, self.expr(t, depth - 1, env), divisor)
            case "shift":
                op = rng.choice(["shl", "shr"])
                amount = IntE(rng.randint(0, 3), None)
                return BinopE(op, self.expr(t, depth - 1, env), amount)
            case "concat":
                a = rng.randint(1, t.width - 1)
                return BinopE("concat", self.expr(BitT(a), depth - 1, env),
                              self.expr(BitT(t.width - a), depth - 1, env))
            case "cast":
                src = rng.choice(SCALARS[1:])
                return CastE(t, self.expr(src, depth - 1, env))
            case "slice":
                name, w2 = self.rng.choice(self._slice_bases(env, t.width))
                lo = rng.randint(0, w2 - t.width)
                return SliceE(VarE(name), IntE(lo + t.width - 1, None),
                              IntE(lo, None))
            case "index":
                name, n = rng.choice(self._stack_bases(env, t))
                idx = rng.randint(0, n)  # == n exercises the havoc path
                return IndexE(VarE(name), IntE(idx, 32))
            case "member":
                name, f = rng.choice(self._member_bases(env, t))
                return MemberE(VarE(name), f)
            case "recordlit":
                return RecordE(tuple(
                    (n, self.expr(ft, depth - 1, env)) for n, ft in t.fields
                ))
            case "call":
                fname, ft = rng.choice(self._callable_funcs(t, env))
                return self.call_expr(fname, ft, depth, env,
                                      type_arg=t if ft.type_params else None)
        raise AssertionError

    def _slice_bases(self, env, width):
        return [
            (name, vt.width) for name, vt, _ in env
            if isinstance(vt, BitT) and vt.width > width
        ]

    def _stack_bases(self, env, elem):
        return [
            (name, vt.size) for name, vt, _ in env
            if isinstance(vt, StackT) and vt.elem == elem
            and vt.size > 0
        ]

    def _member_bases(self, env, t):
        out = []
        for name, vt, _ in env:
            if isinstance(vt, (RecordT, HeaderT)):
                for f, ft in vt.fields:
                    if ft == t:
                        out.append((name, f))
        return out

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
                cands = self.vars_of(env, pt, mutable=True)
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
            kind = rng.choice(
                ["local", "assign", "assign", "if", "call", "block"]
            )
            match kind:
                case "local":
                    t = rng.choice(self.scalars)
                    name = self.fresh("l")
                    out.append(VarInitD(self.surface(t), name,
                                        self.expr(t, depth, env)))
                    env.append((name, t, True))
                case "assign":
                    mut = [(n, t) for n, t, m in env if m]
                    if not mut:
                        continue
                    name, t = rng.choice(mut)
                    if isinstance(t, StackT):
                        idx = rng.randrange(t.size) if t.size else 0
                        lhs = IndexE(VarE(name), IntE(idx, 32))
                        out.append(AssignS(lhs, self.expr(t.elem, depth, env)))
                    elif isinstance(t, BitT) and t.width > 1 and rng.random() < 0.3:
                        lo = rng.randrange(t.width - 1)
                        hi = rng.randint(lo, t.width - 2)
                        lhs = SliceE(VarE(name), IntE(hi, None), IntE(lo, None))
                        out.append(AssignS(lhs, self.expr(BitT(hi - lo + 1),
                                                          depth, env)))
                    elif isinstance(t, (RecordT, HeaderT)) and t.fields:
                        f, ft = rng.choice(t.fields)
                        out.append(AssignS(MemberE(VarE(name), f),
                                           self.expr(ft, depth, env)))
                    else:
                        out.append(AssignS(VarE(name), self.expr(t, depth, env)))
                case "if":
                    cond = self.expr(BoolT(), depth, env)
                    then = BlockS(tuple(self.stmts(env, max(0, depth - 1), 2)))
                    if rng.random() < 0.1:
                        then = BlockS(then.stmts + (ExitS(),))
                    els = (BlockS(tuple(self.stmts(env, max(0, depth - 1), 1)))
                           if rng.random() < 0.5 else BlockS(()))
                    out.append(IfS(cond, then, els))
                case "call":
                    if not self.funcs:
                        continue
                    cands = [
                        (n, ft) for n, ft in self.funcs
                        if (all(p.direction == "in" for p in ft.params)
                            or self._args_for(ft, env) is not None)
                        and not ft.type_params
                    ]
                    if not cands:
                        continue
                    fname, ft = rng.choice(cands)
                    out.append(CallS(self.call_expr(fname, ft, depth, env)))
                case "block":
                    out.append(BlockS(tuple(self.stmts(env, max(0, depth - 1), 2))))
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
    kind = rng.choice(["int", "bit", "bool"])
    if kind == "bit":
        kind = ("bit", rng.choice(BIT_WIDTHS))
    return _cte(rng, depth, kind)


def _cte(rng, depth, kind):
    if depth <= 0 or rng.random() < 0.25:
        return _cte_leaf(rng, kind)
    match kind:
        case "int":
            op = rng.choice(["add", "sub", "mul", "neg", "div", "mod"])
            if op == "neg":
                e, v = _cte(rng, depth - 1, "int")
                return UnopE("neg", e), ops.eval_unop("neg", v)
            if op in ("div", "mod"):
                e1, v1 = _cte(rng, depth - 1, "int")
                if v1.value < 0:
                    e1, v1 = _cte_leaf(rng, "int")
                n = rng.randint(1, 9)
                e2, v2 = IntE(n, None), IntV(n, None)
            else:
                e1, v1 = _cte(rng, depth - 1, "int")
                e2, v2 = _cte(rng, depth - 1, "int")
            return BinopE(op, e1, e2), ops.eval_binop(op, v1, v2)
        case ("bit", w):
            op = rng.choice([
                "add", "sub", "mul", "band", "bor", "bxor", "bitnot", "neg",
                "div", "mod", "shl", "shr", "concat",
            ])
            if op in ("bitnot", "neg"):
                e, v = _cte(rng, depth - 1, kind)
                return UnopE(op, e), ops.eval_unop(op, v)
            if op in ("div", "mod"):
                e1, v1 = _cte(rng, depth - 1, kind)
                n = rng.randrange(1, 1 << w)
                e2, v2 = IntE(n, w), IntV(n, w)
            elif op in ("shl", "shr"):
                e1, v1 = _cte(rng, depth - 1, kind)
                n = rng.randint(0, 3)
                e2, v2 = IntE(n, None), IntV(n, None)
            elif op == "concat":
                if w < 2:
                    return _cte_leaf(rng, kind)
                a = rng.randint(1, w - 1)
                e1, v1 = _cte(rng, depth - 1, ("bit", a))
                e2, v2 = _cte(rng, depth - 1, ("bit", w - a))
            else:
                e1, v1 = _cte(rng, depth - 1, kind)
                e2, v2 = _cte(rng, depth - 1, kind)
            return BinopE(op, e1, e2), ops.eval_binop(op, v1, v2)
        case "bool":
            op = rng.choice(["not", "land", "lor", "cmp", "eqop"])
            if op == "not":
                e, v = _cte(rng, depth - 1, "bool")
                return UnopE("not", e), ops.eval_unop("not", v)
            if op in ("land", "lor"):
                e1, v1 = _cte(rng, depth - 1, "bool")
                e2, v2 = _cte(rng, depth - 1, "bool")
                return BinopE(op, e1, e2), ops.eval_binop(op, v1, v2)
            k = rng.choice(["int", ("bit", rng.choice(BIT_WIDTHS)), "bool"])
            if op == "cmp" and k == "bool":
                k = "int"
            o = (rng.choice(["lt", "le", "gt", "ge"]) if op == "cmp"
                 else rng.choice(["eq", "neq"]))
            e1, v1 = _cte(rng, depth - 1, k)
            e2, v2 = _cte(rng, depth - 1, k)
            return BinopE(o, e1, e2), ops.eval_binop(o, v1, v2)
    raise AssertionError(kind)


def _cte_leaf(rng, kind):
    match kind:
        case "int":
            n = rng.randint(0, 50)
            return IntE(n, None), IntV(n, None)
        case ("bit", w):
            n = rng.randrange(1 << w)
            return IntE(n, w), IntV(n, w)
        case "bool":
            b = rng.random() < 0.5
            return BoolE(b), BoolV(b)
    raise AssertionError(kind)


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
