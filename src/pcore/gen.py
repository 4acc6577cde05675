"""Seeded generators of well-typed fragments.

All generation is a pure function of the seed. The program generator builds
programs bottom-up from typed pieces so that the checker always accepts the
result; partial operations (division, shifts, stack writes) are only emitted
in configurations the type system accepts and evaluation cannot fault on.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from . import ops
from .errors import BudgetExhausted
from .syntax import (
    ActionRef, AssignS, BinopE, BitT, BlockS, BoolE, BoolT, BoolV, CallE,
    CallS, CastE, ConstD, EnumD, EnumT, ErrorD, ErrorT, ExitS, FuncD, FunT,
    HeaderT, IfS, IndexE, IntE, IntT, IntV, Machine, MemberE, Param, Program,
    RecordE, RecordT, ReturnS, SliceE, StackT, SwitchS, TableD, TypedefD,
    TypeMemberE, UnionD, UnopE, VarE, VarInitD, VarT, VarUninitD, VOID,
    type_equal,
)
from . import typecheck
from .interp import run_program
from .target import ThreeStageLiteTarget


@dataclass
class GenConfig:
    seed: int = 0
    max_depth: int = 5
    max_decls: int = 6
    tables: bool = True
    calls: bool = True
    stacks: bool = True
    unions: bool = False


# ---------------------------------------------------------------------------
# Typed program generation

BIT_WIDTHS = (1, 4, 8, 16, 32)


class _ProgramGen:
    def __init__(self, cfg):
        assert cfg.max_depth >= 1
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.decls = []
        self.consts = []  # (name, normalized type)
        self.globals = []  # (name, normalized type), mutable
        self.funcs = []  # (name, FunT)
        self.enums = []  # EnumT
        self.error_members = ("NoError",)
        self.record_defs = []  # (typedef name, RecordT)
        self.header_defs = []  # (typedef name, HeaderT)
        self.counter = 0

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def surface(self, t):
        """Surface spelling of a normalized type (typedef names for
        record/header definitions, the declared name for enums)."""
        for name, rt in self.record_defs:
            if t == rt:
                return VarT(name)
        for name, ht in self.header_defs:
            if t == ht:
                return VarT(name)
        if isinstance(t, EnumT):
            return VarT(t.name)
        if isinstance(t, StackT):
            return StackT(self.surface(t.elem), t.size)
        return t

    # -- scope helpers ------------------------------------------------------

    def vars_of(self, env, t, mutable=False):
        return [
            name for name, vt, mut in env
            if type_equal(vt, t) and (mut or not mutable)
        ]

    def scalar_types(self):
        out = [BoolT(), IntT()] + [BitT(w) for w in BIT_WIDTHS]
        out += self.enums
        out.append(ErrorT(self.error_members))
        return out

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
            case ErrorT():
                return TypeMemberE("error", rng.choice(self.error_members))
            case RecordT(fs):
                return RecordE(tuple((n, self.literal(ft)) for n, ft in fs))
            case HeaderT(fs):
                rec = RecordT(fs)
                return CastE(self.surface_header(t), self.literal(rec))
            case StackT():
                return None
        return None

    def surface_header(self, t):
        for name, ht in self.header_defs:
            if t == ht:
                return VarT(name)
        return t

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
                    if self.cfg.stacks and self._stack_bases(env, t):
                        options.append("index")
                    if self._member_bases(env, t):
                        options.append("member")
                case RecordT():
                    options.append("recordlit")
            if self.cfg.calls and self._callable_funcs(t, env):
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
                ct = rng.choice([IntT()] + [BitT(w) for w in BIT_WIDTHS])
                op = rng.choice(["lt", "le", "gt", "ge"])
                return BinopE(op, self.expr(ct, depth - 1, env),
                              self.expr(ct, depth - 1, env))
            case "eqop":
                ct = rng.choice(self.scalar_types())
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
                src = rng.choice([IntT()] + [BitT(w) for w in BIT_WIDTHS])
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
            if isinstance(vt, StackT) and type_equal(vt.elem, elem)
            and vt.size > 0
        ]

    def _member_bases(self, env, t):
        out = []
        for name, vt, _ in env:
            if isinstance(vt, (RecordT, HeaderT)):
                for f, ft in vt.fields:
                    if type_equal(ft, t):
                        out.append((name, f))
        return out

    def _callable_funcs(self, ret, env):
        out = []
        for name, ft in self.funcs:
            if ft.type_params:
                inst = typecheck.simplify_type(
                    {}, typecheck.initial_delta().bind(ft.type_params[0], ret),
                    ft.ret,
                )
                if not type_equal(inst, ret):
                    continue
            elif not type_equal(ft.ret, ret):
                continue
            if self._args_for(ft, env, ret) is not None:
                out.append((name, ft))
        return out

    def _args_for(self, ft, env, type_arg=None):
        """Pick argument recipes for ft, or None if some out/inout parameter
        has no matching mutable variable in scope."""
        recipes = []
        delta = typecheck.initial_delta()
        if ft.type_params:
            delta = delta.bind(ft.type_params[0], type_arg or BitT(8))
        for p in ft.params:
            pt = typecheck.simplify_type({}, delta, p.type)
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
            type_arg = self.rng.choice([BitT(w) for w in BIT_WIDTHS])
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
                    t = rng.choice(self.scalar_types())
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
                    if not self.cfg.calls or not self.funcs:
                        continue
                    cands = [
                        (n, ft) for n, ft in self.funcs
                        if self._args_for(ft, env) is not None
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
            ms = (self.fresh("Err"), self.fresh("Err"))
            self.decls.append(ErrorD(ms))
            self.error_members = self.error_members + ms
        if rng.random() < 0.6:
            name = self.fresh("En")
            members = tuple(self.fresh("m") for _ in range(rng.randint(2, 3)))
            self.decls.append(EnumD(name, members))
            self.enums.append(EnumT(name, members))
        if rng.random() < 0.6:
            name = self.fresh("Rec")
            fs = tuple(
                (self.fresh("f"), rng.choice([BitT(8), BitT(4), BoolT()]))
                for _ in range(rng.randint(1, 3))
            )
            self.decls.append(TypedefD(RecordT(fs), name))
            self.record_defs.append((name, RecordT(fs)))
        if rng.random() < 0.5:
            name = self.fresh("Hdr")
            fs = tuple(
                (self.fresh("f"), rng.choice([BitT(8), BitT(4), BitT(1)]))
                for _ in range(rng.randint(1, 2))
            )
            self.decls.append(TypedefD(HeaderT(fs), name))
            self.header_defs.append((name, HeaderT(fs)))

    def gen_consts(self):
        rng = self.rng
        for _ in range(rng.randint(1, 3)):
            name = self.fresh("c")
            if rng.random() < 0.5:
                self.decls.append(ConstD(IntT(), name, IntE(rng.randint(0, 40))))
                self.consts.append((name, IntT()))
            else:
                w = rng.choice(BIT_WIDTHS)
                self.decls.append(
                    ConstD(BitT(w), name, IntE(rng.randrange(1 << w), w))
                )
                self.consts.append((name, BitT(w)))

    def gen_globals(self):
        rng = self.rng
        pool = [BoolT(), IntT(), BitT(8)] + [BitT(w) for w in BIT_WIDTHS]
        pool += [t for _, t in self.record_defs] + [t for _, t in self.header_defs]
        if self.cfg.stacks:
            pool.append(StackT(BitT(8), 3))
            if self.header_defs:
                pool.append(StackT(self.header_defs[0][1], 2))
        # always keep one bit<8> variable around for tables/actions
        chosen = [BitT(8)] + [pool[rng.randrange(len(pool))]
                              for _ in range(rng.randint(2, 4))]
        for t in chosen:
            name = self.fresh("g")
            env = self.top_env()
            if isinstance(t, (HeaderT, StackT)):
                self.decls.append(VarUninitD(self.surface(t), name))
            else:
                self.decls.append(
                    VarInitD(self.surface(t), name, self.expr(t, 2, env))
                )
            self.globals.append((name, t))

    def top_env(self):
        return (
            [(n, t, False) for n, t in self.consts]
            + [(n, t, True) for n, t in self.globals]
        )

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
            ft = FunT(("X",), (p,), VarT("X"))
            self.decls.append(FuncD(VarT("X"), name, ("X",), (p,), body))
            self.funcs.append((name, ft))
            return
        params = []
        global_types = [t for _, t in self.globals
                        if not isinstance(t, (HeaderT, StackT))]
        for _ in range(rng.randint(0, 3)):
            direction = rng.choice(["in", "in", "inout", "out"])
            if direction == "in":
                t = rng.choice(self.scalar_types())
            else:
                if not global_types:
                    direction, t = "in", BitT(8)
                else:
                    t = rng.choice(global_types)
            params.append(Param(direction, self.fresh("p"), self.surface(t)))
        ret = rng.choice(self.scalar_types())
        norm_params = tuple(
            Param(p.direction, p.name,
                  typecheck.simplify_type({}, self._delta(), p.type))
            for p in params
        )
        env = self.top_env() + [(p.name, p.type, True) for p in norm_params]
        depth = min(self.cfg.max_depth, 3)
        body_stmts = self.stmts(env, depth)
        body_stmts.append(ReturnS(self.expr(ret, depth, env)))
        body = BlockS(tuple(body_stmts))
        self.decls.append(FuncD(self.surface(ret), name, (), tuple(params), body))
        self.funcs.append((name, FunT((), norm_params, ret)))

    def _delta(self):
        d = typecheck.initial_delta()
        d = d.bind("error", ErrorT(self.error_members))
        for et in self.enums:
            d = d.bind(et.name, et)
        for n, t in self.record_defs + self.header_defs:
            d = d.bind(n, t)
        return d

    def gen_table(self):
        rng = self.rng
        gname = self.globals[0][0]  # the guaranteed bit<8> variable
        act = self.fresh("act")
        self.decls.append(FuncD(
            VOID, act, (), (Param("in", "p", BitT(8)),),
            BlockS((AssignS(VarE(gname), VarE("p")), )),
        ))
        self.funcs.append((act, FunT((), (Param("in", "p", BitT(8)),), VOID)))
        dft = self.fresh("act")
        self.decls.append(FuncD(
            VOID, dft, (), (),
            BlockS((AssignS(VarE(gname), IntE(rng.randrange(256), 8)), )),
        ))
        self.funcs.append((dft, FunT((), (), VOID)))
        tname = self.fresh("tbl")
        self.decls.append(TableD(
            tname,
            ((VarE(gname), "exact"),),
            (ActionRef(act, (), (("p", BitT(8)),)), ActionRef(dft, (), ())),
        ))
        app = self.fresh("fn")
        self.decls.append(FuncD(
            VOID, app, (), (),
            BlockS((CallS(CallE(VarE(tname), (), ())), )),
        ))
        self.funcs.append((app, FunT((), (), VOID)))

    def gen_union(self):
        rng = self.rng
        uname = self.fresh("U")
        alts = tuple(
            (self.fresh("alt"), rng.choice([BitT(8), BoolT(), IntT(), BitT(4)]))
            for _ in range(rng.randint(2, 4))
        )
        self.decls.append(UnionD(uname, alts))
        fname = self.fresh("fn")
        env = self.top_env()
        stmts = [VarUninitD(VarT(uname), "u"),
                 VarInitD(BitT(8), "r", IntE(0, 8))]
        env2 = env + [("r", BitT(8), True)]
        f, ft = rng.choice(alts)
        stmts.append(AssignS(MemberE(VarE("u"), f), self.expr(ft, 2, env2)))
        cases = []
        for i, (an, at) in enumerate(alts):
            marker = AssignS(VarE("r"), IntE(10 * (i + 1), 8))
            cases.append((an, BlockS((marker,))))
        cases.append((None, BlockS((AssignS(VarE("r"), IntE(99, 8)),))))
        stmts.append(SwitchS(VarE("u"), tuple(cases)))
        stmts.append(ReturnS(VarE("r")))
        self.decls.append(FuncD(BitT(8), fname, (), (), BlockS(tuple(stmts))))
        self.funcs.append((fname, FunT((), (), BitT(8))))

    def gen_results(self):
        env = self.top_env()
        for fname, ft in self.funcs:
            if ft.type_params:
                continue
            recipes = self._args_for(ft, env)
            if recipes is None:
                continue
            call = self.call_expr(fname, ft, 2, env)
            name = self.fresh("r")
            self.decls.append(VarInitD(self.surface(ft.ret), name, call))

    def generate(self):
        self.gen_type_decls()
        self.gen_consts()
        self.gen_globals()
        for _ in range(self.rng.randint(1, max(1, self.cfg.max_decls - 2))):
            self.gen_function()
        if self.cfg.tables and self.rng.random() < 0.6:
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
              EnumT("Color", ("red", "green", "blue")), ErrorT(("NoError",))]
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
    cfg = GenConfig(seed=seed, max_depth=4, max_decls=4, tables=False,
                    unions=True)
    g = _ProgramGen(cfg)
    g.gen_consts()
    g.gen_globals()
    g.gen_union()
    if g.rng.random() < 0.5:
        g.gen_union()
    g.gen_results()
    return Program(tuple(g.decls))


# ---------------------------------------------------------------------------
# Soundness / termination suite

def run_soundness_case(program, max_steps=10**6):
    """Typecheck, evaluate under budget, then apply the machine-typing
    oracle. Returns a dict of observations; raises on any failure."""
    sigma, gamma, delta = typecheck.check_program(program)
    machine = Machine(target=ThreeStageLiteTarget(), max_steps=max_steps)
    exited = run_program(None, machine, program)
    if exited:
        # evaluation stopped early: the machine corresponds to the prefix of
        # declarations actually executed, so restrict the contexts to it
        gamma = {n: t for n, t in gamma.items() if n in machine.env}
        sigma = {n: v for n, v in sigma.items() if n in machine.env}
    xi = typecheck.build_xi(delta, machine, gamma)
    ok = typecheck.check_machine(xi, sigma, gamma, delta, machine)
    return {"machine_ok": ok, "steps": machine.steps, "exited": exited,
            "locations": len(machine.store)}


def run_soundness_suite(n, cfg=None, max_steps=10**6):
    """Generate n programs and run the executable soundness/termination
    theorem on each; returns aggregate statistics."""
    if n <= 0:
        raise ValueError("suite size must be positive")
    base = cfg or GenConfig()
    failures = []
    budget_failures = []
    steps_total = 0
    for seed in range(n):
        program = generate_typed_program(dataclasses.replace(base, seed=seed))
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
