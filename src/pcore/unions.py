"""Tagged-union elimination: source-to-source translation into records with
an explicit tag field, the store-inclusion relation, and the differential
runner that checks the translation preserves semantics."""

from __future__ import annotations

import math

from .errors import PcoreError
from .ops import init_value
from .syntax import (
    AssignS, BinopE, BitT, BlockS, BoolE, BoolT, ClosureV, ConstD, ControlD,
    CtorClosureV, EnumT, FuncD, HeaderV, IfS, IntE, IntT, IntV, Machine,
    MemberE, NativeV, OpenEnumT, Program, RecordE, RecordT, RecordV, StackV,
    SwitchS, TableV, TypedefD, TypeMemberE, UnionD, UnionV, VarE, VarInitD,
    VarT, VarUninitD,
)
from . import typecheck
from .interp import run_program
from .target import ThreeStageLiteTarget


def tag_width(n_alts):
    return max(1, math.ceil(math.log2(n_alts))) if n_alts > 1 else 1


class Translator:
    """Rewrites the union extension into base programs. Union types become
    records with a leading `tag: bit<n>` field; field assignment becomes a
    whole-record assignment; switch becomes a temporary binding plus an
    if/else-if chain on the tag."""

    def __init__(self):
        self.sigma = {}
        self.delta = typecheck.initial_delta()
        self.unions = {}  # name -> UnionT (normalized)
        self.tmp_count = 0
        self.used_names = set()

    # fault-injection hook: declaration-order index of an alternative
    def assign_tag(self, ut, field):
        return [n for n, _ in ut.alts].index(field)

    def case_tag(self, ut, field):
        return [n for n, _ in ut.alts].index(field)

    def fresh_tmp(self):
        while True:
            name = f"$tmp{self.tmp_count}"
            self.tmp_count += 1
            if name not in self.used_names:
                return name

    # -- program ------------------------------------------------------------

    def translate_program(self, program):
        self.used_names = _collect_names(program)
        out = []
        for d in program.decls:
            out.extend(self.translate_decl(d))
        return Program(tuple(out))

    def translate_decl(self, d):
        match d:
            case UnionD(name, alts):
                _, _, self.delta = typecheck.check_type_declaration(
                    self.sigma, {}, self.delta, d
                )
                ut = self.delta.lookup(name)
                self.unions[name] = ut
                rec = RecordT(
                    (("tag", BitT(tag_width(len(alts)))),) + tuple(alts)
                )
                return [TypedefD(rec, name)]
            case ConstD(_, name, _):
                try:
                    self.sigma, _, self.delta = typecheck.check_var_declaration(
                        self.sigma, {}, self.delta, d
                    )
                except PcoreError:
                    pass
                return [d]
            case TypedefD() :
                _, _, self.delta = typecheck.check_type_declaration(
                    self.sigma, {}, self.delta, d
                )
                return [d]
            case FuncD(ret, name, tps, params, body):
                return [FuncD(ret, name, tps, params, self.translate_stmt(body))]
            case ControlD(name, params, cps, locals_, body):
                lds = []
                for ld in locals_:
                    lds.extend(self.translate_decl(ld))
                return [ControlD(name, params, cps, tuple(lds),
                                 self.translate_stmt(body))]
            case _:
                try:
                    _, _, self.delta = typecheck.check_type_declaration(
                        self.sigma, {}, self.delta, d
                    )
                except PcoreError:
                    pass
                return [d]

    # -- statements ---------------------------------------------------------

    def union_of_var_type(self, t):
        if isinstance(t, VarT) and t.name in self.unions:
            return self.unions[t.name]
        return None

    def translate_stmt(self, s, scope=None):
        scope = dict(scope or {})  # var name -> UnionT for union-typed vars
        match s:
            case BlockS(stmts):
                out = []
                for item in stmts:
                    match item:
                        case VarUninitD(t, name) if self.union_of_var_type(t):
                            ut = self.union_of_var_type(t)
                            scope[name] = ut
                            out.append(item)
                            out.extend(self.init_assignments(name, ut))
                        case VarUninitD(_, name) | VarInitD(_, name, _) | ConstD(_, name, _):
                            scope.pop(name, None)
                            out.append(item)
                        case SwitchS():
                            out.extend(self.translate_switch(item, scope))
                        case AssignS():
                            out.append(self.translate_assign(item, scope))
                        case BlockS() | IfS():
                            out.append(self.translate_stmt(item, scope))
                        case _:
                            out.append(item)
                return BlockS(tuple(out), pos=s.pos)
            case IfS(cond, then, els):
                return IfS(cond, self.translate_stmt(then, scope),
                           self.translate_stmt(els, scope), pos=s.pos)
            case _:
                return s

    def init_assignments(self, name, ut):
        """tag := 0 plus a default value for every alternative."""
        out = [AssignS(MemberE(VarE(name), "tag"),
                       IntE(0, tag_width(len(ut.alts))))]
        for f, ft in ut.alts:
            out.append(AssignS(MemberE(VarE(name), f), self.init_expr(ft)))
        return out

    def init_expr(self, t):
        match t:
            case BoolT():
                return BoolE(False)
            case IntT():
                return IntE(0, None)
            case BitT(w):
                return IntE(0, w)
            case EnumT(name, members):
                return MemberE(VarE(name), members[0])
            case OpenEnumT(members):
                return TypeMemberE(t.name, members[0])
            case RecordT(fs):
                return RecordE(tuple((n, self.init_expr(ft)) for n, ft in fs))
        raise PcoreError(f"no default expression for {t}")

    def translate_assign(self, s, scope):
        match s.lhs:
            case MemberE(VarE(name), f) if name in scope:
                ut = scope[name]
                w = tag_width(len(ut.alts))
                tag = self.assign_tag(ut, f) % (1 << w)
                fields = [("tag", IntE(tag, w))]
                for n, ft in ut.alts:
                    fields.append((n, s.rhs if n == f else self.init_expr(ft)))
                return AssignS(VarE(name), RecordE(tuple(fields)), pos=s.pos)
        return s

    def translate_switch(self, s, scope):
        if not (isinstance(s.scrutinee, VarE) and s.scrutinee.name in scope):
            return [s]
        ut = scope[s.scrutinee.name]
        w = tag_width(len(ut.alts))
        alts = dict(ut.alts)
        tmp = self.fresh_tmp()
        chain = BlockS(())
        default = next((b for l, b in s.cases if l is None), None)
        if default is not None:
            chain = self.translate_stmt(default, scope)
        for label, body in reversed([c for c in s.cases if c[0] is not None]):
            tag = self.case_tag(ut, label) % (1 << w)
            cond = BinopE("eq", MemberE(VarE(tmp), "tag"), IntE(tag, w))
            bound = VarInitD(alts[label], label, MemberE(VarE(tmp), label))
            body_t = self.translate_stmt(body, scope)
            chain = IfS(cond, BlockS((bound,) + body_t.stmts), chain)
        decl = VarInitD(VarT(ut.name), tmp, s.scrutinee)
        return [BlockS((decl, chain), pos=s.pos)]


def _collect_names(node):
    names = set()

    def walk(x):
        if hasattr(x, "__dataclass_fields__"):
            for f in x.__dataclass_fields__:
                v = getattr(x, f)
                if f in ("name",) and isinstance(v, str):
                    names.add(v)
                walk(v)
        elif isinstance(x, (list, tuple)):
            for item in x:
                walk(item)

    walk(node)
    return names


class WrongTagTranslator(Translator):
    """Fault-injected variant: assignments write the wrong tag index."""

    def assign_tag(self, ut, field):
        return (super().assign_tag(ut, field) + 1) % len(ut.alts)


def translate(program, translator=None):
    return (translator or Translator()).translate_program(program)


# ---------------------------------------------------------------------------
# Value / store translation and the inclusion relation

def translate_value(v):
    match v:
        case UnionV(ut, f, payload):
            w = tag_width(len(ut.alts))
            i = [n for n, _ in ut.alts].index(f)
            fields = [("tag", IntV(i, w))]
            for n, ft in ut.alts:
                fields.append(
                    (n, translate_value(payload) if n == f else init_value(ft))
                )
            return RecordV(tuple(fields))
        case RecordV(fs):
            return RecordV(tuple((n, translate_value(fv)) for n, fv in fs))
        case HeaderV(valid, fs):
            return HeaderV(valid, tuple(
                (n, ft, translate_value(fv)) for n, ft, fv in fs
            ))
        case StackV(et, vs):
            return StackV(et, tuple(translate_value(x) for x in vs))
        case _:
            return v


def translate_store(store):
    return {loc: translate_value(v) for loc, v in store.items()}


_OPAQUE = (ClosureV, NativeV, TableV, CtorClosureV)


def env_store_le(s1, e1, s2, e2):
    """dom(e1) subset of dom(e2), with equal values read through the stores
    (function-like values are compared only by kind)."""
    for name, loc in e1.items():
        if name not in e2:
            return False
        v1 = s1.get(loc)
        v2 = s2.get(e2[name])
        if isinstance(v1, _OPAQUE) and isinstance(v2, _OPAQUE):
            continue
        if v1 != v2:
            return False
    return True


# ---------------------------------------------------------------------------
# Differential runner

def _run(program, max_steps):
    machine = Machine(target=ThreeStageLiteTarget(), max_steps=max_steps)
    sig = "exit" if run_program(None, machine, program) else "continue"
    return machine, sig


def diff_union_semantics(program, translator=None, max_steps=10**6):
    """Run the extended program and its translation; PASS iff the signals
    agree and the translated final state includes the extended one."""
    typecheck.check_program(program)
    m1, sig1 = _run(program, max_steps)
    translated = translate(program, translator)
    typecheck.check_program(translated)
    m2, sig2 = _run(translated, max_steps)
    ok = sig1 == sig2 and env_store_le(
        translate_store(m1.store), m1.env, m2.store, m2.env
    )
    return {
        "pass": ok,
        "signal_extended": sig1,
        "signal_translated": sig2,
        "translated": translated,
    }
