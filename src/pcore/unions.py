"""Tagged-union elimination: source-to-source translation into records with
an explicit tag field, the store-inclusion relation, and the differential
runner that checks the translation preserves semantics."""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import count

from .ops import init_value
from .syntax import (
    AssignS, BinopE, BitT, BlockS, BoolE, BoolV, ClosureV, ControlD, FuncD,
    HeaderT, HeaderV, IfS, IntE, IntV, MemberE, MemberV, NativeV, Program,
    RecordE, RecordT, RecordV, StackT, StackV, SwitchS, TableV, TypedefD,
    UnionD, UnionT, UnionV, VarE, VarInitD,
)
from . import typecheck
from .interp import MAX_STEPS
from .stf import run_case
from .target import GAMMA0


def tag_width(n_alts):
    return max(1, math.ceil(math.log2(n_alts))) if n_alts > 1 else 1


class Translator:
    """Rewrites the union extension into base programs. Union types become
    records with a leading `bit<n>` tag field, named by `tag_field`; field
    assignment becomes a whole-record assignment; switch becomes a temporary
    binding plus an if/else-if chain on the tag. The program is typed as it
    is translated: each declaration and statement is translated in the
    contexts (sigma, gamma, delta) the checker gives it, so a union is found
    by its type."""

    # fault-injection hook: declaration-order index of an alternative
    def assign_tag(self, ut, field):
        return alt_index(ut, field)

    # -- declarations -------------------------------------------------------

    def translate_program(self, program):
        ctx = ({}, dict(GAMMA0), typecheck.initial_delta())
        out = []
        for d in program.decls:
            d2, ctx = self.translate_decl(ctx, d)
            out.append(d2)
        return Program(tuple(out))

    def translate_decl(self, ctx, d):
        """d translated in the contexts ctx that precede it, and the contexts
        that follow it."""
        after = typecheck.check_declaration(*ctx, d)
        match d:
            case UnionD(name, alts):
                d = TypedefD(translate_type(UnionT(name, tuple(alts))), name)
            case FuncD() | ControlD():
                body_ctx = typecheck.body_contexts(*ctx, after[1][d.name])
                lds = []
                for ld in d.local_decls:
                    ld2, body_ctx = self.translate_decl(body_ctx, ld)
                    lds.append(ld2)
                # a function has no local declarations to replace
                locals_ = {"local_decls": tuple(lds)} if lds else {}
                d = replace(d, body=self.translate_stmt(body_ctx, d.body), **locals_)
        return d, after

    # -- statements ---------------------------------------------------------

    def translate_stmt(self, ctx, s):
        sigma, gamma, delta = ctx
        match s:
            case BlockS(stmts):
                out = []
                for item in stmts:
                    if isinstance(item, typecheck.VAR_DECLS):
                        sigma, gamma, _ = typecheck.check_declaration(
                            sigma, gamma, delta, item
                        )
                    else:
                        item = self.translate_stmt((sigma, gamma, delta), item)
                    out.append(item)
                return BlockS(tuple(out), pos=s.pos)
            case IfS(cond, then, els):
                return IfS(cond, self.translate_stmt(ctx, then),
                           self.translate_stmt(ctx, els), pos=s.pos)
            case AssignS(MemberE(base, f), rhs):
                ut = typecheck.check_expression(sigma, gamma, delta, base).type
                if not isinstance(ut, UnionT):
                    return s
                w = tag_width(len(ut.alts))
                tag = self.assign_tag(ut, f) % (1 << w)
                fields = [(tag_field(ut.alts), IntE(tag, w))]
                for n, ft in ut.alts:
                    fields.append((n, rhs if n == f else literal(init_value(ft))))
                return AssignS(base, RecordE(tuple(fields)), pos=s.pos)
            case SwitchS():
                return self.translate_switch(ctx, s)
            case _:
                return s

    def translate_switch(self, ctx, s):
        sigma, gamma, delta = ctx
        ut = typecheck.check_expression(sigma, gamma, delta, s.scrutinee).type
        w = tag_width(len(ut.alts))
        alts = dict(ut.alts)
        tmp, tag = fresh_tmp(gamma), tag_field(ut.alts)
        chain = BlockS(())
        default = next((b for l, b in s.cases if l is None), None)
        if default is not None:
            chain = self.translate_stmt(ctx, default)
        for label, body in reversed([c for c in s.cases if c[0] is not None]):
            cond = BinopE("eq", MemberE(VarE(tmp), tag),
                          IntE(alt_index(ut, label), w))
            bound = VarInitD(alts[label], label, MemberE(VarE(tmp), label))
            case_ctx = (*typecheck.bind_vars(sigma, gamma,
                                             [(label, alts[label])]), delta)
            body_t = self.translate_stmt(case_ctx, body)
            chain = IfS(cond, BlockS((bound,) + body_t.stmts), chain)
        decl = VarInitD(translate_type(ut), tmp, s.scrutinee)
        return BlockS((decl, chain), pos=s.pos)


# The source literal of each value ops.init_value gives an alternative
_LITERALS = {
    BoolV: lambda v: BoolE(v.value),
    IntV: lambda v: IntE(v.value, v.width),
    MemberV: lambda v: MemberE(VarE(v.type_name), v.member),
    RecordV: lambda v: RecordE(tuple((n, literal(fv)) for n, fv in v.fields)),
}


def literal(v):
    return _LITERALS[type(v)](v)


def translate_type(t):
    """The normal type t with every union inside it replaced by its tagged
    record: a leading `bit<n>` tag field, then the alternatives."""
    match t:
        case UnionT(_, alts):
            return RecordT(((tag_field(alts), BitT(tag_width(len(alts)))),) + alts)
        case RecordT(fs) | HeaderT(fs):
            return type(t)(tuple((n, translate_type(ft)) for n, ft in fs))
        case StackT(et, n):
            return StackT(translate_type(et), n)
    return t


def alt_index(ut, field):
    return [n for n, _ in ut.alts].index(field)


def tag_field(alts):
    """The tag field of the record that translates a union with the (name,
    type) alternatives alts: `tag`, or else the first `tagN` no alternative
    names."""
    names = {n for n, _ in alts}
    if "tag" not in names:
        return "tag"
    return next(f"tag{i}" for i in count() if f"tag{i}" not in names)


def fresh_tmp(scope):
    """The first `$tmpN` not bound in scope, so that it captures no name the
    switch's case bodies can see."""
    n = 0
    while f"$tmp{n}" in scope:
        n += 1
    return f"$tmp{n}"


class WrongTagTranslator(Translator):
    """Fault-injected variant: assignments write the wrong tag index."""

    def assign_tag(self, ut, field):
        return (super().assign_tag(ut, field) + 1) % len(ut.alts)


def translate(program, translator=None):
    """The translation of program, which is typechecked on the way."""
    return (translator or Translator()).translate_program(program)


# ---------------------------------------------------------------------------
# Value / store translation and the inclusion relation

def translate_value(v):
    match v:
        case UnionV(ut, f, payload):
            w = tag_width(len(ut.alts))
            fields = [(tag_field(ut.alts), IntV(alt_index(ut, f), w))]
            for n, ft in ut.alts:
                fields.append(
                    (n, translate_value(payload) if n == f else init_value(ft))
                )
            return RecordV(tuple(fields))
        case RecordV(fs):
            return RecordV(tuple((n, translate_value(fv)) for n, fv in fs))
        case HeaderV(valid, fs):
            return HeaderV(valid, tuple(
                (n, translate_type(ft), translate_value(fv)) for n, ft, fv in fs
            ))
        case StackV(et, vs):
            return StackV(translate_type(et), tuple(translate_value(x) for x in vs))
        case _:
            return v


def translate_store(store):
    return {loc: translate_value(v) for loc, v in store.items()}


_OPAQUE = (ClosureV, NativeV, TableV)


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

def _packet(machine):
    """The run's packet as it left: egress, output hex and the drop flag."""
    pkt = machine.target.packet
    return pkt.egress, pkt.output_hex(), pkt.dropped


def diff_union_semantics(program, translator=None, max_steps=MAX_STEPS):
    """Translate the program (which checks it) and run it and its
    translation; PASS iff the signals and the packets agree and the
    translated final state includes the extended one."""
    translated = translate(program, translator)
    typecheck.check_program(translated, gamma=GAMMA0)
    m1, sig1 = run_case(program, max_steps)
    m2, sig2 = run_case(translated, max_steps)
    ok = sig1 == sig2 and _packet(m1) == _packet(m2) and env_store_le(
        translate_store(m1.store), m1.env, m2.store, m2.env
    )
    return {
        "pass": ok,
        "signal_extended": sig1,
        "signal_translated": sig2,
        "translated": translated,
    }
