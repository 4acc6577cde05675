"""Pretty-printer; inverse of the parser (parse(pretty(x)) == x)."""

from __future__ import annotations

from .ops import BINOP_LEVELS, UNOP_TOKENS
from .syntax import (
    AssignS, BinopE, BitT, BlockS, BoolE, BoolT, CallE, CallS, CastE, ConstD,
    ControlD, Decl, EnumD, ErrorD, ErrorT, ExitS, Expr, FuncD, HeaderT, IfS,
    IndexE, InstD, IntE, IntT, MatchKindD, MatchKindT, MemberE, Program,
    RecordE, RecordT, ReturnS, SliceE, StackT, SwitchS, TableD, Type,
    TypedefD, TypeMemberE, UnionD, UnopE, VarE, VarInitD, VarT, VarUninitD,
)

_OP_TOKEN = {name: tok for level in BINOP_LEVELS for tok, name in level}
_OP_LEVEL = {
    name: i for i, level in enumerate(BINOP_LEVELS) for _, name in level
}
_UNARY_LEVEL = len(BINOP_LEVELS)
_POSTFIX_LEVEL = _UNARY_LEVEL + 1
_UNOP_TOKEN = {name: tok for tok, name in UNOP_TOKENS}


def pretty_type(t):
    match t:
        case BoolT():
            return "bool"
        case IntT():
            return "int"
        case BitT(w):
            return f"bit<{w if isinstance(w, int) else pretty_expr(w)}>"
        case ErrorT():
            return "error"
        case MatchKindT():
            return "match_kind"
        case RecordT(()):
            return "{}"
        case RecordT(fs):
            return "record " + _fields(fs)
        case HeaderT(fs):
            return "header " + _fields(fs)
        case StackT(elem, n):
            size = n if isinstance(n, int) else pretty_expr(n)
            return f"{pretty_type(elem)}[{size}]"
        case VarT(name):
            return name
        case _ if hasattr(t, "name"):  # enum/union types print as their name
            return t.name
    raise ValueError(f"unprintable type {t!r}")


def _fields(fs):
    inner = " ".join(f"{pretty_type(ft)} {n};" for n, ft in fs)
    return "{" + inner + "}"


def pretty_expr(e, level=0):
    match e:
        case BoolE(v):
            return "true" if v else "false"
        case IntE(v, w):
            return str(v) if w is None else f"{v}w{w}"
        case VarE(name):
            return name
        case TypeMemberE(tn, m):
            return f"{tn}.{m}"
        case RecordE(fs):
            inner = ", ".join(f"{n} = {pretty_expr(fe)}" for n, fe in fs)
            return "{" + inner + "}"
        case MemberE(base, f):
            return f"{pretty_expr(base, _POSTFIX_LEVEL)}.{f}"
        case IndexE(base, idx):
            return f"{pretty_expr(base, _POSTFIX_LEVEL)}[{pretty_expr(idx)}]"
        case SliceE(base, hi, lo):
            return (
                f"{pretty_expr(base, _POSTFIX_LEVEL)}"
                f"[{pretty_expr(hi)}:{pretty_expr(lo)}]"
            )
        case CallE(callee, targs, args):
            ta = ""
            if targs:
                ta = "<:" + ", ".join(pretty_type(t) for t in targs) + ":>"
            a = ", ".join(pretty_expr(x) for x in args)
            return f"{pretty_expr(callee, _POSTFIX_LEVEL)}{ta}({a})"
        case UnopE(op, operand):
            s = f"{_UNOP_TOKEN[op]}{pretty_expr(operand, _UNARY_LEVEL)}"
            return s if level <= _UNARY_LEVEL else f"({s})"
        case CastE(t, operand):
            s = f"({pretty_type(t)}) {pretty_expr(operand, _UNARY_LEVEL)}"
            return s if level <= _UNARY_LEVEL else f"({s})"
        case BinopE(op, l, r):
            mine = _OP_LEVEL[op]
            s = (
                f"{pretty_expr(l, mine)} {_OP_TOKEN[op]} "
                f"{pretty_expr(r, mine + 1)}"
            )
            return s if level <= mine else f"({s})"
    raise ValueError(f"unprintable expression {e!r}")


def pretty_stmt(s, indent=0):
    pad = "  " * indent
    match s:
        case BlockS(stmts):
            if not stmts:
                return pad + "{}"
            inner = "\n".join(pretty_stmt(x, indent + 1) for x in stmts)
            return pad + "{\n" + inner + "\n" + pad + "}"
        case AssignS(lhs, rhs):
            return f"{pad}{pretty_expr(lhs)} := {pretty_expr(rhs)};"
        case CallS(call):
            return f"{pad}{pretty_expr(call)};"
        case ExitS():
            return pad + "exit;"
        case ReturnS(RecordE(())):
            return pad + "return;"
        case ReturnS(e):
            return f"{pad}return {pretty_expr(e)};"
        case IfS(cond, then, els):
            out = f"{pad}if ({pretty_expr(cond)}) " + pretty_stmt(then, indent).lstrip()
            if els != BlockS(()):
                out += " else " + pretty_stmt(els, indent).lstrip()
            return out
        case SwitchS(scrut, cases):
            lines = [f"{pad}switch ({pretty_expr(scrut)}) {{"]
            for label, body in cases:
                head = f"case {label}" if label is not None else "default"
                lines.append(
                    f"{pad}  {head}: " + pretty_stmt(body, indent + 1).lstrip()
                )
            lines.append(pad + "}")
            return "\n".join(lines)
        case _:
            return pretty_decl(s, indent)


def pretty_decl(d, indent=0):
    pad = "  " * indent
    match d:
        case ConstD(t, name, init):
            return f"{pad}const {pretty_type(t)} {name} = {pretty_expr(init)};"
        case VarInitD(t, name, init):
            return f"{pad}{pretty_type(t)} {name} := {pretty_expr(init)};"
        case VarUninitD(t, name):
            return f"{pad}{pretty_type(t)} {name};"
        case InstD(tn, args, name):
            a = ", ".join(pretty_expr(x) for x in args)
            return f"{pad}{tn}({a}) {name};"
        case TypedefD(t, name):
            return f"{pad}typedef {pretty_type(t)} {name};"
        case EnumD(name, members):
            return f"{pad}enum {name} {{{', '.join(members)}}}"
        case ErrorD(members):
            return f"{pad}error {{{', '.join(members)}}}"
        case MatchKindD(members):
            return f"{pad}match_kind {{{', '.join(members)}}}"
        case UnionD(name, alts):
            return f"{pad}union {name} {_fields(alts)}"
        case TableD(name, keys, actions):
            lines = [f"{pad}table {name} {{"]
            ks = " ".join(
                f"{pretty_expr(e)} : {kind};" for e, kind in keys
            )
            lines.append(f"{pad}  key = {{{ks}}}")
            acts = " ".join(_action_ref(a) + ";" for a in actions)
            lines.append(f"{pad}  actions = {{{acts}}}")
            lines.append(pad + "}")
            return "\n".join(lines)
        case ControlD(name, params, ctor_params, local_decls, body):
            head = f"{pad}control {name}({_params(params)})"
            if ctor_params:
                cps = ", ".join(
                    f"{pretty_type(t)} {n}" for n, t in ctor_params
                )
                head += f"({cps})"
            lines = [head + " {"]
            for ld in local_decls:
                lines.append(pretty_decl(ld, indent + 1))
            lines.append(f"{pad}  apply " + pretty_stmt(body, indent + 1).lstrip())
            lines.append(pad + "}")
            return "\n".join(lines)
        case FuncD(ret, name, tps, params, body):
            tp = "<:" + ", ".join(tps) + ":>" if tps else ""
            head = f"{pad}{pretty_type(ret)} {name}{tp}({_params(params)}) "
            return head + pretty_stmt(body, indent).lstrip()
    raise ValueError(f"unprintable declaration {d!r}")


def _params(params):
    return ", ".join(
        f"{p.direction} {pretty_type(p.type)} {p.name}" for p in params
    )


def _action_ref(a):
    parts = ", ".join(pretty_expr(x) for x in a.args)
    if a.ctrl_params:
        cps = ", ".join(f"{n}:{pretty_type(t)}" for n, t in a.ctrl_params)
        parts = f"{parts}; {cps}" if parts else f"; {cps}"
    return f"{a.name}({parts})"


def pretty_program(p):
    return "\n".join(pretty_decl(d) for d in p.decls) + "\n"


def pretty_print(node):
    match node:
        case Program():
            return pretty_program(node)
        case BlockS() | AssignS() | CallS() | ExitS() | ReturnS() | IfS() | SwitchS():
            return pretty_stmt(node)
        case _ if isinstance(node, Decl):
            return pretty_decl(node)
        case _ if isinstance(node, Expr):
            return pretty_expr(node)
        case _ if isinstance(node, Type):
            return pretty_type(node)
    raise ValueError(f"unprintable node {node!r}")
