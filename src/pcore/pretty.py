"""Pretty-printer; inverse of the parser (parse(pretty(x)) == x), and the
one printer of the types that messages name. Each job is one table from
node class to rule; a statement or declaration rule takes the node and its
indentation."""

from __future__ import annotations

from .ops import BINOPS, UNOPS
from .syntax import (
    AssignS, BinopE, BitT, BlockS, BoolE, BoolT, CallE, CallS, CastE, ConstD,
    ControlD, CtorT, EnumD, EnumT, ExitS, FuncD, FunT, HeaderT, IfS, IndexE,
    InstD, IntE, IntT, MemberE, OPEN_ENUMS, RecordE, RecordT, ReturnS, SliceE,
    StackT, SwitchS, TableD, TableT, TypedefD, UnionD, UnionT, UnopE, VarE,
    VarInitD, VarT, VarUninitD, reads_as_expression,
)

_UNARY_LEVEL = max(level for _, level, _, _ in BINOPS.values()) + 1
_POSTFIX_LEVEL = _UNARY_LEVEL + 1
_EMPTY_BLOCK = BlockS(())  # an `if` with this `else` prints none
_EMPTY_RECORD = RecordE(())  # what `return;` returns


def _unprintable(node, *_):
    """The rule of every class that a table has no row for."""
    raise ValueError(f"unprintable {node!r}")


def pretty_type(t):
    """t as source spells it; a function, constructor or table type, which
    no source spells, as `fun<:X:>(in X x) -> X`, `ctor(bit<8> a) -> t` or
    `table`."""
    return _TYPE_RULES.get(type(t), _unprintable)(t)


def _size(n):
    """A width or stack size: a number, or an expression not yet evaluated."""
    return n if isinstance(n, int) else pretty_expr(n)


def _fields(fs):
    return "{" + " ".join(f"{pretty_type(ft)} {n};" for n, ft in fs) + "}"


def _type_params(names):
    return "<:" + ", ".join(names) + ":>" if names else ""


def _ctor_params(ps):
    return ", ".join(f"{pretty_type(t)} {n}" for n, t in ps)


_TYPE_RULES = {
    BoolT: lambda t: "bool",
    IntT: lambda t: "int",
    BitT: lambda t: f"bit<{_size(t.width)}>",
    RecordT: lambda t: "record " + _fields(t.fields) if t.fields else "{}",
    HeaderT: lambda t: "header " + _fields(t.fields),
    StackT: lambda t: f"{pretty_type(t.elem)}[{_size(t.size)}]",
    VarT: lambda t: t.name,
    EnumT: lambda t: t.name,
    UnionT: lambda t: t.name,
    TableT: lambda t: "table",
    FunT: lambda t: (f"fun{_type_params(t.type_params)}({_params(t.params)})"
                     f" -> {pretty_type(t.ret)}"),
    CtorT: lambda t: f"ctor({_ctor_params(t.params)}) -> {pretty_type(t.ret)}",
}


def pretty_expr(e, level=0):
    """e as source, in parentheses if it binds looser than level asks."""
    return _EXPR_RULES.get(type(e), _unprintable)(e, level)


def _pretty_call(e, level):
    ta = _type_params([pretty_type(t) for t in e.type_args])
    a = ", ".join(map(pretty_expr, e.args))
    return f"{pretty_expr(e.callee, _POSTFIX_LEVEL)}{ta}({a})"


def _pretty_unop(e, level):
    s = f"{UNOPS[e.op][0]}{pretty_expr(e.operand, _UNARY_LEVEL)}"
    return s if level <= _UNARY_LEVEL else f"({s})"


def _pretty_cast(e, level):
    inner = pretty_expr(e.operand, _UNARY_LEVEL)
    if inner.startswith("-") and reads_as_expression(e.type):
        inner = f"({inner})"  # `(t) -e` would read as a subtraction
    s = f"({pretty_type(e.type)}) {inner}"
    return s if level <= _UNARY_LEVEL else f"({s})"


def _pretty_binop(e, level):
    tok, mine, _, _ = BINOPS[e.op]
    s = f"{pretty_expr(e.left, mine)} {tok} {pretty_expr(e.right, mine + 1)}"
    return s if level <= mine else f"({s})"


_EXPR_RULES = {
    BoolE: lambda e, level: "true" if e.value else "false",
    IntE: lambda e, level: str(e.value) if e.width is None else f"{e.value}w{e.width}",
    VarE: lambda e, level: e.name,
    RecordE: lambda e, level: "{" + ", ".join(
        f"{n} = {pretty_expr(fe)}" for n, fe in e.fields) + "}",
    MemberE: lambda e, level: f"{pretty_expr(e.base, _POSTFIX_LEVEL)}.{e.field}",
    IndexE: lambda e, level: (
        f"{pretty_expr(e.base, _POSTFIX_LEVEL)}[{pretty_expr(e.index)}]"),
    SliceE: lambda e, level: (f"{pretty_expr(e.base, _POSTFIX_LEVEL)}"
                              f"[{pretty_expr(e.hi)}:{pretty_expr(e.lo)}]"),
    CallE: _pretty_call,
    UnopE: _pretty_unop,
    CastE: _pretty_cast,
    BinopE: _pretty_binop,
}


def pretty_stmt(s, pad=""):
    # a block's declarations print by the declaration rules
    return (_STMT_RULES.get(type(s))
            or _DECL_RULES.get(type(s), _unprintable))(s, pad)


def _pretty_block(s, pad):
    if not s.stmts:
        return pad + "{}"
    inner = "\n".join(pretty_stmt(x, pad + "  ") for x in s.stmts)
    return pad + "{\n" + inner + "\n" + pad + "}"


def _pretty_if(s, pad):
    out = f"{pad}if ({pretty_expr(s.cond)}) " + pretty_stmt(s.then, pad).lstrip()
    if s.els != _EMPTY_BLOCK:
        out += " else " + pretty_stmt(s.els, pad).lstrip()
    return out


def _pretty_switch(s, pad):
    lines = [f"{pad}switch ({pretty_expr(s.scrutinee)}) {{"]
    for label, body in s.cases:
        head = f"case {label}" if label is not None else "default"
        lines.append(f"{pad}  {head}: " + pretty_stmt(body, pad + "  ").lstrip())
    lines.append(pad + "}")
    return "\n".join(lines)


_STMT_RULES = {
    BlockS: _pretty_block,
    AssignS: lambda s, pad: f"{pad}{pretty_expr(s.lhs)} := {pretty_expr(s.rhs)};",
    CallS: lambda s, pad: f"{pad}{pretty_expr(s.call)};",
    ExitS: lambda s, pad: pad + "exit;",
    ReturnS: lambda s, pad: pad + (
        "return;" if s.value == _EMPTY_RECORD else f"return {pretty_expr(s.value)};"),
    IfS: _pretty_if,
    SwitchS: _pretty_switch,
}


def pretty_decl(d, pad=""):
    return _DECL_RULES.get(type(d), _unprintable)(d, pad)


def _pretty_table(d, pad):
    ks = " ".join(f"{pretty_expr(e)} : {kind};" for e, kind in d.keys)
    acts = " ".join(_action_ref(a) + ";" for a in d.actions)
    return (f"{pad}table {d.name} {{\n{pad}  key = {{{ks}}}\n"
            f"{pad}  actions = {{{acts}}}\n{pad}}}")


def _pretty_control(d, pad):
    head = f"{pad}control {d.name}({_params(d.params)})"
    if d.ctor_params:
        head += f"({_ctor_params(d.ctor_params)})"
    lines = [head + " {", *(pretty_decl(ld, pad + "  ") for ld in d.local_decls)]
    lines.append(f"{pad}  apply " + pretty_stmt(d.body, pad + "  ").lstrip())
    lines.append(pad + "}")
    return "\n".join(lines)


def _pretty_func(d, pad):
    tp = _type_params(d.type_params)
    head = f"{pad}{pretty_type(d.ret)} {d.name}{tp}({_params(d.params)}) "
    return head + pretty_stmt(d.body, pad).lstrip()


_DECL_RULES = {
    ConstD: lambda d, pad: (
        f"{pad}const {pretty_type(d.type)} {d.name} = {pretty_expr(d.init)};"),
    VarInitD: lambda d, pad: (
        f"{pad}{pretty_type(d.type)} {d.name} := {pretty_expr(d.init)};"),
    VarUninitD: lambda d, pad: f"{pad}{pretty_type(d.type)} {d.name};",
    InstD: lambda d, pad: (
        f"{pad}{d.type_name}({', '.join(map(pretty_expr, d.args))}) {d.name};"),
    TypedefD: lambda d, pad: f"{pad}typedef {pretty_type(d.type)} {d.name};",
    EnumD: lambda d, pad: (
        f"{pad}{d.name if d.name in OPEN_ENUMS else 'enum ' + d.name}"
        f" {{{', '.join(d.members)}}}"),
    UnionD: lambda d, pad: f"{pad}union {d.name} {_fields(d.alts)}",
    TableD: _pretty_table,
    ControlD: _pretty_control,
    FuncD: _pretty_func,
}


def _params(params):
    return ", ".join(f"{p.direction} {pretty_type(p.type)} {p.name}" for p in params)


def _action_ref(a):
    parts = ", ".join(map(pretty_expr, a.args))
    if a.ctrl_params:
        cps = ", ".join(f"{n}:{pretty_type(t)}" for n, t in a.ctrl_params)
        parts = f"{parts}; {cps}" if parts else f"; {cps}"
    return f"{a.name}({parts})"


def pretty_program(p):
    return "\n".join(map(pretty_decl, p.decls)) + "\n"
