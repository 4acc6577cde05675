"""Recursive-descent parser for the surface syntax.

Grammar notes:
- assignment is `:=`; `=` appears only in const declarations, record
  literals, and table properties;
- explicit type-argument brackets `<:` `:>` avoid the generic-call
  ambiguity with `<`;
- the parser never backtracks: the tokens ahead decide each construct.
  A type-only token is `bool`, `int`, `bit`, `record` or `header`, or
  `error`/`match_kind` before anything but `.`. An expression spells a
  type when it is a name or `{}` with any `[n]` (the stack sizes). Then:
  - a declaration `X(` is an instance; otherwise it is a type and a name,
    and a function when `(` or `<:` follows, else a variable;
  - a block item that starts with a type-only token declares a variable;
    otherwise it is an expression `e`. Before a name, `e` is `X(args)` (an
    instance) or spells the type of a variable; before `:=` it is assigned
    to, and before `;` it must be a call;
  - `(` and a type-only token start a cast. Otherwise `(e)` is a cast when
    `e` spells a type and the token after `)` starts an expression, except
    that `(x) - e` and `(x[n]) - e` subtract (the cast is `(x) (-e)`).
    So `(g)(a)` casts `(a)` to `g`; a call is written `g(a)`.
"""

from __future__ import annotations

from .errors import ParseError
from .lexer import KIND, LEXEME, POS, VALUE, lex
from .ops import BINOPS, UNOPS
from .syntax import (
    ActionRef, AssignS, BinopE, BitT, BlockS, BoolE, BoolT, CallE, CallS,
    CastE, ConstD, ControlD, EnumD, ExitS, FuncD, HeaderT, IfS, IndexE, InstD,
    IntE, IntT, MemberE, OPEN_ENUMS, Param, Program, RecordE, RecordT,
    ReturnS, SliceE, StackT, SwitchS, TableD, TypedefD, UnionD, UnopE, VarE,
    VarInitD, VarT, VarUninitD, reads_as_expression,
)

# token -> (precedence level, operator name), level 0 binding loosest
_BINOPS = {tok: (level, name) for name, (tok, level, _, _) in BINOPS.items()}
_UNOPS = {tok: name for name, (tok, _, _) in UNOPS.items()}
# a bit width stops below the comparisons, so `>` closes `bit<...>`
_WIDTH_LEVEL = _BINOPS[">"][0] + 1

_EXPR_START = {"ident", "number", "true", "false", "(", "{", *_UNOPS, *OPEN_ENUMS}
_TYPE_ONLY = {"bool", "int", "bit", "record", "header"}


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.tok = tokens[0]  # the next token, tokens[i]

    # -- token plumbing -----------------------------------------------------
    # `lex` ends the tokens with `eof` and `next` never moves past it, so the
    # token after a current one that is not `eof` is tokens[i + 1].

    def next(self):
        tok = self.tok
        if tok[KIND] != "eof":
            self.i += 1
            self.tok = self.tokens[self.i]
        return tok

    def accept(self, kind):
        if self.tok[KIND] == kind:
            return self.next()
        return None

    def expect(self, kind):
        tok = self.tok
        if tok[KIND] != kind:
            raise ParseError(tok[POS], kind, tok[LEXEME] or tok[KIND])
        return self.next()

    def fail(self, expected):
        tok = self.tok
        raise ParseError(tok[POS], expected, tok[LEXEME] or tok[KIND])

    def at_type_only(self):
        """True when the next token starts a type and cannot start an
        expression."""
        kind = self.tok[KIND]
        return kind in _TYPE_ONLY or (
            kind in OPEN_ENUMS and self.tokens[self.i + 1][KIND] != ".")

    def parse_name(self):
        return self.expect("ident")[LEXEME]

    def parse_list(self, item, close):
        """`item()`s separated by `,`, up to and including `close`."""
        items = []
        while not self.accept(close):
            if items:
                self.expect(",")
            items.append(item())
        return tuple(items)

    # -- types --------------------------------------------------------------

    def parse_type(self):
        t = self.parse_type_prim()
        while self.tok[KIND] == "[":
            self.next()
            size = self.parse_expr()
            self.expect("]")
            t = StackT(t, _lit(size))
        return t

    def parse_type_prim(self):
        tok = self.tok
        match tok[KIND]:
            case "bool":
                self.next()
                return BoolT()
            case "int":
                self.next()
                return IntT()
            case "bit":
                self.next()
                self.expect("<")
                width = self.parse_expr(_WIDTH_LEVEL)
                self.expect(">")
                return BitT(_lit(width))
            case kind if kind in OPEN_ENUMS:
                self.next()
                return VarT(kind)
            case "record":
                self.next()
                return RecordT(self.parse_field_types())
            case "header":
                self.next()
                return HeaderT(self.parse_field_types())
            case "{":
                self.next()
                self.expect("}")
                return RecordT(())
            case "ident":
                self.next()
                return VarT(tok[LEXEME])
        self.fail("type")

    def parse_field_types(self):
        self.expect("{")
        out = []
        while not self.accept("}"):
            out.append(self.parse_typed_name())
            self.expect(";")
        return tuple(out)

    def parse_typed_name(self):
        """`T name`, as the pair (name, T)."""
        t = self.parse_type()
        return self.parse_name(), t

    # -- expressions --------------------------------------------------------

    def parse_expr(self, min_level=0):
        """Precedence climbing over operators at `min_level` or tighter; a
        right operand starts one level up, so each level associates left."""
        e = self.parse_unary()
        while True:
            tok = self.tok
            level, name = _BINOPS.get(tok[KIND], (-1, None))
            if level < min_level:
                return e
            self.next()
            e = BinopE(name, e, self.parse_expr(level + 1), pos=tok[POS])

    def parse_unary(self):
        tok = self.tok
        if tok[KIND] in _UNOPS:
            self.next()
            return UnopE(_UNOPS[tok[KIND]], self.parse_unary(), pos=tok[POS])
        return self.parse_postfix()

    def parse_postfix(self):
        e = self.parse_primary()
        while True:
            tok = self.tok
            if tok[KIND] == ".":
                self.next()
                name = self.next()
                if name[KIND] not in ("ident", "key", "apply", "actions"):
                    raise ParseError(name[POS], "field name", name[LEXEME])
                e = MemberE(e, name[LEXEME], pos=tok[POS])
            elif tok[KIND] == "[":
                self.next()
                first = self.parse_expr()
                if self.accept(":"):
                    lo = self.parse_expr()
                    self.expect("]")
                    e = SliceE(e, first, lo, pos=tok[POS])
                else:
                    self.expect("]")
                    e = IndexE(e, first, pos=tok[POS])
            elif tok[KIND] in ("(", "<:"):
                targs = []
                if self.accept("<:"):
                    targs.append(self.parse_type())
                    while self.accept(","):
                        targs.append(self.parse_type())
                    self.expect(":>")
                e = CallE(e, tuple(targs), self.parse_call_args(), pos=tok[POS])
            else:
                return e

    def parse_call_args(self):
        self.expect("(")
        return self.parse_list(self.parse_expr, ")")

    def parse_primary(self):
        tok = self.tok
        match tok[KIND]:
            case "true" | "false":
                self.next()
                return BoolE(tok[KIND] == "true", pos=tok[POS])
            case "number":
                self.next()
                value, width = tok[VALUE]
                return IntE(value, width, pos=tok[POS])
            case "ident":
                self.next()
                return VarE(tok[LEXEME], pos=tok[POS])
            case kind if kind in OPEN_ENUMS:
                self.next()
                self.expect(".")
                return MemberE(VarE(kind, pos=tok[POS]), self.parse_name(),
                               pos=tok[POS])
            case "{":
                self.next()
                fields = self.parse_list(self.parse_field_init, "}")
                return RecordE(fields, pos=tok[POS])
            case "(":
                return self.parse_paren_or_cast()
        self.fail("expression")

    def parse_field_init(self):
        name = self.parse_name()
        self.expect("=")
        return name, self.parse_expr()

    def parse_paren_or_cast(self):
        tok = self.expect("(")
        if self.at_type_only():
            t = self.parse_type()
            self.expect(")")
            return CastE(t, self.parse_unary(), pos=tok[POS])
        e = self.parse_expr()
        self.expect(")")
        t = _spelled_type(e)
        after = self.tok[KIND]
        if t is None or after not in _EXPR_START or (
                after == "-" and reads_as_expression(t)):
            return e
        return CastE(t, self.parse_unary(), pos=tok[POS])

    # -- statements ---------------------------------------------------------

    def parse_block(self):
        tok = self.expect("{")
        stmts = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        return BlockS(tuple(stmts), pos=tok[POS])

    def parse_stmt(self):
        tok = self.tok
        match tok[KIND]:
            case "{":
                return self.parse_block()
            case "if":
                self.next()
                self.expect("(")
                cond = self.parse_expr()
                self.expect(")")
                then = self.parse_block()
                if self.accept("else"):  # `else if` chains nest without braces
                    els = (self.parse_stmt if self.tok[KIND] == "if"
                           else self.parse_block)()
                else:
                    els = BlockS(())
                return IfS(cond, then, els, pos=tok[POS])
            case "exit":
                self.next()
                self.expect(";")
                return ExitS(pos=tok[POS])
            case "return":
                self.next()
                if self.accept(";"):
                    return ReturnS(RecordE(()), pos=tok[POS])
                e = self.parse_expr()
                self.expect(";")
                return ReturnS(e, pos=tok[POS])
            case "switch":
                return self.parse_switch()
            case "const" | "typedef" | "enum" | "union" | "table" | "control":
                return self.parse_decl()
        if tok[KIND] in OPEN_ENUMS and self.tokens[self.i + 1][KIND] == "{":
            return self.parse_decl()
        if self.at_type_only():
            return self.parse_var_decl(tok, *self.parse_typed_name())
        e = self.parse_expr()
        if self.tok[KIND] == "ident":
            match e:
                case CallE(VarE(type_name), (), args):
                    return self.parse_inst_decl(tok, type_name, args)
            t = _spelled_type(e)
            if t is not None:
                return self.parse_var_decl(tok, self.parse_name(), t)
        if self.accept(":="):
            rhs = self.parse_expr()
            self.expect(";")
            return AssignS(e, rhs, pos=tok[POS])
        self.expect(";")
        if not isinstance(e, CallE):
            raise ParseError(tok[POS], "statement", tok[LEXEME] or tok[KIND])
        return CallS(e, pos=tok[POS])

    def parse_switch(self):
        tok = self.expect("switch")
        self.expect("(")
        scrut = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases = []
        while not self.accept("}"):
            if self.accept("case"):
                label = self.parse_name()
            else:
                self.expect("default")
                label = None
            self.expect(":")
            cases.append((label, self.parse_block()))
        return SwitchS(scrut, tuple(cases), pos=tok[POS])

    # -- declarations -------------------------------------------------------

    def parse_program(self):
        decls = []
        while not self.tok[KIND] == "eof":
            decls.append(self.parse_decl())
        return Program(tuple(decls))

    def parse_decl(self):
        tok = self.tok
        match tok[KIND]:
            case "const":
                self.next()
                name, t = self.parse_typed_name()
                self.expect("=")
                init = self.parse_expr()
                self.expect(";")
                return ConstD(t, name, init, pos=tok[POS])
            case "typedef":
                self.next()
                name, t = self.parse_typed_name()
                self.expect(";")
                return TypedefD(t, name, pos=tok[POS])
            case "enum":
                self.next()
                name = self.parse_name()
                return EnumD(name, self.parse_member_list(), pos=tok[POS])
            case kind if kind in OPEN_ENUMS and self.tokens[self.i + 1][KIND] == "{":
                self.next()
                return EnumD(kind, self.parse_member_list(), pos=tok[POS])
            case "union":
                self.next()
                name = self.parse_name()
                return UnionD(name, self.parse_field_types(), pos=tok[POS])
            case "table":
                return self.parse_table()
            case "control":
                return self.parse_control()
            case "ident" if self.tokens[self.i + 1][KIND] == "(":
                self.next()
                return self.parse_inst_decl(tok, tok[LEXEME], self.parse_call_args())
        name, t = self.parse_typed_name()
        if self.tok[KIND] == "(" or self.tok[KIND] == "<:":
            return self.parse_func_decl(tok, name, t)
        return self.parse_var_decl(tok, name, t)

    def parse_member_list(self):
        self.expect("{")
        return self.parse_list(self.parse_name, "}")

    def parse_func_decl(self, tok, name, ret):
        """The rest of the function `ret name` that starts at `tok`."""
        tps = []
        if self.accept("<:"):
            tps.append(self.parse_name())
            while self.accept(","):
                tps.append(self.parse_name())
            self.expect(":>")
        params = self.parse_params()
        body = self.parse_block()
        return FuncD(ret, name, tuple(tps), params, body, pos=tok[POS])

    def parse_params(self):
        self.expect("(")
        return self.parse_list(self.parse_param, ")")

    def parse_param(self):
        tok = self.tok
        if not (tok[KIND] == "ident" and tok[LEXEME] in ("in", "out", "inout")):
            self.fail("parameter direction")
        self.next()
        return Param(tok[LEXEME], *self.parse_typed_name())

    def parse_var_decl(self, tok, name, t):
        """The rest of the variable `t name` that starts at `tok`."""
        if self.accept(":="):
            init = self.parse_expr()
            self.expect(";")
            return VarInitD(t, name, init, pos=tok[POS])
        self.expect(";")
        return VarUninitD(t, name, pos=tok[POS])

    def parse_inst_decl(self, tok, type_name, args):
        """The rest of the instance `type_name(args) x;` that starts at `tok`."""
        name = self.parse_name()
        self.expect(";")
        return InstD(type_name, args, name, pos=tok[POS])

    def parse_table(self):
        tok = self.expect("table")
        name = self.parse_name()
        self.expect("{")
        self.expect("key")
        self.expect("=")
        self.expect("{")
        keys = []
        while not self.accept("}"):
            e = self.parse_expr()
            self.expect(":")
            kind = self.parse_name()
            self.expect(";")
            keys.append((e, kind))
        self.expect("actions")
        self.expect("=")
        self.expect("{")
        actions = []
        while not self.accept("}"):
            actions.append(self.parse_action_ref())
            self.expect(";")
        self.expect("}")
        if not actions:
            self.fail("at least one action")
        return TableD(name, tuple(keys), tuple(actions), pos=tok[POS])

    def parse_action_ref(self):
        tok = self.tok
        name = self.parse_name()
        self.expect("(")
        args = []
        ctrl = []
        while not (self.tok[KIND] == ")" or self.tok[KIND] == ";"):
            if args:
                self.expect(",")
            args.append(self.parse_expr())
        if self.accept(";"):
            while not self.tok[KIND] == ")":
                if ctrl:
                    self.expect(",")
                pname = self.parse_name()
                self.expect(":")
                ctrl.append((pname, self.parse_type()))
        self.expect(")")
        return ActionRef(name, tuple(args), tuple(ctrl), pos=tok[POS])

    def parse_control(self):
        tok = self.expect("control")
        name = self.parse_name()
        params = self.parse_params()
        ctor_params = ()
        if self.accept("("):
            ctor_params = self.parse_list(self.parse_typed_name, ")")
        self.expect("{")
        local_decls = []
        while not self.tok[KIND] == "apply":
            local_decls.append(self.parse_decl())
        self.expect("apply")
        body = self.parse_block()
        self.expect("}")
        return ControlD(name, params, ctor_params, tuple(local_decls), body,
                        pos=tok[POS])


def _lit(e):
    """Width/size expressions that are plain literals become ints eagerly."""
    if isinstance(e, IntE) and e.width is None:
        return e.value
    return e


def _spelled_type(e):
    """The type that expression `e` spells, or None."""
    match e:
        case VarE(name):
            return VarT(name)
        case RecordE(()):
            return RecordT(())
        case IndexE(base, size):
            elem = _spelled_type(base)
            return None if elem is None else StackT(elem, _lit(size))
    return None


def _parse_all(text, rule):
    """Parse the whole of `text` with one grammar rule."""
    p = Parser(lex(text))
    result = rule(p)
    p.expect("eof")
    return result


def parse_program(text):
    return _parse_all(text, Parser.parse_program)


def parse_expression(text):
    return _parse_all(text, Parser.parse_expr)


def parse_statement(text):
    return _parse_all(text, Parser.parse_stmt)


def parse_type(text):
    return _parse_all(text, Parser.parse_type)
