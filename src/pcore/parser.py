"""Recursive-descent parser for the surface syntax.

Grammar notes:
- assignment is `:=`; `=` appears only in const declarations, record
  literals, and table properties;
- explicit type-argument brackets `<:` `:>` avoid the generic-call
  ambiguity with `<`;
- `(T) e` is a cast when the parenthesized prefix parses as a type and the
  next token can start an expression;
- statement position disambiguates declarations from expressions by
  speculative parsing (declaration first, expression on failure).
"""

from __future__ import annotations

from .errors import ParseError
from .lexer import lex
from .ops import BINOP_LEVELS, UNOP_TOKENS
from .syntax import (
    ActionRef, AssignS, BinopE, BitT, BlockS, BoolE, BoolT, CallE, CallS,
    CastE, ConstD, ControlD, EnumD, ErrorD, ErrorT, ExitS, FuncD, HeaderT,
    IfS, IndexE, InstD, IntE, IntT, MatchKindD, MatchKindT, MemberE, Param,
    Program, RecordE, RecordT, ReturnS, SliceE, StackT, SwitchS, TableD,
    TypedefD, TypeMemberE, UnionD, UnopE, VarE, VarInitD, VarT, VarUninitD,
)

_BIN_OPS = [dict(level) for level in BINOP_LEVELS]  # token -> name per level
_UNOPS = dict(UNOP_TOKENS)
# a bit width stops below the comparisons, so `>` closes `bit<...>`
_WIDTH_LEVEL = 1 + max(i for i, ops in enumerate(_BIN_OPS) if ">" in ops)

_EXPR_START = {
    "ident", "int", "true", "false", "(", "{", "!", "~", "-",
    "error", "match_kind",
}


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind):
        return self.peek().kind == kind

    def accept(self, kind):
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, kind, tok.lexeme or tok.kind)
        return self.next()

    def fail(self, expected):
        tok = self.peek()
        raise ParseError(tok.pos, expected, tok.lexeme or tok.kind)

    # -- types --------------------------------------------------------------

    def parse_type(self):
        t = self.parse_type_prim()
        while self.at("["):
            self.next()
            size = self.parse_expr()
            self.expect("]")
            t = StackT(t, _lit(size))
        return t

    def parse_type_prim(self):
        tok = self.peek()
        match tok.kind:
            case "bool":
                self.next()
                return BoolT()
            case "int":
                self.next()
                return IntT()
            case "bit":
                self.next()
                self.expect("<")
                width = self.parse_expr_at(_WIDTH_LEVEL)
                self.expect(">")
                return BitT(_lit(width))
            case "error":
                self.next()
                return ErrorT()
            case "match_kind":
                self.next()
                return MatchKindT()
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
                return VarT(tok.lexeme)
        self.fail("type")

    def parse_field_types(self):
        self.expect("{")
        out = []
        while not self.accept("}"):
            t = self.parse_type()
            name = self.expect("ident").lexeme
            self.expect(";")
            out.append((name, t))
        return tuple(out)

    # -- expressions --------------------------------------------------------

    def parse_expr(self):
        return self.parse_expr_at(0)

    def parse_expr_at(self, level):
        if level >= len(_BIN_OPS):
            return self.parse_unary()
        e = self.parse_expr_at(level + 1)
        ops = _BIN_OPS[level]
        while self.peek().kind in ops:
            tok = self.next()
            rhs = self.parse_expr_at(level + 1)
            e = BinopE(ops[tok.kind], e, rhs, pos=tok.pos)
        return e

    def parse_unary(self):
        tok = self.peek()
        if tok.kind in _UNOPS:
            self.next()
            return UnopE(_UNOPS[tok.kind], self.parse_unary(), pos=tok.pos)
        return self.parse_postfix()

    def parse_postfix(self):
        e = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind == ".":
                self.next()
                name = self.next()
                if name.kind not in ("ident", "key", "apply", "actions"):
                    raise ParseError(name.pos, "field name", name.lexeme)
                e = MemberE(e, name.lexeme, pos=tok.pos)
            elif tok.kind == "[":
                self.next()
                first = self.parse_expr()
                if self.accept(":"):
                    lo = self.parse_expr()
                    self.expect("]")
                    e = SliceE(e, first, lo, pos=tok.pos)
                else:
                    self.expect("]")
                    e = IndexE(e, first, pos=tok.pos)
            elif tok.kind == "(":
                args = self.parse_call_args()
                e = CallE(e, (), args, pos=tok.pos)
            elif tok.kind == "<:":
                self.next()
                targs = [self.parse_type()]
                while self.accept(","):
                    targs.append(self.parse_type())
                self.expect(":>")
                args = self.parse_call_args()
                e = CallE(e, tuple(targs), args, pos=tok.pos)
            else:
                return e

    def parse_call_args(self):
        self.expect("(")
        args = []
        while not self.accept(")"):
            if args:
                self.expect(",")
            args.append(self.parse_expr())
        return tuple(args)

    def parse_primary(self):
        tok = self.peek()
        match tok.kind:
            case "true" | "false":
                self.next()
                return BoolE(tok.kind == "true", pos=tok.pos)
            case "int":
                self.next()
                value, width = tok.value
                return IntE(value, width, pos=tok.pos)
            case "ident":
                self.next()
                return VarE(tok.lexeme, pos=tok.pos)
            case "error" | "match_kind":
                self.next()
                self.expect(".")
                member = self.expect("ident").lexeme
                return TypeMemberE(tok.kind, member, pos=tok.pos)
            case "{":
                return self.parse_record_lit()
            case "(":
                return self.parse_paren_or_cast()
        self.fail("expression")

    def parse_record_lit(self):
        tok = self.expect("{")
        fields = []
        while not self.accept("}"):
            if fields:
                self.expect(",")
            name = self.expect("ident").lexeme
            self.expect("=")
            fields.append((name, self.parse_expr()))
        return RecordE(tuple(fields), pos=tok.pos)

    def parse_paren_or_cast(self):
        tok = self.expect("(")
        mark = self.i
        try:
            t = self.parse_type()
            if self.at(")") and self.peek(1).kind in _EXPR_START:
                self.next()
                return CastE(t, self.parse_unary(), pos=tok.pos)
        except ParseError:
            pass
        self.i = mark
        e = self.parse_expr()
        self.expect(")")
        return e

    # -- statements ---------------------------------------------------------

    def parse_block(self):
        tok = self.expect("{")
        stmts = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        return BlockS(tuple(stmts), pos=tok.pos)

    def parse_stmt(self):
        tok = self.peek()
        match tok.kind:
            case "{":
                return self.parse_block()
            case "if":
                self.next()
                self.expect("(")
                cond = self.parse_expr()
                self.expect(")")
                then = self.parse_block()
                if self.accept("else"):
                    # `else if` chains nest directly without braces
                    els = self.parse_stmt() if self.at("if") else self.parse_block()
                else:
                    els = BlockS(())
                return IfS(cond, then, els, pos=tok.pos)
            case "exit":
                self.next()
                self.expect(";")
                return ExitS(pos=tok.pos)
            case "return":
                self.next()
                if self.accept(";"):
                    return ReturnS(RecordE(()), pos=tok.pos)
                e = self.parse_expr()
                self.expect(";")
                return ReturnS(e, pos=tok.pos)
            case "switch":
                return self.parse_switch()
            case "const" | "typedef" | "enum" | "union" | "table" | "control":
                return self.parse_decl()
        if tok.kind in ("error", "match_kind") and self.peek(1).kind == "{":
            return self.parse_decl()
        # declaration or expression statement: try declaration first
        mark = self.i
        try:
            return self.parse_var_decl()
        except ParseError:
            self.i = mark
        e = self.parse_expr()
        if self.accept(":="):
            rhs = self.parse_expr()
            self.expect(";")
            return AssignS(e, rhs, pos=tok.pos)
        self.expect(";")
        if not isinstance(e, CallE):
            raise ParseError(tok.pos, "statement", tok.lexeme or tok.kind)
        return CallS(e, pos=tok.pos)

    def parse_switch(self):
        tok = self.expect("switch")
        self.expect("(")
        scrut = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases = []
        while not self.accept("}"):
            if self.accept("case"):
                label = self.expect("ident").lexeme
            else:
                self.expect("default")
                label = None
            self.expect(":")
            cases.append((label, self.parse_block()))
        return SwitchS(scrut, tuple(cases), pos=tok.pos)

    # -- declarations -------------------------------------------------------

    def parse_program(self):
        decls = []
        while not self.at("eof"):
            decls.append(self.parse_decl())
        return Program(tuple(decls))

    def parse_decl(self):
        tok = self.peek()
        match tok.kind:
            case "const":
                self.next()
                t = self.parse_type()
                name = self.expect("ident").lexeme
                self.expect("=")
                init = self.parse_expr()
                self.expect(";")
                return ConstD(t, name, init, pos=tok.pos)
            case "typedef":
                self.next()
                t = self.parse_type()
                name = self.expect("ident").lexeme
                self.expect(";")
                return TypedefD(t, name, pos=tok.pos)
            case "enum":
                self.next()
                name = self.expect("ident").lexeme
                return EnumD(name, self.parse_member_list(), pos=tok.pos)
            case "error" if self.peek(1).kind == "{":
                self.next()
                return ErrorD(self.parse_member_list(), pos=tok.pos)
            case "match_kind" if self.peek(1).kind == "{":
                self.next()
                return MatchKindD(self.parse_member_list(), pos=tok.pos)
            case "union":
                self.next()
                name = self.expect("ident").lexeme
                return UnionD(name, self.parse_field_types(), pos=tok.pos)
            case "table":
                return self.parse_table()
            case "control":
                return self.parse_control()
        # function declaration or variable declaration / instantiation
        mark = self.i
        try:
            return self.parse_func_decl()
        except ParseError:
            self.i = mark
        return self.parse_var_decl()

    def parse_member_list(self):
        self.expect("{")
        members = []
        while not self.accept("}"):
            if members:
                self.expect(",")
            members.append(self.expect("ident").lexeme)
        return tuple(members)

    def parse_func_decl(self):
        tok = self.peek()
        ret = self.parse_type()
        name = self.expect("ident").lexeme
        tps = []
        if self.accept("<:"):
            tps.append(self.expect("ident").lexeme)
            while self.accept(","):
                tps.append(self.expect("ident").lexeme)
            self.expect(":>")
        elif not self.at("("):
            self.fail("function parameter list")
        params = self.parse_params()
        body = self.parse_block()
        return FuncD(ret, name, tuple(tps), params, body, pos=tok.pos)

    def parse_params(self):
        self.expect("(")
        params = []
        while not self.accept(")"):
            if params:
                self.expect(",")
            dtok = self.peek()
            if dtok.kind == "ident" and dtok.lexeme in ("in", "out", "inout"):
                self.next()
                direction = dtok.lexeme
            else:
                self.fail("parameter direction")
            t = self.parse_type()
            name = self.expect("ident").lexeme
            params.append(Param(direction, name, t))
        return tuple(params)

    def parse_var_decl(self):
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).kind == "(":
            # instantiation: X(args) x;
            type_name = self.next().lexeme
            args = self.parse_call_args()
            name = self.expect("ident").lexeme
            self.expect(";")
            return InstD(type_name, args, name, pos=tok.pos)
        t = self.parse_type()
        name = self.expect("ident").lexeme
        if self.accept(":="):
            init = self.parse_expr()
            self.expect(";")
            return VarInitD(t, name, init, pos=tok.pos)
        self.expect(";")
        return VarUninitD(t, name, pos=tok.pos)

    def parse_table(self):
        tok = self.expect("table")
        name = self.expect("ident").lexeme
        self.expect("{")
        self.expect("key")
        self.expect("=")
        self.expect("{")
        keys = []
        while not self.accept("}"):
            e = self.parse_expr()
            self.expect(":")
            kind = self.expect("ident").lexeme
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
        return TableD(name, tuple(keys), tuple(actions), pos=tok.pos)

    def parse_action_ref(self):
        tok = self.peek()
        name = self.expect("ident").lexeme
        self.expect("(")
        args = []
        ctrl = []
        while not (self.at(")") or self.at(";")):
            if args:
                self.expect(",")
            args.append(self.parse_expr())
        if self.accept(";"):
            while not self.at(")"):
                if ctrl:
                    self.expect(",")
                pname = self.expect("ident").lexeme
                self.expect(":")
                ctrl.append((pname, self.parse_type()))
        self.expect(")")
        return ActionRef(name, tuple(args), tuple(ctrl), pos=tok.pos)

    def parse_control(self):
        tok = self.expect("control")
        name = self.expect("ident").lexeme
        params = self.parse_params()
        ctor_params = ()
        if self.at("("):
            self.next()
            cps = []
            while not self.accept(")"):
                if cps:
                    self.expect(",")
                t = self.parse_type()
                pname = self.expect("ident").lexeme
                cps.append((pname, t))
            ctor_params = tuple(cps)
        self.expect("{")
        local_decls = []
        while not self.at("apply"):
            local_decls.append(self.parse_decl())
        self.expect("apply")
        body = self.parse_block()
        self.expect("}")
        return ControlD(name, params, ctor_params, tuple(local_decls), body,
                        pos=tok.pos)


def _lit(e):
    """Width/size expressions that are plain literals become ints eagerly."""
    if isinstance(e, IntE) and e.width is None:
        return e.value
    return e


def parse_program(text):
    return Parser(lex(text)).parse_program()


def parse_expression(text):
    p = Parser(lex(text))
    e = p.parse_expr()
    p.expect("eof")
    return e


def parse_statement(text):
    p = Parser(lex(text))
    s = p.parse_stmt()
    p.expect("eof")
    return s


def parse_type(text):
    p = Parser(lex(text))
    t = p.parse_type()
    p.expect("eof")
    return t
