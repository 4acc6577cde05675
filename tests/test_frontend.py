"""Lexer, parser, and pretty-printer tests, including round-trip identity."""

import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pcore
from pcore.errors import LexError, ParseError, PcoreError
from pcore.gen import GenConfig, generate_typed_program, generate_union_program
from pcore.lexer import KEYWORDS, PUNCT, lex, number
from pcore.parser import (
    parse_expression, parse_program, parse_statement, parse_type,
)
from pcore.pretty import pretty_expr, pretty_program, pretty_stmt, pretty_type
from pcore.typecheck import check_program
from pcore.syntax import (
    AssignS, BinopE, BitT, BlockS, BoolT, CastE, CallE, EnumD, FuncD, IfS,
    IndexE, InstD, IntE, IntT, MemberE, RecordE, RecordT, ReturnS, SliceE,
    StackT, UnopE, VarE, VarInitD, VarT, VarUninitD,
)

from regen_golden import token_mutants

FIXTURES = Path(pcore.__file__).parent / "fixtures"


def roundtrip_expr(text):
    e = parse_expression(text)
    assert parse_expression(pretty_expr(e)) == e
    return e


class TestLexer:
    def test_width_suffix(self):
        toks = lex("7w8")
        assert toks[0].value == (7, 8)

    def test_hex_literal(self):
        assert lex("0xFF")[0].value == (255, None)

    def test_dollar_identifier(self):
        assert lex("$tmp0")[0].lexeme == "$tmp0"

    def test_comment(self):
        assert [t.kind for t in lex("1 // two\n3")] == ["number", "number", "eof"]

    def test_longest_punct(self):
        assert [t.kind for t in lex("<: :> := ++ <<")][:-1] == [
            "<:", ":>", ":=", "++", "<<",
        ]

    def test_bad_char(self):
        with pytest.raises(LexError):
            lex("a @ b")

    @pytest.mark.parametrize("text, pos", [("a\t@", (1, 3)), ("x;\n\t\t@", (2, 3))])
    def test_bad_char_after_tab(self, text, pos):
        with pytest.raises(LexError) as exc:
            lex(text)
        assert exc.value.pos == pos

    @pytest.mark.parametrize("text, tokens", [
        ("a\r\nb", [("a", (1, 1)), ("b", (2, 1)), ("", (2, 2))]),
        ("a \t\nb", [("a", (1, 1)), ("b", (2, 1)), ("", (2, 2))]),
        ("a \t", [("a", (1, 1)), ("", (1, 4))]),
        ("a\n  ", [("a", (1, 1)), ("", (2, 3))]),
        ("x; // end", [("x", (1, 1)), (";", (1, 2)), ("", (1, 10))]),
        ("a//b", [("a", (1, 1)), ("", (1, 5))]),
        ("", [("", (1, 1))]),
        ("\n", [("", (2, 1))]),
        ("a\nbc", [("a", (1, 1)), ("bc", (2, 1)), ("", (2, 3))]),
    ], ids=["crlf", "blanks-at-line-end", "blanks-at-eof", "blank-last-line",
            "comment-at-eof", "comment-after-token", "empty", "newline",
            "no-final-newline"])
    def test_lexemes_and_positions(self, text, tokens):
        assert [(t.lexeme, t.pos) for t in lex(text)] == tokens

    @pytest.mark.parametrize("text", ["caf\u00e9", "x\u00b2", "\u0663"])
    def test_ascii_only(self, text):
        with pytest.raises(LexError):
            lex(text)

    # the spelling of a number from outside the program, written out here
    # so that neither of number's two paths can drift from it
    DATA_NUMBER = re.compile(r"-?(?:0[xX][0-9a-fA-F]+|[0-9]+)")

    _NUMBER_CHARS = st.sampled_from(string.hexdigits + "xX-+_ \u0663\u00b2")

    @settings(max_examples=1000, deadline=None)
    @given(st.text(_NUMBER_CHARS, max_size=6) | st.tuples(
        st.sampled_from(["", "-", "--", "+", " "]),
        st.sampled_from(["", "0x", "0X", "x"]),
        st.text(_NUMBER_CHARS, max_size=4)).map("".join))
    def test_number_reads_exactly_its_spelling(self, text):
        if self.DATA_NUMBER.fullmatch(text):
            assert number(text) == int(text, 16 if "x" in text.lower() else 10)
        else:
            with pytest.raises(ValueError, match="is not a number"):
                number(text)


class TestParser:
    def test_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert e == BinopE("add", IntE(1), BinopE("mul", IntE(2), IntE(3)))

    def test_left_assoc(self):
        e = parse_expression("1 - 2 - 3")
        assert e == BinopE("sub", BinopE("sub", IntE(1), IntE(2)), IntE(3))

    def test_cast_vs_paren(self):
        assert isinstance(parse_expression("(bit<8>) x"), CastE)
        assert parse_expression("(x)") == VarE("x")
        # a parenthesized identifier not followed by an expression is grouping
        assert parse_expression("(x) + 1") == BinopE("add", VarE("x"), IntE(1))

    @pytest.mark.parametrize("text", [
        "bit<8> x := 3w8;\nbit<8> y := (x) - 1w8;\n",
        "bit<8>[4] s;\nbit<8> y := (s[3w32]) - 1w8;\n",
    ])
    def test_paren_name_before_minus_subtracts(self, text):
        program = parse_program(text)
        assert program.decls[-1].init.op == "sub"
        check_program(program)

    @pytest.mark.parametrize("text, stmt", [
        ("hop_t[9] hops;", VarUninitD(StackT(VarT("hop_t"), 9), "hops")),
        ("T[W + 1] x := y;", VarInitD(
            StackT(VarT("T"), BinopE("add", VarE("W"), IntE(1))), "x",
            VarE("y"))),
        ("X(1w8) x;", InstD("X", (IntE(1, 8),), "x")),
        ("x[0w32] := e;", AssignS(IndexE(VarE("x"), IntE(0, 32)), VarE("e"))),
        ("error e := error.NoError;", VarInitD(
            parse_type("error"), "e", MemberE(VarE("error"), "NoError"))),
    ], ids=["stack-decl", "stack-size-expr", "instance", "assign-index",
            "open-enum-decl"])
    def test_block_item_decided_by_what_follows(self, text, stmt):
        assert parse_statement(text) == stmt

    @pytest.mark.parametrize("text, expr", [
        ("(T) (U) y", CastE(VarT("T"), CastE(VarT("U"), VarE("y")))),
        ("(T) (a).f", CastE(VarT("T"), MemberE(VarE("a"), "f"))),
        ("({}) x", CastE(RecordT(()), VarE("x"))),
        ("(bit<8>) -x", CastE(BitT(8), UnopE("neg", VarE("x")))),
    ], ids=["nested", "of-member", "unit", "type-only-before-minus"])
    def test_cast_decided_after_the_parenthesis(self, text, expr):
        assert parse_expression(text) == expr

    def test_parenthesized_callee_is_a_cast(self):
        with pytest.raises(ParseError):
            parse_expression("(g)(1w8, 2w8)")

    def test_slice(self):
        e = parse_expression("x[7:0]")
        assert e == SliceE(VarE("x"), IntE(7), IntE(0))

    def test_generic_call(self):
        e = parse_expression("f<:bit<8>:>(x)")
        assert e == CallE(VarE("f"), (BitT(8),), (VarE("x"),))

    def test_stack_type(self):
        assert parse_type("bit<8>[4]") == StackT(BitT(8), 4)

    def test_unit_type(self):
        assert parse_type("{}") == RecordT(())

    def test_return_short_form(self):
        s = parse_statement("return;")
        assert s == ReturnS(RecordE(()))

    def test_if_without_else(self):
        s = parse_statement("if (true) {x := 1;}")
        assert isinstance(s, IfS) and s.els == BlockS(())

    def test_empty_braces_in_a_block_are_a_block(self):
        """Inside a block `{}` starts a statement, so `{} x := g();` is an
        empty block and an assignment; at the top level it declares `x`."""
        call = CallE(VarE("g"), (), ())
        assert parse_statement("{ {} x := g(); }") == BlockS(
            (BlockS(()), AssignS(VarE("x"), call)))
        assert parse_program("{} x := g();").decls == (
            VarInitD(RecordT(()), "x", call),)

    def test_error_decl_vs_error_type(self):
        p = parse_program("error {Oops}\nerror f() {return error.Oops;}")
        assert p.decls[0] == EnumD("error", ("Oops",))
        assert isinstance(p.decls[1], FuncD)

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_program("const int x = ;")

    def test_assign_uses_walrus(self):
        with pytest.raises(ParseError):
            parse_statement("x = 1;")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_program, "bit<8> f() {\n  return 1w8 +;\n}",
         "2:15: expected expression, found ';'"),
        (parse_statement, "{\n  bit<8> y := 1w8 +;\n}",
         "2:20: expected expression, found ';'"),
        (parse_program, "bit<8> x := 1w8 // c", "1:21: expected ;, found 'eof'"),
    ], ids=["function-body", "statement", "comment-before-eof"])
    def test_error_at_furthest_position(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == "parse error at " + message


FRAGMENTS = sorted(KEYWORDS | PUNCT) + [
    "x", "$t", "7", "1w8", "0x", "0xFw4", "//", " ", "\t", "\r", "\n",
    " \n", "\t\r\n", "\u00e9", "\u00b2",
]
arbitrary_text = st.one_of(
    st.text(),
    st.lists(st.sampled_from(FRAGMENTS) | st.characters(), max_size=40).map("".join),
    st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join),
)


# the characters a token or a blank can hold
ALPHABET = set(string.ascii_letters + string.digits + "_$ \t\r\n" + "".join(PUNCT))


def _offset(text, pos):
    line, col = pos
    return sum(len(s) + 1 for s in text.split("\n")[:line - 1]) + col - 1


def _first_gap(text, tokens):
    """The offset of the first character of text outside every token's
    lexeme, blanks and `//` comments, or None."""
    spans = {_offset(text, t.pos): len(t.lexeme) for t in tokens}
    i = 0
    while i < len(text):
        if spans.get(i):
            i += spans[i]
        elif text[i] in " \t\r\n":
            i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            i = len(text) if end < 0 else end
        else:
            return i
    return None


class TestArbitraryText:
    @settings(max_examples=300, deadline=None)
    @given(arbitrary_text)
    def test_only_pcore_errors_and_true_positions(self, text):
        """The tokens cover all but blanks and comments, and a lex error
        stands at the first character outside the alphabet or `0x` with no
        digits."""
        lines = text.split("\n")
        try:
            tokens = lex(text)
        except LexError as exc:
            k = _offset(text, exc.pos)
            assert text[k] not in ALPHABET or re.match(
                r"0[xX](?![0-9a-fA-F])", text[k:]), (text, exc.pos)
            tokens = lex(text[:k])
            assert _first_gap(text, tokens[:-1]) == k, (text, exc.pos)
        else:
            assert tokens[-1].pos == (len(lines), len(lines[-1]) + 1)
            assert _first_gap(text, tokens[:-1]) is None, text
        for tok in tokens:
            line, col = tok.pos
            assert lines[line - 1][col - 1:col - 1 + len(tok.lexeme)] == tok.lexeme
        try:
            parse_program(text)
        except PcoreError:
            pass


@pytest.mark.parametrize("seed", range(20))
def test_token_mutants_parse_or_raise_pcore_errors(seed):
    """Delete, insert or swap one token of a generated program: the parser
    returns or raises a PcoreError, never another exception."""
    for mutant in token_mutants(seed):
        try:
            parse_program(mutant)
        except PcoreError:
            pass


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "1 + 2 * 3",
        "-(x | y) * (a + b ^ c)",
        "x[7:0] ++ y[3:2]",
        "(bit<8>) (x + 1)",
        "!a && b || c == d",
        "f<:bit<8>:>(1w8, g(x).field[0w32])",
        "{a = 1, b = {c = true}}",
        "error.NoError != e",
        "1 << 2 >> 3",
        "a % 2 / 3",
        "(x) (-y)",
        "(s[3w32]) (-1w8)",
        "(x) - 1w8",
    ])
    def test_exprs(self, text):
        roundtrip_expr(text)

    def test_fixture_files(self):
        for path in FIXTURES.glob("*.pcore"):
            p = parse_program(path.read_text())
            assert parse_program(pretty_program(p)) == p

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_programs(self, seed):
        p = generate_typed_program(GenConfig(seed=seed))
        assert parse_program(pretty_program(p)) == p

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_union_programs(self, seed):
        p = generate_union_program(seed)
        assert parse_program(pretty_program(p)) == p

    def test_bare_return(self):
        p = parse_program("{} f() { return; }")
        assert p.decls[0].body == BlockS((ReturnS(RecordE(())),))
        assert pretty_program(p) == "{} f() {\n  return;\n}\n"
        assert parse_program(pretty_program(p)) == p

    def test_types(self):
        for text in ["bool", "int", "bit<9>", "{}", "bit<4>[3]",
                     "record {bit<8> a; bool b;}", "header {bit<1> v;}"]:
            t = parse_type(text)
            assert parse_type(pretty_type(t)) == t
