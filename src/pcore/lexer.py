"""Tokenizer for the concrete surface syntax: one master regex, each of whose
matches is blanks and a comment, then a token, a newline or the end of the
text. A word or punctuation lexeme names its own kind, unless it is an
identifier."""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import LexError
from .ops import BINOPS, UNOPS

KEYWORDS = {
    "bool", "int", "bit", "error", "match_kind", "enum", "header", "record",
    "typedef", "const", "control", "table", "exit", "return", "if", "else",
    "switch", "case", "default", "union", "apply", "key", "actions",
    "true", "false",
}

# the structural tokens, then each operator token once, from the operator table
PUNCT = {":=", "<:", ":>", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "="}
PUNCT |= {tok for tok, *_ in (*BINOPS.values(), *UNOPS.values())}
_KINDS = {lexeme: lexeme for lexeme in KEYWORDS | PUNCT}  # any other word: "ident"

_NUMBER = r"0[xX](?P<hex>[0-9a-fA-F]*)|(?P<dec>[0-9]+)"  # a literal may add a width
WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_]*")
_DATA_HEX_RE = re.compile(r"-?0[xX][0-9a-fA-F]+")

# a comment runs up to a newline or the end, and comes before punctuation
_TOKEN_RE = re.compile(r"[ \t\r]*(?://[^\n]*)?(?:%s)" % "|".join([
    r"(?P<newline>\n)",
    rf"(?P<number>(?:{_NUMBER})(?:w(?P<width>[0-9]+))?)",
    # punctuation longest first so maximal munch works
    "(?P<tok>%s|%s)" % (WORD_RE.pattern, "|".join(
        map(re.escape, sorted(PUNCT, key=lambda t: (-len(t), t))))),
    r"\Z",
    r"(?P<bad>.)",
]), re.DOTALL)


class Token(NamedTuple):
    kind: str  # keyword/punct lexeme, or "ident", "number", "eof"
    lexeme: str
    value: object = None  # (value, width-or-None) for "number"
    pos: tuple = (0, 0)


def lex(text):
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "tok":
            lexeme = m[kind]
            # Token(...) without the Python-level __new__ of a NamedTuple
            append(tuple.__new__(Token, (_KINDS.get(lexeme, "ident"), lexeme,
                                         None, (line, m.start(kind) - line_start + 1))))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "number":
            pos = (line, m.start(kind) - line_start + 1)
            hex_digits, dec, width = m.group("hex", "dec", "width")
            if hex_digits == "":
                raise LexError(pos, "hex literal needs digits")
            value = int(dec) if dec else int(hex_digits, 16)
            append(Token("number", m[kind], (value, int(width) if width else None),
                         pos))
        elif kind == "bad":
            raise LexError((line, m.start(kind) - line_start + 1),
                           f"unexpected character {m[kind]!r}")
    append(Token("eof", "", None, (line, len(text) - line_start + 1)))
    return tokens


def number(text):
    """The int that text spells as a number from outside the program: a
    source number without a width, and an optional leading `-`."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        return int(text)
    if _DATA_HEX_RE.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not a number")
    return int(text, 16)  # base 16 reads the `0x`
