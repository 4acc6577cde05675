"""Tokenizer for the concrete surface syntax: one master regex with one
named alternative per token class."""

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

_NUMBER = r"0[xX](?P<hex>[0-9a-fA-F]*)|(?P<dec>[0-9]+)"  # a literal may add a width
WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_]*")
_DATA_NUMBER_RE = re.compile(rf"-?(?:{_NUMBER})")

_TOKEN_RE = re.compile("|".join([
    r"(?P<skip>[ \t\r]+|//[^\n]*)",
    r"(?P<newline>\n)",
    rf"(?P<number>(?:{_NUMBER})(?:w(?P<width>[0-9]+))?)",
    rf"(?P<word>{WORD_RE.pattern})",
    # longest first so maximal munch works
    "(?P<punct>%s)" % "|".join(
        map(re.escape, sorted(PUNCT, key=lambda t: (-len(t), t)))),
    r"(?P<bad>.)",
]), re.DOTALL)


class Token(NamedTuple):
    kind: str  # keyword/punct lexeme, or "ident", "number", "eof"
    lexeme: str
    value: object = None  # (value, width-or-None) for "number"
    pos: tuple = (0, 0)


def lex(text):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        pos = (line, m.start() - line_start + 1)
        match kind:
            case "skip":
                continue
            case "newline":
                line, line_start = line + 1, m.end()
                continue
            case "number":
                hex_digits, dec, width = m.group("hex", "dec", "width")
                if hex_digits == "":
                    raise LexError(pos, "hex literal needs digits")
                value = int(dec) if dec else int(hex_digits, 16)
                token = Token("number", lexeme,
                              (value, int(width) if width else None), pos)
            case "word":
                token = Token(lexeme if lexeme in KEYWORDS else "ident", lexeme,
                              None, pos)
            case "punct":
                token = Token(lexeme, lexeme, None, pos)
            case _:
                raise LexError(pos, f"unexpected character {lexeme!r}")
        tokens.append(token)
    tokens.append(Token("eof", "", None, (line, len(text) - line_start + 1)))
    return tokens


def number(text):
    """The int that text spells as a number from outside the program: a
    source number without a width, and an optional leading `-`."""
    m = _DATA_NUMBER_RE.fullmatch(text)
    if m is None or m["hex"] == "":
        raise ValueError(f"{text!r} is not a number")
    return int(text, 16 if m["hex"] else 10)  # base 16 reads the `0x`
