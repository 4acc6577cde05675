"""Tokenizer for the concrete surface syntax: one master regex, each of whose
matches is two groups, the blanks and a comment, then a lexeme: a token, a
newline or the end of the text. A keyword or punctuation lexeme names its own
kind; any other lexeme is classified by its first character."""

from __future__ import annotations

import re
import string

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

WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_]*")
_DATA_HEX_RE = re.compile(r"-?0[xX][0-9a-fA-F]+")

# each match is two groups: the blanks and a comment, which runs up to a
# newline or the end, then the lexeme: a newline, a number, a word or
# punctuation (longest first, for maximal munch), the end, or a bad character
_TOKEN_RE = re.compile(r"([ \t\r]*(?://[^\n]*)?)(%s)" % "|".join([
    r"\n", r"(?:0[xX][0-9a-fA-F]*|[0-9]+)(?:w[0-9]+)?", WORD_RE.pattern,
    *map(re.escape, sorted(PUNCT, key=lambda t: (-len(t), t))), r"\Z", ".",
]), re.DOTALL)
# what a lexeme that names no kind is, by its first character
_FIRST = {"\n": "newline", "": "eof", **dict.fromkeys(string.digits, "number"),
          **dict.fromkeys(string.ascii_letters + "_$", "ident")}


# a token is the plain tuple (kind, lexeme, value, pos): its kind is a keyword
# or punctuation lexeme, or "ident", "number" or "eof"; its value is (value,
# width or None) for a "number", else None; its pos is (line, column)
KIND, LEXEME, VALUE, POS = range(4)


def lex(text):
    tokens = []
    append = tokens.append
    line, col = 1, 1
    for blanks, lexeme in _TOKEN_RE.findall(text):
        col += len(blanks)
        kind, value = _KINDS.get(lexeme), None
        if kind is None:
            kind = _FIRST.get(lexeme[:1], "bad")
            if kind != "ident":
                if kind == "newline":
                    line, col = line + 1, 1
                    continue
                if kind == "eof":  # after blanks at the end, `\Z` matches again
                    break
                if kind == "bad":
                    raise LexError((line, col), f"unexpected character {lexeme!r}")
                digits, _, width = lexeme.partition("w")
                if digits in ("0x", "0X"):
                    raise LexError((line, col), "hex literal needs digits")
                try:
                    value = (int(digits, 16 if digits[1:2] in ("x", "X") else 10),
                             int(width) if width else None)
                except ValueError:  # a decimal string longer than int() reads
                    raise LexError((line, col), "number literal too long") from None
        append((kind, lexeme, value, (line, col)))
        col += len(lexeme)
    append(("eof", "", None, (line, col)))
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
