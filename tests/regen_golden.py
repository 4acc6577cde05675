"""The golden corpus: pcore's observable results on fixed inputs.

`compute_corpus()` recomputes every entry; `tests/test_golden.py` compares
it with the committed `tests/golden/corpus.json`. Step counts are part of
the termination statement, so a change that moves an entry says which
entries moved and why. Regenerate the file with

    PYTHONPATH=src python tests/regen_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from pcore.errors import LexError, ParseError, PcoreError, TypeError_
from pcore.gen import (
    GenConfig, generate_typed_program, generate_union_program,
    run_soundness_case,
)
from pcore.lexer import lex
from pcore.parser import Parser, parse_program
from pcore.pretty import pretty_program
from pcore.stf import run_packet, run_stf
from pcore.syntax import to_obj
from pcore.target import GAMMA0, ControlPlane, load_control_plane_json
from pcore.typecheck import check_program
from pcore.unions import Translator, WrongTagTranslator, diff_union_semantics

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "pcore" / "fixtures"
CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"
SOUNDNESS_SEEDS = range(200)
UNION_SEEDS = range(100)
GEN_SEEDS = range(200)
# (ingress port, hex payload) on the source-routing fixture: an empty
# packet, one nibble, a hop stack cut short, and nine hops plus a payload
PACKETS = [(0, ""), (0, "0"), (0, "0204"), (0, "02040608020406080BAB")]
MUTANT_SEEDS = range(20)
MUTATION_INSERTS = ["int", "bit", "(", ")", ";", "-", "error", ".", "x", "1w8",
                    "{", "}", "<:", ":="]
# the lexer's edges: line ends, blanks and comments where a token could
# be, end of text, and each lex error
LEXER_EDGES = [
    "", "\n", "a\nb", "a\r\nb", "a \t\nb", "a  ", "a\n  ", "x; // end",
    "a//b", "1 // two\n3", "a\t@", "a @ b", "a\n\t@", "x\n0x", "0x", "0xw8",
    "1w", "7w8 0xFF", "caf\u00e9", "<: :> := ++ <<",
]

# one ill-typed program for each rule the checker rejects with, then a
# second raise site of some rules; `control C` wraps a statement list
_CTL = "control C() {{ {decls} apply {{ {body} }} }}"
ILL_TYPED = [
    ("UnboundTypeVar", "Mystery x := 1w8;"),
    ("TyS-Bit", "bit<0> x;"),
    ("TyS-Stack", "bit<8>[0 - 1] s;"),
    ("TyS", "bit<8>[true] s;"),
    ("NotCompileTime", "bit<8> w := 8w8; bit<w> y;"),
    ("T-Bit", "bit<4> x := 16w4;"),
    ("T-Var", "bit<8> x := y;"),
    ("T-Index", "bit<8> x := 1w8; bit<8> y := x[0w32];"),
    ("T-Slice", "bit<8> x := 1w8; bit<4> y := x[8:5];"),
    ("T-UOp", "bool b := !1w8;"),
    ("T-BinOp", "bool b := true + 1;"),
    ("T-Cast", "bool b := (bool) 1w8;"),
    ("T-Record", "record {bit<8> a;} r := {a = 1w8, a = 2w8};"),
    ("T-Enum", "enum E {a, b} E x := E.c;"),
    ("T-Err", "error e := error.Nope;"),
    ("T-Mem", "bit<8> x := 1w8; bit<8> y := x.f;"),
    ("T-Call", "bit<8> x := 1w8; bit<8> y := x(1w8);"),
    ("TS-Assign", _CTL.format(decls="", body="const bit<8> c = 1w8; c := 2w8;")),
    ("TS-If", _CTL.format(decls="", body="if (1w8) { }")),
    ("TS-TblCall", _CTL.format(
        decls="{} a() { } table t { key = {} actions = {a();} }",
        body="t(1w8);")),
    ("TS-Ret", _CTL.format(decls="", body="return 1w8;")),
    ("TS-Block", "{} f() { typedef bit<8> b; }"),
    ("T-Switch", _CTL.format(
        decls="", body="bit<8> x := 1w8; switch (x) { default: { } }")),
    ("T-Union", "union u {bit<8> a;} "
     + _CTL.format(decls="", body="u x; x.b := 1w8;")),
    ("Type-Const", "const bit<8> c = true;"),
    ("Type-VarInit", "bit<8> x := true;"),
    ("Type-Var", "bit<8> f<:T:>(in T a) { T x; return 1w8; }"),
    ("Type-Inst", "bit<8> x := 1w8; x() y;"),
    ("T-TypeDecl", "typedef bit<8> b; typedef bit<4> b;"),
    ("T-EnumDecl", "enum E {}"),
    ("DuplicateEnumMember", "enum E {a, a}"),
    ("T-TableDecl", _CTL.format(
        decls="bit<8> k; {} a() { } "
              "table t { key = {k : fuzzy;} actions = {a();} }", body="")),
    ("T-FuncDecl", "bit<8> f<:T, T:>(in T a) { return 1w8; }"),
    ("MissingReturn", "bit<8> f() { }"),
    ("Type-Partial-App", _CTL.format(
        decls="bit<8> a; table t { key = {} actions = {a();} }", body="")),
    ("UnboundTypeVar", "{} f() { Mystery x; }"),
    ("T-Slice", "bit<8> x := 1w8; bit<4> y := x[true:0];"),
    ("T-Call", "bit<8> f<:T:>(in T a) { return 1w8; } bit<8> y := f(1w8);"),
    ("T-Call", "{} f(inout bit<8> a) { } const bit<8> c = 1w8; "
     + _CTL.format(decls="", body="f(c);")),
    ("TS-Assign", _CTL.format(decls="", body="bit<8> x; x := true;")),
    ("T-Switch", "union u {bit<8> a;} " + _CTL.format(
        decls="", body="u x; switch (x) { case a: { } case a: { } }")),
    ("T-Union", "union u {bit<8> a; bool a;}"),
    ("T-TableDecl", _CTL.format(
        decls="bit<8> k; {} a(in bit<8> p) { } "
              "table t { key = {k : exact;} actions = {a(; p: bit<8>);} }",
        body="")),
    ("Type-Partial-App", _CTL.format(
        decls="{} a(inout bit<8> p) { } "
              "table t { key = {} actions = {a(; p: bit<8>); a2();} }",
        body="")),
    ("Type-Inst", "control D(in bit<8> x) { apply { } } D(1w8) d;"),
    ("T-BinOp", "bit<8> x := 1w8; bit<8> y := 8w8 / x;"),
    ("TyS-Record", "typedef record {bit<8> a; bool a;} R;"),
    ("T-FuncDecl", "control D(in bit<8> x)(bit<8> x) { apply { } }"),
    ("TS-Assign", "bit<8> g() { return 1w8; } bit<8> h() { return g(); } "
     + _CTL.format(decls="", body="g := h;")),
]


def _read(name):
    return (FIXTURES / name).read_text()


def _packet_outcome(program, port, payload):
    cp = ControlPlane()
    load_control_plane_json(cp, _read("source_routing_cp.json"))
    try:
        return vars(run_packet(program, cp, payload, port))
    except PcoreError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _soundness(seed):
    obs = run_soundness_case(generate_typed_program(GenConfig(seed=seed)))
    return [obs["steps"], obs["locations"], obs["exited"], obs["machine_ok"]]


def _gen_programs():
    return [
        *(generate_typed_program(GenConfig(seed=s)) for s in GEN_SEEDS),
        *(generate_typed_program(GenConfig(seed=s, unions=True))
          for s in GEN_SEEDS),
        *(generate_union_program(s) for s in UNION_SEEDS),
    ]


def _gen_sha256(programs):
    """One hash over the generators' output as trees, so that a change to
    what they generate shows."""
    return hashlib.sha256(
        json.dumps([to_obj(p) for p in programs]).encode()).hexdigest()


def _gen_text_sha256(programs):
    """One hash over the generators' output as printed source, which a
    change to the tree's node classes alone does not move."""
    return hashlib.sha256(
        "".join(pretty_program(p) for p in programs).encode()).hexdigest()


def token_mutants(seed, count=25):
    """`count` edits of generated program `seed`, each deleting, inserting
    or swapping one token, as text."""
    rng = random.Random(seed)
    text = pretty_program(generate_typed_program(GenConfig(seed=seed)))
    lexemes = [t.lexeme for t in lex(text)[:-1]]
    for _ in range(count):
        mutant = list(lexemes)
        i, j = rng.randrange(len(mutant)), rng.randrange(len(mutant))
        match rng.randrange(3):
            case 0:
                del mutant[i]
            case 1:
                mutant.insert(i, rng.choice(MUTATION_INSERTS))
            case 2:
                mutant[i], mutant[j] = mutant[j], mutant[i]
        yield " ".join(mutant)


def _front_end(text):
    """The tokens of text (kind, lexeme, value, position) and its parsed
    tree, with a lex or parse error's text in place of what it stopped."""
    try:
        tokens = lex(text)
    except LexError as exc:
        return str(exc)
    try:
        tree = to_obj(Parser(tokens).parse_program())
    except ParseError as exc:
        tree = str(exc)
    return [[[t.kind, t.lexeme, t.value, t.pos] for t in tokens], tree]


def _front_end_texts(programs):
    """The fixtures, the printed typed programs, their token mutants and
    the lexer's edges."""
    return [
        _read("source_routing.pcore"), _read("option_union.pcore"),
        *map(pretty_program, programs[:len(GEN_SEEDS)]),
        *(m for seed in MUTANT_SEEDS for m in token_mutants(seed)),
        *LEXER_EDGES,
    ]


def _front_end_sha256(texts):
    """One hash over what the lexer and the parser make of the front end's
    texts, which pins token and error positions that `to_obj` drops."""
    return hashlib.sha256(
        json.dumps([_front_end(t) for t in texts]).encode()).hexdigest()


def check_verdict(text):
    """The checker's verdict on text, on the target's natives: "ok", or
    the [rule, position, message] that rejects it; None if it does not
    parse."""
    try:
        program = parse_program(text)
    except (LexError, ParseError):
        return None
    try:
        check_program(program, gamma=GAMMA0)
    except TypeError_ as exc:
        return [exc.rule, exc.pos, exc.msg]
    return "ok"


def _check_sha256(texts):
    """One hash over the checker's verdicts on the front end's texts that
    parse and on the ill-typed programs."""
    verdicts = [check_verdict(t) for t in texts]
    verdicts += [check_verdict(text) for _, text in ILL_TYPED]
    return hashlib.sha256(json.dumps(
        [v for v in verdicts if v is not None]).encode()).hexdigest()


def compute_corpus():
    programs = _gen_programs()
    texts = _front_end_texts(programs)
    routing = parse_program(_read("source_routing.pcore"))
    return {
        "stf": run_stf(_read("source_routing.pcore"),
                       _read("source_routing.stf")).to_obj(),
        "ast_sha256": {
            name: hashlib.sha256(json.dumps(
                to_obj(parse_program(_read(name))), indent=2
            ).encode()).hexdigest()
            for name in ("source_routing.pcore", "option_union.pcore")
        },
        "soundness": {str(seed): _soundness(seed) for seed in SOUNDNESS_SEEDS},
        "unions": {
            str(seed): [
                diff_union_semantics(generate_union_program(seed),
                                     translator)["pass"]
                for translator in (Translator(), WrongTagTranslator())
            ]
            for seed in UNION_SEEDS
        },
        "packets": {
            f"{port}/{payload}": _packet_outcome(routing, port, payload)
            for port, payload in PACKETS
        },
        "gen_sha256": _gen_sha256(programs),
        "gen_text_sha256": _gen_text_sha256(programs),
        "front_end_sha256": _front_end_sha256(texts),
        "check_sha256": _check_sha256(texts),
    }


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(compute_corpus(), indent=1) + "\n")
    print(f"wrote {CORPUS}")
