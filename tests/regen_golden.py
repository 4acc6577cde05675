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

from pcore.errors import LexError, ParseError, PcoreError
from pcore.gen import (
    GenConfig, generate_typed_program, generate_union_program,
    run_soundness_case,
)
from pcore.lexer import lex
from pcore.parser import Parser, parse_program
from pcore.pretty import pretty_program
from pcore.stf import run_packet, run_stf
from pcore.syntax import to_obj
from pcore.target import ControlPlane, load_control_plane_json
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


def _front_end_sha256(programs):
    """One hash over what the lexer and the parser make of the fixtures,
    the printed typed programs, their token mutants and the lexer's edges,
    which pins token and error positions that `to_obj` drops."""
    texts = [
        _read("source_routing.pcore"), _read("option_union.pcore"),
        *map(pretty_program, programs[:len(GEN_SEEDS)]),
        *(m for seed in MUTANT_SEEDS for m in token_mutants(seed)),
        *LEXER_EDGES,
    ]
    return hashlib.sha256(
        json.dumps([_front_end(t) for t in texts]).encode()).hexdigest()


def compute_corpus():
    programs = _gen_programs()
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
        "front_end_sha256": _front_end_sha256(programs),
    }


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(compute_corpus(), indent=1) + "\n")
    print(f"wrote {CORPUS}")
