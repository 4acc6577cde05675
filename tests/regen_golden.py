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
from pathlib import Path

from pcore.errors import PcoreError
from pcore.gen import (
    GenConfig, generate_typed_program, generate_union_program,
    run_soundness_case,
)
from pcore.parser import parse_program
from pcore.stf import run_packet, run_stf
from pcore.syntax import to_obj
from pcore.target import ControlPlane, load_control_plane_json
from pcore.unions import Translator, WrongTagTranslator, diff_union_semantics

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "pcore" / "fixtures"
CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"
SOUNDNESS_SEEDS = range(200)
UNION_SEEDS = range(100)
# (ingress port, hex payload) on the source-routing fixture: an empty
# packet, one nibble, a hop stack cut short, and nine hops plus a payload
PACKETS = [(0, ""), (0, "0"), (0, "0204"), (0, "02040608020406080BAB")]


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


def compute_corpus():
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
    }


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(compute_corpus(), indent=1) + "\n")
    print(f"wrote {CORPUS}")
