"""Target layer: packet state, natives, control plane, and havoc oracle."""

import json

import pytest

from pcore import typecheck
from pcore.errors import (
    ControlPlaneError, PcoreError, TargetError, UnknownTable,
    UnsupportedMatchKind,
)
from pcore.interp import eval_program
from pcore.parser import parse_program
from pcore.syntax import BoolV, HeaderV, IntV, MemberV
from pcore.target import (
    ControlPlane, HavocOracle, PacketState, ThreeStageLiteTarget,
    bits_to_hex, hex_to_bits, load_control_plane_json, parse_havoc,
    three_stage_lite_bootstrap,
)
from pcore.syntax import ActionRef, BitT


def run_packet_program(text, packet="", port=0, havoc=None, cp=None):
    program = parse_program(text)
    sigma0, gamma0, delta0, make_machine = three_stage_lite_bootstrap()
    typecheck.check_program(program, sigma0, gamma0, delta0)
    machine = make_machine(packet, port, havoc, 10**6)
    eval_program(cp, delta0.copy(), machine, program)
    return machine


class TestBits:
    def test_hex_round_trip(self):
        for s in ["", "00", "FF", "0102", "DEADBEEF"]:
            assert bits_to_hex(hex_to_bits(s)) == s

    def test_read_past_end(self):
        pkt = PacketState("AB")
        pkt.read_bits(8)
        with pytest.raises(TargetError):
            pkt.read_bits(1)

    def test_output_includes_unconsumed(self):
        pkt = PacketState("ABCD")
        pkt.read_bits(8)
        pkt.write_bits(0x12, 8)
        assert pkt.output_hex() == "12CD"


class TestNatives:
    def test_extract_and_emit(self):
        m = run_packet_program(
            "typedef header {bit<4> a; bit<4> b;} H;\n"
            "H h;\n"
            "{} f() {extract_bits<:H:>(h); emit_bits<:H:>(h);}\n"
            "{} r := f();\n",
            packet="5A",
        )
        h = m.store[m.env["h"]]
        assert h.valid and h.fields[0][2] == IntV(5, 4)
        assert m.target.packet.output_hex() == "5A"

    def test_emit_skips_invalid(self):
        m = run_packet_program(
            "typedef header {bit<8> a;} H;\n"
            "H h;\n"
            "{} f() {emit_bits<:H:>(h);}\n"
            "{} r := f();\n",
        )
        assert m.target.packet.output_hex() == ""

    def test_ingress_egress_drop(self):
        m = run_packet_program(
            "{} f() {set_egress(get_ingress() + 1w8);}\n{} r := f();\n",
            port=4,
        )
        assert m.target.packet.egress == 5
        m2 = run_packet_program("{} f() {drop();}\n{} r := f();\n")
        assert m2.target.packet.dropped

    def test_validity_natives(self):
        m = run_packet_program(
            "typedef header {bit<8> a;} H;\n"
            "H h;\n"
            "bool v0 := is_valid<:H:>(h);\n"
            "{} f() {set_valid<:H:>(h);}\n"
            "{} r := f();\n"
            "bool v1 := is_valid<:H:>(h);\n"
        )
        assert m.store[m.env["v0"]] == BoolV(False)
        assert m.store[m.env["v1"]] == BoolV(True)

    def test_push_pop_front(self):
        m = run_packet_program(
            "bit<8>[3] s;\n"
            "{} f() {\n"
            "  s[0w32] := 1w8; s[1w32] := 2w8; s[2w32] := 3w8;\n"
            "  pop_front<:bit<8>[3]:>(s, 1);\n"
            "}\n"
            "{} r := f();\n"
        )
        vals = [v.value for v in m.store[m.env["s"]].values]
        assert vals == [2, 3, 0]

    def test_extract_whole_stack(self):
        m = run_packet_program(
            "typedef header {bit<8> a;} H;\n"
            "H[2] s;\n"
            "{} f() {extract_bits<:H[2]:>(s);}\n"
            "{} r := f();\n",
            packet="0102",
        )
        s = m.store[m.env["s"]]
        assert [h.fields[0][2].value for h in s.values] == [1, 2]
        assert all(h.valid for h in s.values)


class TestControlPlane:
    def actions(self):
        return (ActionRef("hit", (), (("v", BitT(8)),)), ActionRef("miss", (), ()))

    def test_unknown_table(self):
        cp = ControlPlane()
        with pytest.raises(UnknownTable):
            cp.lookup(99, [], [], self.actions())

    def test_default_when_no_rules(self):
        cp = ControlPlane()
        cp.register(1, "t", self.actions())
        assert cp.lookup(1, [IntV(0, 8)], ["exact"], self.actions()) == \
            ("miss", ())

    def test_rule_match_and_args(self):
        cp = ControlPlane()
        cp.add_rule("t", ["0x0A"], "hit", ["7"])
        cp.register(1, "t", self.actions())
        name, args = cp.lookup(1, [IntV(10, 8)], ["exact"], self.actions())
        assert name == "hit" and args == (IntV(7, 8),)

    def test_rules_added_after_register(self):
        cp = ControlPlane()
        cp.register(1, "t", self.actions())
        cp.add_rule("t", ["1"], "hit", ["2"])
        name, _ = cp.lookup(1, [IntV(1, 8)], ["exact"], self.actions())
        assert name == "hit"

    def test_non_exact_kind_rejected_with_rules(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "hit", ["2"])
        cp.register(1, "t", self.actions())
        with pytest.raises(UnsupportedMatchKind):
            cp.lookup(1, [IntV(1, 8)], ["ternary"], self.actions())

    def test_bad_action_name(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "nope", [])
        cp.register(1, "t", self.actions())
        with pytest.raises(ControlPlaneError):
            cp.lookup(1, [IntV(1, 8)], ["exact"], self.actions())

    def test_key_kinds(self):
        cp = ControlPlane()
        cp.add_rule("t", ["true", "red"], "hit", ["0"])
        cp.register(1, "t", self.actions())
        name, _ = cp.lookup(
            1, [BoolV(True), MemberV("Color", "red")],
            ["exact", "exact"], self.actions(),
        )
        assert name == "hit"

    def test_json_loader(self):
        cp = ControlPlane()
        load_control_plane_json(cp, json.dumps([
            {"table": "t", "keys": ["3"], "action": "hit", "args": ["9"]},
        ]))
        cp.register(1, "t", self.actions())
        name, args = cp.lookup(1, [IntV(3, 8)], ["exact"], self.actions())
        assert name == "hit" and args == (IntV(9, 8),)


class TestHavocOracle:
    def test_zero_mode_is_default(self):
        from pcore import ops
        from pcore.gen import generate_type
        import random

        rng = random.Random(5)
        oracle = HavocOracle("zero")
        for _ in range(50):
            t = generate_type(rng)
            try:
                dflt = ops.init_value(t)
            except Exception:
                continue
            assert oracle.havoc(t) == dflt

    def test_seeded_deterministic(self):
        a = HavocOracle("seeded", 3)
        b = HavocOracle("seeded", 3)
        for t in [BitT(8), BitT(3)]:
            assert a.havoc(t) == b.havoc(t)

    def test_seeded_draws_well_typed(self):
        from pcore.gen import generate_type
        import random

        rng = random.Random(7)
        oracle = HavocOracle("seeded", 1)
        delta = typecheck.initial_delta()
        for i in range(100):
            t = generate_type(rng)
            v = oracle.draw(t, i)
            assert typecheck.check_value({}, {}, delta, v, t)

    def test_parse_havoc(self):
        assert parse_havoc("zero") == ("zero", 0)
        assert parse_havoc("seed:7") == ("seeded", 7)
        for bad in ("bogus", "seed:x", "seeded:3", "seed:", ""):
            with pytest.raises(PcoreError):
                parse_havoc(bad)
