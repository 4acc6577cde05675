"""Target layer: packet state, natives, control plane, and havoc oracle."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from pcore import ops, typecheck
from pcore.errors import (
    ControlPlaneError, PcoreError, TargetError, Uninhabitable,
)
from pcore.gen import generate_type
from pcore.interp import eval_program
from pcore.parser import parse_program
from pcore.syntax import (
    BoolV, Delta, EnumT, IntV, Machine, MemberV, subst_type,
)
from pcore.target import (
    NATIVES, ControlPlane, HavocOracle, PacketState, ThreeStageLiteTarget,
    load_control_plane_json, parse_havoc, three_stage_lite_bootstrap,
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
            assert PacketState(s).output_hex() == s

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


class BitString:
    """Model of a packet: its unread input and its output as strings of
    bits."""

    def __init__(self, hex_payload):
        self.input = "".join(f"{int(c, 16):04b}" for c in hex_payload)
        self.output = ""

    def read_bits(self, n):
        if n > len(self.input):
            raise TargetError("past the end")
        bits, self.input = self.input[:n], self.input[n:]
        return int(bits or "0", 2)

    def write_bits(self, value, n):
        self.output += f"{value:0{n}b}"[-n:] if n else ""

    def output_hex(self):
        bits = self.output + self.input
        bits += "0" * (-len(bits) % 4)
        return "".join(f"{int(bits[i:i + 4], 2):X}"
                       for i in range(0, len(bits), 4))


hex_payloads = st.text("0123456789abcdefABCDEF", max_size=12)
packet_ops = st.lists(st.tuples(
    st.booleans(), st.integers(0, 20), st.integers(0, 1 << 20)), max_size=12)


class TestPacketModel:
    @settings(max_examples=300, deadline=None)
    @given(hex_payloads, packet_ops)
    def test_reads_writes_and_output_match_the_model(self, payload, steps):
        pkt, model = PacketState(payload), BitString(payload)
        for is_read, n, value in steps:
            if is_read:
                try:
                    want = model.read_bits(n)
                except TargetError:
                    with pytest.raises(TargetError):
                        pkt.read_bits(n)
                    continue
                assert pkt.read_bits(n) == want
            else:
                model.write_bits(value, n)
                pkt.write_bits(value, n)
            assert pkt.output_hex() == model.output_hex()
        assert pkt.output_hex() == model.output_hex()


class TestNativeObligations:
    """The target's obligations, which the soundness theorem assumes: a
    native called on well-typed arguments returns a value of its declared
    return type and leaves a value of its declared type in every out and
    inout argument, or raises a TargetError."""

    @pytest.mark.parametrize("name", sorted(NATIVES))
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), payload=hex_payloads,
           ingress=st.integers(0, 300))
    def test_native_keeps_its_signature(self, name, seed, payload, ingress):
        type_params, params, ret, _ = NATIVES[name]
        rng = random.Random(seed)
        delta = typecheck.initial_delta()
        type_args = [generate_type(rng) for _ in type_params]
        tvars = dict(zip(type_params, type_args))
        types = [subst_type(p.type, tvars) for p in params]
        oracle = HavocOracle("seeded", seed)
        machine = Machine(target=ThreeStageLiteTarget(
            PacketState(payload, ingress), oracle))
        try:
            # an out argument arrives holding its type's default value
            locs = [machine.fresh_loc(ops.init_value(t) if p.direction == "out"
                                      else oracle.havoc(t))
                    for p, t in zip(params, types)]
        except Uninhabitable:
            return
        try:
            result = machine.target.dispatch(name, machine, locs, type_args)
        except TargetError:
            return
        check = typecheck.check_value
        assert check({}, {}, delta, result, subst_type(ret, tvars))
        for p, t, loc in zip(params, types, locs):
            if p.direction != "in":
                assert check({}, {}, delta, machine.store[loc], t)


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

    def test_unknown_native_is_a_target_error(self):
        with pytest.raises(TargetError, match="^no native 'nope' on this "
                           "target$"):
            ThreeStageLiteTarget().dispatch("nope", Machine(), [], ())


class TestControlPlane:
    def actions(self):
        return (ActionRef("hit", (), (("v", BitT(8)),)), ActionRef("miss", (), ()))

    def test_default_when_no_rules(self):
        cp = ControlPlane()
        assert cp.lookup("t", [IntV(0, 8)], ["exact"], self.actions(),
                         Delta()) == ("miss", ())

    def test_rule_match_and_args(self):
        cp = ControlPlane()
        cp.add_rule("t", ["0x0A"], "hit", ["7"])
        name, args = cp.lookup("t", [IntV(10, 8)], ["exact"], self.actions(),
                               Delta())
        assert name == "hit" and args == (IntV(7, 8),)

    def test_rules_added_after_a_lookup(self):
        cp = ControlPlane()
        cp.lookup("t", [IntV(1, 8)], ["exact"], self.actions(), Delta())
        cp.add_rule("t", ["1"], "hit", ["2"])
        name, _ = cp.lookup("t", [IntV(1, 8)], ["exact"], self.actions(),
                            Delta())
        assert name == "hit"

    def test_non_exact_kind_rejected_with_rules(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "hit", ["2"])
        with pytest.raises(ControlPlaneError, match="^rules installed on a "
                           "table with unsupported match kind 'ternary'$"):
            cp.lookup("t", [IntV(1, 8)], ["ternary"], self.actions(), Delta())

    def test_bad_action_name(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "nope", [])
        with pytest.raises(ControlPlaneError):
            cp.lookup("t", [IntV(1, 8)], ["exact"], self.actions(), Delta())

    def test_key_kinds(self):
        cp = ControlPlane()
        cp.add_rule("t", ["true", "red"], "hit", ["0"])
        delta = Delta().bind("Color", EnumT("Color", ("red", "green")))
        name, _ = cp.lookup(
            "t", [BoolV(True), MemberV("Color", "red")],
            ["exact", "exact"], self.actions(), delta,
        )
        assert name == "hit"

    def test_json_loader(self):
        cp = ControlPlane()
        load_control_plane_json(cp, json.dumps([
            {"table": "t", "keys": ["3"], "action": "hit", "args": ["9"]},
        ]))
        name, args = cp.lookup("t", [IntV(3, 8)], ["exact"], self.actions(),
                               Delta())
        assert name == "hit" and args == (IntV(9, 8),)

    # a script step: ("add", (k1, k2), action, arg, spelling of the keys)
    # or ("lookup", (k1, k2))
    _keys = st.tuples(st.integers(0, 2), st.integers(0, 1))
    _steps = st.lists(st.one_of(
        st.tuples(st.just("add"), _keys, st.sampled_from(["hit", "miss"]),
                  st.integers(0, 255), st.sampled_from([str, hex])),
        st.tuples(st.just("lookup"), _keys),
    ), min_size=4, max_size=40)

    @settings(max_examples=200, deadline=None)
    @given(steps=_steps)
    def test_lookup_is_the_first_matching_rule(self, steps):
        """The indexed lookup answers what a linear first-match scan over
        the rules added so far answers, with duplicate keys and rules added
        between lookups."""
        cp, model = ControlPlane(), []
        for step in steps:
            if step[0] == "add":
                _, keys, action, arg, spell = step
                args = [str(arg)] if action == "hit" else []
                cp.add_rule("t", [spell(k) for k in keys], action, args)
                model.append((keys, action, args))
                continue
            keys = step[1]
            want = next(((action, tuple(IntV(int(a), 8) for a in args))
                         for rule_keys, action, args in model
                         if rule_keys == keys), ("miss", ()))
            assert cp.lookup("t", [IntV(k, 8) for k in keys], ["exact"] * 2,
                             self.actions(), Delta()) == want

    def test_ill_typed_rule_after_the_hit_raises(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "hit", ["2"])
        assert cp.lookup("t", [IntV(1, 8)], ["exact"], self.actions(),
                         Delta())[0] == "hit"
        cp.add_rule("t", ["true"], "hit", ["2"])
        with pytest.raises(ControlPlaneError):
            cp.lookup("t", [IntV(1, 8)], ["exact"], self.actions(), Delta())
        fresh = ControlPlane()
        fresh.add_rule("t", ["1"], "hit", ["2"])
        fresh.add_rule("t", ["300"], "hit", ["2"])
        with pytest.raises(ControlPlaneError):
            fresh.lookup("t", [IntV(1, 8)], ["exact"], self.actions(), Delta())

    @pytest.mark.parametrize("text", [
        '[{"table": "t"',
        '[{"table": "t", "keys": [["3"]], "action": "hit"}]',
        '[{"table": "t", "keys": [null], "action": "hit"}]',
        '[{"table": "t", "keys": [1.5], "action": "hit"}]',
    ])
    def test_json_loader_rejects(self, text):
        with pytest.raises(ControlPlaneError):
            load_control_plane_json(ControlPlane(), text)


class TestRuleData:
    """Rule keys and arguments are decoded once, into a number, a bool or an
    identifier, and compared with the type they are matched or bound at."""

    def actions(self):
        return (ActionRef("hit", (), (("v", BitT(8)),)), ActionRef("miss", (), ()))

    def lookup(self, rules, key_vals):
        cp = ControlPlane()
        for keys, action, args in rules:
            cp.add_rule("t", keys, action, args)
        return cp.lookup("t", key_vals, ["exact"] * len(key_vals),
                         self.actions(), Delta())

    def hits(self, key, value):
        return self.lookup([([key], "hit", ["1"])], [value])[0] == "hit"

    def test_bool_key_matches_its_own_value_only(self):
        assert self.hits("true", BoolV(True))
        assert not self.hits("true", BoolV(False))
        assert self.hits("false", BoolV(False))
        assert not self.hits("false", BoolV(True))
        assert self.hits(False, BoolV(False))
        for key in ("1", "0"):  # a number is not a bool
            with pytest.raises(ControlPlaneError):
                self.hits(key, BoolV(True))

    def test_arg_count_must_equal_control_plane_params(self):
        with pytest.raises(ControlPlaneError, match="expects 0"):
            self.lookup([(["1"], "miss", ["9"])], [IntV(1, 8)])
        with pytest.raises(ControlPlaneError, match="expects 1"):
            self.lookup([(["1"], "hit", [])], [IntV(1, 8)])

    def test_identifier_for_a_number_is_rejected(self):
        with pytest.raises(ControlPlaneError, match="bit<8>"):
            self.lookup([(["zz"], "hit", ["1"])], [IntV(1, 8)])
        with pytest.raises(ControlPlaneError, match="bit<8>"):
            self.lookup([(["1"], "hit", ["zz"])], [IntV(1, 8)])

    @pytest.mark.parametrize("arg", ["300", "256", "-1"])
    def test_arg_out_of_range_is_rejected(self, arg):
        with pytest.raises(ControlPlaneError, match="bit<8>"):
            self.lookup([(["1"], "hit", [arg])], [IntV(1, 8)])

    def test_key_out_of_range_is_rejected(self):
        with pytest.raises(ControlPlaneError, match="'?300'? is not a value"):
            self.lookup([(["300"], "hit", ["1"])], [IntV(44, 8)])
        # every rule is checked, also one after the rule that matches
        with pytest.raises(ControlPlaneError):
            self.lookup([(["1"], "hit", ["1"]), (["300"], "hit", ["1"])],
                        [IntV(1, 8)])

    @pytest.mark.parametrize("raw", ["1.5", "0xZZ", "", "a-b", 1.5, None,
                                     ["1"], {"k": 1}])
    def test_malformed_datum_rejected_when_added(self, raw):
        with pytest.raises(ControlPlaneError):
            ControlPlane().add_rule("t", [raw], "miss", [])
        with pytest.raises(ControlPlaneError):
            ControlPlane().add_rule("t", ["1"], "hit", [raw])

    def test_deep_json_is_a_control_plane_error(self):
        with pytest.raises(ControlPlaneError):
            load_control_plane_json(ControlPlane(), "[" * 100000)


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
