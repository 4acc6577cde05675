"""Packet-test harness: script parsing and end-to-end fixture runs."""

from collections import Counter
from pathlib import Path

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import pcore
from pcore import stf, typecheck
from pcore.errors import (
    ControlPlaneError, EvalError, PcoreError, StfParseError, TargetError,
)
from pcore.interp import run_program
from pcore.parser import parse_program
from pcore.pretty import pretty_program
from pcore.stf import (
    AddCmd, ExpectCmd, PacketCmd, parse_stf, run_case, run_stf,
)
from pcore.syntax import (
    ActionRef, BitT, BoolV, Delta, EnumT, FunT, IntV, MemberV, NativeV,
)
from pcore.target import (
    GAMMA0, NATIVES, ControlPlane, HavocOracle, load_control_plane_json,
    make_machine,
)

FIXTURES = Path(pcore.__file__).parent / "fixtures"
PROGRAM = (FIXTURES / "source_routing.pcore").read_text()
SCRIPT = (FIXTURES / "source_routing.stf").read_text()


class TestParse:
    def test_commands(self):
        cmds = parse_stf(
            "# comment\n"
            "add main.acl main.acl.ingress:0 main.acl.egress:1 main.allow()\n"
            "packet 0 03FF\n"
            "expect 1 FF\n"
        )
        assert cmds == [
            AddCmd("acl", (("ingress", "0"), ("egress", "1")), "allow", ()),
            PacketCmd(0, "03FF"),
            ExpectCmd(1, "FF"),
        ]

    def test_action_args(self):
        (cmd,) = parse_stf("add t k:1 act(3, 4)\n")
        assert cmd.args == ("3", "4")

    def test_bad_hex(self):
        with pytest.raises(StfParseError):
            parse_stf("packet 0 ABC\n")  # odd nibble count
        with pytest.raises(StfParseError):
            parse_stf("packet 0 XYZ\n")

    @pytest.mark.parametrize("line, why", [
        ("packet 256 FF", "port 256 is not in 0-255"),
        ("expect -1 FF", "port -1 is not in 0-255"),
        ("expect 1 ABC", "packet 'ABC' is not whole bytes"),
        ("packet 0 0x1F", "packet '0x1F' is not hex digits"),
        ("inject 0 FF", "unknown command 'inject'"),
        # one hex word: a space would have cut the bytes after it
        ("packet 0 03 FF", "extra field 'FF': hex bytes take no spaces"),
        ("expect 1 FF extra", "extra field 'extra': hex bytes take no spaces"),
        ("expect 1 FF 00 # c", "extra field '00': hex bytes take no spaces"),
        ("packet 0 \u00e9F", "not ASCII"),
        ("add\u3000acl ingress:1 egress:2 allow()", "not ASCII"),
    ])
    def test_every_error_names_its_line(self, line, why):
        with pytest.raises(StfParseError,
                           match=f"^line 2: {re.escape(repr(line))}: "
                                 f"{re.escape(why)}$"):
            parse_stf(f"packet 0 FF\n{line}\n")

    @pytest.mark.parametrize("line", [
        "\u3000add acl ingress:1 egress:2 allow()",
        "add acl ingress:1 egress:2 allow()\xa0",
        "\xa0",
    ])
    def test_non_ascii_white_space_is_rejected_anywhere(self, line):
        # the message quotes the line as written, padding included
        with pytest.raises(StfParseError,
                           match=f"^line 2: {re.escape(repr(line))}: not ASCII$"):
            parse_stf(f"packet 0 FF\n{line}\n")

    def test_a_comment_may_hold_non_ascii(self):
        assert parse_stf("packet 0 00 # caf\u00e9\n") == [PacketCmd(0, "00")]

    def test_unknown_command(self):
        with pytest.raises(StfParseError):
            parse_stf("inject 0 FF\n")

    @pytest.mark.parametrize("line, field", [
        ("add", "table"), ("add t", "action"), ("add t k:1", "action"),
        ("packet", "port"), ("expect", "port"),
    ])
    def test_missing_field_is_named(self, line, field):
        with pytest.raises(StfParseError,
                           match=f"^line 2: '{line}': missing {field}$"):
            parse_stf(f"packet 0 FF\n{line}\n")

    # the `add` grammar: keys are the words after the table that hold a `:`
    # and no `(`; the rest of the line is one action call
    @pytest.mark.parametrize("line, cmd", [
        ("add t k:1 act(3, 4)", AddCmd("t", (("k", "1"),), "act", ("3", "4"))),
        ("add t k:1 act( 3 ,, 4 )", AddCmd("t", (("k", "1"),), "act", ("3", "4"))),
        ("add main.t main.t.k:1 main.c.$a_1(x)",
         AddCmd("t", (("k", "1"),), "$a_1", ("x",))),
        ("add t k:1 a()  # k:2 b(3)", AddCmd("t", (("k", "1"),), "a", ())),
        ("add t a( )", AddCmd("t", (), "a", ())),
        ("add t k:1:2 a()", AddCmd("t", (("k", "1:2"),), "a", ())),
        ("add t k: a()", AddCmd("t", (("k", ""),), "a", ())),
        ("add t k:1 a(b:2)", AddCmd("t", (("k", "1"),), "a", ("b:2",))),
        # a `(` in key position starts the call
        ("add t k(:1 a()", AddCmd("t", (), "k", (":1 a(",))),
    ])
    def test_add_lines(self, line, cmd):
        assert parse_stf(f"{line}\n") == [cmd]

    @pytest.mark.parametrize("line, why", [
        ("add t k:1", "missing action"),
        ("add t k:1  # a()", "missing action"),
        ("add t k:1 a(", "bad action call 'a('"),
        ("add t k:1 (k:2) a()", "bad action call '(k:2) a()'"),
        ("add t k:1 a(1) b()", "bad action call 'a(1) b()'"),
        ("add t k:1 a-b()", "bad action call 'a-b()'"),
    ])
    def test_bad_add_lines(self, line, why):
        with pytest.raises(StfParseError,
                           match=f"^line 2: {re.escape(repr(line))}: "
                                 f"{re.escape(why)}$"):
            parse_stf(f"packet 0 FF\n{line}\n")

    def test_commands_compare_by_class(self):
        assert PacketCmd(1, "FF") == PacketCmd(1, "FF")
        assert PacketCmd(1, "FF") != ExpectCmd(1, "FF")


class TestSourceRouting:
    def test_fixture_passes(self):
        report = run_stf(PROGRAM, SCRIPT)
        assert report.passed

    def test_forwarded_packet(self):
        report = run_stf(PROGRAM, SCRIPT)
        first = report.packets[0]
        assert first.egress == 1
        assert first.payload_out == "FF"
        assert not first.dropped

    def test_unmatched_packet_dropped(self):
        report = run_stf(PROGRAM, SCRIPT)
        assert report.packets[1].dropped

    def test_two_hop_route(self):
        # 0x04 = hop(port=2, bos=0), 0x03 = hop(port=1, bos=1): egress is the
        # first hop (2), and the remaining hop is re-emitted before payload
        script = (
            "add main.acl main.acl.ingress:0 main.acl.egress:2 main.allow()\n"
            "packet 0 0403AB\n"
            "expect 2 03AB\n"
        )
        report = run_stf(PROGRAM, script)
        assert report.passed, [vars(v) for v in report.expects]

    def test_add_takes_effect_in_script_order(self):
        script = (
            "packet 0 03FF\n"
            "add main.acl main.acl.ingress:0 main.acl.egress:1 main.allow()\n"
            "packet 0 03FF\n"
        )
        before, after = run_stf(PROGRAM, script).packets
        assert before.dropped
        assert not after.dropped and after.egress == 1

    def test_missing_output_fails_expect(self):
        script = "packet 0 05FF\nexpect 1 FF\n"  # packet gets dropped
        report = run_stf(PROGRAM, script)
        assert not report.passed

    def test_report_serializes(self):
        obj = run_stf(PROGRAM, SCRIPT).to_obj()
        assert obj["passed"] is True
        assert obj["packets"][0]["egress"] == 1


class TestRuntimeWidths:
    # header field widths name a constant, so instantiating the header type
    # evaluates width expressions against the store
    PROGRAM = (
        "const int w = 4;\n"
        "typedef header {bit<w> a; bit<w + 4> b;} h_t;\n"
        "control Main() {\n"
        "  h_t h;\n"
        "  apply {\n"
        "    extract_bits<:h_t:>(h);\n"
        "    set_egress((bit<8>) h.a);\n"
        "    emit_bits<:h_t:>(h);\n"
        "  }\n"
        "}\n"
        "Main() main;\n"
    )

    def test_width_expressions(self):
        # 0x3 in the 4-bit field, 0xAB in the 8-bit field, 4 bits left over
        report = run_stf(self.PROGRAM, "packet 0 3ABC\nexpect 3 3ABC\n")
        assert report.passed, [vars(v) for v in report.expects]
        (out,) = report.packets
        assert (out.egress, out.payload_out) == (3, "3ABC")


class TestInstantiatePerPacket:
    def test_instantiation_reads_each_packet(self):
        # a store kept from the first packet's instantiation would send
        # both packets to port 3
        program = ("bit<8> first := get_ingress();\n"
                   "control Main() { apply { set_egress(first); } }\n"
                   "Main() main;\n")
        report = run_stf(program, "packet 3 00\npacket 5 00\n")
        assert [p.egress for p in report.packets] == [3, 5]


class TestControlPlaneArgTypes:
    # control-plane parameter types are run-time types: a width naming a
    # constant, a typedef name and an open enumeration all take rule args
    PROGRAM = (
        "error {Later}\n"
        "const int W = 8;\n"
        "typedef bit<8> port_t;\n"
        "control Main() {\n"
        "  {} fwd(in bit<W> p) { set_egress(p); }\n"
        "  {} fwd2(in port_t p) { set_egress(p); }\n"
        "  {} fwd3(in error e) { if (e == error.Later) { set_egress(9w8); } }\n"
        "  {} fwd4(in int n) { set_egress((bit<8>) (n + 10)); }\n"
        "  {} deny() { drop(); }\n"
        "  table t {\n"
        "    key = {get_ingress() : exact;}\n"
        "    actions = {fwd(; p: bit<W>); fwd2(; p: port_t); fwd3(; e: error);"
        " fwd4(; n: int); deny();}\n"
        "  }\n"
        "  apply { t(); }\n"
        "}\n"
        "Main() main;\n"
    )

    @pytest.mark.parametrize("call, egress", [
        ("fwd(3)", 3), ("fwd2(4)", 4), ("fwd3(Later)", 9), ("fwd3(NoError)", None),
        # an int takes any sign: -7 + 10 = 3, and -12 + 10 = -2 wraps to 254
        ("fwd4(-7)", 3), ("fwd4(-12)", 254),
    ])
    def test_args_of_each_type(self, call, egress):
        (out,) = run_stf(self.PROGRAM, f"add t k:5 {call}\npacket 5 00\n").packets
        assert out.egress == egress

    @pytest.mark.parametrize("call", ["fwd(256)", "fwd2(zz)", "fwd3(Nope)"])
    def test_args_out_of_type(self, call):
        with pytest.raises(ControlPlaneError, match="is not a value of type"):
            run_stf(self.PROGRAM, f"add t k:5 {call}\npacket 5 00\n")


class TestStaticActionArgs:
    # a constructor parameter, a static action argument and a control-plane
    # argument add up to the egress port: 10 + 2 + 5
    PROGRAM = (
        "control Fwd()(bit<8> base) {\n"
        "  {} fwd(in bit<8> extra, in bit<8> port) "
        "{ set_egress(base + extra + port); }\n"
        "  {} deny() { drop(); }\n"
        "  table t {\n"
        "    key = {get_ingress() : exact;}\n"
        "    actions = {fwd(2w8; port: bit<8>); deny();}\n"
        "  }\n"
        "  apply { t(); }\n"
        "}\n"
        "Fwd(10w8) f;\n"
        "control Main() { apply { f(); } }\n"
        "Main() main;\n"
    )

    def test_packets(self):
        report = run_stf(self.PROGRAM, "add t ingress:0 fwd(5)\n"
                         "packet 0 AB\nexpect 17 AB\npacket 1 AB\n")
        assert report.passed
        assert [(p.egress, p.payload_out, p.dropped) for p in report.packets] \
            == [(17, "AB", False), (None, "AB", True)]

    def test_printer_round_trip(self):
        program = parse_program(self.PROGRAM)
        assert parse_program(pretty_program(program)) == program


class TestFirstLookupKeyTyping:
    """A rule's keys are decoded when it is added, and typed at the first
    lookup of its table name with given key types."""
    ACTIONS = (ActionRef("hit", (), (("v", BitT(8)),)), ActionRef("miss", (), ()))
    DELTA = Delta().bind("Color", EnumT("Color", ("red", "green")))

    def lookup(self, cp, key_vals):
        return cp.lookup("t", key_vals, ["exact"] * len(key_vals), self.ACTIONS,
                         self.DELTA)

    @pytest.mark.parametrize("keys, key_vals, why", [
        (["256"], [IntV(1, 8)], "rule key 256 is not a value of type bit<8>"),
        (["-1"], [IntV(1, 8)], "rule key -1 is not a value of type bit<8>"),
        (["true"], [IntV(1, 8)], "rule key True is not a value of type bit<8>"),
        (["1"], [BoolV(True)], "rule key 1 is not a value of type bool"),
        (["purple"], [MemberV("Color", "red")],
         "rule key 'purple' is not a value of type Color"),
        (["1", "2"], [IntV(1, 8)], "rule has 2 keys, table has 1"),
        (["1"], [IntV(1, 8), BoolV(True)], "rule has 1 keys, table has 2"),
    ])
    def test_ill_typed_keys(self, keys, key_vals, why):
        cp = ControlPlane()
        cp.add_rule("t", keys, "hit", ["7"])  # decoded, not yet typed
        with pytest.raises(ControlPlaneError, match=f"^{re.escape(why)}$"):
            self.lookup(cp, key_vals)

    def test_rule_added_after_a_lookup_is_typed_at_the_next(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "hit", ["7"])
        assert self.lookup(cp, [IntV(2, 8)]) == ("miss", ())
        cp.add_rule("t", ["256"], "hit", ["7"])
        with pytest.raises(ControlPlaneError, match="^rule key 256 "):
            self.lookup(cp, [IntV(2, 8)])

    def test_keys_are_typed_per_key_types(self):
        cp = ControlPlane()
        cp.add_rule("t", ["256"], "hit", ["7"])
        assert self.lookup(cp, [IntV(256, 16)]) == ("hit", (IntV(7, 8),))
        with pytest.raises(ControlPlaneError, match="^rule key 256 "):
            self.lookup(cp, [IntV(1, 8)])

    def test_first_of_equal_keys_wins(self):
        cp = ControlPlane()
        cp.add_rule("t", ["1"], "hit", ["7"])
        cp.add_rule("t", ["0x1"], "hit", ["9"])
        assert self.lookup(cp, [IntV(1, 8)]) == ("hit", (IntV(7, 8),))


class TestOneCheckPerScript:
    """parse_stf checks each packet and expect line, and run_stf checks the
    program's entry once, when it reaches its first packet line."""

    NO_MAIN = "bit<8> x := 1w8;"

    def test_each_check_runs_once(self, monkeypatch):
        calls = Counter()

        def counting(name):
            fn = getattr(stf, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted
        for name in ("check_entry", "check_packet"):
            monkeypatch.setattr(stf, name, counting(name))
        assert run_stf(PROGRAM, SCRIPT).passed
        # the fixture's script has two packet lines and one expect line
        assert calls == {"check_entry": 1, "check_packet": 3}

    def test_a_script_without_packets_needs_no_entry(self):
        report = run_stf(self.NO_MAIN, "add t k:1 a()\n")
        assert report.passed and report.packets == []

    def test_the_first_packet_needs_an_entry(self):
        with pytest.raises(EvalError, match="program has no instance named "
                           "'main' to run"):
            run_stf(self.NO_MAIN, "add t k:1 a()\npacket 0 00\n")

    def test_a_bad_packet_line_is_rejected_before_any_packet_runs(self):
        # had the first packet run, its missing entry would be the error
        with pytest.raises(StfParseError, match="line 2: 'packet 0 0'"):
            run_stf(self.NO_MAIN, "packet 0 00\npacket 0 0\n")


def test_machines_hold_equal_natives():
    a, b = make_machine("00", 0), make_machine("FFFF", 3)
    for name, (tps, params, ret, _) in NATIVES.items():
        assert (a.store[a.env[name]] == b.store[b.env[name]]
                == NativeV(name, FunT(tps, params, ret)))


def test_case_runner_signals():
    # the one case runner runs main when it is declared, and a target error
    # (extract_bits on the empty packet) ends the run as its signal
    exits = parse_program("control M() { apply { exit; } }\nM() main;")
    short = parse_program(
        "typedef header {bit<8> a;} H; H h;\n"
        "{} g() { extract_bits<:H:>(h); } {} r := g();")
    assert run_case(exits)[1] == "exit"
    assert run_case(parse_program("bit<8> x := 1w8;"))[1] == "continue"
    machine, signal = run_case(short)
    assert signal == "target error: extract of 8 bits past the end of the " \
        "packet (0 left)" and "r" not in machine.env and "h" in machine.env


# the fixture's script, then a packet on another ingress port, a rule added
# after a packet and a packet that it forwards, and two packets that end in
# a target error: a hop stack cut short and an empty packet
MACHINE_SCRIPT = SCRIPT + (
    "packet 3 03FF\n"
    "add main.acl main.acl.ingress:0 main.acl.egress:2 main.allow()\n"
    "packet 0 05AABB\n"
    "packet 0 02\n"
    "packet 0\n"
)


def test_machine_typing_holds_after_every_packet():
    # the soundness oracle on packet runs, which have tables with rules,
    # natives and a control instance: each machine a packet leaves is typed
    program = parse_program(PROGRAM)
    sigma, gamma, delta = typecheck.check_program(program, gamma=GAMMA0)
    cp = ControlPlane()
    ends = []
    for c in parse_stf(MACHINE_SCRIPT):
        if isinstance(c, AddCmd):
            cp.add_rule(c.table, [v for _, v in c.keys], c.action, c.args)
        elif isinstance(c, PacketCmd):
            machine = make_machine(c.payload, c.port, HavocOracle("zero"))
            g, s = gamma, sigma
            try:
                run_program(cp, machine, program)
                ends.append(machine.target.packet.egress)
            except TargetError:
                # the run stopped early: type the names it bound
                g = {n: t for n, t in g.items() if n in machine.env}
                s = {n: v for n, v in s.items() if n in machine.env}
                ends.append("target error")
            xi = typecheck.build_xi(delta, machine, g)
            assert typecheck.check_machine(xi, s, g, delta, machine), (c, ends)
    assert ends == [1, None, None, 2, "target error", "target error"]


# fragments that steer arbitrary text towards script lines and rule files
STF_WORDS = ["add", "packet", "expect", "main.acl", "k:1", "k:0x1F", "a()",
             "a(1, 2)", "(", ")", ":", ".", ",", "#", "0", "03FF", "-1",
             "1" * 5000]
JSON_WORDS = ['"table"', '"keys"', '"action"', '"args"', '"acl"', "[", "]",
              "{", "}", ":", ",", "1", "1.5", "true", "null", '"1"', '"zz"']
scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=5)
           | st.sampled_from(["true", "false", "0x1F", "300", "-1", "zz", "1.5"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["table", "keys", "action", "args"]),
                      inner, max_size=4),
    max_leaves=12,
)
rule_files = st.lists(st.fixed_dictionaries(
    {"table": st.sampled_from(["t", "u"]),
     "keys": st.lists(scalars, min_size=1, max_size=3),
     "action": st.sampled_from(["a", "b", "c"])},
    optional={"args": st.lists(scalars, max_size=2)},
), min_size=1, max_size=3)


def pieces(words):
    return st.lists(st.sampled_from(words) | st.sampled_from([" ", "\n"])
                    | st.text(max_size=3), max_size=30).map("".join)


class TestArbitraryText:
    @settings(max_examples=200, deadline=None)
    @given(st.text() | pieces(STF_WORDS))
    def test_parse_stf_raises_only_pcore_errors(self, text):
        try:
            parse_stf(text)
        except PcoreError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text() | pieces(JSON_WORDS) | json_values.map(json.dumps))
    def test_rule_loader_raises_only_pcore_errors(self, text):
        try:
            load_control_plane_json(ControlPlane(), text)
        except PcoreError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(rule_files.map(json.dumps))
    def test_loaded_rules_look_up_with_only_pcore_errors(self, text):
        """On a table keyed by a bit<8> and a bool, whose action `a` takes a
        bit<8>."""
        cp = ControlPlane()
        actions = (ActionRef("a", (), (("v", BitT(8)),)), ActionRef("b", (), ()))
        try:
            load_control_plane_json(cp, text)
            for table in cp.rules:
                cp.lookup(table, [IntV(1, 8), BoolV(True)], ["exact"] * 2,
                          actions, Delta())
        except PcoreError:
            pass
