"""Packet-test harness: script parsing and end-to-end fixture runs."""

from pathlib import Path

import pytest

import pcore
from pcore.errors import StfParseError
from pcore.stf import AddCmd, ExpectCmd, PacketCmd, parse_stf, run_stf

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

    def test_unknown_command(self):
        with pytest.raises(StfParseError):
            parse_stf("inject 0 FF\n")


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
