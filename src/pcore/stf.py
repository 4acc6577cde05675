"""Packet-test harness: STF-style scripts against the three-stage-lite
target.

Script grammar (line oriented, `#` comments):
    add TABLE KEY:VAL ... ACTION(ARG, ...)
    packet PORT HEXBYTES
    expect PORT HEXBYTES
Dotted table/action paths are resolved by their last component.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import StfParseError
from .parser import parse_program
from .interp import ENTRY_NAME, run_program  # noqa: F401 (re-export)
from .target import (
    GAMMA0, ControlPlane, HavocOracle, make_machine, parse_havoc,
)
from . import typecheck


@dataclass(frozen=True)
class AddCmd:
    table: str
    keys: tuple  # (key name, value string) pairs
    action: str
    args: tuple


@dataclass(frozen=True)
class PacketCmd:
    port: int
    payload: str


@dataclass(frozen=True)
class ExpectCmd:
    port: int
    payload: str


def parse_stf(text):
    cmds = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            match parts[0]:
                case "add":
                    cmds.append(_parse_add(parts))
                case "packet":
                    cmds.append(PacketCmd(int(parts[1]), _hex(parts, lineno)))
                case "expect":
                    cmds.append(ExpectCmd(int(parts[1]), _hex(parts, lineno)))
                case other:
                    raise StfParseError(f"line {lineno}: unknown command {other!r}")
        except (IndexError, ValueError) as exc:
            raise StfParseError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
    return cmds


def _hex(parts, lineno):
    payload = parts[2] if len(parts) > 2 else ""
    if not re.fullmatch(r"[0-9a-fA-F]*", payload) or len(payload) % 2:
        raise StfParseError(f"line {lineno}: bad hex payload {payload!r}")
    return payload.upper()


def _parse_add(parts):
    table = parts[1].split(".")[-1]
    keys = []
    i = 2
    while i < len(parts) and ":" in parts[i] and "(" not in parts[i]:
        kname, val = parts[i].split(":", 1)
        keys.append((kname.split(".")[-1], val))
        i += 1
    call = " ".join(parts[i:])
    m = re.fullmatch(r"([\w.$]+)\(([^)]*)\)", call)
    if not m:
        raise StfParseError(f"bad action call {call!r}")
    action = m.group(1).split(".")[-1]
    args = tuple(a.strip() for a in m.group(2).split(",") if a.strip())
    return AddCmd(table, tuple(keys), action, args)


@dataclass
class PacketOutcome:
    port_in: int
    payload_in: str
    egress: object  # int or None
    payload_out: str
    dropped: bool
    steps: int


@dataclass
class ExpectVerdict:
    port: int
    payload: str
    ok: bool
    actual: str


@dataclass
class RunReport:
    packets: list = field(default_factory=list)
    expects: list = field(default_factory=list)

    @property
    def passed(self):
        return all(v.ok for v in self.expects)

    def to_obj(self):
        return {
            "packets": [vars(p) for p in self.packets],
            "expects": [vars(e) for e in self.expects],
            "passed": self.passed,
        }


def run_packet(program, cp, packet_hex, port, havoc_oracle=None,
               max_steps=10**6):
    """Fresh machine, one packet through the entry instance."""
    machine = make_machine(packet_hex, port, havoc_oracle, max_steps)
    run_program(cp, machine, program, entry=True)
    pkt = machine.target.packet
    return PacketOutcome(
        port_in=port,
        payload_in=packet_hex.upper(),
        egress=pkt.egress,
        payload_out=pkt.output_hex(),
        dropped=pkt.dropped,
        steps=machine.steps,
    )


def run_stf(program_text, stf_text, havoc="zero", max_steps=10**6):
    """Run a script's commands in order; havoc is a `zero` or `seed:N` spec,
    and each packet gets a fresh oracle built from it."""
    havoc_mode, havoc_seed = parse_havoc(havoc)
    program = parse_program(program_text)
    typecheck.check_program(program, gamma=GAMMA0)
    cp = ControlPlane()
    report = RunReport()
    outputs = []
    for c in parse_stf(stf_text):
        match c:
            case AddCmd(table, keys, action, args):
                cp.add_rule(table, [v for _, v in keys], action, args)
            case PacketCmd(port, payload):
                oracle = HavocOracle(havoc_mode, havoc_seed)
                out = run_packet(program, cp, payload, port, oracle, max_steps)
                report.packets.append(out)
                if not out.dropped:
                    outputs.append(out)
            case ExpectCmd(port, payload):
                if len(report.expects) < len(outputs):
                    actual = outputs[len(report.expects)]
                    ok = actual.egress == port and actual.payload_out == payload
                    shown = f"port {actual.egress} {actual.payload_out}"
                else:
                    ok = False
                    shown = "<no packet>"
                report.expects.append(ExpectVerdict(port, payload, ok, shown))
    return report
