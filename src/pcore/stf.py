"""Run harnesses: the case runner of the oracles, and the packet harness
with STF-style scripts against the three-stage-lite target.

Script grammar (line oriented, `#` comments):
    add TABLE KEY:VAL ... ACTION(ARG, ...)
    packet PORT HEXBYTES
    expect PORT HEXBYTES
Dotted table/action paths are resolved by their last component.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import PcoreError, StfParseError, TargetError
from .lexer import number
from .parser import parse_program
from .interp import ENTRY_NAME  # noqa: F401 (re-export)
from .interp import MAX_STEPS, check_entry, declares_entry, run_program
from .target import (
    GAMMA0, ControlPlane, HavocOracle, check_packet, make_machine, parse_havoc,
)
from . import typecheck


# One record per script line. Slotted rather than frozen, so one is cheap
# to build; nothing hashes or mutates them.
@dataclass(slots=True)
class AddCmd:
    """`add TABLE KEY:VAL ... ACTION(ARG, ...)`: one control-plane rule."""
    table: str
    keys: tuple  # (key name, value string) pairs
    action: str
    args: tuple


@dataclass(slots=True)
class PacketCmd:
    """`packet PORT HEXBYTES`: send a packet in on a port."""
    port: int
    payload: str


@dataclass(slots=True)
class ExpectCmd:
    """`expect PORT HEXBYTES`: the next packet out, and its port."""
    port: int
    payload: str


def parse_stf(text):
    cmds = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = raw.partition("#")[0]
        parts = code.split()
        if not parts and code.isascii():
            continue
        try:
            if not code.isascii():  # outside a comment, as in source
                raise ValueError("not ASCII")
            kind = parts[0]
            if kind == "add":
                cmds.append(_parse_add(parts))
            elif kind in ("packet", "expect"):
                port = number(_field(parts, 1, "port"))
                if len(parts) > 3:
                    raise ValueError(f"extra field {parts[3]!r}: "
                                     "hex bytes take no spaces")
                payload = parts[2] if len(parts) > 2 else ""
                check_packet(port, payload)
                cmd = PacketCmd if kind == "packet" else ExpectCmd
                cmds.append(cmd(port, payload.upper()))
            else:
                raise ValueError(f"unknown command {kind!r}")
        except (ValueError, PcoreError) as exc:
            raise StfParseError(f"line {lineno}: {raw!r}: {exc}") from exc
    return cmds


def _field(parts, i, name):
    """parts[i], or a ValueError that names the missing field."""
    if i >= len(parts):
        raise ValueError(f"missing {name}")
    return parts[i]


_CALL_RE = re.compile(r"([\w.$]+)\(([^)]*)\)")


def _parse_add(parts):
    table = _field(parts, 1, "table").rpartition(".")[2]
    keys = []
    i, n = 2, len(parts)
    while i < n and ":" in parts[i] and "(" not in parts[i]:
        kname, _, val = parts[i].partition(":")
        keys.append((kname.rpartition(".")[2], val))
        i += 1
    if i == n:
        raise ValueError("missing action")
    call = parts[i] if i + 1 == n else " ".join(parts[i:])
    m = _CALL_RE.fullmatch(call)
    if not m:
        raise ValueError(f"bad action call {call!r}")
    action, args = m.groups()
    args = tuple(filter(None, map(str.strip, args.split(",")))) if args else ()
    return AddCmd(table, tuple(keys), action.rpartition(".")[2], args)


@dataclass
class PacketOutcome:
    """A packet sent in, and where and how it came out."""
    port_in: int
    payload_in: str
    egress: object  # int or None
    payload_out: str
    dropped: bool
    steps: int

    def sent(self):
        """Where a packet that was not dropped went, in words: `port P` and
        its output hex, if any, or `no egress port` when none was set."""
        return ("no egress port" if self.egress is None
                else f"port {self.egress} {self.payload_out}".rstrip())


@dataclass
class ExpectVerdict:
    """An expect line, whether it held, and what the program sent."""
    port: int
    payload: str
    ok: bool
    actual: str


@dataclass
class RunReport:
    """The packets and expect verdicts of one script run."""
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


def run_case(program, max_steps=MAX_STEPS):
    """Run the program on a fresh machine, and its `main` instance when it
    declares one; a target error (such as a short packet) ends the run as
    its signal. Returns (machine, signal)."""
    if declares_entry(program):
        check_entry(program)
    machine = make_machine(max_steps=max_steps)
    try:
        exited = run_program(None, machine, program)
    except TargetError as exc:
        return machine, f"target error: {exc}"
    return machine, "exit" if exited else "continue"


def run_packet(program, cp, packet_hex, port, havoc_oracle=None,
               max_steps=MAX_STEPS):
    """Fresh machine, one packet (see check_packet) through the entry instance."""
    check_packet(port, packet_hex)
    check_entry(program)
    return _send(program, cp, packet_hex, port, havoc_oracle, max_steps)


def _send(program, cp, packet_hex, port, havoc_oracle, max_steps):
    """run_packet on a packet and a program that are already checked."""
    machine = make_machine(packet_hex, port, havoc_oracle, max_steps)
    run_program(cp, machine, program)
    pkt = machine.target.packet
    return PacketOutcome(
        port_in=port,
        payload_in=packet_hex.upper(),
        egress=pkt.egress,
        payload_out=pkt.output_hex(),
        dropped=pkt.dropped,
        steps=machine.steps,
    )


def run_stf(program_text, stf_text, havoc="zero", max_steps=MAX_STEPS):
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
            case AddCmd():  # no subpatterns: one isinstance per rule
                cp.add_rule(c.table, [v for _, v in c.keys], c.action, c.args)
            case PacketCmd(port, payload):
                if not report.packets:  # the first; parse_stf checked each
                    check_entry(program)
                oracle = HavocOracle(havoc_mode, havoc_seed)
                out = _send(program, cp, payload, port, oracle, max_steps)
                report.packets.append(out)
                if not out.dropped:
                    outputs.append(out)
            case ExpectCmd(port, payload):
                if len(report.expects) < len(outputs):
                    actual = outputs[len(report.expects)]
                    ok = actual.egress == port and actual.payload_out == payload
                    shown = actual.sent()
                else:
                    ok = False
                    shown = "<no packet>"
                report.expects.append(ExpectVerdict(port, payload, ok, shown))
    return report
