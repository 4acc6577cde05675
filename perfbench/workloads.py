"""The benchmark's workloads.

A workload is built from a seed and holds a fixed list of op inputs
(``items``), each with the answer it must produce. ``run`` sends one item
through the pcore entry point the matching ``pcore`` subcommand calls.
``run_traced`` reaches the same outcome through the layers' public
functions one call at a time, each inside a span, and must return an equal
outcome. ``check`` compares an outcome with the item's reference answer,
which comes from the benchmark, not from pcore.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from pathlib import Path

from pcore import typecheck
from pcore.errors import TypeError_
from pcore.gen import (
    GenConfig, generate_typed_program, generate_union_program,
    run_soundness_case,
)
from pcore.interp import eval_call, eval_program, run_with_budget
from pcore.lexer import lex
from pcore.parser import Parser, parse_program
from pcore.pretty import pretty_program
from pcore.stf import (
    ENTRY_NAME, AddCmd, ExpectCmd, PacketCmd, parse_stf, run_stf,
)
from pcore.syntax import CallE, ExitUnwind, Machine, VarE
from pcore.target import (
    ControlPlane, HavocOracle, ThreeStageLiteTarget, three_stage_lite_bootstrap,
)
from pcore.unions import (
    Translator, diff_union_semantics, env_store_le, translate, translate_store,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "pcore" / "fixtures"
MAX_STEPS = 10**6  # the entry points' default budget


def _parse(tokens):
    return Parser(tokens).parse_program()


def _front_end(tr, text):
    tokens = tr.call("lexer", lex, text)
    tr.counts["lexer.tokens"] += len(tokens)
    program = tr.call("parser", _parse, tokens)
    tr.counts["parser.decls"] += len(program.decls)
    return program


def _typecheck(tr, program, *contexts):
    tr.counts["typecheck.programs"] += 1
    try:
        return tr.call("typecheck.program", typecheck.check_program,
                       program, *contexts)
    except TypeError_:
        tr.counts["typecheck.rejected"] += 1
        raise


# ---------------------------------------------------------------------------
# stf-routing: STF scripts against the source-routing fixture

INGRESS_PORTS = 16
EGRESS_PORTS = 128  # a hop's port field is bit<7>
# Table size is the working-set dimension. Rule counts are spread evenly on
# a log scale from MIN_RULES to MAX_RULES and every script sends the same
# number of packets, so the latency percentiles do not hang on the seed.
SCRIPTS = 108
MIN_RULES, MAX_RULES = 4, 1024
PACKETS_PER_SCRIPT = 12
MAX_HOPS = 11  # the fixture's hop stack holds 9
MAX_PAYLOAD_BYTES = 16


def route(allowed, ingress, packet_hex):
    """The source-routing model. A packet is forwarded iff (ingress, port of
    its first hop) is in ``allowed``; it then leaves on that port without
    its first byte, the consumed hop. Returns (egress port, output hex), or
    None when the packet is dropped."""
    port = int(packet_hex[:2], 16) >> 1
    if (ingress, port) in allowed:
        return port, packet_hex[2:].upper()
    return None


def log_spread(lo, hi, k, n):
    """The k-th of n values spread evenly on a log scale from lo to hi."""
    return lo * (hi / lo) ** (k / (n - 1))


@dataclass(frozen=True)
class RoutingScript:
    text: str
    expected: tuple  # route() per packet line


def routing_script(rng, n_rules):
    keys = [(i, p) for i in range(INGRESS_PORTS) for p in range(EGRESS_PORTS)]
    rules = rng.sample(keys, n_rules)
    allowed = set(rules)
    denied = [k for k in keys if k not in allowed]
    # Half the packets are forwarded, by rules at evenly spaced places in
    # the first-match list; hop counts and payload lengths are spread
    # evenly. Lookup scan lengths and packet sizes then do not hang on the
    # seed.
    n = PACKETS_PER_SCRIPT
    offset = rng.random()
    flows = ([rules[int((j + offset) * n_rules / (n // 2))] for j in range(n // 2)]
             + [rng.choice(denied) for _ in range(n - n // 2)])
    hop_counts = [1 + j * (MAX_HOPS - 1) // (n - 1) for j in range(n)]
    payload_lengths = [j * MAX_PAYLOAD_BYTES // (n - 1) for j in range(n)]
    for column in (flows, hop_counts, payload_lengths):
        rng.shuffle(column)
    packets = []
    for (ingress, port), n_hops, n_bytes in zip(flows, hop_counts, payload_lengths):
        ports = [port] + [rng.randrange(EGRESS_PORTS) for _ in range(n_hops - 1)]
        hops = [p << 1 | (k == n_hops - 1) for k, p in enumerate(ports)]
        payload = [rng.randrange(256) for _ in range(n_bytes)]
        packets.append((ingress, bytes(hops + payload).hex().upper()))
    expected = tuple(route(allowed, i, h) for i, h in packets)
    # every add line comes before the first packet line, so rule order
    # relative to packets cannot change the results
    lines = [f"add main.acl main.acl.ingress:{i} main.acl.egress:{p} main.allow()"
             for i, p in rules]
    for (ingress, hexbytes), exp in zip(packets, expected):
        lines.append(f"packet {ingress} {hexbytes}")
        if exp is not None:
            lines.append(f"expect {exp[0]} {exp[1]}")
    return RoutingScript("\n".join(lines) + "\n", expected)


class StfRouting:
    """op = one STF script run by ``stf.run_stf`` on the fixture."""

    def __init__(self, seed):
        self.program_text = (FIXTURES / "source_routing.pcore").read_text()
        rng = random.Random(seed)
        self.items = [
            routing_script(rng, round(log_spread(MIN_RULES, MAX_RULES, k, SCRIPTS)))
            for k in range(SCRIPTS)
        ]
        rng.shuffle(self.items)

    def run(self, item):
        report = run_stf(self.program_text, item.text)
        return (tuple((p.egress, p.payload_out, p.dropped, p.steps)
                      for p in report.packets),
                tuple(v.ok for v in report.expects))

    @staticmethod
    def check(item, outcome):
        packets, expects = outcome
        if len(packets) != len(item.expected):
            return False
        for (egress, out, dropped, _), exp in zip(packets, item.expected):
            if exp is None:
                if not dropped or egress is not None:
                    return False
            elif dropped or (egress, out) != exp:
                return False
        forwarded = sum(exp is not None for exp in item.expected)
        return len(expects) == forwarded and all(expects)

    def run_traced(self, item, tr):
        """``run_stf`` and ``run_packet``, one layer call at a time."""
        program = _front_end(tr, self.program_text)
        sigma0, gamma0, delta0, _ = three_stage_lite_bootstrap()
        _typecheck(tr, program, sigma0, gamma0, delta0)
        cmds = tr.call("stf.parse", parse_stf, item.text)
        cp = ControlPlane()

        def count_hit(result, args):
            actions = args[3]
            tr.counts["target.lookup.hits"] += result[0] != actions[-1].name

        cp.lookup = tr.wrap("target.lookup", cp.lookup, count_hit)
        for c in cmds:
            if isinstance(c, AddCmd):
                tr.call("target.add_rule", cp.add_rule,
                        c.table, [v for _, v in c.keys], c.action, c.args)
        packets, outputs, expects = [], [], []
        for c in cmds:
            match c:
                case PacketCmd(port, payload):
                    out = self._packet(tr, program, cp, payload, port)
                    packets.append(out)
                    if not out[2]:
                        outputs.append(out)
                case ExpectCmd(port, payload):
                    if len(expects) < len(outputs):
                        egress, out, _, _ = outputs[len(expects)]
                        expects.append(egress == port and out == payload)
                    else:
                        expects.append(False)
        return tuple(packets), tuple(expects)

    @staticmethod
    def _packet(tr, program, cp, payload, port):
        _, _, delta0, make_machine = three_stage_lite_bootstrap()
        machine = make_machine(payload, port, HavocOracle("zero", 0), MAX_STEPS)
        machine.target.dispatch = tr.wrap("target.native", machine.target.dispatch)
        try:
            delta = tr.call("interp.instantiate", eval_program,
                            cp, delta0.copy(), machine, program)
            entry = machine.store[machine.env[ENTRY_NAME]]
            tr.call("interp.apply", eval_call, cp, delta, machine, entry,
                    CallE(VarE(ENTRY_NAME), (), ()))
        except ExitUnwind:
            pass
        tr.counts["interp.steps"] += machine.steps
        tr.counts["stf.packets"] += 1
        pkt = machine.target.packet
        return pkt.egress, pkt.output_hex(), pkt.dropped, machine.steps


# ---------------------------------------------------------------------------
# check-corpus: pretty-printed generated programs through `pcore check`

CORPUS_SIZE = 200
# Program size varies a lot between generator seeds, so the corpus is
# matched to fixed sizes: CANDIDATES programs are generated with max_decls
# spread on a log scale, and each target size, spread on a log scale from
# MIN_TEXT to MAX_TEXT bytes, takes the unused candidate nearest to it.
# The latency percentiles then do not hang on the seed.
CANDIDATES = 2 * CORPUS_SIZE
MIN_DECLS, MAX_DECLS = 3, 26
MIN_TEXT, MAX_TEXT = 400, 4000
ILL_TYPED_EVERY = 10
# Each is ill-typed whatever program precedes it: it names nothing but
# itself and literals.
ILL_TYPED = (
    "bit<{w}> zz_bad{k} := true;",
    "bool zz_bad{k} := {n}w{w};",
    "bit<{w}> zz_bad{k} := zz_unbound{k};",
    "bit<{w}> zz_bad{k} := {n}w{w} + {n}w{v};",
    "bool zz_bad{k} := {n}w{w} == true;",
    "bit<{w}> zz_bad{k}(in bit<{w}> x) {{ if (x == {n}w{w}) {{ return x; }} }}",
    "bit<{w}> zz_bad{k} := (bit<{w}>) false;",
    "int zz_bad{k} := {n}w{w} << true;",
    "bool zz_bad{k} := !{n}w{w};",
)


@dataclass(frozen=True)
class CheckInput:
    text: str
    program: object  # the generated Program
    bad_line: object  # line of the appended ill-typed declaration, or None


def check_corpus(rng):
    cands = []
    for j in range(CANDIDATES):
        cfg = GenConfig(seed=rng.getrandbits(32), max_depth=2 + j % 5,
                        max_decls=round(log_spread(MIN_DECLS, MAX_DECLS, j, CANDIDATES)),
                        unions=j % 4 == 0)
        program = generate_typed_program(cfg)
        cands.append((program, pretty_program(program)))
    cands.sort(key=lambda c: len(c[1]))
    sizes = [len(text) for _, text in cands]
    used = [False] * len(cands)
    items = []
    for k in range(CORPUS_SIZE):
        i = nearest_unused(sizes, used, log_spread(MIN_TEXT, MAX_TEXT, k, CORPUS_SIZE))
        used[i] = True
        program, text = cands[i]
        if k % ILL_TYPED_EVERY == ILL_TYPED_EVERY - 1:
            w = rng.choice((2, 4, 8, 16))
            bad = rng.choice(ILL_TYPED).format(k=k, w=w, v=2 * w, n=rng.randrange(1 << w))
            items.append(CheckInput(text + bad + "\n", program, text.count("\n") + 1))
        else:
            items.append(CheckInput(text, program, None))
    return items


def nearest_unused(sizes, used, target):
    """Index of the unused entry of the sorted ``sizes`` nearest to
    ``target`` by ratio."""
    i = bisect.bisect_left(sizes, target)
    lo, hi = i - 1, i
    while lo >= 0 and used[lo]:
        lo -= 1
    while hi < len(sizes) and used[hi]:
        hi += 1
    if hi == len(sizes) or (lo >= 0 and target / sizes[lo] < sizes[hi] / target):
        return lo
    return hi


class CheckCorpus:
    """op = one `pcore check`: parse_program, then check_program under the
    three-stage-lite bootstrap contexts."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.items = check_corpus(rng)
        rng.shuffle(self.items)

    @staticmethod
    def _verdict(check, program, contexts):
        try:
            check(program, *contexts)
        except TypeError_ as exc:
            return exc.rule, exc.pos, str(exc)
        return None

    def run(self, item):
        program = parse_program(item.text)
        sigma0, gamma0, delta0, _ = three_stage_lite_bootstrap()
        return program, self._verdict(typecheck.check_program, program,
                                      (sigma0, gamma0, delta0))

    @staticmethod
    def check(item, outcome):
        program, rejection = outcome
        if item.bad_line is None:
            return rejection is None and program == item.program
        return (rejection is not None and rejection[1][0] == item.bad_line
                and program.decls[:-1] == item.program.decls)

    def run_traced(self, item, tr):
        program = _front_end(tr, item.text)
        sigma0, gamma0, delta0, _ = three_stage_lite_bootstrap()
        return program, self._verdict(
            lambda *a: _typecheck(tr, *a), program, (sigma0, gamma0, delta0))


# ---------------------------------------------------------------------------
# oracles: soundness seeds and union differentials, interleaved

ORACLE_OPS = 1000


class Oracles:
    """op = one `pcore soundness` seed or one `pcore diff-unions` case."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.items = [("soundness" if k % 2 == 0 else "unions", rng.getrandbits(32))
                      for k in range(ORACLE_OPS)]

    @staticmethod
    def run(item):
        kind, seed = item
        if kind == "soundness":
            return run_soundness_case(generate_typed_program(GenConfig(seed=seed)))
        return diff_union_semantics(generate_union_program(seed), Translator())

    @staticmethod
    def check(item, outcome):
        return outcome["machine_ok" if item[0] == "soundness" else "pass"] is True

    def run_traced(self, item, tr):
        kind, seed = item
        if kind == "soundness":
            return self._soundness(tr, seed)
        return self._unions(tr, seed)

    @staticmethod
    def _soundness(tr, seed):
        """``generate_typed_program`` plus ``run_soundness_case``."""
        program = tr.call("gen", generate_typed_program, GenConfig(seed=seed))
        tr.counts["gen.programs"] += 1
        sigma, gamma, delta = _typecheck(tr, program)
        machine = Machine(target=ThreeStageLiteTarget(havoc_oracle=HavocOracle("zero", 0)))
        exited = False
        try:
            tr.call("interp.instantiate", run_with_budget, machine, MAX_STEPS,
                    lambda: eval_program(None, typecheck.initial_delta(),
                                         machine, program))
        except ExitUnwind:
            exited = True
            gamma = {n: t for n, t in gamma.items() if n in machine.env}
            sigma = {n: v for n, v in sigma.items() if n in machine.env}
        tr.counts["interp.steps"] += machine.steps

        def machine_typing():
            xi = typecheck.build_xi(delta, machine, gamma)
            return typecheck.check_machine(xi, sigma, gamma, delta, machine)

        ok = tr.call("typecheck.machine", machine_typing)
        return {"machine_ok": ok, "steps": machine.steps, "exited": exited,
                "locations": len(machine.store)}

    @staticmethod
    def _unions(tr, seed):
        """``generate_union_program`` plus ``diff_union_semantics``."""
        program = tr.call("gen", generate_union_program, seed)
        tr.counts["gen.programs"] += 1

        def run(p):
            machine = Machine(
                target=ThreeStageLiteTarget(havoc_oracle=HavocOracle("zero")),
                max_steps=MAX_STEPS,
            )
            try:
                tr.call("interp.instantiate", eval_program,
                        None, typecheck.initial_delta(), machine, p)
                sig = "continue"
            except ExitUnwind:
                sig = "exit"
            tr.counts["interp.steps"] += machine.steps
            return machine, sig

        _typecheck(tr, program)
        m1, sig1 = run(program)
        translated = tr.call("unions.translate", translate, program, Translator())
        _typecheck(tr, translated)
        m2, sig2 = run(translated)
        ok = sig1 == sig2 and tr.call(
            "unions.compare",
            lambda: env_store_le(translate_store(m1.store), m1.env,
                                 m2.store, m2.env),
        )
        return {"pass": ok, "signal_extended": sig1,
                "signal_translated": sig2, "translated": translated}


WORKLOADS = {
    "stf-routing": StfRouting,
    "check-corpus": CheckCorpus,
    "oracles": Oracles,
}
