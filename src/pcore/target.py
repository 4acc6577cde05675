"""Target plug-in boundary: control plane, havoc policy, packet state, and
the concrete "three-stage-lite" target, whose natives are the table NATIVES.
"""

from __future__ import annotations

import json
import random
import re
from collections import defaultdict

from .errors import ControlPlaneError, PcoreError, TargetError, Uninhabitable
from . import ops
from .lexer import WORD_RE, number
from .pretty import pretty_type
from .syntax import (
    BitT, BoolT, BoolV, EnumT, FunT, HeaderT, HeaderV, IntT, IntV, Machine,
    MAX_STEPS, MemberV, NativeV, Param, RecordT, RecordV, StackT, StackV,
    UnionT, UnionV, VarT, VOID, VOID_V,
)
from .typecheck import infer_type_of_value, initial_delta


# ---------------------------------------------------------------------------
# Control plane

class ControlPlane:
    """Deterministic match oracle. Rules are installed under table *names*
    (before or after any table exists) and apply to every table declared
    under that name; first matching rule in insertion order wins, otherwise
    the table's default (last-listed) action. A rule's keys and arguments
    are decoded when the rule is added. Its keys are typed, and the
    table's match kinds checked, at the first lookup of its table name with
    given key types and kinds; its arguments are typed when the rule is
    hit."""

    def __init__(self):
        self.rules = defaultdict(list)  # table name -> [(keys, action, args)]
        self.first = defaultdict(dict)  # table name -> {keys: first rule}
        self.checked = {}  # (table name, key types, kinds) -> rules checked so far

    def add_rule(self, table_name, keys, action, args=()):
        keys = tuple(map(_decode, keys))
        rule = (keys, action, tuple(map(_decode, args)) if args else ())
        self.rules[table_name].append(rule)
        self.first[table_name].setdefault(keys, rule)

    def lookup(self, name, key_vals, kinds, actions, delta):
        """Returns (action name, control-plane argument values) for the table
        name applied where delta binds the types. Each rule's keys are
        checked once against the key types and match kinds of the tables it
        is looked up in; the hit is then the first rule whose keys equal the
        key values."""
        rules = self.rules.get(name)
        if rules:
            types = tuple([infer_type_of_value(delta, v) for v in key_vals])
            seen = name, types, tuple(kinds)
            if (checked := self.checked.get(seen, 0)) < len(rules):
                for kind in kinds:
                    if kind != "exact":
                        raise ControlPlaneError("rules installed on a table with "
                                                f"unsupported match kind {kind!r}")
                for rule_keys, _, _ in rules[checked:]:
                    if len(rule_keys) != len(types):
                        raise ControlPlaneError(
                            f"rule has {len(rule_keys)} keys, table has {len(types)}")
                    for raw, t in zip(rule_keys, types):
                        _datum_rule(raw, t, "key")
                self.checked[seen] = len(rules)
        want = tuple([v.member if isinstance(v, MemberV) else v.value
                      for v in key_vals])
        hit = self.first.get(name, {}).get(want)
        if hit is None:
            return actions[-1].name, ()
        _, action, args = hit
        for aref in actions:
            if aref.name == action:
                return action, _ctrl_values(aref, args)
        raise ControlPlaneError(
            f"rule action {action!r} is not in the table's list"
        )


def _decode(raw):
    """A rule key or argument as a number, a bool or an identifier, each
    spelled as in source."""
    if isinstance(raw, str):
        try:
            return number(raw)
        except ValueError:
            if raw in ("true", "false"):
                return raw == "true"
            if WORD_RE.fullmatch(raw):
                return raw
    elif isinstance(raw, (bool, int)):
        return raw
    raise ControlPlaneError(f"{raw!r} is not a number, a bool or an identifier")


# type class -> (whether the decoded datum raw denotes a value of type t,
# that value): the one rule for rule data. A key is only tested; an
# argument becomes its value.
_DATUM_RULES = {
    BitT: (lambda raw, t: type(raw) is int and 0 <= raw < 1 << t.width,
           lambda raw, t: IntV(raw, t.width)),
    IntT: (lambda raw, t: type(raw) is int, lambda raw, t: IntV(raw, None)),
    BoolT: (lambda raw, t: type(raw) is bool, lambda raw, t: BoolV(raw)),
    EnumT: (lambda raw, t: type(raw) is str and raw in t.members,
            lambda raw, t: MemberV(t.name, raw)),
}


def _datum_rule(raw, t, what):
    """The row of _DATUM_RULES by which the decoded datum raw denotes a
    value of type t. A ControlPlaneError when raw is of another kind than t
    or out of its range."""
    row = _DATUM_RULES.get(type(t))
    if row is None or not row[0](raw, t):
        raise ControlPlaneError(f"rule {what} {raw!r} is not a value of type "
                                f"{pretty_type(t)}")
    return row


def _ctrl_values(aref, args):
    """The values of the decoded args for the control-plane parameters of
    the action reference aref."""
    if len(args) != len(aref.ctrl_params):
        raise ControlPlaneError(
            f"action {aref.name!r} expects {len(aref.ctrl_params)} "
            f"control-plane arguments, got {len(args)}"
        )
    return tuple([_datum_rule(raw, t, "argument")[1](raw, t)
                  for raw, (_, t) in zip(args, aref.ctrl_params)])


def load_control_plane_json(cp, text):
    """Install rules from a JSON document:
    [{"table": "acl", "keys": ["0","1"], "action": "allow", "args": []}]"""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an int too long to read
        raise ControlPlaneError(f"control-plane JSON: {exc}") from None
    except RecursionError:
        raise ControlPlaneError("control-plane JSON nests too deeply") from None
    if not isinstance(doc, list):
        raise ControlPlaneError("control-plane JSON must be a list of rules")
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ControlPlaneError(f"rule {i} is not an object")
        for key, kind in (("table", str), ("action", str), ("keys", list)):
            if not isinstance(entry.get(key), kind):
                raise ControlPlaneError(
                    f"rule {i}: {key!r} must be a {kind.__name__}"
                )
        args = entry.get("args", [])
        if not isinstance(args, list):
            raise ControlPlaneError(f"rule {i}: 'args' must be a list")
        try:
            cp.add_rule(entry["table"], entry["keys"], entry["action"], args)
        except ControlPlaneError as exc:
            raise ControlPlaneError(f"rule {i}: {exc}") from None


# ---------------------------------------------------------------------------
# Havoc oracle

class HavocOracle:
    """Source of arbitrary values for undefined reads. Zero mode returns the
    default value; seeded mode is a pure function of (seed, query index,
    type) with an internal query counter."""

    def __init__(self, mode="zero", seed=0):
        assert mode in ("zero", "seeded")
        self.mode = mode
        self.seed = seed
        self.counter = 0

    def havoc(self, t):
        if self.mode == "zero":
            return ops.init_value(t)
        index = self.counter
        self.counter += 1
        return self.draw(t, index)

    def draw(self, t, index):
        rng = random.Random(f"{self.seed}:{index}")
        return _draw_value(rng, t)


def parse_havoc(spec):
    """The oracle (mode, seed) named by a `zero` or `seed:N` spec."""
    if spec == "zero":
        return "zero", 0
    if spec.startswith("seed:"):
        try:
            return "seeded", number(spec[len("seed:"):])
        except ValueError:
            pass
    raise PcoreError(f"bad havoc spec {spec!r} (want zero or seed:N)")


def _draw_value(rng, t):
    match t:
        case BoolT():
            return BoolV(rng.random() < 0.5)
        case IntT():
            return IntV(rng.randint(-1000, 1000), None)
        case BitT(w):
            return IntV(rng.randrange(1 << w), w)
        case EnumT():
            if not t.members:
                raise Uninhabitable(t)
            return MemberV(t.name, rng.choice(t.members))
        case RecordT(fs):
            return RecordV(tuple((n, _draw_value(rng, ft)) for n, ft in fs))
        case HeaderT(fs):
            return HeaderV(
                rng.random() < 0.5,
                tuple((n, ft, _draw_value(rng, ft)) for n, ft in fs),
            )
        case StackT(elem, n):
            return StackV(elem, tuple(_draw_value(rng, elem) for _ in range(n)))
        case UnionT(_, alts):
            f, ft = rng.choice(alts)
            return UnionV(t, f, _draw_value(rng, ft))
    raise Uninhabitable(t)


# ---------------------------------------------------------------------------
# Packet state

_HEX = re.compile(r"[0-9A-Fa-f]*")


def check_packet(port, hex_payload):
    """The rule for a packet or an expected output from outside the program:
    whole bytes of hex digits on a port in 0-255."""
    if not 0 <= port <= 255:
        raise PcoreError(f"port {port} is not in 0-255")
    if len(hex_payload) % 2:
        raise PcoreError(f"packet {hex_payload!r} is not whole bytes")
    if not _HEX.fullmatch(hex_payload):
        raise PcoreError(f"packet {hex_payload!r} is not hex digits")


class PacketState:
    """One packet. The unread input and the emitted output are each one int
    with its bit length; bits are read and written most significant first.
    The payload is hex digits, as check_packet checks, and may end mid-byte."""

    def __init__(self, hex_payload="", ingress=0):
        self.input = int(hex_payload or "0", 16)
        self.input_len = 4 * len(hex_payload)
        self.output = 0
        self.output_len = 0
        self.ingress = ingress
        self.egress = None
        self.dropped = False

    def read_bits(self, n):
        if n > self.input_len:
            raise TargetError(f"extract of {n} bits past the end of the "
                              f"packet ({self.input_len} left)")
        self.input_len -= n
        value = self.input >> self.input_len
        self.input &= (1 << self.input_len) - 1
        return value

    def write_bits(self, value, n):
        self.output = self.output << n | value & ((1 << n) - 1)
        self.output_len += n

    def output_hex(self):
        """Emitted bits followed by the unread input, padded with zero bits
        to whole hex digits."""
        n = self.output_len + self.input_len
        bits = (self.output << self.input_len | self.input) << (-n % 4)
        return f"{bits:0{(n + 3) // 4}X}" if n else ""


# ---------------------------------------------------------------------------
# The natives of the three-stage-lite target. Each handler takes the packet,
# the store and its argument locations, and returns its result, or None for
# a void native.

def _extract_bits(packet, store, locs):
    # the out-parameter location holds the default value of X, whose
    # structure tells what to read
    store[locs[0]] = _extract(packet, store[locs[0]])


def _extract(packet, shape):
    return _codec(shape, "extract_bits cannot fill")[0](packet, shape)


def _emit_bits(packet, store, locs):
    _emit(packet, store[locs[0]])


def _emit(packet, v):
    _codec(v, "emit_bits cannot serialize")[1](packet, v)


def _emit_all(packet, vs):
    for v in vs:
        _emit(packet, v)


def _codec(v, cannot):
    """The row of _CODEC for v, a value whose type has a bit layout."""
    row = _CODEC.get(type(v))
    if row is None or type(v) is IntV and v.width is None:
        t = infer_type_of_value(initial_delta(), v)
        raise TargetError(f"{cannot} type {pretty_type(t)}")
    return row


# value class -> (read a value shaped as v from the packet, write v to it):
# a bit int is its bits, any other value its parts, unless an invalid header
_CODEC = {
    IntV: (lambda packet, v: IntV(packet.read_bits(v.width), v.width),
           lambda packet, v: packet.write_bits(v.value, v.width)),
    HeaderV: (lambda packet, v: HeaderV(True, tuple([
        (n, ft, _extract(packet, fv)) for n, ft, fv in v.fields])),
        lambda packet, v: _emit_all(
            packet, [fv for _, _, fv in v.fields] if v.valid else ())),
    RecordV: (lambda packet, v: RecordV(tuple([
        (n, _extract(packet, fv)) for n, fv in v.fields])),
        lambda packet, v: _emit_all(packet, [fv for _, fv in v.fields])),
    StackV: (lambda packet, v: StackV(v.elem_type, tuple([
        _extract(packet, x) for x in v.values])),
        lambda packet, v: _emit_all(packet, v.values)),
}


def _set_egress(packet, store, locs):
    packet.egress = store[locs[0]].value


def _get_ingress(packet, store, locs):
    return IntV(packet.ingress % 256, 8)


def _drop(packet, store, locs):
    packet.dropped = True


def _header(store, loc, native):
    """The header at loc; a TargetError when native got another value."""
    v = store[loc]
    if not isinstance(v, HeaderV):
        raise TargetError(f"{native} expects a header")
    return v


def _is_valid(packet, store, locs):
    return BoolV(_header(store, locs[0], "is_valid").valid)


def _set_valid(packet, store, locs):
    store[locs[0]] = HeaderV(True, _header(store, locs[0], "set_valid").fields)


def _set_invalid(packet, store, locs):
    store[locs[0]] = HeaderV(False, _header(store, locs[0], "set_invalid").fields)


def _stack_shift(store, locs, native):
    """The stack at locs[0], and the default elements that shift it by the
    count at locs[1], clamped to the stack's size."""
    st = store[locs[0]]
    if not isinstance(st, StackV):
        raise TargetError(f"{native} expects a header stack")
    n = max(0, min(store[locs[1]].value, len(st.values)))
    return st, (ops.init_value(st.elem_type),) * n if n else ()


def _push_front(packet, store, locs):
    st, fresh = _stack_shift(store, locs, "push_front")
    kept = st.values[:len(st.values) - len(fresh)]
    store[locs[0]] = StackV(st.elem_type, fresh + kept)


def _pop_front(packet, store, locs):
    st, fresh = _stack_shift(store, locs, "pop_front")
    store[locs[0]] = StackV(st.elem_type, st.values[len(fresh):] + fresh)


_X = VarT("X")
_STACK_ARGS = (Param("inout", "st", _X), Param("in", "n", IntT()))

# name -> (type parameters, parameters, return type, handler): the whole
# target-specific interface that programs call
NATIVES = {
    "extract_bits": (("X",), (Param("out", "data", _X),), VOID, _extract_bits),
    "emit_bits": (("X",), (Param("in", "data", _X),), VOID, _emit_bits),
    "set_egress": ((), (Param("in", "port", BitT(8)),), VOID, _set_egress),
    "get_ingress": ((), (), BitT(8), _get_ingress),
    "drop": ((), (), VOID, _drop),
    "is_valid": (("X",), (Param("in", "h", _X),), BoolT(), _is_valid),
    "set_valid": (("X",), (Param("inout", "h", _X),), VOID, _set_valid),
    "set_invalid": (("X",), (Param("inout", "h", _X),), VOID, _set_invalid),
    "push_front": (("X",), _STACK_ARGS, VOID, _push_front),
    "pop_front": (("X",), _STACK_ARGS, VOID, _pop_front),
}

# the typing context of the natives, for checking programs on this target
GAMMA0 = {name: FunT(tps, params, ret)
          for name, (tps, params, ret, _) in NATIVES.items()}


class ThreeStageLiteTarget:
    def __init__(self, packet=None, havoc_oracle=None):
        self.packet = packet or PacketState()
        self.havoc_oracle = havoc_oracle or HavocOracle("zero")

    def havoc(self, t):
        return self.havoc_oracle.havoc(t)

    def dispatch(self, name, machine, arg_locs):
        """Run the native name on its argument locations. An out argument
        arrives holding its type's default value, which says what to read."""
        row = NATIVES.get(name)
        if row is None:
            raise TargetError(f"no native {name!r} on this target")
        result = row[3](self.packet, machine.store, arg_locs)
        return VOID_V if result is None else result


# the natives' scope and first store, made once: a scope is never written
# (see interp), so every machine shares it, and each copies the store
_NATIVE_ENV = {name: loc for loc, name in enumerate(GAMMA0)}
_NATIVE_STORE = {loc: NativeV(name, t) for loc, (name, t) in enumerate(GAMMA0.items())}


def make_machine(packet_hex="", ingress=0, havoc_oracle=None, max_steps=MAX_STEPS):
    """A machine on the three-stage-lite target holding one packet, with the
    natives bound in its environment."""
    target = ThreeStageLiteTarget(PacketState(packet_hex, ingress), havoc_oracle)
    m = Machine(target=target, max_steps=max_steps)
    m.env, m.store, m.next_loc = _NATIVE_ENV, dict(_NATIVE_STORE), len(_NATIVE_STORE)
    return m


def three_stage_lite_bootstrap():
    """(sigma0, gamma0, delta0, make_machine). pcore itself uses GAMMA0 and
    make_machine; this stays because the benchmark's workloads unpack it."""
    return {}, GAMMA0, initial_delta(), make_machine
