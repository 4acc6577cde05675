"""Target plug-in boundary: control plane, havoc policy, packet state, and
the concrete "three-stage-lite" target with its native functions.

Natives: extract_bits<X>(out data), emit_bits<X>(in data), set_egress,
get_ingress, drop, is_valid<X>, set_valid<X>, set_invalid<X>,
push_front<X>, pop_front<X>.
"""

from __future__ import annotations

import json
import random
import re

from .errors import (
    ControlPlaneError, PcoreError, TargetError, Uninhabitable, UnknownNative,
    UnknownTable, UnsupportedMatchKind,
)
from . import ops
from .syntax import (
    BitT, BoolT, BoolV, Delta, EnumT, FunT, HeaderT, HeaderV, IntT, IntV,
    Machine, MemberV, NativeV, OpenEnumT, Param, RecordT, RecordV, StackT,
    StackV, UnionT, UnionV, VarT, VOID,
)
from .typecheck import infer_type_of_value, initial_delta


# ---------------------------------------------------------------------------
# Control plane

class ControlPlane:
    """Deterministic match oracle. Rules are installed under table *names*
    (before or after any table exists) and apply to every table instance
    registered under that name; first matching rule in insertion order wins,
    otherwise the table's default (last-listed) action. Rule keys and
    arguments are decoded once, when the rule is added."""

    def __init__(self):
        self.rules = {}  # table name -> [(decoded keys, action, decoded args)]
        self.tables = {}  # table id -> (name, actions)
        self.checked = {}  # (table name, key types) -> rules checked so far

    def add_rule(self, table_name, keys, action, args=()):
        self.rules.setdefault(table_name, []).append(
            ([_decode(k) for k in keys], action, [_decode(a) for a in args])
        )

    def register(self, table_id, name, actions):
        self.tables[table_id] = (name, actions)

    def lookup(self, table_id, key_vals, kinds, actions):
        """Returns (action name, control-plane argument values). Each rule's
        keys are checked once against the key types of the tables it is
        looked up in, and then match by plain equality."""
        if table_id not in self.tables:
            raise UnknownTable(table_id)
        name = self.tables[table_id][0]
        rules = self.rules.get(name, [])
        if rules:
            for kind in kinds:
                if kind != "exact":
                    raise UnsupportedMatchKind(kind)
            types = tuple(infer_type_of_value(Delta(), v) for v in key_vals)
            for rule_keys, _, _ in rules[self.checked.get((name, types), 0):]:
                if len(rule_keys) != len(types):
                    raise ControlPlaneError(
                        f"rule has {len(rule_keys)} keys, table has {len(types)}"
                    )
                for raw, t in zip(rule_keys, types):
                    _typed_value(raw, t, "key")
            self.checked[(name, types)] = len(rules)
        want = [v.member if isinstance(v, MemberV) else v.value
                for v in key_vals]
        for rule_keys, action, args in rules:
            if rule_keys == want:
                for aref in actions:
                    if aref.name == action:
                        return action, _ctrl_values(aref, args)
                raise ControlPlaneError(
                    f"rule action {action!r} is not in the table's list"
                )
        return actions[-1].name, _ctrl_values(actions[-1], ())


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _decode(raw):
    """A rule key or argument as a number, a bool or an identifier."""
    if isinstance(raw, (bool, int)):
        return raw
    try:
        return int(raw, 0)
    except (TypeError, ValueError):
        pass
    if raw in ("true", "false"):
        return raw == "true"
    if isinstance(raw, str) and _IDENT.fullmatch(raw):
        return raw
    raise ControlPlaneError(f"{raw!r} is not a number, a bool or an identifier")


def _typed_value(raw, t, what):
    """The value of type t that the decoded datum raw denotes. A
    ControlPlaneError when raw is of another kind than t or out of its range.
    A key's enumeration type, inferred from the key's value, lists no
    members, so then any identifier is in range."""
    match t:
        case BitT(w) if type(raw) is int and 0 <= raw < 1 << w:
            return IntV(raw, w)
        case IntT() if type(raw) is int:
            return IntV(raw, None)
        case BoolT() if type(raw) is bool:
            return BoolV(raw)
        case EnumT() | OpenEnumT() if type(raw) is str and (
            raw in t.members or not t.members
        ):
            return MemberV(t.name, raw)
    raise ControlPlaneError(f"rule {what} {raw!r} is not a value of type {t}")


def _ctrl_values(aref, args):
    """The values of the decoded args for the control-plane parameters of
    the action reference aref."""
    if len(args) != len(aref.ctrl_params):
        raise ControlPlaneError(
            f"action {aref.name!r} expects {len(aref.ctrl_params)} "
            f"control-plane arguments, got {len(args)}"
        )
    return tuple(_typed_value(raw, t, "argument")
                 for raw, (_, t) in zip(args, aref.ctrl_params))


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
            return "seeded", int(spec[len("seed:"):])
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
        case EnumT() | OpenEnumT():
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
# Packet state and hex plumbing

def hex_to_bits(s):
    return [int(b) for ch in s for b in f"{int(ch, 16):04b}"]


def bits_to_hex(bits):
    bits = list(bits)
    while len(bits) % 4:
        bits.append(0)
    return "".join(
        f"{int(''.join(map(str, bits[i:i + 4])), 2):X}"
        for i in range(0, len(bits), 4)
    )


class PacketState:
    def __init__(self, hex_payload="", ingress=0):
        self.input_bits = hex_to_bits(hex_payload)
        self.cursor = 0
        self.output_bits = []
        self.ingress = ingress
        self.egress = None
        self.dropped = False

    def read_bits(self, n):
        if self.cursor + n > len(self.input_bits):
            raise TargetError(
                f"extract of {n} bits past the end of the packet "
                f"({len(self.input_bits) - self.cursor} left)"
            )
        out = self.input_bits[self.cursor:self.cursor + n]
        self.cursor += n
        return int("".join(map(str, out)), 2) if n else 0

    def write_bits(self, value, n):
        if n:
            self.output_bits.extend(int(b) for b in f"{value:0{n}b}"[-n:])

    def output_hex(self):
        """Emitted bits followed by the unconsumed input payload."""
        return bits_to_hex(self.output_bits + self.input_bits[self.cursor:])


# ---------------------------------------------------------------------------
# The three-stage-lite target

class ThreeStageLiteTarget:
    def __init__(self, packet=None, havoc_oracle=None):
        self.packet = packet or PacketState()
        self.havoc_oracle = havoc_oracle or HavocOracle("zero")

    def havoc(self, t):
        return self.havoc_oracle.havoc(t)

    def dispatch(self, name, machine, arg_locs, type_args):
        handler = getattr(self, f"_native_{name}", None)
        if handler is None:
            raise UnknownNative(name)
        return handler(machine, arg_locs, type_args)

    # extract_bits<X>(out data): the out-parameter location holds the
    # default value of X, whose structure tells us what to read
    def _native_extract_bits(self, machine, locs, targs):
        machine.store[locs[0]] = self._extract(machine.store[locs[0]])
        return RecordV(())

    def _extract(self, shape):
        match shape:
            case IntV(_, w) if w is not None:
                return IntV(self.packet.read_bits(w), w)
            case HeaderV(_, fs):
                return HeaderV(True, tuple(
                    (n, ft, self._extract(ops.init_value(ft))) for n, ft, _ in fs
                ))
            case RecordV(fs):
                return RecordV(tuple((n, self._extract(v)) for n, v in fs))
            case StackV(et, vs):
                return StackV(et, tuple(self._extract(v) for v in vs))
        raise TargetError(f"extract_bits cannot fill a {type(shape).__name__}")

    def _native_emit_bits(self, machine, locs, targs):
        self._emit(machine.store[locs[0]])
        return RecordV(())

    def _emit(self, v):
        match v:
            case IntV(n, w) if w is not None:
                self.packet.write_bits(n, w)
            case HeaderV(valid, fs):
                if valid:  # invalid headers are skipped
                    for _, _, fv in fs:
                        self._emit(fv)
            case RecordV(fs):
                for _, fv in fs:
                    self._emit(fv)
            case StackV(_, vs):
                for x in vs:
                    self._emit(x)
            case _:
                raise TargetError(f"emit_bits cannot serialize {type(v).__name__}")

    def _native_set_egress(self, machine, locs, targs):
        self.packet.egress = machine.store[locs[0]].value
        return RecordV(())

    def _native_get_ingress(self, machine, locs, targs):
        return IntV(self.packet.ingress % 256, 8)

    def _native_drop(self, machine, locs, targs):
        self.packet.dropped = True
        return RecordV(())

    def _native_is_valid(self, machine, locs, targs):
        v = machine.store[locs[0]]
        if not isinstance(v, HeaderV):
            raise TargetError("is_valid expects a header")
        return BoolV(v.valid)

    def _native_set_valid(self, machine, locs, targs):
        v = machine.store[locs[0]]
        machine.store[locs[0]] = HeaderV(True, v.fields)
        return RecordV(())

    def _native_set_invalid(self, machine, locs, targs):
        v = machine.store[locs[0]]
        machine.store[locs[0]] = HeaderV(False, v.fields)
        return RecordV(())

    def _native_push_front(self, machine, locs, targs):
        st = machine.store[locs[0]]
        n = machine.store[locs[1]].value
        n = max(0, min(n, len(st.values)))
        fresh = tuple(ops.init_value(st.elem_type) for _ in range(n))
        machine.store[locs[0]] = StackV(st.elem_type, fresh + st.values[: len(st.values) - n])
        return RecordV(())

    def _native_pop_front(self, machine, locs, targs):
        st = machine.store[locs[0]]
        n = machine.store[locs[1]].value
        n = max(0, min(n, len(st.values)))
        fresh = tuple(ops.init_value(st.elem_type) for _ in range(n))
        machine.store[locs[0]] = StackV(st.elem_type, st.values[n:] + fresh)
        return RecordV(())


NATIVE_TYPES = {
    "extract_bits": (("X",), (Param("out", "data", VarT("X")),), VOID),
    "emit_bits": (("X",), (Param("in", "data", VarT("X")),), VOID),
    "set_egress": ((), (Param("in", "port", BitT(8)),), VOID),
    "get_ingress": ((), (), BitT(8)),
    "drop": ((), (), VOID),
    "is_valid": (("X",), (Param("in", "h", VarT("X")),), BoolT()),
    "set_valid": (("X",), (Param("inout", "h", VarT("X")),), VOID),
    "set_invalid": (("X",), (Param("inout", "h", VarT("X")),), VOID),
    "push_front": (
        ("X",),
        (Param("inout", "st", VarT("X")), Param("in", "n", IntT())),
        VOID,
    ),
    "pop_front": (
        ("X",),
        (Param("inout", "st", VarT("X")), Param("in", "n", IntT())),
        VOID,
    ),
}


def make_machine(packet_hex="", ingress=0, havoc_oracle=None, max_steps=None):
    """A machine on the three-stage-lite target holding one packet, with the
    natives bound in its environment."""
    target = ThreeStageLiteTarget(PacketState(packet_hex, ingress), havoc_oracle)
    m = Machine(target=target, max_steps=max_steps)
    for name, (tps, params, ret) in NATIVE_TYPES.items():
        m.env[name] = m.fresh_loc(NativeV(name, tps, params, ret))
    return m


def three_stage_lite_bootstrap():
    """Initial contexts with the native functions pre-bound, plus the
    machine factory."""
    gamma0 = {
        name: FunT(tps, params, ret)
        for name, (tps, params, ret) in NATIVE_TYPES.items()
    }
    return {}, gamma0, initial_delta(), make_machine
