"""Syntactic and semantic domains of the calculus.

Types, expressions, statements, declarations, l-values, run-time values,
signals, the four checking contexts, and the mutable machine state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

from .errors import BudgetExhausted


def _pos():
    return field(default=(0, 0), compare=False, repr=False)


# ---------------------------------------------------------------------------
# Types

class Type:
    """Base class for every type form."""


class BaseType(Type):
    pass


@dataclass(frozen=True)
class BoolT(BaseType):
    def __str__(self):
        return "bool"


@dataclass(frozen=True)
class IntT(BaseType):
    def __str__(self):
        return "int"


@dataclass(frozen=True)
class BitT(BaseType):
    # width is a literal int once normalized; an Expr before simplification
    width: object

    def __str__(self):
        return f"bit<{self.width}>"


@dataclass(frozen=True)
class ErrorT(BaseType):
    # open enumeration: members grow as declarations accumulate; two ErrorT
    # occurrences denote the same (singleton) type regardless of members
    members: tuple = ()

    def __eq__(self, other):
        return isinstance(other, ErrorT)

    def __hash__(self):
        return hash("error")

    def __str__(self):
        return "error"


@dataclass(frozen=True)
class MatchKindT(BaseType):
    members: tuple = ()

    def __eq__(self, other):
        return isinstance(other, MatchKindT)

    def __hash__(self):
        return hash("match_kind")

    def __str__(self):
        return "match_kind"


@dataclass(frozen=True)
class EnumT(BaseType):
    name: str
    members: tuple

    def __str__(self):
        return f"enum {self.name}"


@dataclass(frozen=True)
class RecordT(BaseType):
    fields: tuple  # ordered (name, BaseType) pairs

    def __str__(self):
        inner = ", ".join(f"{n}: {t}" for n, t in self.fields)
        return "record {" + inner + "}"


@dataclass(frozen=True)
class HeaderT(BaseType):
    fields: tuple

    def __str__(self):
        inner = ", ".join(f"{n}: {t}" for n, t in self.fields)
        return "header {" + inner + "}"


@dataclass(frozen=True)
class StackT(BaseType):
    elem: BaseType
    size: object  # literal int once normalized

    def __str__(self):
        return f"{self.elem}[{self.size}]"


@dataclass(frozen=True)
class VarT(BaseType):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class UnionT(BaseType):
    name: str
    alts: tuple  # ordered (field name, BaseType) pairs

    def __str__(self):
        return f"union {self.name}"


@dataclass(frozen=True)
class TableT(Type):
    def __str__(self):
        return "table"


@dataclass(frozen=True)
class Param:
    direction: str  # "in" | "out" | "inout"
    name: str
    type: Type

    def __str__(self):
        return f"{self.direction} {self.type} {self.name}"


@dataclass(frozen=True)
class FunT(Type):
    type_params: tuple  # names
    params: tuple  # Param list
    ret: Type

    def __str__(self):
        tps = f"<:{', '.join(self.type_params)}:>" if self.type_params else ""
        ps = ", ".join(str(p) for p in self.params)
        return f"fun{tps}({ps}) -> {self.ret}"


@dataclass(frozen=True)
class CtorT(Type):
    params: tuple  # (name, Type) pairs
    ret: Type

    def __str__(self):
        ps = ", ".join(f"{n}: {t}" for n, t in self.params)
        return f"ctor({ps}) -> {self.ret}"


VOID = RecordT(())  # the empty record doubles as the void return type

# ---------------------------------------------------------------------------
# Expressions

class Expr:
    pass


@dataclass(frozen=True)
class BoolE(Expr):
    value: bool
    pos: tuple = _pos()


@dataclass(frozen=True)
class IntE(Expr):
    value: int
    width: object = None  # literal width, or None for arbitrary precision
    pos: tuple = _pos()


@dataclass(frozen=True)
class VarE(Expr):
    name: str
    pos: tuple = _pos()


@dataclass(frozen=True)
class IndexE(Expr):
    base: Expr
    index: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class SliceE(Expr):
    base: Expr
    hi: Expr
    lo: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class UnopE(Expr):
    op: str
    operand: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class BinopE(Expr):
    op: str
    left: Expr
    right: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class CastE(Expr):
    type: BaseType
    operand: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class RecordE(Expr):
    fields: tuple  # ordered (name, Expr) pairs
    pos: tuple = _pos()


@dataclass(frozen=True)
class MemberE(Expr):
    base: Expr
    field: str
    pos: tuple = _pos()


@dataclass(frozen=True)
class TypeMemberE(Expr):
    type_name: str  # "error" or "match_kind"
    member: str
    pos: tuple = _pos()


@dataclass(frozen=True)
class CallE(Expr):
    callee: Expr
    type_args: tuple  # BaseType list
    args: tuple  # Expr list
    pos: tuple = _pos()


# ---------------------------------------------------------------------------
# Statements

class Stmt:
    pass


@dataclass(frozen=True)
class CallS(Stmt):
    call: CallE
    pos: tuple = _pos()


@dataclass(frozen=True)
class AssignS(Stmt):
    lhs: Expr
    rhs: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class IfS(Stmt):
    cond: Expr
    then: Stmt
    els: Stmt
    pos: tuple = _pos()


@dataclass(frozen=True)
class BlockS(Stmt):
    stmts: tuple  # Stmt | Decl items
    pos: tuple = _pos()


@dataclass(frozen=True)
class ExitS(Stmt):
    pos: tuple = _pos()


@dataclass(frozen=True)
class ReturnS(Stmt):
    value: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class SwitchS(Stmt):
    """Union switch: cases carry a field label or None for default."""

    scrutinee: Expr
    cases: tuple  # (label or None, BlockS) pairs
    pos: tuple = _pos()


# ---------------------------------------------------------------------------
# Declarations

class Decl:
    pass


@dataclass(frozen=True)
class ConstD(Decl):
    type: Type
    name: str
    init: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class VarInitD(Decl):
    type: Type
    name: str
    init: Expr
    pos: tuple = _pos()


@dataclass(frozen=True)
class VarUninitD(Decl):
    type: Type
    name: str
    pos: tuple = _pos()


@dataclass(frozen=True)
class InstD(Decl):
    type_name: str
    args: tuple  # constructor argument Exprs
    name: str
    pos: tuple = _pos()


@dataclass(frozen=True)
class TypedefD(Decl):
    type: Type
    name: str
    pos: tuple = _pos()


@dataclass(frozen=True)
class EnumD(Decl):
    name: str
    members: tuple
    pos: tuple = _pos()


@dataclass(frozen=True)
class ErrorD(Decl):
    members: tuple
    pos: tuple = _pos()


@dataclass(frozen=True)
class MatchKindD(Decl):
    members: tuple
    pos: tuple = _pos()


@dataclass(frozen=True)
class UnionD(Decl):
    name: str
    alts: tuple  # (field name, BaseType) pairs
    pos: tuple = _pos()


@dataclass(frozen=True)
class ActionRef:
    name: str
    args: tuple  # static argument Exprs
    ctrl_params: tuple  # (name, BaseType) pairs supplied by the control plane
    pos: tuple = _pos()


@dataclass(frozen=True)
class TableD(Decl):
    name: str
    keys: tuple  # (Expr, match-kind name) pairs
    actions: tuple  # ActionRef list; last one is the default action
    pos: tuple = _pos()


@dataclass(frozen=True)
class ControlD(Decl):
    name: str
    params: tuple  # run-time Params
    ctor_params: tuple  # (name, Type) pairs
    local_decls: tuple
    body: BlockS
    pos: tuple = _pos()


@dataclass(frozen=True)
class FuncD(Decl):
    ret: Type
    name: str
    type_params: tuple
    params: tuple  # Params
    body: BlockS
    pos: tuple = _pos()


@dataclass(frozen=True)
class Program:
    decls: tuple


# ---------------------------------------------------------------------------
# L-values (post-evaluation: all indices are literals)

class LValue:
    pass


@dataclass(frozen=True)
class LVar(LValue):
    name: str


@dataclass(frozen=True)
class LField(LValue):
    base: LValue
    field: str


@dataclass(frozen=True)
class LElem(LValue):
    base: LValue
    index: int


@dataclass(frozen=True)
class LBitRange(LValue):
    base: LValue
    hi: int
    lo: int


# ---------------------------------------------------------------------------
# Values and signals

class Value:
    pass


@dataclass(frozen=True)
class BoolV(Value):
    value: bool


@dataclass(frozen=True)
class IntV(Value):
    value: int
    width: object = None  # literal width or None for arbitrary precision


@dataclass(frozen=True)
class RecordV(Value):
    fields: tuple  # ordered (name, Value) pairs


@dataclass(frozen=True)
class HeaderV(Value):
    valid: bool
    fields: tuple  # ordered (name, BaseType, Value) triples


@dataclass(frozen=True)
class MemberV(Value):
    """A member of an enum or open enumeration (error / match_kind)."""

    type_name: str
    member: str


@dataclass(frozen=True)
class StackV(Value):
    elem_type: BaseType
    values: tuple


@dataclass(frozen=True)
class UnionV(Value):
    type: UnionT
    field: str
    value: Value


@dataclass(frozen=True, eq=False)
class ClosureV(Value):
    env: dict  # name -> location, captured at declaration
    type_params: tuple
    params: tuple  # Params
    ret: Type
    local_decls: tuple  # nonempty only for control instances
    body: BlockS


@dataclass(frozen=True)
class NativeV(Value):
    name: str
    type_params: tuple
    params: tuple
    ret: Type


@dataclass(frozen=True, eq=False)
class TableV(Value):
    id: int  # fresh location used as the control-plane handle
    env: dict
    keys: tuple
    actions: tuple


@dataclass(frozen=True, eq=False)
class CtorClosureV(Value):
    env: dict
    name: str
    params: tuple  # run-time Params of the produced instance
    ctor_params: tuple
    local_decls: tuple
    body: BlockS


@dataclass(frozen=True)
class ContinueSig:
    pass


@dataclass(frozen=True)
class ReturnSig:
    value: Value


CONTINUE = ContinueSig()


class ExitUnwind(Exception):
    """Internal carrier for the exit signal across nested rule applications."""


# ---------------------------------------------------------------------------
# Contexts

class Delta:
    """Ordered type-definition context: `X var` entries and `X = t` entries.

    Later entries shadow earlier ones; error/match_kind declarations merge
    their member sets instead (open enumerations).
    """

    def __init__(self, entries=()):
        self.entries = list(entries)  # ("var", name) | ("def", name, type)

    def copy(self):
        return Delta(self.entries)

    def lookup(self, name):
        """Return "var", a Type, or None."""
        for entry in reversed(self.entries):
            if entry[1] == name:
                return "var" if entry[0] == "var" else entry[2]
        return None

    def bind_var(self, name):
        d = self.copy()
        d.entries.append(("var", name))
        return d

    def bind(self, name, t):
        d = self.copy()
        if isinstance(t, (ErrorT, MatchKindT)):
            old = self.lookup(name)
            if isinstance(old, (ErrorT, MatchKindT)):
                merged = old.members + tuple(
                    m for m in t.members if m not in old.members
                )
                t = type(t)(merged)
        d.entries.append(("def", name, t))
        return d

    def names(self):
        return {e[1] for e in self.entries}

    def __repr__(self):
        return f"Delta({self.entries!r})"


class Machine:
    """Store, environment, and target state for one evaluation run."""

    def __init__(self, target=None, max_steps=None):
        self.store = {}  # location -> Value
        self.env = {}  # name -> location
        self.next_loc = 0
        self.target = target
        self.steps = 0
        self.max_steps = max_steps

    def fresh_loc(self, value):
        loc = self.next_loc
        self.next_loc += 1
        self.store[loc] = value
        return loc

    def tick(self):
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExhausted(self.max_steps)


# ---------------------------------------------------------------------------
# Type operations

def type_equal(t1, t2, _ren=None):
    """Syntactic equality of normalized types modulo renaming of the bound
    type parameters of function types."""
    ren = _ren or {}
    match t1, t2:
        case VarT(a), VarT(b):
            return ren.get(a, a) == b
        case FunT(tp1, ps1, r1), FunT(tp2, ps2, r2):
            if len(tp1) != len(tp2) or len(ps1) != len(ps2):
                return False
            inner = dict(ren)
            inner.update(zip(tp1, tp2))
            for p1, p2 in zip(ps1, ps2):
                if p1.direction != p2.direction:
                    return False
                if not type_equal(p1.type, p2.type, inner):
                    return False
            return type_equal(r1, r2, inner)
        case CtorT(ps1, r1), CtorT(ps2, r2):
            if len(ps1) != len(ps2):
                return False
            return all(
                type_equal(a[1], b[1], ren) for a, b in zip(ps1, ps2)
            ) and type_equal(r1, r2, ren)
        case RecordT(fs1), RecordT(fs2):
            return _fields_equal(fs1, fs2, ren)
        case HeaderT(fs1), HeaderT(fs2):
            return _fields_equal(fs1, fs2, ren)
        case UnionT(n1, fs1), UnionT(n2, fs2):
            return n1 == n2 and _fields_equal(fs1, fs2, ren)
        case StackT(e1, n1), StackT(e2, n2):
            return n1 == n2 and type_equal(e1, e2, ren)
        case _:
            return t1 == t2


def _fields_equal(fs1, fs2, ren):
    if len(fs1) != len(fs2):
        return False
    return all(
        n1 == n2 and type_equal(a, b, ren) for (n1, a), (n2, b) in zip(fs1, fs2)
    )


def free_type_vars(t, bound=frozenset()):
    """Type-variable names of t not bound by enclosing type-parameter lists."""
    match t:
        case VarT(name):
            return set() if name in bound else {name}
        case BitT(w):
            return set()
        case RecordT(fs) | HeaderT(fs) | UnionT(_, fs):
            out = set()
            for _, ft in fs:
                out |= free_type_vars(ft, bound)
            return out
        case StackT(elem, _):
            return free_type_vars(elem, bound)
        case FunT(tps, ps, ret):
            inner = bound | set(tps)
            out = free_type_vars(ret, inner)
            for p in ps:
                out |= free_type_vars(p.type, inner)
            return out
        case CtorT(ps, ret):
            out = free_type_vars(ret, bound)
            for _, pt in ps:
                out |= free_type_vars(pt, bound)
            return out
        case _:
            return set()


# ---------------------------------------------------------------------------
# Canonical serialization

def to_obj(node):
    """Serialize any AST/type/value node to plain dicts/lists with stable tags."""
    if is_dataclass(node) and not isinstance(node, type):
        out = {"node": type(node).__name__}
        for f in fields(node):
            if f.name == "pos":
                continue
            out[f.name] = to_obj(getattr(node, f.name))
        return out
    if isinstance(node, Delta):
        return {"node": "Delta", "entries": to_obj(node.entries)}
    if isinstance(node, (list, tuple)):
        return [to_obj(x) for x in node]
    if isinstance(node, dict):
        return {k: to_obj(v) for k, v in sorted(node.items(), key=lambda kv: str(kv[0]))}
    return node
