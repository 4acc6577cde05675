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


# keyword -> first member of each open enumeration: a type named by its
# keyword, whose every declaration adds members
OPEN_ENUMS = {"error": "NoError", "match_kind": "exact"}


@dataclass(frozen=True, eq=False)
class EnumT(BaseType):
    name: str
    members: tuple

    @property
    def open(self):
        return self.name in OPEN_ENUMS

    def __eq__(self, other):
        # an open enumeration's members grow, so its snapshots are equal
        return type(other) is EnumT and other.name == self.name and (
            self.open or other.members == self.members)

    def __hash__(self):
        return hash(self.name)

    def __str__(self):
        return self.name if self.open else f"enum {self.name}"


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


@dataclass(frozen=True, eq=False)
class FunT(Type):
    type_params: tuple  # names
    params: tuple  # Param list
    ret: Type

    def _canonical(self):
        """Directions, parameter types and return type, with each type
        parameter renamed to its position (a name no source can spell)."""
        ren = {x: VarT(str(i)) for i, x in enumerate(self.type_params)}
        ps = tuple((p.direction, subst_type(p.type, ren)) for p in self.params)
        return ps, subst_type(self.ret, ren)

    def __eq__(self, other):
        # alpha-equivalence: parameter names and bound names do not matter
        return (type(other) is FunT
                and len(other.type_params) == len(self.type_params)
                and other._canonical() == self._canonical())

    def __hash__(self):
        return hash((len(self.type_params), *(p.direction for p in self.params)))

    def __str__(self):
        tps = f"<:{', '.join(self.type_params)}:>" if self.type_params else ""
        ps = ", ".join(str(p) for p in self.params)
        return f"fun{tps}({ps}) -> {self.ret}"


@dataclass(frozen=True, eq=False)
class CtorT(Type):
    params: tuple  # (name, Type) pairs
    ret: Type

    def __eq__(self, other):
        # parameter names do not matter
        return (type(other) is CtorT and other.ret == self.ret
                and [t for _, t in other.params] == [t for _, t in self.params])

    def __hash__(self):
        return hash((len(self.params), self.ret))

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
    """A member of an enum, open (error, match_kind) or not."""

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
    delta: Delta  # type definitions, captured with env
    type: FunT  # normal but for its type parameters
    local_decls: tuple  # nonempty only for control instances
    body: BlockS


@dataclass(frozen=True)
class NativeV(Value):
    name: str
    type: FunT


@dataclass(frozen=True, eq=False)
class TableV(Value):
    name: str  # the declared name, under which the control plane holds rules
    env: dict
    delta: Delta
    keys: tuple
    actions: tuple


@dataclass(frozen=True, eq=False)
class CtorClosureV(Value):
    env: dict
    delta: Delta
    type: CtorT  # normal; its result is the type of the produced instance
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

class Delta(dict):
    """Type-definition context: a name maps to "var" (a type variable) or
    to the type it defines.

    A later binding overrides an earlier one; a declaration of an open
    enumeration (error, match_kind) adds its new members instead.
    """

    def copy(self):
        return Delta(self)

    def lookup(self, name):
        """Return "var", a Type, or None."""
        return self.get(name)

    def bind_var(self, *names):
        return Delta({**self, **dict.fromkeys(names, "var")})

    def bind(self, name, t):
        old = self.get(name)
        if name in OPEN_ENUMS and old is not None:
            t = EnumT(name, old.members + tuple(
                m for m in t.members if m not in old.members))
        return Delta({**self, name: t})


class Machine:
    """Store, scope (env and delta), target and control plane of one run."""

    def __init__(self, target=None, max_steps=None):
        self.store = {}  # location -> Value
        self.env = {}  # name -> location
        self.delta = Delta()
        self.cp = None
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


def subst_type(t, tvars):
    """t with each free type variable named in tvars replaced by its type;
    the type parameters of a function type inside t shadow tvars."""
    if not tvars:
        return t
    match t:
        case VarT(name):
            return tvars.get(name, t)
        case RecordT(fs) | HeaderT(fs):
            return type(t)(_subst_fields(fs, tvars))
        case UnionT(name, fs):
            return UnionT(name, _subst_fields(fs, tvars))
        case StackT(elem, n):
            return StackT(subst_type(elem, tvars), n)
        case FunT(tps, ps, ret):
            inner = {x: u for x, u in tvars.items() if x not in tps}
            ps = tuple(Param(p.direction, p.name, subst_type(p.type, inner))
                       for p in ps)
            return FunT(tps, ps, subst_type(ret, inner))
        case CtorT(ps, ret):
            return CtorT(_subst_fields(ps, tvars), subst_type(ret, tvars))
        case _:
            return t


def _subst_fields(fs, tvars):
    return tuple((n, subst_type(ft, tvars)) for n, ft in fs)


def reads_as_expression(t):
    """True when t is spelled as a name with any `[n]`, as an expression is."""
    while isinstance(t, StackT):
        t = t.elem
    return isinstance(t, VarT)


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
    if isinstance(node, (list, tuple)):
        return [to_obj(x) for x in node]
    if isinstance(node, dict):
        return {k: to_obj(v) for k, v in sorted(node.items(), key=lambda kv: str(kv[0]))}
    return node
