"""Syntactic and semantic domains of the calculus.

Types, expressions, statements, declarations, l-values, run-time values,
the exit signal, the four checking contexts, and the mutable machine state.
"""

from __future__ import annotations

from dataclasses import (
    MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass)


def _pos():
    return field(default=(0, 0), compare=False, repr=False)


def _frozen(self, name, value=None):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def node(cls=None, *, eq=True):
    """Make cls an immutable dataclass with one slot per field. Its __init__
    stores each field through the slot's descriptor (no __setattr__ or
    __dict__); with eq, == and hash compare the fields but pos (== is False
    for another class, in one call), and without it the class keeps its own
    or identity. These methods and __repr__ are compiled from one source per
    class, and the docstring names the fields: dataclass() would exec each
    apart and call inspect.signature, a fifth of the time to import pcore."""
    if cls is None:
        return lambda c: node(c, eq=eq)
    names = ", ".join(vars(cls).get("__annotations__", ()))
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({names})"
    cls = dataclass(cls, slots=True, init=False, repr=False, eq=False)
    cls.__setattr__ = cls.__delattr__ = _frozen
    fs = fields(cls)
    ns = {f"_set_{f.name}": getattr(cls, f.name).__set__ for f in fs}
    ns |= {f"_default_{f.name}": f.default for f in fs}
    params = "".join(f", {f.name}" if f.default is MISSING
                     else f", {f.name}=_default_{f.name}" for f in fs)
    body = "".join(f"\n    _set_{f.name}(self, {f.name})" for f in fs)
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fs if f.repr)
    mine, theirs = ("(" + "".join(f"{who}.{f.name}," for f in fs if f.compare)
                    + ")" for who in ("self", "other"))
    # without the trailing commas, one field is compared itself, not in a tuple
    same = f"{mine} == {theirs}".replace(",)", ")")
    exec(compile(
        f"def __init__(self{params}):{body or ' pass'}\n"
        "def __repr__(self):\n"
        f"    return self.__class__.__qualname__ + f'({shown})'\n"
        "def __eq__(self, other):\n"
        f"    return other.__class__ is self.__class__ and {same}\n"
        f"def __hash__(self):\n    return hash({mine})\n",
        f"<{cls.__name__}>", "exec"), ns)
    for name in ["__init__", "__repr__"] + ["__eq__", "__hash__"] * eq:
        setattr(cls, name, ns[name])
    return cls


# ---------------------------------------------------------------------------
# Types

class Type:
    """Base class for every type form."""
    __slots__ = ()


class BaseType(Type):
    __slots__ = ()


@node
class BoolT(BaseType):
    pass


@node
class IntT(BaseType):
    pass


@node
class BitT(BaseType):
    # width is a literal int once normalized; an Expr before simplification
    width: object


# keyword -> first member of each open enumeration: a type named by its
# keyword, whose every declaration adds members
OPEN_ENUMS = {"error": "NoError", "match_kind": "exact"}


@node(eq=False)
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


@node
class RecordT(BaseType):
    fields: tuple  # ordered (name, BaseType) pairs


@node
class HeaderT(BaseType):
    fields: tuple


@node
class StackT(BaseType):
    elem: BaseType
    size: object  # literal int once normalized


@node
class VarT(BaseType):
    name: str


@node
class UnionT(BaseType):
    name: str
    alts: tuple  # ordered (field name, BaseType) pairs


@node
class TableT(Type):
    pass


@node
class Param:
    direction: str  # "in" | "out" | "inout"
    name: str
    type: Type


@node(eq=False)
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
        # alpha-equivalence: parameter names and bound names do not matter;
        # `is` first: the machine oracle compares each native's type with itself
        return other is self or (
            type(other) is FunT and len(other.type_params) == len(self.type_params)
            and other._canonical() == self._canonical())

    def __hash__(self):
        return hash((len(self.type_params), *(p.direction for p in self.params)))


@node(eq=False)
class CtorT(Type):
    params: tuple  # (name, Type) pairs
    ret: Type

    def __eq__(self, other):
        # parameter names do not matter
        return (type(other) is CtorT and other.ret == self.ret
                and [t for _, t in other.params] == [t for _, t in self.params])

    def __hash__(self):
        return hash((len(self.params), self.ret))


VOID = RecordT(())  # the empty record doubles as the void return type

# ---------------------------------------------------------------------------
# Expressions

class Expr:
    __slots__ = ()


@node
class BoolE(Expr):
    value: bool
    pos: tuple = _pos()


@node
class IntE(Expr):
    value: int
    width: object = None  # literal width, or None for arbitrary precision
    pos: tuple = _pos()


@node
class VarE(Expr):
    name: str
    pos: tuple = _pos()


@node
class IndexE(Expr):
    base: Expr
    index: Expr
    pos: tuple = _pos()


@node
class SliceE(Expr):
    base: Expr
    hi: Expr
    lo: Expr
    pos: tuple = _pos()


@node
class UnopE(Expr):
    op: str
    operand: Expr
    pos: tuple = _pos()


@node
class BinopE(Expr):
    op: str
    left: Expr
    right: Expr
    pos: tuple = _pos()


@node
class CastE(Expr):
    type: BaseType
    operand: Expr
    pos: tuple = _pos()


@node
class RecordE(Expr):
    fields: tuple  # ordered (name, Expr) pairs
    pos: tuple = _pos()


@node
class MemberE(Expr):
    base: Expr
    field: str
    pos: tuple = _pos()


@node
class CallE(Expr):
    callee: Expr
    type_args: tuple  # BaseType list
    args: tuple  # Expr list
    pos: tuple = _pos()


# ---------------------------------------------------------------------------
# Statements

class Stmt:
    __slots__ = ()


@node
class CallS(Stmt):
    call: CallE
    pos: tuple = _pos()


@node
class AssignS(Stmt):
    lhs: Expr
    rhs: Expr
    pos: tuple = _pos()


@node
class IfS(Stmt):
    cond: Expr
    then: Stmt
    els: Stmt
    pos: tuple = _pos()


@node
class BlockS(Stmt):
    stmts: tuple  # Stmt | Decl items
    pos: tuple = _pos()


@node
class ExitS(Stmt):
    pos: tuple = _pos()


@node
class ReturnS(Stmt):
    value: Expr
    pos: tuple = _pos()


@node
class SwitchS(Stmt):
    """Union switch: cases carry a field label or None for default."""

    scrutinee: Expr
    cases: tuple  # (label or None, BlockS) pairs
    pos: tuple = _pos()


# ---------------------------------------------------------------------------
# Declarations

class Decl:
    __slots__ = ()


@node
class ConstD(Decl):
    type: Type
    name: str
    init: Expr
    pos: tuple = _pos()


@node
class VarInitD(Decl):
    type: Type
    name: str
    init: Expr
    pos: tuple = _pos()


@node
class VarUninitD(Decl):
    type: Type
    name: str
    pos: tuple = _pos()


@node
class InstD(Decl):
    type_name: str
    args: tuple  # constructor argument Exprs
    name: str
    pos: tuple = _pos()


@node
class TypedefD(Decl):
    type: Type
    name: str
    pos: tuple = _pos()


@node
class EnumD(Decl):
    name: str
    members: tuple
    pos: tuple = _pos()


@node
class UnionD(Decl):
    name: str
    alts: tuple  # (field name, BaseType) pairs
    pos: tuple = _pos()


@node
class ActionRef:
    name: str
    args: tuple  # static argument Exprs
    ctrl_params: tuple  # (name, BaseType) pairs supplied by the control plane
    pos: tuple = _pos()


@node
class TableD(Decl):
    name: str
    keys: tuple  # (Expr, match-kind name) pairs
    actions: tuple  # ActionRef list; last one is the default action
    pos: tuple = _pos()


@node
class ControlD(Decl):
    name: str
    params: tuple  # run-time Params
    ctor_params: tuple  # (name, Type) pairs
    local_decls: tuple
    body: BlockS
    pos: tuple = _pos()

    @property
    def type(self):
        """The constructor type as spelled: an instance is a void function."""
        return CtorT(self.ctor_params, FunT((), self.params, VOID))


@node
class FuncD(Decl):
    ret: Type
    name: str
    type_params: tuple
    params: tuple  # Params
    body: BlockS
    pos: tuple = _pos()
    local_decls = ()  # not a field: a function declares no locals

    @property
    def type(self):
        """The function type as spelled."""
        return FunT(self.type_params, self.params, self.ret)


@node
class Program:
    decls: tuple


# ---------------------------------------------------------------------------
# L-values (post-evaluation: all indices are literals)

class LValue:
    __slots__ = ()


@node
class LVar(LValue):
    name: str


@node
class LField(LValue):
    base: LValue
    field: str


@node
class LElem(LValue):
    base: LValue
    index: int


@node
class LBitRange(LValue):
    base: LValue
    hi: int
    lo: int


# ---------------------------------------------------------------------------
# Values and the exit signal

class Value:
    __slots__ = ()


@node
class BoolV(Value):
    value: bool


@node
class IntV(Value):
    value: int
    width: object = None  # literal width or None for arbitrary precision


@node
class RecordV(Value):
    fields: tuple  # ordered (name, Value) pairs


VOID_V = RecordV(())  # the value of a void call


@node
class HeaderV(Value):
    valid: bool
    fields: tuple  # ordered (name, BaseType, Value) triples


@node
class MemberV(Value):
    """A member of an enum, open (error, match_kind) or not."""

    type_name: str
    member: str


@node
class StackV(Value):
    elem_type: BaseType
    values: tuple


@node
class UnionV(Value):
    type: UnionT
    field: str
    value: Value


@node(eq=False)
class ClosureV(Value):
    env: dict  # name -> location, captured at declaration
    delta: Delta  # type definitions, captured with env
    type: Type  # a function's or instance's FunT, or a control's CtorT
    local_decls: tuple  # nonempty only for controls
    body: BlockS


@node
class NativeV(Value):
    name: str
    type: FunT


@node(eq=False)
class TableV(Value):
    name: str  # the declared name, under which the control plane holds rules
    env: dict
    delta: Delta
    keys: tuple
    actions: tuple


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

    def bind_var(self, *names):
        # a Delta is never updated in place, so binding nothing shares it
        return Delta({**self, **dict.fromkeys(names, "var")}) if names else self

    def bind(self, name, t):
        old = self.get(name)
        if name in OPEN_ENUMS and old is not None:
            t = EnumT(name, old.members + tuple(
                m for m in t.members if m not in old.members))
        return Delta({**self, name: t})


MAX_STEPS = 10**6  # the default step budget of every machine and entry point


class Machine:
    """Store, scope (env and delta), target and control plane of one run,
    and its step budget."""

    def __init__(self, target=None, max_steps=MAX_STEPS):
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
