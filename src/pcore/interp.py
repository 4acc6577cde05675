"""Big-step dynamic semantics.

Each job (expressions, l-values, reading and writing through l-values,
statements, declarations) is one table from node class to rule; its
dispatcher counts the step, looks up the node's class and applies the rule.

Conventions:
- the store, target and control plane are mutated in place;
- the scope is lexical: the environment `env` and the type definitions
  `delta`, neither written once made. A binding builds a new scope;
  closures, constructors and tables capture theirs by reference, and
  scoping rules save and restore both around blocks, branches, calls and
  table applies;
- a statement returns None to continue or the value its return produced;
  the exit signal travels as the ExitUnwind exception so every enclosing
  rule aborts, with calls catching it to run their pending copy-outs first;
- one step is counted per rule application against the machine's budget;
- run-time types are normalized by the checker's `simplify_type`, with the
  store standing in for the compile-time constants; a generic call
  instantiates the callee's normal signature with `subst_type`;
- `run_program` is the one run path: every entry point builds a machine and
  hands it the program, whose `main` instance it calls when there is one.
"""

from __future__ import annotations

from .errors import BudgetExhausted, EvalError
from . import ops
from .syntax import (
    ActionRef, AssignS, BinopE, BlockS, BoolE, BoolV, CallE, CallS, CastE,
    ClosureV, ConstD, ControlD, CtorT, EnumD, EnumT, ExitS, ExitUnwind, FuncD,
    FunT, HeaderV, IfS, IndexE, InstD, IntE, IntV, LBitRange, LElem, LField,
    LVar, MemberE, MemberV, NativeV, RecordE, RecordV, ReturnS,
    SliceE, StackV, SwitchS, TableD, TableV, TypedefD, UnionD, UnionT, UnionV,
    UnopE, VarE, VarInitD, VarUninitD, VOID, VOID_V, Delta, subst_type,
)
from .syntax import MAX_STEPS  # noqa: F401 (re-export)
from .pretty import pretty_type
from .typecheck import VAR_DECLS, infer_type_of_value, initial_delta, simplify_type


# ---------------------------------------------------------------------------
# Runtime type evaluation

class _StoreConsts:
    """The store read through the environment: the constants that width and
    size expressions are evaluated against at run time."""

    __slots__ = ("machine",)

    def __init__(self, machine):
        self.machine = machine

    def __contains__(self, name):
        return name in self.machine.env

    def __getitem__(self, name):
        return self.machine.store[self.machine.env[name]]


def eval_type_runtime(machine, t):
    """Normalize t in the current scope with the checker's simplify_type, with
    width and size expressions evaluated against the store."""
    return simplify_type(_StoreConsts(machine), machine.delta, t)


# ---------------------------------------------------------------------------
# Expression evaluation

def eval_expression(machine, e):
    machine.steps += 1
    if machine.steps > machine.max_steps:
        raise BudgetExhausted(machine.max_steps)
    rule = _EXPR_RULES.get(type(e))
    if rule is None:
        raise EvalError(f"cannot evaluate {type(e).__name__}")
    return rule(machine, e)


def _eval_var(machine, e):
    if e.name not in machine.env:
        raise EvalError(f"unbound variable {e.name!r}")
    return machine.store[machine.env[e.name]]


def _type_of(machine, v):
    """The type of the value v as the source spells it, for a message."""
    return pretty_type(infer_type_of_value(machine.delta, v))


def _eval_cast(machine, e):
    v, t = eval_expression(machine, e.operand), eval_type_runtime(machine, e.type)
    if (cast := ops.eval_cast(v, t)) is None:
        raise EvalError(f"cannot cast {_type_of(machine, v)} to {pretty_type(t)}")
    return cast


def _eval_member(machine, e):
    base = e.base
    if (isinstance(base, VarE) and base.name not in machine.env
            and isinstance(et := machine.delta.get(base.name), EnumT)):
        return MemberV(et.name, e.field)  # a typedef names the enum itself
    bv = eval_expression(machine, base)
    return _read_field(machine, bv, e.field)


_EXPR_RULES = {
    BoolE: lambda machine, e: BoolV(e.value),
    IntE: lambda machine, e: IntV(e.value, e.width),
    VarE: _eval_var,
    IndexE: lambda machine, e: _read_elem(
        machine, eval_expression(machine, e.base),
        eval_expression(machine, e.index).value),
    SliceE: lambda machine, e: ops.slice_bits(
        eval_expression(machine, e.base),
        eval_expression(machine, e.hi).value,
        eval_expression(machine, e.lo).value),
    UnopE: lambda machine, e: ops.eval_unop(e.op, eval_expression(machine, e.operand)),
    BinopE: lambda machine, e: ops.eval_binop(
        e.op, eval_expression(machine, e.left), eval_expression(machine, e.right)),
    CastE: _eval_cast,
    RecordE: lambda machine, e: RecordV(tuple([
        (n, eval_expression(machine, fe)) for n, fe in e.fields])),
    MemberE: _eval_member,
    CallE: lambda machine, e: _call(machine, eval_expression(machine, e.callee), e),
}


# ---------------------------------------------------------------------------
# L-values

def eval_lvalue(machine, e):
    """Evaluate an assignable expression to a literal-index l-value."""
    machine.steps += 1
    if machine.steps > machine.max_steps:
        raise BudgetExhausted(machine.max_steps)
    rule = _LVALUE_RULES.get(type(e))
    if rule is None:
        raise EvalError(f"not an l-value: {type(e).__name__}")
    return rule(machine, e)


_LVALUE_RULES = {
    VarE: lambda machine, e: LVar(e.name),
    MemberE: lambda machine, e: LField(eval_lvalue(machine, e.base), e.field),
    IndexE: lambda machine, e: LElem(
        eval_lvalue(machine, e.base), eval_expression(machine, e.index).value),
    SliceE: lambda machine, e: LBitRange(
        eval_lvalue(machine, e.base),
        eval_expression(machine, e.hi).value,
        eval_expression(machine, e.lo).value),
}


def read_lvalue(machine, lv):
    rule = _READ_RULES.get(type(lv))
    if rule is None:
        raise EvalError(f"bad l-value {lv!r}")
    return rule(machine, lv)


_READ_RULES = {
    LVar: lambda machine, lv: machine.store[machine.env[lv.name]],
    LField: lambda machine, lv: _read_field(
        machine, read_lvalue(machine, lv.base), lv.field),
    LElem: lambda machine, lv: _read_elem(
        machine, read_lvalue(machine, lv.base), lv.index),
    LBitRange: lambda machine, lv: ops.slice_bits(
        read_lvalue(machine, lv.base), lv.hi, lv.lo),
}


def _read_field(machine, bv, f):
    """Field f of a record or header; an invalid header's fields havoc."""
    match bv:
        case RecordV(fs):
            for n, fv in fs:
                if n == f:
                    return fv
            raise EvalError(f"no field {f!r}")
        case HeaderV(valid, fs):
            for n, ft, fv in fs:
                if n == f:
                    return fv if valid else machine.target.havoc(ft)
            raise EvalError(f"no field {f!r}")
        case UnionV():
            raise EvalError("union fields cannot be read directly")
    raise EvalError(f"field read on {_type_of(machine, bv)}")


def _read_elem(machine, bv, i):
    """Element i of a stack; an out-of-bounds read havocs."""
    if not isinstance(bv, StackV):
        raise EvalError(f"indexing a non-stack {_type_of(machine, bv)}")
    if 0 <= i < len(bv.values):
        return bv.values[i]
    return machine.target.havoc(bv.elem_type)


def write_lvalue(machine, lv, fn):
    """Set the place lv names to fn(its old value), rebuilding its variable
    top-down; a write through an invalid header or past a stack's end is discarded."""
    rule = _WRITE_RULES.get(type(lv))
    if rule is None:
        raise EvalError(f"bad l-value {lv!r}")
    rule(machine, lv, fn)


def _write_var(machine, lv, fn):
    loc = machine.env[lv.name]
    machine.store[loc] = fn(machine.store[loc])


def _with_field(machine, bv, f, fn):
    """bv with its field f replaced by fn(old); a union, by its alternative f."""
    match bv:
        case RecordV(fs):
            return RecordV(tuple([(n, fn(fv) if n == f else fv) for n, fv in fs]))
        case HeaderV(True, fs):
            return HeaderV(True, tuple([
                (n, ft, fn(fv) if n == f else fv) for n, ft, fv in fs]))
        case HeaderV():
            return bv  # writes into invalid headers are discarded
        case UnionV(t):  # only an assignment writes an alternative (T-Union)
            return UnionV(t, f, fn(None))
    raise EvalError(f"field write on {_type_of(machine, bv)}")


def _with_elem(bv, i, fn):
    """bv with element i replaced by fn(old), unless i is past the end."""
    if not 0 <= i < len(vs := bv.values):
        return bv
    return StackV(bv.elem_type, vs[:i] + (fn(vs[i]),) + vs[i + 1:])


_WRITE_RULES = {
    LVar: _write_var,
    LField: lambda machine, lv, fn: write_lvalue(
        machine, lv.base, lambda bv: _with_field(machine, bv, lv.field, fn)),
    LElem: lambda machine, lv, fn: write_lvalue(
        machine, lv.base, lambda bv: _with_elem(bv, lv.index, fn)),
    LBitRange: lambda machine, lv, fn: write_lvalue(
        machine, lv.base, lambda bv: ops.set_bits(
            bv, lv.hi, lv.lo, fn(ops.slice_bits(bv, lv.hi, lv.lo)))),
}


# ---------------------------------------------------------------------------
# Copy-in / copy-out

def copy_in(machine, direction, t, arg_expr):
    """Returns (fresh location, the l-value to copy out to or None)."""
    machine.steps += 1
    if machine.steps > machine.max_steps:
        raise BudgetExhausted(machine.max_steps)
    match direction:
        case "in":
            v = eval_expression(machine, arg_expr)
            return machine.fresh_loc(v), None
        case "out":
            lv = eval_lvalue(machine, arg_expr)
            return machine.fresh_loc(ops.init_value(t)), lv
        case "inout":
            lv = eval_lvalue(machine, arg_expr)
            v = read_lvalue(machine, lv)
            return machine.fresh_loc(v), lv
    raise EvalError(f"bad direction {direction!r}")


def copy_out(machine, tasks):
    """Write parameter values back through their l-values, in parameter
    order: later writes overwrite earlier ones."""
    for lv, loc in tasks:
        machine.steps += 1
        if machine.steps > machine.max_steps:
            raise BudgetExhausted(machine.max_steps)
        write_lvalue(machine, lv, lambda _: machine.store[loc])


# ---------------------------------------------------------------------------
# Calls

def eval_call(cp, delta, machine, callee, e):
    """Call callee with the control plane cp, in the scope of delta."""
    machine.cp, machine.delta = cp, delta
    return _call(machine, callee, e)


def _call(machine, callee, e):
    if isinstance(callee, NativeV):
        return _call_native(machine, callee, e)
    if isinstance(callee, ClosureV) and isinstance(callee.type, FunT):
        return _call_closure(machine, callee, e.type_args, e.args)
    raise EvalError(f"calling a non-function {_type_of(machine, callee)}")


def _bind_args(machine, fn, type_args, arg_exprs):
    """Evaluate the type arguments of fn (a closure or native) and copy in its
    arguments, both in the caller's scope. Returns the type arguments by type
    parameter, the (parameter name, location) bindings and copy-out tasks."""
    tps = fn.type.type_params
    tvars = {x: eval_type_runtime(machine, ta)
             for x, ta in zip(tps, type_args)} if tps else {}
    locs, tasks = [], []
    for p, arg in zip(fn.type.params, arg_exprs):
        # fn's types are normal but for its type parameters
        loc, lv = copy_in(machine, p.direction, subst_type(p.type, tvars), arg)
        locs.append((p.name, loc))
        if lv is not None:
            tasks.append((lv, loc))
    return tvars, locs, tasks


def _call_closure(machine, clos, type_args, arg_exprs, extra_values=()):
    ft = clos.type
    if len(arg_exprs) + len(extra_values) != len(ft.params):
        raise EvalError(
            f"closure expects {len(ft.params)} arguments, got "
            f"{len(arg_exprs) + len(extra_values)}"
        )
    tvars, locs, tasks = _bind_args(machine, clos, type_args, arg_exprs)
    for p, v in zip(ft.params[len(arg_exprs):], extra_values):
        locs.append((p.name, machine.fresh_loc(v)))
    assert len({loc for _, loc in locs}) == len(locs)  # aliasing freedom
    saved = machine.env, machine.delta
    machine.env = dict(clos.env)  # a new scope with the parameters
    machine.env.update(locs)
    machine.delta = Delta({**clos.delta, **tvars}) if tvars else clos.delta
    try:
        for ld in clos.local_decls:
            eval_declaration(machine, ld)
        sig = eval_statement(machine, clos.body)
    except ExitUnwind:
        machine.env, machine.delta = saved
        copy_out(machine, tasks)
        raise
    machine.env, machine.delta = saved
    copy_out(machine, tasks)
    if sig is not None:
        return sig
    if ft.ret == VOID:
        return VOID_V
    raise EvalError("non-void function body fell through")


def _call_native(machine, native, e):
    _, locs, tasks = _bind_args(machine, native, e.type_args, e.args)
    result = machine.target.dispatch(native.name, machine, [loc for _, loc in locs])
    copy_out(machine, tasks)
    return result


def eval_table_apply(machine, tv):
    """Apply tv in its own scope; the control plane types the rules' keys in
    the scope that applies it."""
    machine.steps += 1
    if machine.steps > machine.max_steps:
        raise BudgetExhausted(machine.max_steps)
    saved = machine.env, machine.delta
    machine.env, machine.delta = tv.env, tv.delta
    try:
        key_vals = [eval_expression(machine, e) for e, _ in tv.keys]
        cp, kinds = machine.cp, [kind for _, kind in tv.keys]
        name, ctrl_vals = ((tv.actions[-1].name, ()) if cp is None else
                           cp.lookup(tv.name, key_vals, kinds, tv.actions, saved[1]))
        for aref in tv.actions:
            if aref.name == name:
                break
        else:
            raise EvalError(f"table {tv.name!r} has no action {name!r}")
        clos = machine.store[machine.env[aref.name]]
        _call_closure(machine, clos, (), aref.args, tuple(ctrl_vals))
    finally:
        machine.env, machine.delta = saved


# ---------------------------------------------------------------------------
# Statements

def eval_statement(machine, s):
    machine.steps += 1
    if machine.steps > machine.max_steps:
        raise BudgetExhausted(machine.max_steps)
    rule = _STMT_RULES.get(type(s))
    if rule is None:
        raise EvalError(f"cannot evaluate statement {type(s).__name__}")
    return rule(machine, s)


def _exec_block(machine, s):
    saved = machine.env, machine.delta
    try:
        for item in s.stmts:
            if isinstance(item, VAR_DECLS):
                eval_declaration(machine, item)
            else:
                sig = eval_statement(machine, item)
                if sig is not None:
                    return sig
    finally:
        machine.env, machine.delta = saved


def _exec_assign(machine, s):
    # a member assignment counts a step for its base only
    lv = (LField(eval_lvalue(machine, s.lhs.base), s.lhs.field)
          if isinstance(s.lhs, MemberE) else eval_lvalue(machine, s.lhs))
    v = eval_expression(machine, s.rhs)
    write_lvalue(machine, lv, lambda _: v)


def _exec_call(machine, s):
    callee = eval_expression(machine, s.call.callee)
    if isinstance(callee, TableV):
        eval_table_apply(machine, callee)
    else:
        _call(machine, callee, s.call)


def _exec_exit(machine, s):
    raise ExitUnwind()


def _exec_switch(machine, s):
    uv = eval_expression(machine, s.scrutinee)
    if not isinstance(uv, UnionV):
        raise EvalError(f"switch on a non-union {_type_of(machine, uv)}")
    for label, body in s.cases:
        if label == uv.field:
            saved_env = machine.env
            machine.env = {**saved_env, label: machine.fresh_loc(uv.value)}
            try:
                return eval_statement(machine, body)
            finally:
                machine.env = saved_env
    for label, body in s.cases:
        if label is None:
            return eval_statement(machine, body)


_STMT_RULES = {
    BlockS: _exec_block,
    AssignS: _exec_assign,
    IfS: lambda machine, s: eval_statement(
        machine, s.then if eval_expression(machine, s.cond).value else s.els),
    CallS: _exec_call,
    ExitS: _exec_exit,
    ReturnS: lambda machine, s: eval_expression(machine, s.value),
    SwitchS: _exec_switch,
}


# ---------------------------------------------------------------------------
# Declarations

def eval_declaration(machine, d):
    """Extends the machine's env and store, or its delta (type declarations)."""
    machine.steps += 1
    if machine.steps > machine.max_steps:
        raise BudgetExhausted(machine.max_steps)
    rule = _DECL_RULES.get(type(d))
    if rule is None:
        raise EvalError(f"cannot evaluate declaration {type(d).__name__}")
    rule(machine, d)


def _bind(machine, name, v):
    """Bind name to a fresh location holding v, in a new scope."""
    machine.env = {**machine.env, name: machine.fresh_loc(v)}


def _define(machine, name, t):
    """Bind the type name to t."""
    machine.delta = machine.delta.bind(name, t)


def _decl_inst(machine, d):
    ctor = machine.store[machine.env[d.type_name]]
    if not (isinstance(ctor, ClosureV) and isinstance(ctor.type, CtorT)):
        raise EvalError(f"{d.type_name!r} is not a constructor")
    env2 = dict(ctor.env)
    for (pname, _), arg in zip(ctor.type.params, d.args):
        env2[pname] = machine.fresh_loc(eval_expression(machine, arg))
    _bind(machine, d.name, ClosureV(env2, ctor.delta, ctor.type.ret,
                                    ctor.local_decls, ctor.body))


def _decl_table(machine, d):
    # control-plane parameter types are run-time types, like the
    # parameter types of functions
    actions = tuple([_runtime_ref(machine, a) for a in d.actions])
    _bind(machine, d.name, TableV(d.name, machine.env, machine.delta, d.keys, actions))


def _runtime_ref(machine, a):
    """The action ref a with run-time control-plane parameter types; a
    itself when they normalize to themselves."""
    ctrl = tuple([(n, eval_type_runtime(machine, t)) for n, t in a.ctrl_params])
    return a if ctrl == a.ctrl_params else ActionRef(a.name, a.args, ctrl, a.pos)


def _decl_closure(machine, d):
    """A function's closure, or a control's constructor, of the type d spells."""
    _bind(machine, d.name, ClosureV(machine.env, machine.delta,
                                    eval_type_runtime(machine, d.type),
                                    d.local_decls, d.body))


def _decl_init(machine, d):
    _bind(machine, d.name, eval_expression(machine, d.init))


_DECL_RULES = {
    ConstD: _decl_init,
    VarInitD: _decl_init,
    VarUninitD: lambda machine, d: _bind(
        machine, d.name, ops.init_value(eval_type_runtime(machine, d.type))),
    InstD: _decl_inst,
    TypedefD: lambda machine, d: _define(
        machine, d.name, eval_type_runtime(machine, d.type)),
    EnumD: lambda machine, d: _define(machine, d.name, EnumT(d.name, tuple(d.members))),
    UnionD: lambda machine, d: _define(machine, d.name, eval_type_runtime(
        machine, UnionT(d.name, tuple(d.alts)))),
    TableD: _decl_table,
    FuncD: _decl_closure,
    ControlD: _decl_closure,
}


def eval_program(cp, delta, machine, program):
    """Evaluate the declarations from delta, with cp; returns the final delta."""
    machine.cp, machine.delta = cp, delta
    for d in program.decls:
        eval_declaration(machine, d)
    return machine.delta


ENTRY_NAME = "main"


def declares_entry(program):
    """Whether a top-level declaration of program is an instance ENTRY_NAME."""
    return any(isinstance(d, InstD) and d.name == ENTRY_NAME
               for d in program.decls)


def check_entry(program):
    """Reject program, from its top-level declarations and before any is
    evaluated, unless its last top-level value ENTRY_NAME is an instance of
    a control without run-time parameters."""
    if not declares_entry(program):
        raise EvalError(f"program has no instance named {ENTRY_NAME!r} to run")
    bound = {}  # value name -> its declaration; an instance's is (its control,)
    for d in program.decls:
        if isinstance(d, InstD):
            bound[d.name] = (bound.get(d.type_name),)
        elif not isinstance(d, (TypedefD, EnumD, UnionD)):  # these name types
            bound[d.name] = d
    match bound[ENTRY_NAME]:
        case (ControlD() as control,) if not control.params:
            return
    raise EvalError(f"{ENTRY_NAME!r} must be a zero-parameter control instance")


# the type definitions every run starts from; a Delta is never written, so
# every run shares them
_DELTA0 = initial_delta()


def run_program(cp, machine, program):
    """Evaluate the declarations of program, then its instance ENTRY_NAME if
    it declares one, which check_entry must have accepted. The machine's own
    max_steps bounds the whole run. Returns whether exit ended the run."""
    try:
        eval_program(cp, _DELTA0, machine, program)
        if declares_entry(program):
            _call(machine, machine.store[machine.env[ENTRY_NAME]],
                  CallE(VarE(ENTRY_NAME), (), ()))
    except ExitUnwind:
        return True
    return False


def run_with_budget(machine, max_steps, thunk):
    """Run thunk with a step budget installed on machine, in place of the one
    it had; BudgetExhausted propagates when the budget is exceeded."""
    assert max_steps > 0
    replaced, machine.max_steps = machine.max_steps, max_steps
    machine.steps = 0
    try:
        return thunk()
    finally:
        machine.max_steps = replaced
