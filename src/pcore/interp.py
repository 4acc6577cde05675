"""Big-step dynamic semantics.

Conventions:
- machine state (store, env, target) is mutated in place; scoping rules copy
  and restore the environment around blocks, branches, and calls;
- statement evaluation returns a signal (Continue or Return); the exit
  signal travels as the ExitUnwind exception so every enclosing rule aborts,
  with calls catching it to run their pending copy-outs first;
- one step is counted per rule application against the machine's budget;
- run-time types are normalized by the checker's `simplify_type`, with the
  store standing in for the compile-time constants;
- `run_program` is the one run path: every entry point builds a machine and
  hands it the program, optionally naming the `main` instance to call.
"""

from __future__ import annotations

from .errors import EvalError, IndexOutOfBounds
from . import ops
from .syntax import (
    ActionRef, AssignS, BinopE, BlockS, BoolE, BoolV, CallE, CallS, CastE,
    ClosureV, ConstD, ControlD, CtorClosureV, CtorT, EnumD, EnumT, ExitS,
    ExitUnwind, FuncD, FunT, HeaderV, IfS, IndexE, InstD, IntE, IntV,
    LBitRange, LElem, LField, LVar, MemberE, MemberV, NativeV, OpenEnumD,
    RecordE, RecordV, ReturnS, ReturnSig, SliceE, StackV, SwitchS, TableD,
    TableV, TypedefD, TypeMemberE, UnionD, UnionT, UnionV, UnopE, VarE,
    VarInitD, VarUninitD, VOID, CONTINUE,
)
from .typecheck import VAR_DECLS, initial_delta, simplify_type


def _havoc(machine, t):
    """Arbitrary value of type t, routed through the target's oracle."""
    if machine.target is None:
        return ops.init_value(t)
    return machine.target.havoc(t)


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


def eval_type_runtime(delta, machine, t):
    """Normalize t with the checker's simplify_type, with width and size
    expressions evaluated against the store."""
    return simplify_type(_StoreConsts(machine), delta, t)


# ---------------------------------------------------------------------------
# Expression evaluation

def eval_expression(cp, delta, machine, e):
    machine.tick()
    match e:
        case BoolE(v):
            return BoolV(v)
        case IntE(v, w):
            return IntV(v, w)
        case VarE(name):
            if name not in machine.env:
                raise EvalError(f"unbound variable {name!r}")
            return machine.store[machine.env[name]]
        case IndexE(base, idx):
            bv = eval_expression(cp, delta, machine, base)
            iv = eval_expression(cp, delta, machine, idx)
            return _read_elem(machine, bv, iv.value)
        case SliceE(base, hi, lo):
            bv = eval_expression(cp, delta, machine, base)
            h = eval_expression(cp, delta, machine, hi).value
            l = eval_expression(cp, delta, machine, lo).value
            return ops.slice_bits(bv, h, l)
        case UnopE(op, operand):
            return ops.eval_unop(op, eval_expression(cp, delta, machine, operand))
        case BinopE(op, le, re):
            lv = eval_expression(cp, delta, machine, le)
            rv = eval_expression(cp, delta, machine, re)
            return ops.eval_binop(op, lv, rv)
        case CastE(t, operand):
            v = eval_expression(cp, delta, machine, operand)
            return ops.eval_cast(v, eval_type_runtime(delta, machine, t))
        case RecordE(fields):
            return RecordV(tuple(
                (n, eval_expression(cp, delta, machine, fe)) for n, fe in fields
            ))
        case MemberE(VarE(name), member) if (
            name not in machine.env and isinstance(delta.lookup(name), EnumT)
        ):
            return MemberV(name, member)
        case MemberE(base, member):
            bv = eval_expression(cp, delta, machine, base)
            return _read_field(machine, bv, member)
        case TypeMemberE(tn, member):
            return MemberV(tn, member)
        case CallE():
            callee = eval_expression(cp, delta, machine, e.callee)
            return eval_call(cp, delta, machine, callee, e)
    raise EvalError(f"cannot evaluate {type(e).__name__}")


# ---------------------------------------------------------------------------
# L-values

def eval_lvalue(cp, delta, machine, e):
    """Evaluate an assignable expression to a literal-index l-value."""
    machine.tick()
    match e:
        case VarE(name):
            return LVar(name)
        case MemberE(base, f):
            return LField(eval_lvalue(cp, delta, machine, base), f)
        case IndexE(base, idx):
            lv = eval_lvalue(cp, delta, machine, base)
            iv = eval_expression(cp, delta, machine, idx)
            return LElem(lv, iv.value)
        case SliceE(base, hi, lo):
            lv = eval_lvalue(cp, delta, machine, base)
            h = eval_expression(cp, delta, machine, hi).value
            l = eval_expression(cp, delta, machine, lo).value
            return LBitRange(lv, h, l)
    raise EvalError(f"not an l-value: {type(e).__name__}")


def read_lvalue(machine, lv):
    match lv:
        case LVar(name):
            return machine.store[machine.env[name]]
        case LField(base, f):
            return _read_field(machine, read_lvalue(machine, base), f)
        case LElem(base, i):
            return _read_elem(machine, read_lvalue(machine, base), i)
        case LBitRange(base, hi, lo):
            return ops.slice_bits(read_lvalue(machine, base), hi, lo)
    raise EvalError(f"bad l-value {lv!r}")


def _read_field(machine, bv, f):
    """Field f of a record or header; an invalid header's fields havoc."""
    match bv:
        case RecordV(fs):
            return dict(fs)[f]
        case HeaderV(valid, fs):
            for n, ft, fv in fs:
                if n == f:
                    return fv if valid else _havoc(machine, ft)
            raise EvalError(f"no field {f!r}")
        case UnionV():
            raise EvalError("union fields cannot be read directly")
    raise EvalError(f"field read on {bv!r}")


def _read_elem(machine, bv, i):
    """Element i of a stack; an out-of-bounds read havocs."""
    if not isinstance(bv, StackV):
        raise EvalError(f"indexing a non-stack {bv!r}")
    if 0 <= i < len(bv.values):
        return bv.values[i]
    return _havoc(machine, bv.elem_type)


def write_lvalue(machine, lv, v):
    match lv:
        case LVar(name):
            machine.store[machine.env[name]] = v
        case LField(base, f):
            bv = read_lvalue(machine, base)
            match bv:
                case RecordV(fs):
                    new = RecordV(tuple(
                        (n, v if n == f else fv) for n, fv in fs
                    ))
                    write_lvalue(machine, base, new)
                case HeaderV(valid, fs):
                    if not valid:
                        return  # writes into invalid headers are discarded
                    new = HeaderV(True, tuple(
                        (n, ft, v if n == f else fv) for n, ft, fv in fs
                    ))
                    write_lvalue(machine, base, new)
                case _:
                    raise EvalError(f"field write on {bv!r}")
        case LElem(base, i):
            bv = read_lvalue(machine, base)
            if not 0 <= i < len(bv.values):
                raise IndexOutOfBounds(
                    f"write to index {i} of a stack of length {len(bv.values)}"
                )
            vals = list(bv.values)
            vals[i] = v
            write_lvalue(machine, base, StackV(bv.elem_type, tuple(vals)))
        case LBitRange(base, hi, lo):
            bv = read_lvalue(machine, base)
            write_lvalue(machine, base, ops.set_bits(bv, hi, lo, v))
        case _:
            raise EvalError(f"bad l-value {lv!r}")


# ---------------------------------------------------------------------------
# Copy-in / copy-out

def copy_in(cp, delta, machine, direction, t, arg_expr):
    """Returns (fresh location, the l-value to copy out to or None)."""
    machine.tick()
    match direction:
        case "in":
            v = eval_expression(cp, delta, machine, arg_expr)
            return machine.fresh_loc(v), None
        case "out":
            lv = eval_lvalue(cp, delta, machine, arg_expr)
            return machine.fresh_loc(ops.init_value(t)), lv
        case "inout":
            lv = eval_lvalue(cp, delta, machine, arg_expr)
            v = read_lvalue(machine, lv)
            return machine.fresh_loc(v), lv
    raise EvalError(f"bad direction {direction!r}")


def copy_out(machine, tasks):
    """Write parameter values back through their l-values, in parameter
    order: later writes overwrite earlier ones."""
    for lv, loc in tasks:
        machine.tick()
        write_lvalue(machine, lv, machine.store[loc])


# ---------------------------------------------------------------------------
# Calls

def eval_call(cp, delta, machine, callee, e):
    match callee:
        case NativeV():
            return _call_native(cp, delta, machine, callee, e)
        case ClosureV():
            return _call_closure(cp, delta, machine, callee, e.type_args, e.args)
    raise EvalError(f"calling a non-function {callee!r}")


def _bind_args(cp, delta, machine, fn, type_args, arg_exprs):
    """Bind the type parameters of fn (a closure or native) and copy in its
    arguments. Returns the inner delta, the type arguments, the
    (parameter name, location) bindings and the copy-out tasks."""
    targs = [eval_type_runtime(delta, machine, ta) for ta in type_args]
    inner = delta
    for x, ta in zip(fn.type_params, targs):
        inner = inner.bind(x, ta)
    locs, tasks = [], []
    for p, arg in zip(fn.params, arg_exprs):
        pt = eval_type_runtime(inner, machine, p.type)
        loc, lv = copy_in(cp, inner, machine, p.direction, pt, arg)
        locs.append((p.name, loc))
        if lv is not None:
            tasks.append((lv, loc))
    return inner, targs, locs, tasks


def _call_closure(cp, delta, machine, clos, type_args, arg_exprs,
                  extra_values=()):
    if len(arg_exprs) + len(extra_values) != len(clos.params):
        raise EvalError(
            f"closure expects {len(clos.params)} arguments, got "
            f"{len(arg_exprs) + len(extra_values)}"
        )
    inner, _, locs, tasks = _bind_args(cp, delta, machine, clos, type_args,
                                       arg_exprs)
    for p, v in zip(clos.params[len(arg_exprs):], extra_values):
        locs.append((p.name, machine.fresh_loc(v)))
    assert len({loc for _, loc in locs}) == len(locs)  # aliasing freedom
    saved_env = machine.env
    machine.env = dict(clos.env)
    machine.env.update(locs)
    body_delta = inner
    try:
        sig = CONTINUE
        for ld in clos.local_decls:
            body_delta = eval_declaration(cp, body_delta, machine, ld)
        sig = eval_statement(cp, body_delta, machine, clos.body)
    except ExitUnwind:
        machine.env = saved_env
        copy_out(machine, tasks)
        raise
    machine.env = saved_env
    copy_out(machine, tasks)
    if isinstance(sig, ReturnSig):
        return sig.value
    if clos.ret == VOID:
        return RecordV(())
    raise EvalError("non-void function body fell through")


def _call_native(cp, delta, machine, native, e):
    if machine.target is None:
        raise EvalError(f"no target installed for native {native.name!r}")
    _, targs, locs, tasks = _bind_args(cp, delta, machine, native,
                                       e.type_args, e.args)
    try:
        result = machine.target.dispatch(
            native.name, machine, [loc for _, loc in locs], targs)
    except ExitUnwind:
        copy_out(machine, tasks)
        raise
    copy_out(machine, tasks)
    return result


def eval_table_apply(cp, delta, machine, tv):
    machine.tick()
    saved_env = machine.env
    machine.env = dict(tv.env)
    try:
        key_vals = [eval_expression(cp, delta, machine, e) for e, _ in tv.keys]
        kinds = [kind for _, kind in tv.keys]
        name, ctrl_vals = ((tv.actions[-1].name, ()) if cp is None else
                           cp.lookup(tv.name, key_vals, kinds, tv.actions, delta))
        aref = next(a for a in tv.actions if a.name == name)
        clos = machine.store[machine.env[aref.name]]
        _call_closure(cp, delta, machine, clos, (), aref.args, tuple(ctrl_vals))
    finally:
        machine.env = saved_env
    return CONTINUE


# ---------------------------------------------------------------------------
# Statements

def eval_statement(cp, delta, machine, s):
    machine.tick()
    match s:
        case BlockS(stmts):
            saved_env = dict(machine.env)
            inner = delta
            try:
                for item in stmts:
                    if isinstance(item, VAR_DECLS):
                        inner = eval_declaration(cp, inner, machine, item)
                    else:
                        sig = eval_statement(cp, inner, machine, item)
                        if not sig == CONTINUE:
                            return sig
                return CONTINUE
            finally:
                machine.env = saved_env
        case AssignS(lhs, rhs):
            eval_assign(cp, delta, machine, lhs, rhs)
            return CONTINUE
        case IfS(cond, then, els):
            cv = eval_expression(cp, delta, machine, cond)
            return eval_statement(cp, delta, machine, then if cv.value else els)
        case CallS(call):
            callee = eval_expression(cp, delta, machine, call.callee)
            if isinstance(callee, TableV):
                return eval_table_apply(cp, delta, machine, callee)
            eval_call(cp, delta, machine, callee, call)
            return CONTINUE
        case ExitS():
            raise ExitUnwind()
        case ReturnS(value):
            return ReturnSig(eval_expression(cp, delta, machine, value))
        case SwitchS(scrut, cases):
            uv = eval_expression(cp, delta, machine, scrut)
            if not isinstance(uv, UnionV):
                raise EvalError(f"switch on a non-union {uv!r}")
            for label, body in cases:
                if label == uv.field:
                    saved_env = dict(machine.env)
                    try:
                        machine.env[label] = machine.fresh_loc(uv.value)
                        return eval_statement(cp, delta, machine, body)
                    finally:
                        machine.env = saved_env
            for label, body in cases:
                if label is None:
                    return eval_statement(cp, delta, machine, body)
            return CONTINUE
    raise EvalError(f"cannot evaluate statement {type(s).__name__}")


def eval_assign(cp, delta, machine, lhs, rhs):
    if isinstance(lhs, MemberE):
        base_lv = eval_lvalue(cp, delta, machine, lhs.base)
        bv = read_lvalue(machine, base_lv)
        if isinstance(bv, UnionV):
            v = eval_expression(cp, delta, machine, rhs)
            write_lvalue(machine, base_lv, UnionV(bv.type, lhs.field, v))
            return
        lv = LField(base_lv, lhs.field)
    else:
        lv = eval_lvalue(cp, delta, machine, lhs)
    v = eval_expression(cp, delta, machine, rhs)
    write_lvalue(machine, lv, v)


# ---------------------------------------------------------------------------
# Declarations

def eval_declaration(cp, delta, machine, d):
    """Extends the machine env/store (and delta for type declarations);
    returns the possibly-extended delta."""
    machine.tick()
    match d:
        case ConstD(_, name, init) | VarInitD(_, name, init):
            v = eval_expression(cp, delta, machine, init)
            machine.env[name] = machine.fresh_loc(v)
            return delta
        case VarUninitD(t, name):
            t2 = eval_type_runtime(delta, machine, t)
            machine.env[name] = machine.fresh_loc(ops.init_value(t2))
            return delta
        case InstD(type_name, args, name):
            ctor = machine.store[machine.env[type_name]]
            if not isinstance(ctor, CtorClosureV):
                raise EvalError(f"{type_name!r} is not a constructor")
            env2 = dict(ctor.env)
            for (pname, _), arg in zip(ctor.ctor_params, args):
                v = eval_expression(cp, delta, machine, arg)
                env2[pname] = machine.fresh_loc(v)
            inst = ClosureV(env2, (), ctor.params, VOID, ctor.local_decls,
                            ctor.body)
            machine.env[name] = machine.fresh_loc(inst)
            return delta
        case TypedefD(t, name):
            return delta.bind(name, eval_type_runtime(delta, machine, t))
        case EnumD(name, members):
            return delta.bind(name, EnumT(name, tuple(members)))
        case OpenEnumD(members):
            return delta.bind(d.type.name, d.type(tuple(members)))
        case UnionD(name, alts):
            ut = eval_type_runtime(delta, machine, UnionT(name, tuple(alts)))
            return delta.bind(name, ut)
        case TableD(name, keys, actions):
            # control-plane parameter types are run-time types, like the
            # parameter types of functions
            actions = tuple(ActionRef(a.name, a.args, tuple(
                (n, eval_type_runtime(delta, machine, t)) for n, t in a.ctrl_params
            ), a.pos) for a in actions)
            tv = TableV(name, dict(machine.env), keys, actions)
            machine.env[name] = machine.fresh_loc(tv)
            return delta
        case FuncD(ret, name, tps, params, body):
            ft = eval_type_runtime(delta, machine, FunT(tuple(tps), params, ret))
            clos = ClosureV(dict(machine.env), ft.type_params, ft.params,
                            ft.ret, (), body)
            machine.env[name] = machine.fresh_loc(clos)
            return delta
        case ControlD(name, params, ctor_params, local_decls, body):
            ct = eval_type_runtime(
                delta, machine, CtorT(ctor_params, FunT((), params, VOID)))
            cc = CtorClosureV(dict(machine.env), name, ct.ret.params, ct.params,
                              local_decls, body)
            machine.env[name] = machine.fresh_loc(cc)
            return delta
    raise EvalError(f"cannot evaluate declaration {type(d).__name__}")


def eval_program(cp, delta, machine, program):
    for d in program.decls:
        delta = eval_declaration(cp, delta, machine, d)
    return delta


ENTRY_NAME = "main"


def run_program(cp, machine, program, entry=False):
    """Evaluate the declarations of program and, when entry is set, call its
    zero-parameter instance ENTRY_NAME. The machine's own max_steps bounds
    the whole run. Returns whether the exit signal ended the run."""
    try:
        delta = eval_program(cp, initial_delta(), machine, program)
        if entry:
            if ENTRY_NAME not in machine.env:
                raise EvalError(
                    f"program has no instance named {ENTRY_NAME!r} to run"
                )
            main = machine.store[machine.env[ENTRY_NAME]]
            if not isinstance(main, ClosureV) or main.params:
                raise EvalError(
                    f"{ENTRY_NAME!r} must be a zero-parameter control instance"
                )
            eval_call(cp, delta, machine, main, CallE(VarE(ENTRY_NAME), (), ()))
    except ExitUnwind:
        return True
    return False


def run_with_budget(machine, max_steps, thunk):
    """Run thunk with a step budget installed on machine; BudgetExhausted
    propagates when the budget is exceeded."""
    assert max_steps > 0
    machine.max_steps = max_steps
    machine.steps = 0
    try:
        return thunk()
    finally:
        machine.max_steps = None
