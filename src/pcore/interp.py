"""Big-step dynamic semantics.

Each job (expressions, l-values, reading and writing through l-values,
statements, declarations) is one table from node class to rule; its
dispatcher counts the step, looks up the node's class and applies the rule.

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
    ClosureV, ConstD, ControlD, CtorClosureV, CtorT, EnumD, EnumT, ErrorD,
    ExitS, ExitUnwind, FuncD, FunT, HeaderV, IfS, IndexE, InstD, IntE, IntV,
    LBitRange, LElem, LField, LVar, MatchKindD, MemberE, MemberV, NativeV,
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
    rule = _EXPR_RULES.get(type(e))
    if rule is None:
        raise EvalError(f"cannot evaluate {type(e).__name__}")
    return rule(cp, delta, machine, e)


def _eval_var(cp, delta, machine, e):
    if e.name not in machine.env:
        raise EvalError(f"unbound variable {e.name!r}")
    return machine.store[machine.env[e.name]]


def _eval_member(cp, delta, machine, e):
    base = e.base
    if (isinstance(base, VarE) and base.name not in machine.env
            and isinstance(delta.lookup(base.name), EnumT)):
        return MemberV(base.name, e.field)
    bv = eval_expression(cp, delta, machine, base)
    return _read_field(machine, bv, e.field)


_EXPR_RULES = {
    BoolE: lambda cp, delta, machine, e: BoolV(e.value),
    IntE: lambda cp, delta, machine, e: IntV(e.value, e.width),
    VarE: _eval_var,
    IndexE: lambda cp, delta, machine, e: _read_elem(
        machine, eval_expression(cp, delta, machine, e.base),
        eval_expression(cp, delta, machine, e.index).value),
    SliceE: lambda cp, delta, machine, e: ops.slice_bits(
        eval_expression(cp, delta, machine, e.base),
        eval_expression(cp, delta, machine, e.hi).value,
        eval_expression(cp, delta, machine, e.lo).value),
    UnopE: lambda cp, delta, machine, e: ops.eval_unop(
        e.op, eval_expression(cp, delta, machine, e.operand)),
    BinopE: lambda cp, delta, machine, e: ops.eval_binop(
        e.op, eval_expression(cp, delta, machine, e.left),
        eval_expression(cp, delta, machine, e.right)),
    CastE: lambda cp, delta, machine, e: ops.eval_cast(
        eval_expression(cp, delta, machine, e.operand),
        eval_type_runtime(delta, machine, e.type)),
    RecordE: lambda cp, delta, machine, e: RecordV(tuple(
        (n, eval_expression(cp, delta, machine, fe)) for n, fe in e.fields)),
    MemberE: _eval_member,
    TypeMemberE: lambda cp, delta, machine, e: MemberV(e.type_name, e.member),
    CallE: lambda cp, delta, machine, e: eval_call(
        cp, delta, machine, eval_expression(cp, delta, machine, e.callee), e),
}


# ---------------------------------------------------------------------------
# L-values

def eval_lvalue(cp, delta, machine, e):
    """Evaluate an assignable expression to a literal-index l-value."""
    machine.tick()
    rule = _LVALUE_RULES.get(type(e))
    if rule is None:
        raise EvalError(f"not an l-value: {type(e).__name__}")
    return rule(cp, delta, machine, e)


_LVALUE_RULES = {
    VarE: lambda cp, delta, machine, e: LVar(e.name),
    MemberE: lambda cp, delta, machine, e: LField(
        eval_lvalue(cp, delta, machine, e.base), e.field),
    IndexE: lambda cp, delta, machine, e: LElem(
        eval_lvalue(cp, delta, machine, e.base),
        eval_expression(cp, delta, machine, e.index).value),
    SliceE: lambda cp, delta, machine, e: LBitRange(
        eval_lvalue(cp, delta, machine, e.base),
        eval_expression(cp, delta, machine, e.hi).value,
        eval_expression(cp, delta, machine, e.lo).value),
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
    rule = _WRITE_RULES.get(type(lv))
    if rule is None:
        raise EvalError(f"bad l-value {lv!r}")
    rule(machine, lv, v)


def _write_var(machine, lv, v):
    machine.store[machine.env[lv.name]] = v


def _write_field(machine, lv, v):
    base, f = lv.base, lv.field
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


def _write_elem(machine, lv, v):
    base, i = lv.base, lv.index
    bv = read_lvalue(machine, base)
    if not 0 <= i < len(bv.values):
        raise IndexOutOfBounds(
            f"write to index {i} of a stack of length {len(bv.values)}"
        )
    vals = list(bv.values)
    vals[i] = v
    write_lvalue(machine, base, StackV(bv.elem_type, tuple(vals)))


_WRITE_RULES = {
    LVar: _write_var,
    LField: _write_field,
    LElem: _write_elem,
    LBitRange: lambda machine, lv, v: write_lvalue(
        machine, lv.base,
        ops.set_bits(read_lvalue(machine, lv.base), lv.hi, lv.lo, v)),
}


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
    if isinstance(callee, NativeV):
        return _call_native(cp, delta, machine, callee, e)
    if isinstance(callee, ClosureV):
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
        # a closure's or native's types are normal, but for type parameters
        pt = eval_type_runtime(inner, machine, p.type) if fn.type_params else p.type
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
    rule = _STMT_RULES.get(type(s))
    if rule is None:
        raise EvalError(f"cannot evaluate statement {type(s).__name__}")
    return rule(cp, delta, machine, s)


def _exec_block(cp, delta, machine, s):
    saved_env = dict(machine.env)
    inner = delta
    try:
        for item in s.stmts:
            if isinstance(item, VAR_DECLS):
                inner = eval_declaration(cp, inner, machine, item)
            else:
                sig = eval_statement(cp, inner, machine, item)
                if not sig == CONTINUE:
                    return sig
        return CONTINUE
    finally:
        machine.env = saved_env


def _exec_assign(cp, delta, machine, s):
    lhs = s.lhs
    if isinstance(lhs, MemberE):
        base_lv = eval_lvalue(cp, delta, machine, lhs.base)
        bv = read_lvalue(machine, base_lv)
        if isinstance(bv, UnionV):
            v = eval_expression(cp, delta, machine, s.rhs)
            write_lvalue(machine, base_lv, UnionV(bv.type, lhs.field, v))
            return CONTINUE
        lv = LField(base_lv, lhs.field)
    else:
        lv = eval_lvalue(cp, delta, machine, lhs)
    v = eval_expression(cp, delta, machine, s.rhs)
    write_lvalue(machine, lv, v)
    return CONTINUE


def _exec_call(cp, delta, machine, s):
    callee = eval_expression(cp, delta, machine, s.call.callee)
    if isinstance(callee, TableV):
        return eval_table_apply(cp, delta, machine, callee)
    eval_call(cp, delta, machine, callee, s.call)
    return CONTINUE


def _exec_exit(cp, delta, machine, s):
    raise ExitUnwind()


def _exec_switch(cp, delta, machine, s):
    uv = eval_expression(cp, delta, machine, s.scrutinee)
    if not isinstance(uv, UnionV):
        raise EvalError(f"switch on a non-union {uv!r}")
    for label, body in s.cases:
        if label == uv.field:
            saved_env = dict(machine.env)
            try:
                machine.env[label] = machine.fresh_loc(uv.value)
                return eval_statement(cp, delta, machine, body)
            finally:
                machine.env = saved_env
    for label, body in s.cases:
        if label is None:
            return eval_statement(cp, delta, machine, body)
    return CONTINUE


_STMT_RULES = {
    BlockS: _exec_block,
    AssignS: _exec_assign,
    IfS: lambda cp, delta, machine, s: eval_statement(
        cp, delta, machine,
        s.then if eval_expression(cp, delta, machine, s.cond).value else s.els),
    CallS: _exec_call,
    ExitS: _exec_exit,
    ReturnS: lambda cp, delta, machine, s: ReturnSig(
        eval_expression(cp, delta, machine, s.value)),
    SwitchS: _exec_switch,
}


# ---------------------------------------------------------------------------
# Declarations

def eval_declaration(cp, delta, machine, d):
    """Extends the machine env/store (and delta for type declarations);
    returns the possibly-extended delta."""
    machine.tick()
    rule = _DECL_RULES.get(type(d))
    if rule is None:
        raise EvalError(f"cannot evaluate declaration {type(d).__name__}")
    return rule(cp, delta, machine, d)


def _bind(delta, machine, name, v):
    """Bind name to a fresh location holding v; the delta is unchanged."""
    machine.env[name] = machine.fresh_loc(v)
    return delta


def _decl_init(cp, delta, machine, d):
    v = eval_expression(cp, delta, machine, d.init)
    return _bind(delta, machine, d.name, v)


def _decl_inst(cp, delta, machine, d):
    ctor = machine.store[machine.env[d.type_name]]
    if not isinstance(ctor, CtorClosureV):
        raise EvalError(f"{d.type_name!r} is not a constructor")
    env2 = dict(ctor.env)
    for (pname, _), arg in zip(ctor.ctor_params, d.args):
        v = eval_expression(cp, delta, machine, arg)
        env2[pname] = machine.fresh_loc(v)
    inst = ClosureV(env2, (), ctor.params, VOID, ctor.local_decls, ctor.body)
    return _bind(delta, machine, d.name, inst)


def _decl_table(cp, delta, machine, d):
    # control-plane parameter types are run-time types, like the
    # parameter types of functions
    actions = tuple(ActionRef(a.name, a.args, tuple(
        (n, eval_type_runtime(delta, machine, t)) for n, t in a.ctrl_params
    ), a.pos) for a in d.actions)
    tv = TableV(d.name, dict(machine.env), d.keys, actions)
    return _bind(delta, machine, d.name, tv)


def _decl_func(cp, delta, machine, d):
    ft = eval_type_runtime(
        delta, machine, FunT(tuple(d.type_params), d.params, d.ret))
    clos = ClosureV(dict(machine.env), ft.type_params, ft.params,
                    ft.ret, (), d.body)
    return _bind(delta, machine, d.name, clos)


def _decl_control(cp, delta, machine, d):
    ct = eval_type_runtime(
        delta, machine, CtorT(d.ctor_params, FunT((), d.params, VOID)))
    cc = CtorClosureV(dict(machine.env), d.name, ct.ret.params, ct.params,
                      d.local_decls, d.body)
    return _bind(delta, machine, d.name, cc)


def _decl_open_enum(cp, delta, machine, d):
    return delta.bind(d.type.name, d.type(tuple(d.members)))


_DECL_RULES = {
    ConstD: _decl_init,
    VarInitD: _decl_init,
    VarUninitD: lambda cp, delta, machine, d: _bind(
        delta, machine, d.name,
        ops.init_value(eval_type_runtime(delta, machine, d.type))),
    InstD: _decl_inst,
    TypedefD: lambda cp, delta, machine, d: delta.bind(
        d.name, eval_type_runtime(delta, machine, d.type)),
    EnumD: lambda cp, delta, machine, d: delta.bind(
        d.name, EnumT(d.name, tuple(d.members))),
    ErrorD: _decl_open_enum,
    MatchKindD: _decl_open_enum,
    UnionD: lambda cp, delta, machine, d: delta.bind(d.name, eval_type_runtime(
        delta, machine, UnionT(d.name, tuple(d.alts)))),
    TableD: _decl_table,
    FuncD: _decl_func,
    ControlD: _decl_control,
}


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
