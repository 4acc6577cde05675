"""Source hygiene checks that need no linter: every import is used and
sits at module level (but for the oracle modules that a cli command imports
itself), every private module- or class-level name is referenced, and the
evaluator never writes a scope."""

import ast
import gc
import inspect
import itertools
import random
import re
import types
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import pytest

import pcore
from pcore import (
    cli, gen, interp, ops, pretty, stf, syntax, target, typecheck, unions,
)
from pcore.errors import PcoreError
from regen_golden import ILL_TYPED, check_verdict

MODULES = sorted(Path(pcore.__file__).parent.glob("*.py"))
FIXTURES = Path(pcore.__file__).parent / "fixtures"


def unused_imports(source):
    """Names bound by an import but never referenced. Imports on a line
    marked `noqa: F401` are re-exports and count as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    src = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(src) == [(1, "path"), (2, "sys")]


def private_definitions(tree):
    """(line, name) of each `_name` (not a dunder) defined at module level
    or directly in a class body."""
    out = []
    bodies = [tree.body]
    bodies += [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            out += [(node.lineno, name) for name in names
                    if name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__"))]
    return out


def dead_private_names(sources):
    """Private names that no source reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(
        (name, line, private) for name, tree in trees.items()
        for line, private in private_definitions(tree)
        if private not in read
    )


def test_no_dead_private_names():
    sources = {path.name: path.read_text() for path in MODULES}
    assert dead_private_names(sources) == []


def test_dead_private_name_is_found():
    src = ("_A = 1\n_B = _A\nclass C:\n    _k = 2\n    def _m(self):\n"
           "        return self._k\n")
    assert dead_private_names({"m.py": src}) == [("m.py", 2, "_B"),
                                                 ("m.py", 5, "_m")]


def nested_imports(source, deferred=()):
    """Lines of the import statements inside a function, but for a
    `from .m import ...` of a module m in deferred."""
    return sorted({
        n.lineno
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))
        and not (isinstance(n, ast.ImportFrom) and n.level == 1
                 and n.module in deferred)
    })


# the modules that a cli command which runs them imports itself: the
# oracles', so that check, run and stf start without them, and the packet
# harness, so that check starts without it
DEFERRED = {"cli.py": ("gen", "stf", "unions")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text(), DEFERRED.get(path.name, ())) == []


def test_nested_import_is_found():
    src = ("import os\ndef f():\n    import sys\n    def g():\n"
           "        from os import path\n        from .gen import x\n"
           "        from .stf import y\n")
    assert nested_imports(src) == [3, 5, 6, 7]
    assert nested_imports(src, ("gen",)) == [3, 5, 7]


def leaf_classes(base):
    """The classes that syntax binds below base and that have no subclass.
    A slotted dataclass replaces the class it was made from, which stays
    among __subclasses__() until the garbage collector frees it."""
    subs = base.__subclasses__()
    if not subs:
        return {base} if getattr(syntax, base.__name__, None) is base else set()
    return set().union(*(leaf_classes(sub) for sub in subs))


@pytest.mark.parametrize("base, rules", [
    (syntax.Expr, interp._EXPR_RULES),
    (syntax.Stmt, interp._STMT_RULES),
    (syntax.Decl, interp._DECL_RULES),
], ids=["Expr", "Stmt", "Decl"])
def test_every_node_class_has_an_evaluation_rule(base, rules):
    assert leaf_classes(base) and leaf_classes(base) - set(rules) == set()


@pytest.mark.parametrize("rules", ["_READ_RULES", "_WRITE_RULES"])
def test_every_lvalue_class_has_a_read_and_a_write_rule(rules):
    leaves = leaf_classes(syntax.LValue)
    assert leaves and leaves - set(getattr(interp, rules)) == set()


def test_leaf_classes_skip_classes_syntax_does_not_bind():
    gc.disable()
    try:
        # the class node made and the one it was made from, neither bound
        syntax.node(type("VarE", (syntax.Expr,), {
            "__module__": syntax.__name__, "__annotations__": {"x": int}}))
        assert len(syntax.Expr.__subclasses__()) >= \
            len(leaf_classes(syntax.Expr)) + 2
        assert all(getattr(syntax, c.__name__) is c
                   for c in leaf_classes(syntax.Expr))
    finally:
        gc.enable()


NODE_CLASSES = [c for c in vars(syntax).values() if isinstance(c, type)
                and is_dataclass(c) and c.__module__ == syntax.__name__]


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_every_node_is_slotted_and_immutable(cls):
    # built by syntax.node: no __dict__, and no field can be set or deleted
    x = cls(*(None for _ in fields(cls)))
    assert not hasattr(x, "__dict__")
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(x, f.name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(x, f.name)
    with pytest.raises(FrozenInstanceError):
        x.extra = 1


# the node(eq=False) classes: their own == and hash, or identity
OWN_EQ = {syntax.EnumT, syntax.FunT, syntax.CtorT}
IDENTITY_EQ = {syntax.ClosureV, syntax.TableV}
FIELD_EQ = [c for c in NODE_CLASSES if c not in OWN_EQ | IDENTITY_EQ]


def sample(cls, pos=(0, 0)):
    """An instance of cls whose i-th field but pos holds i, and those values."""
    names = [f.name for f in fields(cls) if f.name != "pos"]
    kw = dict(zip(names, range(len(names))))
    if len(names) < len(fields(cls)):
        kw["pos"] = pos
    return cls(**kw), tuple(kw[n] for n in names)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_node_repr_names_each_field_but_pos(cls):
    x, values = sample(cls, pos=(3, 4))
    names = [f.name for f in fields(cls) if f.name != "pos"]
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(x) == f"{cls.__name__}({shown})"
    assert cls.__match_args__ == tuple(f.name for f in fields(cls))
    assert replace(x) is not x and repr(replace(x)) == repr(x)


@pytest.mark.parametrize("cls", FIELD_EQ, ids=lambda c: c.__name__)
def test_node_equality_and_hash_compare_each_field_but_pos(cls):
    x, values = sample(cls, pos=(1, 1))
    y, _ = sample(cls, pos=(2, 5))
    assert x == y and not x != y and hash(x) == hash(y) == hash(values)
    for i, f in enumerate(f for f in fields(cls) if f.name != "pos"):
        z = replace(x, **{f.name: -1})
        assert z != x and not z == x and hash(z) == hash(
            values[:i] + (-1,) + values[i + 1:])
    assert x != values and x != object()
    # a node of another class is unequal in one call, with no reflected call
    for other in NODE_CLASSES:
        if other is not cls:
            y, _ = sample(other)
            assert x.__eq__(y) is False and x != y and not x == y, other


def test_nodes_of_two_classes_are_never_equal():
    assert syntax.BoolT() != syntax.IntT()
    samples = [sample(cls) for cls in FIELD_EQ]
    for x, xs in samples:
        for y, ys in samples:
            if x is not y and xs == ys:
                assert x != y and not x == y, (x, y)


def test_eq_false_nodes_keep_their_own_equality_or_identity():
    E, T = syntax.EnumT, syntax.VarT
    assert E("error", ("A",)) == E("error", ("B",))
    assert E("e", ("A",)) != E("e", ("B",)) and hash(E("e", ())) == hash("e")

    def identity(name, x):
        return syntax.FunT((name,), (syntax.Param("in", x, T(name)),), T(name))
    assert identity("T", "x") == identity("U", "y")
    assert hash(identity("T", "x")) == hash((1, "in"))
    ctor = syntax.CtorT((("a", syntax.IntT()),), syntax.BoolT())
    assert ctor == syntax.CtorT((("b", syntax.IntT()),), syntax.BoolT())
    assert hash(ctor) == hash((1, syntax.BoolT()))
    for cls in IDENTITY_EQ:
        (x, _), (y, _) = sample(cls), sample(cls)
        assert x == x and x != y and hash(x) == object.__hash__(x)


def names_used(code):
    """The global and attribute names code and its nested functions use."""
    return set(code.co_names).union(*(
        names_used(c) for c in code.co_consts if isinstance(c, types.CodeType)))


def test_writes_neither_read_nor_draw():
    # a write rebuilds its variable from the value stored there, so it never
    # reads a place again or asks the havoc oracle for one
    writers = [*interp._WRITE_RULES.values(), interp.write_lvalue,
               interp._with_field, interp._with_elem, interp._exec_assign]
    used = set().union(*(names_used(fn.__code__) for fn in writers))
    assert used & {"read_lvalue", "_read_field", "_read_elem", "havoc"} == set()


@pytest.mark.parametrize("rules, arity", [
    ("_EXPR_RULES", 2), ("_LVALUE_RULES", 2), ("_READ_RULES", 2),
    ("_STMT_RULES", 2), ("_DECL_RULES", 2), ("_WRITE_RULES", 3),
])
def test_evaluation_rules_take_the_machine_and_the_node(rules, arity):
    # the scope and the control plane live on the machine, so a rule takes
    # (machine, node), and a write rule also the update of the place it names
    for cls, rule in getattr(interp, rules).items():
        params = inspect.signature(rule).parameters
        assert list(params)[0] == "machine" and len(params) == arity, cls


@pytest.mark.parametrize("base, rules", [
    (syntax.Expr, typecheck._EXPR_RULES),
    (syntax.Stmt, typecheck._STMT_RULES),
    (syntax.Decl, typecheck._DECL_RULES),
], ids=["Expr", "Stmt", "Decl"])
def test_every_node_class_has_a_checker_rule(base, rules):
    assert leaf_classes(base) and leaf_classes(base) - set(rules) == set()


def test_every_value_class_has_a_typing_and_an_inference_rule():
    # value typing is keyed by the (value class, type class) pair
    leaves = leaf_classes(syntax.Value)
    assert leaves and leaves - {vc for vc, _ in typecheck._VALUE_RULES} == set()
    assert leaves - set(typecheck._INFER_RULES) == set()


@pytest.mark.parametrize("module", [interp, typecheck], ids=lambda m: m.__name__)
def test_functions_and_controls_share_one_declaration_rule(module):
    # each declares a closure of the type it spells
    rules = module._DECL_RULES
    assert rules[syntax.FuncD] is rules[syntax.ControlD]


@pytest.mark.parametrize("rules", ["_EXPR_RULES", "_STMT_RULES", "_DECL_RULES"])
def test_checker_rules_take_the_contexts_and_the_node(rules):
    for cls, rule in getattr(typecheck, rules).items():
        params = list(inspect.signature(rule).parameters)
        assert params[:3] == ["sigma", "gamma", "delta"] and len(params) == 4, cls


@pytest.mark.parametrize("base, rules", [
    (syntax.BaseType, pretty._TYPE_RULES),
    (syntax.Expr, pretty._EXPR_RULES),
    (syntax.Stmt, pretty._STMT_RULES),
    (syntax.Decl, pretty._DECL_RULES),
], ids=["BaseType", "Expr", "Stmt", "Decl"])
def test_every_node_class_has_a_printer_rule(base, rules):
    assert leaf_classes(base) and leaf_classes(base) - set(rules) == set()


def test_every_type_no_source_spells_has_a_printer_rule():
    # a message may name any type: a function, constructor or table too
    unspelled = leaf_classes(syntax.Type) - leaf_classes(syntax.BaseType)
    assert unspelled == {syntax.TableT, syntax.FunT, syntax.CtorT}
    assert unspelled - set(pretty._TYPE_RULES) == set()


def test_syntax_has_no_second_type_printer():
    # a type prints only through pretty_type
    assert [c.__name__ for c in vars(syntax).values()
            if isinstance(c, type) and "__str__" in vars(c)] == []


NODE_CALL = re.compile(r"\b(%s)\(" % "|".join(c.__name__ for c in NODE_CLASSES))


@pytest.mark.parametrize("rule, text", ILL_TYPED)
def test_no_message_shows_a_node_repr(rule, text):
    # a type left in an f-string would print as its repr, e.g. BitT(width=8)
    msg = check_verdict(text)[2]
    assert NODE_CALL.search(msg) is None, msg


def test_a_node_repr_in_a_message_is_found():
    assert NODE_CALL.search(f"initializer has type {syntax.BitT(8)}")
    assert NODE_CALL.search("record {bit<8> a;}, expected fun() -> {}") is None


@pytest.mark.parametrize("rules, params", [
    ("_TYPE_RULES", ["t"]), ("_EXPR_RULES", ["e", "level"]),
    ("_STMT_RULES", ["s", "pad"]), ("_DECL_RULES", ["d", "pad"]),
])
def test_printer_rules_take_the_node_and_its_context(rules, params):
    # an expression's context is the precedence level around it, and a
    # statement's or declaration's its indentation
    for cls, rule in getattr(pretty, rules).items():
        assert list(inspect.signature(rule).parameters) == params, cls


@pytest.mark.parametrize("printer, node", [
    (pretty.pretty_type, syntax.Param("in", "x", syntax.BoolT())),
    (pretty.pretty_type, syntax.IntV(1, 8)),
    (pretty.pretty_expr, syntax.BoolT()),
    (pretty.pretty_stmt, syntax.VarE("x")),
    (pretty.pretty_decl, syntax.ExitS()),
], ids=["param-as-type", "value-as-type", "type-as-expr", "expr-as-stmt",
        "stmt-as-decl"])
def test_a_class_without_a_printer_rule_is_unprintable(printer, node):
    with pytest.raises(ValueError, match="unprintable"):
        printer(node)


def test_every_kind_of_generated_expression_has_a_rule(monkeypatch):
    # var, lit and call are offered for any type, the rest by type class
    offered = {"var", "lit", "call", *gen._WIDE_KINDS, *gen._BASE_KINDS,
               *(kind for kinds in gen._DEEP_KINDS.values() for kind in kinds)}
    assert offered == set(gen._EXPR_RULES)
    # and each is picked somewhere: no row is dead
    picked = set()

    def recording(kind, rule):
        def pick(*args):
            picked.add(kind)
            return rule(*args)
        return pick

    for kind, rule in gen._EXPR_RULES.items():
        monkeypatch.setitem(gen._EXPR_RULES, kind, recording(kind, rule))
    for seed in range(50):
        gen.generate_typed_program(gen.GenConfig(seed=seed, unions=True))
    assert picked == offered


# an operand of each scalar type, for which every operator is defined
_OPERANDS = (syntax.BoolV(True), syntax.IntV(1, None), syntax.IntV(1, 4),
             syntax.IntV(1, 8))


@pytest.mark.parametrize("op", [*ops.BINOPS, *ops.UNOPS])
def test_every_operator_is_typed_evaluated_and_generated(op):
    # a new operator or kind fails here instead of going ungenerated: its
    # kind has a typing arm and an evaluation arm that agree, and a rule in
    # the program generator and (a binary kind) in the cte generator's table
    unary = op in ops.UNOPS
    kind = op if unary else ops.BINOPS[op][2]
    assert kind in gen._EXPR_RULES
    assert unary or kind in gen._CTE_KINDS
    typed = 0
    for vs in itertools.product(_OPERANDS, repeat=1 if unary else 2):
        ts = [typecheck.infer_type_of_value(None, v) for v in vs]
        t = (ops.type_of_unop if unary else ops.type_of_binop)(op, *ts)
        if t is not None:
            typed += 1
            v = (ops.eval_unop if unary else ops.eval_binop)(op, *vs)
            assert typecheck.infer_type_of_value(None, v) == t
    assert typed


# a type of each class a value may be cast to, and operand types: every
# scalar, a record with the header target's fields and one with another
_CAST_TARGETS = (syntax.IntT(), syntax.BitT(8),
                 syntax.HeaderT((("a", syntax.BitT(8)),)))
_CAST_SOURCES = (*gen.SCALARS, syntax.RecordT((("a", syntax.BitT(8)),)),
                 syntax.RecordT((("b", syntax.BitT(8)),)))


def test_every_cast_is_checked_and_evaluated():
    # a new row of the cast table fails here until a target of its class is
    # listed: every row allows some cast, takes the defaults of just the
    # types it allows, and converts to the type cast to
    assert {type(t) for t in _CAST_TARGETS} == set(ops._CASTS)
    for t in _CAST_TARGETS:
        legal = [s for s in _CAST_SOURCES if ops.check_cast(s, t)]
        assert legal
        taken = [s for s in _CAST_SOURCES
                 if ops.eval_cast(ops.init_value(s), t) is not None]
        assert taken == legal
        for s in legal:
            v = ops.eval_cast(ops.init_value(s), t)
            assert typecheck.infer_type_of_value(None, v) == t
    assert not any(ops.check_cast(s, syntax.BoolT())
                   or ops.eval_cast(ops.init_value(s), syntax.BoolT()) is not None
                   for s in _CAST_SOURCES)


def test_the_generator_casts_from_what_ops_allows():
    # for each target it casts to, the generator draws every operand type
    # ops.check_cast allows, and no other
    drawn = set()

    class Recorder:
        rng = random.Random(0)

        def expr(self, t, depth, env):
            drawn.add(t)
            return syntax.IntE(0, None)

    targets = [t for t in gen.SCALARS if "cast" in gen._DEEP_KINDS.get(type(t), ())]
    assert targets
    for t in targets:
        drawn.clear()
        for _ in range(100):
            gen._EXPR_RULES["cast"](Recorder(), t, 1, {}, {})
        assert drawn == {s for s in gen.SCALARS if ops.check_cast(s, t)}


def test_generated_literals_are_by_type_class():
    assert set(gen._LITERAL_RULES) == {
        syntax.BoolT, syntax.IntT, syntax.BitT, syntax.EnumT, syntax.RecordT,
        syntax.HeaderT}


def test_every_kind_of_generated_statement_has_a_rule():
    assert set(gen._STMT_KINDS) == set(gen._STMT_RULES)


def test_every_inhabitable_type_has_a_default_value():
    inhabitable = leaf_classes(syntax.BaseType) - {syntax.VarT}
    assert syntax.EnumT in inhabitable
    assert inhabitable - set(ops._INIT_RULES) == set()


@pytest.mark.parametrize("fn", [
    stf.run_packet, stf.run_stf, unions.diff_union_semantics,
    gen.run_soundness_case, gen.run_soundness_suite, target.make_machine,
    syntax.Machine,
], ids=lambda fn: fn.__name__)
def test_one_default_step_budget(fn):
    # the one constant itself, not an equal literal, on every machine too
    default = inspect.signature(fn).parameters["max_steps"].default
    assert default is interp.MAX_STEPS is syntax.MAX_STEPS


def test_every_max_steps_option_defaults_to_the_one_budget(monkeypatch):
    seen = []
    for cmd in ("cmd_run", "cmd_stf", "cmd_diff_unions", "cmd_soundness"):
        monkeypatch.setattr(cli, cmd, lambda args: seen.append(args.max_steps))
    for argv in (["run", "p"], ["stf", "p", "s"], ["diff-unions", "p"],
                 ["soundness"]):
        cli.main(argv)
    assert seen == [interp.MAX_STEPS] * 4


def cursor_writers(source):
    """The methods that assign to `self.i` or `self.tok`, the parser's
    position and the token there."""
    writers = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self" and node.attr in ("i", "tok")):
                    writers.add(fn.name)
    return writers


def test_parser_moves_only_in_next():
    source = (Path(pcore.__file__).parent / "parser.py").read_text()
    assert cursor_writers(source) == {"__init__", "next"}
    assert cursor_writers("def back(self):\n    self.i -= 1\n") == {"back"}


def unhashable_equalities(module):
    """The classes of module that define __eq__ but no __hash__, so that
    they cannot be dict keys or set members."""
    return sorted(
        name for name, cls in vars(module).items()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and "__eq__" in vars(cls) and vars(cls).get("__hash__") is None
    )


def test_every_syntax_equality_has_a_hash():
    assert unhashable_equalities(syntax) == []


def test_equality_without_hash_is_found():
    m = types.ModuleType("m")
    exec("class A:\n    def __eq__(self, o):\n        return True\n"
         "class B(A):\n    pass\n", vars(m))
    assert unhashable_equalities(m) == ["A"]


def _ops_to_collect():
    """(name, function, its arguments) for each op whose garbage reference
    counting alone must free: the packet path, the checker on a well-typed
    and an ill-typed program, and the two oracles."""
    program = (FIXTURES / "source_routing.pcore").read_text()
    script = (FIXTURES / "source_routing.stf").read_text()
    yield "run_stf", stf.run_stf, program, script
    yield "run_stf short packet", stf.run_stf, program, "packet 0 02\n"
    for text in ("bit<8> x := 1w8;\n", "bit<8> x := true;\n"):
        yield (f"check_program {text!r}", typecheck.check_program,
               pcore.parse_program(text))
    for seed in range(20):
        yield (f"soundness {seed}", gen.run_soundness_case,
               gen.generate_typed_program(gen.GenConfig(seed=seed)))
        yield (f"diff-unions {seed}", unions.diff_union_semantics,
               gen.generate_union_program(seed))


def test_no_op_leaves_cyclic_garbage():
    # A cycle per op hands the collector work that every op then pays for.
    # An expected error is caught without a name, so that the test itself
    # makes no cycle through its traceback.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        left = {}
        for name, fn, *args in _ops_to_collect():
            try:
                fn(*args)
            except PcoreError:
                pass
            left[name] = gc.collect()
        assert {name: n for name, n in left.items() if n} == {}
    finally:
        if was_enabled:
            gc.enable()


def env_stores(source):
    """Lines that write into a scope in place: a subscript store or delete
    through `<x>.env[...]`, or a copy of the live scope, `dict(machine.env)`."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if (isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del))
                and isinstance(n.value, ast.Attribute) and n.value.attr == "env"):
            lines.add(n.lineno)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
              and n.func.id == "dict" and len(n.args) == 1
              and ast.unparse(n.args[0]) == "machine.env"):
            lines.add(n.lineno)
    return sorted(lines)


def test_the_evaluator_never_writes_a_scope():
    # a binding builds a new scope, so every other rule may share one
    assert env_stores(Path(interp.__file__).read_text()) == []


def test_scope_writes_are_found():
    src = ("m.env[x] = 1\ndel tv.env[x]\ns = dict(machine.env)\n"
           "m.env = {**m.env, x: 1}\ny = m.env[x]\nd = dict(clos.env)\n")
    assert env_stores(src) == [1, 2, 3]


def test_a_run_writes_no_shared_scope():
    # every run starts from these; a Delta and a scope are never written
    delta0, env0 = dict(interp._DELTA0), dict(target._NATIVE_ENV)
    store0 = dict(target._NATIVE_STORE)
    report = stf.run_stf((FIXTURES / "source_routing.pcore").read_text(),
                         (FIXTURES / "source_routing.stf").read_text())
    assert report.packets and report.passed
    assert interp._DELTA0 == delta0 and target._NATIVE_ENV == env0
    assert target._NATIVE_STORE == store0
