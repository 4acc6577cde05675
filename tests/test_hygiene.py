"""Source hygiene checks that need no linter: every import is used and
sits at module level, and every private module- or class-level name is
referenced."""

import ast
import inspect
import types
from pathlib import Path

import pytest

import pcore
from pcore import cli, gen, interp, ops, stf, syntax, typecheck, unions

MODULES = sorted(Path(pcore.__file__).parent.glob("*.py"))


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


def nested_imports(source):
    """Lines of the import statements inside a function."""
    return sorted({
        n.lineno
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_nested_import_is_found():
    src = ("import os\ndef f():\n    import sys\n    def g():\n"
           "        from os import path\n")
    assert nested_imports(src) == [3, 5]


def leaf_classes(base):
    """The classes of syntax below base that have no subclass."""
    subs = base.__subclasses__()
    if not subs:
        return {base} if base.__module__ == syntax.__name__ else set()
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
    assert used & {"read_lvalue", "_read_field", "_read_elem", "_havoc"} == set()


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


@pytest.mark.parametrize("rules", ["_EXPR_RULES", "_STMT_RULES", "_DECL_RULES"])
def test_checker_rules_take_the_contexts_and_the_node(rules):
    for cls, rule in getattr(typecheck, rules).items():
        params = list(inspect.signature(rule).parameters)
        assert params[:3] == ["sigma", "gamma", "delta"] and len(params) == 4, cls


def test_every_inhabitable_type_has_a_default_value():
    inhabitable = leaf_classes(syntax.BaseType) - {syntax.VarT}
    assert syntax.EnumT in inhabitable
    assert inhabitable - set(ops._INIT_RULES) == set()


@pytest.mark.parametrize("fn", [
    stf.run_packet, stf.run_stf, unions.diff_union_semantics,
    gen.run_soundness_case, gen.run_soundness_suite,
], ids=lambda fn: fn.__name__)
def test_one_default_step_budget(fn):
    # the one constant itself, not an equal literal
    default = inspect.signature(fn).parameters["max_steps"].default
    assert default is interp.MAX_STEPS


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
