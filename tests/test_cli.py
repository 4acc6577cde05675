"""Command-line driver: subcommands and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pcore
from pcore.cli import (
    EXIT_FAIL, EXIT_OK, EXIT_RUNTIME, EXIT_TYPE, EXIT_USAGE, main,
)

FIXTURES = Path(pcore.__file__).parent / "fixtures"
PCORE = str(FIXTURES / "source_routing.pcore")
STF = str(FIXTURES / "source_routing.stf")
UNION = str(FIXTURES / "option_union.pcore")
CP = str(FIXTURES / "source_routing_cp.json")
STF_TEXT = Path(STF).read_text()


def test_check_ok(capsys):
    assert main(["check", PCORE]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_check_type_error(tmp_path, capsys):
    bad = tmp_path / "bad.pcore"
    bad.write_text("bit<8> x := true;\n")
    assert main(["check", str(bad)]) == EXIT_TYPE


@pytest.mark.parametrize("text, where", [
    ("bit<8> x := 3w8;\nfoo_t y;\n", "UnboundTypeVar at 2:1"),
    ("bit<0> y;\n", "TyS-Bit at 1:1"),
    ("bit<8> f(in foo_t p) {return 1w8;}\n", "UnboundTypeVar at 1:1"),
    ("bit<8> f() {\n  bit<8> x := 1w8;\n  return (foo_t) x;\n}\n",
     "UnboundTypeVar at 3:10"),
    ("bit<8> f<:X:>(in X a) { return 1w8; }\nbit<8> h() {\n"
     "  return f<:foo_t:>(1w8);\n}\n", "UnboundTypeVar at 3:11"),
])
def test_type_error_in_a_type_names_its_declaration(text, where, tmp_path,
                                                     capsys):
    bad = tmp_path / "bad.pcore"
    bad.write_text(text)
    assert main(["check", str(bad)]) == EXIT_TYPE
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


def test_check_parse_error(tmp_path):
    bad = tmp_path / "bad.pcore"
    bad.write_text("const int = ;\n")
    assert main(["check", str(bad)]) == EXIT_TYPE


@pytest.mark.parametrize("text", [
    "bit<8> f() { return int; }\n",
    "const 5 x = 3;\n",
    "bit<8> x := 3w8; bit<8> f() { return (7) x; }\n",
], ids=["keyword-as-expression", "literal-as-type", "literal-as-cast"])
def test_literal_and_int_keyword_are_told_apart(text, tmp_path, capsys):
    bad = tmp_path / "bad.pcore"
    bad.write_text(text)
    assert main(["check", str(bad)]) == EXIT_TYPE
    err = capsys.readouterr().err
    assert err.startswith("error: parse error at ") and "Traceback" not in err


def test_check_dump_ast(capsys):
    assert main(["check", UNION, "--dump-ast"]) == EXIT_OK
    out = capsys.readouterr().out
    dump = out[: out.rindex(f"{UNION}: ok")]
    assert json.loads(dump)  # the dump preceding the ok line is valid JSON


def test_run_with_control_plane(capsys):
    code = main(["run", PCORE, "--packet", "03FF", "--port", "0",
                 "--control-plane", CP, "--json"])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["egress"] == 1 and result["output"] == "FF"


def test_run_without_rules_drops(capsys):
    code = main(["run", PCORE, "--packet", "03FF", "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dropped"] is True


def test_run_runtime_error(capsys):
    # well typed, with main; the empty packet ends the first extract
    assert main(["run", PCORE, "--packet", ""]) == EXIT_RUNTIME
    assert capsys.readouterr().err == ("runtime error: extract of 7 bits past "
                                       "the end of the packet (0 left)\n")


def test_write_past_a_stack_end_does_not_depend_on_havoc(tmp_path, capsys):
    # the write is discarded without reading the element past the end, so
    # no draw can make that element a valid header
    prog = tmp_path / "oob.pcore"
    prog.write_text("typedef header {bit<8> a;} h_t;\n"
                    "control C() { h_t[2] s; apply { s[3w32].a := 1w8; } }\n"
                    "C() main;\n")
    outcomes = set()
    for seed in range(6):
        code = main(["run", str(prog), "--havoc", f"seed:{seed}"])
        outcomes.add((code, capsys.readouterr().out))
    assert len(outcomes) == 1 and outcomes.pop()[0] == EXIT_OK


def test_discarded_write_draws_nothing(tmp_path, capsys):
    # h is invalid, so the assignment is discarded and the read of h.r.x
    # makes the same draw with or without it
    prog = tmp_path / "invalid.pcore"
    ports = []
    for assign in ["h.r.x := 1w8; ", ""]:
        prog.write_text("typedef record {bit<8> x;} R;\ntypedef header {R r;} H;\n"
                        "control C() { H h; apply { "
                        f"{assign}set_egress(h.r.x); }} }}\nC() main;\n")
        assert main(["run", str(prog), "--havoc", "seed:7", "--json"]) == EXIT_OK
        ports.append(json.loads(capsys.readouterr().out)["egress"])
    assert ports[0] == ports[1] is not None


def test_stf_pass(capsys):
    assert main(["stf", PCORE, STF]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_stf_fail(tmp_path):
    script = tmp_path / "bad.stf"
    script.write_text("packet 0 03FF\nexpect 1 FF\n")  # no rule -> dropped
    assert main(["stf", PCORE, str(script)]) == EXIT_FAIL


def test_translate_unions(capsys):
    assert main(["translate-unions", UNION]) == EXIT_OK
    assert "tag" in capsys.readouterr().out


def test_diff_unions(capsys):
    assert main(["diff-unions", UNION]) == EXIT_OK
    assert main(["diff-unions", UNION, "--wrong-tag"]) == EXIT_FAIL


@pytest.mark.parametrize("cmd", ["translate-unions", "diff-unions"])
def test_union_commands_accept_natives(cmd):
    """The union path types and runs a program on the target's natives."""
    assert main([cmd, PCORE]) == EXIT_OK


def test_gen(capsys):
    assert main(["gen", "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip()


def test_soundness(capsys):
    assert main(["soundness", "--n", "5"]) == EXIT_OK
    assert "0 failures" in capsys.readouterr().out


def test_soundness_lists_budget_exhaustions(capsys):
    # each generated program takes more than one step, so both seeds run
    # out of budget and add no steps to the total
    assert main(["soundness", "--n", "2", "--max-steps", "1"]) == EXIT_FAIL
    assert capsys.readouterr().out == (
        "2 programs, 2 failures, 2 budget exhaustions, 0 total steps\n"
        "  seed 0: BudgetExhausted('evaluation exceeded 1 steps')\n"
        "  seed 1: BudgetExhausted('evaluation exceeded 1 steps')\n"
    )


def test_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_file():
    assert main(["check", "/nonexistent.pcore"]) == EXIT_USAGE


def test_run_budget_covers_main(capsys):
    # instantiating the fixture takes fewer than 20 steps; the packet through
    # main takes more, and the budget bounds both
    code = main(["run", PCORE, "--packet", "03FF", "--max-steps", "20"])
    assert code == EXIT_RUNTIME
    assert "exceeded 20 steps" in capsys.readouterr().err


def test_run_and_stf_reject_missing_main(tmp_path, capsys):
    script = tmp_path / "one.stf"
    script.write_text("packet 0 03FF\n")
    prog = tmp_path / "nomain.pcore"
    # decided from the declarations: one step would not evaluate any of them
    for text, budget, why in [
        ("const int w = 4;\n", [], "no instance named 'main'"),
        ("const int w = 4;\nbit<8> x := 1w8 + 2w8;\n"
         "control C() { apply { x := 3w8; } }\nC() c;\n", ["--max-steps", "1"],
         "no instance named 'main'"),
        ("control C(in bit<8> x) { apply { } }\nbit<8> y := 1w8 + 1w8;\n"
         "C() main;\n", ["--max-steps", "1"],
         "'main' must be a zero-parameter control instance"),
    ]:
        prog.write_text(text)
        assert main(["run", str(prog), "--packet", "03FF", *budget]) == EXIT_RUNTIME
        run_err = capsys.readouterr().err
        assert main(["stf", str(prog), str(script), *budget]) == EXIT_RUNTIME
        assert capsys.readouterr().err == run_err
        assert why in run_err


def test_diff_unions_budget():
    assert main(["diff-unions", UNION, "--max-steps", "1"]) == EXIT_RUNTIME


@pytest.mark.parametrize("argv", [
    ["run", PCORE, "--packet", "03FF", "--max-steps", "-5"],
    ["stf", PCORE, STF, "--max-steps", "0"],
    ["diff-unions", UNION, "--max-steps", "0"],
    ["soundness", "--n", "2", "--max-steps", "0"],
], ids=["run", "stf", "diff-unions", "soundness"])
def test_nonpositive_budget_is_a_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-steps: must be positive" in captured.err


@pytest.mark.parametrize("spec", ["bogus", "seed:x", "seeded:3"])
@pytest.mark.parametrize("cmd", [["stf", PCORE, STF], ["run", PCORE]])
def test_bad_havoc_spec(cmd, spec, capsys):
    assert main(cmd + ["--havoc", spec]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_run_agrees_with_stf(capsys):
    assert main(["stf", PCORE, STF, "--json"]) == EXIT_OK
    packets = json.loads(capsys.readouterr().out)["packets"]
    lines = [ln.split() for ln in Path(STF).read_text().splitlines()
             if ln.startswith("packet ")]
    assert len(lines) == len(packets) > 0
    for (_, port, payload), want in zip(lines, packets):
        code = main(["run", PCORE, "--packet", payload, "--port", port,
                     "--control-plane", CP, "--json"])
        assert code == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got == {"egress": want["egress"], "output": want["payload_out"],
                       "dropped": want["dropped"], "steps": want["steps"]}


@pytest.mark.parametrize("doc", [
    '{"table": "acl"}',
    '["acl"]',
    '[{"keys": ["0"]}]',
    '[{"table": 1, "keys": ["0"], "action": "allow"}]',
    '[{"table": "acl", "keys": ["0"]}]',
    '[{"table": "acl", "keys": ["0", "1"], "action": 7}]',
    '[{"table": "acl", "action": "allow"}]',
    '[{"table": "acl", "keys": "01", "action": "allow"}]',
    '[{"table": "acl", "keys": ["0", "1"], "action": "allow", "args": "9"}]',
    '[{"table": "acl", "keys": [["0"], "1"], "action": "allow"}]',
])
def test_run_rejects_malformed_control_plane(doc, tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(doc)
    code = main(["run", PCORE, "--packet", "03FF", "--control-plane",
                 str(rules)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("doc", [
    '[{"table": "acl", "keys": ["0", "1"], "action": "allow", "args": ["9"]}]',
    '[{"table": "acl", "keys": ["0", "257"], "action": "allow"}]',
    '[{"table": "acl", "keys": ["0", true], "action": "allow"}]',
    '[{"table": "acl", "keys": ["0", "1.5"], "action": "allow"}]',
], ids=["surplus-arg", "key-too-wide", "bool-for-bit", "not-a-number"])
def test_run_rejects_bad_rule_data(doc, tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(doc)
    code = main(["run", PCORE, "--packet", "03FF", "--control-plane",
                 str(rules)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("text", [
    "bit<8> x := " + "(" * 200 + "1w8" + ")" * 200 + ";\n",
    "int x := " + "+".join(["1"] * 1500) + ";\n",
], ids=["parens", "sum"])
def test_check_deep_nesting(text, tmp_path, capsys):
    deep = tmp_path / "deep.pcore"
    deep.write_text(text)
    for cmd in ("check", "run"):
        assert main([cmd, str(deep)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: input nests too deeply\n"


# both fail before allocating: the checker's `1 << width` raises MemoryError,
# the stack's default value OverflowError
@pytest.mark.parametrize("text, cmds", [
    ("bit<10000000000000000000> x := 1w10000000000000000000;\n",
     ("check", "run", "stf")),
    ("control C() { bit<8>[10000000000000000000] s; apply { } }  C() main;\n",
     ("run", "stf")),
], ids=["width", "stack-size"])
def test_input_too_large_is_a_usage_error(text, cmds, tmp_path, capsys):
    big = tmp_path / "big.pcore"
    big.write_text(text)
    script = tmp_path / "one.stf"
    script.write_text("packet 0 00\n")
    for cmd in cmds:
        argv = [cmd, str(big)] + ([str(script)] if cmd == "stf" else [])
        assert main(argv) == EXIT_USAGE, cmd
        assert capsys.readouterr().err == "error: input too large\n"


# Landin's knot: assigning one callable to another would make a program
# recurse without end, so a name of function, constructor or table type is
# not an l-value
KNOTS = {
    "function": "bit<8> g() { return 1w8; }\nbit<8> h() { return g(); }\n"
                "control M() { apply { g := h; set_egress(h()); } }\n",
    "instances": "control A() { apply { } }\nA() a;\n"
                 "control B() { apply { a(); } }\nB() b;\n"
                 "control M() { apply { a := b; b(); } }\n",
    "actions": "control M() {\n  {} a1() { }\n  {} a2() { a1(); }\n"
               "  apply { a1 := a2; a2(); }\n}\n",
    "tables": "control M() {\n  {} a1() { }\n"
              "  table t1 { key = {} actions = {a1();} }\n  {} a2() { t1(); }\n"
              "  table t2 { key = {} actions = {a2();} }\n"
              "  apply { t1 := t2; t2(); }\n}\n",
    "native": "control M() { apply { set_egress := set_egress; } }\n",
}


@pytest.mark.parametrize("knot", KNOTS)
def test_callables_are_not_lvalues(knot, tmp_path, capsys):
    prog = tmp_path / "knot.pcore"
    prog.write_text(KNOTS[knot] + "M() main;\n")
    for cmd in ("check", "run"):
        assert main([cmd, str(prog)]) == EXIT_TYPE
        err = capsys.readouterr().err
        assert err.startswith("error: TS-Assign at ")
        assert err.rstrip().endswith(" and cannot be assigned")  # with its type


def test_if_nested_240_deep_passes_check_and_run(tmp_path):
    # each level of `if` takes a few frames of the checker's and the
    # evaluator's rules; a fresh `pcore` process starts from a shallow stack,
    # which pytest's own frames would not
    ifs = "if (true) { " * 240 + "x := 1w8; " + "} " * 240
    deep = tmp_path / "deep.pcore"
    deep.write_text("bit<8> f() {\n  bit<8> x := 0w8;\n  " + ifs
                    + "\n  return x;\n}\n"
                    "control Main() { apply { bit<8> y := f(); } }\nMain() main;\n")
    env = {**os.environ, "PYTHONPATH": str(Path(pcore.__file__).parent.parent)}
    for cmd in ("check", "run"):
        done = subprocess.run([sys.executable, "-m", "pcore.cli", cmd, str(deep)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == EXIT_OK, (cmd, done.stderr)


@pytest.mark.parametrize("call", [
    "set_valid<:bit<8>:>(x)",
    "set_invalid<:bit<8>:>(x)",
    "push_front<:bit<8>:>(x, 1)",
    "pop_front<:bit<8>:>(x, 1)",
    "is_valid<:bit<8>:>(x)",
])
def test_native_on_wrong_shape_is_a_target_error(call, tmp_path, capsys):
    prog = tmp_path / "shape.pcore"
    prog.write_text(f"bit<8> x := 1w8;\n{{}} f() {{{call};}}\n{{}} r := f();\n"
                    "control C() { apply { } }\nC() main;\n")
    assert main(["run", str(prog)]) == EXIT_RUNTIME
    native = call.partition("<:")[0]
    shape = "a header stack" if native.endswith("_front") else "a header"
    assert capsys.readouterr().err == \
        f"runtime error: {native} expects {shape}\n"


# Rejections of a checked program, and of an STF line, each as the one line
# the command prints: `RULE at L:C:` (`line N:` for STF), then a message in
# source syntax: operators by token and expressions as written.
SOURCE_SYNTAX = [
    ("check", "bit<8> x := 1w8 + true;\n",
     "T-BinOp at 1:17: operator '+' not defined at (bit<8>, bool)"),
    ("check", "bit<8> x := !3w8;\n",
     "T-UOp at 1:13: operator '!' not defined at (bit<8>)"),
    ("check", "bit<8> f() { return 1w8; }\nconst bit<8> c = f();\n",
     "NotCompileTime at 2:19: not a compile-time expression: f()"),
    ("check", "const bit<8> c = (bit<8>) 3;\n",
     "NotCompileTime at 1:18: not a compile-time expression: (bit<8>) 3"),
    ("check", "const bit<8> c = 4w8;\nbit<8> x := c / 0w8;\n",
     "T-BinOp at 2:15: '/' divisor must be positive"),
    ("check", "{} f() { enum Q {A} }\n",
     "TS-Block at 1:10: declaration of 'Q' not allowed in statement position"),
    ("check", "enum Color {red}\ntypedef Color C;\nC x := C.blue;\n",
     "T-Enum at 3:9: 'blue' is not a member of enum Color"),
    ("stf", "packet 0 03FF\nadd t k:1 a(\n",
     "line 2: 'add t k:1 a(': bad action call 'a('"),
]


@pytest.mark.parametrize("cmd, text, want", SOURCE_SYNTAX, ids=[
    "binop", "unop", "call", "cast", "divisor", "block-decl", "typedef-enum",
    "stf-add"])
def test_rejection_speaks_source_syntax(cmd, text, want, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text)
    argv = {"check": ["check", str(path)], "stf": ["stf", PCORE, str(path)]}
    assert main(argv[cmd]) == {"check": EXIT_TYPE, "stf": EXIT_USAGE}[cmd]
    err = capsys.readouterr().err
    assert err == f"error: {want}\n"
    prefix = {"check": r"[\w-]+ at \d+:\d+: ", "stf": r"line \d+: "}[cmd]
    assert len(re.findall(prefix, err)) == 1
    message = re.split(prefix, err)[1]
    assert not re.search(r"[A-Z][a-z]+[A-Z]\w*", message)  # no AST class


@pytest.mark.parametrize("decl, call, want", [
    ("bool b := true;", "extract_bits<:bool:>(b)",
     "extract_bits cannot fill type bool"),
    ("int b := 1;", "emit_bits<:int:>(b)", "emit_bits cannot serialize type int"),
])
def test_native_names_the_type_it_cannot_handle(decl, call, want, tmp_path,
                                                capsys):
    prog = tmp_path / "shape.pcore"
    prog.write_text(f"{decl}\n{{}} f() {{{call};}}\n{{}} r := f();\n"
                    "control C() { apply { } }\nC() main;\n")
    assert main(["run", str(prog)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"runtime error: {want}\n"


def test_odd_packet_is_named(capsys):
    assert main(["run", PCORE, "--packet", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: packet '0' is not whole bytes\n"


@pytest.mark.parametrize("line", ["packet 300 03FF", "expect 300 FF"])
def test_stf_packet_rule_is_applied_at_parse_time(line, tmp_path, capsys):
    script = tmp_path / "ports.stf"
    script.write_text(f"{STF_TEXT}{line}\n")
    lineno = STF_TEXT.count("\n") + 1
    assert main(["stf", PCORE, str(script)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""  # no packet ran
    assert err == (f"error: line {lineno}: {line!r}: port 300 is not in "
                   "0-255\n")


@pytest.mark.parametrize("payload", ["zz", "0x12", "1_2", "-1", " 12", "12 ",
                                     "\u0661"])
def test_run_rejects_non_hex_packet(payload, capsys):
    assert main(["run", PCORE, "--packet", payload]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("cmd, port, payload", [
    ("run", "256", "03FF"), ("run", "-1", "03FF"), ("stf", "256", "03FF"),
    ("run", "0", "0"),
])
def test_packet_is_whole_bytes_on_a_byte_port(cmd, port, payload, tmp_path,
                                              capsys):
    script = tmp_path / "one.stf"
    script.write_text(f"packet {port} {payload}\n")
    argv = {"run": ["run", PCORE, "--packet", payload, "--port", port,
                    "--control-plane", CP],
            "stf": ["stf", PCORE, str(script)]}[cmd]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


COLOR_TABLE = """enum Color {red, green}

control Main() {
  Color c;
  {} allow() {
    set_egress(1w8);
  }
  {} deny() {
    drop();
  }
  table paint {
    key = {c : exact;}
    actions = {allow(); deny();}
  }
  apply {
    paint();
  }
}
Main() main;
"""


@pytest.mark.parametrize("key, code, out", [
    ("red", EXIT_OK, "port 1"), ("green", EXIT_OK, "dropped"),
    ("purple", EXIT_USAGE, ""),
])
def test_enum_key_is_typed_with_its_members(key, code, out, tmp_path, capsys):
    prog = tmp_path / "color.pcore"
    prog.write_text(COLOR_TABLE)
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(
        [{"table": "paint", "keys": [key], "action": "allow"}]))
    assert main(["run", str(prog), "--control-plane", str(rules)]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith(out)
    if code == EXIT_USAGE:
        assert "'purple' is not a value of type Color" in captured.err


@pytest.mark.parametrize("kw", ["error", "match_kind"])
def test_diff_unions_with_open_enum_alternative(kw, tmp_path, capsys):
    prog = tmp_path / "open.pcore"
    prog.write_text(
        f"union U {{{kw} k; bit<8> b;}}\n"
        "bit<8> f() {\n"
        "  U u;\n"
        "  bit<8> r := 0w8;\n"
        "  u.b := 5w8;\n"
        "  switch (u) {\n"
        "    case b: { r := b; }\n"
        "    case k: { r := 1w8; }\n"
        "  }\n"
        "  return r;\n"
        "}\n"
        "bit<8> result := f();\n"
    )
    assert main(["diff-unions", str(prog)]) == EXIT_OK
    assert capsys.readouterr().out == "PASS\n"


# the translation's tag field is the first of tag, tag0, tag1, ... that
# names no alternative; g is global, so the stores compare its translation
TAG_UNION = """union U {bit<8> tag; bool tag0;}
U g;
bit<8> r := 0w8;
{} f() {
  g.tag := 3w8;
  switch (g) {
    case tag: { r := tag; }
    case tag0: { r := 1w8; }
  }
}
{} z := f();
"""


@pytest.mark.parametrize("flags, code, out", [
    ([], EXIT_OK, "PASS\n"), (["--wrong-tag"], EXIT_FAIL, "FAIL\n"),
])
def test_diff_unions_with_an_alternative_named_tag(flags, code, out, tmp_path,
                                                   capsys):
    prog = tmp_path / "tag.pcore"
    prog.write_text(TAG_UNION)
    assert main(["translate-unions", str(prog)]) == EXIT_OK
    assert "record {bit<1> tag1; bit<8> tag; bool tag0;}" in capsys.readouterr().out
    assert main(["diff-unions", str(prog)] + flags) == code
    assert capsys.readouterr().out == out


MAIN_UNION = """union U {bit<8> x; bool y;}
bit<8> seen := 0w8;
control Main() {
  U u;
  apply {
    u.x := 7w8;
    switch (u) {
      case x: { seen := 1w8; }
      case y: { seen := 2w8; }
    }
  }
}
Main() main;
"""
# the wrong tag shows only on the packet: the translation alone sends it
# to port 2, not port 1
MAIN_UNION_PACKET = """union U {bit<8> x; bool y;}
control Main() {
  U u;
  apply {
    u.x := 7w8;
    switch (u) {
      case x: { set_egress(1w8); }
      case y: { set_egress(2w8); }
    }
  }
}
Main() main;
"""
# a record alternative, in a stack: us[5w32] is past the end and reads as
# the default union (alternative r), and us[0w32] holds r, which the second
# switch leaves to its default; port 0 + 1 + 10
RECORD_UNION = """typedef record {bit<4> a; bool b;} R;
union U {R r; bit<8> x;}
control Main() {
  U[2] us;
  apply {
    bit<8> port := 0w8;
    us[0w32].r := {a = 3w4, b = true};
    us[1w32].x := 4w8;
    switch (us[5w32]) {
      case r: { port := port + 1w8; }
      case x: { port := x; }
    }
    switch (us[0w32]) {
      case x: { port := 100w8; }
      default: { port := port + 10w8; }
    }
    set_egress(port);
  }
}
Main() main;
"""


def test_record_alternative_in_a_stack(tmp_path, capsys):
    prog = tmp_path / "record.pcore"
    prog.write_text(RECORD_UNION)
    assert main(["run", str(prog), "--havoc", "zero", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["egress"] == 11


@pytest.mark.parametrize("flags, code, out", [
    ([], EXIT_OK, "PASS\n"), (["--wrong-tag"], EXIT_FAIL, "FAIL\n"),
])
def test_diff_unions_runs_main(flags, code, out, tmp_path, capsys):
    """A union used only in the control that `main` instantiates is run by
    both sides of the differential."""
    prog = tmp_path / "main.pcore"
    for text in (MAIN_UNION, MAIN_UNION_PACKET, RECORD_UNION):
        prog.write_text(text)
        assert main(["diff-unions", str(prog)] + flags) == code
        assert capsys.readouterr().out == out


SWITCH_FALLS_THROUGH = """\
union U {bit<8> x; bool y;}
control Main() { apply { U u; u.y := true; switch (u) { case x: { set_egress(x); } } } }
Main() main;
"""


def test_switch_without_a_matching_case_falls_through(tmp_path, capsys):
    """No label matches and there is no default: the switch does nothing,
    in the extended program and in its translation."""
    prog = tmp_path / "switch.pcore"
    prog.write_text(SWITCH_FALLS_THROUGH)
    assert main(["run", str(prog), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "egress": None, "output": "", "dropped": False, "steps": 10}
    for flags, code, out in (([], EXIT_OK, "PASS\n"),
                             (["--wrong-tag"], EXIT_FAIL, "FAIL\n")):
        assert main(["diff-unions", str(prog)] + flags) == code
        assert capsys.readouterr().out == out


def test_no_egress_port_is_said_in_words(tmp_path, capsys):
    prog = tmp_path / "switch.pcore"
    prog.write_text(SWITCH_FALLS_THROUGH)
    assert main(["run", str(prog)]) == EXIT_OK
    assert capsys.readouterr().out == "no egress port (10 steps)\n"
    script = tmp_path / "switch.stf"
    script.write_text("packet 0 00\nexpect 1 00\n")
    assert main(["stf", str(prog), str(script)]) == EXIT_FAIL
    assert capsys.readouterr().out == "FAIL expect 1 00 (got no egress port)\n"


@pytest.mark.parametrize("cmd, text", [
    ("stf", "add acl ingress:\u0660 egress:1 allow()\npacket 0 03FF\n"),
    ("stf", "packet \u0660 03FF\n"),
    ("run", '[{"table": "acl", "keys": ["\u0663", "1"], "action": "allow"}]'),
], ids=["stf-key", "stf-port", "json-key"])
def test_numbers_are_ascii(cmd, text, tmp_path, capsys):
    data = tmp_path / "data"
    data.write_text(text, encoding="utf-8")
    argv = {"stf": ["stf", PCORE, str(data)],
            "run": ["run", PCORE, "--packet", "03FF", "--control-plane",
                    str(data)]}[cmd]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


RUN = ["run", PCORE, "--packet", "03FF"]


@pytest.mark.parametrize("argv, data", [
    (["stf", PCORE], "add acl ingress:0_0 egress:1 allow()\npacket 0 03FF\n"),
    (["stf", PCORE], "add acl ingress:0 egress:+1 allow()\npacket 0 03FF\n"),
    (["stf", PCORE], "packet 0_0 03FF\n"),
    (["stf", PCORE], "packet +0 03FF\n"),
    (RUN + ["--control-plane"],
     '[{"table": "acl", "keys": ["0b1", "1"], "action": "allow"}]'),
    (RUN + ["--port", "+0"], None),
    (RUN + ["--havoc", "seed:+1_0"], None),
], ids=["stf-key-underscore", "stf-key-plus", "stf-port-underscore",
        "stf-port-plus", "json-key-binary", "cli-port-plus", "havoc-seed"])
def test_numbers_are_spelled_as_in_source(argv, data, tmp_path):
    """Rule data, STF, havoc specs and integer arguments read numbers as the
    lexer does (with an optional leading `-`), not as Python does."""
    if data is not None:
        path = tmp_path / "data"
        path.write_text(data)
        argv = argv + [str(path)]
    assert main(argv) == EXIT_USAGE


@pytest.mark.parametrize("keys", [["0", "01"], ["0x0", "0x1"]])
def test_rule_keys_in_source_spellings(keys, tmp_path, capsys):
    cp = tmp_path / "cp.json"
    cp.write_text(json.dumps([{"table": "acl", "keys": keys,
                               "action": "allow"}]))
    assert main(RUN + ["--port", "0", "--control-plane", str(cp)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("port 1 FF ")


def test_import_calls_no_inspect_signature():
    # dataclass() calls inspect.signature only to write a class a docstring;
    # every dataclass in pcore has one, which keeps start-up cheap
    code = ("import inspect\n"
            "def fail(*args, **kwargs):\n"
            "    raise AssertionError('inspect.signature called')\n"
            "inspect.signature = fail\n"
            "import pcore.cli, pcore.gen, pcore.unions\n")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_SRC_ENV)
    assert done.returncode == 0, done.stderr


_SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(pcore.__file__).parent.parent)}
# what `pcore check` runs: the front end and the checker, with the target's
# natives; run and stf add nothing to it
_CHECK_MODULES = ["pcore", "pcore.cli", "pcore.errors", "pcore.interp",
                  "pcore.lexer", "pcore.ops", "pcore.parser", "pcore.pretty",
                  "pcore.stf", "pcore.syntax", "pcore.target", "pcore.typecheck"]


@pytest.mark.parametrize("argv", [
    ["check", PCORE], RUN, ["stf", PCORE, STF],
], ids=["check", "run", "stf"])
def test_a_command_imports_only_what_it_runs(argv):
    # the generator and the union translation load only for the oracle commands
    code = ("import sys\n"
            "from pcore.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pcore'))\n")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_SRC_ENV)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr(_CHECK_MODULES)
