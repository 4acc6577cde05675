"""Command-line driver: subcommands and exit codes."""

import json
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


def test_check_ok(capsys):
    assert main(["check", PCORE]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_check_type_error(tmp_path, capsys):
    bad = tmp_path / "bad.pcore"
    bad.write_text("bit<8> x := true;\n")
    assert main(["check", str(bad)]) == EXIT_TYPE


def test_check_parse_error(tmp_path):
    bad = tmp_path / "bad.pcore"
    bad.write_text("const int = ;\n")
    assert main(["check", str(bad)]) == EXIT_TYPE


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


def test_run_runtime_error(tmp_path):
    bad = tmp_path / "oob.pcore"
    bad.write_text("bit<8>[2] s;\n{} f() {s[5w32] := 1w8;}\n{} r := f();\n")
    assert main(["run", str(bad)]) == EXIT_RUNTIME


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


def test_gen(capsys):
    assert main(["gen", "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip()


def test_soundness(capsys):
    assert main(["soundness", "--n", "5"]) == EXIT_OK
    assert "0 failures" in capsys.readouterr().out


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
    prog = tmp_path / "nomain.pcore"
    prog.write_text("const int w = 4;\n")
    script = tmp_path / "one.stf"
    script.write_text("packet 0 03FF\n")
    assert main(["run", str(prog), "--packet", "03FF"]) == EXIT_RUNTIME
    run_err = capsys.readouterr().err
    assert main(["stf", str(prog), str(script)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == run_err
    assert "no instance named 'main'" in run_err


def test_diff_unions_budget():
    assert main(["diff-unions", UNION, "--max-steps", "1"]) == EXIT_RUNTIME


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
    assert main(["check", str(deep)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("call", [
    "set_valid<:bit<8>:>(x)",
    "set_invalid<:bit<8>:>(x)",
    "push_front<:bit<8>:>(x, 1)",
    "pop_front<:bit<8>:>(x, 1)",
    "is_valid<:bit<8>:>(x)",
])
def test_native_on_wrong_shape_is_a_target_error(call, tmp_path, capsys):
    prog = tmp_path / "shape.pcore"
    prog.write_text(f"bit<8> x := 1w8;\n{{}} f() {{{call};}}\n{{}} r := f();\n")
    assert main(["run", str(prog)]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: ")


@pytest.mark.parametrize("payload", ["zz", "0x12", "1_2", "-1", " 12", "12 ",
                                     "\u0661"])
def test_run_rejects_non_hex_packet(payload, capsys):
    assert main(["run", PCORE, "--packet", payload]) == EXIT_USAGE
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
        assert "'purple' is not a value of type enum Color" in captured.err


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
