"""Tagged-union extension: checking, translation, store inclusion, and the
differential runner with fault injection."""

from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import pcore
from pcore import typecheck
from pcore.errors import TypeError_
from pcore.gen import generate_union_program, run_soundness_case
from pcore.parser import parse_program
from pcore.pretty import pretty_program
from pcore.syntax import (
    AssignS, BitT, BoolV, IntV, MemberE, RecordV, UnionT, UnionV,
)
from pcore.target import HavocOracle
from pcore.unions import (
    WrongTagTranslator, diff_union_semantics, env_store_le, fresh_tmp,
    tag_width, translate, translate_value,
)

FIXTURES = Path(pcore.__file__).parent / "fixtures"


def chk(text):
    return typecheck.check_program(parse_program(text))


UNION_U = "union U {bit<8> x; bool y;}\n"
RECORD_R = "typedef record {U u; bit<8> n;} R;\n"


def switch_on(e):
    """A switch on the union e that sets the global r from its x payload."""
    return f"switch ({e}) {{case x: {{r := x;}} case y: {{r := 1w8;}}}}"


def nodes(x):
    """x and every syntax node below it."""
    yield x
    if is_dataclass(x):
        for f in fields(x):
            yield from nodes(getattr(x, f.name))
    elif isinstance(x, tuple):
        for item in x:
            yield from nodes(item)


class TestChecking:
    def test_union_declaration_and_assignment(self):
        chk("union U {bit<8> a; bool b;}\n"
            "{} f() {U u; u.a := 1w8;}\n")

    def test_wrong_alternative_type(self):
        with pytest.raises(TypeError_):
            chk("union U {bit<8> a; bool b;}\n{} f() {U u; u.a := true;}\n")

    def test_unknown_alternative(self):
        with pytest.raises(TypeError_):
            chk("union U {bit<8> a;}\n{} f() {U u; u.zz := 1w8;}\n")

    def test_switch_binds_payload(self):
        chk("union U {bit<8> a; bool b;}\n"
            "bit<8> f() {U u; u.a := 1w8;\n"
            "switch (u) {case a: {return a;} case b: {return 0w8;}}\n"
            "return 0w8;}\n")

    def test_switch_payload_scoped_to_case(self):
        with pytest.raises(TypeError_):
            chk("union U {bit<8> a;}\n"
                "bit<8> f() {U u; switch (u) {case a: {}} return a;}\n")

    def test_union_field_read_outside_switch_rejected(self):
        with pytest.raises(TypeError_):
            chk("union U {bit<8> a;}\nbit<8> f() {U u; return u.a;}\n")

    def test_duplicate_case(self):
        with pytest.raises(TypeError_):
            chk("union U {bit<8> a;}\n"
                "{} f() {U u; switch (u) {case a: {} case a: {}}}\n")

    def test_restricted_alternative_types(self):
        with pytest.raises(TypeError_):
            chk("typedef header {bit<8> x;} H;\nunion U {H h;}\n")


class TestValueTyping:
    def test_machine_oracle_types_a_union_global(self):
        program = parse_program(f"{UNION_U}U g;\n{{}} f() {{g.y := true;}}\n"
                                "{} z := f();\n")
        assert run_soundness_case(program)["machine_ok"]
        ut = chk(UNION_U)[2].lookup("U")
        delta = typecheck.initial_delta()
        assert typecheck.check_value({}, {}, delta, UnionV(ut, "y", BoolV(True)), ut)
        assert not typecheck.check_value({}, {}, delta, UnionV(ut, "y", IntV(1, 8)),
                                         ut)
        other = UnionT("V", ut.alts)
        assert not typecheck.check_value({}, {}, delta,
                                         UnionV(other, "y", BoolV(True)), ut)

    def test_seeded_havoc_draws_are_well_typed(self):
        ut = chk(UNION_U)[2].lookup("U")
        oracle = HavocOracle("seeded", 3)
        drawn = [oracle.havoc(ut) for _ in range(40)]
        assert all(typecheck.check_value({}, {}, typecheck.initial_delta(), v, ut)
                   for v in drawn)
        assert {v.field for v in drawn} == {"x", "y"}


class TestTagWidth:
    @pytest.mark.parametrize("n,w", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3),
                                     (8, 3), (9, 4)])
    def test_values(self, n, w):
        assert tag_width(n) == w


class TestTranslation:
    SRC = (FIXTURES / "option_union.pcore").read_text()

    def test_translated_program_typechecks(self):
        p = parse_program(self.SRC)
        t = translate(p)
        typecheck.check_program(t)
        # every union write is a whole-record assignment, and a declared
        # union needs no assignments to hold its default
        assert not [n for n in nodes(t)
                    if isinstance(n, AssignS) and isinstance(n.lhs, MemberE)]

    def test_translated_program_round_trips(self):
        t = translate(parse_program(self.SRC))
        assert parse_program(pretty_program(t)) == t

    def test_union_becomes_tagged_record(self):
        t = translate(parse_program("union U {bit<8> a; bool b; int c;}\n"))
        sigma, gamma, delta = typecheck.check_program(t)
        rec = delta.lookup("U")
        assert rec.fields[0] == ("tag", BitT(2))
        assert [n for n, _ in rec.fields] == ["tag", "a", "b", "c"]

    def test_fresh_temporaries_avoid_collisions(self):
        assert fresh_tmp({"$tmp0": BitT(8), "$tmp1": BitT(8)}) == "$tmp2"

    def test_translate_value(self):
        ut = UnionT("U", (("a", BitT(8)), ("b", BitT(4))))
        v = UnionV(ut, "b", IntV(3, 4))
        assert translate_value(v) == RecordV(
            (("tag", IntV(1, 1)), ("a", IntV(0, 8)), ("b", IntV(3, 4)))
        )


class TestStoreInclusion:
    def test_subset_with_equal_values(self):
        s1 = {0: IntV(1, 8)}
        s2 = {5: IntV(1, 8), 6: IntV(2, 8)}
        assert env_store_le(s1, {"x": 0}, s2, {"x": 5, "extra": 6})

    def test_missing_name_fails(self):
        assert not env_store_le({0: IntV(1, 8)}, {"x": 0}, {}, {})

    def test_value_mismatch_fails(self):
        assert not env_store_le(
            {0: IntV(1, 8)}, {"x": 0}, {1: IntV(2, 8)}, {"x": 1}
        )


class TestDifferential:
    def test_fixture_passes(self):
        p = parse_program((FIXTURES / "option_union.pcore").read_text())
        assert diff_union_semantics(p)["pass"]

    def test_fixture_detects_wrong_tag(self):
        p = parse_program((FIXTURES / "option_union.pcore").read_text())
        assert not diff_union_semantics(p, WrongTagTranslator())["pass"]

    def test_union_free_program_trivially_passes(self):
        p = parse_program("bit<8> x := 1w8;\n{} f() {x := x + 1w8;}\n"
                          "{} r := f();\n")
        v = diff_union_semantics(p)
        assert v["pass"] and v["translated"] == p

    @pytest.mark.parametrize("decls", [
        pytest.param("const int a = 4;\nconst int b = a + 4;\n"
                     "union U {bit<b> x; bool y;}\n"
                     f"{{}} f() {{U u; u.x := 3w8; {switch_on('u')}}}",
                     id="constant-width"),
        pytest.param(f"{UNION_U}U g;\n"
                     f"{{}} f() {{g.x := 3w8; {switch_on('g')}}}",
                     id="global"),
        pytest.param(f"{UNION_U}control C() {{U u; apply {{u.x := 3w8; "
                     f"{switch_on('u')}}}}}\nC() c;\n{{}} f() {{c();}}",
                     id="control-local"),
        pytest.param(f"{UNION_U}{{}} h(inout U u) {{u.x := 3w8; "
                     f"{switch_on('u')}}}\nU g;\n{{}} f() {{h(g);}}",
                     id="parameter"),
        pytest.param(f"{UNION_U}{RECORD_R}{{}} f() {{R rec; rec.u.x := 3w8; "
                     f"{switch_on('rec.u')}}}",
                     id="record-field"),
        pytest.param(f"{UNION_U}{RECORD_R}{{}} f() {{R rec; rec.u.x := 3w8; "
                     f"U w := rec.u; {switch_on('w')}}}",
                     id="copy"),
        pytest.param(f"{UNION_U}{{}} f() {{U u; u.x := get_ingress(); "
                     f"{switch_on('u')}}}",
                     id="native"),
        pytest.param(f"{UNION_U}bit<8> $tmp0 := 7w8;\n"
                     "{} f() {U u; u.x := 3w8; switch (u) "
                     "{case x: {r := $tmp0;} case y: {r := 1w8;}}}",
                     id="global-named-like-a-temporary"),
        pytest.param(f"{UNION_U}{{}} f() {{U[2] us; us[1w32].x := 3w8; "
                     f"us[5w32].y := true; {switch_on('us[1w32]')}}}",
                     id="stack-element"),
    ])
    def test_unions_found_by_their_type(self, decls):
        """A union is translated wherever the checker types one, and the
        switch reads the tag its assignment wrote."""
        p = parse_program(f"bit<8> r := 0w8;\n{decls}\n{{}} z := f();\n")
        assert diff_union_semantics(p)["pass"]
        assert not diff_union_semantics(p, WrongTagTranslator())["pass"]

    @pytest.mark.parametrize("seed", range(25))
    def test_generated_corpus(self, seed):
        p = generate_union_program(seed)
        assert diff_union_semantics(p)["pass"]
        assert not diff_union_semantics(p, WrongTagTranslator())["pass"]
