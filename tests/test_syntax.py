"""Core AST utilities: contexts, machines, and canonical serialization."""

import json

from pcore.syntax import (
    BitT, BoolT, Delta, EnumT, IntE, IntV, Machine, Program, VarInitD,
    free_type_vars, FunT, Param, RecordT, VarT, to_obj,
)


class TestDelta:
    def test_lookup_last_wins(self):
        d = Delta().bind("T", BitT(8)).bind("T", BitT(16))
        assert d.lookup("T") == BitT(16)

    def test_missing_is_none(self):
        assert Delta().lookup("nope") is None

    def test_error_members_merge(self):
        d = Delta().bind("error", EnumT("error", ("A",)))
        d = d.bind("error", EnumT("error", ("B",)))
        assert d.lookup("error").members == ("A", "B")

    def test_match_kind_members_merge(self):
        d = Delta().bind("match_kind", EnumT("match_kind", ("exact",)))
        d = d.bind("match_kind", EnumT("match_kind", ("lpm",)))
        assert d.lookup("match_kind").members == ("exact", "lpm")

    def test_type_var_entries(self):
        d = Delta().bind_var("X")
        assert d.lookup("X") == "var"
        assert d.lookup("Y") is None


class TestMachine:
    def test_fresh_locations_distinct(self):
        m = Machine()
        a = m.fresh_loc(IntV(1, 8))
        b = m.fresh_loc(IntV(2, 8))
        assert a != b
        assert m.store[a] == IntV(1, 8)


class TestFreeTypeVars:
    def test_nested(self):
        t = RecordT((("a", VarT("X")), ("b", BitT(8))))
        assert free_type_vars(t) == {"X"}

    def test_fun_binds_params(self):
        f = FunT(("X",), (Param("in", "p", VarT("X")),), VarT("Y"))
        assert free_type_vars(f) == {"Y"}


class TestToObj:
    def test_json_serializable(self):
        p = Program((VarInitD(BitT(8), "x", IntE(1, 8)),))
        text = json.dumps(to_obj(p))
        assert "VarInitD" in text

    def test_positions_excluded_from_equality(self):
        assert IntE(1, 8, pos=(1, 1)) == IntE(1, 8, pos=(9, 9))
