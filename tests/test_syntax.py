"""Core AST utilities: contexts, machines, canonical serialization, type
equality and type substitution."""

import json
import random

from pcore.gen import generate_type
from pcore.syntax import (
    BitT, BoolT, CtorT, Delta, EnumT, IntE, IntV, Machine, Program, RecordT,
    StackT, VarInitD, free_type_vars, FunT, Param, VarT, subst_type, to_obj,
)
from pcore.typecheck import initial_delta, simplify_type


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


def with_holes(rng, t, names):
    """t with some of its record fields and stack elements, or t itself,
    replaced by a VarT named from names."""
    if names and rng.random() < 0.3:
        return VarT(rng.choice(names))
    match t:
        case RecordT(fs):
            return RecordT(tuple((n, with_holes(rng, ft, names)) for n, ft in fs))
        case StackT(elem, n):
            return StackT(with_holes(rng, elem, names), n)
        case _:
            return t


def generic_fun(seed, tps, pnames=("a", "b")):
    """A function type over the type parameters tps, drawn from seed: the
    same seed gives the same shape whatever tps and pnames are."""
    rng = random.Random(seed)
    ps = tuple(
        Param(rng.choice(["in", "out", "inout"]), pn,
              with_holes(rng, generate_type(rng, 2), tps))
        for pn in pnames[:rng.randint(0, len(pnames))]
    )
    return FunT(tps, ps, with_holes(rng, generate_type(rng, 2), tps))


class TestTypeEquality:
    """`==` is the calculus's type equality, and a hash agrees with it."""

    def test_equal_types_hash_equal(self):
        rng = random.Random(0)
        ts = [generate_type(rng, 2) for _ in range(150)]
        ts += [generic_fun(seed, tps, pnames) for seed in range(40)
               for tps in [(), ("X",), ("X", "Y"), ("A", "B")]
               for pnames in [("a", "b"), ("p", "q")]]
        ts += [CtorT((("c", t),), VarT("X")) for t in ts[:20]]
        pairs = [(a, b) for a in ts for b in ts if a == b]
        assert len(pairs) > len(ts)  # some distinct objects are equal
        assert all(hash(a) == hash(b) for a, b in pairs)

    def test_funs_equal_up_to_bound_and_parameter_names(self):
        for seed in range(100):
            f = generic_fun(seed, ("X", "Y"))
            g = generic_fun(seed, ("A", "B"), pnames=("p", "q"))
            assert f == g and hash(f) == hash(g)

    def test_bound_names_are_compared_by_position(self):
        def f(tps, a, b):
            return FunT(tps, (Param("in", "a", VarT(a)),
                              Param("in", "b", VarT(b))), BoolT())
        assert f(("X", "Y"), "X", "Y") != f(("X", "Y"), "Y", "X")
        assert f(("X", "Y"), "X", "Y") == f(("Y", "X"), "Y", "X")
        # a free X is not the bound one
        assert f(("X",), "X", "X") != f(("Y",), "Y", "X")
        assert f(("X",), "X", "Z") != f(("Y",), "Y", "X")

    def test_ctors_equal_up_to_parameter_names(self):
        for seed in range(50):
            rng = random.Random(seed)
            ps = [generate_type(rng, 2) for _ in range(rng.randint(0, 3))]
            c1 = CtorT(tuple((f"x{i}", t) for i, t in enumerate(ps)),
                       generic_fun(seed, ("X",)))
            c2 = CtorT(tuple((f"y{i}", t) for i, t in enumerate(ps)),
                       generic_fun(seed, ("Z",), pnames=("c", "d")))
            assert c1 == c2 and hash(c1) == hash(c2)
        assert CtorT((("a", BitT(8)),), VarT("X")) != \
            CtorT((("a", BitT(9)),), VarT("X"))

    def test_types_are_dict_keys(self):
        rng = random.Random(1)
        ts = [generate_type(rng, 2) for _ in range(100)]
        ts += [generic_fun(seed, ("X",)) for seed in range(30)]
        index = {}
        for t in ts:
            index.setdefault(t, t)
        distinct = []
        for t in ts:
            if all(t != d for d in distinct):
                distinct.append(t)
        assert list(index) == distinct
        for seed in range(30):  # an equal copy built afresh finds its key
            f = generic_fun(seed, ("T",), pnames=("u", "v"))
            assert index[f] == f


class TestSubstType:
    def test_agrees_with_simplify_under_a_binding(self):
        # on a normal type, subst_type computes what simplify_type does
        # with the type argument bound, down to the parameter names
        rng = random.Random(0)
        for _ in range(300):
            hole = with_holes(rng, generate_type(rng), ["X"])
            u = generate_type(rng, 2)
            for t in (hole, FunT((), (Param("in", "p", hole),), hole),
                      FunT(("X",), (Param("in", "p", hole),), VarT("X")),
                      CtorT((("c", hole),), FunT((), (), hole))):
                want = simplify_type({}, initial_delta().bind("X", u), t)
                assert to_obj(subst_type(t, {"X": u})) == to_obj(want)

    def test_bound_variables_stay(self):
        f = FunT(("X",), (Param("in", "p", VarT("X")),), VarT("Y"))
        assert subst_type(f, {"X": BitT(8), "Y": BoolT()}) == \
            FunT(("X",), (Param("in", "p", VarT("X")),), BoolT())
