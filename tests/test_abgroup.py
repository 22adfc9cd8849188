import random

import pytest

from finegrading.abgroup import (
    GradingGroup,
    group_signature,
    invariant_factors_of,
    parse_element,
    parse_group,
    subgroup_invariants,
)
from finegrading.errors import GroupError


def f2_rank(vectors):
    """Independent oracle: rank of a set of F_2 vectors by row reduction."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % 2), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % 2:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestLiterals:
    def test_group_round_trip(self):
        for text in ["Z", "Z^2", "Z^3 x Z_2", "Z_2 x Z_2 x Z_4", "Z x Z_6"]:
            g = parse_group(text)
            assert g.literal() == text
            assert parse_group(g.literal()) == g

    def test_plain_z_is_rank_one(self):
        assert parse_group("Z") == GradingGroup(1)
        assert parse_group("Z x Z") == GradingGroup(2)

    def test_trivial_group(self):
        assert GradingGroup(0).literal() == "Z^0"

    def test_bad_group_literals(self):
        for text in ["Z^-1", "Z_1", "Q", "Z_2 x Z", "Z ^ 2", ""]:
            with pytest.raises(GroupError):
                parse_group(text)

    def test_element_round_trip(self):
        g = parse_group("Z^2 x Z_2 x Z_4")
        e = parse_element(g, "([3,-1];[1,2])")
        assert e.free == (3, -1) and e.torsion == (1, 2)
        assert e.literal() == "([3,-1];[1,2])"
        assert parse_element(g, e.literal()) == e

    def test_element_literal_empty_parts(self):
        g = parse_group("Z_2 x Z_2")
        assert parse_element(g, "([];[1,1])").torsion == (1, 1)
        g2 = parse_group("Z^2")
        assert parse_element(g2, "([5,7];[])").free == (5, 7)

    def test_bad_element_literals(self):
        g = parse_group("Z x Z_2")
        for text in ["([1];[1];[1])", "[1];[1]", "([x];[1])", "([1,2];[1])"]:
            with pytest.raises(GroupError):
                parse_element(g, text)

    @pytest.mark.parametrize("parse, text", [
        (parse_group, "Z_" + "9" * 5000),
        (parse_group, "Z^" + "9" * 5000),
        (parse_group, "x" * 100000),
        (parse_group, "Z_2 x " + "Q" * 100000),
        (parse_group, "Z_2 x Z" + " x Z" * 25000),
        (parse_group, "Z_1 x " * 20000 + "Z_1"),
        (lambda t: parse_element(parse_group("Z_2"), t), "a" * 100000),
        (lambda t: parse_element(parse_group("Z_2"), t), "([];[" + "x" * 100000 + "])"),
        (lambda t: parse_element(parse_group(t), "([];[1])"), " x ".join(["Z_2"] * 20000)),
    ], ids=["modulus-digits", "rank-digits", "empty-segment", "bad-segment",
            "free-after-torsion", "modulus-one", "bad-element", "bad-integer-list",
            "element-arity"])
    def test_long_literals_give_short_messages(self, parse, text):
        # a GroupError, not the ValueError of int() past its digit limit
        with pytest.raises(GroupError) as err:
            parse(text)
        assert len(str(err.value)) < 200

    def test_short_literals_keep_their_messages(self):
        g = parse_group("Z x Z_2")
        cases = [
            (parse_group, "Z_2 x ", "empty segment in group literal %r" % "Z_2 x "),
            (parse_group, "Z_2 & Z_2",
             "bad segment %r in group literal %r" % ("Z_2 & Z_2", "Z_2 & Z_2")),
            (parse_group, "Z_2 x Z", "free factors must precede torsion factors in %r"
             % "Z_2 x Z"),
            (parse_group, "Z_1", "torsion moduli must be >= 2, got %r" % ((1,),)),
            (g.parse_element, "[1];[1]", "bad element literal %r" % "[1];[1]"),
            (g.parse_element, "([x];[1])",
             "bad integer list in element literal %r" % "([x];[1])"),
            (g.parse_element, "([1,2];[1])",
             "element arity (2;1) does not match group %r" % "Z x Z_2"),
        ]
        for parse, text, message in cases:
            with pytest.raises(GroupError) as err:
                parse(text)
            assert str(err.value) == message


class TestArithmetic:
    def test_torsion_reduction(self):
        g = parse_group("Z_2 x Z_4")
        e = g.element((), (3, 7))
        assert e.torsion == (1, 3)
        assert (e + e).torsion == (0, 2)
        assert (-e).torsion == (1, 1)
        assert (3 * e).torsion == (1, 1)

    def test_orders(self):
        g = parse_group("Z x Z_2 x Z_4")
        assert g.element((0,), (1, 0)).order() == 2
        assert g.element((0,), (1, 1)).order() == 4
        assert g.element((0,), (0, 2)).order() == 2
        assert g.element((1,), (0, 0)).order() is None
        assert g.zero().order() == 1
        g6 = parse_group("Z_6")
        assert g6.element((), (4,)).order() == 3

    def test_hashable(self):
        g = parse_group("Z_2 x Z_2")
        seen = {g.element((), (1, 0)), g.element((), (1, 0))}
        assert len(seen) == 1

    def test_mismatched_groups(self):
        a = parse_group("Z_2").element((), (1,))
        b = parse_group("Z_4").element((), (1,))
        with pytest.raises(GroupError):
            a + b

    def test_enumerate_finite(self):
        g = parse_group("Z_2 x Z_4")
        elems = g.elements()
        assert len(elems) == 8
        assert len(set(elems)) == 8
        with pytest.raises(GroupError):
            parse_group("Z").elements()


class TestSubgroupInvariants:
    def test_free_cases(self):
        g = parse_group("Z^2")
        assert subgroup_invariants(g, [g.element((2, 0)), g.element((0, 3))]) == (2, ())
        assert subgroup_invariants(g, [g.element((2, 4))]) == (1, ())
        assert subgroup_invariants(g, []) == (0, ())

    def test_cyclic_subgroups(self):
        g = parse_group("Z_4")
        assert subgroup_invariants(g, [g.element((), (2,))]) == (0, (2,))
        assert subgroup_invariants(g, [g.element((), (1,))]) == (0, (4,))
        g2 = parse_group("Z_2 x Z_4")
        assert subgroup_invariants(g2, [g2.element((), (1, 2))]) == (0, (2,))
        assert subgroup_invariants(g2, [g2.element((), (1, 1))]) == (0, (4,))

    def test_mixed_free_torsion(self):
        g = parse_group("Z x Z_2")
        e = g.element((1,), (1,))
        assert subgroup_invariants(g, [e]) == (1, ())
        assert subgroup_invariants(g, [e, g.element((0,), (1,))]) == (1, (2,))

    def test_full_group_recovered(self):
        g = parse_group("Z^2 x Z_2 x Z_12")
        gens = [
            g.element((1, 0), (0, 0)),
            g.element((0, 1), (0, 0)),
            g.element((0, 0), (1, 0)),
            g.element((0, 0), (0, 1)),
        ]
        assert subgroup_invariants(g, gens) == (2, (2, 12))

    def test_seven_order_two_degrees_span_rank_four(self):
        # degrees of a 7-term anticommuting frame inside (Z_2)^4: the three
        # coordinate triple tensors and their pairwise/total products
        g = parse_group("Z_2 x Z_2 x Z_2 x Z_2")
        degs = [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (1, 1, 0, 1),
            (1, 0, 1, 1),
            (0, 1, 1, 1),
            (1, 1, 1, 0),
        ]
        elems = [g.element((), d) for d in degs]
        assert subgroup_invariants(g, elems) == (0, (2, 2, 2, 2))
        assert f2_rank(degs) == 4

    def test_matches_f2_oracle_on_random_samples(self):
        rng = random.Random(21)
        for n in (4, 6):
            g = GradingGroup(0, (2,) * n)
            for _ in range(40):
                degs = [
                    tuple(rng.randrange(2) for _ in range(n))
                    for _ in range(rng.randrange(1, 8))
                ]
                elems = [g.element((), d) for d in degs]
                rank, factors = subgroup_invariants(g, elems)
                assert rank == 0
                assert factors == (2,) * f2_rank(degs)

    def test_generator_order_and_redundancy_invariance(self):
        rng = random.Random(22)
        g = parse_group("Z x Z_2 x Z_4 x Z_3")
        for _ in range(30):
            gens = [
                g.element(
                    (rng.randrange(-3, 4),),
                    (rng.randrange(2), rng.randrange(4), rng.randrange(3)),
                )
                for _ in range(rng.randrange(1, 6))
            ]
            base = subgroup_invariants(g, gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert subgroup_invariants(g, shuffled) == base
            # duplicating a generator or appending a combination changes nothing
            extra = gens[0] + gens[-1]
            assert subgroup_invariants(g, gens + [gens[0], extra]) == base

    def test_divisibility_chain(self):
        rng = random.Random(23)
        g = parse_group("Z_2 x Z_4 x Z_8 x Z_3 x Z_9")
        for _ in range(25):
            gens = [
                g.element(
                    (),
                    tuple(rng.randrange(m) for m in g.moduli),
                )
                for _ in range(rng.randrange(1, 5))
            ]
            _, factors = subgroup_invariants(g, gens)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0


class TestCanonicalSignatures:
    def test_invariant_factors_of(self):
        assert invariant_factors_of((2, 4)) == (2, 4)
        assert invariant_factors_of((2, 3)) == (6,)
        assert invariant_factors_of((4, 6)) == (2, 12)
        assert invariant_factors_of((2, 2, 3)) == (2, 6)
        assert invariant_factors_of(()) == ()

    def test_group_signature(self):
        assert group_signature("Z_6 x Z_4") == (0, (2, 12))
        assert group_signature("Z^2 x Z_3 x Z_2") == (2, (6,))
        assert group_signature("Z_2 x Z_2 x Z_4") == (0, (2, 2, 4))
        # isomorphic presentations agree
        assert group_signature("Z_12") == group_signature("Z_3 x Z_4")
