import json
import random

import pytest

from finegrading.constructions import build_D21, build_quaternions
from finegrading.errors import AlgebraError
from finegrading.linalg import Mat, inverse, kernel, rank, solve, span_solver
from finegrading.scalars import HALF, ONE, ZERO, scalar
from finegrading.superalg import (
    LinMap,
    ModuleAction,
    SuperAlgebra,
    _closure,
    _commutator,
    _commutator_table,
    _generating_indices,
    _keyed_kernel,
    _respects_product,
    _unit,
    change_basis,
    check_homomorphism,
    check_lie_super,
    complete_superalgebra,
    derivation_superalgebra,
    derivations,
    dumps_algebra,
    ideal_generated_by,
    invariant_pairings,
    is_derivation,
    lie_closure,
    loads_algebra,
)


def flatten(m):
    """The entries of ``m`` row by row, as a tuple."""
    return tuple(x for r in m.rows for x in r)


def dense(vec, dim):
    """The dense tuple of a sparse vector {index: Scalar}."""
    return tuple(vec.get(k, ZERO) for k in range(dim))


def sl2():
    table = {
        (0, 1): [(1, 2)],
        (1, 0): [(1, -2)],
        (0, 2): [(2, -2)],
        (2, 0): [(2, 2)],
        (1, 2): [(0, 1)],
        (2, 1): [(0, -1)],
    }
    return SuperAlgebra(["h", "e", "f"], [0, 0, 0], table)


def standard_rep(g):
    # 2-dim module span(x, y): h.x = x, h.y = -y, e.y = x, f.x = y
    table = {
        (0, 0): [(0, 1)],
        (0, 1): [(1, -1)],
        (1, 1): [(0, 1)],
        (2, 0): [(1, 1)],
    }
    return ModuleAction(g, ["x", "y"], table)


def check_representation(action):
    """Oracle: [x, y].v = x.(y.v) - y.(x.v) on basis triples of a Lie algebra,
    read off ``g.table`` and ``action.table``; names the first failing pair."""
    g = action.algebra

    def act(i, vec):
        out = {}
        for j, c in vec.items():
            for k, d in action.table.get((i, j), ()):
                out[k] = out.get(k, ZERO) + c * d
        return {k: c for k, c in out.items() if not c.is_zero()}

    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for v in range(action.module_dim):
                lhs = {}
                for k, c in g.table.get((i, j), ()):
                    for m, d in act(k, {v: ONE}).items():
                        lhs[m] = lhs.get(m, ZERO) + c * d
                rhs = act(i, act(j, {v: ONE}))
                for m, d in act(j, act(i, {v: ONE})).items():
                    rhs[m] = rhs.get(m, ZERO) - d
                lhs = {m: c for m, c in lhs.items() if not c.is_zero()}
                rhs = {m: c for m, c in rhs.items() if not c.is_zero()}
                if lhs != rhs:
                    raise AlgebraError(
                        "action is not a representation at pair (%s, %s)"
                        % (g.names[i], g.names[j])
                    )


def gl2():
    # matrix units E11, E12, E21, E22 with the commutator bracket
    names = ["E11", "E12", "E21", "E22"]
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    table = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            terms = []
            if b == c:
                terms.append((idx[(a, d)], 1))
            if d == a:
                terms.append((idx[(c, b)], -1))
            if terms:
                table[(i, j)] = terms
    return SuperAlgebra(names, [0] * 4, table)


def osp12():
    g = sl2()
    act = standard_rep(g)
    osp = complete_superalgebra(g, act, invariant_pairings(g, act))[0]
    check_lie_super(osp)
    return osp


def reordered(A, order):
    """A with its basis listed in the given order of old indices."""
    pos = {old: new for new, old in enumerate(order)}
    table = {
        (pos[i], pos[j]): [(pos[k], c) for k, c in terms]
        for (i, j), terms in A.table.items()
    }
    return SuperAlgebra(
        [A.names[i] for i in order], [A.parity[i] for i in order], table
    )


class TestSuperAlgebraBasics:
    def test_multiply_and_element(self):
        g = sl2()
        e, f, h = g.basis_vec("e"), g.basis_vec("f"), g.basis_vec("h")
        assert g.multiply(e, f) == h
        assert g.multiply(h, e) == g.element({"e": 2})
        x = g.element({"e": 1, "f": -1})
        assert g.multiply(x, x) == g.zero()

    def test_parity_additivity_enforced(self):
        with pytest.raises(AlgebraError, match="parity"):
            SuperAlgebra(["u", "v"], [0, 1], {(0, 0): [(1, 1)]})

    def test_duplicate_names_rejected(self):
        with pytest.raises(AlgebraError):
            SuperAlgebra(["u", "u"], [0, 0], {})

    def test_module_table_sums_repeated_indices(self):
        g = sl2()
        act = ModuleAction(g, ["x", "y"], {(0, 0): [(0, 1), (0, 2)]})
        assert act.table == {(0, 0): ((0, scalar(3)),)}
        h, x = g.basis_vec("h"), (ONE, ZERO)
        assert act.act(h, x) == (scalar(3), ZERO)

    def test_ad_matrix(self):
        g = sl2()
        adh = g.ad_matrix(g.basis_vec("h"))
        assert adh.apply(g.basis_vec("e")) == g.element({"e": 2})


class TestAxiomCheckers:
    def test_sl2_is_lie(self):
        check_lie_super(sl2())

    def test_broken_jacobi_detected(self):
        table = {
            (0, 1): [(1, 2)],
            (1, 0): [(1, -2)],
            (0, 2): [(2, -2)],
            (2, 0): [(2, 2)],
            (1, 2): [(0, 1), (1, 1)],
            (2, 1): [(0, -1), (1, -1)],
        }
        bad = SuperAlgebra(["h", "e", "f"], [0, 0, 0], table)
        with pytest.raises(AlgebraError, match="Jacobi"):
            check_lie_super(bad)

    def test_broken_anticommutativity_detected(self):
        bad = SuperAlgebra(["u", "v"], [0, 0], {(0, 1): [(1, 1)]})
        with pytest.raises(AlgebraError, match=r"anticommutativity fails at \(u, v\)"):
            check_lie_super(bad)

    def test_broken_odd_jacobi_names_the_triple(self):
        # odd basis first, so the odd-odd-odd triples are checked first
        osp = reordered(osp12(), [3, 4, 0, 1, 2])
        assert osp.names[:2] == ("x", "y")
        check_lie_super(osp)
        table = dict(osp.table)
        for ij in ((0, 1), (1, 0)):
            table[ij] = [(k, scalar(2) * c) for k, c in table[ij]]
        bad = SuperAlgebra(osp.names, osp.parity, table)
        with pytest.raises(AlgebraError, match=r"super Jacobi fails at \(x, x, y\)"):
            check_lie_super(bad)

    def test_homomorphism_sl2_into_gl2(self):
        F = Mat.from_cols(
            [
                gl2().element({"E11": 1, "E22": -1}),
                gl2().basis_vec("E12"),
                gl2().basis_vec("E21"),
            ]
        )
        check_homomorphism(sl2(), gl2(), F)

    def test_homomorphism_failure_detected(self):
        F = Mat.from_cols(
            [
                gl2().element({"E11": 1, "E22": -1}),
                gl2().element({"E12": 2}),
                gl2().basis_vec("E21"),
            ]
        )
        with pytest.raises(AlgebraError, match="homomorphism"):
            check_homomorphism(sl2(), gl2(), F)

    def test_homomorphism_parity_failure_detected(self):
        osp = osp12()
        # h -> x is an even-to-odd entry
        F = Mat.from_cols(
            [osp.basis_vec("x")] + [osp.basis_vec(i) for i in range(1, 5)]
        )
        with pytest.raises(AlgebraError, match="does not preserve parity at h"):
            check_homomorphism(osp, osp, F)

    def test_representation_check(self):
        g = sl2()
        check_representation(standard_rep(g))
        bad = ModuleAction(
            g,
            ["x", "y"],
            {(0, 0): [(0, 1)], (0, 1): [(1, -1)], (1, 1): [(0, 1)], (2, 0): [(1, 2)]},
        )
        with pytest.raises(AlgebraError, match=r"representation at pair \(e, f\)"):
            check_representation(bad)


class TestDerivations:
    def test_sl2_derivations_are_inner(self):
        ders = derivations(sl2())
        assert len(ders) == 3
        g = sl2()
        for i in range(3):
            ad = g.ad_matrix(g.basis_vec(i))
            stacked = [list(d.rows) for d in ders]
            # ad(e_i) lies in the span of the computed derivations
            rows = [sum((list(r) for r in d.rows), []) for d in ders]
            rows.append(sum((list(r) for r in ad.rows), []))
            assert rank(Mat(rows)) == 3

    def test_abelian_algebra_has_gl_of_derivations(self):
        triv = SuperAlgebra(["u", "v"], [0, 0], {})
        assert len(derivations(triv)) == 4

    def test_is_derivation_agrees_with_the_kernel(self):
        osp = osp12()
        for parity in (0, 1):
            for D in derivations(osp, parity=parity):
                assert is_derivation(osp, D, parity=parity)
        D0 = derivations(osp, parity=0)[0]
        D1 = derivations(osp, parity=1)[0]
        assert not is_derivation(osp, D1, parity=0)
        assert not is_derivation(osp, D0 + Mat.identity(5))

    def test_derivation_superalgebra_of_osp12(self):
        g = sl2()
        act = standard_rep(g)
        osp, _ = complete_superalgebra(g, act, invariant_pairings(g, act))
        der, mats = derivation_superalgebra(osp)
        assert der.dim == 5
        assert der.parity == (0, 0, 0, 1, 1)
        check_lie_super(der)
        assert len(mats) == 5
        # every ordered pair, mirror entries and the odd diagonal included,
        # holds the coordinates of D_i D_j - (-1)^(|i||j|) D_j D_i
        span = Mat.from_cols([flatten(m) for m in mats])
        for i in range(5):
            for j in range(5):
                sign = -1 if der.parity[i] and der.parity[j] else 1
                comm = mats[i] * mats[j] - (mats[j] * mats[i]).scale(sign)
                coords = solve(span, flatten(comm))
                assert coords is not None
                want = tuple((k, c) for k, c in enumerate(coords) if not c.is_zero())
                assert der.table.get((i, j), ()) == want
        assert der.table.get((3, 3)) and der.table.get((4, 4))

    def test_commutator_outside_the_span_names_the_pair(self):
        mats = [Mat([[1, 0], [0, 0]]), Mat([[0, 1], [0, 0]])]
        with pytest.raises(AlgebraError, match="matrices 0 and 1 leaves the span"):
            _commutator_table(mats, [0, 0], lambda m: None)


class TestClosure:
    def test_lie_generates(self):
        g = sl2()
        assert len(lie_closure(g, [g.basis_vec("e"), g.basis_vec("f")])) == g.dim
        assert len(lie_closure(g, [g.basis_vec("e")])) != g.dim
        assert len(lie_closure(g, [g.basis_vec("e")])) == 1

    def test_ideal_in_direct_sum(self):
        g = sl2()
        names = ["h1", "e1", "f1", "h2", "e2", "f2"]
        table = {}
        for (i, j), terms in g.table.items():
            table[(i, j)] = list(terms)
            table[(i + 3, j + 3)] = [(k + 3, c) for k, c in terms]
        gg = SuperAlgebra(names, [0] * 6, table)
        check_lie_super(gg)
        ideal = ideal_generated_by(gg, [gg.basis_vec("e1")])
        assert len(ideal) == 3
        full = ideal_generated_by(gg, [gg.element({"e1": 1, "e2": 1})])
        assert len(full) == 6


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.basis_vec(3),
        lambda g: g.basis_vec(-1),
        lambda g: g.element({-1: 1}),
        lambda g: g.element({3: 1}),
        lambda g: g.index(17),
    ],
    ids=["basis_vec_dim", "basis_vec_negative", "element_negative", "element_dim",
         "index_past_end"],
)
def test_out_of_range_index_rejected(call):
    g = sl2()
    with pytest.raises(AlgebraError, match="out of range for dimension 3"):
        call(g)
    assert g.basis_vec(2) == (ZERO, ZERO, ONE)


class TestPairingsAndCompletion:
    def test_invariant_pairing_space_is_a_line(self):
        g = sl2()
        pairings = invariant_pairings(g, standard_rep(g))
        assert len(pairings) == 1

    def test_degrees_give_same_answer(self):
        g = sl2()
        act = standard_rep(g)
        # ad h weights of h, e, f, then the weights of x, y
        graded = invariant_pairings(g, act, degrees=[0, 2, -2, 1, -1])
        assert len(graded) == 1
        brute = invariant_pairings(g, act)
        # same line: the same basis pairs carry the same values
        b1, b2 = graded[0], brute[0]
        assert b1 == b2

    def test_bad_degrees_rejected(self):
        g = sl2()
        act = standard_rep(g)
        with pytest.raises(AlgebraError, match=r"additive on g0 at \(e, f\)"):
            invariant_pairings(g, act, degrees=[0, 2, 2, 1, -1])
        with pytest.raises(AlgebraError, match=r"additive on the action at \(e, y\)"):
            invariant_pairings(g, act, degrees=[0, 2, -2, 1, 1])
        with pytest.raises(AlgebraError, match="4 entries, expected 3"):
            invariant_pairings(g, act, degrees=[0, 2, -2, 1])

    def test_degrees_checked_on_every_term_of_an_entry(self):
        # e_a e_b = e_b + e_c and e_a . u = u + v: the first term of each
        # entry is additive, the second is not
        g = SuperAlgebra(["a", "b", "c"], [0, 0, 0], {(0, 1): [(1, 1), (2, 1)]})
        act = ModuleAction(g, ["u", "v"], {(0, 0): [(0, 1), (1, 1)]})
        with pytest.raises(AlgebraError) as err:
            invariant_pairings(g, act, degrees=[0, 1, 2, 1, 1])
        assert str(err.value) == (
            "degrees are not additive on g0 at (a, b): the product hits c"
        )
        with pytest.raises(AlgebraError) as err:
            invariant_pairings(g, act, degrees=[0, 1, 1, 1, 5])
        assert str(err.value) == (
            "degrees are not additive on the action at (a, u): it hits v"
        )

    def test_complete_to_osp12(self):
        g = sl2()
        act = standard_rep(g)
        pairings = invariant_pairings(g, act)
        osp, coeffs = complete_superalgebra(g, act, pairings)
        check_lie_super(osp)
        assert osp.dim == 5
        assert coeffs == (ONE,)
        assert osp.parity == (0, 0, 0, 1, 1)
        # [x, x] is a nonzero multiple of e, [x, y] a multiple of h
        x, y = osp.basis_vec("x"), osp.basis_vec("y")
        xx = osp.multiply(x, x)
        assert not xx[osp.index("e")].is_zero()
        assert xx[osp.index("f")].is_zero() and xx[osp.index("h")].is_zero()
        xy = osp.multiply(x, y)
        assert not xy[osp.index("h")].is_zero()
        # odd generators generate everything
        assert len(lie_closure(osp, [x, y])) == osp.dim

    def test_osp12_derivation_dimensions(self):
        g = sl2()
        act = standard_rep(g)
        osp, _ = complete_superalgebra(g, act, invariant_pairings(g, act))
        check_lie_super(osp)
        assert len(derivations(osp, parity=0)) == 3
        assert len(derivations(osp, parity=1)) == 2

    def test_two_dimensional_jacobi_solution_space_rejected(self):
        # the same pairing twice: every combination solves the Jacobi
        # identity, so the bracket is not unique up to scale
        g = sl2()
        act = standard_rep(g)
        pairings = invariant_pairings(g, act) * 2
        with pytest.raises(AlgebraError, match="Jacobi solution space has dimension 2"):
            complete_superalgebra(g, act, pairings)

    def test_no_candidate_pairings_rejected(self):
        g = sl2()
        with pytest.raises(AlgebraError, match="no candidate pairings supplied"):
            complete_superalgebra(g, standard_rep(g), [])

    def test_odd_g0_rejected_before_the_jacobi_solve(self):
        # an odd g0 vector with a two-dimensional pairing span: the parity
        # error comes first, not the dimension of the Jacobi solutions
        g = SuperAlgebra(["z"], [1], {})
        act = ModuleAction(g, ["x"], {})
        pairings = [{(0, 0): (ONE,)}] * 2
        with pytest.raises(AlgebraError, match="g0 must be purely even"):
            complete_superalgebra(g, act, pairings)


def dense_kernel(unknowns, equations):
    """Oracle for _keyed_kernel: one dense row per (equation, output), in
    the column order of ``unknowns``, solved by linalg.kernel."""
    col = {u: c for c, u in enumerate(unknowns)}
    rows = []
    for terms in equations:
        by_output = {}
        for out, u, c in terms:
            row = by_output.setdefault(out, [ZERO] * len(unknowns))
            row[col[u]] = row[col[u]] + scalar(c)
        rows.extend(by_output.values())
    return [
        {unknowns[j]: c for j, c in enumerate(v) if not c.is_zero()}
        for v in kernel(Mat(rows, ncols=len(unknowns)))
    ]


class TestKeyedKernel:
    def test_idle_unknown_and_cancelling_term(self):
        unknowns = ["x", "y", "idle", "z", "w"]
        equations = [
            # x enters output "a" twice and cancels there
            [("a", "x", 1), ("a", "y", 2), ("b", "z", 1), ("a", "x", -1), ("b", "w", -3),
             ("a", "w", -2)],
            [("a", "y", 1), ("a", "w", -1)],
        ]
        equations = [[(out, u, scalar(c)) for out, u, c in eq] for eq in equations]
        ker = _keyed_kernel(unknowns, (iter(eq) for eq in equations))
        assert ker == dense_kernel(unknowns, equations)
        # x and idle are free and appear in no surviving row; w is the third
        # free column, with y = w and z = 3w
        assert ker == [{"x": ONE}, {"idle": ONE}, {"y": ONE, "z": scalar(3), "w": ONE}]

    def test_matches_the_dense_kernel_on_random_systems(self):
        rng = random.Random(12)
        for _ in range(40):
            unknowns = [(rng.randrange(5), t) for t in range(rng.randrange(1, 9))]
            equations = [
                [
                    (rng.randrange(3), rng.choice(unknowns), scalar(rng.randrange(-2, 3)))
                    for _ in range(rng.randrange(6))
                ]
                for _ in range(rng.randrange(5))
            ]
            assert _keyed_kernel(unknowns, equations) == dense_kernel(unknowns, equations)

    def test_unit_of_permuted_quaternions(self):
        Q = build_quaternions().algebra
        # new basis q1, q2, 2*1, q3: the unit is (1/2) b2, not b0
        P = Mat.from_cols(
            [Q.basis_vec("q1"), Q.basis_vec("q2"), Q.element({"1": 2}), Q.basis_vec("q3")]
        )
        A = change_basis(Q, P)
        assert dense(_unit(A), 4) == (ZERO, ZERO, HALF, ZERO)
        assert dense(_unit(Q), 4) == Q.basis_vec("1")

    def test_no_unit(self):
        assert _unit(sl2()) is None
        # e is a left identity only: e x = x, but f e = 0
        left = SuperAlgebra(["e", "f"], [0, 0], {(0, 0): [(0, 1)], (0, 1): [(1, 1)]})
        assert _unit(left) is None


class TestBasisAndSerialization:
    def test_change_basis_preserves_lie(self):
        g = sl2()
        P = Mat.from_cols(
            [g.basis_vec("h"), g.element({"e": 1, "f": 1}), g.element({"e": 1, "f": -1})]
        )
        g2 = change_basis(g, P, names=["H", "S", "T"])
        check_lie_super(g2)
        # structure transported: [S, T] = [e+f, e-f] = -2h = -2H
        s, t = g2.basis_vec("S"), g2.basis_vec("T")
        assert g2.multiply(s, t) == g2.element({"H": -2})

    def test_change_basis_matches_dense_transport(self):
        osp = osp12()
        # parity homogeneous, not diagonal: mixes h, e, f and x, y
        P = Mat(
            [
                [1, 1, 0, 0, 0],
                [0, 1, 2, 0, 0],
                [1, 0, 1, 0, 0],
                [0, 0, 0, 1, 1],
                [0, 0, 0, -1, 2],
            ]
        )
        new = change_basis(osp, P)
        Pinv = inverse(P)
        want = {}
        for i in range(5):
            for j in range(5):
                prod = Pinv.apply(osp.multiply(P.col(i), P.col(j)))
                entry = tuple((k, c) for k, c in enumerate(prod) if not c.is_zero())
                if entry:
                    want[(i, j)] = entry
        assert new.table == want
        assert new.parity == (0, 0, 0, 1, 1)
        check_lie_super(new)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("{", "not valid JSON"),
            ("[]", "key 'names'"),
            ('{"names": ["h"], "parity": [0]}', "key 'table'"),
            ('{"names": ["h"], "parity": ["x"], "table": {}}', "key 'parity'"),
            ('{"names": ["h"], "parity": [0], "table": {"0;0": [[0, "1"]]}}', "key '0;0'"),
            ('{"names": ["h"], "parity": [0], "table": {"0,0": 7}}', "key '0,0'"),
            ('{"names": ["h"], "parity": [0], "table": {"0,0": [[0]]}}', "key '0,0'"),
            ('{"names": ["h"], "parity": [0], "table": {"0,0": [[3, "1"]]}}', "key '0,0'"),
            ('{"names": ["h"], "parity": [0], "table": {"0,0": [[0, 1]]}}', "key '0,0'"),
            ('{"names": ["h"], "parity": [0], "table": {"0,0": [[0, "a^99"]]}}', "key '0,0'"),
        ],
        ids=["json", "not-object", "no-table", "parity", "key", "terms", "term",
             "index", "scalar-type", "scalar-text"],
    )
    def test_malformed_text_raises_algebra_error(self, text, where):
        with pytest.raises(AlgebraError, match=where):
            loads_algebra(text)

    def test_serialization_round_trip(self):
        g = sl2()
        act = standard_rep(g)
        osp, _ = complete_superalgebra(g, act, invariant_pairings(g, act))
        clone = loads_algebra(dumps_algebra(osp))
        assert clone.names == osp.names
        assert clone.parity == osp.parity
        assert clone.table == osp.table
        check_lie_super(clone)


# ---------------------------------------------------------------------------
# the check that a map from a span to matrices respects the bracket
# ---------------------------------------------------------------------------


def quaternion_bracket_check(span, images):
    """_respects_product on the bracket x y - y x of the split quaternions,
    whose basis 1, q1, q2, q3 maps to the matrices of build_quaternions."""
    Q = build_quaternions().algebra
    units = [{i: ONE} for i in range(Q.dim)]
    bracket = {
        (i, j): list(_commutator(Q.table, x, y).items())
        for i, x in enumerate(units)
        for j, y in enumerate(units)
    }
    span = [{i: c for i, c in enumerate(v) if c.num} for v in span]
    return _respects_product(bracket, span, images, span_solver(span, Q.dim))


Q1 = Mat([[1, 0], [0, -1]])
Q2 = Mat([[0, 1], [1, 0]])
Q3 = Mat([[0, 1], [-1, 0]])


def test_respects_product_finds_a_span_that_is_not_closed():
    # [q1, q2] = 2 q3 leaves the span of q1 and q2
    Q = build_quaternions().algebra
    span = [Q.basis_vec(1), Q.basis_vec(2)]
    assert quaternion_bracket_check(span, [Q1, Q2]) == (0, 1, False)


def test_respects_product_finds_a_wrong_image():
    Q = build_quaternions().algebra
    span = [Q.basis_vec(1), Q.basis_vec(2), Q.basis_vec(3)]
    assert quaternion_bracket_check(span, [Q1, Q2, Q3]) is None
    # [q1, q2] = 2 q3 maps to 4 Q3, but [2 Q1, 2 Q2] = 8 Q3
    doubled = [m.scale(2) for m in (Q1, Q2, Q3)]
    assert quaternion_bracket_check(span, doubled) == (0, 1, True)


def test_order_of_a_signed_cycle_and_past_its_bound():
    # e_0 -> e_1 -> e_2 -> -e_0 on an abelian algebra: order 6, read off the
    # sparse columns of its powers
    A = SuperAlgebra(["u", "v", "w"], [0, 0, 0], {})
    f = LinMap(A, A, Mat([[0, 0, -1], [1, 0, 0], [0, 1, 0]]))
    assert f.order(bound=6) == 6
    assert LinMap(A, A, Mat.identity(3)).order(bound=1) == 1
    with pytest.raises(AlgebraError, match="order exceeds bound 5"):
        f.order(bound=5)
    with pytest.raises(AlgebraError, match="endomorphism"):
        LinMap(A, SuperAlgebra(["x", "y", "z"], [0, 0, 0], {}), Mat.identity(3)).order()


def jacobi_expression(A, i, j, k):
    """Oracle: the sparse sum over the cyclic (a, b, c) of (i, j, k) of
    (-1)^(|a||c|) [e_a, [e_b, e_c]], formed with dense products."""
    e = A.basis_vec
    total = A.zero()
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        term = A.multiply(e(a), A.multiply(e(b), e(c)))
        sign = -1 if A.parity[a] & A.parity[c] else 1
        total = tuple(x + sign * y for x, y in zip(total, term))
    return {t: x for t, x in enumerate(total) if x.num}


def test_jacobi_violation_planted_away_from_the_generators_is_detected():
    # in D(2,1;2) the generating set is odd; doubling [H1, F1] keeps
    # anticommutativity and breaks Jacobi at the even triple (E1, H1, F1),
    # which meets no generator
    A = build_D21(scalar(2)).algebra
    check_lie_super(A)
    e1, h1, f1 = (A.index(n) for n in ("E1", "H1", "F1"))
    table = dict(A.table)
    for ij in ((h1, f1), (f1, h1)):
        table[ij] = [(k, scalar(2) * c) for k, c in table[ij]]
    bad = SuperAlgebra(A.names, A.parity, table)
    gens = _generating_indices(bad)
    assert not {e1, h1, f1} & set(gens)
    assert jacobi_expression(bad, e1, h1, f1)
    with pytest.raises(AlgebraError, match="super Jacobi fails"):
        check_lie_super(bad)


def random_table(rng, parity):
    """A product table with random integer coefficients that respects the
    parities and satisfies no identity."""
    n = len(parity)
    table = {}
    for i in range(n):
        for j in range(n):
            want = (parity[i] + parity[j]) % 2
            table[(i, j)] = [
                (k, rng.randint(-2, 2)) for k in range(n)
                if parity[k] == want and rng.random() < 0.2
            ]
    return table


@pytest.mark.parametrize("seed", range(8))
def test_generating_indices_of_a_non_lie_table_span_by_full_closure(seed):
    rng = random.Random(seed)
    parity = [rng.randint(0, 1) for _ in range(rng.randint(2, 7))]
    A = SuperAlgebra(["e%d" % i for i in range(len(parity))], parity, random_table(rng, parity))
    gens = _generating_indices(A)
    odd = [g for g in gens if A.parity[g]]
    assert gens == odd + sorted(set(gens) - set(odd)) and odd == sorted(odd)
    assert len(_closure(A, [{g: ONE} for g in gens])) == A.dim


@pytest.mark.parametrize("table,what", [
    ({"0," + "1" * 10 ** 6: [[0, "1"]]}, "key '0,111"),
    ({"x" * 10 ** 6: [[0, "1"]]}, "key 'xxx"),
    ({"0,0": [[0, "1 " + "2" * 10 ** 6]]}, "trailing input '222"),
    ({"0,0": [[5, "2" * 10 ** 6]]}, r"term \[5, '222"),
], ids=["long-key", "bad-key", "scalar-text", "term"])
def test_megabyte_table_text_is_quoted_short(table, what):
    text = json.dumps({"names": ["h"], "parity": [0], "table": table})
    with pytest.raises(AlgebraError, match=what) as err:
        loads_algebra(text)
    assert len(str(err.value)) < 400


def test_long_basis_names_are_quoted_short():
    name = "x" * 100000
    cut = r"'%s\.\.\." % ("x" * 39)
    # the square of the even basis vector lands in the odd one
    text = json.dumps({"names": [name, "v"], "parity": [0, 1], "table": {"0,0": [[1, "1"]]}})
    with pytest.raises(
        AlgebraError, match=r"^product %s \* %s hits 'v': parity 1, expected 0$" % (cut, cut)
    ) as err:
        loads_algebra(text)
    assert len(str(err.value)) < 400
    with pytest.raises(AlgebraError, match="^no basis element named %s$" % cut) as err:
        build_quaternions().algebra.index(name)
    assert len(str(err.value)) < 400


def test_deeply_nested_table_scalar_raises_algebra_error():
    scalar_text = "(" * 400 + "1" + ")" * 400
    text = '{"names": ["h"], "parity": [0], "table": {"0,0": [[0, "%s"]]}}' % scalar_text
    with pytest.raises(AlgebraError, match=r"key '0,0': parenthesis nesting 65 exceeds 64"):
        loads_algebra(text)
