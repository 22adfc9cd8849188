"""Quadratic-space normalization, even Clifford algebras and their
graded-division classes.

The division class of each configuration below was worked out by hand from
the normal form before the classifiers were run (matrix-algebra peeling for
the hyperbolic pairs, quaternion factors for anticommuting unit pairs) and
frozen here; the two independent routes -- idempotent refinement inside the
algebra and the degree-pattern case table -- must both reproduce it.
"""

from fractions import Fraction

import pytest

from finegrading import clifford
from finegrading.abgroup import GradingGroup
from finegrading.clifford import (
    GradedQuadraticSpace,
    build_even_clifford,
    clifford_algebra,
    dim7_case_classify,
    division_class,
    normalize_quadratic_basis,
    scalar_sqrt,
    verify_octonion_clifford_model,
    verify_quaternion_clifford_model,
)
from finegrading.constructions import (
    _W_TRIPLES,
    BuiltAlgebra,
    _cube_phi,
    build_cayley,
    build_quaternions,
)
from finegrading.errors import CliffordError
from finegrading.linalg import Mat
from finegrading.scalars import ALPHA, HALF, IUNIT, OMEGA, ONE, ZERO, scalar
from finegrading.superalg import SuperAlgebra


def dense(vec, dim):
    """The dense tuple of a sparse vector {index: Scalar}."""
    return tuple(vec.get(k, ZERO) for k in range(dim))


def vec_scale(c, u):
    """The dense vector c * u."""
    return tuple(c * a for a in u)

# ---------------------------------------------------------------------------
# the ten reference configurations
#
# (label, free_rank, moduli, degree coordinates, expected class, case)
# Degree coordinates are (free part, torsion part) per basis vector.
# ---------------------------------------------------------------------------

CONFIGS = (
    (
        "three-pairs-Z3",
        3,
        (),
        [
            ((1, 0, 0), ()),
            ((-1, 0, 0), ()),
            ((0, 1, 0), ()),
            ((0, -1, 0), ()),
            ((0, 0, 1), ()),
            ((0, 0, -1), ()),
            ((0, 0, 0), ()),
        ],
        "F",
        "m=3",
    ),
    (
        "two-pairs-Z2xZ22",
        2,
        (2, 2),
        [
            ((1, 0), (0, 0)),
            ((-1, 0), (0, 0)),
            ((0, 1), (0, 0)),
            ((0, -1), (0, 0)),
            ((0, 0), (1, 0)),
            ((0, 0), (0, 1)),
            ((0, 0), (1, 1)),
        ],
        "Q",
        "m=2",
    ),
    (
        "one-pair-ZxZ23",
        1,
        (2, 2, 2),
        [
            ((1,), (0, 0, 0)),
            ((-1,), (0, 0, 0)),
            ((0,), (1, 0, 0)),
            ((0,), (0, 1, 0)),
            ((0,), (0, 0, 1)),
            ((0,), (1, 1, 1)),
            ((0,), (0, 0, 0)),
        ],
        "Q",
        "m=1 r=3",
    ),
    (
        "one-pair-ZxZ24",
        1,
        (2, 2, 2, 2),
        [
            ((1,), (0, 0, 0, 0)),
            ((-1,), (0, 0, 0, 0)),
            ((0,), (1, 0, 0, 0)),
            ((0,), (0, 1, 0, 0)),
            ((0,), (0, 0, 1, 0)),
            ((0,), (0, 0, 0, 1)),
            ((0,), (1, 1, 1, 1)),
        ],
        "QQ",
        "m=1 r=4",
    ),
    (
        "units-Z26",
        0,
        (2,) * 6,
        [
            ((), (1, 0, 0, 0, 0, 0)),
            ((), (0, 1, 0, 0, 0, 0)),
            ((), (0, 0, 1, 0, 0, 0)),
            ((), (0, 0, 0, 1, 0, 0)),
            ((), (0, 0, 0, 0, 1, 0)),
            ((), (0, 0, 0, 0, 0, 1)),
            ((), (1, 1, 1, 1, 1, 1)),
        ],
        "QQQ",
        "m=0 r=6",
    ),
    (
        "units-Z25-full-sum",
        0,
        (2,) * 5,
        [
            ((), (1, 0, 0, 0, 0)),
            ((), (0, 1, 0, 0, 0)),
            ((), (0, 0, 1, 0, 0)),
            ((), (0, 0, 0, 1, 0)),
            ((), (0, 0, 0, 0, 1)),
            ((), (1, 1, 1, 1, 1)),
            ((), (0, 0, 0, 0, 0)),
        ],
        "QQ",
        "m=0 r=5 (i)",
    ),
    (
        "units-Z25-split-sum",
        0,
        (2,) * 5,
        [
            ((), (1, 0, 0, 0, 0)),
            ((), (0, 1, 0, 0, 0)),
            ((), (0, 0, 1, 0, 0)),
            ((), (0, 0, 0, 1, 0)),
            ((), (0, 0, 0, 0, 1)),
            ((), (1, 1, 0, 0, 0)),
            ((), (0, 0, 1, 1, 1)),
        ],
        "QQ",
        "m=0 r=5 (ii)",
    ),
    (
        "units-Z24-two-sums",
        0,
        (2,) * 4,
        [
            ((), (1, 0, 0, 0)),
            ((), (0, 1, 0, 0)),
            ((), (0, 0, 1, 0)),
            ((), (0, 0, 0, 1)),
            ((), (1, 1, 0, 0)),
            ((), (0, 0, 1, 1)),
            ((), (0, 0, 0, 0)),
        ],
        "QQ",
        "m=0 r=4 (i)",
    ),
    (
        "units-Z24-star",
        0,
        (2,) * 4,
        [
            ((), (1, 0, 0, 0)),
            ((), (0, 1, 0, 0)),
            ((), (0, 0, 1, 0)),
            ((), (0, 0, 0, 1)),
            ((), (1, 1, 0, 0)),
            ((), (1, 0, 1, 0)),
            ((), (1, 0, 0, 1)),
        ],
        "Q",
        "m=0 r=4 (ii)",
    ),
    (
        "units-Z23-fano",
        0,
        (2, 2, 2),
        [
            ((), (1, 0, 0)),
            ((), (0, 1, 0)),
            ((), (0, 0, 1)),
            ((), (1, 1, 0)),
            ((), (1, 0, 1)),
            ((), (0, 1, 1)),
            ((), (1, 1, 1)),
        ],
        "F",
        "m=0 r=3",
    ),
)


def space_of(cfg):
    _, free_rank, moduli, coords, _, _ = cfg
    G = GradingGroup(free_rank, moduli)
    return normalize_quadratic_basis(
        G, [G.element(f, t) for f, t in coords]
    )


# ---------------------------------------------------------------------------
# scalar square roots
# ---------------------------------------------------------------------------


def test_scalar_sqrt_values():
    assert scalar_sqrt(scalar(Fraction(9, 4))) == scalar(Fraction(3, 2))
    assert scalar_sqrt(scalar(-4)) == scalar(2) * IUNIT
    assert scalar_sqrt(scalar(-1)) == IUNIT
    assert scalar_sqrt(ZERO) == ZERO
    assert scalar_sqrt(scalar(16)) == scalar(4)
    r = scalar_sqrt(scalar(Fraction(-1, 4)))
    assert r * r == scalar(Fraction(-1, 4))


def test_scalar_sqrt_rejects():
    for bad in (scalar(2), scalar(-3), ALPHA, OMEGA, ALPHA + scalar(1)):
        with pytest.raises(CliffordError):
            scalar_sqrt(bad)


# ---------------------------------------------------------------------------
# the full Clifford algebra
# ---------------------------------------------------------------------------


def test_clifford_rank_one():
    alg, words = clifford_algebra(("x",), [[2]])
    assert alg.dim == 2 and words == ((), (0,))
    # x^2 = 1
    assert alg.product_basis(1, 1) == ((0, ONE),)
    assert alg.parity == (0, 1)


def test_clifford_hyperbolic_pair():
    alg, words = clifford_algebra(("u", "v"), [[0, 1], [1, 0]])
    assert alg.dim == 4
    u, v = alg.basis_vec(1), alg.basis_vec(2)
    assert alg.multiply(u, u) == alg.zero()
    uv = alg.multiply(u, v)
    vu = alg.multiply(v, u)
    # u v + v u = 1
    assert tuple(a + b for a, b in zip(uv, vu)) == alg.basis_vec(0)
    br = tuple(a - b for a, b in zip(uv, vu))
    assert alg.multiply(br, br) == alg.basis_vec(0)  # [u,v]^2 = 1


def test_clifford_orthogonal_relations():
    alg, words = clifford_algebra(("a", "b", "c"), [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert alg.dim == 8
    for i in range(3):
        for j in range(3):
            x, y = alg.basis_vec(1 + i), alg.basis_vec(1 + j)
            anti = tuple(
                p + q for p, q in zip(alg.multiply(x, y), alg.multiply(y, x))
            )
            want = alg.basis_vec(0) if i == j else alg.zero()
            assert anti == tuple(c + c for c in want)
    # the volume element squares to -1 here
    vol = alg.basis_vec(alg.dim - 1)
    assert alg.multiply(vol, vol) == tuple(-c for c in alg.basis_vec(0))


def test_clifford_table_converts_each_coefficient_once(monkeypatch):
    converted = []

    def counting(x):
        # the Gram entries below are ints; the table coefficients are Fractions
        if isinstance(x, Fraction):
            converted.append(x)
        return scalar(x)

    monkeypatch.setattr(clifford, "scalar", counting)
    polar = [[2, 1, 0, 0], [1, -4, 0, 3], [0, 0, 6, 0], [0, 3, 0, 1]]
    alg, words = clifford_algebra(tuple("abcd"), polar)
    coeffs = {c for entry in alg.table.values() for _, c in entry}
    assert len(converted) == len(set(converted)) == len(coeffs) > 2
    # x_d x_b = -x_b x_d + B_bd, and x_d^2 = B_dd / 2
    assert dict(alg.table[(4, 2)]) == {words.index((1, 3)): -ONE, 0: scalar(3)}
    assert dict(alg.table[(4, 4)]) == {0: HALF}


def test_clifford_rejects():
    with pytest.raises(CliffordError):
        clifford_algebra(tuple("abcdefgh"), [[0] * 8] * 8)
    with pytest.raises(CliffordError):
        clifford_algebra(("x", "y"), [[2, 1], [0, 2]])  # not symmetric
    with pytest.raises(CliffordError):
        clifford_algebra(("x",), [[ALPHA]])  # not rational


# ---------------------------------------------------------------------------
# graded quadratic spaces
# ---------------------------------------------------------------------------


def z2n(k):
    return GradingGroup(0, (2,) * k)


def test_space_validation():
    G = z2n(2)
    e = lambda *t: G.element((), t)
    with pytest.raises(CliffordError):  # even anisotropic part
        GradedQuadraticSpace(G, (), (e(1, 0), e(1, 0)))
    with pytest.raises(CliffordError):  # duplicates
        GradedQuadraticSpace(G, (), (e(1, 0), e(1, 0), e(0, 0)))
    with pytest.raises(CliffordError):  # nonzero sum
        GradedQuadraticSpace(G, (), (e(1, 0), e(0, 1), e(0, 0)))
    Z = GradingGroup(1, ())
    with pytest.raises(CliffordError):  # not 2-torsion
        GradedQuadraticSpace(Z, (), (Z.element((1,), ()),))


def test_space_layout():
    G = GradingGroup(1, (2, 2))
    g = G.element((1,), (0, 0))
    h1, h2, h3 = (
        G.element((0,), (1, 0)),
        G.element((0,), (0, 1)),
        G.element((0,), (1, 1)),
    )
    sp = GradedQuadraticSpace(G, (g,), (h1, h2, h3))
    assert sp.m == 1 and sp.l == 1 and sp.dim == 5
    assert sp.degrees == (g, -g, h1, h2, h3)
    gram = sp.gram()
    assert gram[(0, 1)] == ONE and gram[(1, 0)] == ONE
    assert gram[(2, 2)] == scalar(2) and gram[(4, 4)] == scalar(2)
    assert gram[(0, 0)].is_zero() and gram[(0, 2)].is_zero()
    assert sp.names == ("u1", "v1", "w1", "w2", "w3")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_pairs_by_duality():
    Z = GradingGroup(1, ())
    el = lambda k: Z.element((k,), ())
    sp = normalize_quadratic_basis(Z, [el(2), el(1), el(-1), el(-2), el(0)])
    assert sp.m == 2 and sp.l == 0
    assert [g.free[0] for g in sp.pair_degrees] == [2, 1]
    assert sp.unit_degrees[0].is_zero()
    assert sp.shift.is_zero()


def test_normalize_unpaired_raises():
    Z = GradingGroup(1, ())
    el = lambda k: Z.element((k,), ())
    with pytest.raises(CliffordError):
        normalize_quadratic_basis(Z, [el(1), el(1), el(0)])


def test_normalize_merge_and_shift():
    G = z2n(2)
    e = lambda *t: G.element((), t)
    sp = normalize_quadratic_basis(
        G, [e(1, 0), e(1, 0), e(0, 1), e(1, 1), e(0, 0)]
    )
    # the two equal degrees merge into a pair; the shift (1,0) restores
    # a zero sum for the remaining three anisotropic degrees
    assert sp.m == 1 and sp.l == 1
    assert sp.shift == e(1, 0)
    assert sp.pair_degrees == (e(0, 0),)
    assert sp.unit_degrees == (e(1, 1), e(0, 1), e(1, 0))
    built = build_even_clifford(sp)
    assert built.dim == 16
    assert division_class(built) == "Q"


def test_normalize_rescales_lengths():
    G = z2n(1)
    e = lambda t: G.element((), (t,))
    gram = [[scalar(8), 0, 0], [0, scalar(-2), 0], [0, 0, 2]]
    sp = normalize_quadratic_basis(G, [e(1), e(1), e(0)], gram)
    assert sp.m == 1 and sp.l == 0
    assert any("rescaled" in line for line in sp.trace)
    built = build_even_clifford(sp)
    assert division_class(built) == "F"


def test_normalize_isotropic_diagonal():
    G = z2n(1)
    e = lambda t: G.element((), (t,))
    gram = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    sp = normalize_quadratic_basis(G, [e(1), e(1), e(0)], gram)
    assert sp.m == 1 and sp.l == 0


def test_normalize_rejects():
    Z = GradingGroup(1, ())
    el = lambda k: Z.element((k,), ())
    G = z2n(1)
    e = lambda t: G.element((), (t,))
    with pytest.raises(CliffordError):  # even dimension
        normalize_quadratic_basis(G, [e(0), e(1)])
    with pytest.raises(CliffordError):  # gram pairs incompatible degrees
        normalize_quadratic_basis(
            Z, [el(1), el(0), el(0)], [[0, 1, 0], [1, 2, 0], [0, 0, 2]]
        )
    with pytest.raises(CliffordError):  # degenerate
        normalize_quadratic_basis(
            G, [e(0), e(1), e(1)], [[2, 0, 0], [0, 0, 0], [0, 0, 2]]
        )


def test_normalize_rejects_dimension_over_seven_up_front():
    # nine degree-0 lines: odd, compatible and nondegenerate, so only the
    # dimension bound of clifford_algebra stops them
    G = z2n(1)
    with pytest.raises(CliffordError, match="dimension 9 quadratic space is out of scope"):
        normalize_quadratic_basis(G, [G.element((), (0,))] * 9)


def test_normalize_fixes_normal_input():
    sp = space_of(CONFIGS[4])  # Z_2^6 units, already normal
    assert sp.m == 0 and sp.l == 3
    assert sp.shift.is_zero()
    assert sp.basis == Mat.identity(7)


# ---------------------------------------------------------------------------
# the even Clifford algebra
# ---------------------------------------------------------------------------


def test_even_clifford_quaternion_pattern():
    # three anisotropic units with degrees a, b, a+b: the even algebra is
    # spanned by 1, w1w2, w1w3, w2w3 with (w1w2)^2 = -1 -- quaternions
    G = z2n(2)
    e = lambda *t: G.element((), t)
    sp = normalize_quadratic_basis(G, [e(1, 0), e(0, 1), e(1, 1)])
    built = build_even_clifford(sp)
    alg = built.algebra
    assert alg.dim == 4
    assert built.extras["zsquare"] == -ONE  # l = 1
    p = alg.basis_vec(1)
    assert alg.multiply(p, p) == tuple(-c for c in alg.basis_vec(0))
    group, degs = built.grading(G.literal())
    assert degs[0].is_zero()
    assert sorted(d.torsion for d in degs) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert division_class(built) == "Q"


def test_even_clifford_z_square_signs():
    # z^2 = (-1)^l, independently of the number of hyperbolic pairs
    for cfg, want in ((CONFIGS[0], ONE), (CONFIGS[4], -ONE), (CONFIGS[9], -ONE)):
        sp = space_of(cfg)
        built = build_even_clifford(sp)
        assert built.extras["zsquare"] == want
    # one unit vector and no pair (l = 0): the even algebra is the field
    G = GradingGroup(3, ())
    built = build_even_clifford(GradedQuadraticSpace(G, (), (G.zero(),)))
    assert built.dim == 1
    assert built.extras["zsquare"] == ONE


def test_even_clifford_grading_degrees():
    built = build_even_clifford(space_of(CONFIGS[9]))
    group, degs = built.grading(built.extras["space"].group.literal())
    words = built.extras["words"]
    even = built.extras["even_indices"]
    space = built.extras["space"]
    for t, k in enumerate(even):
        d = group.zero()
        for i in words[k]:
            d = d + space.degrees[i]
        assert degs[t] == d


# ---------------------------------------------------------------------------
# division classes, both routes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_division_class_both_routes(cfg):
    name, _, _, _, expected, case = cfg
    sp = space_of(cfg)
    by_table = dim7_case_classify(sp)
    assert by_table == expected
    assert by_table.info["case"] == case
    built = build_even_clifford(sp)
    by_algebra = division_class(built)
    assert by_algebra == expected
    assert by_algebra == by_table
    assert by_algebra.info["division_dim"] == by_algebra.info["support_size"]


def test_division_class_details():
    built = build_even_clifford(space_of(CONFIGS[0]))
    dc = division_class(built)
    assert dc == "F" and dc.info["support_size"] == 1
    e = dense(dc.info["idempotent"], built.algebra.dim)
    assert built.algebra.multiply(e, e) == e
    # the star configuration needs genuine refinement cuts
    built9 = build_even_clifford(space_of(CONFIGS[8]))
    dc9 = division_class(built9)
    assert dc9 == "Q" and dc9.info["cuts"] >= 2


def test_division_class_label_handling():
    built = build_even_clifford(space_of(CONFIGS[9]))
    label = next(iter(built.gradings))
    built.gradings["other"] = built.gradings[label]
    with pytest.raises(CliffordError):
        division_class(built)
    assert division_class(built, label) == "F"


def test_division_class_needs_a_unit():
    G = z2n(1)
    nil = SuperAlgebra(["u", "v"], [0, 0], {(0, 0): [(1, 1)]})
    built = BuiltAlgebra(nil, {"Z_2": (G, (G.element((), (0,)),) * 2)})
    with pytest.raises(CliffordError, match="no two-sided identity"):
        division_class(built)


def test_dim7_table_needs_dim7():
    G = z2n(2)
    e = lambda *t: G.element((), t)
    sp = normalize_quadratic_basis(G, [e(1, 0), e(0, 1), e(1, 1)])
    with pytest.raises(CliffordError):
        dim7_case_classify(sp)


def test_dim7_records_permutation():
    sp = space_of(CONFIGS[6])
    dc = dim7_case_classify(sp)
    perm = dc.info["permutation"]
    assert sorted(perm) == list(range(7))


# ---------------------------------------------------------------------------
# the two concrete models
# ---------------------------------------------------------------------------


def test_octonion_clifford_model():
    rep = verify_octonion_clifford_model()
    assert rep["ok"]
    assert rep["span_dim"] == 64
    assert rep["l_squares"] and rep["homomorphism"] and rep["norm_adjoint"]


def test_octonion_homomorphism_on_full_clifford_table():
    # oracle for the universal-property step: build Cl(V, -N|V) in full and
    # check l_i img(w) = img(x_i w) on all 7 x 128 generator-monomial products
    C = build_cayley()
    alg = C.algebra
    gram = C.extras["norm_gram"]
    lmats = [alg.ad_matrix(alg.basis_vec(1 + t)) for t in range(7)]
    polar = [[-gram[(1 + i, 1 + j)] for j in range(7)] for i in range(7)]
    cl, words = clifford_algebra(tuple("x%d" % (t + 1) for t in range(7)), polar)
    imgs = []
    for w in words:
        m = Mat.identity(8)
        for t in w:
            m = m * lmats[t]
        imgs.append(m)
    hom = True
    for i in range(7):
        xi = cl.basis_vec(1 + i)
        for k in range(cl.dim):
            want = Mat.zeros(8, 8)
            for t, c in enumerate(cl.multiply(xi, cl.basis_vec(k))):
                if not c.is_zero():
                    want = want + imgs[t].scale(c)
            hom = hom and lmats[i] * imgs[k] == want
    assert cl.dim == 128
    assert hom
    assert verify_octonion_clifford_model()["homomorphism"] == hom


def test_octonion_model_rejects_scaled_norm(monkeypatch):
    def scaled_cayley():
        C = build_cayley()
        extras = dict(C.extras, norm_gram=C.extras["norm_gram"].scale(2))
        return BuiltAlgebra(C.algebra, C.gradings, extras)

    monkeypatch.setattr(clifford, "build_cayley", scaled_cayley)
    rep = verify_octonion_clifford_model()
    assert not rep["l_squares"]
    assert not rep["homomorphism"]
    assert not rep["ok"]


def test_quaternion_clifford_model():
    rep = verify_quaternion_clifford_model()
    assert rep["ok"]
    assert rep["w_squares"] and rep["w_anticommute"]
    assert rep["w_degrees_rank"] == 6
    assert dense(rep["h_sample"], 4) == (scalar(-2), ZERO, ZERO, ZERO)
    assert rep["conjugation_antiautomorphism"]
    assert rep["h_skew_hermitian"] and rep["h_phi_adjoint"]


def phi_adjoint_oracle(triples):
    """h(Phi_t m, m') = h(m, Phi_tbar m') for each triple t, checked as the
    matrix identity Phi_t^T H_c = H_c Phi_tbar on every quaternion
    component H_c of the form h(x (x) y, u (x) v) = N(x, u) ybar q2 v."""
    Q = build_quaternions()
    alg = Q.algebra
    ngram = Q.extras["norm_gram"]
    e = [alg.basis_vec(k) for k in range(4)]

    def bar(v):
        return (v[0],) + tuple(-x for x in v[1:])

    def phi_of_conjugate(t):
        a, b, c = t
        q2cq2 = alg.multiply(e[2], alg.multiply(bar(e[c]), e[2]))
        sign, idx = ONE, []
        for v in (bar(e[a]), bar(e[b]), q2cq2):
            k = next(k for k, x in enumerate(v) if not x.is_zero())
            sign = sign * v[k]
            idx.append(k)
        return _cube_phi(alg, *idx).scale(sign)

    pairs = [(x, y) for x in range(4) for y in range(4)]
    ybar_q2_v = {
        (y, v): alg.multiply(bar(e[y]), alg.multiply(e[2], e[v]))
        for y in range(4)
        for v in range(4)
    }
    hval = {
        (p, q): vec_scale(ngram[(p[0], q[0])], ybar_q2_v[(p[1], q[1])])
        for p in pairs
        for q in pairs
    }
    forms = [Mat([[hval[(p, q)][c] for q in pairs] for p in pairs]) for c in range(4)]
    assert any(not H.is_zero() for H in forms)
    return all(
        _cube_phi(alg, *t).transpose() * H == H * phi_of_conjugate(t)
        for t in triples
        for H in forms
    )


def test_phi_adjoint_oracle_on_w_triples():
    # the verifier checks adjointness on the six generators only; the seven
    # anticommuting w_k inherit it through the homomorphism and conjugation
    gens = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1), (0, 0, 2)]
    assert phi_adjoint_oracle(gens)
    assert phi_adjoint_oracle(_W_TRIPLES)


def test_quaternion_model_realizes_triple_class():
    # the degree pattern of the seven anticommuting generators is exactly
    # the full-rank configuration whose even Clifford algebra is the
    # triple quaternion division algebra
    qdeg = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    G = z2n(6)
    degs = [
        G.element((), qdeg[a] + qdeg[b] + qdeg[c]) for a, b, c in _W_TRIPLES
    ]
    sp = normalize_quadratic_basis(G, degs)
    assert sp.m == 0
    assert dim7_case_classify(sp) == "QQQ"


# ---------------------------------------------------------------------------
# negative controls of the table-based model verifiers
# ---------------------------------------------------------------------------


def test_quaternion_model_rejects_scaled_norm(monkeypatch):
    def scaled_quaternions():
        Q = build_quaternions()
        extras = dict(Q.extras, norm_gram=Q.extras["norm_gram"].scale(2))
        return BuiltAlgebra(Q.algebra, Q.gradings, extras)

    monkeypatch.setattr(clifford, "build_quaternions", scaled_quaternions)
    rep = verify_quaternion_clifford_model()
    assert dense(rep["h_sample"], 4) == (scalar(-4), ZERO, ZERO, ZERO)
    assert not rep["h_sample_ok"]
    assert not rep["ok"]


def test_octonion_model_rejects_a_norm_that_is_not_invariant(monkeypatch):
    # N(e1, e1) doubled alone: N(xy, z) = -N(y, xz) fails wherever z or xy
    # is e1 and the other side does not see e1
    def lopsided_cayley():
        C = build_cayley()
        gram = C.extras["norm_gram"]
        rows = [list(r) for r in gram.rows]
        rows[1][1] = rows[1][1] * scalar(2)
        extras = dict(C.extras, norm_gram=Mat(rows))
        return BuiltAlgebra(C.algebra, C.gradings, extras)

    monkeypatch.setattr(clifford, "build_cayley", lopsided_cayley)
    rep = verify_octonion_clifford_model()
    assert not rep["norm_adjoint"]
    assert not rep["ok"]
