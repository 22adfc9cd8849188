"""Tests for the grading layer: verification, type vectors, refinement,
diagonal generators, and the fine-grading catalog."""

from fractions import Fraction

import pytest

from finegrading.abgroup import GradingGroup, group_signature, subgroup_invariants
from finegrading.clifford import build_even_clifford, normalize_quadratic_basis
from finegrading.constructions import (
    BuiltAlgebra,
    build_D21,
    build_F4,
    build_G3,
    build_kac,
    d21_ideal_automorphism,
)
from finegrading.errors import GradingError
from finegrading.gradings import (
    DiagGenerators,
    Grading,
    attached_grading,
    catalog,
    f4_character_autos,
    g3_character_autos,
    grading_from_diag,
    grading_type,
    is_refinement,
    kac_fine_grading,
    signature_literal,
    trivial_grading,
    verify_grading,
)
from finegrading.linalg import Mat, diag
from finegrading.scalars import ALPHA, IUNIT, MINUS_ONE, OMEGA, ONE, ZERO, scalar
from finegrading.superalg import LinMap

IDENT2 = ((ONE, ZERO), (ZERO, ONE))
A2 = ((IUNIT, ZERO), (ZERO, -IUNIT))
B2 = ((ZERO, MINUS_ONE), (ONE, ZERO))


@pytest.fixture(scope="module")
def d21():
    return build_D21(ALPHA)


@pytest.fixture(scope="module")
def f4_tkk():
    return build_F4("tkk")


# ---------------------------------------------------------------------------
# verify_grading / grading_type
# ---------------------------------------------------------------------------


def test_verify_grading_accepts_attached_cartan(d21):
    gr = attached_grading(d21, "Z^3")
    report = verify_grading(gr)
    assert report["ok"]
    assert report["violations"] == ()
    assert report["products_checked"] > 100


def test_verify_grading_flags_corrupted_degree(d21):
    gr = attached_grading(d21, "Z^3")
    degs = list(gr.degrees)
    degs[0] = degs[0] + gr.group.element((2, 0, 0), ())
    bad = Grading(d21.algebra, gr.group, degs)
    report = verify_grading(bad)
    assert not report["ok"]
    w = report["violations"][0]
    assert {"left", "right", "component", "degrees"} <= set(w)
    names = set(d21.algebra.names)
    assert {w["left"], w["right"], w["component"]} <= names


def _verify_grading_reference(gr):
    """verify_grading's report with one group addition per table entry."""
    A, deg = gr.algebra, gr.degrees
    violations, checked = [], 0
    for (i, j), terms in sorted(A.table.items()):
        dsum = deg[i] + deg[j]
        for k, c in terms:
            checked += 1
            if deg[k] != dsum:
                violations.append({
                    "left": A.names[i],
                    "right": A.names[j],
                    "component": A.names[k],
                    "degrees": (deg[i].literal(), deg[j].literal(), deg[k].literal()),
                })
    return {"ok": not violations, "violations": tuple(violations), "products_checked": checked}


@pytest.mark.parametrize("shifts", [{}, {0: (2, 0, 0)}, {5: (1, 1, 0)},
                                    {1: (0, 3, 0), 9: (1, 0, 0), 16: (0, 0, 5)}])
def test_verify_grading_matches_one_sum_per_entry(d21, shifts):
    gr = attached_grading(d21, "Z^3")
    degs = list(gr.degrees)
    for k, shift in shifts.items():
        degs[k] = degs[k] + gr.group.element(shift, ())
    bad = Grading(d21.algebra, gr.group, degs)
    report = verify_grading(bad)
    assert report == _verify_grading_reference(bad)
    assert report["ok"] == (not shifts)


def test_trivial_grading_passes(d21):
    gr = trivial_grading(d21.algebra)
    assert verify_grading(gr)["ok"]
    assert grading_type(gr) == (0,) * 16 + (1,)


def test_grading_type_examples(d21):
    assert grading_type(attached_grading(d21, "Z^3")) == (14, 0, 1)
    cay = build_F4("cayley")
    assert grading_type(attached_grading(cay, "Z^4")) == (36, 0, 0, 1)
    _, K10b = build_kac()
    assert grading_type(attached_grading(K10b, "Z^2")) == (8, 1)


def test_grading_degree_count_must_match(d21):
    gr = attached_grading(d21, "Z^3")
    with pytest.raises(GradingError):
        Grading(d21.algebra, gr.group, gr.degrees[:-1])


def test_grading_rejects_foreign_degrees(d21):
    other = GradingGroup(2, ())
    with pytest.raises(GradingError):
        Grading(d21.algebra, GradingGroup(3, ()), [other.zero()] * 17)


# ---------------------------------------------------------------------------
# is_refinement
# ---------------------------------------------------------------------------


def test_refines_trivial(d21):
    cartan = attached_grading(d21, "Z^3")
    triv = trivial_grading(d21.algebra)
    assert is_refinement(cartan, triv)
    assert not is_refinement(triv, cartan)
    assert is_refinement(cartan, cartan)


def test_refinement_of_torus_coarsening(f4_tkk):
    gens = DiagGenerators(
        [f4_tkk.extras["zweight_total"]],
        [
            (f4_tkk.extras["tau_hat"], 2),
            (f4_tkk.extras["ad_q"][0], 2),
            (f4_tkk.extras["ad_q"][1], 2),
        ],
    )
    fine = grading_from_diag(f4_tkk.algebra, gens)
    GZ = GradingGroup(1, ())
    coarse = Grading(
        fine.algebra,
        GZ,
        [GZ.element((d.free[0],), ()) for d in fine.degrees],
        source=fine.source,
        basis=fine.basis,
    )
    assert verify_grading(coarse)["ok"]
    assert is_refinement(fine, coarse)
    assert not is_refinement(coarse, fine)


def test_incomparable_clifford_gradings():
    # Two fine gradings of the same rank-7 even Clifford algebra on its
    # monomial basis: neither refines the other (the degree kernels on the
    # generators are incomparable).
    G5 = GradingGroup(0, (2,) * 5)
    coords = [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (1, 1, 1, 1, 1),
        (0, 0, 0, 0, 0),
    ]
    sp = normalize_quadratic_basis(G5, [G5.element((), t) for t in coords])
    built = build_even_clifford(sp)
    grA = attached_grading(built, G5.literal())

    G3 = GradingGroup(0, (2, 2, 2))
    fano = [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    ]
    gdeg = [G3.element((), t) for t in fano]
    words = built.extras["words"]
    degB = []
    for k in built.extras["even_indices"]:
        d = G3.zero()
        for t in words[k]:
            d = d + gdeg[t]
        degB.append(d)
    grB = Grading(built.algebra, G3, degB)
    assert verify_grading(grB)["ok"]
    assert not is_refinement(grA, grB)
    assert not is_refinement(grB, grA)
    # mutual refinement would force equal partitions, so this is consistent
    # with antisymmetry
    assert grading_type(grA) == (0, 32)
    assert grading_type(grB) == (0, 0, 0, 0, 0, 0, 0, 8)


def test_factor_swap_grading_and_attached_grading_are_incomparable(f4_tkk):
    # the factor-swap eigenbasis mixes designated basis vectors, and the
    # spans of the two gradings' components cross in both directions
    attached = attached_grading(f4_tkk, "Z^2 x Z_2 x Z_2")
    gens = DiagGenerators(
        [f4_tkk.extras["zweight_total"]], [(f4_tkk.extras["tau_hat"], 2)]
    )
    diag = grading_from_diag(f4_tkk.algebra, gens)
    assert diag.basis is not None
    assert not is_refinement(diag, attached)
    assert not is_refinement(attached, diag)


def test_negated_basis_vector_refines_both_ways(d21):
    # the same degrees on the designated basis with its first vector negated:
    # every component spans the same space, so each grading refines the other
    cartan = attached_grading(d21, "Z^3")
    flipped = diag([MINUS_ONE] + [ONE] * 16)
    negated = Grading(cartan.algebra, cartan.group, cartan.degrees, basis=flipped)
    assert is_refinement(negated, negated)
    assert is_refinement(cartan, negated)
    assert is_refinement(negated, cartan)


def test_refinement_requires_same_algebra(d21):
    g3 = build_G3()
    with pytest.raises(GradingError):
        is_refinement(attached_grading(d21, "Z^3"), attached_grading(g3, "Z^3"))


# ---------------------------------------------------------------------------
# grading_from_diag
# ---------------------------------------------------------------------------


def _cartan_weights(built):
    _, degs = built.grading("Z^3")
    return [[d.free[l] for d in degs] for l in range(3)]


def test_from_diag_torus_only(d21):
    w = _cartan_weights(d21)
    gr = grading_from_diag(d21.algebra, DiagGenerators(w, ()))
    assert verify_grading(gr)["ok"]
    assert grading_type(gr) == (14, 0, 1)
    assert subgroup_invariants(gr.group, gr.degrees) == (3, ())


def test_from_diag_triple_characters(d21):
    autos = [
        (d21_ideal_automorphism(d21, fs=(A2, A2, A2)), 4),
        (d21_ideal_automorphism(d21, fs=(B2, B2, A2)), 4),
        (d21_ideal_automorphism(d21, fs=(A2, B2, B2)), 4),
    ]
    gr = grading_from_diag(d21.algebra, DiagGenerators((), autos))
    assert verify_grading(gr)["ok"]
    assert grading_type(gr) == (14, 0, 1)
    assert subgroup_invariants(gr.group, gr.degrees) == (0, (2, 2, 4))


def test_from_diag_identity_auto_gives_trivial(d21):
    ident = LinMap(d21.algebra, d21.algebra, Mat.identity(17))
    gr = grading_from_diag(d21.algebra, DiagGenerators((), [(ident, 1)]))
    assert gr.group.literal() == "Z^0"
    assert grading_type(gr) == (0,) * 16 + (1,)


def test_from_diag_generator_order_independent(d21):
    autos = [
        (d21_ideal_automorphism(d21, fs=(A2, A2, A2)), 4),
        (d21_ideal_automorphism(d21, fs=(B2, B2, A2)), 4),
        (d21_ideal_automorphism(d21, fs=(A2, B2, B2)), 4),
    ]

    def partition(gr):
        comps = {}
        for col, d in zip(gr.basis.columns, gr.degrees):
            comps.setdefault(d, set()).add(frozenset(col.items()))
        return set(frozenset(s) for s in comps.values())

    gr1 = grading_from_diag(d21.algebra, DiagGenerators((), autos))
    gr2 = grading_from_diag(d21.algebra, DiagGenerators((), autos[::-1]))
    assert partition(gr1) == partition(gr2)


def test_from_diag_rejects_non_grading_weight(d21):
    bad = [1] + [0] * 16
    with pytest.raises(
        GradingError, match=r"^weight vector is not a Z-grading: \(E1, F1\) -> H1$"
    ):
        grading_from_diag(d21.algebra, DiagGenerators([bad], ()))


def test_from_diag_rejects_non_automorphism(d21):
    entries = [[ZERO] * 17 for _ in range(17)]
    for k in range(17):
        entries[k][k] = scalar(2) if k == 0 else ONE
    f = LinMap(d21.algebra, d21.algebra, Mat(entries))
    # the witness is the first basis pair the map fails on: F([E1, F1]) = H1
    # but [F E1, F F1] = 2 H1
    with pytest.raises(GradingError, match=r"at pair \(E1, F1\)"):
        grading_from_diag(d21.algebra, DiagGenerators((), [(f, 2)]))


def test_from_diag_rejects_wrong_declared_order(d21):
    ident = LinMap(d21.algebra, d21.algebra, Mat.identity(17))
    f = d21_ideal_automorphism(d21, fs=(A2, A2, IDENT2))  # true order 2
    with pytest.raises(
        GradingError,
        match="automorphism 1: declared order 3 is not a multiple of the true order 2",
    ):
        grading_from_diag(d21.algebra, DiagGenerators((), [(ident, 1), (f, 3)]))


def test_from_diag_rejects_order_above_the_declared_one(d21):
    f = d21_ideal_automorphism(d21, fs=(A2, A2, A2))  # true order 4
    with pytest.raises(
        GradingError, match="automorphism 0 has order greater than its declared order 2"
    ):
        grading_from_diag(d21.algebra, DiagGenerators((), [(f, 2)]))


# ---------------------------------------------------------------------------
# Cayley sign characters lifted to G(3) and F(4)
# ---------------------------------------------------------------------------


def test_g3_character_not_normalizing_rejected():
    built = build_G3()
    # one derivation E_01 + ... + E_07 whose conjugates leave its span
    m = Mat([[ONE if (i == 0 and j > 0) else ZERO for j in range(8)] for i in range(8)])
    bad = BuiltAlgebra(
        built.algebra, built.gradings, dict(built.extras, g2_matrices=[m])
    )
    with pytest.raises(GradingError, match="does not normalize the derivation algebra"):
        g3_character_autos(bad)


def test_f4_character_not_normalizing_rejected():
    built = build_F4("cayley")
    bad = BuiltAlgebra(
        built.algebra, built.gradings, dict(built.extras, so7_coords=lambda X: None)
    )
    with pytest.raises(GradingError, match="does not normalize the derivation algebra"):
        f4_character_autos(bad)


# ---------------------------------------------------------------------------
# the Kac superalgebra's fine grading
# ---------------------------------------------------------------------------


def test_kac_fine_grading():
    gr = kac_fine_grading()
    assert gr.group.literal() == "Z x Z_2"
    assert verify_grading(gr)["ok"]
    assert grading_type(gr) == (7, 0, 1)
    sizes = sorted(len(ix) for ix in gr.components().values())
    assert sizes == [1] * 7 + [3]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _check_records(records, expected):
    assert [r["name"] for r in records] == [e[0] for e in expected]
    for rec, (name, group, typ) in zip(records, expected):
        assert rec["status"] == "pass", rec["witness"]
        assert rec["expected_group"] == group
        assert rec["realized_type"] == typ
        assert group_signature(rec["realized_group"]) == group_signature(group)
        assert verify_grading(rec["grading"])["ok"]


def test_catalog_f4():
    _check_records(
        catalog("f4"),
        [
            ("f4-cartan-z4-cayley", "Z^4", (36, 0, 0, 1)),
            ("f4-z-z2^3-cayley", "Z x Z_2 x Z_2 x Z_2", (19, 0, 7)),
            ("f4-z2-z2^2-tkk", "Z^2 x Z_2 x Z_2", (32, 4)),
            ("f4-z-z2^3-tkk", "Z x Z_2 x Z_2 x Z_2", (31, 0, 3)),
            ("f4-z4-z2^3-quaternion", "Z_4 x Z_2 x Z_2 x Z_2", (24, 6, 0, 1)),
        ],
    )


def test_catalog_g3():
    _check_records(
        catalog("g3"),
        [
            ("g3-cartan-z3", "Z^3", (28, 0, 1)),
            ("g3-z-z2^3", "Z x Z_2 x Z_2 x Z_2", (17, 7)),
        ],
    )


D21_BASE = [
    ("d21a-cartan-z3", "Z^3", (14, 0, 1)),
    ("d21a-z4-z2^2", "Z_4 x Z_2 x Z_2", (14, 0, 1)),
    ("d21a-z-z2^2-ideal1", "Z x Z_2 x Z_2", (11, 3)),
    ("d21a-z-z2^2-ideal2", "Z x Z_2 x Z_2", (11, 3)),
    ("d21a-z-z2^2-ideal3", "Z x Z_2 x Z_2", (11, 3)),
]


def test_catalog_d21_symbolic():
    _check_records(catalog("d21a"), D21_BASE)


def test_catalog_d21_generic_numeric():
    _check_records(catalog("d21a", alpha=scalar(3)), D21_BASE)


@pytest.mark.parametrize("alpha", [OMEGA, OMEGA * OMEGA], ids=["w", "w2"])
def test_catalog_d21_cube_root(alpha):
    _check_records(
        catalog("d21a", alpha=alpha),
        D21_BASE + [("d21a-z-z3", "Z x Z_3", (17,))],
    )


@pytest.mark.parametrize(
    "alpha", [Fraction(-1, 2), 1, -2], ids=["minus-half", "one", "minus-two"]
)
def test_catalog_d21_osp42(alpha):
    # the three parameters of osp(4|2): two entries of sigma coincide
    _check_records(
        catalog("d21a", alpha=scalar(alpha)),
        D21_BASE
        + [
            ("d21a-z-z2^3", "Z x Z_2 x Z_2 x Z_2", (17,)),
            ("d21a-z2-z2", "Z^2 x Z_2", (15, 1)),
            ("d21a-z4-z4", "Z_4 x Z_4", (13, 2)),
        ],
    )


@pytest.mark.parametrize(
    "orbit",
    [(2, Fraction(1, 2), -3), (OMEGA, OMEGA * OMEGA), (Fraction(-1, 2), 1, -2)],
    ids=["generic", "cube-roots", "osp42"],
)
def test_catalog_d21_constant_on_alpha_orbit(orbit):
    # a -> 1/a and a -> -1-a give isomorphic algebras, so the same gradings
    def signature(alpha):
        records = catalog("d21a", alpha=scalar(alpha))
        return sorted((r["realized_group"], r["realized_type"]) for r in records)

    first = signature(orbit[0])
    for alpha in orbit[1:]:
        assert signature(alpha) == first


@pytest.mark.parametrize(
    "alpha, refining",
    [
        (None, []),
        (Fraction(-1, 2), [("d21a-z-z2^3", "d21a-z-z2^2-ideal1")]),
        (1, [("d21a-z-z2^3", "d21a-z-z2^2-ideal3")]),
        (-2, [("d21a-z-z2^3", "d21a-z-z2^2-ideal2")]),
        (2, []),
    ],
    ids=["symbolic", "minus-half", "one", "minus-two", "two"],
)
def test_refinements_among_d21_catalog_entries(alpha, refining):
    # the entries sit on different designated bases; at each osp(4|2)
    # parameter the Z x Z_2^3 grading refines one Z x Z_2^2 entry, which is
    # therefore not fine although the catalog lists it
    records = catalog("d21a", alpha=None if alpha is None else scalar(alpha), strict=False)
    pairs = [
        (f["name"], c["name"])
        for f in records
        for c in records
        if f is not c and is_refinement(f["grading"], c["grading"])
    ]
    assert pairs == refining


def test_catalog_rejects_unknown_id():
    with pytest.raises(GradingError):
        catalog("e8")


def test_catalog_rejects_alpha_for_f4():
    with pytest.raises(GradingError):
        catalog("f4", alpha=scalar(2))


def test_signature_literal():
    assert signature_literal((0, ())) == "1"
    assert signature_literal((1, ())) == "Z"
    assert signature_literal((2, (2, 4))) == "Z^2 x Z_2 x Z_4"
