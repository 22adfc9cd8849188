"""Acceptance suite: the nine headline checks, one verdict line each.

Each criterion prints a single ``criterion N [PASS/FAIL]`` line (visible
under ``pytest -s`` or in captured output) and enforces its time budget.
"""

import time
from fractions import Fraction

from test_clifford import CONFIGS, dense, space_of

from finegrading.abgroup import GradingGroup, group_signature
from finegrading.clifford import (
    build_even_clifford,
    dim7_case_classify,
    division_class,
    verify_octonion_clifford_model,
    verify_quaternion_clifford_model,
)
from finegrading.constructions import (
    build_D21,
    build_F4,
    build_G3,
    build_kac,
    verify_tkk_iso_lemma,
)
from finegrading.gradings import (
    DiagGenerators,
    Grading,
    attached_grading,
    catalog,
    grading_from_diag,
    grading_type,
    is_refinement,
    kac_fine_grading,
    verify_grading,
)
from finegrading.groups import (
    f2_subspace_cases,
    maximal_abelian_FxQ82K,
    maximal_abelian_Q83K,
)
from finegrading.scalars import ALPHA, OMEGA, ZERO, scalar
from finegrading.superalg import check_lie_super, invariant_pairings


class _verdict:
    def __init__(self, num, desc, budget=None):
        self.num, self.desc, self.budget = num, desc, budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, etype, evalue, tb):
        dt = time.monotonic() - self.t0
        ok = etype is None and (self.budget is None or dt <= self.budget)
        print(
            "criterion %d [%s] %s (%.1fs)"
            % (self.num, "PASS" if ok else "FAIL", self.desc, dt)
        )
        if etype is None and not ok:
            raise AssertionError(
                "criterion %d exceeded its %ds budget (%.1fs)"
                % (self.num, self.budget, dt)
            )
        return False


def _expect(records, wanted):
    assert [(r["name"], r["expected_group"], r["realized_type"])
            for r in records] == wanted
    for r in records:
        assert r["status"] == "pass", r["witness"]
        assert group_signature(r["realized_group"]) == group_signature(
            r["expected_group"])


def test_criterion_1_f4_grading_types():
    with _verdict(1, "F(4): five catalog gradings, exact groups and types",
                  budget=120):
        _expect(catalog("f4", strict=True), [
            ("f4-cartan-z4-cayley", "Z^4", (36, 0, 0, 1)),
            ("f4-z-z2^3-cayley", "Z x Z_2 x Z_2 x Z_2", (19, 0, 7)),
            ("f4-z2-z2^2-tkk", "Z^2 x Z_2 x Z_2", (32, 4)),
            ("f4-z-z2^3-tkk", "Z x Z_2 x Z_2 x Z_2", (31, 0, 3)),
            ("f4-z4-z2^3-quaternion", "Z_4 x Z_2 x Z_2 x Z_2",
             (24, 6, 0, 1)),
        ])


def test_criterion_2_g3_grading_types():
    with _verdict(2, "G(3): types (28,0,1) and (17,7)", budget=60):
        _expect(catalog("g3", strict=True), [
            ("g3-cartan-z3", "Z^3", (28, 0, 1)),
            ("g3-z-z2^3", "Z x Z_2 x Z_2 x Z_2", (17, 7)),
        ])


def test_criterion_3_d21a_grading_types():
    with _verdict(3, "D(2,1;a): symbolic, cube-root and -1/2 catalogs",
                  budget=120):
        base = [
            ("d21a-cartan-z3", "Z^3", (14, 0, 1)),
            ("d21a-z4-z2^2", "Z_4 x Z_2 x Z_2", (14, 0, 1)),
            ("d21a-z-z2^2-ideal1", "Z x Z_2 x Z_2", (11, 3)),
            ("d21a-z-z2^2-ideal2", "Z x Z_2 x Z_2", (11, 3)),
            ("d21a-z-z2^2-ideal3", "Z x Z_2 x Z_2", (11, 3)),
        ]
        _expect(catalog("d21a", strict=True), base)
        _expect(catalog("d21a", alpha=OMEGA, strict=True),
                base + [("d21a-z-z3", "Z x Z_3", (17,))])
        _expect(catalog("d21a", alpha=scalar(Fraction(-1, 2)), strict=True),
                base + [
                    ("d21a-z-z2^3", "Z x Z_2 x Z_2 x Z_2", (17,)),
                    ("d21a-z2-z2", "Z^2 x Z_2", (15, 1)),
                    ("d21a-z4-z4", "Z_4 x Z_4", (13, 2)),
                ])


def test_criterion_4_axiom_suite():
    with _verdict(4, "super axioms exact; dims 17/31/40, splits 9+8, "
                     "17+14, 24+16"):
        cases = [
            (build_D21(ALPHA), 17, 9, 8),
            (build_G3(), 31, 17, 14),
            (build_F4("cayley"), 40, 24, 16),
            (build_F4("tkk"), 40, 24, 16),
            (build_F4("quaternion"), 40, 24, 16),
        ]
        for built, dim, even, odd in cases:
            A = built.algebra
            check_lie_super(A)
            assert A.dim == dim
            assert sum(1 for p in A.parity if p == 0) == even
            assert sum(1 for p in A.parity if p == 1) == odd


def test_criterion_5_clifford_dual_route():
    with _verdict(5, "graded Clifford classification, ten configurations, "
                     "dual route", budget=120):
        assert len(CONFIGS) == 10
        for cfg in CONFIGS:
            label, _, _, _, expected, case = cfg
            space = space_of(cfg)
            built = build_even_clifford(space)
            by_algebra = division_class(built)
            by_table = dim7_case_classify(space)
            assert by_algebra.tag == expected, label
            assert by_table.tag == expected, label
            assert by_table.info["case"] == case, label


def test_criterion_6_structural_isomorphisms():
    with _verdict(6, "octonion/quaternion Clifford models and the "
                     "orthogonal TKK lemma"):
        assert verify_octonion_clifford_model()["ok"]
        assert verify_quaternion_clifford_model()["ok"]
        assert verify_tkk_iso_lemma() is True


def test_criterion_7_finite_group_propositions():
    with _verdict(7, "maximal abelian subgroups and F_2-subspace lemmas",
                  budget=120):
        q = maximal_abelian_Q83K()
        assert q["subgroup_count"] == 135
        assert q["isomorphism_type"] == "Z_2^2 x Z_4"
        assert q["orbit_count"] == 3
        b3 = f2_subspace_cases(3)
        assert b3["maximal_count"] == 135
        assert b3["family_counts"] == {1: 27, 2: 54, 3: 54}
        b2 = f2_subspace_cases(2)
        assert b2["conditioned_count"] == 31
        assert b2["family_counts"] == {1: 25, 2: 6}
        fx = maximal_abelian_FxQ82K()
        assert fx["orbit_count"] == 2
        assert (fx["rectangle_count"], fx["graph_count"]) == (9, 6)


def test_criterion_8_kac_gradings_and_idempotents():
    with _verdict(8, "K10 types (8,1) and (7,0,1); orthogonal idempotents"):
        _, K10b = build_kac()
        A = K10b.algebra
        assert grading_type(attached_grading(K10b, "Z^2")) == (8, 1)
        fine = kac_fine_grading(K10b)
        assert verify_grading(fine)["ok"]
        assert grading_type(fine) == (7, 0, 1)
        assert group_signature(fine.group.literal()) == group_signature(
            "Z x Z_2")
        # the idempotents are sparse elements; read them densely
        E1, E2 = (dense(K10b.extras[k], A.dim) for k in ("E1", "E2"))
        assert all(c == ZERO for c in A.multiply(E1, E2))
        assert A.multiply(E1, E1) == E1
        assert A.multiply(E2, E2) == E2
        one = A.basis_vec("one")
        assert tuple(a + b for a, b in zip(E1, E2)) == one


def test_criterion_9_property_suite():
    with _verdict(9, "pairing dimension, refinement partial order, "
                     "negative controls"):
        cay = build_F4("cayley")
        pairings = invariant_pairings(
            cay.extras["g0"], cay.extras["action"],
            degrees=cay.grading("Z^4")[1], target=cay.extras["sl2_indices"])
        assert len(pairings) == 1

        tkk = build_F4("tkk")
        fine = grading_from_diag(
            tkk.algebra,
            DiagGenerators([tkk.extras["zweight_total"]],
                           [(tkk.extras["tau_hat"], 2)]))
        assert is_refinement(fine, fine)
        GZ = GradingGroup(1, ())
        coarse = Grading(fine.algebra, GZ,
                         [GZ.element((d.free[0],), ()) for d in fine.degrees],
                         source=fine.source, basis=fine.basis)
        doubled = Grading(fine.algebra, GZ,
                          [GZ.element((2 * d.free[0],), ())
                           for d in fine.degrees],
                          source=fine.source, basis=fine.basis)
        # mutual refinement forces equal component partitions
        assert is_refinement(coarse, doubled) and is_refinement(doubled,
                                                                coarse)
        assert coarse.components().keys() != doubled.components().keys()
        parts = lambda gr: sorted(gr.components().values())
        assert parts(coarse) == parts(doubled)
        assert is_refinement(fine, coarse) and not is_refinement(coarse, fine)

        d21 = build_D21(ALPHA)
        gr = attached_grading(d21, "Z^3")
        degs = list(gr.degrees)
        degs[5] = degs[5] + gr.group.element((1, 1, 0), ())
        rep = verify_grading(Grading(d21.algebra, gr.group, degs))
        assert not rep["ok"] and rep["violations"]
        witness = rep["violations"][0]
        assert {"left", "right", "component", "degrees"} <= set(witness)
