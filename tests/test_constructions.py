"""Construction-level tests: frozen product values, dimension counts,
distinguished-element identities and the designated gradings of every model.

The expected values below were derived independently (by hand from the
defining formulas, or from standard structure theory) before the builders
were run, and are asserted as frozen oracles.
"""

import hashlib
from fractions import Fraction

import pytest

from test_clifford import dense

from finegrading import constructions
from finegrading.constructions import (
    BuiltAlgebra,
    build_An,
    build_cayley,
    build_D21,
    build_F4,
    build_G3,
    build_kac,
    build_kaplansky,
    build_quaternions,
    build_tkk,
    cayley_weight_basis,
    d21_ideal_automorphism,
    shared_builds,
    verify_tkk_iso_lemma,
)
from finegrading.errors import AlgebraError
from finegrading.gradings import _A_SL2, _B_SL2
from finegrading.linalg import Mat, rank
from finegrading.scalars import HALF, IUNIT, OMEGA, ONE, ZERO, scalar
from finegrading.superalg import (
    LinMap,
    _closure,
    _generating_indices,
    check_homomorphism,
    check_lie_super,
    derivation_superalgebra,
    derivations,
    dumps_algebra,
    ideal_generated_by,
    invariant_pairings,
    is_homomorphism,
    lie_closure,
)

# ---------------------------------------------------------------------------
# frozen oracles
# ---------------------------------------------------------------------------

# squares of the seven anticommuting generators of the quaternionic F(4)
# model, in order; computed by hand from (q1,1,1), (q3,1,1), (q2,1,q1), ...
W_SQUARES = (1, -1, 1, -1, 1, -1, 1)

# grading types of the designated gradings (multiset of component sizes)
TYPE_K10_Z2 = (8, 1)
TYPE_D21_CARTAN = (14, 0, 1)
TYPE_G3_CARTAN = (28, 0, 1)
TYPE_F4_CARTAN = (36, 0, 0, 1)
TYPE_F4_TKK = (32, 4)
TYPE_F4_QUAT = (24, 6, 0, 1)

# SHA-256 of dumps_algebra(built.algebra) for each model, keyed by fixture:
# every structure constant, sign and scale of the odd bracket is frozen
STRUCTURE_DIGESTS = {
    "g3": "cec04a32cf48d6a10cc6679b5123114f2f80305a9c3d6a794bc0871dce0770bd",
    "f4_cayley": "52fb53d8e526d82b5bbbcc9b13fc491967aa94237ad5982536c9ee3230396e6f",
    "f4_tkk": "0b56416edfd5130cc69b95ab40217b342cf47ce4ba7177adc641ece0c712fadf",
    "f4_quaternion": "0002bd6f81d9ceba73cbf504a69d5d887a7d073bcb235b678d0c9b858a8fe812",
    "d21": "40e82bdf16942923b12bc9483ba4e6ad5aba0320f21f24f3188ac758523bf7cb",
    "tkk10": "ba2b040e962400ad756b5e474f18ddee7603750cd5c474668417457e4073400c",
    "cayley_der": "239128c8425923c39352704845e1320a6c010ec53f695eba419af2600402e40a",
}


# ---------------------------------------------------------------------------
# shared fixtures (built once per module); the builders do not check the
# axioms, so each fixture does
# ---------------------------------------------------------------------------


def checked(built):
    check_lie_super(built.algebra)
    return built


@pytest.fixture(scope="module")
def quats():
    return build_quaternions()


@pytest.fixture(scope="module")
def cayley():
    return build_cayley()


@pytest.fixture(scope="module")
def kac():
    return build_kac()


@pytest.fixture(scope="module")
def tkk10(kac):
    _, K10b = kac
    return checked(build_tkk(K10b.algebra))


@pytest.fixture(scope="module")
def cayley_der(cayley):
    return checked(BuiltAlgebra(derivation_superalgebra(cayley.algebra)[0]))


@pytest.fixture(scope="module")
def d21():
    return checked(build_D21())


@pytest.fixture(scope="module")
def g3():
    return checked(build_G3())


@pytest.fixture(scope="module")
def f4_cayley():
    return checked(build_F4("cayley"))


@pytest.fixture(scope="module")
def f4_tkk():
    return checked(build_F4("tkk"))


@pytest.fixture(scope="module")
def f4_quaternion():
    return checked(build_F4("quaternion"))


def assert_graded(built):
    """Every table entry lands in the component of the degree sum."""
    A = built.algebra
    for label, (group, degs) in built.gradings.items():
        assert len(degs) == A.dim
        for (i, j), terms in A.table.items():
            want = degs[i] + degs[j]
            for k, _ in terms:
                assert degs[k] == want, (
                    label,
                    A.names[i],
                    A.names[j],
                    A.names[k],
                )


def grading_sizes(built, label):
    group, degs = built.gradings[label]
    sizes = {}
    for d in degs:
        sizes[d] = sizes.get(d, 0) + 1
    mult = {}
    for v in sizes.values():
        mult[v] = mult.get(v, 0) + 1
    r = max(mult)
    return tuple(mult.get(i, 0) for i in range(1, r + 1))


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------


def norm_from_gram(built, x):
    g = built.extras["norm_gram"]
    acc = ZERO
    for i, xi in enumerate(x):
        for j, xj in enumerate(x):
            acc = acc + xi * g[i, j] * xj
    return acc * HALF  # the gram is the polar form, N(x) = B(x,x)/2


def test_quaternion_products(quats):
    A = quats.algebra
    q = {n: A.basis_vec(n) for n in A.names}
    assert A.multiply(q["q1"], q["q2"]) == q["q3"]
    assert A.multiply(q["q2"], q["q1"]) == A.element({"q3": -1})
    assert A.multiply(q["q1"], q["q1"]) == q["1"]
    assert A.multiply(q["q2"], q["q2"]) == q["1"]
    assert A.multiply(q["q3"], q["q3"]) == A.element({"1": -1})
    assert A.multiply(q["q2"], q["q3"]) == A.element({"q1": -1})


def test_quaternion_norm_and_bar(quats):
    A = quats.algebra
    g = quats.extras["norm_gram"]
    assert [g[i, i] for i in range(4)] == [
        scalar(2),
        scalar(-2),
        scalar(-2),
        scalar(2),
    ]
    x = A.element({"1": 1, "q1": 2, "q2": -1})
    y = A.element({"q1": 1, "q3": Fraction(1, 2)})
    prod = A.multiply(x, y)
    assert norm_from_gram(quats, prod) == norm_from_gram(
        quats, x
    ) * norm_from_gram(quats, y)
    bar = quats.extras["bar"]
    lhs = bar(prod)
    rhs = A.multiply(bar(y), bar(x))
    assert lhs == rhs


def test_quaternion_grading(quats):
    assert_graded(quats)


# ---------------------------------------------------------------------------
# Cayley algebra
# ---------------------------------------------------------------------------


def test_cayley_products(cayley):
    A = cayley.algebra
    e = {n: A.basis_vec(n) for n in A.names}
    assert A.multiply(e["e1"], e["e2"]) == e["e4"]
    assert A.multiply(e["e2"], e["e1"]) == A.element({"e4": -1})
    assert A.multiply(e["e1"], e["e1"]) == A.element({"1": -1})
    assert A.multiply(e["e5"], e["e6"]) == e["e1"]


def test_cayley_composition_and_quadratic(cayley):
    A = cayley.algebra
    x = A.element({"1": 1, "e3": 1, "e5": -2})
    y = A.element({"e1": 1, "e2": 1, "e7": Fraction(1, 3)})
    assert norm_from_gram(cayley, A.multiply(x, y)) == norm_from_gram(
        cayley, x
    ) * norm_from_gram(cayley, y)
    # x^2 - t(x) x + N(x) 1 = 0 with t(x) twice the unit coefficient
    sq = A.multiply(x, x)
    t = scalar(2) * x[0]
    n = norm_from_gram(cayley, x)
    res = tuple(s - t * c for s, c in zip(sq, x))
    res = tuple(r + (n if i == 0 else ZERO) for i, r in enumerate(res))
    assert all(c.is_zero() for c in res)
    bar = cayley.extras["bar"]
    assert bar(A.multiply(x, y)) == A.multiply(bar(y), bar(x))


def test_cayley_derivations_dim(cayley):
    assert len(derivations(cayley.algebra, 0)) == 14


def test_cayley_weight_basis(cayley):
    A = cayley.algebra
    wb = cayley_weight_basis(cayley)
    vecs = [dense(v, A.dim) for v in wb["vectors"]]
    E1, E2, x1 = vecs[0], vecs[1], vecs[2]
    assert A.multiply(E1, E1) == E1
    assert A.multiply(E2, E2) == E2
    assert all(c.is_zero() for c in A.multiply(E1, E2))
    assert A.multiply(E1, x1) == x1
    assert all(c.is_zero() for c in A.multiply(x1, E1))
    # x1 x2 lands on the opposite weight line: -2 y3
    y3 = vecs[7]
    prod = A.multiply(vecs[2], vecs[3])
    assert prod == tuple(scalar(-2) * c for c in y3)
    # torus weights
    t1 = wb["t1"]
    assert t1.apply(x1) == x1
    assert t1.apply(vecs[4]) == tuple(-c for c in vecs[4])


def test_cayley_grading(cayley):
    assert_graded(cayley)


# ---------------------------------------------------------------------------
# graded division algebras
# ---------------------------------------------------------------------------


def test_an_requires_supported_order():
    with pytest.raises(AlgebraError):
        build_An(3)


def test_a2_is_quaternions(quats):
    A2 = build_An(2)
    table = {"x0y0": "1", "x1y0": "q1", "x0y1": "q2", "x1y1": "q3"}
    cols = [quats.algebra.basis_vec(table[n]) for n in A2.algebra.names]
    F = LinMap(A2.algebra, quats.algebra, Mat.from_cols(cols, nrows=4))
    assert check_homomorphism(A2.algebra, quats.algebra, F, bijective=True)
    assert_graded(A2)


def test_a4_division_and_commutation():
    A4 = build_An(4)
    A = A4.algebra
    x = A.basis_vec("x1y0")
    y = A.basis_vec("x0y1")
    xy = A.multiply(x, y)
    yx = A.multiply(y, x)
    assert yx == tuple(-(IUNIT * c) for c in xy)
    # graded division: every basis element has an invertible left multiplication
    from finegrading.linalg import inverse

    one = A.basis_vec("x0y0")
    for i in range(A.dim):
        L = A.ad_matrix(A.basis_vec(i))
        inv = inverse(L)  # raises if singular
        assert A.multiply(A.basis_vec(i), inv.apply(one)) == one
    assert_graded(A4)


# ---------------------------------------------------------------------------
# Kaplansky and Kac superalgebras
# ---------------------------------------------------------------------------


def test_kaplansky_table_and_derivations():
    K3b = build_kaplansky()
    K = K3b.algebra
    e, vp, vm = (K.basis_vec(n) for n in K.names)
    assert K.multiply(e, e) == e
    assert K.multiply(e, vp) == tuple(HALF * c for c in vp)
    assert K.multiply(vp, vm) == e
    assert K.multiply(vm, vp) == tuple(-c for c in e)
    assert all(c.is_zero() for c in K.multiply(vp, vp))
    # the superderivations form osp(1|2): 3 even + 2 odd
    assert len(derivations(K, 0)) == 3
    assert len(derivations(K, 1)) == 2
    assert_graded(K3b)


def test_kac_frozen_square(kac):
    _, K10b = kac
    K = K10b.algebra
    ee = K.basis_vec("e.e")
    expect = K.element({"one": Fraction(-3, 16), "e.e": 1})
    assert K.multiply(ee, ee) == expect


def test_kac_idempotents_and_unit(kac):
    _, K10b = kac
    K = K10b.algebra
    E1, E2 = (dense(K10b.extras[k], K.dim) for k in ("E1", "E2"))
    one = K.basis_vec("one")
    assert K.multiply(E1, E1) == E1
    assert K.multiply(E2, E2) == E2
    assert all(c.is_zero() for c in K.multiply(E1, E2))
    assert tuple(a + b for a, b in zip(E1, E2)) == one
    for i in range(K.dim):
        assert K.multiply(one, K.basis_vec(i)) == K.basis_vec(i)


def test_kac_supercommutative(kac):
    _, K10b = kac
    K = K10b.algebra
    for i in range(K.dim):
        for j in range(K.dim):
            sign = -1 if K.parity[i] * K.parity[j] else 1
            lhs = K.multiply(K.basis_vec(i), K.basis_vec(j))
            rhs = K.multiply(K.basis_vec(j), K.basis_vec(i))
            assert lhs == tuple(scalar(sign) * c for c in rhs)


def test_kac_swap_automorphism(kac):
    _, K10b = kac
    K = K10b.algebra
    tau = K10b.extras["tau"]
    assert is_homomorphism(K, K, tau)
    assert tau.order(bound=4) == 2


def test_kac_derivation_dims(kac):
    _, K10b = kac
    K = K10b.algebra
    assert len(derivations(K, 0)) == 6
    assert len(derivations(K, 1)) == 4


def test_kac_grading_type(kac):
    _, K10b = kac
    assert_graded(K10b)
    assert grading_sizes(K10b, "Z^2") == TYPE_K10_Z2


# ---------------------------------------------------------------------------
# the Tits-Kantor-Koecher construction
# ---------------------------------------------------------------------------


def test_tkk_dimensions(tkk10):
    A = tkk10.algebra
    assert A.dim == 40
    assert len(A.even_indices()) == 24
    assert len(A.odd_indices()) == 16
    # the unit of the Kac superalgebra was found
    unit = tuple(tkk10.extras["unit"].get(k, ZERO) for k in range(10))
    assert unit[0] == ONE and all(c.is_zero() for c in unit[1:])


def test_tkk_rejects_a_non_supercommutative_input():
    # the quaternions are associative but not commutative: q1 q2 = -q2 q1
    with pytest.raises(AlgebraError, match=r"^input is not supercommutative at \(q1, q2\)$"):
        build_tkk(build_quaternions().algebra)


def test_tkk_rejects_a_non_derivation_in_der_basis(kac):
    _, K10b = kac
    K = K10b.algebra
    ders = [(m, 0) for m in derivations(K, 0)] + [(m, 1) for m in derivations(K, 1)]
    assert len(ders) > 1
    ders[-1] = (Mat.identity(K.dim), 0)
    with pytest.raises(AlgebraError, match="not a superderivation"):
        build_tkk(K, der_basis=ders)


def test_tkk_even_part_ideals(tkk10, kac):
    from finegrading.superalg import SuperAlgebra

    _, K10b = kac
    A = tkk10.algebra
    ev = A.even_indices()
    pos = {g: k for k, g in enumerate(ev)}
    table = {}
    for (i, j), terms in A.table.items():
        if i in pos and j in pos:
            table[(pos[i], pos[j])] = [(pos[k], c) for k, c in terms]
    evalg = SuperAlgebra(
        [A.names[i] for i in ev], [0] * len(ev), table
    )
    E1, E2 = (dense(K10b.extras[k], 10) for k in ("E1", "E2"))

    def tensor_even(a, jvec):
        v = [ZERO] * len(ev)
        for k, c in enumerate(jvec):
            idx = a * 10 + k
            if idx in pos:
                v[pos[idx]] = c
            elif not c.is_zero():
                raise AssertionError("even projection lost a coefficient")
        return tuple(v)

    small = ideal_generated_by(evalg, [tensor_even(0, E1)])
    big = ideal_generated_by(evalg, [tensor_even(0, E2)])
    assert len(small) == 3
    assert len(big) == 21


def test_tkk_orthogonal_model(tkk10):
    assert verify_tkk_iso_lemma(tkk10)


def test_tkk_orthogonal_model_rejects_scaled_derivation_images(tkk10):
    # images of the derivations twice their action on V (x) V: still skew
    # and independent, but no longer a Lie homomorphism
    ders = [(D.scale(2), p) for D, p in tkk10.extras["der_mats"]]
    wrong = BuiltAlgebra(tkk10.algebra, {}, dict(tkk10.extras, der_mats=ders))
    with pytest.raises(AlgebraError, match="bracket mismatch at generator pair"):
        verify_tkk_iso_lemma(wrong)


# ---------------------------------------------------------------------------
# D(2,1;a)
# ---------------------------------------------------------------------------


def test_d21_dimensions_and_sp_relations(d21):
    A = d21.algebra
    assert A.dim == 17
    assert len(A.even_indices()) == 9
    for l in (1, 2, 3):
        E = A.basis_vec("E%d" % l)
        H = A.basis_vec("H%d" % l)
        F = A.basis_vec("F%d" % l)
        assert A.multiply(E, F) == tuple(scalar(4) * c for c in H)
        assert A.multiply(H, E) == tuple(scalar(-2) * c for c in E)
        assert A.multiply(H, F) == tuple(scalar(2) * c for c in F)


def test_d21_frozen_odd_brackets(d21):
    A = d21.algebra
    lhs = A.multiply(A.basis_vec("uuv"), A.basis_vec("uvu"))
    assert lhs == A.element({"E1": -1})
    alpha = d21.extras["alpha"]
    expect = A.element({"H1": 1, "H2": alpha, "H3": -ONE - alpha})
    assert A.multiply(A.basis_vec("uuu"), A.basis_vec("vvv")) == expect


def test_d21_rejects_degenerate_parameters():
    for bad in (0, -1):
        with pytest.raises(AlgebraError):
            build_D21(bad)


def test_d21_cartan_grading(d21):
    assert_graded(d21)
    assert grading_sizes(d21, "Z^3") == TYPE_D21_CARTAN


_A_MAT = ((IUNIT, 0), (0, -IUNIT))
_B_MAT = ((0, -1), (1, 0))


# every (parameter, non-identity ideal permutation) that gives an automorphism
D21_ADMISSIBLE = [
    (Fraction(-1, 2), (0, 2, 1)),
    (1, (1, 0, 2)),
    (-2, (2, 1, 0)),
    (OMEGA, (1, 2, 0)),
    (OMEGA, (2, 0, 1)),
    (OMEGA * OMEGA, (1, 2, 0)),
    (OMEGA * OMEGA, (2, 0, 1)),
]
D21_ADMISSIBLE_IDS = ["minus-half", "one", "minus-two", "w-cycle", "w-cycle2",
                      "w2-cycle", "w2-cycle2"]


def test_d21_triple_automorphism(d21):
    A = d21.algebra
    phi = d21_ideal_automorphism(d21, fs=(_A_MAT, _A_MAT, _A_MAT))
    assert is_homomorphism(A, A, phi)
    assert phi.order(bound=8) == 4
    # conjugation by diag(i, -i) fixes H and negates E, F
    assert phi(A.basis_vec("E1")) == A.element({"E1": -1})
    assert phi(A.basis_vec("H1")) == A.basis_vec("H1")
    # conjugation by the symplectic rotation swaps E and F, negates H
    psi = d21_ideal_automorphism(d21, fs=(_B_MAT, _B_MAT, _B_MAT))
    assert is_homomorphism(A, A, psi)
    assert psi(A.basis_vec("E2")) == A.basis_vec("F2")
    assert psi(A.basis_vec("H2")) == A.element({"H2": -1})
    # the default is the identity
    assert d21_ideal_automorphism(d21).matrix == Mat.identity(17)


def test_d21_ideal_automorphism_takes_a_mat(d21):
    # f_l may be a Mat or nested rows; both forms give one map
    nested = d21_ideal_automorphism(d21, fs=(_A_SL2, _B_SL2, None))
    as_mat = d21_ideal_automorphism(d21, fs=(Mat(_A_SL2), Mat(_B_SL2), None))
    assert as_mat.matrix == nested.matrix
    assert d21_ideal_automorphism(d21, fs=(Mat(_A_SL2),) * 3).matrix == (
        d21_ideal_automorphism(d21, fs=(_A_SL2,) * 3).matrix
    )


@pytest.mark.parametrize("alpha,perm", D21_ADMISSIBLE, ids=D21_ADMISSIBLE_IDS)
def test_d21_ideal_automorphism_is_bijective_homomorphism(alpha, perm):
    built = build_D21(alpha)
    A = built.algebra
    phi = d21_ideal_automorphism(built, perm, fs=(_B_MAT, _A_MAT, None))
    check_homomorphism(A, A, phi, bijective=True)


def test_d21_cycle_automorphism_needs_omega():
    built = checked(build_D21(OMEGA))
    A = built.algebra
    pi = d21_ideal_automorphism(built, (1, 2, 0))
    assert is_homomorphism(A, A, pi)
    assert pi.order(bound=6) == 3
    # ideal 1 -> 2 -> 3 -> 1; each word is cycled and scaled by a
    assert pi(A.basis_vec("E1")) == A.basis_vec("E2")
    assert pi(A.basis_vec("H3")) == A.basis_vec("H1")
    assert pi(A.basis_vec("uuv")) == A.element({"vuu": OMEGA})


def test_d21_cycle_automorphism_at_omega_squared():
    built = checked(build_D21(OMEGA * OMEGA))
    A = built.algebra
    pi = d21_ideal_automorphism(built, (1, 2, 0))
    assert is_homomorphism(A, A, pi)
    assert pi.order(bound=6) == 3
    assert pi(A.basis_vec("uuv")) == A.element({"vuu": OMEGA * OMEGA})
    # the other 3-cycle scales by the third entry of sigma, -1 - a = w
    rho = d21_ideal_automorphism(built, (2, 0, 1))
    assert rho(A.basis_vec("F1")) == A.basis_vec("F3")
    assert rho(A.basis_vec("uuv")) == A.element({"uvu": OMEGA})


@pytest.mark.parametrize("alpha", [None, 2, Fraction(-1, 2)], ids=["symbolic", "two", "minus-half"])
def test_d21_cycle_automorphism_rejects_other_parameters(alpha):
    built = build_D21(alpha)
    with pytest.raises(AlgebraError, match="ideal 1 cannot go to ideal 2"):
        d21_ideal_automorphism(built, (1, 2, 0))


def test_d21_swap_automorphism_at_minus_half(d21):
    built = checked(build_D21(Fraction(-1, 2)))
    A = built.algebra
    phi = d21_ideal_automorphism(built, (0, 2, 1))
    assert is_homomorphism(A, A, phi)
    assert phi.order(bound=4) == 2
    assert phi(A.basis_vec("E2")) == A.basis_vec("E3")
    assert phi(A.basis_vec("E3")) == A.basis_vec("E2")
    assert phi(A.basis_vec("uuv")) == A.basis_vec("uvu")
    # the plain swap is not an automorphism at a generic parameter
    with pytest.raises(AlgebraError, match="ideal 2 cannot go to ideal 3"):
        d21_ideal_automorphism(d21, (0, 2, 1))
    # the decorated swap of order 4: B on ideal 1 and on ideal 2 on its way to 3
    phi4 = d21_ideal_automorphism(built, (0, 2, 1), fs=(_B_MAT, _B_MAT, None))
    assert is_homomorphism(A, A, phi4)
    assert phi4.order(bound=8) == 4
    assert phi4(A.basis_vec("E2")) == A.basis_vec("F3")
    assert phi4(A.basis_vec("E3")) == A.basis_vec("E2")


@pytest.mark.parametrize(
    "alpha,perm",
    [(None, (1, 0, 2)), (2, (1, 0, 2)), (2, (2, 1, 0)), (Fraction(-1, 2), (2, 0, 1))],
    ids=["symbolic-12", "two-12", "two-13", "minus-half-cycle"],
)
def test_d21_ideal_automorphism_rejects_inadmissible_permutation(alpha, perm):
    built = build_D21(alpha)
    with pytest.raises(AlgebraError, match=r"ideal \d cannot go to ideal \d at a = "):
        d21_ideal_automorphism(built, perm)


@pytest.mark.parametrize(
    "perm,fs,message",
    [
        ((0, 1, 1), None, "permutation"),
        ((0, 1), None, "permutation"),
        ((0, 1, 3), None, "permutation"),
        ((0, 1, 2), (_A_MAT, ((2, 0), (0, 1)), None), "f_2 must have determinant 1, got 2"),
        ((0, 1, 2), (None, ((2, 0), (0, 1)), None), "f_2 must have determinant 1, got 2"),
        ((0, 1, 2), (None, ((1, 1), (1, 1)), None), "f_2 must have determinant 1, got 0"),
        ((0, 1, 2), (None, None, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
         "f_3 must be a 2x2 matrix, got 3x3"),
        ((0, 1, 2), (_A_MAT, None), "one SL2 matrix per ideal"),
    ],
    ids=["repeated", "short", "out-of-range", "not-sl2", "not-sl2-alone", "singular",
         "not-2x2", "two-matrices"],
)
def test_d21_ideal_automorphism_rejects_bad_arguments(d21, perm, fs, message):
    with pytest.raises(AlgebraError, match=message):
        d21_ideal_automorphism(d21, perm, fs)


# ---------------------------------------------------------------------------
# G(3)
# ---------------------------------------------------------------------------


def test_g3_dimensions(g3):
    A = g3.algebra
    assert A.dim == 31
    assert len(A.even_indices()) == 17
    assert len(A.odd_indices()) == 14


def test_g3_pairing_space_dimension(g3):
    assert g3.extras["pairing_count"] == 2


def test_g3_cartan_grading(g3):
    assert_graded(g3)
    assert grading_sizes(g3, "Z^3") == TYPE_G3_CARTAN


# ---------------------------------------------------------------------------
# F(4), three models
# ---------------------------------------------------------------------------


def test_f4_rejects_unknown_model():
    with pytest.raises(AlgebraError):
        build_F4("bogus")


def test_f4_unknown_model_raises_before_anything_is_built(monkeypatch):
    def refuse():
        raise AssertionError("a model was built")

    for name in ("_build_f4_cayley", "_build_f4_tkk", "_build_f4_quaternion"):
        monkeypatch.setattr(constructions, name, refuse)
    with shared_builds():
        with pytest.raises(AlgebraError, match="unknown model 'bogus'"):
            build_F4("bogus")
        assert constructions._SHARED == {}
    assert constructions._SHARED is None


def test_f4_builds_afresh_outside_shared_builds():
    assert constructions._SHARED is None
    assert build_F4("tkk") is not build_F4("tkk")


def test_shared_builds_hands_each_model_on_once(monkeypatch):
    # a fresh object per build stands in for the builders
    monkeypatch.setattr(constructions, "_build_f4_tkk", object)
    monkeypatch.setattr(constructions, "_build_f4_cayley", object)
    monkeypatch.setattr(constructions, "_build_g3", object)
    with shared_builds():
        tkk, g3 = build_F4("tkk"), build_G3()
        assert build_F4("cayley") is not tkk
        assert build_F4("tkk") is tkk and build_G3() is g3
        assert list(constructions._SHARED) == [("F4", "cayley")]
        assert build_F4("tkk") is not tkk
    assert constructions._SHARED is None
    assert build_G3() is not build_G3()


def test_f4_cayley_dimensions(f4_cayley):
    A = f4_cayley.algebra
    assert A.dim == 40
    assert len(A.even_indices()) == 24
    assert f4_cayley.extras["pairing_count"] == 2


def test_f4_cayley_spin_property(f4_cayley):
    # [rho(B), l_c] = l_{B(c)} for a sample of so7 pairs
    C = f4_cayley.extras["cayley"]
    cz = f4_cayley.extras["zero_part"]
    wb = f4_cayley.extras["weight_basis"]
    P, Pinv = wb["P"], wb["Pinv"]
    A = C.algebra
    lmats = [A.ad_matrix(A.basis_vec(k)) for k in range(8)]

    def lmat(v):
        m = Mat.zeros(8, 8)
        for k, c in enumerate(v):
            if not c.is_zero():
                m = m + lmats[k].scale(c)
        return m

    rho = f4_cayley.extras["rho"]
    mats7 = f4_cayley.extras["so7_mats"]  # 7x7, in the e1..e7 coordinates
    for t in (0, 5, 11, 20):
        R8 = P * rho[t] * Pinv
        for c in range(7):
            w = dense(cz["vectors"][c], 8)
            lc = lmat(w)
            lhs = R8 * lc - lc * R8
            img7 = mats7[t].apply(tuple(w)[1:])
            img8 = (ZERO,) + tuple(img7)
            assert lhs == lmat(img8)


def test_f4_cayley_cartan_grading(f4_cayley):
    assert_graded(f4_cayley)
    assert grading_sizes(f4_cayley, "Z^4") == TYPE_F4_CARTAN


def test_f4_tkk_grading_and_symmetries(f4_tkk):
    A = f4_tkk.algebra
    assert A.dim == 40
    assert_graded(f4_tkk)
    assert grading_sizes(f4_tkk, "Z^2 x Z_2 x Z_2") == TYPE_F4_TKK
    tau_hat = f4_tkk.extras["tau_hat"]
    assert is_homomorphism(A, A, tau_hat)
    assert tau_hat.order(bound=4) == 2
    for auto in f4_tkk.extras["ad_q"]:
        assert is_homomorphism(A, A, auto)
        assert auto.order(bound=4) in (1, 2)


def test_f4_quaternion_generators(f4_quaternion):
    Tw = f4_quaternion.extras["generators"]
    assert f4_quaternion.extras["generator_squares"] == W_SQUARES
    ident = Mat.identity(16)
    for k in range(7):
        assert Tw[k] * Tw[k] == ident.scale(scalar(W_SQUARES[k]))
        for l in range(k + 1, 7):
            anti = Tw[k] * Tw[l] + Tw[l] * Tw[k]
            assert anti.is_zero()


def test_f4_quaternion_dimensions_and_grading(f4_quaternion):
    A = f4_quaternion.algebra
    assert A.dim == 40
    assert len(A.even_indices()) == 24
    assert f4_quaternion.extras["pairing_count"] == 2
    assert_graded(f4_quaternion)
    assert grading_sizes(f4_quaternion, "Z_4 x Z_2 x Z_2 x Z_2") == TYPE_F4_QUAT


def test_f4_quaternion_degree_zero_pairings_lose_nothing(f4_quaternion):
    # the Z_4 x Z_2^3 grading is not given by ad of g0 elements, yet the
    # degree-0 pairings span every equivariant pairing
    g0, action = f4_quaternion.extras["g0"], f4_quaternion.extras["action"]
    degrees = f4_quaternion.grading("Z_4 x Z_2 x Z_2 x Z_2")[1]
    graded = invariant_pairings(g0, action, degrees=degrees)
    full = invariant_pairings(g0, action)
    keys = sorted({(ij, k) for b in graded + full for ij in b for k in range(g0.dim)})

    def flat(b):
        return [b[ij].get(k, ZERO) if ij in b else ZERO for ij, k in keys]

    vecs = [flat(b) for b in graded + full]
    assert len(graded) == len(full) == 2
    assert rank(Mat.from_cols(vecs, nrows=len(keys))) == 2


def test_built_algebra_grading_lookup(quats):
    with pytest.raises(AlgebraError):
        quats.grading("Z^9")


@pytest.mark.parametrize("fixture", sorted(STRUCTURE_DIGESTS))
def test_structure_constants_are_pinned(fixture, request):
    built = request.getfixturevalue(fixture)
    digest = hashlib.sha256(dumps_algebra(built.algebra).encode()).hexdigest()
    assert digest == STRUCTURE_DIGESTS[fixture]


@pytest.mark.parametrize(
    "fixture, count", [("g3", 13), ("f4_cayley", 15), ("f4_quaternion", 8)]
)
def test_generating_indices_match_the_from_scratch_closures(fixture, count, request):
    # oracle: keep idx when the closure of the kept indices plus idx, each
    # computed from scratch, is larger than the closure without it
    g0 = request.getfixturevalue(fixture).extras["g0"]
    chosen, dim = [], 0
    for idx in range(g0.dim):
        if dim == g0.dim:
            break
        d = len(lie_closure(g0, [g0.basis_vec(i) for i in chosen + [idx]]))
        if d > dim:
            chosen, dim = chosen + [idx], d
    assert _generating_indices(g0) == chosen
    assert len(chosen) == count


@pytest.mark.parametrize(
    "fixture, count",
    [("f4_cayley", 10), ("f4_tkk", 6), ("f4_quaternion", 4), ("tkk10", 6), ("g3", 9), ("d21", 7)],
)
def test_generating_indices_generate_each_model(fixture, count, request):
    A = request.getfixturevalue(fixture).algebra
    gens = _generating_indices(A)
    assert len(gens) == count
    assert len(_closure(A, [{g: ONE} for g in gens])) == A.dim


@pytest.mark.parametrize("which", ["K10", "cayley"])
def test_generating_indices_of_a_non_lie_model_span_by_full_closure(which, kac, cayley):
    A = kac[1].algebra if which == "K10" else cayley.algebra
    gens = _generating_indices(A)
    assert len(_closure(A, [{g: ONE} for g in gens])) == A.dim
