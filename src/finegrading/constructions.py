"""Exact models of the algebras behind the three exceptional families.

Builders return a :class:`BuiltAlgebra`: the algebra with exact structure
constants, the gradings that come for free with the chosen basis (one degree
per basis vector), and model-specific extras (distinguished elements,
matrices, index layouts) consumed by the grading catalog and the verifiers.

The constructions, bottom to top:

* split quaternions and the split Cayley algebra, with their sign gradings
  and a distinguished eigenbasis for the two-torus of Cayley derivations;
* the three-dimensional Kaplansky superalgebra and the ten-dimensional Kac
  Jordan superalgebra built from two copies of it;
* a Tits-Kantor-Koecher style functor  J  ->  (sl2 (x) J) + der(J);
* D(2,1;a) by explicit structure constants, symbolically in the parameter,
  with its automorphisms that permute the three sp(V) ideals;
* G(3) and F(4), each assembled as g0 + g1 by solving for the equivariant
  pairing S^2 g1 -> g0 of degree 0 in the model's own grading and the odd
  Jacobi constraint, in the basis the model is built in.  F(4) is built three
  times — Cayley/spin model, TKK over the Kac superalgebra, quaternionic
  model — because each model makes different fine gradings visible.

Every builder writes its literals sparse and assembles its tables along one
path.  Vectors and distinguished elements (the Cayley weight basis, the
idempotents of K10) are ``{index: Scalar}`` dicts and matrices are built from
sparse columns; the dense element API of
:class:`~finegrading.superalg.SuperAlgebra` is a view for users only.
Brackets of matrices are written by
:func:`~finegrading.superalg._commutator_table` (one supercommutator per
unordered pair, the mirror entry by super-antisymmetry), actions by matrices
by ``_action_table`` (one entry per nonzero column), the sl2 part of the
models by ``_quaternion_brackets`` (commutators read off a table) or by the
one ``_sl2_table`` and the one action ``_SL2_ON_V`` on V = (u, v), the so7
part of the quaternion model by ``_straighten`` (the word straightening that
also writes the Clifford tables of
:func:`~finegrading.clifford.clifford_algebra`), and linear combinations of
matrices by ``linalg._lincomb``.  Derivations of K3 lift into K10 as
kron(D, I3) and kron(diag(signs), D), and ``_weight_split`` splits commuting
operators into weight vectors.  G(3) and the Cayley model of F(4) are both
sl2 + g' acting on V (x) W; the one routine ``_sl2_tensor_model`` builds that
g0, its action and degrees, and solves for the odd bracket.

The builders check the data they are given (Leibniz rules, closure, unique
odd bracket) but not the Lie superalgebra axioms of what they return; run
:func:`~finegrading.superalg.check_lie_super` on ``built.algebra`` for that.
Every call builds afresh, except inside a :class:`shared_builds` block, where
``build_F4`` and ``build_G3`` hand each model they build to the next call for
the same model.
"""

from __future__ import annotations

from fractions import Fraction

from .abgroup import GradingGroup
from .errors import AlgebraError
from .linalg import (
    Mat,
    _accumulate,
    _apply_columns,
    _entries,
    _lincomb,
    diag,
    inverse,
    joint_eigenspaces,
    kron,
    rank,
    span_solver,
)
from .scalars import ALPHA, HALF, IUNIT, MINUS_ONE, ONE, ZERO, scalar
from .superalg import (
    LinMap,
    ModuleAction,
    SuperAlgebra,
    _asymmetric_pair,
    _commutator,
    _commutator_table,
    _product,
    _respects_product,
    _unit,
    change_basis,
    check_lie_super,
    complete_superalgebra,
    derivation_superalgebra,
    derivations,
    invariant_pairings,
    is_derivation,
)

__all__ = [
    "BuiltAlgebra",
    "build_quaternions",
    "build_cayley",
    "cayley_weight_basis",
    "build_kaplansky",
    "build_kac",
    "build_tkk",
    "verify_tkk_iso_lemma",
    "build_D21",
    "build_G3",
    "build_F4",
    "d21_ideal_automorphism",
    "shared_builds",
]


class BuiltAlgebra:
    """An algebra plus the gradings and auxiliary data of its construction.

    ``gradings`` maps a label (the group literal) to a pair
    ``(GradingGroup, degrees)`` with one group element per basis vector.
    ``extras`` is a free-form dict of model data.
    """

    def __init__(self, algebra, gradings=None, extras=None):
        self.algebra = algebra
        self.gradings = dict(gradings or {})
        self.extras = dict(extras or {})

    @property
    def dim(self):
        return self.algebra.dim

    def grading(self, label):
        try:
            return self.gradings[label]
        except KeyError:
            raise AlgebraError(
                "no grading labelled %r (have %s)"
                % (label, ", ".join(sorted(self.gradings)) or "none")
            ) from None

    def __repr__(self):
        return "BuiltAlgebra(%r, gradings=%s)" % (
            self.algebra,
            sorted(self.gradings),
        )


# Models kept for the next call inside a ``shared_builds`` block, by key.
_SHARED = None


class shared_builds:
    """Block in which each model of build_F4 and build_G3 is built once.

    Inside ``with shared_builds():`` the model that a call builds is kept
    for the next call that asks for the same model, which gets that very
    object and releases it; a third call builds afresh.  Outside the block
    every call builds afresh.  ``theorem-check`` runs its axiom records and
    then its catalog in one block, so each model is built once and is freed
    after its second use.

    It is a block and not an explicit hand-off of built models between the
    two callers, because the benchmark's trace check pins the number of
    ``build_F4`` calls of ``theorem-check f4`` at six: each caller still
    calls the builder, and only the work of the second call goes away.  It
    is not a process-wide cache, because keeping every model alive to the
    end of the run raised peak RSS by 17 %.  (A class, since a generator
    block would count as two calls in a profile.)
    """

    def __enter__(self):
        global _SHARED
        _SHARED = {}
        return self

    def __exit__(self, *exc_info):
        global _SHARED
        _SHARED = None
        return False


def _shared(key, make):
    """make(), or inside ``shared_builds`` the model a previous call kept."""
    if _SHARED is None:
        return make()
    built = _SHARED.pop(key, None)
    if built is None:
        built = _SHARED[key] = make()
    return built


# ---------------------------------------------------------------------------
# small matrix helpers
# ---------------------------------------------------------------------------


def _int_of(s):
    """Exact integer value of a constant scalar."""
    f = scalar(s).constant_value().to_fraction()
    if f.denominator != 1:
        raise AlgebraError("expected an integer, got %s" % f)
    return int(f)


def _action_table(mats, copies, first):
    """Action-table entries of the basis vectors first, first + 1, ... acting
    by the n x n ``mats`` on each of ``copies`` consecutive copies of an
    n-dimensional module: column c of mats[r] is the entry at
    (first + r, slot * n + c), moved to the slot's copy, for every slot."""
    table = {}
    for r, m in enumerate(mats):
        n = m.ncols
        for c, col in enumerate(m.columns):
            col = sorted(col.items())
            if col:
                for slot in range(copies):
                    table[(first + r, slot * n + c)] = [(slot * n + k, v) for k, v in col]
    return table


# ---------------------------------------------------------------------------
# split quaternions
# ---------------------------------------------------------------------------


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def build_quaternions():
    """Split quaternions as 2x2 matrices: q1, q2 of square 1, q3 = q1 q2.

    Basis 1, q1, q2, q3 with q1 = diag(1,-1), q2 the flip, q3 = q1 q2; the
    norm is the determinant and conjugation negates q1, q2, q3.  The sign
    grading by Z_2 x Z_2 assigns q1 -> (1,0) and q2 -> (0,1).
    """
    mats = (
        Mat.identity(2),
        Mat([[1, 0], [0, -1]]),
        Mat([[0, 1], [1, 0]]),
        Mat([[0, 1], [-1, 0]]),
    )

    def coords(m):
        a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        return (
            (a + d) * HALF,
            (a - d) * HALF,
            (b + c) * HALF,
            (b - c) * HALF,
        )

    names = ("1", "q1", "q2", "q3")
    table = {}
    for i in range(4):
        for j in range(4):
            entry = [
                (k, c) for k, c in enumerate(coords(mats[i] * mats[j]))
                if not c.is_zero()
            ]
            table[(i, j)] = entry
    alg = SuperAlgebra(names, (0, 0, 0, 0), table)

    bar = LinMap(alg, alg, diag([ONE, -ONE, -ONE, -ONE]))
    # polar form of the determinant norm, computed rather than postulated
    gram = []
    for i in range(4):
        row = []
        for j in range(4):
            row.append(_det2(mats[i] + mats[j]) - _det2(mats[i]) - _det2(mats[j]))
        gram.append(row)
    gram = Mat(gram)

    group = GradingGroup(0, (2, 2))
    degrees = tuple(
        group.element((), t) for t in ((0, 0), (1, 0), (0, 1), (1, 1))
    )
    extras = {"bar": bar, "norm_gram": gram}
    return BuiltAlgebra(alg, {group.literal(): (group, degrees)}, extras)


def _quaternion_brackets(Qa):
    """Commutators [q_a, q_b] = q_a q_b - q_b q_a of the trace-zero split
    quaternions, read off ``Qa.table``: {(a, b): [(c, coeff), ...]} with
    0, 1, 2 standing for q1, q2, q3, nonzero entries only."""
    out = {}
    for a in range(1, 4):
        for b in range(1, 4):
            acc = _commutator(Qa.table, {a: ONE}, {b: ONE})
            if 0 in acc:
                raise AlgebraError("quaternion commutator has a unit component")
            if acc:
                out[(a - 1, b - 1)] = [(c - 1, v) for c, v in sorted(acc.items())]
    return out


# ---------------------------------------------------------------------------
# split Cayley algebra
# ---------------------------------------------------------------------------

# oriented lines of the multiplication: for (a, b, c) below,
# e_a e_b = e_c,  e_b e_c = e_a,  e_c e_a = e_b, and reversals pick up a sign
_FANO = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))

_CAYLEY_SIGN_DEGREES = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 1, 1),
    (1, 0, 1),
)


def build_cayley():
    """Split Cayley (octonion) algebra on 1, e1..e7 with e_i^2 = -1.

    The norm makes the basis orthogonal with N(1) = N(e_i) = 1, conjugation
    negates the e_i, and the sign grading by Z_2^3 puts e1, e2, e3 on the
    three generators with e4 = e1 e2 etc. on the sums.
    """
    names = ("1",) + tuple("e%d" % i for i in range(1, 8))
    table = {}
    for j in range(8):
        table[(0, j)] = [(j, ONE)]
        table[(j, 0)] = [(j, ONE)]
    for i in range(1, 8):
        table[(i, i)] = [(0, -ONE)]
    for (a, b, c) in _FANO:
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = [(z, ONE)]
            table[(y, x)] = [(z, -ONE)]
    alg = SuperAlgebra(names, (0,) * 8, table)

    bar = LinMap(alg, alg, diag([ONE] + [-ONE] * 7))
    gram = diag([2 * ONE] * 8)
    group = GradingGroup(0, (2, 2, 2))
    degrees = tuple(group.element((), t) for t in _CAYLEY_SIGN_DEGREES)
    extras = {"bar": bar, "norm_gram": gram}
    return BuiltAlgebra(alg, {group.literal(): (group, degrees)}, extras)


def cayley_weight_basis(C):
    """Eigenbasis E1, E2, x1, x2, x3, y1, y2, y3 of the Cayley two-torus.

    E1, E2 are the orthogonal idempotents (1 +- i e1)/2; the x's span the
    weight spaces (1,0), (0,1), (-1,-1) of the torus derivations t1, t2 and
    the y's the opposite ones.  Returns the basis vectors, the base-change
    matrix P (columns in the 1, e1..e7 coordinates), its inverse, t1, t2 as
    matrices, and the weight list.  The vectors are sparse {index: Scalar}
    over 1, e1..e7 and are the columns of P.
    """
    A = C.algebra
    i, h = IUNIT, IUNIT * HALF
    vecs = (
        {0: HALF, 1: h},
        {0: HALF, 1: -h},
        {2: ONE, 4: i},
        {5: ONE, 6: i},
        {3: ONE, 7: i},
        {2: ONE, 4: -i},
        {5: ONE, 6: -i},
        {3: ONE, 7: -i},
    )
    names = ("E1", "E2", "x1", "x2", "x3", "y1", "y2", "y3")
    weights = ((0, 0), (0, 0), (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))
    P = Mat._of(vecs, 8)
    Pinv = inverse(P)
    t1 = P * diag([scalar(v) for v in (0, 0, 1, 0, -1, -1, 0, 1)]) * Pinv
    t2 = P * diag([scalar(v) for v in (0, 0, 0, 1, -1, 0, -1, 1)]) * Pinv
    for t in (t1, t2):
        if not is_derivation(A, t):
            raise AlgebraError("torus element is not a derivation")
    return {
        "names": names,
        "vectors": vecs,
        "weights": weights,
        "P": P,
        "Pinv": Pinv,
        "t1": t1,
        "t2": t2,
    }


def _cayley_zero_part(wb):
    """Weight basis x1, x2, x3, c0 = i e1, y1, y2, y3 of the trace-zero part,
    as sparse vectors over 1, e1..e7."""
    v = wb["vectors"]
    vecs = (v[2], v[3], v[4], {1: IUNIT}, v[5], v[6], v[7])
    names = ("x1", "x2", "x3", "c0", "y1", "y2", "y3")
    weights = ((1, 0), (0, 1), (-1, -1), (0, 0), (-1, 0), (0, -1), (1, 1))
    if any(0 in w for w in vecs):
        raise AlgebraError("trace-zero weight vector has a unit component")
    coords = span_solver(vecs, 8)

    def restrict(D8):
        cols = []
        for w in vecs:
            c = coords(_apply_columns(D8.columns, w))
            if c is None:
                raise AlgebraError("operator does not preserve the trace-zero part")
            cols.append(c)
        return Mat._of(tuple(cols), 7)

    return {
        "names": names,
        "vectors": vecs,
        "weights": weights,
        "restrict": restrict,
    }


# ---------------------------------------------------------------------------
# Kaplansky and Kac superalgebras
# ---------------------------------------------------------------------------


def build_kaplansky():
    """Three-dimensional Kaplansky superalgebra K3 = Fe + (Fv+ + Fv-).

    e is an idempotent acting as 1/2 on the odd part; v+ v- = e = -v- v+.
    The designated grading is by Z with deg v(+-) = +-1.  The extras carry
    the invariant form with (e|e) = 1/2 and (v+|v-) = 1.
    """
    names = ("e", "vp", "vm")
    table = {
        (0, 0): [(0, ONE)],
        (0, 1): [(1, HALF)],
        (1, 0): [(1, HALF)],
        (0, 2): [(2, HALF)],
        (2, 0): [(2, HALF)],
        (1, 2): [(0, ONE)],
        (2, 1): [(0, -ONE)],
    }
    alg = SuperAlgebra(names, (0, 1, 1), table)
    group = GradingGroup(1)
    degrees = tuple(group.element((z,), ()) for z in (0, 1, -1))
    form = Mat([[HALF, ZERO, ZERO], [ZERO, ZERO, ONE], [ZERO, -ONE, ZERO]])
    return BuiltAlgebra(alg, {group.literal(): (group, degrees)}, {"form": form})


def build_kac():
    """The ten-dimensional Kac Jordan superalgebra K10 = F1 + K3 (x) K3.

    Product: (a (x) b)(c (x) d) = (-1)^(|b||c|) ( ac (x) bd
    - 3/4 (a|c)(b|d) 1 ).  Returns (K3, K10) as built algebras.  K10 carries
    the Z^2 grading by the pair of K3 degrees; the extras hold the orthogonal
    idempotents E1, E2 (sparse elements), the factor-swap automorphism tau,
    and the degree data.
    """
    K3b = build_kaplansky()
    K3 = K3b.algebra
    B = K3b.extras["form"]
    zdeg3 = (0, 1, -1)

    names = ["one"] + ["%s.%s" % (a, b) for a in K3.names for b in K3.names]
    parity = [0] + [(K3.parity[a] + K3.parity[b]) % 2 for a in range(3) for b in range(3)]

    def idx(a, b):
        return 1 + 3 * a + b

    table = {}
    for k in range(10):
        table[(0, k)] = [(k, ONE)]
        table[(k, 0)] = [(k, ONE)]
    three_quarters = scalar(Fraction(3, 4))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    sign = MINUS_ONE if (K3.parity[b] * K3.parity[c]) % 2 else ONE
                    terms = []
                    for (s, cs) in K3.product_basis(a, c):
                        for (t, ct) in K3.product_basis(b, d):
                            terms.append((idx(s, t), sign * cs * ct))
                    f = B[a, c] * B[b, d]
                    if not f.is_zero():
                        terms.append((0, -(sign * three_quarters * f)))
                    if terms:
                        table[(idx(a, b), idx(c, d))] = terms
    alg = SuperAlgebra(names, parity, table)

    group = GradingGroup(2)
    zdegrees = [(0, 0)] + [(zdeg3[a], zdeg3[b]) for a in range(3) for b in range(3)]
    degrees = tuple(group.element(z, ()) for z in zdegrees)

    ee = idx(0, 0)
    E1 = {0: -HALF, ee: scalar(2)}
    E2 = {0: scalar(Fraction(3, 2)), ee: scalar(-2)}
    tau_cols = [{0: ONE}]
    for a in range(3):
        for b in range(3):
            sign = MINUS_ONE if (K3.parity[a] * K3.parity[b]) % 2 else ONE
            tau_cols.append({idx(b, a): sign})
    tau = LinMap(alg, alg, Mat._of(tuple(tau_cols), 10))

    extras = {
        "E1": E1,
        "E2": E2,
        "tau": tau,
        "zdegrees": tuple(zdegrees),
        "zweight": tuple(z[0] + z[1] for z in zdegrees),
    }
    K10b = BuiltAlgebra(alg, {group.literal(): (group, degrees)}, extras)
    return K3b, K10b


# ---------------------------------------------------------------------------
# Tits-Kantor-Koecher style construction
# ---------------------------------------------------------------------------


def build_tkk(J, der_basis=None):
    """Lie superalgebra  (sl2 (x) J) + der(J)  for a unital Jordan superalgebra.

    sl2 is realized as the trace-zero split quaternions q1, q2, q3 under the
    commutator; the bracket of two tensors is

        [p (x) x, q (x) y] = [p, q] (x) xy - 2 N(p, q) [L_x, L_y]

    with N the polar norm and [L_x, L_y] the supercommutator of left
    multiplications, rewritten in the derivation basis.  ``der_basis`` may
    supply the derivation basis as (matrix, parity) pairs (checked); by
    default the super-Leibniz kernel is used.  J must be supercommutative and
    unital, and the left multiplications must close into derivations — all of
    which is verified.  The Lie superalgebra axioms of the result are not:
    :func:`~finegrading.superalg.check_lie_super` checks them.
    """
    n = J.dim
    bad = _asymmetric_pair(J, ONE)
    if bad:
        raise AlgebraError("input is not supercommutative at (%s, %s)" % bad)
    unit = _unit(J)
    if unit is None:
        raise AlgebraError("input algebra has no unit")

    evens = derivations(J, 0)
    odds = derivations(J, 1)
    if der_basis is None:
        ders = [(m, 0) for m in evens] + [(m, 1) for m in odds]
    else:
        ders = [(m, p % 2) for (m, p) in der_basis]
        if len(ders) != len(evens) + len(odds):
            raise AlgebraError(
                "derivation basis has %d elements, expected %d"
                % (len(ders), len(evens) + len(odds))
            )
        for (m, p) in ders:
            if not is_derivation(J, m, parity=p):
                raise AlgebraError("supplied matrix is not a superderivation")
    der_mats = [m for (m, _) in ders]
    der_parities = [p for (_, p) in ders]
    der_coords = span_solver([_entries(m) for m in der_mats], n * n)

    def dcoords(mat):
        return der_coords(_entries(mat))

    # [L_x, L_y] of the left multiplications, in the derivation basis
    L = [J._ad({i: ONE}) for i in range(n)]
    lcomm = _commutator_table(L, J.parity, dcoords)

    QB = build_quaternions()
    qbr = _quaternion_brackets(QB.algebra)
    ngram = QB.extras["norm_gram"]

    qnames = ("q1", "q2", "q3")
    names = ["%s[%s]" % (qn, jn) for qn in qnames for jn in J.names]
    names += ["d%d" % r for r in range(len(ders))]
    parity = [J.parity[x] for _ in range(3) for x in range(n)] + der_parities
    off = 3 * n

    table = {}
    minus_two = scalar(-2)
    for a in range(3):
        for b in range(3):
            comm = qbr.get((a, b), ())
            f = minus_two * ngram[a + 1, b + 1]
            for i in range(n):
                for j in range(n):
                    prod = J.product_basis(i, j)
                    terms = [(c * n + k, cc * cf) for c, cc in comm for k, cf in prod]
                    if not f.is_zero():
                        terms += [(off + r, f * cr) for r, cr in lcomm.get((i, j), ())]
                    if terms:
                        table[(a * n + i, b * n + j)] = terms
    # derivations act on each of the three copies of J
    for (d, x), terms in _action_table(der_mats, 3, off).items():
        table[(d, x)] = terms
        sign = MINUS_ONE if der_parities[d - off] & parity[x] else ONE
        table[(x, d)] = [(k, -(sign * c)) for k, c in terms]
    table.update(_commutator_table(der_mats, der_parities, dcoords, shift=off))

    alg = SuperAlgebra(names, parity, table)
    extras = {
        "jordan": J,
        "quaternions": QB,
        "unit": unit,
        "der_mats": ders,
        "der_offset": off,
        "der_coords": der_coords,
    }
    return BuiltAlgebra(alg, {}, extras)


def verify_tkk_iso_lemma(tkkb=None):
    """The 21-dimensional even ideal of tkk(K10) is an orthogonal algebra.

    Inside the even part of tkk(K10), the complement of sl2 (x) E1 is spanned
    by p (x) E2, p (x) (V (x) V) and the even derivations.  On the seven
    dimensional space U = Q0 + (V (x) V), with the quadratic form Q made of
    the quaternion norm and (a (x) b, c (x) d) -> (a|c)(b|d), the map

        p (x) E2   ->  ad_p on Q0,
        p (x) w    ->  Q(p, .) w - Q(w, .) p,
        d          ->  d restricted to V (x) V,

    is checked to be a bijective Lie algebra map onto so(U, Q).  Returns
    True; raises with a witness otherwise.
    """
    if tkkb is None:
        _, K10b = build_kac()
        tkkb = build_tkk(K10b.algebra)
        check_lie_super(tkkb.algebra)
    else:
        K10b = tkkb.extras.get("kac")
        if K10b is None:
            _, K10b = build_kac()
    E2 = K10b.extras["E2"]
    J = tkkb.extras["jordan"]
    QB = tkkb.extras["quaternions"]
    A = tkkb.algebra
    n = J.dim
    off = tkkb.extras["der_offset"]
    ders = tkkb.extras["der_mats"]

    # V (x) V indices inside K10: products of the two odd Kaplansky vectors
    vv = [k for k in range(n) if J.names[k] in ("vp.vp", "vp.vm", "vm.vp", "vm.vm")]
    if len(vv) != 4:
        raise AlgebraError("the Kac superalgebra layout was not recognized")
    K3form = Mat([[ZERO, ONE], [-ONE, ZERO]])  # (vp|vm) = 1 on the odd part

    def vpair(k):
        a, b = J.names[k].split(".")
        return ("vp", "vm").index(a), ("vp", "vm").index(b)

    # U basis: q1, q2, q3 then the four tensors; Gram of Q
    ngram = QB.extras["norm_gram"]
    G = [[ZERO] * 7 for _ in range(7)]
    for a in range(3):
        for b in range(3):
            G[a][b] = ngram[a + 1, b + 1]
    for r, kr in enumerate(vv):
        ar, br = vpair(kr)
        for s, ks in enumerate(vv):
            as_, bs = vpair(ks)
            G[3 + r][3 + s] = K3form[ar, as_] * K3form[br, bs]
    G = Mat(G)

    # domain basis in tkk coordinates, as sparse elements
    def tensor_vec(a, jvec):
        return {a * n + k: c for k, c in jvec.items()}

    dom = []
    images = []
    qbr = _quaternion_brackets(QB.algebra)
    for a in range(3):
        dom.append(tensor_vec(a, E2))
        cols = tuple(dict(qbr.get((a, b), ())) for b in range(3))
        images.append(Mat._of(cols + ({},) * 4, 7))
    # p (x) w generators
    for a in range(3):
        for r, kr in enumerate(vv):
            dom.append(tensor_vec(a, {kr: ONE}))
            cols = tuple(
                {k: x for k, x in ((3 + r, G[xi, a]), (a, -G[xi, 3 + r])) if x.num}
                for xi in range(7)
            )
            images.append(Mat._of(cols, 7))
    # even derivations
    for ridx, (D, p) in enumerate(ders):
        if p:
            continue
        dom.append({off + ridx: ONE})
        cols = []
        for ks in vv:
            w = D.columns[ks]
            if any(k not in vv for k in w):
                raise AlgebraError("even derivation leaks outside V (x) V")
            cols.append({3 + t: w[kt] for t, kt in enumerate(vv) if kt in w})
        images.append(Mat._of(({},) * 3 + tuple(cols), 7))

    if len(dom) != 21:
        raise AlgebraError("expected 21 generators, got %d" % len(dom))
    if rank(Mat._of(tuple(_entries(m) for m in images), 49)) != 21:
        raise AlgebraError("the images do not span a 21-dimensional space")
    for m in images:
        if (m.transpose() * G + G * m) != Mat.zeros(7, 7):
            raise AlgebraError("an image is not skew for the quadratic form")
    fail = _respects_product(A.table, dom, images, span_solver(dom, A.dim))
    if fail is not None:
        i, j, closed = fail
        if not closed:
            raise AlgebraError("the 21-dimensional space is not closed")
        raise AlgebraError("bracket mismatch at generator pair (%d, %d)" % (i, j))
    return True


# ---------------------------------------------------------------------------
# D(2,1;a)
# ---------------------------------------------------------------------------

_WORDS = ("uuu", "uuv", "uvu", "uvv", "vuu", "vuv", "vvu", "vvv")


def _b_sympl(x, y):
    if x == "u" and y == "v":
        return 1
    if x == "v" and y == "u":
        return -1
    return 0


def _gamma_offset(x, y):
    # gamma_{uu} -> E (0), gamma_{uv} -> H (1), gamma_{vv} -> F (2)
    if x == y:
        return 0 if x == "u" else 2
    return 1


def build_D21(alpha=None):
    """The family D(2,1;a) on sp(V1) + sp(V2) + sp(V3) acting on V1icV2icV3.

    Even part: three sp(V) copies with basis E_l = gamma_uu, H_l = gamma_uv,
    F_l = gamma_vv; odd part: the eight tensor words in u, v.  The odd
    bracket weights the three symplectic components by 1, a, -1-a.  With
    ``alpha=None`` the parameter stays symbolic; values 0 and -1 are
    rejected (the algebra degenerates there).
    """
    avalue = ALPHA if alpha is None else scalar(alpha)
    if avalue.is_zero() or (avalue + ONE).is_zero():
        raise AlgebraError("the parameter must avoid 0 and -1")
    sigma = (ONE, avalue, -ONE - avalue)

    sp_names = []
    for l in (1, 2, 3):
        sp_names += ["E%d" % l, "H%d" % l, "F%d" % l]
    names = sp_names + list(_WORDS)
    parity = [0] * 9 + [1] * 8
    word_at = {w: 9 + k for k, w in enumerate(_WORDS)}

    table = {}
    sl2 = _sl2_table()
    for l in range(3):
        for (i, j), terms in sl2.items():
            table[(3 * l + i, 3 * l + j)] = [(3 * l + k, c) for k, c in terms]
        for g, rules in enumerate(_SL2_ON_V):
            gi = 3 * l + g
            for w in _WORDS:
                rule = rules.get(w[l])
                if rule is None:
                    continue
                letter, coeff = rule
                w2 = w[:l] + letter + w[l + 1:]
                wi = word_at[w]
                table[(gi, wi)] = [(word_at[w2], coeff)]
                table[(wi, gi)] = [(word_at[w2], -coeff)]

    others = ((1, 2), (0, 2), (0, 1))
    for w in _WORDS:
        for w2 in _WORDS:
            terms = []
            for l in range(3):
                m1, m2 = others[l]
                bv = _b_sympl(w[m1], w2[m1]) * _b_sympl(w[m2], w2[m2])
                if bv == 0:
                    continue
                f = sigma[l] if bv == 1 else -sigma[l]
                terms.append((3 * l + _gamma_offset(w[l], w2[l]), f))
            if terms:
                table[(word_at[w], word_at[w2])] = terms

    alg = SuperAlgebra(names, parity, table)

    group = GradingGroup(3)
    degrees = []
    for l in range(3):
        base = [0, 0, 0]
        for g, wt in ((0, -2), (1, 0), (2, 2)):
            d = list(base)
            d[l] = wt
            degrees.append(group.element(d, ()))
    for w in _WORDS:
        degrees.append(
            group.element([(-1 if c == "u" else 1) for c in w], ())
        )
    extras = {"alpha": avalue, "sigma": sigma, "words": _WORDS, "word_at": word_at}
    return BuiltAlgebra(alg, {group.literal(): (group, tuple(degrees))}, extras)


def _check_sl2(f, name):
    if f.shape != (2, 2):
        raise AlgebraError("%s must be a 2x2 matrix, got %dx%d" % ((name,) + f.shape))
    det = _det2(f)
    if det != ONE:
        raise AlgebraError("%s must have determinant 1, got %s" % (name, det))


def _gamma_images(f):
    """Images of (E, H, F) under conjugation by f in SL2, as coordinate columns.

    Conjugation sends gamma_{u,v} to gamma_{f(u),f(v)}; expanding bilinearly
    with f(u) = p u + r v, f(v) = q u + s v gives the three columns below.
    """
    p, q, r, s = f[0, 0], f[0, 1], f[1, 0], f[1, 1]
    colE = (p * p, 2 * p * r, r * r)
    colH = (p * q, p * s + q * r, r * s)
    colF = (q * q, 2 * q * s, s * s)
    return colE, colH, colF


def d21_ideal_automorphism(built, perm=(0, 1, 2), fs=None):
    """The automorphism sending ideal l to ideal perm[l] through f_l in SL2.

    Even part: x in sp(V_l) goes to f_l x f_l^-1 in sp(V_perm[l]).  Odd part:
    the letter at word position l moves to position perm[l] through f_l, and
    the whole odd part is scaled by c = sigma[perm[0]], where
    sigma = (1, a, -1-a) weights the odd bracket.  Each f_l is a Mat or
    nested rows; a missing ``fs``, or an entry None in it, stands for the
    identity.  The map respects the bracket exactly when
    sigma[l] = c^2 sigma[perm[l]] for every l; otherwise
    AlgebraError names the first ideal that fails.  Besides the identity this
    admits the transposition of the two ideals with equal sigma (a = -1/2, 1
    or -2) and both 3-cycles when a^2 + a + 1 = 0.
    """
    perm = tuple(perm)
    if len(perm) != 3 or set(perm) != {0, 1, 2}:
        raise AlgebraError("expected a permutation of (0, 1, 2), got %r" % (perm,))
    fs = (None,) * 3 if fs is None else tuple(fs)
    if len(fs) != 3:
        raise AlgebraError("expected one SL2 matrix per ideal, got %d" % len(fs))
    fs = tuple(
        Mat.identity(2) if f is None else f if isinstance(f, Mat) else Mat(f) for f in fs
    )
    for l, f in enumerate(fs):
        _check_sl2(f, "f_%d" % (l + 1))
    sigma = built.extras["sigma"]
    c = sigma[perm[0]]
    for l in range(3):
        image = c * c * sigma[perm[l]]
        if sigma[l] != image:
            raise AlgebraError(
                "ideal %d cannot go to ideal %d at a = %s: sigma_%d = %s but "
                "c^2 sigma_%d = %s with c = %s"
                % (l + 1, perm[l] + 1, sigma[1], l + 1, sigma[l], perm[l] + 1, image, c)
            )
    cols = []
    for l in range(3):
        for im in _gamma_images(fs[l]):
            cols.append({3 * perm[l] + k: x for k, x in enumerate(im) if x.num})
    word_at = built.extras["word_at"]
    for w in _WORDS:
        col = {}
        for w2 in _WORDS:
            coeff = c
            for l in range(3):
                coeff = coeff * fs[l]["uv".index(w2[perm[l]]), "uv".index(w[l])]
            if coeff.num:
                col[word_at[w2]] = coeff
        cols.append(col)
    return LinMap(built.algebra, built.algebra, Mat._of(tuple(cols), 17))


# ---------------------------------------------------------------------------
# G(3)
# ---------------------------------------------------------------------------


# the action of (E, H, F) = (gamma_uu, gamma_uv, gamma_vv) on the natural
# module V = (u, v): per basis element, {letter: (image letter, coeff)};
# E: v -> 2u, H: u -> -u, v -> v, F: u -> -2v
_SL2_ON_V = (
    {"v": ("u", scalar(2))},
    {"u": ("u", MINUS_ONE), "v": ("v", ONE)},
    {"u": ("v", scalar(-2))},
)


def _sl2_table():
    # brackets of (E, H, F) acting on column vectors (u, v), from the matrix
    # commutators
    return {
        (0, 2): [(1, scalar(4))],
        (2, 0): [(1, scalar(-4))],
        (1, 0): [(0, scalar(-2))],
        (0, 1): [(0, scalar(2))],
        (1, 2): [(2, scalar(2))],
        (2, 1): [(2, scalar(-2))],
    }


def _sl2_tensor_model(group, g_names, g_table, g_degrees, w_names, w_mats, w_degrees):
    """sl2 + g' acting on V (x) W, completed by its odd bracket.

    g' has the basis ``g_names`` and the table ``g_table`` and acts on W by
    ``w_mats``; sl2 = (E, H, F) acts on the natural module V = (u, v).  The
    basis is E, H, F, g', then u (x) W and v (x) W.  The degrees live in the
    free group ``group`` with the H-weight first: -2, 0, 2 on sl2, 0 followed
    by ``g_degrees`` on g', and -1 or 1 followed by ``w_degrees`` on the odd
    part (both lists of int tuples).  The odd bracket is the unique (up to scale) degree-0 equivariant
    pairing that satisfies the odd Jacobi identity.
    """
    table0 = _sl2_table()
    for (i, j), terms in g_table.items():
        table0[(3 + i, 3 + j)] = [(3 + k, c) for k, c in terms]
    g0 = SuperAlgebra(["E", "H", "F"] + list(g_names), (0,) * (3 + len(g_names)), table0)

    nw = len(w_names)
    mtab = {}
    # sl2 on the first slot: letter x of V is the copy "uv".index(x) of W
    for c in range(nw):
        for g, rules in enumerate(_SL2_ON_V):
            for x, (y, coeff) in rules.items():
                mtab[(g, "uv".index(x) * nw + c)] = [("uv".index(y) * nw + c, coeff)]
    mtab.update(_action_table(w_mats, 2, 3))
    m_names = ["%s.%s" % (v, nm) for v in "uv" for nm in w_names]
    action = ModuleAction(g0, m_names, mtab)

    rest = (0,) * (group.free_rank - 1)
    degrees = [group.element((h,) + rest, ()) for h in (-2, 0, 2)]
    degrees += [group.element((0,) + d, ()) for d in g_degrees]
    degrees += [group.element((h,) + d, ()) for h in (-1, 1) for d in w_degrees]
    pairings = invariant_pairings(g0, action, degrees=degrees)
    alg, _ = complete_superalgebra(g0, action, pairings)
    extras = {
        "g0": g0,
        "action": action,
        "pairing_count": len(pairings),
        "sl2_indices": (0, 1, 2),
    }
    return BuiltAlgebra(alg, {group.literal(): (group, tuple(degrees))}, extras)


def _weight_split(ops, candidates):
    """Joint eigenbasis of the commuting operators ``ops``, each with the
    integer eigenvalue ``candidates``.

    Returns (vectors, tags): sparse coordinate vectors and their integer
    eigenvalue tuples, in deterministic order.
    """
    blocks = joint_eigenspaces(ops, [list(candidates)] * len(ops), ops[0].nrows)
    vectors, tags = [], []
    for tag, vecs in blocks:
        vectors += vecs
        tags += [tuple(_int_of(t) for t in tag)] * len(vecs)
    return vectors, tags


def build_G3():
    """G(3) = (sl2 + der(C)) + V (x) C0 over the split Cayley algebra C.

    The even part pairs sl2 with the 14-dimensional derivation algebra of C;
    the odd part is the tensor of the natural 2-dimensional sl2 module with
    the trace-zero part of C.  The odd bracket is found as the unique (up to
    scale) equivariant symmetric pairing satisfying the odd Jacobi identity.
    The designated grading is by the Cartan weights (a Z^3 grading).
    Inside :class:`shared_builds`, two calls share one build.
    """
    return _shared(("G3",), _build_g3)


def _build_g3():
    C = build_cayley()
    wb = cayley_weight_basis(C)
    cz = _cayley_zero_part(wb)
    der_alg, der_mats = derivation_superalgebra(C.algebra)
    if der_alg.dim != 14:
        raise AlgebraError(
            "expected 14 Cayley derivations, found %d" % der_alg.dim
        )
    der_coords = span_solver([_entries(m) for m in der_mats], 64)
    t1c = der_coords(_entries(wb["t1"]))
    t2c = der_coords(_entries(wb["t2"]))
    if t1c is None or t2c is None:
        raise AlgebraError("torus elements are not in the derivation span")

    g2_vecs, g2_tags = _weight_split([der_alg._ad(t1c), der_alg._ad(t2c)], range(-2, 3))
    seen = {}
    g2_names = []
    for tag in g2_tags:
        seen[tag] = seen.get(tag, 0) + 1
        base = "g(%d,%d)" % tag
        g2_names.append(base if seen[tag] == 1 else "%s#%d" % (base, seen[tag]))
    g2w = change_basis(der_alg, Mat._of(tuple(g2_vecs), 14), names=g2_names)
    g2w_mats = [_lincomb(v, der_mats) for v in g2_vecs]

    built = _sl2_tensor_model(
        GradingGroup(3), g2_names, g2w.table, g2_tags,
        cz["names"], [cz["restrict"](m) for m in g2w_mats], cz["weights"],
    )
    built.extras.update(
        {"cayley": C, "weight_basis": wb, "zero_part": cz, "g2_matrices": g2w_mats}
    )
    return built


# ---------------------------------------------------------------------------
# F(4), three models
# ---------------------------------------------------------------------------


def _build_f4_cayley():
    C = build_cayley()
    wb = cayley_weight_basis(C)
    cz = _cayley_zero_part(wb)
    A = C.algebra
    cbv = cz["vectors"]
    # weights of the trace-zero basis for the orthogonal Cartan c1, c2, c3
    wt3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1))

    # the trace-zero vectors in the e1..e7 coordinates
    v7 = [{k - 1: c for k, c in w.items()} for w in cz["vectors"]]
    pairs = [(r, s) for r in range(7) for s in range(r + 1, 7)]
    so7_names = ["B(%s,%s)" % (cz["names"][r], cz["names"][s]) for (r, s) in pairs]
    so7_wt = [tuple(a + b for a, b in zip(wt3[r], wt3[s])) for (r, s) in pairs]

    # M_{w,w'}(e_j) = q(w', e_j) w - q(w, e_j) w' with q = -N, N(w, e_j) = 2 w_j
    def pair_mat(r, s):
        w, wp = v7[r], v7[s]
        cols = tuple({} for _ in range(7))
        for j, x in wp.items():
            _accumulate(cols[j], -2 * x, w.items())
        for j, x in w.items():
            _accumulate(cols[j], 2 * x, wp.items())
        return Mat._of(cols, 7)

    so7_mats = [pair_mat(r, s) for (r, s) in pairs]
    # coordinates in the pair basis, through the elementary skew basis: the
    # entries X[b, a] below the diagonal, halved (w_a w'_b - w_b w'_a for M)
    epair = {p: k for k, p in enumerate(pairs)}

    def lower(X):
        return {
            epair[a, b]: x * HALF
            for a, col in enumerate(X.columns) for b, x in col.items() if b > a
        }

    pair_coords = span_solver([lower(m) for m in so7_mats], 21)

    def so7_coords(X):
        return pair_coords(lower(X))

    # spin action: rho(M_{w,w'}) = (l_w l_w' - l_w' l_w)/2 on the Cayley algebra
    P, Pinv = wb["P"], wb["Pinv"]
    rho_wb = []
    for (r, s) in pairs:
        lw, lwp = A._ad(cbv[r]), A._ad(cbv[s])
        rho = (lw * lwp - lwp * lw).scale(HALF)
        rho_wb.append(Pinv * rho * P)

    # Cartan c_k = -1/4 M_{x_k, y_k}; spin weights read off the diagonal
    quarter = scalar(Fraction(-1, 4))
    cartans = [rho_wb[pairs.index(p)].scale(quarter) for p in ((0, 4), (1, 5), (2, 6))]
    for rho_c in cartans:
        if rho_c != diag([rho_c[a, a] for a in range(8)]):
            raise AlgebraError("Cartan spin action is not diagonal")
    spin_wt = [tuple(_int_of(2 * rho_c[c, c]) for rho_c in cartans) for c in range(8)]

    built = _sl2_tensor_model(
        GradingGroup(4), so7_names, _commutator_table(so7_mats, (0,) * 21, so7_coords),
        [tuple(2 * x for x in w) for w in so7_wt], wb["names"], rho_wb, spin_wt,
    )
    built.extras.update(
        {
            "cayley": C,
            "weight_basis": wb,
            "zero_part": cz,
            "so7_mats": so7_mats,
            "so7_coords": so7_coords,
            "rho": rho_wb,
        }
    )
    return built


def _on_k10(M):
    """The 9 x 9 matrix M on K3 (x) K3 as a map of K10 = F1 + K3 (x) K3 that
    kills the unit."""
    return Mat._of(({},) + tuple({1 + i: x for i, x in c.items()} for c in M.columns), 10)


def _build_f4_tkk():
    K3b, K10b = build_kac()
    K3 = K3b.algebra
    K10 = K10b.algebra

    # weight-adapted derivations of K3: split by the grading derivation delta
    delta = diag([ZERO, ONE, -ONE])
    evens3 = derivations(K3, 0)
    odds3 = derivations(K3, 1)
    if len(evens3) != 3 or len(odds3) != 2:
        raise AlgebraError("unexpected Kaplansky derivation dimensions")
    der3_coords = span_solver([_entries(m) for m in evens3 + odds3], 9)

    def coords3(m):
        c = der3_coords(_entries(m))
        if c is None:
            raise AlgebraError("matrix is outside the derivation space")
        return c

    def adapt(mats, offset, cands):
        # simultaneous ad-delta eigenvectors within the span of mats: ad delta
        # in the local coordinates of the family, which starts at ``offset``
        # in the derivation basis
        n = len(mats)
        local = []
        for m in mats:
            c = coords3(delta * m - m * delta)
            local.append({k - offset: v for k, v in c.items() if 0 <= k - offset < n})
        vecs, tags = _weight_split([Mat._of(tuple(local), n)], cands)
        return [(wt, _lincomb(v, mats)) for v, (wt,) in zip(vecs, tags)]

    # D (x) 1 = kron(D, I3) and 1 (x) D = kron(diag(signs), D), the sign
    # (-1)^(|D||a|) jumping over the first slot a
    der10 = []
    der_z = []
    for p, mats, offset, cands in ((0, evens3, 0, (-2, 0, 2)), (1, odds3, 3, (-1, 1))):
        family = adapt(mats, offset, cands)
        signs = diag([MINUS_ONE if p & q else ONE for q in K3.parity])
        der10 += [(_on_k10(kron(m, Mat.identity(3))), p) for _, m in family]
        der10 += [(_on_k10(kron(signs, m)), p) for _, m in family]
        der_z += [(wt, 0) for wt, _ in family] + [(0, wt) for wt, _ in family]

    tkkb = build_tkk(K10, der_basis=der10)
    alg = tkkb.algebra

    group = GradingGroup(2, (2, 2))
    qdeg = ((1, 0), (0, 1), (1, 1))
    zdegs = K10b.extras["zdegrees"]
    degrees = []
    for a in range(3):
        for x in range(10):
            degrees.append(group.element(zdegs[x], qdeg[a]))
    for z in der_z:
        degrees.append(group.element(z, (0, 0)))
    degrees = tuple(degrees)

    # factor-swap automorphism lifted to the whole algebra
    tau = K10b.extras["tau"].matrix
    n = 10
    off = tkkb.extras["der_offset"]
    der_coords = tkkb.extras["der_coords"]
    cols = []
    for a in range(3):
        for tv in tau.columns:
            cols.append({a * n + k: c for k, c in tv.items()})
    for (D, p) in der10:
        c = der_coords(_entries(tau * D * tau))
        if c is None:
            raise AlgebraError("swap does not normalize the derivations")
        cols.append({off + k: v for k, v in c.items()})
    tau_hat = LinMap(alg, alg, Mat._of(tuple(cols), 40))

    # conjugation by q1/q2 on the quaternion slot: diagonal signs
    QB = tkkb.extras["quaternions"]
    Qa = QB.algebra
    adq = []
    for gen in (1, 2):
        q = {gen: ONE}
        signs = []
        for a in range(3):
            # q_gen^2 = 1 for gen in (1, 2), so the inverse is q_gen itself
            conj = _product(Qa.table, _product(Qa.table, q, {a + 1: ONE}), q)
            signs += [conj.get(a + 1, ZERO)] * 10
        signs += [ONE] * 10
        adq.append(LinMap(alg, alg, diag(signs)))

    ztot = K10b.extras["zweight"] * 3 + tuple(z[0] + z[1] for z in der_z)

    tkkb.gradings[group.literal()] = (group, degrees)
    tkkb.extras.update(
        {
            "kac": K10b,
            "tau_hat": tau_hat,
            "ad_q": adq,
            "zweight_total": ztot,
        }
    )
    return tkkb


# the seven anticommuting elements of the quaternionic model, as index
# triples over (1, q1, q2, q3); their squares are frozen below and asserted
_W_TRIPLES = (
    (1, 0, 0),
    (3, 0, 0),
    (2, 0, 1),
    (2, 0, 3),
    (2, 1, 2),
    (2, 3, 2),
    (2, 2, 2),
)
_W_SQUARES = (1, -1, 1, -1, 1, -1, 1)
_W_DEGREES = (
    (0, 1, 0, 0),
    (0, 1, 1, 0),
    (0, 0, 1, 1),
    (2, 0, 1, 1),
    (2, 1, 1, 0),
    (2, 1, 0, 0),
    (2, 0, 0, 0),
)


def _straighten(word, polar, squares, out=None, coeff=1):
    """Add coeff times a word in the generators, reduced to the square-free
    increasing basis, to ``out`` (a new dict by default) and return it.

    Uses x_a x_b = -x_b x_a + B_ab for a > b and x_a^2 = B_aa / 2 (``polar``
    is B, ``squares[a]`` is B_aa / 2); ``out`` is {sorted_word: Fraction}.
    """
    out = {} if out is None else out
    stack = [(list(word), Fraction(coeff))]
    while stack:
        w, c = stack.pop()
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            if a == b:
                if squares[a]:
                    stack.append((w[:p] + w[p + 2 :], c * squares[a]))
                break
            if a > b:
                stack.append((w[:p] + [b, a] + w[p + 2 :], -c))
                if polar[a][b]:
                    stack.append((w[:p] + w[p + 2 :], c * polar[a][b]))
                break
        else:
            key = tuple(w)
            tot = out.get(key, Fraction(0)) + c
            if tot:
                out[key] = tot
            else:
                out.pop(key, None)
    return out


def _right_mat(A, b):
    """Matrix of right multiplication x -> x e_b on the algebra A; column j
    is the table entry of e_j e_b."""
    return Mat._of(tuple(dict(A.product_basis(j, b)) for j in range(A.dim)), A.dim)


def _cube_phi(Qa, a, b, c):
    """Phi(a (x) b (x) c) = kron(L_a R_bbar, L_c) on Q (x) Q, for indices into
    the quaternion basis (1, q1, q2, q3); the bar negates q1, q2, q3."""
    right = _right_mat(Qa, b)
    left = Qa._ad({a: ONE}) * (right if b == 0 else -right)
    return kron(left, Qa._ad({c: ONE}))


def _build_f4_quaternion():
    QB = build_quaternions()
    Qa = QB.algebra
    Tw = [_cube_phi(Qa, *t) for t in _W_TRIPLES]
    ident16 = Mat.identity(16)
    for k in range(7):
        sq = Tw[k] * Tw[k]
        if sq != ident16.scale(scalar(_W_SQUARES[k])):
            raise AlgebraError("square of generator %d is off" % (k + 1))
        for l in range(k + 1, 7):
            if Tw[k] * Tw[l] + Tw[l] * Tw[k] != Mat.zeros(16, 16):
                raise AlgebraError(
                    "generators %d and %d do not anticommute" % (k + 1, l + 1)
                )

    spairs = [(k, l) for k in range(7) for l in range(k + 1, 7)]
    s_at = {p: i for i, p in enumerate(spairs)}
    s_names = ["s(%d,%d)" % (k + 1, l + 1) for (k, l) in spairs]
    s_mats = [Tw[k] * Tw[l] * HALF for (k, l) in spairs]

    # sl2 = q1, q2, q3 under the commutator; the orthogonal part by
    # straightening words in the anticommuting w_k:
    # [s_p, s_r] = [w_p, w_r] / 4 with s_p = w_p / 2 for a pair p
    table0 = _quaternion_brackets(Qa)
    polar = [[0] * 7 for _ in range(7)]
    for i, p1 in enumerate(spairs):
        for j, p2 in enumerate(spairs):
            if i == j:
                continue
            acc = _straighten(p1 + p2, polar, _W_SQUARES)
            _straighten(p2 + p1, polar, _W_SQUARES, acc, -1)
            terms = []
            for mono, cf in acc.items():
                if len(mono) != 2:
                    raise AlgebraError("bracket left the pair span")
                terms.append((3 + s_at[mono], scalar(cf / 2)))
            if terms:
                table0[(3 + i, 3 + j)] = terms
    names0 = ["q1", "q2", "q3"] + s_names
    g0 = SuperAlgebra(names0, (0,) * 24, table0)

    m_names = [
        "m(%s,%s)" % (Qa.names[x], Qa.names[y]) for x in range(4) for y in range(4)
    ]
    q_mats = [kron(Mat.identity(4), _right_mat(Qa, a)).scale(MINUS_ONE) for a in (1, 2, 3)]
    mtab = _action_table(q_mats, 1, 0)
    mtab.update(_action_table(s_mats, 1, 3))
    action = ModuleAction(g0, m_names, mtab)

    group = GradingGroup(0, (4, 2, 2, 2))
    qdeg2 = ((0, 0), (1, 0), (0, 1), (1, 1))
    dmap = (1, 1, 3, 3)
    y1map = (0, 1, 0, 1)
    degs = [
        group.element((), (0, 0, 0, 1)),
        group.element((), (2, 0, 0, 0)),
        group.element((), (2, 0, 0, 1)),
    ]
    for (k, l) in spairs:
        d = tuple(x + y for x, y in zip(_W_DEGREES[k], _W_DEGREES[l]))
        degs.append(group.element((), d))
    for x in range(4):
        for y in range(4):
            degs.append(
                group.element((), (dmap[y], qdeg2[x][0], qdeg2[x][1], y1map[y]))
            )

    pairings = invariant_pairings(g0, action, degrees=degs)
    alg, _ = complete_superalgebra(g0, action, pairings)

    extras = {
        "quaternions": QB,
        "g0": g0,
        "action": action,
        "pairing_count": len(pairings),
        "generators": Tw,
        "generator_squares": _W_SQUARES,
    }
    return BuiltAlgebra(alg, {group.literal(): (group, tuple(degs))}, extras)


def build_F4(model="cayley"):
    """F(4), dimension 40 = 24 + 16, in one of three models.

    ``cayley``: sl2 + so7 acting on V (x) C via the spin action of the split
    Cayley algebra; carries the Cartan Z^4 grading.  ``tkk``: the
    Tits-Kantor-Koecher construction over the Kac superalgebra; carries a
    Z^2 x Z_2^2 grading.  ``quaternion``: sl2 + so7 realized inside three
    tensor copies of the split quaternions acting on Q (x) Q; carries the
    Z_4 x Z_2^3 grading.  The Cayley and quaternion models solve their odd
    bracket in the basis they are built in, among the pairings of degree 0
    for the grading they carry.  The quaternion model's grading is not given
    by ad of g0 elements, yet its degree-0 pairings span the whole
    2-dimensional space of equivariant pairings.  Inside
    :class:`shared_builds`, two calls for one model share one build.
    """
    if model == "cayley":
        make = _build_f4_cayley
    elif model == "tkk":
        make = _build_f4_tkk
    elif model == "quaternion":
        make = _build_f4_quaternion
    else:
        raise AlgebraError(
            "unknown model %r; choose cayley, tkk or quaternion" % (model,)
        )
    return _shared(("F4", model), make)
