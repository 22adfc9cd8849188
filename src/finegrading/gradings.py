"""Group gradings: data model, verification, and the catalog of fine gradings.

A grading is recorded as a degree map on a designated homogeneous basis.  It
either comes attached to a built model or is produced from a commuting family
of diagonalizable generators (integer weight vectors plus finite-order
automorphisms) by simultaneous diagonalization, in which case a new
homogeneous basis is part of the result.
"""

from itertools import permutations

from .abgroup import GradingGroup, group_signature, subgroup_invariants
from .constructions import (
    _int_of,
    build_D21,
    build_F4,
    build_G3,
    build_kac,
    d21_ideal_automorphism,
    verify_tkk_iso_lemma,
)
from .errors import AlgebraError, GradingError
from .linalg import Mat, _entries, diag, joint_eigenspaces, span_solver
from .scalars import IUNIT, MINUS_ONE, ONE, ZERO, root_of_unity, scalar
from .superalg import LinMap, _nonadditive, change_basis, check_homomorphism

__all__ = [
    "Grading",
    "DiagGenerators",
    "verify_grading",
    "grading_type",
    "trivial_grading",
    "is_refinement",
    "grading_from_diag",
    "attached_grading",
    "cayley_sign_characters",
    "g3_character_autos",
    "f4_character_autos",
    "kac_fine_grading",
    "catalog",
    "signature_literal",
    "verify_tkk_iso_lemma",
]


class Grading:
    """A group grading of a superalgebra on a designated homogeneous basis.

    ``degrees[i]`` is the degree of the i-th basis vector of ``algebra``.
    When the grading was produced on a new homogeneous basis (see
    :func:`grading_from_diag`), ``source`` is the original algebra and
    ``basis`` holds the new basis as matrix columns in its coordinates;
    otherwise the designated basis is the algebra's own.
    """

    def __init__(self, algebra, group, degrees, source=None, basis=None):
        degrees = tuple(degrees)
        if len(degrees) != algebra.dim:
            raise GradingError(
                "expected %d degrees, got %d" % (algebra.dim, len(degrees))
            )
        lit = group.literal()
        for d in degrees:
            if d.group.literal() != lit:
                raise GradingError(
                    "degree %s does not belong to %s" % (d.literal(), lit)
                )
        if basis is not None and basis.shape != (algebra.dim, algebra.dim):
            raise GradingError("designated basis must be a square matrix")
        self.algebra = algebra
        self.group = group
        self.degrees = degrees
        self.source = algebra if source is None else source
        self.basis = basis

    def components(self):
        """Map degree -> sorted tuple of basis indices."""
        out = {}
        for i, d in enumerate(self.degrees):
            out.setdefault(d, []).append(i)
        return {d: tuple(idx) for d, idx in out.items()}

    def support(self):
        return tuple(sorted(self.components(), key=lambda d: d.literal()))

    def __repr__(self):
        return "Grading(%s over %s, %d components)" % (
            self.algebra,
            self.group.literal(),
            len(self.components()),
        )


def attached_grading(built, label):
    """The grading a construction carries under the given group-literal label."""
    group, degrees = built.grading(label)
    return Grading(built.algebra, group, degrees)


def trivial_grading(algebra):
    """Everything in degree zero, over the trivial group."""
    group = GradingGroup(0, ())
    return Grading(algebra, group, [group.zero()] * algebra.dim)


def verify_grading(gr):
    """Check degree additivity on every structure constant.

    Returns a report dict; violations are collected with witnesses, never
    raised, and ``products_checked`` counts the terms of the table.
    """
    A = gr.algebra
    deg = gr.degrees
    violations = tuple(
        {
            "left": A.names[i],
            "right": A.names[j],
            "component": A.names[k],
            "degrees": (deg[i].literal(), deg[j].literal(), deg[k].literal()),
        }
        for i, j, k in _nonadditive(sorted(A.table.items()), deg, deg, deg)
    )
    return {
        "ok": not violations,
        "violations": violations,
        "products_checked": sum(map(len, A.table.values())),
    }


def grading_type(gr):
    """The vector (n_1, ..., n_r): n_i components of dimension i, n_r != 0."""
    sizes = {}
    for d in gr.degrees:
        sizes[d] = sizes.get(d, 0) + 1
    counts = {}
    for n in sizes.values():
        counts[n] = counts.get(n, 0) + 1
    r = max(counts)
    return tuple(counts.get(i, 0) for i in range(1, r + 1))


def is_refinement(fine, coarse):
    """Whether every component of ``fine`` lies in a component of ``coarse``.

    A component is the span of its designated basis vectors as sparse columns
    over ``source`` (``basis.columns``, or unit vectors when ``basis`` is
    None), so the gradings may sit on different designated bases.  Each
    coarse component gets one :func:`~finegrading.linalg.span_solver`, which
    raises LinAlgError when its vectors are dependent.
    """
    if fine.source is not coarse.source:
        raise GradingError("gradings live on different algebras")
    dim = fine.source.dim
    unit = [{j: ONE} for j in range(dim)]
    fcols, ccols = (unit if gr.basis is None else gr.basis.columns for gr in (fine, coarse))
    solvers = [span_solver([ccols[i] for i in idx], dim) for idx in coarse.components().values()]
    return all(
        any(all(coords(fcols[i]) is not None for i in idx) for coords in solvers)
        for idx in fine.components().values()
    )


# ---------------------------------------------------------------------------
# gradings induced by commuting diagonalizable generators
# ---------------------------------------------------------------------------


class DiagGenerators:
    """Torus weight vectors plus finite-order automorphisms.

    ``torus_weights`` is a list of integer weight vectors on the designated
    basis, each required to define a Z-grading by itself; ``finite_autos`` is
    a list of ``(LinMap, order)`` pairs of automorphisms with the stated
    finite order.  All generators must commute.
    """

    def __init__(self, torus_weights=(), finite_autos=()):
        self.torus_weights = tuple(
            tuple(int(w) for w in ws) for ws in torus_weights
        )
        self.finite_autos = tuple((f, int(n)) for (f, n) in finite_autos)


def grading_from_diag(A, gens):
    """Grading by the common eigenspaces of the given generators.

    The group is Z^(#weights) x prod Z_order; free coordinates are the torus
    weights and torsion coordinates the eigenvalue exponents.  Returns a
    Grading on the new joint eigenbasis (recorded in ``basis``).  Errors name
    an automorphism by its index in ``finite_autos``, counted from 0.
    """
    if not isinstance(gens, DiagGenerators):
        gens = DiagGenerators(*gens)
    n = A.dim
    for ws in gens.torus_weights:
        if len(ws) != n:
            raise GradingError(
                "weight vector has %d entries, expected %d" % (len(ws), n)
            )
        for i, j, k in _nonadditive(A.table.items(), ws, ws, ws):
            raise GradingError(
                "weight vector is not a Z-grading: (%s, %s) -> %s"
                % (A.names[i], A.names[j], A.names[k])
            )
    kept = []
    for idx, (f, order) in enumerate(gens.finite_autos):
        if order < 1:
            raise GradingError("automorphism orders must be positive")
        if f.source is not A or f.target is not A:
            raise GradingError("generator is not an endomorphism of the algebra")
        try:
            check_homomorphism(A, A, f, bijective=True)
        except AlgebraError as exc:
            raise GradingError("generator is not an automorphism: %s" % exc) from None
        try:
            true_order = f.order(bound=order)
        except AlgebraError:
            raise GradingError(
                "automorphism %d has order greater than its declared order %d"
                % (idx, order)
            ) from None
        if order % true_order:
            raise GradingError(
                "automorphism %d: declared order %d is not a multiple of the "
                "true order %d" % (idx, order, true_order)
            )
        if order > 1:
            kept.append((f, order))

    ops = [diag(ws) for ws in gens.torus_weights]
    cands = [sorted(set(ws)) for ws in gens.torus_weights]
    for (f, order) in kept:
        ops.append(f.matrix)
        zeta = root_of_unity(order)
        cands.append([zeta ** k for k in range(order)])

    group = GradingGroup(
        len(gens.torus_weights), tuple(order for (_, order) in kept)
    )
    if not ops:
        return trivial_grading(A)

    blocks = joint_eigenspaces(ops, cands, n)
    nfree = len(gens.torus_weights)
    cols = []
    degrees = []
    for tag, vecs in blocks:
        free = tuple(_int_of(tag[t]) for t in range(nfree))
        torsion = []
        for a, (f, order) in enumerate(kept):
            lam = scalar(tag[nfree + a])
            zeta = root_of_unity(order)
            for k in range(order):
                if zeta ** k == lam:
                    torsion.append(k)
                    break
            else:
                raise GradingError(
                    "eigenvalue %r is not a power of the %d-th root of unity"
                    % (lam, order)
                )
        deg = group.element(free, torsion)
        for v in vecs:
            cols.append(v)
            degrees.append(deg)
    P = Mat._of(tuple(cols), n)
    newalg = change_basis(A, P)
    return Grading(newalg, group, degrees, source=A, basis=P)


# ---------------------------------------------------------------------------
# character lifts of the Cayley sign grading
# ---------------------------------------------------------------------------


def cayley_sign_characters(C):
    """Diagonal sign matrices for the three generators of the sign grading.

    ``C`` is the built Cayley algebra; entry ``s`` of the result is the list
    of character values (+-1) of the s-th coordinate character on the eight
    basis vectors.
    """
    label = GradingGroup(0, (2, 2, 2)).literal()
    _, degs = C.grading(label)
    out = []
    for s in range(3):
        out.append([MINUS_ONE if d.torsion[s] % 2 else ONE for d in degs])
    return out


def _lift_characters(built, der_images, odd_block):
    """Each Cayley sign character as the block matrix diag(I3, M, B, B).

    The identity on sl2; on the derivation part M has the columns
    ``der_images(signs)``, the sparse coordinates of each basis derivation
    conjugated by the character (None when it leaves the derivation
    algebra); ``odd_block(signs)`` is the square block B on each of the two
    odd slots, which fill the end of the basis.
    """
    A = built.algebra
    n = A.dim
    autos = []
    for signs in cayley_sign_characters(built.extras["cayley"]):
        cols = [{k: ONE} for k in range(3)]
        for coords in der_images(signs):
            if coords is None:
                raise GradingError(
                    "character does not normalize the derivation algebra"
                )
            cols.append({3 + k: c for k, c in coords.items()})
        B = odd_block(signs)
        m = B.nrows
        for start in (n - 2 * m, n - m):
            cols.extend({start + t: c for t, c in col.items()} for col in B.columns)
        autos.append(LinMap(A, A, Mat._of(tuple(cols), n)))
    return autos


def g3_character_autos(built):
    """The Cayley sign characters lifted to automorphisms of the G(3) model.

    Each character acts as the identity on sl2, by conjugation on the
    derivation part (re-expressed in the weight basis) and diagonally on the
    two odd copies of the trace-zero part.
    """
    g2mats = built.extras["g2_matrices"]
    g2_coords = span_solver([_entries(m) for m in g2mats], 64)
    restrict = built.extras["zero_part"]["restrict"]

    def der_images(signs):
        chi = diag(signs)
        return [g2_coords(_entries(chi * m * chi)) for m in g2mats]

    return _lift_characters(built, der_images, lambda signs: restrict(diag(signs)))


def f4_character_autos(built):
    """The Cayley sign characters lifted to the F(4) cayley model.

    Identity on sl2, conjugation on the orthogonal part (in pair
    coordinates), and the diagonal character action rewritten in the weight
    basis on both odd slots.
    """
    wb = built.extras["weight_basis"]
    so7_mats = built.extras["so7_mats"]
    so7_coords = built.extras["so7_coords"]

    def der_images(signs):
        chi7 = diag(signs[1:])
        return [so7_coords(chi7 * m * chi7) for m in so7_mats]

    return _lift_characters(
        built, der_images, lambda signs: wb["Pinv"] * diag(signs) * wb["P"]
    )


# ---------------------------------------------------------------------------
# the Kac superalgebra's fine grading
# ---------------------------------------------------------------------------


def kac_fine_grading(K10b=None):
    """The Z x Z_2 grading of the Kac superalgebra, of type (7,0,1).

    Diagonal generators: the total Z-weight plus the factor-swap
    automorphism.  Refines the attached Z^2 grading collapsed to its total
    weight.
    """
    if K10b is None:
        _, K10b = build_kac()
    gens = DiagGenerators(
        [K10b.extras["zweight"]], [(K10b.extras["tau"], 2)]
    )
    return grading_from_diag(K10b.algebra, gens)


# ---------------------------------------------------------------------------
# the catalog of fine gradings
# ---------------------------------------------------------------------------

_A_SL2 = ((IUNIT, ZERO), (ZERO, -IUNIT))
_B_SL2 = ((ZERO, MINUS_ONE), (ONE, ZERO))


def signature_literal(sig):
    """Group literal of a (free_rank, invariant_factors) signature."""
    free, factors = sig
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append("Z^%d" % free)
    parts.extend("Z_%d" % d for d in factors)
    return " x ".join(parts) if parts else "1"


def _catalog_f4():
    cay = build_F4("cayley")
    tkk = build_F4("tkk")
    quat = build_F4("quaternion")

    cartan = attached_grading(cay, "Z^4")
    w_h = [d.free[0] for d in cartan.degrees]
    chars = f4_character_autos(cay)
    gr2 = grading_from_diag(
        cay.algebra, DiagGenerators([w_h], [(a, 2) for a in chars])
    )

    adq = tkk.extras["ad_q"]
    gens4 = DiagGenerators(
        [tkk.extras["zweight_total"]],
        [(tkk.extras["tau_hat"], 2), (adq[0], 2), (adq[1], 2)],
    )
    gr4 = grading_from_diag(tkk.algebra, gens4)

    return [
        ("f4-cartan-z4-cayley", cartan, "Z^4", (36, 0, 0, 1)),
        ("f4-z-z2^3-cayley", gr2, "Z x Z_2 x Z_2 x Z_2", (19, 0, 7)),
        (
            "f4-z2-z2^2-tkk",
            attached_grading(tkk, "Z^2 x Z_2 x Z_2"),
            "Z^2 x Z_2 x Z_2",
            (32, 4),
        ),
        ("f4-z-z2^3-tkk", gr4, "Z x Z_2 x Z_2 x Z_2", (31, 0, 3)),
        (
            "f4-z4-z2^3-quaternion",
            attached_grading(quat, "Z_4 x Z_2 x Z_2 x Z_2"),
            "Z_4 x Z_2 x Z_2 x Z_2",
            (24, 6, 0, 1),
        ),
    ]


def _catalog_g3():
    g3 = build_G3()
    cartan = attached_grading(g3, "Z^3")
    w_h = [d.free[0] for d in cartan.degrees]
    chars = g3_character_autos(g3)
    gr2 = grading_from_diag(
        g3.algebra, DiagGenerators([w_h], [(a, 2) for a in chars])
    )
    return [
        ("g3-cartan-z3", cartan, "Z^3", (28, 0, 1)),
        ("g3-z-z2^3", gr2, "Z x Z_2 x Z_2 x Z_2", (17, 7)),
    ]


def _catalog_d21(alpha):
    built = build_D21(alpha)
    A = built.algebra
    cartan = attached_grading(built, "Z^3")
    w = [[d.free[l] for d in cartan.degrees] for l in range(3)]
    a, b = _A_SL2, _B_SL2

    def auto(fs, perm=(0, 1, 2)):
        return d21_ideal_automorphism(built, perm, fs)

    def fixing(l, f):
        # f on the two ideals other than l, the identity on ideal l
        fs = [f] * 3
        fs[l] = None
        return auto(fs)

    entries = [
        ("d21a-cartan-z3", cartan, "Z^3", (14, 0, 1)),
        (
            "d21a-z4-z2^2",
            grading_from_diag(
                A,
                DiagGenerators(
                    (),
                    [(auto((a, a, a)), 4), (auto((b, b, a)), 4), (auto((a, b, b)), 4)],
                ),
            ),
            "Z_4 x Z_2 x Z_2",
            (14, 0, 1),
        ),
    ]
    for l in range(3):
        entries.append(
            (
                "d21a-z-z2^2-ideal%d" % (l + 1),
                grading_from_diag(
                    A,
                    DiagGenerators([w[l]], [(fixing(l, a), 2), (fixing(l, b), 2)]),
                ),
                "Z x Z_2 x Z_2",
                (11, 3),
            )
        )

    # The parameter admits a transposition of the two ideals with equal sigma,
    # or both 3-cycles of the ideals, or neither.
    swaps, cycles = [], []
    for perm in permutations(range(3)):
        fixed = [l for l in range(3) if perm[l] == l]
        if len(fixed) == 3:
            continue
        try:
            phi = d21_ideal_automorphism(built, perm)
        except AlgebraError:
            continue
        if fixed:
            swaps.append((fixed[0], perm, phi))
        else:
            cycles.append(phi)
    if cycles:
        wdiag = [w[0][k] + w[1][k] + w[2][k] for k in range(17)]
        entries.append(
            (
                "d21a-z-z3",
                grading_from_diag(A, DiagGenerators([wdiag], [(cycles[0], 3)])),
                "Z x Z_3",
                (17,),
            )
        )
    for k, perm, swap in swaps:
        i, j = (l for l in range(3) if l != k)
        wij = [w[i][t] + w[j][t] for t in range(17)]
        entries.append(
            (
                "d21a-z-z2^3",
                grading_from_diag(
                    A,
                    DiagGenerators(
                        [w[k]], [(fixing(k, a), 2), (fixing(k, b), 2), (swap, 2)]
                    ),
                ),
                "Z x Z_2 x Z_2 x Z_2",
                (17,),
            )
        )
        entries.append(
            (
                "d21a-z2-z2",
                grading_from_diag(A, DiagGenerators([w[k], wij], [(swap, 2)])),
                "Z^2 x Z_2",
                (15, 1),
            )
        )
        # b on the fixed ideal and on ideal i on its way to j: order 4
        fs = [None] * 3
        fs[k] = fs[i] = b
        entries.append(
            (
                "d21a-z4-z4",
                grading_from_diag(
                    A, DiagGenerators((), [(auto(fs, perm), 4), (auto((a, a, a)), 4)])
                ),
                "Z_4 x Z_4",
                (13, 2),
            )
        )
    return entries


def catalog(algebra_id, alpha=None, strict=True):
    """Construct and check the named gradings of one of the three algebras.

    ``algebra_id`` is one of ``f4``, ``g3``, ``d21a`` (case-insensitive);
    ``alpha`` only applies to ``d21a``.  Returns one record per grading with
    the verification outcome, the realized group signature and type, and the
    expected values.  With ``strict`` set (the default), any mismatch raises
    GradingError naming the entry.
    """
    aid = str(algebra_id).lower()
    if aid == "f4":
        if alpha is not None:
            raise GradingError("f4 does not take a parameter")
        entries = _catalog_f4()
    elif aid == "g3":
        if alpha is not None:
            raise GradingError("g3 does not take a parameter")
        entries = _catalog_g3()
    elif aid == "d21a":
        entries = _catalog_d21(alpha)
    else:
        raise GradingError(
            "unknown catalog id %r; choose f4, g3 or d21a" % (algebra_id,)
        )

    records = []
    for (name, gr, expected_group, expected_type) in entries:
        report = verify_grading(gr)
        realized_sig = subgroup_invariants(gr.group, gr.degrees)
        realized_type = grading_type(gr)
        ok = (
            report["ok"]
            and realized_sig == group_signature(expected_group)
            and realized_type == tuple(expected_type)
        )
        witness = None
        if not report["ok"]:
            witness = "degree additivity fails: %r" % (report["violations"][0],)
        elif realized_sig != group_signature(expected_group):
            witness = "realized group %s, expected %s" % (
                signature_literal(realized_sig),
                expected_group,
            )
        elif realized_type != tuple(expected_type):
            witness = "realized type %s, expected %s" % (
                realized_type,
                tuple(expected_type),
            )
        record = {
            "name": name,
            "grading": gr,
            "expected_group": expected_group,
            "expected_type": tuple(expected_type),
            "realized_group": signature_literal(realized_sig),
            "realized_type": realized_type,
            "status": "pass" if ok else "fail",
            "witness": witness,
        }
        if strict and not ok:
            raise GradingError("catalog entry %r failed: %s" % (name, witness))
        records.append(record)
    return records
