"""Graded quadratic spaces and even Clifford algebras, with classification.

An odd-dimensional quadratic space carrying a compatible grading by an
abelian group (the form pairs degree g only with degree -g) normalizes to
hyperbolic pairs (u_i, v_i) of degrees (g_i, -g_i) with q(u_i, v_i) = 1 plus
anisotropic vectors w_j with q(w_j) = 1 whose degrees h_j are 2-torsion,
pairwise distinct, and sum to zero.  The even Clifford algebra inherits the
grading, and its graded-division class -- F, Q, Q (x) Q or Q (x) Q (x) Q --
is computed along two independent routes that must agree:

* ``division_class`` extracts a minimal graded left ideal, its degree-0
  idempotent e, and the coefficient algebra e R e, and reads the class off
  the size of the support;
* ``dim7_case_classify`` pattern-matches the normalized degree data against
  the ten-case table for dimension 7 without touching the algebra at all.

The module also houses the two concrete models used downstream: left
multiplication identifying the even Clifford algebra of the split octonions
(trace-zero part, negated norm) with all 8x8 matrices, and the quaternion
cube acting on a rank-4 free module by a skew-hermitian-compatible
representation.

Every product is read off a structure table: ``superalg._product`` on sparse
elements {index: Scalar}, or a single-term lookup where each product of two
basis vectors is one signed basis vector (the split quaternions).  The
elements handed out (the ``z`` extra, the ``h_sample`` report value, the
idempotent of ``DivisionClass.info``) and those handed to ``linalg`` are
sparse as well; no dense coordinate tuple is formed.  The full Clifford
table is written by ``constructions._straighten``; outside the even part
only the check z^2 = (-1)^l in :func:`build_even_clifford` reads it.  One
bilinear-form evaluation ``_form`` serves the normalization and the
octonion model.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, permutations
from math import isqrt

from .constructions import (
    BuiltAlgebra,
    _cube_phi,
    _right_mat,
    _straighten,
    _W_TRIPLES,
    build_cayley,
    build_quaternions,
)
from .errors import CliffordError
from .linalg import (
    Mat,
    _accumulate,
    _entries,
    inverse,
    kron,
    rank,
    span_solver,
    sparse_row_reduce,
)
from .scalars import HALF, IUNIT, MINUS_ONE, ONE, ZERO, scalar
from .superalg import (
    SuperAlgebra,
    _commutator,
    _product,
    _unit,
)

__all__ = [
    "DivisionClass",
    "GradedQuadraticSpace",
    "scalar_sqrt",
    "clifford_algebra",
    "normalize_quadratic_basis",
    "build_even_clifford",
    "division_class",
    "dim7_case_classify",
    "verify_octonion_clifford_model",
    "verify_quaternion_clifford_model",
]


def scalar_sqrt(c):
    """A square root of a constant scalar of the form +-(rational square).

    Positive squares get their rational root, negated squares i times it;
    anything else raises :class:`CliffordError`.  This is all the
    root-taking the normalization steps are entitled to.
    """
    s = scalar(c)
    if not s.is_constant():
        raise CliffordError("cannot take a square root of %s" % s)
    cyc = s.constant_value()
    if not cyc.is_rational():
        raise CliffordError("cannot take a square root of the non-rational %s" % s)
    val = cyc.to_fraction()
    if val == 0:
        return ZERO
    mag = abs(val)
    num, den = mag.numerator, mag.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise CliffordError("%s is not a rational square up to sign" % s)
    root = scalar(Fraction(rn, rd))
    return root if val > 0 else IUNIT * root


def _as_fraction(x):
    s = scalar(x)
    if not s.is_constant():
        raise CliffordError("Gram entry %s is not constant" % s)
    cyc = s.constant_value()
    if not cyc.is_rational():
        raise CliffordError("Gram entry %s is not rational" % s)
    return cyc.to_fraction()


# ---------------------------------------------------------------------------
# Clifford algebra on a polar Gram matrix
# ---------------------------------------------------------------------------


def _mono_name(names, word):
    return "*".join(names[t] for t in word) if word else "1"


def clifford_algebra(names, gram):
    """Full Clifford algebra of a quadratic space with polar Gram matrix B.

    Generators satisfy x_i x_j + x_j x_i = B_ij (hence x_i^2 = B_ii/2);
    the basis is the 2^n square-free increasing monomials ordered by length
    then lexicographically, with parity = length mod 2.  Returns
    ``(algebra, words)`` where ``words[k]`` is the index tuple of basis
    monomial k.  Gram entries must be rational.
    """
    n = len(names)
    if n > 7:
        raise CliffordError("dimension %d quadratic space is out of scope" % n)
    if isinstance(gram, Mat):
        rows = [[gram[(i, j)] for j in range(n)] for i in range(n)]
    else:
        rows = [list(r) for r in gram]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise CliffordError("Gram matrix shape does not match the basis")
    B = [[_as_fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if B[i][j] != B[j][i]:
                raise CliffordError("Gram matrix is not symmetric")
    squares = [B[i][i] / 2 for i in range(n)]
    words = [w for k in range(n + 1) for w in combinations(range(n), k)]
    index = {w: k for k, w in enumerate(words)}
    table = {}
    coeffs = {}  # each distinct rational coefficient converted once
    for ia, wa in enumerate(words):
        for ib, wb in enumerate(words):
            acc = _straighten(wa + wb, B, squares)
            if acc:
                entry = table[(ia, ib)] = []
                for w, c in acc.items():
                    s = coeffs.get(c)
                    if s is None:
                        s = coeffs[c] = scalar(c)
                    entry.append((index[w], s))
    mono_names = tuple(_mono_name(names, w) for w in words)
    parities = tuple(len(w) % 2 for w in words)
    return SuperAlgebra(mono_names, parities, table), tuple(words)


# ---------------------------------------------------------------------------
# graded quadratic spaces and their normal form
# ---------------------------------------------------------------------------


class GradedQuadraticSpace:
    """Odd-dimensional graded quadratic space in normal form.

    Basis order u_1, v_1, ..., u_m, v_m, w_1, ..., w_{2l+1}: hyperbolic
    pairs with degrees (g_i, -g_i) and q(u_i, v_i) = 1, then anisotropic
    vectors with q(w_j) = 1 and 2-torsion degrees h_j that are pairwise
    distinct and sum to zero.  ``basis`` (optional) holds the normalized
    basis as columns over the original coordinates, ``shift`` the global
    degree shift that was applied, and ``trace`` the normalization log.
    """

    def __init__(
        self,
        group,
        pair_degrees,
        unit_degrees,
        names=None,
        basis=None,
        shift=None,
        trace=(),
    ):
        pair_degrees = tuple(pair_degrees)
        unit_degrees = tuple(unit_degrees)
        if len(unit_degrees) % 2 == 0:
            raise CliffordError("a normalized space needs an odd anisotropic part")
        for h in unit_degrees:
            if not (h + h).is_zero():
                raise CliffordError(
                    "anisotropic degree %s is not 2-torsion" % h.literal()
                )
        if len(set(unit_degrees)) != len(unit_degrees):
            raise CliffordError("anisotropic degrees must be pairwise distinct")
        total = group.zero()
        for h in unit_degrees:
            total = total + h
        if not total.is_zero():
            raise CliffordError("anisotropic degrees must sum to zero")
        self.group = group
        self.pair_degrees = pair_degrees
        self.unit_degrees = unit_degrees
        self.m = len(pair_degrees)
        self.l = (len(unit_degrees) - 1) // 2
        if names is None:
            names = []
            for i in range(self.m):
                names += ["u%d" % (i + 1), "v%d" % (i + 1)]
            names += ["w%d" % (j + 1) for j in range(len(unit_degrees))]
        self.names = tuple(names)
        if len(self.names) != self.dim:
            raise CliffordError("name count does not match the dimension")
        self.basis = basis
        self.shift = shift
        self.trace = tuple(trace)

    @property
    def dim(self):
        return 2 * self.m + len(self.unit_degrees)

    @property
    def degrees(self):
        out = []
        for g in self.pair_degrees:
            out.append(g)
            out.append(-g)
        out.extend(self.unit_degrees)
        return tuple(out)

    def gram(self):
        """Canonical polar Gram matrix in the normalized basis."""
        n = self.dim
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(self.m):
            rows[2 * i][2 * i + 1] = ONE
            rows[2 * i + 1][2 * i] = ONE
        two = scalar(2)
        for j in range(len(self.unit_degrees)):
            k = 2 * self.m + j
            rows[k][k] = two
        return Mat(tuple(tuple(r) for r in rows))

    def __repr__(self):
        return "GradedQuadraticSpace(m=%d, l=%d, group=%s)" % (
            self.m,
            self.l,
            self.group.literal(),
        )


def _default_gram(degrees):
    """Canonical Gram data: q = 1 on 2-torsion vectors, successive opposite
    non-2-torsion degrees paired with q(x, y) = 1."""
    n = len(degrees)
    rows = [[ZERO] * n for _ in range(n)]
    two = scalar(2)
    open_slots = {}
    for i, d in enumerate(degrees):
        if (d + d).is_zero():
            rows[i][i] = two
            continue
        waiting = open_slots.get(-d)
        if waiting:
            j = waiting.pop(0)
            rows[i][j] = ONE
            rows[j][i] = ONE
        else:
            open_slots.setdefault(d, []).append(i)
    leftovers = [i for lst in open_slots.values() for i in lst]
    if leftovers:
        raise CliffordError(
            "no partner of opposite degree for basis vector(s) %s"
            % ", ".join(str(i + 1) for i in sorted(leftovers))
        )
    return rows


def _form(gram, x, y):
    """The bilinear form with Gram matrix ``gram`` on sparse elements x, y."""
    acc = ZERO
    for i, xi in x.items():
        for j, yj in y.items():
            g = gram[i, j]
            if not g.is_zero():
                acc = acc + xi * g * yj
    return acc


def _comb(*terms):
    """The sparse element sum f * v over the (f, v) of ``terms``."""
    acc = {}
    for f, v in terms:
        _accumulate(acc, f, v.items())
    return acc


def _gram_schmidt(vecs, gram):
    """Orthogonal basis of the span of sparse elements for a nondegenerate
    symmetric form."""
    rest = list(vecs)
    out = []
    while rest:
        k = next((i for i, v in enumerate(rest) if not _form(gram, v, v).is_zero()), None)
        if k is None:
            v0 = rest[0]
            j = next(
                (j for j in range(1, len(rest)) if not _form(gram, v0, rest[j]).is_zero()),
                None,
            )
            if j is None:
                raise CliffordError("degenerate 2-torsion component")
            rest[0] = _comb((ONE, v0), (ONE, rest[j]))
            continue
        z = rest.pop(k)
        qz = _form(gram, z, z)
        out.append(z)
        rest = [_comb((ONE, v), (-(_form(gram, z, v) * qz.inverse()), z)) for v in rest]
    return out


def normalize_quadratic_basis(group, degrees, gram=None):
    """Normal form of a compatibly graded odd-dimensional quadratic space.

    ``degrees`` holds one group element per basis vector; ``gram`` is the
    polar Gram matrix (a Mat or nested sequence, scalar entries), defaulting
    to the canonical one.  Components of non-2-torsion degree dualize into
    hyperbolic pairs; 2-torsion components are orthogonalized and rescaled
    to q = 1 (each length must be a rational square up to sign), equal
    degrees merge pairwise into further hyperbolic pairs, and a final global
    2-torsion shift makes the anisotropic degrees sum to zero.
    """
    degrees = tuple(degrees)
    n = len(degrees)
    if n > 7:
        raise CliffordError("dimension %d quadratic space is out of scope" % n)
    if n % 2 == 0:
        raise CliffordError("even-dimensional spaces are unsupported")
    if gram is None:
        rows = _default_gram(degrees)
    elif isinstance(gram, Mat):
        rows = [[scalar(gram[(i, j)]) for j in range(n)] for i in range(n)]
    else:
        rows = [[scalar(x) for x in r] for r in gram]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise CliffordError("Gram matrix shape does not match the degree list")
    for i in range(n):
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise CliffordError("Gram matrix is not symmetric")
            if not rows[i][j].is_zero() and not (degrees[i] + degrees[j]).is_zero():
                raise CliffordError(
                    "Gram pairs degree %s with %s (entry %d,%d); the grading "
                    "is not compatible"
                    % (degrees[i].literal(), degrees[j].literal(), i + 1, j + 1)
                )
    gmat = Mat(tuple(tuple(r) for r in rows))
    if rank(gmat) != n:
        raise CliffordError("the quadratic form is degenerate")

    comp_order = []
    comps = {}
    for i, d in enumerate(degrees):
        if d not in comps:
            comp_order.append(d)
        comps.setdefault(d, []).append(i)

    trace = []
    pairs = []
    handled = set()
    for g in comp_order:
        if g in handled or (g + g).is_zero():
            continue
        handled.add(g)
        handled.add(-g)
        plus = comps.get(g, [])
        minus = comps.get(-g, [])
        if len(plus) != len(minus):
            raise CliffordError(
                "degrees %s and %s pair off with unequal dimensions"
                % (g.literal(), (-g).literal())
            )
        C = Mat(
            tuple(
                tuple(rows[a][b] for b in minus) for a in plus
            )
        )
        X = inverse(C)
        for a, col in zip(plus, X.columns):
            pairs.append(({a: ONE}, {minus[c]: x for c, x in col.items()}, g))
        trace.append(
            "degrees %s / %s: %d hyperbolic pair(s) by duality"
            % (g.literal(), (-g).literal(), len(plus))
        )

    unit_groups = []
    for g in comp_order:
        if not (g + g).is_zero():
            continue
        vecs = [{i: ONE} for i in comps[g]]
        ortho = _gram_schmidt(vecs, gmat)
        ws = []
        rescaled = 0
        for z in ortho:
            c = _form(gmat, z, z) * HALF
            r = scalar_sqrt(c)
            if r != ONE:
                rescaled += 1
            ws.append(_comb((r.inverse(), z)))
        note = "degree %s: %d unit vector(s)" % (g.literal(), len(ws))
        if len(vecs) > 1:
            note += ", orthogonalized"
        if rescaled:
            note += ", %d rescaled" % rescaled
        trace.append(note)
        unit_groups.append((g, ws))

    units = []
    for g, ws in unit_groups:
        while len(ws) >= 2:
            w1 = ws.pop(0)
            w2 = ws.pop(0)
            u = _comb((HALF, w1), (HALF * IUNIT, w2))
            v = _comb((HALF, w1), (-(HALF * IUNIT), w2))
            if _form(gmat, u, v) != ONE or not _form(gmat, u, u).is_zero():
                raise CliffordError("merge produced a non-hyperbolic pair")
            pairs.append((u, v, g))
            trace.append(
                "degree %s: merged two unit vectors into a hyperbolic pair"
                % g.literal()
            )
        if ws:
            units.append((ws[0], g))

    s = group.zero()
    for _, h in units:
        s = s + h
    if not s.is_zero():
        trace.append("applied the global shift %s" % s.literal())
    pair_degs = [g + s for (_, _, g) in pairs]
    unit_degs = [h + s for (_, h) in units]

    cols = [c for (u, v, _) in pairs for c in (u, v)]
    cols += [w for (w, _) in units]
    P = Mat._of(tuple(cols), n)
    space = GradedQuadraticSpace(
        group, pair_degs, unit_degs, basis=P, shift=s, trace=trace
    )
    # the normalized Gram matrix must come out canonical
    canon = space.gram()
    for a in range(n):
        for b in range(n):
            if _form(gmat, cols[a], cols[b]) != canon[(a, b)]:
                raise CliffordError("normalization failed to reach the normal form")
    return space


# ---------------------------------------------------------------------------
# even Clifford algebra
# ---------------------------------------------------------------------------


def build_even_clifford(space):
    """Even Clifford algebra of a normalized graded quadratic space.

    Returns a :class:`BuiltAlgebra` of dimension 2^(dim-1) with the induced
    grading.  Extras: the space, the monomial words of the full Clifford
    algebra with the indices of the even ones, and the central element
    z = [u_1,v_1]...[u_m,v_m] w_1...w_{2l+1} of the full algebra with its
    square, checked here to be (-1)^l.  Every product is read off the table
    of the full algebra.
    """
    n = space.dim
    full, words = clifford_algebra(space.names, space.gram())
    tab = full.table
    even = tuple(k for k, w in enumerate(words) if len(w) % 2 == 0)
    pos = {k: t for t, k in enumerate(even)}
    table = {}
    for (i, j), entries in tab.items():
        if i in pos and j in pos:
            table[(pos[i], pos[j])] = [(pos[k], c) for k, c in entries]
    alg = SuperAlgebra(
        tuple(full.names[k] for k in even), (0,) * len(even), table
    )

    degs = space.degrees
    mono_deg = []
    for k in even:
        d = space.group.zero()
        for t in words[k]:
            d = d + degs[t]
        mono_deg.append(d)
    mono_deg = tuple(mono_deg)
    gradings = {space.group.literal(): (space.group, mono_deg)}

    gen = [{1 + t: ONE} for t in range(n)]
    z = {0: ONE}
    for i in range(space.m):
        z = _product(tab, z, _commutator(tab, gen[2 * i], gen[2 * i + 1]))
    for j in range(len(space.unit_degrees)):
        z = _product(tab, z, gen[2 * space.m + j])
    z2 = _product(tab, z, z)
    zsq = z2.pop(0, ZERO)
    if z2:
        raise CliffordError("z^2 is not scalar")
    want = ONE if space.l % 2 == 0 else MINUS_ONE
    if zsq != want:
        raise CliffordError("z^2 = %s, expected (-1)^l" % zsq)

    built = BuiltAlgebra(
        alg,
        gradings,
        extras={
            "space": space,
            "words": words,
            "even_indices": even,
            "z": z,
            "zsquare": zsq,
        },
    )
    return built


# ---------------------------------------------------------------------------
# graded-division classification, route one: minimal ideals
# ---------------------------------------------------------------------------


class DivisionClass:
    """Graded-division class tag: F, Q, QQ (Q (x) Q) or QQQ (Q (x) Q (x) Q)."""

    TAGS = ("F", "Q", "QQ", "QQQ")

    def __init__(self, tag, **info):
        if tag not in self.TAGS:
            raise CliffordError("unknown division class %r" % (tag,))
        self.tag = tag
        self.info = dict(info)

    def __eq__(self, other):
        if isinstance(other, DivisionClass):
            return self.tag == other.tag
        if isinstance(other, str):
            return self.tag == other
        return NotImplemented

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return "DivisionClass(%s)" % self.tag


def _reduce_by_degree(rows_by_degree, ncols):
    """Per-degree rref of sparse rows; returns ({degree: [sparse rows by
    pivot]}, total dimension)."""
    out = {}
    total = 0
    for d, rows in rows_by_degree.items():
        red = sparse_row_reduce(rows, ncols)
        if red:
            out[d] = [red[p] for p in sorted(red)]
            total += len(red)
    return out, total


def _proportional(vec, base):
    """lambda with vec = lambda * base for sparse elements, or None."""
    if not vec:
        return ZERO
    if vec.keys() != base.keys():
        return None
    k = next(iter(base))
    lam = vec[k] * base[k].inverse()
    return lam if all(vec[j] == lam * c for j, c in base.items()) else None


def _corner_components(alg, degrees, e):
    """Degree components of the corner algebra e R e (e sparse)."""
    rows = {}
    for i in range(alg.dim):
        w = _product(alg.table, _product(alg.table, e, {i: ONE}), e)
        if w:
            rows.setdefault(degrees[i], []).append(w)
    return _reduce_by_degree(rows, alg.dim)


def division_class(built, label=None):
    """Graded-division class of a graded-simple associative algebra.

    Refines the identity down to an idempotent e whose corner algebra
    D = e R e is a graded division algebra, then classifies D by the size
    of its support, |Supp D| in {1, 4, 16, 64}.  At each step a candidate
    x in the degree-0 part of the corner with x^2 a nonzero multiple of x
    or of e yields a proper sub-idempotent (i lies in the base field, so
    x^2 = lambda e rescales to a square root of e).  Works entirely inside
    the algebra -- no appeal to the degree-pattern case table -- so it can
    serve as an independent cross-check of it.  Graded simplicity is
    assumed, not checked.
    """
    alg = built.algebra
    if label is None:
        if len(built.gradings) != 1:
            raise CliffordError("several gradings attached; pass a label")
        label = next(iter(built.gradings))
    group, degrees = built.grading(label)
    zero_deg = group.zero()
    e = _unit(alg)
    if e is None:
        raise CliffordError("the algebra has no two-sided identity")
    tab = alg.table
    cuts = 0

    while True:
        dcomp, ddim = _corner_components(alg, degrees, e)
        zero_part = dcomp.get(zero_deg, ())
        if len(zero_part) <= 1:
            break
        # candidates in the degree-0 corner: basis vectors, then products
        cands = chain(
            zero_part, (_product(tab, a, b) for a in zero_part for b in zero_part)
        )
        refined = None
        four = scalar(4)
        two = scalar(2)
        for x in cands:
            if _proportional(x, e) is not None:
                continue
            sq = _product(tab, x, x)
            # x^2 = a x + b e gives p = (2x - a e)/sqrt(a^2 + 4b), p^2 = e
            coeffs = span_solver([x, e], alg.dim)(sq)
            if coeffs is None:
                continue
            a, b = coeffs.get(0, ZERO), coeffs.get(1, ZERO)
            disc = a * a + four * b
            if disc.is_zero():
                continue
            try:
                r = scalar_sqrt(disc)
            except CliffordError:
                continue
            p = _comb((r.inverse() * two, x), (-(r.inverse() * a), e))
            refined = _comb((HALF, e), (HALF, p))
            break
        if refined is None:
            raise CliffordError(
                "no idempotent found in the degree-0 corner (dimension %d)"
                % len(zero_part)
            )
        e = refined
        if _product(tab, e, e) != e:
            raise CliffordError("idempotent refinement broke down")
        cuts += 1
        if cuts > 12:
            raise CliffordError("idempotent refinement did not terminate")

    for d, vecs in dcomp.items():
        if len(vecs) > 1:
            raise CliffordError(
                "coefficient algebra has a component of dimension %d" % len(vecs)
            )
    # graded division: every homogeneous piece must be invertible in eRe
    for d, (x,) in dcomp.items():
        y = dcomp.get(-d)
        if y is None:
            raise CliffordError("support is not symmetric")
        lam = _proportional(_product(tab, x, y[0]), e)
        if lam is None or lam.is_zero():
            raise CliffordError(
                "homogeneous component %s is not invertible" % d.literal()
            )
    supp = len(dcomp)
    tags = {1: "F", 4: "Q", 16: "QQ", 64: "QQQ"}
    if supp not in tags:
        raise CliffordError("unexpected support size %d" % supp)
    return DivisionClass(
        tags[supp],
        support_size=supp,
        division_dim=ddim,
        cuts=cuts,
        idempotent=e,
    )


# ---------------------------------------------------------------------------
# graded-division classification, route two: the dimension-7 case table
# ---------------------------------------------------------------------------


def _torsion_bits(group, elem):
    """2-torsion element as an F2 bitmask over the even-modulus coordinates."""
    if any(elem.free):
        raise CliffordError("%s is not a torsion element" % elem.literal())
    mask = 0
    for k, (c, mod) in enumerate(zip(elem.torsion, group.moduli)):
        if c == 0:
            continue
        if mod % 2 or 2 * c % mod:
            raise CliffordError("%s is not 2-torsion" % elem.literal())
        mask |= 1 << k
    return mask


def _f2_rank(bits):
    pivots = []
    for b in bits:
        for p in pivots:
            b = min(b, b ^ p)
        if b:
            pivots.append(b)
    return len(pivots)


def dim7_case_classify(space):
    """Division class read off the normalized degree data alone.

    Pattern-matches (m; the F2-rank and relation pattern of the anisotropic
    degrees) against the ten-case table for dimension 7.  Entirely
    independent of the Clifford computation in :func:`division_class`, and
    must agree with it.  The matching permutation of the anisotropic degrees
    is recorded, since the table is stated up to reordering.
    """
    if space.dim != 7:
        raise CliffordError("the case table covers dimension 7 only")
    m = space.m
    hs = space.unit_degrees
    bits = [_torsion_bits(space.group, h) for h in hs]
    r = _f2_rank(bits)

    def find(k, pattern):
        for perm in permutations(range(k)):
            h = [bits[p] for p in perm]
            if pattern(h):
                return perm
        return None

    matches = []
    if m == 3:
        if bits == [0]:
            matches.append(("F", "m=3", (0,)))
    elif m == 2:
        if bits[0] ^ bits[1] ^ bits[2] == 0:
            matches.append(("Q", "m=2", (0, 1, 2)))
    elif m == 1:
        if r == 3:
            perm = find(
                5,
                lambda h: h[4] == 0
                and h[3] == h[0] ^ h[1] ^ h[2]
                and _f2_rank(h[:3]) == 3,
            )
            if perm:
                matches.append(("Q", "m=1 r=3", perm))
        elif r == 4:
            perm = find(
                5,
                lambda h: _f2_rank(h[:4]) == 4
                and h[4] == h[0] ^ h[1] ^ h[2] ^ h[3],
            )
            if perm:
                matches.append(("QQ", "m=1 r=4", perm))
    elif m == 0:
        if r == 6:
            perm = find(
                7,
                lambda h: _f2_rank(h[:6]) == 6
                and h[6] == h[0] ^ h[1] ^ h[2] ^ h[3] ^ h[4] ^ h[5],
            )
            if perm:
                matches.append(("QQQ", "m=0 r=6", perm))
        elif r == 5:
            perm = find(
                7,
                lambda h: _f2_rank(h[:5]) == 5
                and h[5] == h[0] ^ h[1] ^ h[2] ^ h[3] ^ h[4]
                and h[6] == 0,
            )
            if perm:
                matches.append(("QQ", "m=0 r=5 (i)", perm))
            perm = find(
                7,
                lambda h: _f2_rank(h[:5]) == 5
                and h[5] == h[0] ^ h[1]
                and h[6] == h[2] ^ h[3] ^ h[4],
            )
            if perm:
                matches.append(("QQ", "m=0 r=5 (ii)", perm))
        elif r == 4:
            perm = find(
                7,
                lambda h: _f2_rank(h[:4]) == 4
                and h[4] == h[0] ^ h[1]
                and h[5] == h[2] ^ h[3]
                and h[6] == 0,
            )
            if perm:
                matches.append(("QQ", "m=0 r=4 (i)", perm))
            perm = find(
                7,
                lambda h: _f2_rank(h[:4]) == 4
                and h[4] == h[0] ^ h[1]
                and h[5] == h[0] ^ h[2]
                and h[6] == h[0] ^ h[3],
            )
            if perm:
                matches.append(("Q", "m=0 r=4 (ii)", perm))
        elif r == 3:
            span = {0}
            for b in bits:
                span |= {s ^ b for s in span}
            if set(bits) == span - {0}:
                matches.append(("F", "m=0 r=3", tuple(range(7))))

    if not matches:
        raise CliffordError(
            "configuration matches no case (m=%d, rank=%d)" % (m, r)
        )
    tags = {t for t, _, _ in matches}
    if len(tags) > 1:
        raise CliffordError("ambiguous classification: %s" % sorted(tags))
    tag, case, perm = matches[0]
    return DivisionClass(
        tag, case=case, m=m, l=space.l, rank=r, permutation=perm
    )


# ---------------------------------------------------------------------------
# the two concrete models
# ---------------------------------------------------------------------------


def verify_octonion_clifford_model():
    """Left multiplication identifies Cl0 of the trace-zero split octonions
    (with the negated norm) with all 8x8 matrices.

    Checks l_x l_y + l_y l_x = -N(x, y) id on the trace-zero part V.  That
    is exactly the defining relation of Cl(V, -N|V), so by the universal
    property x -> l_x extends to an algebra homomorphism on the Clifford
    algebra: ``homomorphism`` is read off ``l_squares`` and no product in
    Cl(V) is formed.  It then checks that the 64 even monomial images span
    all of End(C) (64 = dim Cl0, so Cl0 maps isomorphically), and the
    adjoint identity N(xy, z) = -N(y, xz).  Returns a report dict.
    """
    C = build_cayley()
    alg = C.algebra
    gram = C.extras["norm_gram"]
    lmats = [alg._ad({1 + t: ONE}) for t in range(7)]
    report = {}

    ok = True
    for i in range(7):
        for j in range(7):
            anti = lmats[i] * lmats[j] + lmats[j] * lmats[i]
            want = Mat.identity(8).scale(-gram[(1 + i, 1 + j)])
            if anti != want:
                ok = False
    report["l_squares"] = ok
    report["homomorphism"] = ok

    even_cols = []
    for k in range(0, 8, 2):
        for w in combinations(range(7), k):
            m = Mat.identity(8)
            for t in w:
                m = m * lmats[t]
            even_cols.append(_entries(m))
    report["span_dim"] = rank(Mat._of(tuple(even_cols), 64))
    report["spans_end"] = report["span_dim"] == 64

    adjoint = True
    for i in range(7):
        for a in range(8):
            xy = dict(alg.product_basis(1 + i, a))
            for b in range(8):
                xz = dict(alg.product_basis(1 + i, b))
                if _form(gram, xy, {b: ONE}) != -_form(gram, {a: ONE}, xz):
                    adjoint = False
    report["norm_adjoint"] = adjoint

    report["ok"] = ok and report["spans_end"] and adjoint
    return report


def verify_quaternion_clifford_model():
    """The quaternion cube acting on the rank-4 free module.

    Phi sends a (x) b (x) c to kron(L_a R_bbar, L_c) on M = Q (x) Q, a
    64 = 64 isomorphism onto the endomorphisms commuting with the right
    action on the second slot.  Checks the homomorphism property, the
    anticommuting generators w_1..w_7 with squares (1,-1,1,-1,1,-1,1) and
    their distinct zero-sum degree pattern of rank 6 (the seventh degree is
    the sum of the first six), the conjugation
    a (x) b (x) c -> abar (x) bbar (x) q2 cbar q2, and that the
    skew-hermitian form h(x (x) y, u (x) v) = N(x, u) ybar q2 v intertwines
    Phi with the conjugation.  Returns a report dict.

    The intertwining h(Phi_t m, m') = h(m, Phi_tbar m') is checked on the six
    generators only.  The elements t satisfying it are closed under
    products reversed by the conjugation, so once Phi is a homomorphism and
    the conjugation an antiautomorphism (both required by ``ok``) it holds
    on the whole cube, the w_k included.
    """
    Q = build_quaternions()
    alg = Q.algebra
    tab = alg.table
    ngram = Q.extras["norm_gram"]
    report = {}

    bar_sign = (ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE)

    def mul(i, j):
        # e_i e_j is one signed basis vector c e_k of the split quaternions
        ((k, c),) = alg.product_basis(i, j)
        return k, c

    # structure constants of Q (x) Q (x) Q on elementary tensors
    def t_mul(t1, t2):
        coeff = ONE
        out = []
        for i, j in zip(t1, t2):
            k, c = mul(i, j)
            coeff = coeff * c
            out.append(k)
        return tuple(out), coeff

    triples = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    mats = {t: _cube_phi(alg, *t) for t in triples}

    gens = [
        (1, 0, 0),
        (2, 0, 0),
        (0, 1, 0),
        (0, 2, 0),
        (0, 0, 1),
        (0, 0, 2),
    ]
    hom = True
    for g in gens:
        for t in triples:
            prod, coeff = t_mul(g, t)
            if mats[g] * mats[t] != mats[prod].scale(coeff):
                hom = False
    report["homomorphism"] = hom

    report["independent"] = rank(Mat._of(tuple(_entries(mats[t]) for t in triples), 256)) == 64

    right = [kron(Mat.identity(4), _right_mat(alg, i)) for i in (1, 2)]
    comm = all(
        mats[t] * R == R * mats[t] for t in gens for R in right
    )
    report["commutes_with_right_action"] = comm

    ws = [mats[t] for t in _W_TRIPLES]
    sq_ok = True
    for k, w in enumerate(ws):
        want = Mat.identity(16)
        if k % 2 == 1:
            want = want.scale(MINUS_ONE)
        if w * w != want:
            sq_ok = False
    anti = all(
        ws[i] * ws[j] + ws[j] * ws[i] == Mat.zeros(16, 16)
        for i in range(7)
        for j in range(i + 1, 7)
    )
    report["w_squares"] = sq_ok
    report["w_anticommute"] = anti

    qdeg = {0: 0, 1: 0b01, 2: 0b10, 3: 0b11}
    wdeg = [
        qdeg[a] | (qdeg[b] << 2) | (qdeg[c] << 4) for (a, b, c) in _W_TRIPLES
    ]
    total = 0
    for d in wdeg:
        total ^= d
    report["w_degrees_distinct"] = len(set(wdeg)) == 7 and 0 not in wdeg
    report["w_degrees_rank"] = _f2_rank(wdeg)
    report["w_degrees_sum_zero"] = total == 0

    # conjugation on the cube: a (x) b (x) c -> abar (x) bbar (x) q2 cbar q2
    def conj_triple(t):
        a, b, c = t
        k, c1 = mul(c, 2)
        k, c2 = mul(2, k)
        return (a, b, k), bar_sign[a] * bar_sign[b] * bar_sign[c] * c1 * c2

    conj_ok = True
    for g in gens:
        for t in triples:
            prod, coeff = t_mul(g, t)
            cg, sg = conj_triple(g)
            ct, st = conj_triple(t)
            cp, sp = conj_triple(prod)
            lhs, lc = t_mul(ct, cg)
            if lhs != cp or st * sg * lc != coeff * sp:
                conj_ok = False
    report["conjugation_antiautomorphism"] = conj_ok

    # the skew-hermitian form on M = Q (x) Q, on sparse elements
    # {(x, y): coeff} of M, with values sparse elements of Q
    ybar_q2_v = {
        (y, v): _product(tab, {y: bar_sign[y]}, dict(alg.product_basis(2, v)))
        for y in range(4)
        for v in range(4)
    }

    def hform(m1, m2):
        # ((x, y), (u, v)) -> N(x, u) * ybar q2 v
        out = {}
        for (x, y), c1 in m1.items():
            for (u, v), c2 in m2.items():
                nxu = ngram[x, u]
                if not nxu.is_zero():
                    _accumulate(out, c1 * c2 * nxu, ybar_q2_v[(y, v)].items())
        return out

    pairsM = [(x, y) for x in range(4) for y in range(4)]
    skew = True
    for p in pairsM:
        for q in pairsM:
            h1, h2 = hform({p: ONE}, {q: ONE}), hform({q: ONE}, {p: ONE})
            if h1 != {k: -(bar_sign[k] * c) for k, c in h2.items()}:
                skew = False
    report["h_skew_hermitian"] = skew

    rightlin = True
    for p in pairsM:
        for q in pairsM:
            base = hform({p: ONE}, {q: ONE})
            for s in (1, 2):
                shifted = {(q[0], k): c for k, c in alg.product_basis(q[1], s)}
                if hform({p: ONE}, shifted) != _product(tab, base, {s: ONE}):
                    rightlin = False
    report["h_right_linear"] = rightlin

    def apply_phi(t, melem):
        # Phi_t applied to a sparse element of M, read off the columns of mats[t]
        out = {}
        cols = mats[t].columns
        for (x, y), c in melem.items():
            _accumulate(out, c, ((divmod(i, 4), v) for i, v in cols[4 * x + y].items()))
        return out

    adj = True
    for t in gens:
        ct, st = conj_triple(t)
        for p in pairsM:
            for q in pairsM:
                lhs = hform(apply_phi(t, {p: ONE}), {q: ONE})
                rhs = hform({p: ONE}, apply_phi(ct, {q: st}))
                if lhs != rhs:
                    adj = False
    report["h_phi_adjoint"] = adj

    # frozen value: h(q1 (x) 1, q1 (x) q2) = N(q1, q1) * (1bar q2 q2) = -2
    val = hform({(1, 0): ONE}, {(1, 2): ONE})
    report["h_sample"] = val
    report["h_sample_ok"] = val == {0: scalar(-2)}

    report["ok"] = all(
        report[k]
        for k in (
            "homomorphism",
            "independent",
            "commutes_with_right_action",
            "w_squares",
            "w_anticommute",
            "w_degrees_distinct",
            "w_degrees_sum_zero",
            "conjugation_antiautomorphism",
            "h_skew_hermitian",
            "h_right_linear",
            "h_phi_adjoint",
            "h_sample_ok",
        )
    ) and report["w_degrees_rank"] == 6
    return report
