"""Finite-dimensional superalgebras with exact structure constants.

A :class:`SuperAlgebra` is a Z_2-graded algebra given by a sparse
multiplication table over the scalar field; the same class carries
associative algebras (quaternions, Clifford algebras), composition algebras
and Lie superalgebras — what distinguishes them is which checkers one runs.
The verifiers and basis changes, here and in :mod:`~finegrading.clifford`
and :mod:`~finegrading.constructions`, work on that table through one private
sparse product kernel ``_product``, built on the sparse axpy of
:mod:`~finegrading.linalg`; none of them multiplies dense basis vectors.
Dense coordinate tuples remain the element API (:meth:`SuperAlgebra.element`,
:meth:`SuperAlgebra.multiply`, :meth:`ModuleAction.act`, :func:`lie_closure`,
:func:`ideal_generated_by`), which wraps the same kernel: a view for users
and tests that no builder or verifier calls.  Kernels, pairings, the unit,
span coordinates and the builders' elements are sparse {index: Scalar}
dicts.  ``_commutator`` forms x y - y x of sparse elements, and
``_respects_product`` checks that a span is closed under the bracket of a
table and that a map to matrices carries it to the commutator (the so(U, q)
check of the TKK lemma).

The heavy lifting lives in the verification and completion routines:

* :func:`check_lie_super` — super anticommutativity on all basis pairs
  (``_asymmetric_pair``, which ``constructions.build_tkk`` runs with the
  other sign for supercommutativity), then the super Jacobi identity on the
  sorted basis triples that contain an index of ``_generating_indices``, a
  generating set it certifies itself; the x with ad_x a superderivation
  form a subalgebra, so that is enough.
  The same generators serve the equivariance rows of
  :func:`invariant_pairings`.
* :func:`derivations` — super-Leibniz kernel, per parity of the derivation.
* :func:`invariant_pairings` — symmetric equivariant pairings S^2 m -> g0,
  optionally restricted to degree 0 for a supplied grading of g0 + m; the
  equivariance rows are read off the g0 and action tables.
* :func:`complete_superalgebra` — assembles g0 + m from a candidate pairing
  space by solving the (linear) odd Jacobi constraints, whose solution must
  be a line.  It does not re-check the axioms: callers that need them run
  :func:`check_lie_super` on the result.

Closures test each vector for span membership as it arrives: ``_closure``
and ``_generating_indices`` add it through ``linalg._add_row``, the step of
the one elimination, and keep no echelon basis of their own.

Degree additivity on a table is walked by one private generator,
``_nonadditive``, which yields the terms whose degree is not the sum of the
two factors' degrees: :func:`invariant_pairings` checks its degrees with it,
and so do ``gradings.verify_grading`` and ``gradings.grading_from_diag``.

Every linear condition read off a table is solved by one private routine,
``_keyed_kernel``: it numbers keyed unknowns in the caller's order, sums the
(output, unknown, coeff) terms of each streamed vector equation into one
sparse row per output and returns the kernel of
:func:`~finegrading.linalg.sparse_kernel` as {unknown: Scalar} dicts.  Its
callers are :func:`derivations`, :func:`invariant_pairings`,
:func:`complete_superalgebra` and ``_unit`` (the two-sided unit, used by
``constructions.build_tkk`` and ``clifford.division_class``).
"""

from __future__ import annotations

import json

from .errors import AlgebraError, ScalarError, _quote
from .linalg import (
    Mat,
    _accumulate,
    _add_row,
    _apply_columns,
    _dense,
    _entries,
    _lincomb,
    span_solver,
    sparse_kernel,
)
from .scalars import MINUS_ONE, ONE, ZERO, format_scalar, parse_scalar, scalar

__all__ = [
    "SuperAlgebra",
    "ModuleAction",
    "LinMap",
    "check_lie_super",
    "check_homomorphism",
    "is_derivation",
    "derivations",
    "derivation_superalgebra",
    "lie_closure",
    "ideal_generated_by",
    "invariant_pairings",
    "complete_superalgebra",
    "change_basis",
    "save_algebra",
    "load_algebra",
    "dumps_algebra",
    "loads_algebra",
]


# ---------------------------------------------------------------------------
# sparse product kernel
# ---------------------------------------------------------------------------


def _product(table, x, y, acc=None):
    """Add x * y to ``acc`` (a new dict by default) and return it.

    ``x`` and ``y`` are sparse elements {index: Scalar}; ``table`` maps
    (i, j) to the (k, c) terms of e_i * e_j.
    """
    if acc is None:
        acc = {}
    for i, xi in x.items():
        for j, yj in y.items():
            terms = table.get((i, j))
            if terms:
                _accumulate(acc, xi * yj, terms)
    return acc


def _commutator(table, x, y):
    """x * y - y * x of sparse elements, read off ``table``."""
    return _product(table, {k: -c for k, c in y.items()}, x, _product(table, x, y))


def _respects_product(table, span, images, coords):
    """Where the linear map span[a] -> images[a] fails to carry the bracket
    read off ``table`` to the matrix commutator.

    ``span`` holds sparse elements, ``images`` matrices, and ``coords`` is
    the :func:`~finegrading.linalg.span_solver` of the span.  Returns None
    when the span is closed under the bracket and the map carries it to
    M N - N M; otherwise (a, b, closed) for the first pair that fails: closed
    is False when [span[a], span[b]] leaves the span, True when its image is
    not the commutator of images[a] and images[b].
    """
    for a, x in enumerate(span):
        for b, y in enumerate(span):
            c = coords(_product(table, x, y))
            if c is None:
                return a, b, False
            M, N = images[a], images[b]
            if _lincomb(c, images) != M * N - N * M:
                return a, b, True
    return None


def _entry(terms):
    """Table entry from (k, c) terms: coefficients of a repeated k summed,
    zeros dropped, sorted by k."""
    acc = {}
    for k, c in terms:
        c = scalar(c)
        if c.num:
            acc[k] = acc[k] + c if k in acc else c
    return tuple((k, v) for k, v in sorted(acc.items()) if v.num)


def _sparse(vec):
    return {i: c for i, c in enumerate(vec) if c.num}


class SuperAlgebra:
    """Bilinear product on a based super vector space, as a sparse tensor."""

    def __init__(self, names, parity, table):
        names = tuple(str(n) for n in names)
        parity = tuple(int(p) % 2 for p in parity)
        if len(names) != len(parity):
            raise AlgebraError("names/parity length mismatch")
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate basis names")
        dim = len(names)
        tab = {}
        for (i, j), terms in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise AlgebraError("table index out of range: (%d, %d)" % (i, j))
            entry = _entry(terms)
            if not entry:
                continue
            want = (parity[i] + parity[j]) % 2
            for k, _ in entry:
                if parity[k] != want:
                    raise AlgebraError(
                        "product %s * %s hits %s: parity %d, expected %d"
                        % (_quote(names[i]), _quote(names[j]), _quote(names[k]), parity[k], want)
                    )
            tab[(i, j)] = entry
        self.names = names
        self.parity = parity
        self.dim = dim
        self.table = tab
        self._index = {n: i for i, n in enumerate(names)}

    # -- elements ---------------------------------------------------------

    def zero(self):
        return (ZERO,) * self.dim

    def basis_vec(self, key):
        i = self.index(key)
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def index(self, key):
        if isinstance(key, str):
            try:
                return self._index[key]
            except KeyError:
                raise AlgebraError("no basis element named %s" % _quote(key)) from None
        i = int(key)
        if not 0 <= i < self.dim:
            raise AlgebraError(
                "basis index %d out of range for dimension %d" % (i, self.dim)
            )
        return i

    def element(self, items):
        """Element from {name_or_index: coeff} or [(name, coeff), ...]."""
        if isinstance(items, dict):
            items = items.items()
        v = [ZERO] * self.dim
        for key, c in items:
            v[self.index(key)] = v[self.index(key)] + scalar(c)
        return tuple(v)

    def multiply(self, x, y):
        return _dense(_product(self.table, _sparse(x), _sparse(y)), self.dim)

    bracket = multiply

    def product_basis(self, i, j):
        return self.table.get((i, j), ())

    def ad_matrix(self, x):
        """Matrix of left multiplication (adjoint action for Lie brackets)."""
        return self._ad(_sparse(x))

    def _ad(self, x):
        """The ad_matrix of the sparse element ``x``."""
        return Mat._of(
            tuple(_product(self.table, x, {i: ONE}) for i in range(self.dim)), self.dim
        )

    def _support_parity(self, support):
        """Parity of the basis indices of ``support``; AlgebraError when mixed."""
        seen = {self.parity[i] for i in support}
        if len(seen) > 1:
            raise AlgebraError("element is not parity homogeneous")
        return seen.pop() if seen else 0

    def even_indices(self):
        return [i for i in range(self.dim) if self.parity[i] == 0]

    def odd_indices(self):
        return [i for i in range(self.dim) if self.parity[i] == 1]

    def __repr__(self):
        ev = len(self.even_indices())
        return "SuperAlgebra(dim %d|%d)" % (ev, self.dim - ev)


class ModuleAction:
    """Bilinear action of an algebra on a based module, as a sparse tensor."""

    def __init__(self, algebra, module_names, table):
        self.algebra = algebra
        self.module_names = tuple(str(n) for n in module_names)
        self.module_dim = len(self.module_names)
        tab = {}
        for (i, j), terms in table.items():
            entry = _entry(terms)
            if entry:
                tab[(i, j)] = entry
        self.table = tab

    def act(self, x, v):
        return _dense(_product(self.table, _sparse(x), _sparse(v)), self.module_dim)


class LinMap:
    """Linear map between based superalgebras, carried by a matrix."""

    def __init__(self, source, target, matrix):
        if matrix.shape != (target.dim, source.dim):
            raise AlgebraError(
                "matrix shape %s does not map dim %d to dim %d"
                % (matrix.shape, source.dim, target.dim)
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    def __call__(self, vec):
        return self.matrix.apply(vec)

    def order(self, bound=24):
        """Multiplicative order of an endomorphism (source == target).

        Runs on sparse columns: the k-th power is tracked as the images
        M^k e_j, one application of M per nonzero entry."""
        if self.source is not self.target:
            raise AlgebraError("order requires an endomorphism")
        cols = self.matrix.columns
        ident = [{j: ONE} for j in range(self.source.dim)]
        power = list(cols)
        for k in range(1, bound + 1):
            if power == ident:
                return k
            power = [_apply_columns(cols, p) for p in power]
        raise AlgebraError("order exceeds bound %d" % bound)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def _asymmetric_pair(A, s):
    """The names of the first basis pair (i, j), i <= j, with
    e_i e_j - s (-1)^(|i||j|) e_j e_i != 0, or None: s = 1 tests
    supercommutativity, s = -1 super anticommutativity."""
    par = A.parity
    for i in range(A.dim):
        for j in range(i, A.dim):
            acc = {}
            _accumulate(acc, ONE, A.table.get((i, j), ()))
            _accumulate(acc, s if par[i] & par[j] else -s, A.table.get((j, i), ()))
            if acc:
                return A.names[i], A.names[j]
    return None


def check_lie_super(A):
    """Verify super anticommutativity and the super Jacobi identity.

    Anticommutativity is checked on pairs i <= j; once it holds, the Jacobi
    expression J(a, b, c) only changes sign under permutations, so sorted
    triples i <= j <= k suffice.  Jacobi is checked only on the sorted
    triples that contain an index of :func:`_generating_indices`, which
    certifies that its basis vectors generate A.  That is enough:
    anticommutativity makes J(a, ., .) = 0 equivalent to ad_a being a
    superderivation; if ad_x and ad_y are superderivations, then ad_[x, y]
    is their supercommutator, again a superderivation; so the x with ad_x a
    superderivation form a subalgebra, which holds the generators and is
    therefore all of A.  Both checks run on the table: [e_i, [e_j, e_k]] is
    the sum of c * table[(i, t)] over the terms (t, c) of table[(j, k)].
    """
    bad = _asymmetric_pair(A, MINUS_ONE)
    if bad:
        raise AlgebraError("super anticommutativity fails at (%s, %s)" % bad)
    n = A.dim
    par = A.parity
    tab = A.table
    gens = sorted(_generating_indices(A))
    gen_set = set(gens)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n) if i in gen_set or j in gen_set else [g for g in gens if g >= j]:
                # acc = sum over the cyclic (a, b, c) of (-1)^(|a||c|) [e_a, [e_b, e_c]]
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    negate = par[a] & par[c]
                    for t, x in tab.get((b, c), ()):
                        terms = tab.get((a, t))
                        if terms:
                            _accumulate(acc, -x if negate else x, terms)
                if acc:
                    raise AlgebraError(
                        "super Jacobi fails at (%s, %s, %s)"
                        % (A.names[i], A.names[j], A.names[k])
                    )


def check_homomorphism(A, B, F, bijective=False):
    """Verify that the linear map F (dim B x dim A) satisfies F(xy)=F(x)F(y).

    Returns True on success; raises AlgebraError naming the first violation.
    F may be a Mat or a LinMap.  Runs on sparse columns of F and the two
    tables: F(e_i e_j) is the sum of c * F e_t over the terms (t, c) of
    e_i e_j.
    """
    if isinstance(F, LinMap):
        F = F.matrix
    if F.shape != (B.dim, A.dim):
        raise AlgebraError("map shape %s, expected (%d, %d)" % (F.shape, B.dim, A.dim))
    cols = F.columns
    for j, col in enumerate(cols):
        for k in col:
            if B.parity[k] != A.parity[j]:
                raise AlgebraError("map does not preserve parity at %s" % A.names[j])
    neg_cols = [{k: -c for k, c in col.items()} for col in cols]
    for i in range(A.dim):
        for j in range(A.dim):
            # F(e_i e_j) - F(e_i) F(e_j) must vanish
            acc = {}
            for t, c in A.table.get((i, j), ()):
                _accumulate(acc, c, cols[t].items())
            _product(B.table, neg_cols[i], cols[j], acc)
            if acc:
                raise AlgebraError(
                    "not a homomorphism at pair (%s, %s)" % (A.names[i], A.names[j])
                )
    if bijective:
        from .linalg import rank

        if rank(F) != A.dim or A.dim != B.dim:
            raise AlgebraError("map is not bijective")
    return True


def is_derivation(A, D, parity=0):
    """Super-Leibniz check of the matrix D on basis pairs, run on the table.

    D(e_i e_j) = D(e_i) e_j + (-1)^(parity |e_i|) e_i D(e_j) for all i, j.
    """
    n = A.dim
    tab = A.table
    cols = D.columns
    for i in range(n):
        odd = (parity * A.parity[i]) % 2
        for j in range(n):
            acc = {}
            for t, c in tab.get((i, j), ()):
                _accumulate(acc, c, cols[t].items())
            for a, x in cols[i].items():
                _accumulate(acc, -x, tab.get((a, j), ()))
            for b, y in cols[j].items():
                _accumulate(acc, y if odd else -y, tab.get((i, b), ()))
            if acc:
                return False
    return True


def _keyed_kernel(unknowns, equations):
    """Kernel of a linear system in keyed unknowns, one {unknown: Scalar}
    dict of nonzero coordinates per kernel vector.

    ``unknowns`` lists the keys in column order, which fixes the kernel
    basis: one vector per free unknown, in that order, with a 1 there.  Each
    of the streamed ``equations`` is a vector equation, an iterable of
    (output, unknown, coeff) terms whose sum must vanish; its terms are summed
    into one sparse row per output for :func:`~finegrading.linalg.sparse_kernel`,
    so memory stays proportional to the rank.
    """
    keys = list(unknowns)
    col = {u: c for c, u in enumerate(keys)}

    def rows():
        for terms in equations:
            eq = {}  # output -> {column: coeff}
            for out, u, c in terms:
                row = eq.setdefault(out, {})
                j = col[u]
                row[j] = row[j] + c if j in row else c
            yield from eq.values()

    return [{keys[j]: c for j, c in v.items()} for v in sparse_kernel(rows(), len(keys))]


def _unit(A):
    """The two-sided unit of A as a sparse element, or None if A has none.

    Solves u e_j = lam e_j = e_j u for all j on the table, with lam the last
    unknown.  If A has a unit 1, then u - lam 1 kills A from both sides and
    so vanishes (multiply by 1): the kernel is the line through (1, 1).  A
    kernel vector with lam != 0 has lam as its free column, so lam = 1 there
    and u is a unit.
    """
    n, tab = A.dim, A.table

    def equation(j, left):
        # u e_j - lam e_j (left) or e_j u - lam e_j
        for i in range(n):
            for k, c in tab.get((i, j) if left else (j, i), ()):
                yield k, i, c
        yield j, n, MINUS_ONE

    equations = (equation(j, left) for j in range(n) for left in (True, False))
    ker = _keyed_kernel(range(n + 1), equations)
    if len(ker) != 1 or ker[0].pop(n, ZERO) != ONE:
        return None
    return ker[0]


def derivations(A, parity=0):
    """Basis of (super-)derivations of the given parity, as matrices.

    D(xy) = D(x)y + (-1)^(|D||x|) x D(y); unknowns are matrix entries D[k,i]
    with parity[k] = parity[i] + parity(D), numbered for i ascending, then k.
    The Leibniz rows of each pair (i, j) are read off the table.
    """
    n = A.dim
    par = A.parity
    dpar = parity % 2
    targets = [[k for k in range(n) if par[k] == (par[i] + dpar) % 2] for i in range(n)]

    def leibniz(i, j):
        # D(e_i e_j) - D(e_i) e_j - (-1)^(|D||e_i|) e_i D(e_j)
        odd = (dpar * par[i]) % 2
        for t, c in A.table.get((i, j), ()):
            for k in targets[t]:
                yield k, (k, t), c
        for a in targets[i]:
            for k, c in A.table.get((a, j), ()):
                yield k, (a, i), -c
        for b in targets[j]:
            for k, c in A.table.get((i, b), ()):
                yield k, (b, j), c if odd else -c

    unknowns = [(k, i) for i in range(n) for k in targets[i]]
    mats = []
    for v in _keyed_kernel(unknowns, (leibniz(i, j) for i in range(n) for j in range(n))):
        cols = tuple({} for _ in range(n))
        for (k, i), c in v.items():
            cols[i][k] = c
        mats.append(Mat._of(cols, n))
    return mats


def _commutator_table(mats, parities, coords, shift=0):
    """Table entries of the supercommutators [M_i, M_j] = M_i M_j -
    (-1)^(|i||j|) M_j M_i, written in the sparse coordinates ``coords(matrix)``.

    Only i <= j is formed (i = j only for odd M_i, where it need not
    vanish); the entry at (j, i) follows by super-antisymmetry.  ``shift`` is
    added to every index, keys and terms alike.  AlgebraError names the pair
    when ``coords`` returns None.
    """
    table = {}
    for i, (Mi, pi) in enumerate(zip(mats, parities)):
        for j in range(i if pi else i + 1, len(mats)):
            Mj, pj = mats[j], parities[j]
            sign = -ONE if pi & pj else ONE
            cs = coords(Mi * Mj - (Mj * Mi).scale(sign))
            if cs is None:
                raise AlgebraError(
                    "supercommutator of matrices %d and %d leaves the span" % (i, j)
                )
            terms = [(shift + k, c) for k, c in cs.items()]
            if terms:
                table[(shift + i, shift + j)] = terms
                if i != j:
                    table[(shift + j, shift + i)] = [(k, -(sign * c)) for k, c in terms]
    return table


def derivation_superalgebra(A):
    """The Lie superalgebra der(A) of all superderivations.

    Returns (algebra, matrices): basis is even derivations followed by odd
    ones, the bracket is the supercommutator D E - (-1)^(|D||E|) E D expressed
    in that basis.  The result passes check_lie_super.
    """
    evens = derivations(A, parity=0)
    odds = derivations(A, parity=1)
    mats = list(evens) + list(odds)
    parities = [0] * len(evens) + [1] * len(odds)
    # coordinates of a matrix over the derivation basis, reduced once
    solver = span_solver([_entries(m) for m in mats], A.dim * A.dim)
    table = _commutator_table(mats, parities, lambda m: solver(_entries(m)))
    der = SuperAlgebra(["d%d" % i for i in range(len(mats))], parities, table)
    return der, mats


def _closure(A, vectors, gens=None):
    """One spanning vector per dimension, sparse, of the smallest span
    holding the sparse ``vectors`` and closed under both products with
    ``gens`` (default: the span itself): the remainders that
    :func:`~finegrading.linalg._add_row` returns, in order of arrival."""
    basis, rows, new = {}, [], vectors
    while True:
        frontier = [r for r in (_add_row(basis, w) for w in new) if r is not None]
        if not frontier:
            return rows
        rows += frontier
        current = rows if gens is None else gens
        new = (
            w for f in frontier for b in current
            for w in (_product(A.table, b, f), _product(A.table, f, b))
        )


def lie_closure(A, vectors):
    """Basis of the subalgebra generated by the given elements."""
    return [_dense(row, A.dim) for row in _closure(A, map(_sparse, vectors))]


def ideal_generated_by(A, vectors):
    """Basis of the two-sided ideal generated by the given elements."""
    gens = [{i: ONE} for i in range(A.dim)]
    return [_dense(row, A.dim) for row in _closure(A, map(_sparse, vectors), gens)]


# ---------------------------------------------------------------------------
# invariant pairings and completion
# ---------------------------------------------------------------------------


def _nonadditive(items, left, right, out):
    """Yield (i, j, k) for each term k of each table entry ((i, j), terms) of
    ``items`` with left[i] + right[j] != out[k].

    Degrees are numbered by first occurrence, so each sum is formed once per
    pair of distinct degrees."""
    index = {}
    il, ir, io = ([index.setdefault(d, len(index)) for d in ds] for ds in (left, right, out))
    sums = {}
    for (i, j), terms in items:
        pair = (il[i], ir[j])
        s = sums.get(pair)
        if s is None:
            s = sums[pair] = index.get(left[i] + right[j], -1)
        for k, _ in terms:
            if io[k] != s:
                yield i, j, k


def _check_degrees(g0, action, degrees):
    """Split ``degrees`` into the g0 and module parts after checking that
    they are additive on both tables; AlgebraError names the first pair."""
    n0, md = g0.dim, action.module_dim
    degrees = tuple(degrees)
    if len(degrees) != n0 + md:
        raise AlgebraError(
            "degrees has %d entries, expected %d for g0 and %d for the module"
            % (len(degrees), n0, md)
        )
    d0, dm = degrees[:n0], degrees[n0:]
    for i, j, k in _nonadditive(g0.table.items(), d0, d0, d0):
        raise AlgebraError(
            "degrees are not additive on g0 at (%s, %s): the product hits %s"
            % (g0.names[i], g0.names[j], g0.names[k])
        )
    mnames = action.module_names
    for i, j, k in _nonadditive(action.table.items(), d0, dm, dm):
        raise AlgebraError(
            "degrees are not additive on the action at (%s, %s): it hits %s"
            % (g0.names[i], mnames[j], mnames[k])
        )
    return d0, dm


def _generating_indices(A):
    """Basis indices whose basis vectors generate A, chosen greedily and
    certified without assuming any identity of the product.

    The odd indices are tried first, then the even ones, ascending within
    each parity.  L is the span of the kept e_g closed under the left
    products e_g v with every kept g; an index is kept when e_idx is not in
    L.  L is grown incrementally: when g is kept, e_g times every vector
    already in L is added, and every new vector is multiplied by every kept
    generator.  Every vector of L is a product of kept generators, so L lies
    in the subalgebra they generate; and each index is either kept or in L,
    so L is A at the end and the kept indices generate A.  In a Lie algebra
    L is the subalgebra the kept vectors generate, so on a purely even Lie
    algebra the greedy keeps the indices of ascending Lie closures.
    """
    tab = A.table
    chosen, gens, basis, rows = [], [], {}, []
    for idx in A.odd_indices() + A.even_indices():
        if len(basis) == A.dim:
            break
        e = {idx: ONE}
        first = _add_row(basis, e)
        if first is None:
            continue
        chosen.append(idx)
        gens.append(e)
        frontier = [first] + [
            r for r in (_add_row(basis, _product(tab, e, row)) for row in rows)
            if r is not None
        ]
        while frontier:
            rows += frontier
            frontier = [
                r for r in (_add_row(basis, _product(tab, g, f)) for f in frontier for g in gens)
                if r is not None
            ]
    return chosen


def invariant_pairings(g0, action, degrees=None, target=None):
    """Basis of symmetric g0-equivariant pairings b : S^2 m -> g0 of degree 0.

    Equivariance: [x, b(u, v)] = b(x.u, v) + b(u, x.v) for all x in g0.
    ``degrees`` grades g0 + m: one degree (int or group element) per g0 basis
    vector, then one per module basis vector — the layout of the degree tuple
    of the assembled superalgebra.  It is checked to be additive on the g0
    bracket and on the action, and only coefficients b(u, v)_k with
    deg u + deg v = deg k are solved for, so the result spans the degree-0
    pairings.  Nothing is lost when the degrees are the eigenvalues of ad of
    commuting semisimple g0 elements: equivariance under such an element
    already forces every pairing to have degree 0.

    Equivariance is imposed for basis vectors e_g whose Lie closure is g0
    (chosen greedily); that implies it for all of g0, since the annihilator
    of a pairing under the natural g0-action on Hom(S^2 m, g0) is a
    subalgebra.  For u_i, u_j its rows read [e_g, e_k] off ``g0.table`` and
    e_g.u_i, e_g.u_j off ``action.table``.

    ``target`` restricts the values: only pairings landing in the span of the
    listed g0 basis vectors (names or indices) are returned.  The restricted
    space is the full Hom into that span when the span is an ideal of g0,
    e.g. a simple summand.

    Returns a list of pairings, each a dict {(i, j): sparse g0-vector
    {k: Scalar}} for i <= j.
    """
    md = action.module_dim
    n0 = g0.dim
    tgt = range(n0) if target is None else sorted({g0.index(t) for t in target})
    if degrees is not None:
        d0, dm = _check_degrees(g0, action, degrees)

    # the unknowns b(u_i, u_j)_k, i <= j, with k allowed for the pair
    allowed = {}
    for i in range(md):
        for j in range(i, md):
            if degrees is None:
                allowed[(i, j)] = tgt
            else:
                d = dm[i] + dm[j]
                allowed[(i, j)] = [k for k in tgt if d == d0[k]]

    def equivariance(g, i, j):
        # [e_g, b(u_i, u_j)] - b(e_g.u_i, u_j) - b(u_i, e_g.u_j)
        for k in allowed[(i, j)]:
            for l, c in g0.table.get((g, k), ()):
                yield l, (i, j, k), c
        for p, q in ((i, j), (j, i)):
            for a, f in action.table.get((g, p), ()):
                pair = (a, q) if a <= q else (q, a)
                for k in allowed[pair]:
                    yield k, pair + (k,), -f

    unknowns = [ij + (k,) for ij, ks in allowed.items() for k in ks]
    equations = (equivariance(g, *ij) for g in _generating_indices(g0) for ij in allowed)
    out = []
    for v in _keyed_kernel(unknowns, equations):
        pairing = {}
        for (i, j, k), c in v.items():
            pairing.setdefault((i, j), {})[k] = c
        out.append(pairing)
    return out


def complete_superalgebra(g0, action, pairings):
    """Assemble g = g0 + m with odd bracket from span(pairings).

    The odd-odd-odd super Jacobi identity is linear in the pairing
    coefficients; its solution space is computed exactly and must be a line.
    The bracket is normalized so the first nonzero coefficient is 1, and the
    odd basis is named by ``action.module_names``.  The axioms of the result
    are not re-checked here; :func:`check_lie_super` does that.  Returns
    (algebra, coefficient tuple).
    """
    md = action.module_dim
    n0 = g0.dim
    npair = len(pairings)
    if npair == 0:
        raise AlgebraError("no candidate pairings supplied")
    if any(g0.parity):
        raise AlgebraError("g0 must be purely even")

    def jacobi(i, j, k):
        # b_t(u_j, u_k).u_i + b_t(u_k, u_i).u_j + b_t(u_i, u_j).u_k for each
        # t, read off the action table
        for t, b in enumerate(pairings):
            for p, q, m in ((j, k, i), (k, i, j), (i, j, k)):
                for l, c in b.get((p, q) if p <= q else (q, p), {}).items():
                    for o, f in action.table.get((l, m), ()):
                        yield o, t, c * f

    triples = ((i, j, k) for i in range(md) for j in range(i, md) for k in range(j, md))
    ker = _keyed_kernel(range(npair), (jacobi(*ijk) for ijk in triples))
    if not ker:
        raise AlgebraError("no Jacobi-compatible bracket in the pairing span")
    if len(ker) > 1:
        raise AlgebraError(
            "Jacobi solution space has dimension %d; the bracket is not unique "
            "up to scale" % len(ker)
        )
    inv = ker[0][min(ker[0])].inverse()
    coeffs = tuple(inv * ker[0].get(t, ZERO) for t in range(npair))

    # assemble the full table
    names = list(g0.names) + list(action.module_names)
    parity = list(g0.parity) + [1] * md
    table = {}
    for (i, j), terms in g0.table.items():
        table[(i, j)] = list(terms)
    for (i, j), terms in action.table.items():
        table[(i, n0 + j)] = [(n0 + k, c) for k, c in terms]
        table[(n0 + j, i)] = [(n0 + k, -c) for k, c in terms]
    for i in range(md):
        for j in range(i, md):
            acc = {}
            for ct, b in zip(coeffs, pairings):
                if not ct.is_zero():
                    _accumulate(acc, ct, b.get((i, j), {}).items())
            if acc:
                entry = list(acc.items())
                table[(n0 + i, n0 + j)] = entry
                if i != j:
                    table[(n0 + j, n0 + i)] = entry
    return SuperAlgebra(names, parity, table), coeffs


def change_basis(A, P, names=None):
    """Same algebra in the basis given by the columns of P (must be invertible
    and parity homogeneous)."""
    from .linalg import inverse

    n = A.dim
    if P.shape != (n, n):
        raise AlgebraError("basis matrix must be %d x %d" % (n, n))
    inv_cols = inverse(P).columns
    cols = P.columns
    parity = [A._support_parity(col) for col in cols]
    table = {}
    for i in range(n):
        for j in range(n):
            # P^-1 [P e_i, P e_j]
            entry = {}
            for k, c in _product(A.table, cols[i], cols[j]).items():
                _accumulate(entry, c, inv_cols[k].items())
            if entry:
                table[(i, j)] = list(entry.items())
    if names is None:
        names = ["b%d" % i for i in range(n)]
    return SuperAlgebra(names, parity, table)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def dumps_algebra(A):
    table = {
        "%d,%d" % ij: [[k, format_scalar(c)] for k, c in terms]
        for ij, terms in sorted(A.table.items())
    }
    payload = {"names": list(A.names), "parity": list(A.parity), "table": table}
    return json.dumps(payload, indent=2, sort_keys=True)


def loads_algebra(text):
    """Inverse of :func:`dumps_algebra`; malformed text raises AlgebraError."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise AlgebraError("algebra text is not valid JSON: %s" % exc) from None
    for key, kind in (("names", list), ("parity", list), ("table", dict)):
        if not isinstance(payload, dict) or not isinstance(payload.get(key), kind):
            raise AlgebraError("algebra JSON has no %s under key %r" % (kind.__name__, key))
    if not all(p in (0, 1) for p in payload["parity"]):
        raise AlgebraError("algebra JSON key 'parity' holds a value other than 0 and 1")
    table, dim = {}, len(payload["names"])
    for key, terms in payload["table"].items():
        try:
            i, j = (int(p) for p in key.split(","))
            table[(i, j)] = entry = []
            for k, c in terms:
                if not (isinstance(k, int) and 0 <= k < dim and isinstance(c, str)):
                    raise ValueError("term %s is not [basis index, scalar text]" % _quote([k, c]))
                entry.append((k, parse_scalar(c)))
        except (TypeError, ValueError, ScalarError) as exc:
            raise AlgebraError("algebra JSON table key %s: %s" % (_quote(key), exc)) from None
    return SuperAlgebra(payload["names"], payload["parity"], table)


def save_algebra(A, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_algebra(A))
        fh.write("\n")


def load_algebra(path):
    with open(path, encoding="utf-8") as fh:
        return loads_algebra(fh.read())
