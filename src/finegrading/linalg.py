"""Exact linear algebra over the scalar field.

Everything runs over :class:`~finegrading.scalars.Scalar`, so ranks, kernels
and eigenspace splittings are exact — no tolerances anywhere.  There is one
Gaussian elimination, :func:`sparse_row_reduce`, on rows stored as
``{column: entry}`` dicts; :func:`rref`, :func:`rank`, :func:`kernel`,
:func:`solve`, :func:`inverse` and :func:`span_solver` all run on it.  Its
result is the reduced row echelon form of the row space, which is unique, so
reduced forms, kernel bases and solutions do not depend on row order or on
how the elimination proceeds.  Its loop body is the incremental step
``_add_row``, which adds one row and returns the row's normalized remainder,
or None when the row is in the span; ``superalg._closure`` and
``superalg._generating_indices`` call it to test each vector as it arrives.

There is one vector format, the sparse dict ``{index: Scalar}`` of nonzero
entries, from the elimination to the structure tables:
:func:`sparse_kernel` returns its kernel vectors in it,
:func:`span_solver` reduces a fixed set of sparse columns once and answers
many coordinate queries on sparse vectors with sparse coordinates, and
:func:`joint_eigenspaces` returns sparse eigenvectors.  A matrix enters
:func:`span_solver` or :func:`rank` as a vector through ``_entries``, its
stored entries keyed ``j * nrows + i``.  Dense tuples are views for users and
tests: ``Mat(rows)``, :meth:`Mat.from_cols`, :meth:`Mat.col`,
:meth:`Mat.row`, ``rows``, :meth:`Mat.apply` and :func:`kernel`.

``_accumulate`` is the one sparse axpy: the elimination, :class:`Mat`
arithmetic and, through :mod:`~finegrading.superalg`, the product kernel and
the verifiers add scaled sparse vectors with it.  A :class:`Mat` stores only
its nonzero entries, as sparse ``{row: entry}`` columns, the form the
elimination, the eigenspace split and the verifiers read directly.
:func:`rank` reduces the stored columns, and :func:`kernel`, :func:`solve`
and :func:`inverse` reduce those of the transpose.

:func:`joint_eigenspaces` refines the ambient space under a family of
commuting operators whose candidate eigenvalues are supplied by the caller;
it never searches for eigenvalues.  The annihilator is its certificate: the
operators must commute and each must be killed by the product of
(op - lambda) over its candidates, which makes the blocks exhaust the space.
It reads the stored columns of each operator and pays per nonzero entry,
checking the certificate one basis vector and one factor at a time; it forms
no dense matrix product.
"""

from __future__ import annotations

from .errors import LinAlgError
from .scalars import MINUS_ONE, ONE, ZERO, Scalar, scalar

__all__ = [
    "Mat",
    "rref",
    "rank",
    "kernel",
    "solve",
    "inverse",
    "span_solver",
    "joint_eigenspaces",
    "sparse_row_reduce",
    "sparse_kernel",
    "diag",
    "kron",
]


class Mat:
    """Immutable matrix with Scalar entries, stored as sparse columns.

    ``columns`` holds one ``{row: entry}`` dict per column with the nonzero
    entries only, and ``nrows`` the row count; that is all a Mat stores.
    Every operation builds its result in this form and drops the entries
    that cancel, so equal matrices have equal columns.  A product combines
    the columns of the left factor through ``_apply_columns``, the sparse
    axpy of the elimination, the eigenspace split and the verifiers: one
    multiply-add per pair of a nonzero ``A[i, k]`` and a nonzero ``B[k, j]``,
    so a product of two n x n signed permutations costs n multiplications.
    ``rows``, :meth:`row`, :meth:`col` and ``m[i, j]`` are dense views formed
    on request.  Callers that work on the storage read ``columns`` and must
    not mutate it.
    """

    __slots__ = ("columns", "nrows")

    def __init__(self, rows, ncols=None):
        rows = [tuple(map(scalar, r)) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise LinAlgError("ragged rows")
            if ncols is not None and ncols != width:
                raise LinAlgError("ncols mismatch")
            ncols = width
        elif ncols is None:
            ncols = 0
        cols = tuple({} for _ in range(ncols))
        for i, r in enumerate(rows):
            for col, x in zip(cols, r):
                if x.num:
                    col[i] = x
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "nrows", len(rows))

    @classmethod
    def _of(cls, cols, nrows):
        """The Mat of ``cols``, a tuple of ``{row: Scalar}`` dicts of nonzero
        entries (unchecked: the caller builds them and hands them over)."""
        m = object.__new__(cls)
        object.__setattr__(m, "columns", cols)
        object.__setattr__(m, "nrows", nrows)
        return m

    def __setattr__(self, *args):
        raise AttributeError("Mat is immutable")

    @property
    def ncols(self):
        return len(self.columns)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def rows(self):
        """The dense rows, a tuple of tuples of Scalars."""
        return tuple(map(self.row, range(self.nrows)))

    @staticmethod
    def zeros(m, n):
        return Mat._of(tuple({} for _ in range(n)), m)

    @staticmethod
    def identity(n):
        return diag((ONE,) * n)

    @staticmethod
    def from_cols(cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if cols:
            if nrows is None:
                nrows = len(cols[0])
            for j, c in enumerate(cols):
                if len(c) != nrows:
                    raise LinAlgError(
                        "column %d has length %d, expected %d" % (j, len(c), nrows)
                    )
        elif nrows is None:
            nrows = 0
        return Mat._of(
            tuple({i: x for i, x in enumerate(map(scalar, c)) if x.num} for c in cols), nrows
        )

    def __getitem__(self, key):
        i, j = key
        return self.columns[j].get(range(self.nrows)[i], ZERO)

    def row(self, i):
        i = range(self.nrows)[i]
        return tuple(c.get(i, ZERO) for c in self.columns)

    def col(self, j):
        return _dense(self.columns[j], self.nrows)

    def transpose(self):
        rows = tuple({} for _ in range(self.nrows))
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows[i][j] = x
        return Mat._of(rows, self.ncols)

    def __add__(self, other):
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in +")
        return _lincomb({0: ONE, 1: ONE}, (self, other))

    def __sub__(self, other):
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in -")
        return _lincomb({0: ONE, 1: MINUS_ONE}, (self, other))

    def __neg__(self):
        return _lincomb({0: MINUS_ONE}, (self,))

    def scale(self, c):
        c = scalar(c)
        return self if c == ONE else _lincomb({0: c}, (self,))

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise LinAlgError(
                    "cannot multiply %s by %s" % (self.shape, other.shape)
                )
            cols = self.columns
            return Mat._of(tuple(_apply_columns(cols, c) for c in other.columns), self.nrows)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec):
        """Matrix times column vector (a tuple)."""
        vec = tuple(scalar(x) for x in vec)
        if len(vec) != self.ncols:
            raise LinAlgError("vector length %d, expected %d" % (len(vec), self.ncols))
        terms = {j: x for j, x in enumerate(vec) if x.num}
        return _dense(_apply_columns(self.columns, terms), self.nrows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.nrows, tuple(frozenset(c.items()) for c in self.columns)))

    def is_zero(self):
        return not any(self.columns)

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self.rows)
        return "Mat[%s]" % body


def diag(entries):
    """Square matrix with the given diagonal."""
    entries = [scalar(e) for e in entries]
    return Mat._of(tuple({i: e} if e.num else {} for i, e in enumerate(entries)), len(entries))


def kron(A, B):
    """Kronecker product: entry ((i, k), (j, l)) is A[i, j] * B[k, l]."""
    m = B.nrows
    return Mat._of(
        tuple(
            {i * m + k: a * b for i, a in ca.items() for k, b in cb.items()}
            for ca in A.columns
            for cb in B.columns
        ),
        A.nrows * m,
    )


def _entries(m):
    """The stored entries of ``m`` as one sparse vector of length
    nrows * ncols, entry (i, j) keyed ``j * nrows + i``: the form in which a
    matrix enters :func:`span_solver` or :func:`rank` as a vector."""
    n = m.nrows
    return {j * n + i: x for j, col in enumerate(m.columns) for i, x in col.items()}


def _lincomb(coeffs, mats):
    """The matrix sum_k c * mats[k] over the (k, c) of the sparse ``coeffs``
    ``{k: Scalar}``; ``mats`` is nonempty and of one shape."""
    terms = [(c, mats[k].columns) for k, c in coeffs.items() if c.num]
    cols = []
    for j in range(mats[0].ncols):
        acc = {}
        for c, m in terms:
            _accumulate(acc, c, m[j].items())
        cols.append(acc)
    return Mat._of(tuple(cols), mats[0].nrows)


def rref(mat):
    """Reduced row echelon form; returns (Mat, pivot column tuple).

    A dense view of :func:`sparse_row_reduce`: the pivot rows in pivot order,
    then zero rows up to the row count of ``mat``.
    """
    basis = sparse_row_reduce(mat.transpose().columns)
    pivots = tuple(sorted(basis))
    rows = tuple(basis[p] for p in pivots) + tuple({} for _ in range(mat.nrows - len(pivots)))
    return Mat._of(rows, mat.ncols).transpose(), pivots


def rank(mat):
    return len(sparse_row_reduce(mat.columns))


def kernel(mat):
    """Basis of the right null space, as a list of coordinate tuples: the
    dense view of :func:`sparse_kernel` on the rows of ``mat``.

    Deterministic: one basis vector per free column, ascending, with a 1 in
    that free coordinate.
    """
    n = mat.ncols
    return [_dense(v, n) for v in sparse_kernel(mat.transpose().columns, n)]


def solve(mat, rhs):
    """One solution x of mat * x = rhs, or None when the system is
    inconsistent (inconsistency is an expected outcome, not an error)."""
    rhs = tuple(scalar(x) for x in rhs)
    if len(rhs) != mat.nrows:
        raise LinAlgError("rhs length %d, expected %d" % (len(rhs), mat.nrows))
    n = mat.ncols
    # the rows [mat | rhs]; a pivot in column n makes the system inconsistent
    rows = ({**r, n: b} if b.num else r for r, b in zip(mat.transpose().columns, rhs))
    basis = sparse_row_reduce(rows)
    if n in basis:
        return None
    x = [ZERO] * n
    for p, row in basis.items():
        x[p] = row.get(n, ZERO)
    return tuple(x)


def inverse(mat):
    n = mat.nrows
    if n != mat.ncols:
        raise LinAlgError("inverse of a non-square matrix")
    # the rows [mat | I] reduce to [I | mat^-1] exactly when mat is invertible
    rows = ({**r, n + i: ONE} for i, r in enumerate(mat.transpose().columns))
    basis = sparse_row_reduce(rows)
    if any(p not in basis for p in range(n)):
        raise LinAlgError("matrix is singular")
    inv_rows = tuple({c - n: v for c, v in basis[p].items() if c >= n} for p in range(n))
    return Mat._of(inv_rows, n).transpose()


def span_solver(cols, dim):
    """Coordinates over the span of fixed, independent sparse columns.

    ``cols`` are sparse vectors ``{index: Scalar}`` of nonzero entries with
    indices in ``range(dim)``.  Reduces the rows ``[col_j | e_j]`` once; each
    reduced row pairs a vector of the unique echelon basis of the span with
    the combination of columns that gives it.  Returns ``coords(vec)``: for a
    sparse ``vec`` of nonzero Scalar entries, the sparse x with
    ``sum_j x[j] cols[j] == vec``, or None when ``vec`` lies outside the span
    (checked exactly on every query).  Raises LinAlgError when the columns
    are linearly dependent, or when a column or a query has an index outside
    ``range(dim)`` or an entry that is not a Scalar.
    """
    cols = list(cols)
    for j, col in enumerate(cols):
        _check_entries(col, dim, "span column %d" % j)
    basis = sparse_row_reduce({**col, dim + j: ONE} for j, col in enumerate(cols))
    if any(p >= dim for p in basis):
        raise LinAlgError("span columns are linearly dependent")
    # pivot -> the combination of columns giving its echelon basis vector
    combos = {p: [(c - dim, v) for c, v in row.items() if c >= dim] for p, row in basis.items()}

    def coords(vec):
        _check_entries(vec, dim, "query vector")
        x = {}
        for p, f in vec.items():
            combo = combos.get(p)
            if combo is not None:
                _accumulate(x, f, combo)
        return x if _apply_columns(cols, x) == vec else None

    return coords


def _check_entries(vec, dim, what):
    """LinAlgError naming the first index of the sparse ``vec`` outside
    ``range(dim)``, or the first entry that is not a Scalar and ``what``
    holds it."""
    for i, x in vec.items():
        if not 0 <= i < dim:
            raise LinAlgError("index %r outside the vector length %d" % (i, dim))
        if not isinstance(x, Scalar):
            raise LinAlgError(
                "%s entry at index %r is %s, not Scalar" % (what, i, type(x).__name__)
            )


def _accumulate(acc, f, terms):
    """acc[k] += f * c over the (k, c) of ``terms``; entries that cancel go.

    The one sparse axpy: elimination, the superalgebra product kernel and the
    verifiers all add scaled sparse rows through it.
    """
    for k, c in terms:
        v = f * c
        if k in acc:
            v = acc[k] + v
        if not v.num:
            acc.pop(k, None)
        else:
            acc[k] = v


def _apply_columns(cols, vec):
    """The sparse vector sum_k vec[k] cols[k] of a sparse ``vec`` ``{k: Scalar}``."""
    acc = {}
    for k, c in vec.items():
        _accumulate(acc, c, cols[k].items())
    return acc


def _dense(vec, dim):
    """The dense tuple of a sparse vector ``{k: Scalar}``."""
    out = [ZERO] * dim
    for k, c in vec.items():
        out[k] = c
    return tuple(out)


def sparse_row_reduce(rows):
    """Reduced row basis of a (possibly huge) iterable of sparse rows.

    Rows are dicts ``{column: Scalar}``.  Returns ``{pivot_column: row_dict}``
    with pivot entries 1, every pivot column zero in the other rows: the rref
    of the row space.  Only independent rows are retained, so memory stays
    proportional to the rank even when millions of constraint rows are
    streamed through.

    The basis is kept fully reduced as rows arrive, one ``_add_row`` each.  A
    basis row is zero at every other pivot, so subtracting it creates no
    pivot entry: an incoming row subtracts each basis row at whose pivot it
    has an entry exactly once, and a redundant row costs one subtraction per
    pivot entry.  A row that brings a new pivot p is normalized and p is
    eliminated from the basis rows that hold column p.  The rref of a row
    space is unique, so the result is the one any elimination order reaches.
    """
    neg_tails = {}
    for row in rows:
        _add_row(neg_tails, row)
    return {p: {p: ONE, **{c: -v for c, v in tail.items()}} for p, tail in neg_tails.items()}


def _add_row(neg_tails, row):
    """Add the sparse ``row`` (left unchanged) to ``neg_tails``, which maps
    each pivot to the off-pivot terms of its basis row, negated, so that
    subtracting f times a row is one multiply-add per entry.  Returns the
    remainder of ``row``, 1 at its pivot, as a new dict, or None when ``row``
    lies in the span."""
    row = {c: v for c, v in row.items() if v.num}
    for p in [c for c in row if c in neg_tails]:
        _accumulate(row, row.pop(p), neg_tails[p].items())
    if not row:
        return None
    p = min(row)
    ninv = -row.pop(p).inverse()
    tail = {c: ninv * v for c, v in row.items()}
    for qtail in neg_tails.values():
        if p in qtail:
            _accumulate(qtail, qtail.pop(p), tail.items())
    neg_tails[p] = tail
    return {p: ONE, **{c: -v for c, v in tail.items()}}


def sparse_kernel(rows, ncols):
    """Kernel basis of the linear system given by sparse rows, one sparse
    vector ``{column: Scalar}`` per free column, ascending, with a 1 at that
    column."""
    basis = sparse_row_reduce(rows)
    pivots = sorted(basis)
    out = []
    for fc in range(ncols):
        if fc not in basis:
            v = {p: -basis[p][fc] for p in pivots if fc in basis[p]}
            v[fc] = ONE
            out.append(v)
    return out


def joint_eigenspaces(ops, candidates, ambient=None):
    """Simultaneous eigenspace splitting for commuting operators.

    ``ops`` is a list of square matrices on the same n-dimensional space,
    ``candidates[i]`` the candidate eigenvalues for ``ops[i]`` (these are
    never searched for; the caller supplies them).  Returns a list of
    ``(eigenvalue_tuple, [vectors])`` pairs with nonempty vector lists; each
    vector is sparse, ``{index: Scalar}`` of its nonzero entries.

    Raises LinAlgError unless the operators commute and each is killed by
    the product of (op - lam) over its distinct candidates.  That product is
    the certificate: it makes every operator diagonalizable with eigenvalues
    among its candidates on each joint eigenspace of the others (which it
    preserves), so the blocks always exhaust the space.

    Each operator is read as its stored sparse columns, and all work is paid per
    nonzero entry: commutation is A(B e_j) = B(A e_j) on each basis vector,
    the certificate applies one factor (op - lam) at a time to each e_j, and
    a block spanned by v_1..v_m splits by the kernel of the columns
    (op - lam) v_k.  That kernel basis is the unique rref one, so the vectors
    are those of the dense computation.
    """
    if len(ops) != len(candidates):
        raise LinAlgError("one candidate list per operator required")
    if ambient is None:
        if not ops:
            raise LinAlgError("no operators and no ambient dimension")
        ambient = ops[0].nrows
    for op in ops:
        if op.shape != (ambient, ambient):
            raise LinAlgError("operator shape %s, ambient %d" % (op.shape, ambient))
    cols = [op.columns for op in ops]
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            ca, cb = cols[a], cols[b]
            if any(_apply_columns(ca, cb[j]) != _apply_columns(cb, ca[j])
                   for j in range(ambient)):
                raise LinAlgError("operators %d and %d do not commute" % (a, b))
    lams = [[scalar(lam) for lam in cands] for cands in candidates]
    for index, (op_cols, cands) in enumerate(zip(cols, lams)):
        for j in range(ambient):
            v = {j: ONE}
            for lam in cands:
                if not v:
                    break
                w = _apply_columns(op_cols, v)
                _accumulate(w, -lam, v.items())
                v = w
            if v:
                raise LinAlgError(
                    "operator %d is not annihilated by its candidate eigenvalues (%s)"
                    % (index, ", ".join(map(str, candidates[index])))
                )
    if any(len(set(cands)) != len(cands) for cands in lams):
        raise LinAlgError("duplicate candidate eigenvalues")
    blocks = [((), [{j: ONE} for j in range(ambient)])]
    for op_cols, cands in zip(cols, lams):
        new_blocks = []
        for tag, vecs in blocks:
            images = [_apply_columns(op_cols, v) for v in vecs]
            for lam in cands:
                # kernel of (op - lam) restricted to span(vecs): row i of the
                # system holds entry i of each column (op - lam) v_k
                rows = {}
                for k, (v, image) in enumerate(zip(vecs, images)):
                    w = dict(image)
                    _accumulate(w, -lam, v.items())
                    for i, x in w.items():
                        rows.setdefault(i, {})[k] = x
                ker = sparse_kernel(rows.values(), len(vecs))
                if ker:
                    # the kernel vector c is the vector sum_k c_k v_k
                    new_blocks.append((tag + (lam,), [_apply_columns(vecs, c) for c in ker]))
        blocks = new_blocks
    return blocks
