"""Exact linear algebra over the scalar field.

Everything runs over :class:`~finegrading.scalars.Scalar`, so ranks, kernels
and eigenspace splittings are exact — no tolerances anywhere.  There is one
Gaussian elimination, :func:`sparse_row_reduce`, on rows stored as
``{column: entry}`` dicts; :func:`rref`, :func:`rank`, :func:`kernel`,
:func:`solve`, :func:`inverse` and :func:`span_solver` all run on it.  Its
result is the reduced row echelon form of the row space, which is unique, so
reduced forms, kernel bases and solutions do not depend on row order or on
how the elimination proceeds.  :func:`span_solver` reduces a fixed set of
columns once and then answers many coordinate queries against it.

``_accumulate`` is the one sparse axpy: the elimination, and through
:mod:`~finegrading.superalg` the product kernel and the verifiers, add
scaled sparse rows with it.  :class:`Mat` keeps dense storage but does work
only for nonzero entries; ``_lincomb`` forms a linear combination of
matrices the same way.

:func:`joint_eigenspaces` refines the ambient space under a family of
commuting operators whose candidate eigenvalues are supplied by the caller;
it never searches for eigenvalues.  The annihilator is its certificate: the
operators must commute and each must be killed by the product of
(op - lambda) over its candidates, which makes the blocks exhaust the space.
It reads each operator once into sparse columns and pays per nonzero entry,
checking the certificate one basis vector and one factor at a time; it forms
no dense matrix product.
"""

from __future__ import annotations

from .errors import LinAlgError
from .scalars import ONE, ZERO, scalar

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
    "vec_scale",
    "is_zero_vec",
    "diag",
    "kron",
    "flatten",
]


class Mat:
    """Immutable matrix with Scalar entries, stored dense, costed sparse.

    The entries are kept as a tuple of row tuples, so indexing and equality
    are plain tuple operations.  Scalar arithmetic runs only over nonzero
    entries: a product costs one multiply-add per pair of a nonzero
    ``A[i, k]`` and a nonzero ``B[k, j]``, :meth:`apply` one per nonzero
    vector entry and nonzero row entry in its column, ``-`` copies the left
    entry where the right one is zero and :meth:`scale` skips zero entries.
    So a product of two n x n signed permutations costs n multiplications.
    Products read each factor's ``(column, entry)`` pairs of nonzero row
    entries from a private slot filled on first use, so a matrix that enters
    k products is scanned for zeros once, not k times.
    """

    __slots__ = ("rows", "ncols", "_terms")

    def __init__(self, rows, ncols=None):
        data = tuple(tuple(scalar(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise LinAlgError("ragged rows")
            if ncols is not None and ncols != width:
                raise LinAlgError("ncols mismatch")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _of(cls, rows, ncols):
        """The Mat of ``rows``, a tuple of equal-length tuples of Scalars
        (unchecked: results of Mat arithmetic need no coercion)."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "_terms", None)
        return m

    def _row_terms(self):
        """The ``(column, entry)`` pairs of each row's nonzero entries,
        computed on first use and kept (the matrix is immutable)."""
        terms = self._terms
        if terms is None:
            terms = tuple(tuple((j, x) for j, x in enumerate(r) if x.num) for r in self.rows)
            object.__setattr__(self, "_terms", terms)
        return terms

    def __setattr__(self, *args):
        raise AttributeError("Mat is immutable")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @staticmethod
    def zeros(m, n):
        return Mat._of(((ZERO,) * n,) * m, n)

    @staticmethod
    def identity(n):
        return diag((ONE,) * n)

    @staticmethod
    def from_cols(cols, nrows=None):
        cols = [tuple(scalar(x) for x in c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return Mat([[c[i] for c in cols] for i in range(nrows)], ncols=len(cols))

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self):
        if not self.rows:
            return Mat._of(((),) * self.ncols, 0)
        return Mat._of(tuple(zip(*self.rows)), self.nrows)

    def __add__(self, other):
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in +")
        return Mat._of(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in -")
        return Mat._of(
            tuple(
                tuple(a - b if b.num else a for a, b in zip(r, s))
                for r, s in zip(self.rows, other.rows)
            ),
            self.ncols,
        )

    def __neg__(self):
        return Mat._of(tuple(tuple(-a for a in r) for r in self.rows), self.ncols)

    def scale(self, c):
        c = scalar(c)
        if c == ONE:
            return self
        return Mat._of(
            tuple(tuple(c * a if a.num else a for a in r) for r in self.rows), self.ncols
        )

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise LinAlgError(
                    "cannot multiply %s by %s" % (self.shape, other.shape)
                )
            ocols = other.ncols
            terms = other._row_terms()
            out = []
            for r in self._row_terms():
                acc = [ZERO] * ocols
                for k, a in r:
                    for j, y in terms[k]:
                        acc[j] = acc[j] + a * y
                out.append(tuple(acc))
            return Mat._of(tuple(out), ocols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec):
        """Matrix times column vector (a tuple)."""
        vec = tuple(scalar(x) for x in vec)
        if len(vec) != self.ncols:
            raise LinAlgError("vector length %d, expected %d" % (len(vec), self.ncols))
        terms = [(j, x) for j, x in enumerate(vec) if x.num]
        out = []
        for r in self.rows:
            acc = ZERO
            for j, x in terms:
                a = r[j]
                if a.num:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self.rows)
        return "Mat[%s]" % body


def vec_scale(c, u):
    c = scalar(c)
    return tuple(c * a for a in u)


def is_zero_vec(u):
    return all(a.is_zero() for a in u)


def diag(entries):
    """Square matrix with the given diagonal."""
    n = len(entries)
    zeros = (ZERO,) * n
    return Mat._of(
        tuple(zeros[:i] + (scalar(e),) + zeros[i + 1:] for i, e in enumerate(entries)), n
    )


def kron(A, B):
    """Kronecker product: entry ((i, k), (j, l)) is A[i, j] * B[k, l]."""
    return Mat._of(
        tuple(tuple(a * b for a in ra for b in rb) for ra in A.rows for rb in B.rows),
        A.ncols * B.ncols,
    )


def flatten(m):
    """The entries of ``m`` row by row, as a tuple."""
    return tuple(x for r in m.rows for x in r)


def _lincomb(coeffs, mats):
    """The matrix sum_k coeffs[k] * mats[k] over the nonzero coefficients;
    ``mats`` is nonempty and of one shape."""
    ncols = mats[0].ncols
    acc = [[ZERO] * ncols for _ in range(mats[0].nrows)]
    for c, m in zip(coeffs, mats):
        if not c.num:
            continue
        for arow, mrow in zip(acc, m.rows):
            for j, x in enumerate(mrow):
                if x.num:
                    arow[j] = arow[j] + c * x
    return Mat._of(tuple(map(tuple, acc)), ncols)


def _rows(mat):
    """The rows of ``mat`` as ``{column: entry}`` dicts."""
    return (dict(enumerate(r)) for r in mat.rows)


def rref(mat):
    """Reduced row echelon form; returns (Mat, pivot column tuple).

    A dense view of :func:`sparse_row_reduce`: the pivot rows in pivot order,
    then zero rows up to the row count of ``mat``.
    """
    ncols = mat.ncols
    basis = sparse_row_reduce(_rows(mat), ncols)
    pivots = tuple(sorted(basis))
    rows = [tuple(basis[p].get(c, ZERO) for c in range(ncols)) for p in pivots]
    rows += [(ZERO,) * ncols] * (mat.nrows - len(pivots))
    return Mat._of(tuple(rows), ncols), pivots


def rank(mat):
    return len(sparse_row_reduce(_rows(mat), mat.ncols))


def kernel(mat):
    """Basis of the right null space, as a list of coordinate tuples.

    Deterministic: one basis vector per free column, ascending, with a 1 in
    that free coordinate.
    """
    return sparse_kernel(_rows(mat), mat.ncols)


def solve(mat, rhs):
    """One solution x of mat * x = rhs, or None when the system is
    inconsistent (inconsistency is an expected outcome, not an error)."""
    rhs = tuple(scalar(x) for x in rhs)
    if len(rhs) != mat.nrows:
        raise LinAlgError("rhs length %d, expected %d" % (len(rhs), mat.nrows))
    if not mat.rows:
        if any(not b.is_zero() for b in rhs):
            return None
        return (ZERO,) * mat.ncols
    aug = Mat._of(tuple(r + (b,) for r, b in zip(mat.rows, rhs)), mat.ncols + 1)
    red, pivots = rref(aug)
    if pivots and pivots[-1] == mat.ncols:
        return None
    x = [ZERO] * mat.ncols
    for prow, pc in enumerate(pivots):
        x[pc] = red[prow, mat.ncols]
    return tuple(x)


def inverse(mat):
    n = mat.nrows
    if n != mat.ncols:
        raise LinAlgError("inverse of a non-square matrix")
    aug = Mat._of(tuple(r + e for r, e in zip(mat.rows, Mat.identity(n).rows)), 2 * n)
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        raise LinAlgError("matrix is singular")
    return Mat._of(tuple(r[n:] for r in red.rows), n)


def span_solver(cols, dim):
    """Coordinates over the span of fixed, independent columns.

    Reduces the rows ``[col_j | e_j]`` once; each reduced row pairs a vector
    of the unique echelon basis of the span with the combination of columns
    that gives it.  Returns ``coords(vec)``: the tuple x with
    ``sum_j x_j cols[j] == vec``, or None when ``vec`` lies outside the span
    (checked exactly on every query).  Raises LinAlgError when the columns
    are linearly dependent.
    """
    k = len(cols)
    sparse_cols = []
    rows = []
    for j, col in enumerate(cols):
        entries = [(i, scalar(x)) for i, x in enumerate(col)]
        entries = [(i, x) for i, x in entries if not x.is_zero()]
        sparse_cols.append(entries)
        rows.append(dict(entries + [(dim + j, ONE)]))
    basis = sparse_row_reduce(rows, dim + k)
    if any(p >= dim for p in basis):
        raise LinAlgError("span columns are linearly dependent")
    combos = [
        (p, [(c - dim, v) for c, v in row.items() if c >= dim])
        for p, row in basis.items()
    ]

    def coords(vec):
        vec = tuple(scalar(x) for x in vec)
        if len(vec) != dim:
            raise LinAlgError("vector length %d, expected %d" % (len(vec), dim))
        x = [ZERO] * k
        for p, combo in combos:
            f = vec[p]
            if f.num:
                for j, v in combo:
                    x[j] = x[j] + f * v
        image = [ZERO] * dim
        for xj, col in zip(x, sparse_cols):
            if xj.num:
                for i, v in col:
                    image[i] = image[i] + xj * v
        if tuple(image) != vec:
            return None
        return tuple(x)

    return coords


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


def _columns(mat):
    """The columns of ``mat`` as ``{row: entry}`` dicts of its nonzero entries."""
    cols = [{} for _ in range(mat.ncols)]
    for i, r in enumerate(mat.rows):
        for j, x in enumerate(r):
            if x.num:
                cols[j][i] = x
    return cols


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


def sparse_row_reduce(rows, ncols):
    """Reduced row basis of a (possibly huge) iterable of sparse rows.

    Rows are dicts ``{column: Scalar}``.  Returns ``{pivot_column: row_dict}``
    with pivot entries 1 and full back-reduction, i.e. the rref of the row
    space.  Only independent rows are retained, so memory stays proportional
    to the rank even when millions of constraint rows are streamed through.
    """
    # Each reduction step subtracts f times a basis row from a row whose
    # entry at the pivot is f: one multiply-add per off-pivot entry, against
    # the off-pivot terms of the basis row, negated once per basis row.
    basis = {}
    neg_tails = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v.num}
        while row:
            p = min(row)
            if p in basis:
                _accumulate(row, row.pop(p), neg_tails[p])
            else:
                inv = row[p].inverse()
                row = {c: inv * v for c, v in row.items()}
                basis[p] = row
                neg_tails[p] = [(c, -v) for c, v in row.items() if c != p]
                break
    # back-reduce so every pivot column appears in exactly one row
    for p in sorted(basis, reverse=True):
        neg_tail = [(c, -v) for c, v in basis[p].items() if c != p]
        for q, qrow in basis.items():
            if q != p and p in qrow:
                _accumulate(qrow, qrow.pop(p), neg_tail)
    return basis


def sparse_kernel(rows, ncols):
    """Kernel basis (dense tuples) of the linear system given by sparse rows."""
    basis = sparse_row_reduce(rows, ncols)
    pivots = sorted(basis)
    free = [c for c in range(ncols) if c not in basis]
    out = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for p in pivots:
            w = basis[p].get(fc)
            if w is not None:
                v[p] = -w
        out.append(tuple(v))
    return out


def joint_eigenspaces(ops, candidates, ambient=None):
    """Simultaneous eigenspace splitting for commuting operators.

    ``ops`` is a list of square matrices on the same n-dimensional space,
    ``candidates[i]`` the candidate eigenvalues for ``ops[i]`` (these are
    never searched for; the caller supplies them).  Returns a list of
    ``(eigenvalue_tuple, [vectors])`` pairs with nonempty vector lists.

    Raises LinAlgError unless the operators commute and each is killed by
    the product of (op - lam) over its distinct candidates.  That product is
    the certificate: it makes every operator diagonalizable with eigenvalues
    among its candidates on each joint eigenspace of the others (which it
    preserves), so the blocks always exhaust the space.

    Each operator is read once into sparse columns, and all work is paid per
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
    cols = [_columns(op) for op in ops]
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
                    coords = [{k: x for k, x in enumerate(c) if not x.is_zero()} for c in ker]
                    new_blocks.append((tag + (lam,), [_apply_columns(vecs, c) for c in coords]))
        blocks = new_blocks
    return [(tag, [_dense(v, ambient) for v in vecs]) for tag, vecs in blocks]
