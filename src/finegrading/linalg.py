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

:func:`joint_eigenspaces` refines the ambient space under a family of
commuting operators whose candidate eigenvalues are supplied by the caller;
it never searches for eigenvalues.  The annihilator is its certificate: the
operators must commute and each must be killed by the product of
(op - lambda) over its candidates, which makes the blocks exhaust the space.
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
    "vec_add",
    "vec_sub",
    "vec_scale",
    "is_zero_vec",
    "diag",
    "kron",
    "flatten",
]


class Mat:
    """Immutable dense matrix with Scalar entries."""

    __slots__ = ("rows", "ncols")

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
        return Mat([[ZERO] * n for _ in range(m)], ncols=n)

    @staticmethod
    def identity(n):
        return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

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
        return Mat([self.col(j) for j in range(self.ncols)], ncols=self.nrows)

    def __add__(self, other):
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in +")
        return Mat(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in -")
        return Mat(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.rows], ncols=self.ncols)

    def scale(self, c):
        c = scalar(c)
        return Mat([[c * a for a in r] for r in self.rows], ncols=self.ncols)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise LinAlgError(
                    "cannot multiply %s by %s" % (self.shape, other.shape)
                )
            ocols = other.ncols
            out = []
            for r in self.rows:
                acc = [ZERO] * ocols
                for a, orow in zip(r, other.rows):
                    if a.is_zero():
                        continue
                    acc = [x + a * y for x, y in zip(acc, orow)]
                out.append(acc)
            return Mat(out, ncols=ocols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec):
        """Matrix times column vector (a tuple)."""
        vec = tuple(scalar(x) for x in vec)
        if len(vec) != self.ncols:
            raise LinAlgError("vector length %d, expected %d" % (len(vec), self.ncols))
        out = [ZERO] * self.nrows
        for i, r in enumerate(self.rows):
            acc = ZERO
            for a, x in zip(r, vec):
                if not a.is_zero() and not x.is_zero():
                    acc = acc + a * x
            out[i] = acc
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


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    c = scalar(c)
    return tuple(c * a for a in u)


def is_zero_vec(u):
    return all(a.is_zero() for a in u)


def diag(entries):
    """Square matrix with the given diagonal."""
    n = len(entries)
    return Mat([[e if i == j else ZERO for j in range(n)] for i, e in enumerate(entries)], ncols=n)


def kron(A, B):
    """Kronecker product: entry ((i, k), (j, l)) is A[i, j] * B[k, l]."""
    return Mat(
        [[a * b for a in ra for b in rb] for ra in A.rows for rb in B.rows],
        ncols=A.ncols * B.ncols,
    )


def flatten(m):
    """The entries of ``m`` row by row, as a tuple."""
    return tuple(x for r in m.rows for x in r)


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
    rows = [[basis[p].get(c, ZERO) for c in range(ncols)] for p in pivots]
    rows += [[ZERO] * ncols for _ in range(mat.nrows - len(pivots))]
    return Mat(rows, ncols=ncols), pivots


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
    aug = Mat([list(r) + [b] for r, b in zip(mat.rows, rhs)], ncols=mat.ncols + 1)
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
    aug = Mat(
        [list(r) + list(Mat.identity(n).rows[i]) for i, r in enumerate(mat.rows)],
        ncols=2 * n,
    )
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        raise LinAlgError("matrix is singular")
    return Mat([r[n:] for r in red.rows], ncols=n)


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
            if not f.is_zero():
                for j, v in combo:
                    x[j] = x[j] + f * v
        image = [ZERO] * dim
        for xj, col in zip(x, sparse_cols):
            if not xj.is_zero():
                for i, v in col:
                    image[i] = image[i] + xj * v
        if tuple(image) != vec:
            return None
        return tuple(x)

    return coords


def sparse_row_reduce(rows, ncols):
    """Reduced row basis of a (possibly huge) iterable of sparse rows.

    Rows are dicts ``{column: Scalar}``.  Returns ``{pivot_column: row_dict}``
    with pivot entries 1 and full back-reduction, i.e. the rref of the row
    space.  Only independent rows are retained, so memory stays proportional
    to the rank even when millions of constraint rows are streamed through.
    """
    basis = {}
    for row in rows:
        row = {c: v for c, v in row.items() if not v.is_zero()}
        while row:
            p = min(row)
            if p in basis:
                f = row.pop(p)
                for c, v in basis[p].items():
                    if c == p:
                        continue
                    nv = row.get(c, ZERO) - f * v
                    if nv.is_zero():
                        row.pop(c, None)
                    else:
                        row[c] = nv
            else:
                inv = row[p].inverse()
                row = {c: inv * v for c, v in row.items()}
                basis[p] = row
                break
    # back-reduce so every pivot column appears in exactly one row
    for p in sorted(basis, reverse=True):
        prow = basis[p]
        for q, qrow in basis.items():
            if q == p or p not in qrow:
                continue
            f = qrow.pop(p)
            for c, v in prow.items():
                if c == p:
                    continue
                nv = qrow.get(c, ZERO) - f * v
                if nv.is_zero():
                    qrow.pop(c, None)
                else:
                    qrow[c] = nv
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
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            if ops[a] * ops[b] != ops[b] * ops[a]:
                raise LinAlgError("operators %d and %d do not commute" % (a, b))
    ident = Mat.identity(ambient)
    for index, (op, cands) in enumerate(zip(ops, candidates)):
        ann = ident
        for lam in cands:
            ann = ann * (op - ident.scale(scalar(lam)))
        if not ann.is_zero():
            raise LinAlgError(
                "operator %d is not annihilated by its candidate eigenvalues (%s)"
                % (index, ", ".join(map(str, cands)))
            )
    blocks = [((), [ident.col(j) for j in range(ambient)])]
    for op, cands in zip(ops, candidates):
        cands = [scalar(c) for c in cands]
        if len(set(cands)) != len(cands):
            raise LinAlgError("duplicate candidate eigenvalues")
        new_blocks = []
        for tag, vecs in blocks:
            B = Mat.from_cols(vecs, nrows=ambient)
            for lam in cands:
                # kernel of (op - lam) restricted to span(vecs)
                ker = kernel(op * B - B.scale(lam))
                if ker:
                    new_blocks.append((tag + (lam,), [B.apply(c) for c in ker]))
        blocks = new_blocks
    return blocks
