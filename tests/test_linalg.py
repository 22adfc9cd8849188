import random
from fractions import Fraction

import pytest

from finegrading.errors import LinAlgError
from finegrading.linalg import (
    Mat,
    _accumulate,
    _entries,
    diag,
    inverse,
    joint_eigenspaces,
    kernel,
    kron,
    rank,
    rref,
    solve,
    span_solver,
    sparse_kernel,
    sparse_row_reduce,
)
from finegrading.scalars import ALPHA, IUNIT, OMEGA, ONE, ZETA, ZERO, Cyc, Scalar, scalar

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra; only TestMatProperties needs it
    st = None


def gauss_jordan(entries, ncols):
    """Textbook dense Gauss-Jordan oracle: (reduced rows, pivot columns).

    Works on Fraction or Scalar entries (both have ``/``, ``-`` and a truth
    value), pivoting on the first nonzero entry from the top.
    """
    rows = [list(r) for r in entries]
    pivots = []
    for c in range(ncols):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        rows[rk] = [x / rows[rk][c] for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
        pivots.append(c)
    return rows, tuple(pivots)


def fraction_rank(entries):
    """Independent rank oracle using Fraction arithmetic."""
    rows = [list(map(Fraction, r)) for r in entries]
    return len(gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def is_zero_vec(u):
    return all(a.is_zero() for a in u)


def dense(vec, dim):
    """The dense tuple of a sparse vector {index: Scalar}."""
    return tuple(vec.get(k, ZERO) for k in range(dim))


def sparse(vec):
    """The sparse vector {index: Scalar} of the nonzero entries of ``vec``."""
    return {i: x for i, x in enumerate(map(scalar, vec)) if x.num}


def flatten(m):
    """The entries of ``m`` row by row, as a tuple."""
    return tuple(x for r in m.rows for x in r)


def random_int_matrix(rng, m, n, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


class TestMat:
    def test_shapes_and_ops(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([[0, 1], [1, 0]])
        assert (a * b).rows == Mat([[2, 1], [4, 3]]).rows
        assert (a + b - a).rows == b.rows
        assert a.transpose().col(0) == (scalar(1), scalar(2))
        assert a.scale(2)[1, 1] == scalar(8)
        assert Mat.identity(2) * a.transpose() == a.transpose() * 1

    def test_apply(self):
        a = Mat([[1, 2], [3, 4], [5, 6]])
        assert a.apply((1, -1)) == (scalar(-1), scalar(-1), scalar(-1))
        with pytest.raises(LinAlgError):
            a.apply((1, 2, 3))

    def test_from_cols(self):
        a = Mat.from_cols([(1, 2), (3, 4)])
        assert a[0, 1] == scalar(3) and a[1, 0] == scalar(2)

    def test_kron_diag_flatten(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([[0, 5, 1], [6, 7, -1]])
        k = kron(a, b)
        assert k.shape == (4, 6)
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(3):
                        assert k[2 * i + p, 3 * j + q] == a[i, j] * b[p, q]
        assert diag([1, Fraction(1, 2)]) == Mat([[1, 0], [0, Fraction(1, 2)]])
        assert diag([]).shape == (0, 0)
        assert flatten(b) == tuple(scalar(v) for v in (0, 5, 1, 6, 7, -1))
        # the stored entries, entry (i, j) keyed j * nrows + i
        assert _entries(b) == {
            1: scalar(6), 2: scalar(5), 3: scalar(7), 4: scalar(1), 5: scalar(-1)
        }

    def test_ragged_rejected(self):
        with pytest.raises(LinAlgError):
            Mat([[1, 2], [3]])

    def test_from_cols_honours_nrows(self):
        assert Mat.from_cols([(1, 2, 3)], nrows=3).shape == (3, 1)
        assert Mat.from_cols([], nrows=2).shape == (2, 0)
        with pytest.raises(LinAlgError, match="column 0 has length 3, expected 2"):
            Mat.from_cols([(1, 2, 3)], nrows=2)
        with pytest.raises(LinAlgError, match="column 1 has length 1, expected 2"):
            Mat.from_cols([(1, 2), (3,)])


# ---------------------------------------------------------------------------
# the Mat kernel against naive dense arithmetic, on zero-heavy matrices
# ---------------------------------------------------------------------------


def dense_mul(A, B, n):
    return [
        [sum((a * B[k][j] for k, a in enumerate(r)), ZERO) for j in range(n)]
        for r in A
    ]


def dense_apply(A, v):
    return tuple(sum((a * x for a, x in zip(r, v)), ZERO) for r in A)


def entries_of(mat):
    """The entries as lists; each must already be a Scalar."""
    rows = [list(r) for r in mat.rows]
    assert all(type(x) is Scalar for r in rows for x in r)
    return rows


if st is not None:
    fixed = settings(max_examples=40, deadline=None, derandomize=True, database=None)
    cycs = st.builds(Cyc, st.tuples(*[st.integers(-3, 3)] * 4), st.integers(1, 4))
    polys = st.lists(cycs, min_size=1, max_size=3)
    # Q, Q(zeta12) and rational functions of a of degree at most 2
    entries = st.one_of(
        st.fractions(max_denominator=6).map(Scalar.from_rational),
        cycs.map(Scalar.from_cyc),
        st.builds(Scalar, polys, polys.filter(lambda d: any(not c.is_zero() for c in d))),
    )

    @st.composite
    def zero_heavy(draw, m, n):
        """An m x n Mat with at most half its entries nonzero and, when it
        has any entries, one all-zero row and one all-zero column."""
        rows = [[ZERO] * n for _ in range(m)]
        if m and n:
            zr, zc = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
            cells = [(i, j) for i in range(m) for j in range(n) if i != zr and j != zc]
            k = draw(st.integers(0, min(len(cells), m * n // 2)))
            for i, j in draw(st.permutations(cells))[:k]:
                rows[i][j] = draw(entries)
        return Mat(rows, ncols=n)

    sparse_entries = st.one_of(st.just(ZERO), entries)
    dims = st.integers(0, 4)

    class TestMatProperties:
        @fixed
        @given(st.data(), dims, dims, dims)
        def test_product(self, data, m, k, n):
            A, B = data.draw(zero_heavy(m, k)), data.draw(zero_heavy(k, n))
            AB = A * B
            assert AB.shape == (m, n)
            assert entries_of(AB) == dense_mul(A.rows, B.rows, n)

        @fixed
        @given(st.data(), dims, dims)
        def test_sum_difference_negation_transpose(self, data, m, n):
            A, B = data.draw(zero_heavy(m, n)), data.draw(zero_heavy(m, n))
            pairs = [list(zip(r, s)) for r, s in zip(A.rows, B.rows)]
            assert entries_of(A + B) == [[a + b for a, b in r] for r in pairs]
            assert entries_of(A - B) == [[a - b for a, b in r] for r in pairs]
            assert entries_of(-A) == [[-a for a in r] for r in A.rows]
            assert (A - B).shape == (-A).shape == (m, n)
            T = A.transpose()
            assert T.shape == (n, m)
            assert entries_of(T) == [[A.rows[i][j] for i in range(m)] for j in range(n)]

        @fixed
        @given(st.data(), dims, dims, st.one_of(st.just(ZERO), st.just(ONE), entries))
        def test_scale(self, data, m, n, c):
            A = data.draw(zero_heavy(m, n))
            assert entries_of(A.scale(c)) == [[c * a for a in r] for r in A.rows]
            assert A.scale(c).shape == (m, n)
            if c == ONE:
                assert A.scale(c) is A

        @fixed
        @given(st.data(), dims, dims)
        def test_apply(self, data, m, n):
            A = data.draw(zero_heavy(m, n))
            v = tuple(data.draw(st.lists(sparse_entries, min_size=n, max_size=n)))
            got = A.apply(v)
            assert all(type(x) is Scalar for x in got)
            assert got == dense_apply(A.rows, v)

        @fixed
        @given(st.data(), dims, dims, dims)
        def test_no_stored_zeros(self, data, m, k, n):
            A, B = data.draw(zero_heavy(m, n)), data.draw(zero_heavy(m, n))
            C = data.draw(zero_heavy(n, k))
            # [A | A] times [C; -C] is a product whose terms all cancel
            AA = Mat([r + r for r in A.rows], ncols=2 * n)
            CC = Mat(C.rows + tuple(tuple(-x for x in r) for r in C.rows), ncols=k)
            cancelled = AA * CC
            assert cancelled == Mat.zeros(m, k) and not any(cancelled.columns)
            for M in (A + B, A - B, -A, A.scale(ZERO), A * C, cancelled):
                assert all(x.num for col in M.columns for x in col.values())
            assert A.scale(ZERO) == Mat.zeros(m, n)

        @fixed
        @given(st.data(), dims, dims)
        def test_difference_with_itself_is_zero(self, data, m, n):
            A = data.draw(zero_heavy(m, n))
            Z = Mat.zeros(m, n)
            assert A - A == Z and hash(A - A) == hash(Z)
            assert (A - A).is_zero() and (A.is_zero() == (A == Z))

        @fixed
        @given(st.data(), dims, dims)
        def test_constructors_agree(self, data, m, n):
            A = data.draw(zero_heavy(m, n))
            by_cols = Mat.from_cols([A.col(j) for j in range(n)], nrows=m)
            by_rows = Mat(A.rows, ncols=n)
            assert by_cols == by_rows == A
            assert hash(by_cols) == hash(by_rows) == hash(A)
            d = data.draw(st.lists(sparse_entries, min_size=n, max_size=n))
            for diagonal, M in ((d, diag(d)), ([ONE] * n, Mat.identity(n))):
                entries = [[diagonal[i] if i == j else ZERO for j in range(n)] for i in range(n)]
                rows, cols = Mat(entries, ncols=n), Mat.from_cols(zip(*entries), nrows=n)
                assert M == rows == cols
                assert hash(M) == hash(rows) == hash(cols)

        @fixed
        @given(st.data(), dims, dims)
        def test_span_solver_agrees_with_solve(self, data, m, n):
            A = data.draw(zero_heavy(m, n))
            # the columns independent of those before them: full column rank
            cols = []
            for j in range(n):
                if rank(Mat.from_cols(cols + [A.col(j)], nrows=m)) > len(cols):
                    cols.append(A.col(j))
            B, k = Mat.from_cols(cols, nrows=m), len(cols)
            coords = span_solver(B.columns, m)
            x = tuple(data.draw(st.lists(sparse_entries, min_size=k, max_size=k)))
            v = tuple(data.draw(st.lists(sparse_entries, min_size=m, max_size=m)))
            inside = B.apply(x)
            assert dense(coords(sparse(inside)), k) == x
            for vec in (inside, v, tuple(a + b for a, b in zip(inside, v))):
                got, want = coords(sparse(vec)), solve(B, vec)
                assert (got is None) == (want is None)
                if got is not None:
                    assert dense(got, k) == want

        @fixed
        @given(st.data(), dims, dims, dims, dims)
        def test_kron(self, data, m, n, p, q):
            A, B = data.draw(zero_heavy(m, n)), data.draw(zero_heavy(p, q))
            K = kron(A, B)
            assert K.shape == (m * p, n * q)
            assert entries_of(K) == [
                [a * b for a in ra for b in rb] for ra in A.rows for rb in B.rows
            ]


class TestRankKernelSolve:
    def test_rank_matches_fraction_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            entries = random_int_matrix(rng, m, n)
            assert rank(Mat(entries)) == fraction_rank(entries)

    def test_kernel_annihilates_and_has_right_dim(self):
        rng = random.Random(32)
        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            a = Mat(random_int_matrix(rng, m, n))
            ker = kernel(a)
            assert len(ker) == n - rank(a)
            for v in ker:
                assert is_zero_vec(a.apply(v))

    def test_kernel_deterministic(self):
        a = Mat([[1, 2, 3], [2, 4, 6]])
        assert kernel(a) == kernel(Mat([[1, 2, 3], [2, 4, 6]]))

    def test_solve_round_trip(self):
        rng = random.Random(33)
        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = Mat(random_int_matrix(rng, m, n))
            x = tuple(scalar(rng.randint(-3, 3)) for _ in range(n))
            b = a.apply(x)
            got = solve(a, b)
            assert a.apply(got) == b

    def test_solve_inconsistent_flagged(self):
        a = Mat([[1, 1], [1, 1]])
        assert solve(a, (0, 1)) is None
        assert solve(Mat.zeros(2, 3), (0, 1)) is None

    def test_inverse(self):
        rng = random.Random(34)
        found = 0
        while found < 15:
            a = Mat(random_int_matrix(rng, 4, 4))
            if rank(a) < 4:
                continue
            found += 1
            assert inverse(a) * a == Mat.identity(4)
        with pytest.raises(LinAlgError, match="singular"):
            inverse(Mat([[1, 2], [2, 4]]))

    def test_symbolic_entries(self):
        # matrix with alpha entries: [[a, 1], [1, a]] has rank 2 generically
        a = Mat([[ALPHA, ONE], [ONE, ALPHA]])
        assert rank(a) == 2
        inv = inverse(a)
        assert a * inv == Mat.identity(2)
        # kernel of [[a, 1, a+1]] is 2-dimensional
        k = kernel(Mat([[ALPHA, ONE, ALPHA + ONE]]))
        assert len(k) == 2

    def test_rref_pivots(self):
        red, piv = rref(Mat([[0, 2, 1], [0, 4, 2]]))
        assert piv == (1,)
        assert red[0, 1] == ONE


def oracle_check(entries, ncols, rhs_list):
    """Compare rref, rank, kernel, solve and inverse of one matrix with the
    Gauss-Jordan oracle, entry by entry."""
    entries = [[scalar(x) for x in r] for r in entries]
    mat = Mat(entries, ncols=ncols)
    red, pivots = gauss_jordan(entries, ncols)
    got_red, got_pivots = rref(mat)
    assert got_pivots == pivots
    assert got_red == Mat(red, ncols=ncols)
    assert rank(mat) == len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    want_ker = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for prow, pc in enumerate(pivots):
            v[pc] = -red[prow][fc]
        want_ker.append(tuple(v))
    assert kernel(mat) == want_ker
    for rhs in rhs_list:
        rhs = [scalar(b) for b in rhs]
        aug, apiv = gauss_jordan([r + [b] for r, b in zip(entries, rhs)], ncols + 1)
        if apiv and apiv[-1] == ncols:
            assert solve(mat, rhs) is None
        else:
            x = [ZERO] * ncols
            for prow, pc in enumerate(apiv):
                x[pc] = aug[prow][ncols]
            assert solve(mat, rhs) == tuple(x)
    if len(entries) == ncols:
        n = ncols
        ident = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        aug, apiv = gauss_jordan([r + e for r, e in zip(entries, ident)], 2 * n)
        if apiv[:n] == tuple(range(n)):
            assert inverse(mat) == Mat([r[n:] for r in aug], ncols=n)
        else:
            with pytest.raises(LinAlgError, match="singular"):
                inverse(mat)


class TestAgainstGaussJordanOracle:
    def random_rhs(self, rng, mat_entries, m, n):
        # one consistent right-hand side and one random (usually not)
        x = [rng.randint(-3, 3) for _ in range(n)]
        image = [sum(a * b for a, b in zip(r, x)) for r in mat_entries]
        return [image, [rng.randint(-3, 3) for _ in range(m)]]

    def test_random_rank_deficient(self):
        rng = random.Random(41)
        for _ in range(30):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            r = rng.randint(0, min(m, n))
            left = random_int_matrix(rng, m, r)
            right = random_int_matrix(rng, r, n)
            entries = [
                [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
                for i in range(m)
            ]
            oracle_check(entries, n, self.random_rhs(rng, entries, m, n))

    @pytest.mark.parametrize("m, n", [(2, 7), (7, 2), (5, 5), (1, 6), (6, 1)])
    def test_random_wide_tall_square(self, m, n):
        rng = random.Random(100 * m + n)
        for _ in range(10):
            entries = random_int_matrix(rng, m, n, -2, 2)
            oracle_check(entries, n, self.random_rhs(rng, entries, m, n))

    @pytest.mark.parametrize("m, n", [(3, 4), (4, 4), (1, 1)])
    def test_all_zero(self, m, n):
        oracle_check([[0] * n for _ in range(m)], n, [[0] * m, [1] + [0] * (m - 1)])

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0)])
    def test_empty(self, m, n):
        oracle_check([[] for _ in range(m)], n, [[0] * m])

    def test_zero_heavy(self):
        # mostly zero rows over Q(zeta12)(a), with a zero row and a sum of
        # two rows, so the elimination cancels pivots and whole rows
        rng = random.Random(12)
        pool = [ONE, -ONE, scalar(2), ZETA, OMEGA, IUNIT, ALPHA, ALPHA + ONE]
        for _ in range(25):
            m, n = rng.randint(1, 6), rng.randint(1, 7)
            entries = [
                [rng.choice(pool) if rng.random() < 0.3 else ZERO for _ in range(n)]
                for _ in range(m)
            ]
            entries.append([a + b for a, b in zip(entries[0], entries[-1])])
            entries[rng.randrange(m + 1)] = [ZERO] * n
            oracle_check(entries, n, self.random_rhs(rng, entries, m + 1, n))

    def test_cyclotomic_entries(self):
        # the third row is omega times the first plus i times the second
        r1 = [ONE, ZETA, OMEGA, ZERO]
        r2 = [IUNIT, ZERO, ONE, ZETA * ZETA]
        r3 = [a * OMEGA + b * IUNIT for a, b in zip(r1, r2)]
        entries = [r1, r2, r3, [ZERO, ZETA, ZERO, -IUNIT]]
        oracle_check(entries, 4, [[ONE, ZETA, OMEGA + ZETA, ZERO], [ZERO, ZERO, ONE, ZERO]])

    def test_alpha_entries(self):
        a = ALPHA
        r1 = [a, ONE, a + ONE]
        r2 = [ONE, a, ZERO]
        r3 = [x + y for x, y in zip(r1, r2)]
        oracle_check([r1, r2, r3], 3, [[ONE, a, a + ONE], [ONE, ZERO, ZERO]])
        oracle_check([r1, r2, [ZERO, ONE, a]], 3, [[ONE, a, a * a]])


class TestSpanSolver:
    def test_coordinates_and_outside_vectors(self):
        rng = random.Random(42)
        for _ in range(20):
            dim = rng.randint(2, 6)
            k = rng.randint(1, dim - 1)
            cols = random_int_matrix(rng, k, dim)
            if fraction_rank(cols) < k:
                continue
            coords = span_solver([sparse(c) for c in cols], dim)
            x = tuple(scalar(rng.randint(-3, 3)) for _ in range(k))
            vec = Mat.from_cols(cols, nrows=dim).apply(x)
            assert dense(coords(sparse(vec)), k) == x
            # a unit vector outside the span, added to a vector inside it
            for i in range(dim):
                if fraction_rank(cols + [[int(j == i) for j in range(dim)]]) > k:
                    outside = tuple(v + (ONE if j == i else ZERO) for j, v in enumerate(vec))
                    assert coords(sparse(outside)) is None
                    break

    def test_cyclotomic_span(self):
        cols = [(ONE, ZETA, ZERO), (OMEGA, ZERO, IUNIT)]
        coords = span_solver([sparse(c) for c in cols], 3)
        vec = tuple(IUNIT * a + ZETA * b for a, b in zip(*cols))
        assert dense(coords(sparse(vec)), 2) == (IUNIT, ZETA)
        assert coords({0: ONE}) is None

    def test_dependent_columns_rejected(self):
        with pytest.raises(LinAlgError, match="dependent"):
            span_solver([sparse(c) for c in [(1, 2, 3), (0, 1, 0), (2, 5, 6)]], 3)
        with pytest.raises(LinAlgError, match="dependent"):
            span_solver([{}], 2)

    def test_vector_length_checked(self):
        with pytest.raises(LinAlgError, match="length"):
            span_solver([{0: ONE}], 2)({0: ONE, 2: ONE})

    def test_column_index_outside_dim_is_named(self):
        with pytest.raises(LinAlgError, match="index 3 outside the vector length 3"):
            span_solver([sparse((1, 0, 0, 1))], 3)
        with pytest.raises(LinAlgError, match="index -1 outside"):
            span_solver([{0: ONE}, {-1: ONE}], 3)

    def test_query_index_outside_dim_is_named(self):
        coords = span_solver([{0: ONE}], 3)
        assert coords({0: scalar(2)}) == {0: scalar(2)}
        with pytest.raises(LinAlgError, match="index 5 outside the vector length 3"):
            coords({0: ONE, 5: ONE})

    def test_entry_that_is_not_a_scalar_is_named(self):
        with pytest.raises(LinAlgError, match="span column 1 entry at index 2 is int, not Scalar"):
            span_solver([{0: ONE}, {1: ONE, 2: 1}], 3)
        coords = span_solver([{0: ONE}], 3)
        with pytest.raises(LinAlgError, match="query vector entry at index 0 is Fraction"):
            coords({0: Fraction(1, 2)})


class TestSparseKernel:
    def test_agrees_with_dense_kernel(self):
        rng = random.Random(35)
        for _ in range(25):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            entries = random_int_matrix(rng, m, n, -3, 3)
            rows = [
                {j: scalar(x) for j, x in enumerate(r) if x} for r in entries
            ]
            assert [dense(v, n) for v in sparse_kernel(rows, n)] == kernel(Mat(entries))

    def test_streams_many_redundant_rows(self):
        rows = [{0: scalar(1), 2: scalar(k)} for k in [1] * 200]
        ker = sparse_kernel(rows, 3)
        assert len(ker) == 2
        for v in ker:
            v = dense(v, 3)
            assert (v[0] + v[2]).is_zero()


class TestJointEigenspaces:
    def test_single_diagonal(self):
        op = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        blocks = joint_eigenspaces([op], [[1, 2]])
        dims = {tag[0]: len(v) for tag, v in blocks}
        assert dims == {ONE: 2, scalar(2): 1}

    def test_two_commuting(self):
        a = Mat([[0, 1], [1, 0]])
        b = Mat([[2, 0], [0, 2]])
        blocks = joint_eigenspaces([a, b], [[1, -1], [2]])
        assert sorted((str(t[0]), len(v)) for t, v in blocks) == [
            ("-1", 1),
            ("1", 1),
        ]
        for (lam, mu), vecs in blocks:
            for v in (dense(v, 2) for v in vecs):
                assert a.apply(v) == tuple(lam * x for x in v)
                assert b.apply(v) == tuple(mu * x for x in v)

    def test_imaginary_eigenvalues(self):
        rot = Mat([[0, -1], [1, 0]])
        blocks = joint_eigenspaces([rot], [[IUNIT, -IUNIT]])
        assert {len(v) for _, v in blocks} == {1}
        assert len(blocks) == 2

    def test_missing_candidate_raises(self):
        op = Mat([[1, 0], [0, 3]])
        with pytest.raises(LinAlgError, match="annihilated"):
            joint_eigenspaces([op], [[1]])

    def test_unannihilated_operator_is_named(self):
        a = Mat([[1, 0], [0, 3]])
        b = Mat([[2, 0], [0, 2]])
        with pytest.raises(LinAlgError) as err:
            joint_eigenspaces([a, b], [[1, 3], [5]])
        assert str(err.value) == (
            "operator 1 is not annihilated by its candidate eigenvalues (5)"
        )

    def test_non_semisimple_raises(self):
        op = Mat([[1, 1], [0, 1]])
        with pytest.raises(LinAlgError):
            joint_eigenspaces([op], [[1]])

    def test_non_commuting_raises(self):
        a = Mat([[0, 1], [1, 0]])
        b = Mat([[1, 0], [0, -1]])
        with pytest.raises(LinAlgError, match="commute"):
            joint_eigenspaces([a, b], [[1, -1], [1, -1]])

    def test_refinement_of_blocks(self):
        a = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        b = Mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        blocks = joint_eigenspaces([a, b], [[1, -1], [1, -1]])
        assert len(blocks) == 4
        assert all(len(v) == 1 for _, v in blocks)


def dense_joint_eigenspaces(ops, candidates, ambient=None):
    """Oracle: the splitting by dense matrix products, checks omitted.

    Each block spanned by the columns of B splits by the kernel of
    op * B - lam * B, and the kernel vectors c give the vectors B c."""
    if ambient is None:
        ambient = ops[0].nrows
    ident = Mat.identity(ambient)
    blocks = [((), [ident.col(j) for j in range(ambient)])]
    for op, cands in zip(ops, candidates):
        new_blocks = []
        for tag, vecs in blocks:
            B = Mat.from_cols(vecs, nrows=ambient)
            for lam in map(scalar, cands):
                ker = kernel(op * B - B.scale(lam))
                if ker:
                    new_blocks.append((tag + (lam,), [B.apply(c) for c in ker]))
        blocks = new_blocks
    return blocks


def signed_cycles(rng, n, roots):
    """A signed permutation of n points in cycles of length 1 to 3, and a
    diagonal matrix of 12th roots of unity constant on each cycle; the two
    commute."""
    points = list(range(n))
    rng.shuffle(points)
    perm = [[ZERO] * n for _ in range(n)]
    weights = [None] * n
    while points:
        cycle = [points.pop() for _ in range(min(len(points), rng.randint(1, 3)))]
        w = rng.choice(roots)
        for k, p in enumerate(cycle):
            perm[cycle[(k + 1) % len(cycle)]][p] = rng.choice([ONE, -ONE])
            weights[p] = w
    return Mat(perm), diag(weights)


@pytest.mark.parametrize("seed", range(6))
def test_joint_eigenspaces_match_dense_oracle(seed):
    rng = random.Random(seed)
    roots = [ZETA ** k for k in range(12)]
    n = rng.randint(3, 7)
    sigma, weights = signed_cycles(rng, n, roots)
    families = [
        ([weights], [roots]),
        ([sigma], [roots]),
        ([sigma, weights], [roots, roots]),
        ([weights, sigma * sigma, sigma], [roots, roots, roots]),
    ]
    for ops, cands in families:
        blocks = joint_eigenspaces(ops, cands)
        dense_blocks = [(tag, [dense(v, n) for v in vecs]) for tag, vecs in blocks]
        assert dense_blocks == dense_joint_eigenspaces(ops, cands)
        assert sum(len(vecs) for _, vecs in blocks) == n


def forward_then_back_reduce(rows, ncols):
    """Oracle: the elimination as it was before its basis was kept fully
    reduced.  A forward pass reduces each row on its smallest column while
    that column is a pivot, then a back pass clears every pivot column from
    the rows above it."""
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
    for p in sorted(basis, reverse=True):
        neg_tail = [(c, -v) for c, v in basis[p].items() if c != p]
        for q, qrow in basis.items():
            if q != p and p in qrow:
                _accumulate(qrow, qrow.pop(p), neg_tail)
    return basis


def random_sparse_system(rng, pool, m, n):
    """m sparse rows over n columns with entries from ``pool``, then a
    repeated row, a zero row and combinations of earlier rows, shuffled."""
    rows = [
        {j: rng.choice(pool) for j in range(n) if rng.random() < 0.35} for _ in range(m)
    ]
    rows.append(dict(rng.choice(rows)))
    rows.append({})
    for _ in range(rng.randint(1, 3)):
        acc = {}
        for row in rng.sample(rows, min(len(rows), 2)):
            _accumulate(acc, rng.choice(pool), row.items())
        rows.append(acc)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize(
    "field, seed",
    [("rational", s) for s in range(3)] + [("cyclotomic-alpha", s) for s in range(3)],
)
def test_sparse_row_reduce_matches_forward_then_back_reduce(field, seed):
    rng = random.Random(1000 * seed + len(field))
    if field == "rational":
        pool = [scalar(k) for k in (-3, -2, -1, 1, 2, 3)] + [scalar(Fraction(1, 2))]
    else:
        pool = [ONE, -ONE, ZETA, OMEGA, IUNIT, ZETA ** 5, ALPHA, ALPHA + ONE, ALPHA * ZETA]
    for _ in range(12):
        m, n = rng.randint(1, 9), rng.randint(1, 10)
        rows = random_sparse_system(rng, pool, m, n)
        basis = sparse_row_reduce([dict(r) for r in rows])
        want = forward_then_back_reduce([dict(r) for r in rows], n)
        assert basis == want
        assert list(basis) == list(want)
