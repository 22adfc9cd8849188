import random
from fractions import Fraction

import pytest

from finegrading import linalg
from finegrading.errors import LinAlgError
from finegrading.linalg import (
    Mat,
    diag,
    flatten,
    inverse,
    is_zero_vec,
    joint_eigenspaces,
    kernel,
    kron,
    rank,
    rref,
    solve,
    sparse_kernel,
)
from finegrading.scalars import ALPHA, IUNIT, ONE, ZERO, Scalar, scalar


def fraction_rank(entries):
    """Independent rank oracle using Fraction arithmetic."""
    rows = [list(map(Fraction, r)) for r in entries]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        rows[rk] = [x / rows[rk][c] for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


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

    def test_ragged_rejected(self):
        with pytest.raises(LinAlgError):
            Mat([[1, 2], [3]])


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


class TestSparseKernel:
    def test_agrees_with_dense_kernel(self):
        rng = random.Random(35)
        for _ in range(25):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            entries = random_int_matrix(rng, m, n, -3, 3)
            dense = kernel(Mat(entries))
            rows = [
                {j: scalar(x) for j, x in enumerate(r) if x} for r in entries
            ]
            sparse = sparse_kernel(rows, n)
            assert sparse == dense

    def test_streams_many_redundant_rows(self):
        rows = [{0: scalar(1), 2: scalar(k)} for k in [1] * 200]
        ker = sparse_kernel(rows, 3)
        assert len(ker) == 2
        for v in ker:
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
            for v in vecs:
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

    def test_uncovered_block_is_named(self, monkeypatch):
        # Unreachable with commuting, annihilated operators: drop the third
        # kernel (operator 1, eigenvalue 1, block of a-eigenvalue 1).
        calls = []

        def short_kernel(m):
            calls.append(m)
            return [] if len(calls) == 3 else kernel(m)

        monkeypatch.setattr(linalg, "kernel", short_kernel)
        a = Mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        b = Mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
        with pytest.raises(LinAlgError) as err:
            joint_eigenspaces([a, b], [[1, -1], [1, -1]])
        assert str(err.value) == (
            "candidate eigenvalues of operator 1 cover 1 of 2 dimensions"
            " in the block with eigenvalues (1)"
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
