import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from spreadcodes.gf import ExtField, OpCount, PrimeField, find_irreducible
from spreadcodes.linalg import (Matrix, _eliminate, _kernel_split, det,
                                disjoint_pivot_tuples, format_matrix, hstack,
                                inverse, minor, parse_matrix, rank, rref,
                                vstack)
from spreadcodes.spread import Subspace

from paper_reference import nondiagonal_rank
from props import (matched_extension_trials, minor_expansion_trials,
                   factor_relation_trials, pivot_postcondition_trials,
                   random_element, random_matrix, transpose)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = ExtField(F3, find_irreducible(3, 2))  # exp/log table kernel
F8 = ExtField(F2, find_irreducible(2, 3))  # the field of SpreadCode(2, 3, 2)
# Packed kernels: q^k is above TABLE_LIMIT.
F2_17 = ExtField(F2, find_irreducible(2, 17))
F3_11 = ExtField(F3, find_irreducible(3, 11))
KERNEL_FIELDS = [F2, F3, F5, F9, F2_17, F3_11]


def sparse_matrix(rnd, field, nrows, ncols):
    """Random matrix with about half its entries zero, so that rank
    deficient and singular cases come up often."""
    return Matrix(field, [[random_element(rnd, field) if rnd.random() < 0.5
                           else field.zero for _ in range(ncols)]
                          for _ in range(nrows)])


def leibniz_det(M):
    """Determinant as the signed sum over all permutations."""
    f = M.field
    n = M.nrows
    acc = f.zero
    for perm in itertools.permutations(range(n)):
        term = f.one
        for i, j in enumerate(perm):
            term = f.mul(term, M[i, j])
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        acc = f.sub(acc, term) if inversions % 2 else f.add(acc, term)
    return acc


def assert_reduced(res, field):
    """Pivot entries are 1, alone in their columns, with zeros to their
    left; rows past the rank are zero."""
    R = res.matrix
    for i, c in enumerate(res.pivot_cols):
        assert R[i, c - 1] == field.one
        assert all(R[i, j] == field.zero for j in range(c - 1))
        assert all(R[h, c - 1] == field.zero
                   for h in range(R.nrows) if h != i)
    assert all(a == field.zero for row in R.data[res.rank:] for a in row)


GF4 = ExtField(F2, (1, 1, 1))


def assert_packed_matches_generic(M) -> bool:
    """rref, rank, products and inverse of an F_2 matrix equal the same
    calls on its lift into F_4, which run the generic kernel.  Returns
    whether M was invertible."""
    L = M.lift(GF4)
    res, ref = rref(M), rref(L)
    assert res.matrix.data == ref.matrix.data
    assert (res.rank, res.pivot_cols) == (ref.rank, ref.pivot_cols)
    assert rank(M) == ref.rank
    assert (M @ transpose(M)).data == (L @ transpose(L)).data
    assert (transpose(M) @ M).data == (transpose(L) @ L).data
    if M.nrows != M.ncols:
        return False
    try:
        inv = inverse(M)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            inverse(L)
        return False
    assert inv.data == inverse(L).data
    return True


class TestRref:
    def test_identity(self):
        I = Matrix.identity(F3, 3)
        res = rref(I)
        assert res.matrix == I
        assert res.rank == 3 and res.pivot_cols == (1, 2, 3)

    def test_zero(self):
        Z = Matrix.zeros(F3, 2, 3)
        res = rref(Z)
        assert res.matrix == Z
        assert res.rank == 0 and res.pivot_cols == ()

    def test_hand_elimination_over_f2(self):
        M = Matrix(F2, [[1, 1], [1, 1]])
        res = rref(M)
        assert res.rank == 1 and res.pivot_cols == (1,)
        assert res.matrix.data == ((1, 1), (0, 0))

    @pytest.mark.parametrize("field", KERNEL_FIELDS)
    def test_row_space_and_idempotence(self, field):
        rnd = random.Random(field.q)
        for _ in range(50):
            M = sparse_matrix(rnd, field, rnd.randrange(1, 5),
                              rnd.randrange(1, 6))
            res = rref(M)
            assert_reduced(res, field)
            assert rank(vstack(M, res.matrix)) == rank(M) == res.rank
            assert rref(res.matrix).matrix == res.matrix


class TestKernel:
    """det and inverse against definitions that share no code with the
    elimination kernel."""

    @pytest.mark.parametrize("field", KERNEL_FIELDS)
    def test_det_matches_leibniz(self, field):
        rnd = random.Random(17 * field.q + getattr(field, "k", 1))
        for n in range(5):
            for _ in range(25):
                M = sparse_matrix(rnd, field, n, n)
                assert det(M) == leibniz_det(M)

    @pytest.mark.parametrize("field", [F2, F3, F5])
    def test_kernel_split_against_rank(self, field):
        # For Y holding X in its columns at..at+k, the rows kept are
        # u Y with those columns zero, for a basis u of the left kernel
        # of X: d - rank(X) of them, zero at at..at+k, and each with
        # zeros prepended lies in the row space of (X | Y).
        rnd = random.Random(31 * field.q)
        seen = 0
        for d in range(1, 6):
            for _ in range(20):
                k, left = rnd.randrange(1, 4), rnd.randrange(3)
                Y = sparse_matrix(rnd, field, d, left + k + 2)
                X = Y.columns_slice(left, left + k)
                s, kept = _kernel_split(X, Y, left)
                assert s == rank(X)
                if not s:
                    assert kept is None
                    continue
                seen += 1
                assert (kept.nrows, kept.ncols) == (d - s, Y.ncols)
                assert kept.columns_slice(left, left + k) == Matrix.zeros(
                    field, d - s, k)
                if d > s:
                    assert rank(kept) == rank(Y) - rank(X)
                    zero = Matrix.zeros(field, d - s, k)
                    XY = hstack(X, Y.columns_slice(0, left),
                                Matrix.zeros(field, d, k),
                                Y.columns_slice(left + k, Y.ncols))
                    assert rank(vstack(XY, hstack(zero, kept))) == rank(XY)
        assert seen > 50

    @pytest.mark.parametrize("field", KERNEL_FIELDS)
    def test_inverse_exactly_when_det_nonzero(self, field):
        rnd = random.Random(29 * field.q + getattr(field, "k", 1))
        singular = 0
        for n in range(1, 5):
            for _ in range(25):
                M = sparse_matrix(rnd, field, n, n)
                if det(M) == field.zero:
                    singular += 1
                    with pytest.raises(ZeroDivisionError):
                        inverse(M)
                    continue
                assert inverse(M) @ M == Matrix.identity(field, n)
        assert 0 < singular < 100

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_elimination_and_products_charge_nothing(self, field):
        # Every nonzero of F_2 and F_3 is +-1, its own inverse, and the
        # row kernel charges nothing for a product by +-1: rank, rref and
        # A @ B over F_3 cost no base-field operation at all.  The packed
        # F_2 path must charge nothing either.
        rnd = random.Random(field.q)
        pivots = 0
        for _ in range(40):
            M = sparse_matrix(rnd, field, 5, 6)
            with OpCount() as c:
                r = rank(M)
                res = rref(M)
                M @ transpose(M)
            assert (c.base_mul, c.base_inv) == (0, 0)
            assert res.rank == r
            assert_reduced(res, field)
            pivots += r
        assert pivots > 100

    @pytest.mark.parametrize("field", KERNEL_FIELDS)
    def test_matmul_matches_entry_sums(self, field):
        rnd = random.Random(41 * field.q + getattr(field, "k", 1))
        for _ in range(40):
            n, m, p = (rnd.randrange(1, 5) for _ in range(3))
            A = sparse_matrix(rnd, field, n, m)
            B = sparse_matrix(rnd, field, m, p)
            want = [[field.zero] * p for _ in range(n)]
            for i, j, t in itertools.product(range(n), range(p), range(m)):
                want[i][j] = field.add(want[i][j], field.mul(A[i, t], B[t, j]))
            assert (A @ B).data == tuple(map(tuple, want))

    @pytest.mark.parametrize("field", KERNEL_FIELDS)
    def test_sums_and_negation_match_entries(self, field):
        # A + B, A - B and -A take one row kernel call per row with
        # g = +-1, so they agree with add, sub and neg entry by entry and
        # charge nothing, on matrices with no rows or no columns too.
        rnd = random.Random(43 * field.q + getattr(field, "k", 1))
        shapes = [(0, 0), (0, 3), (3, 0)] + [
            (rnd.randrange(1, 5), rnd.randrange(1, 6)) for _ in range(30)]
        for n, m in shapes:
            A, B = (sparse_matrix(rnd, field, n, m) if n
                    else Matrix.zeros(field, 0, m) for _ in range(2))
            with OpCount() as c:
                got = A + B, A - B, -A
            assert (c.base_mul, c.base_inv, c.ext_mul, c.ext_inv) == (0,) * 4
            ops = field.add, field.sub, lambda a, b: field.neg(a)
            for M, op in zip(got, ops):
                assert (M.nrows, M.ncols) == (n, m)
                assert M.data == tuple(
                    tuple(op(a, b) for a, b in zip(ra, rb))
                    for ra, rb in zip(A.data, B.data))


class TestMinor:
    def test_single_entry(self):
        M = Matrix(F5, [[1, 2], [3, 4]])
        assert minor(M, (1,), (2,)) == 2
        assert minor(M, (2,), (1,)) == 3

    def test_identity_minor(self):
        assert minor(Matrix.identity(F2, 3), (1, 2), (1, 2)) == 1

    def test_empty_is_one(self):
        assert minor(Matrix.identity(F2, 2), (), ()) == 1

    def test_repeated_column_vanishes(self):
        rnd = random.Random(0)
        M = random_matrix(rnd, F5, 4, 4)
        assert minor(M, (1, 2), (3, 3)) == 0
        assert minor(M, (2, 2), (1, 3)) == 0

    def test_tuple_order_controls_sign(self):
        M = Matrix(F5, [[1, 2], [3, 4]])
        a = minor(M, (1, 2), (1, 2))
        b = minor(M, (2, 1), (1, 2))
        assert a == F5.neg(b)
        assert minor(M, (2, 1), (2, 1)) == a

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            minor(Matrix.identity(F2, 2), (1,), (1, 2))

    def test_matches_det(self):
        rnd = random.Random(3)
        for _ in range(30):
            M = random_matrix(rnd, F3, 3, 3)
            assert minor(M, (1, 2, 3), (1, 2, 3)) == det(M)


class TestPlumbing:
    def test_inverse_identity(self):
        I = Matrix.identity(F3, 4)
        assert inverse(I) == I

    def test_inverse_roundtrip(self):
        rnd = random.Random(9)
        for _ in range(30):
            M = random_matrix(rnd, F5, 3, 3)
            if rank(M) < 3:
                with pytest.raises(ZeroDivisionError):
                    inverse(M)
                continue
            assert M @ inverse(M) == Matrix.identity(F5, 3)

    def test_stack_rank(self):
        rnd = random.Random(4)
        M = random_matrix(rnd, F2, 3, 4)
        assert rank(vstack(M, M)) == rank(M)

    def test_hstack_shapes(self):
        A = Matrix.zeros(F2, 2, 2)
        B = Matrix.identity(F2, 2)
        assert hstack(A, B).data == ((0, 0, 1, 0), (0, 0, 0, 1))

    def test_stacks_need_a_matrix(self):
        for stack in vstack, hstack:
            with pytest.raises(ValueError, match="at least one matrix"):
                stack()
        A = Matrix.identity(F2, 2)
        assert vstack(A) == hstack(A) == A

    def test_rank_gf2_fast_path_matches_generic(self):
        # rank, rref, inverse and products over F_2 run on packed rows;
        # lifted into F_4 the same matrix takes the generic kernel.
        rnd = random.Random(12)
        cases = [Matrix(F2, []), Matrix.zeros(F2, 3, 5),
                 Matrix(F2, [[0, 0, 1], [0, 0, 1], [0, 0, 0]])]
        for _ in range(60):
            n = rnd.randrange(1, 6)
            M = (sparse_matrix if rnd.random() < 0.5 else random_matrix)(
                rnd, F2, n, rnd.randrange(1, 7))
            # A duplicate and a zero row, both somewhere in the middle.
            rows = list(M.data)
            rows.insert(rnd.randrange(n + 1), rows[rnd.randrange(n)])
            rows.insert(rnd.randrange(n + 2), (0,) * M.ncols)
            cases += [M, Matrix(F2, rows)]
        for n in range(1, 6):
            cases += [sparse_matrix(rnd, F2, n, n) for _ in range(6)]
        # Rows wider than 64 columns, with dependent rows and a pivot in
        # the last column: the packed rows are longer than a machine word.
        for ncols in (65, 100, 200):
            M = sparse_matrix(rnd, F2, 12, ncols)
            sums = M + Matrix(F2, [M.row(0)] * 12)
            last = Matrix(F2, [[0] * (ncols - 1) + [1]])
            cases += [M, vstack(M, sums, last)]
        invertible = 0
        for M in cases:
            invertible += assert_packed_matches_generic(M)
        assert invertible > 5

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 80).flatmap(lambda ncols: st.lists(
        st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols),
        max_size=10)))
    def test_gf2_packed_path_matches_generic_property(self, rows):
        assert_packed_matches_generic(Matrix(F2, rows))

    def test_gf2_packed_path_rejects_out_of_range_entries(self):
        # The packed path reads each entry as one byte of an int; an
        # entry outside 0..1 must be refused, not reduced as garbage.
        # The constructor refuses it, so no packed kernel ever sees it.
        for bad in (2, 3, 255, 256, -1):
            with pytest.raises(ValueError, match=f"entry {bad} is outside"):
                Matrix(F2, [[1, 0], [bad, 1]])

    def test_text_roundtrip(self):
        rnd = random.Random(5)
        ext = ExtField(F3, find_irreducible(3, 2))
        for field in (F3, ext):
            M = Matrix(field, [[field.element(rnd.randrange(3))
                                for _ in range(3)] for _ in range(2)])
            assert parse_matrix(field, format_matrix(M)) == M


class TestEntryContract:
    """A matrix holds only elements of its field, and ``scale`` takes
    only a field element: anything else is a ValueError naming it."""

    @pytest.mark.parametrize("field,rows,bad", [
        (F3, [[3, 0]], 3), (F8, [[9, 1], [0, 1]], 9),
        (F2, [[2, 1], [1, 1]], 2), (F2, [[1, -1]], -1),
        (F3, [[0], [-1]], -1), (F8, [[-1, 0]], -1)])
    def test_constructor_refuses(self, field, rows, bad):
        # Unchecked, rank would read the F_3 and F_8 matrices as rank 1
        # and 2, and det of the F_2 one would divide by zero.
        with pytest.raises(ValueError, match=f"entry {bad} is outside"):
            Matrix(field, rows)

    @pytest.mark.parametrize("field,bad", [(F3, 4), (F8, 8), (F3, -1)])
    def test_diagonal_refuses(self, field, bad):
        with pytest.raises(ValueError, match=f"entry {bad} is outside"):
            Matrix.diagonal(field, [1, bad])

    @pytest.mark.parametrize("field,bad", [(F8, 12), (F3, 5), (F3, -1)])
    def test_scale_refuses(self, field, bad):
        # Unchecked, F_8 would index past its log table and F_3 would
        # reduce the scalar mod 3.
        with pytest.raises(ValueError, match=f"entry {bad} is outside"):
            Matrix.identity(field, 2).scale(bad)

    def test_largest_elements_are_taken(self):
        M = Matrix(F8, [[7, 0], [0, 7]])
        assert rank(M) == 2
        assert M.scale(7) == Matrix.diagonal(F8, [F8.mul(7, 7)] * 2)
        assert Matrix.diagonal(F3, [2, 2]).scale(2) == Matrix.identity(F3, 2)


class TestEmptyWidth:
    """A matrix with no rows keeps its width through every derived
    matrix; only ``Matrix(field, [])`` is 0 x 0."""

    @staticmethod
    def shape(M):
        return M.nrows, M.ncols

    @pytest.mark.parametrize("field", [F2, F3, F8])
    def test_derived_matrices(self, field):
        Z = Matrix.zeros(field, 0, 3)
        assert self.shape(Z) == (0, 3)
        M = Matrix(field, [[1, 0, 1]])
        assert vstack(Z, M) == M and vstack(M, Z) == M
        assert self.shape(rref(Z).matrix) == (0, 3)
        assert self.shape(rref(Matrix.zeros(field, 2, 3)).matrix) == (2, 3)
        assert rank(Z) == 0
        assert self.shape(Z.submatrix([], [0, 2])) == (0, 2)
        assert self.shape(Z.columns_slice(1, 3)) == (0, 2)
        assert self.shape(transpose(Z)) == (3, 0)
        assert self.shape(transpose(Matrix.zeros(field, 2, 0))) == (0, 2)
        assert self.shape(hstack(Z, Matrix.zeros(field, 0, 2))) == (0, 5)
        assert transpose(Z) @ Z == Matrix.zeros(field, 3, 3)
        assert self.shape(Matrix.zeros(field, 0, 1) @ M) == (0, 3)
        assert self.shape(Z + Z) == self.shape(-Z) == (0, 3)

    def test_parsed_matrix_keeps_its_width(self):
        assert self.shape(parse_matrix(F2, "0 3\n")) == (0, 3)

    def test_constructor_from_no_rows(self):
        assert self.shape(Matrix(F2, [])) == (0, 0)

    @pytest.mark.parametrize("field", [F2, F3, F8])
    def test_width_tells_empty_matrices_apart(self, field):
        # Both hold no rows, so only the width tells them apart: the
        # zero subspaces of F_q^3 and F_q^5 are two spaces, not one.
        Z3, Z5 = Matrix.zeros(field, 0, 3), Matrix.zeros(field, 0, 5)
        assert Z3 != Z5 and hash(Z3) != hash(Z5) and len({Z3, Z5}) == 2
        assert Z3 == Matrix.zeros(field, 0, 3)
        assert hash(Z3) == hash(Matrix.zeros(field, 0, 3))
        zero3, zero5 = (Subspace(Matrix.zeros(F2, 1, n)) for n in (3, 5))
        assert zero3 != zero5 and len({zero3, zero5}) == 2


def tuple_rref(rows, ncols):
    """RREF over F_2 on tuples, by the generic loop ``_eliminate`` and a
    back pass through the row kernel ``axpy``: (rows, rank, pivots)."""
    R = [list(row) for row in rows]
    pivots, _ = _eliminate(F2, R, ncols)
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r][0]
        for row in R[:r]:
            if row[col]:
                row[:] = F2.axpy(row, 1, R[r])
    return (tuple(map(tuple, R)), len(pivots),
            tuple(col + 1 for col, _ in pivots))


def tuple_product(A, B, ncols):
    out = []
    for arow in A:
        acc = [0] * ncols
        for a, brow in zip(arow, B):
            if a:
                acc = F2.axpy(acc, a, brow)
        out.append(tuple(acc))
    return tuple(out)


class TestBitRows:
    """An F_2 matrix holds its rows as ints, column j at bit j, and its
    kernels run on them.  Each kernel agrees with the same operation on
    tuples, through the generic loop ``_eliminate`` or the row kernel
    ``axpy``, on the shapes the decoder and the channel build: blocks of
    d x k, received spaces of d x rk, codewords of k x rk, the channel's
    draws, and matrices with no rows or no columns."""

    SHAPES = sorted({(m, n) for k, r in ((2, 2), (3, 4), (5, 2), (9, 2))
                     for m in (0, 1, k - 1, k, k + 1, 2 * k - 1)
                     for n in (0, k, r * k)}
                    | {(3, 65), (12, 100), (0, 130)})

    @staticmethod
    def draw(rnd, m, n):
        """Rows of about half zeros, with a repeated and a zero row
        among them when there are at least two."""
        rows = [tuple(rnd.randrange(2) if rnd.random() < 0.5 else 0
                      for _ in range(n)) for _ in range(m)]
        if m >= 2:
            rows[rnd.randrange(m)] = rows[rnd.randrange(m)]
            rows[rnd.randrange(m)] = (0,) * n
        return rows

    @staticmethod
    def of(rows, n):
        """Matrix(F2, rows) where that keeps the width, else zeros."""
        return Matrix(F2, rows) if rows else Matrix.zeros(F2, 0, n)

    def assert_holds(self, M, rows, n):
        """M, made by a kernel, is the matrix of these tuple rows: same
        shape, data, equality and hash as one built from the tuples."""
        rows = tuple(rows)
        assert (M.nrows, M.ncols, M.data) == (len(rows), n, rows)
        built = self.of(rows, n)
        assert M == built and built == M and hash(M) == hash(built)
        assert M.bits == tuple(sum(a << j for j, a in enumerate(row))
                               for row in rows)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_kernels_match_tuples(self, m, n):
        rnd = random.Random(m * 1000 + n)
        for _ in range(3):
            rows, other = self.draw(rnd, m, n), self.draw(rnd, m, n)
            M, N = self.of(rows, n), self.of(other, n)
            with OpCount() as c:
                res = rref(M)
                ref = tuple_rref(rows, n)
                assert (res.rank, res.pivot_cols) == ref[1:]
                self.assert_holds(res.matrix, ref[0], n)
                assert rank(M) == ref[1]
                self.assert_holds(M + N, (tuple(F2.axpy(a, 1, b))
                                          for a, b in zip(rows, other)), n)
                self.assert_holds(M - N, (tuple(F2.axpy(a, 1, b))
                                          for a, b in zip(rows, other)), n)
                T = tuple(zip(*rows)) if rows else ((),) * n
                self.assert_holds(transpose(M), T, m)
                self.assert_holds(transpose(M) @ N,
                                  tuple_product(T, other, n), n)
                B = self.draw(rnd, n, m)
                self.assert_holds(M @ self.of(B, m),
                                  tuple_product(rows, B, m), m)
                self.assert_holds(vstack(M, N, M), rows + other + rows, n)
                self.assert_holds(hstack(M, N, M),
                                  (a + b + a for a, b in
                                   zip(rows, other)), 3 * n)
                lo, hi = sorted(rnd.randrange(n + 1) for _ in range(2))
                self.assert_holds(M.columns_slice(lo, hi),
                                  (row[lo:hi] for row in rows), hi - lo)
                pick_r = [rnd.randrange(m) for _ in range(m)] if m else []
                pick_c = [rnd.randrange(n) for _ in range(lo)] if n else []
                self.assert_holds(M.submatrix(pick_r, pick_c),
                                  (tuple(rows[i][j] for j in pick_c)
                                   for i in pick_r), len(pick_c))
            # Products by 0 and 1 are charged nothing, over F_2 as in
            # the row kernel.
            assert c.base_total == 0 and c.ext_total == 0

    def test_det_still_runs_the_loop(self):
        rnd = random.Random(3)
        for n in range(1, 6):
            rows = self.draw(rnd, n, n)
            R = [list(row) for row in rows]
            full = len(_eliminate(F2, R, n)[0]) == n
            assert det(self.of(rows, n)) == int(full)

    def test_identity_and_zeros(self):
        for n in (0, 1, 9, 70):
            self.assert_holds(Matrix.identity(F2, n),
                              (tuple(int(i == j) for j in range(n))
                               for i in range(n)), n)
            self.assert_holds(Matrix.zeros(F2, 2, n), [(0,) * n] * 2, n)
            self.assert_holds(Matrix.zeros(F2, 0, n), [], n)
            # The same matrices built from their bit rows.
            for M, xs in ((Matrix.identity(F2, n), [1 << i for i in range(n)]),
                          (Matrix.zeros(F2, 2, n), [0, 0]),
                          (Matrix.zeros(F2, 0, n), [])):
                B = Matrix._of_bits(F2, xs, n)
                assert M == B and B == M and hash(M) == hash(B)
                assert M.bits == B.bits and M.nrows == B.nrows

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
    def test_data_of_bit_rows(self, n):
        # The tuples a kernel-made matrix builds on first read are those
        # of the same rows given as tuples.
        rnd = random.Random(n)
        top = tuple(int(j == n - 1) for j in range(n))
        rows = self.draw(rnd, 6, n) + [(1,) * n, top]
        built = Matrix(F2, rows)
        M = Matrix._of_bits(F2, built.bits, n)
        assert M._data is None and M.data == built.data


class TestNondiagonalRank:
    def test_diagonal_is_zero(self):
        assert nondiagonal_rank(Matrix.diagonal(F3, [1, 2, 0])) == 0

    def test_single_off_diagonal_entry(self):
        M = Matrix(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert nondiagonal_rank(M) == 1

    def test_bounded_by_half_dimension(self):
        rnd = random.Random(6)
        for _ in range(20):
            M = random_matrix(rnd, F2, 4, 4)
            assert 0 <= nondiagonal_rank(M) <= 2


class TestDisjointPivotTuples:
    def test_single_entry(self):
        M = Matrix(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert disjoint_pivot_tuples(M) == ((1,), (2,))

    def test_support_below_exhausted_rows(self):
        M = Matrix(F3, [[0, 0, 0], [0, 0, 0], [0, 1, 1]])
        J, L = disjoint_pivot_tuples(M)
        assert (J, L) == ((3,), (2,))

    def test_antidiagonal_identity(self):
        M = Matrix(F2, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        J, L = disjoint_pivot_tuples(M)
        assert len(J) == 1 and minor(M, J, L) != 0
        # maximality against the definitional oracle
        outside = [i for i in (1, 2, 3) if i not in J and i not in L]
        for j in outside:
            for l in outside:
                if j != l:
                    assert minor(M, J + (j,), L + (l,)) == 0

    def test_diagonal_input_rejected(self):
        with pytest.raises(ValueError):
            disjoint_pivot_tuples(Matrix.diagonal(F2, [1, 0, 1]))

    @pytest.mark.parametrize("field,k", [(F2, 3), (F2, 5), (F3, 4), (F5, 5)])
    def test_postconditions_random(self, field, k):
        checked, bad = pivot_postcondition_trials(field, k, 150, k * field.q)
        assert checked == 150 and bad == 0

    def test_postconditions_ext_field(self):
        ext = ExtField(F2, find_irreducible(2, 3))
        checked, bad = pivot_postcondition_trials(ext, 4, 60, 77)
        assert checked == 60 and bad == 0


class TestMinorIdentities:
    @pytest.mark.parametrize("field,k", [(F2, 3), (F3, 3), (F5, 4),
                                         (F2, 5), (F3, 5)])
    def test_prefix_expansion(self, field, k):
        assert minor_expansion_trials(field, k, 60, 13 * field.q + k) == 0

    @pytest.mark.parametrize("q,k,s", [(2, 2, 2), (2, 2, 3), (3, 2, 4),
                                       (2, 3, 4)])
    def test_factor_coefficient_relations(self, q, k, s):
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        assert factor_relation_trials(ext, s, 25, q + s) == 0

    @pytest.mark.parametrize("field,k,s", [(F2, 4, 1), (F3, 4, 1),
                                           (F2, 5, 2), (F3, 5, 2), (F5, 5, 2)])
    def test_matched_extension(self, field, k, s):
        checked, bad = matched_extension_trials(field, k, s, 60,
                                                field.q * 31 + k)
        assert checked == 60 and bad == 0
