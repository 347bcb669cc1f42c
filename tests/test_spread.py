import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from spreadcodes import spread
from spreadcodes.gf import PrimeField, find_irreducible
from spreadcodes.linalg import Matrix, hstack, minor, rank
from spreadcodes.spread import (SpreadCode, Subspace, companion_matrix,
                                format_subspace, parse_subspace,
                                subspace_distance)

from props import ndrank_conjugation_trials, random_matrix


DIAGONALIZER_FIELDS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (2, 17),
                       (3, 11)]


@pytest.fixture(scope="module")
def code22():
    return SpreadCode(2, 2, 2)


@pytest.fixture(scope="module")
def code32():
    return SpreadCode(2, 3, 2)


class TestCompanionMatrix:
    def test_quadratic_over_f2(self):
        P = companion_matrix(PrimeField(2), (1, 1, 1))
        assert P.data == ((0, 1), (1, 1))

    def test_cubic_over_f2(self):
        P = companion_matrix(PrimeField(2), (1, 1, 0, 1))
        assert P.data == ((0, 1, 0), (0, 0, 1), (1, 1, 0))

    def test_negated_coefficients_over_f3(self):
        P = companion_matrix(PrimeField(3), (1, 0, 1))
        assert P.data == ((0, 1), (2, 0))

    @pytest.mark.parametrize("q,modulus", [(3, (4, 0, 1)), (3, (-1, 0, 1)),
                                           (2, (1, 2, 0, 1))])
    def test_rejects_out_of_range_coefficients(self, q, modulus):
        with pytest.raises(ValueError):
            companion_matrix(PrimeField(q), modulus)

    @pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_modulus_annihilates_companion(self, q, k):
        f = PrimeField(q)
        p = find_irreducible(q, k)
        P = companion_matrix(f, p)
        acc = Matrix.zeros(f, k, k)
        Pi = Matrix.identity(f, k)
        for c in p:
            acc = acc + Pi.scale(c)
            Pi = Pi @ P
        assert acc.is_zero()


class TestMatrixRep:
    def test_zero_and_one(self, code22):
        assert code22.matrix_rep(code22.ext.zero).is_zero()
        assert code22.matrix_rep(code22.ext.one) == Matrix.identity(
            code22.base, 2)

    def test_generator_maps_to_companion(self, code22):
        assert code22.matrix_rep(code22.alpha) == code22.P

    @pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2)])
    def test_ring_isomorphism_sampled(self, q, k):
        code = SpreadCode(q, k, 2)
        ext = code.ext
        rnd = random.Random(q * k)
        seen = set()
        for _ in range(1000):
            a = ext.element([rnd.randrange(q) for _ in range(k)])
            b = ext.element([rnd.randrange(q) for _ in range(k)])
            A, B = code.matrix_rep(a), code.matrix_rep(b)
            assert code.matrix_rep(ext.add(a, b)) == A + B
            assert code.matrix_rep(ext.mul(a, b)) == A @ B
            seen.add((a, A.data))
        reps = {a: d for a, d in seen}
        assert len(reps) == len({d for _, d in seen})  # injective on sample

    @pytest.mark.parametrize("q,k", [(2, 3), (2, 5), (3, 3), (5, 2)])
    def test_element_of_is_the_product_test(self, q, k):
        # element_of(A) is None exactly when A P != P A, and reads a back
        # off matrix_rep(a); a matrix that is not k x k over F_q reads as
        # None.
        code = SpreadCode(q, k, 2)
        P = code.P
        rnd = random.Random(7 * q + k)
        members = 0
        for _ in range(60):
            a = rnd.randrange(code.ext.order)
            A = code.matrix_rep(a)
            if rnd.random() < 0.5:
                A = random_matrix(rnd, code.base, k, k)
            got = code.element_of(A)
            assert (got is None) == (A @ P != P @ A)
            if A == code.matrix_rep(a):
                assert got == a
            members += got is not None
        assert 0 < members < 60
        # The zero block reads as 0, which is not None.
        assert code.element_of(Matrix.zeros(code.base, k, k)) == 0
        assert code.element_of(Matrix.zeros(code.base, k, k + 1)) is None
        assert code.element_of(P.lift(code.ext)) is None

    def test_first_row_reads_back(self, code32):
        rnd = random.Random(1)
        for _ in range(50):
            a = code32.ext.element([rnd.randrange(2) for _ in range(3)])
            assert code32.element_of(code32.matrix_rep(a)) == a


class TestDiagonalizer:
    def test_small_instance_structure(self, code22):
        lam = code22.alpha
        S = code22.diagonalizer
        assert S.data[0] == (code22.ext.one, code22.ext.one)
        assert S.data[1] == (lam, code22.ext.frobenius(lam, 1))
        assert code22.ext.frobenius(lam, 1) == 3  # lam^2 = lam + 1

    # The constructor does not check these facts; each multiplication
    # kernel (tables for q = 2 and odd q, packed for q = 2 and odd q)
    # has a field here.
    @pytest.mark.parametrize("q,k", DIAGONALIZER_FIELDS)
    def test_diagonalizes_companion(self, q, k):
        code = SpreadCode(q, k, 2)
        S, S_inv = code.diagonalizer, code.diagonalizer_inv
        assert S @ S_inv == Matrix.identity(code.ext, k)
        lhs = (S_inv @ code.P.lift(code.ext)) @ S
        assert lhs == code.frobenius_diag(code.alpha)

    @pytest.mark.parametrize("q,k", DIAGONALIZER_FIELDS)
    def test_inverse_rows_are_frobenius_conjugates(self, q, k):
        code = SpreadCode(q, k, 2)
        ext, S_inv = code.ext, code.diagonalizer_inv
        for i in range(k - 1):
            assert tuple(ext.frobenius(v, 1)
                         for v in S_inv.row(i)) == S_inv.row(i + 1)

    def test_first_inverse_row_is_dual_basis(self, code22):
        # oracle: solve the 2x2 trace system Tr(lam^i g_j) = delta_ij
        ext = code22.ext
        lam = code22.alpha
        duals = []
        for j in range(2):
            hits = [g for g in ext.elements()
                    if ext.trace(ext.mul(ext.pow(lam, 0), g)) == (1 if j == 0 else 0)
                    and ext.trace(ext.mul(lam, g)) == (1 if j == 1 else 0)]
            assert len(hits) == 1
            duals.append(hits[0])
        assert code22.diagonalizer_inv.data[0] == tuple(duals)

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (2, 4)])
    def test_dual_basis_rows_general(self, q, k):
        code = SpreadCode(q, k, 2)
        ext = code.ext
        gamma = code.diagonalizer_inv.data[0]
        for i in range(k):
            for j in range(k):
                want = 1 if i == j else 0
                assert ext.trace(ext.mul(ext.pow(code.alpha, i),
                                         gamma[j])) == want


class TestEncode:
    def test_unit_points(self, code22):
        I = Matrix.identity(code22.base, 2)
        Z = Matrix.zeros(code22.base, 2, 2)
        cw = code22.encode((1, 0))
        assert cw.subspace.basis == hstack(I, Z)
        cw = code22.encode((0, 1))
        assert cw.subspace.basis == hstack(Z, I)

    def test_generator_point(self, code22):
        cw = code22.encode((code22.ext.one, code22.alpha))
        assert cw.subspace.basis == hstack(Matrix.identity(code22.base, 2),
                                           code22.P)

    def test_normalization(self, code32):
        ext = code32.ext
        a = (1, 1, 0)
        point = (ext.element(a), ext.mul(ext.element(a), code32.alpha))
        cw = code32.encode(point)
        assert cw.point[0] == ext.one
        assert cw == code32.encode((ext.one, code32.alpha))

    @pytest.mark.parametrize("q,k,r", [(2, 3, 3), (3, 2, 3), (2, 3, 4),
                                       (3, 2, 4)])
    def test_block_matrix_is_already_rref(self, q, k, r):
        code = SpreadCode(q, k, r)
        rnd = random.Random(q + 10 * k + 100 * r)
        for _ in range(30):
            lead = rnd.randrange(r)
            point = [0] * lead + [rnd.randrange(1, code.ext.order)] + [
                rnd.randrange(code.ext.order) for _ in range(r - lead - 1)]
            cw = code.encode(point)
            blocks = [code.matrix_rep(v) for v in cw.point]
            assert cw.subspace == Subspace.from_generators(hstack(*blocks))

    def test_encode_runs_no_elimination(self, code32, monkeypatch):
        monkeypatch.setattr(spread, "rref", None)
        cw = code32.encode((1, code32.alpha))
        assert cw.subspace.basis == hstack(Matrix.identity(code32.base, 3),
                                           code32.P)

    def test_rejects_zero_point(self, code22):
        with pytest.raises(ValueError):
            code22.encode((0, 0))

    def test_rejects_out_of_range_digits(self, code32):
        with pytest.raises(ValueError):
            code32.encode(((3, 0, 0), (0, 2, 0)))
        with pytest.raises(ValueError):
            code32.encode(((1, 0, 0), (0, -1, 0)))


class TestEnumeration:
    @pytest.mark.parametrize("q,k,r,expected", [(2, 2, 2, 5), (2, 3, 2, 9),
                                                (3, 2, 2, 10), (2, 2, 3, 21)])
    def test_cardinality(self, q, k, r, expected):
        code = SpreadCode(q, k, r)
        assert code.size == expected
        cws = code.codeword_list()
        assert len(cws) == expected
        assert len({cw.subspace for cw in cws}) == expected

    def test_all_enumerated_are_members(self, code32):
        for cw in code32.codeword_list():
            assert code32.is_codeword(cw.subspace)

    def test_pairwise_distances(self, code22):
        cws = code22.codeword_list()
        for a, b in itertools.combinations(cws, 2):
            assert subspace_distance(a.subspace, b.subspace) == 4

    @pytest.mark.parametrize("q,k,r", [(2, 2, 2), (2, 3, 2)])
    def test_spread_partition(self, q, k, r):
        code = SpreadCode(q, k, r)
        cws = code.codeword_list()
        for v in itertools.product(range(q), repeat=code.n):
            if not any(v):
                continue
            owners = sum(cw.subspace.contains(v) for cw in cws)
            assert owners == 1


class TestSubspaceDistance:
    def test_self_distance(self, code22):
        cw = code22.encode((1, 0))
        assert subspace_distance(cw.subspace, cw.subspace) == 0

    def test_complementary_blocks(self, code22):
        a = code22.encode((1, 0)).subspace
        b = code22.encode((0, 1)).subspace
        assert subspace_distance(a, b) == 2 * code22.k

    def test_zero_space_keeps_its_ambient(self):
        # The zero space of F_2^3 was taken to live in F_2^0.
        F2 = PrimeField(2)
        zero = Subspace(Matrix.zeros(F2, 2, 3))
        assert (zero.dim, zero.ambient) == (0, 3)
        line = Subspace(Matrix(F2, [[1, 0, 1]]))
        assert subspace_distance(zero, line) == 1
        assert zero.contains([0, 0, 0]) and not zero.contains([1, 0, 0])

    def test_ambient_mismatch(self, code22):
        a = code22.encode((1, 0)).subspace
        b = SpreadCode(2, 3, 2).encode((1, 0)).subspace
        with pytest.raises(ValueError):
            subspace_distance(a, b)


class TestMembership:
    def test_power_of_companion(self, code32):
        P3 = (code32.P @ code32.P) @ code32.P
        W = Subspace.from_generators(
            hstack(Matrix.identity(code32.base, 3), P3))
        assert code32.is_codeword(W)

    def test_noncommuting_block_rejected(self, code32):
        N = Matrix(code32.base, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert N @ code32.P != code32.P @ N
        W = Subspace.from_generators(
            hstack(Matrix.identity(code32.base, 3), N))
        assert not code32.is_codeword(W)

    def test_constructor_takes_any_basis(self, code32):
        # (P | P) spans the codeword [1 : 1] but is not in RREF; the
        # constructor stores its canonical basis.
        M = hstack(code32.P, code32.P)
        W = Subspace(M)
        assert W == Subspace.from_generators(M)
        assert W == code32.encode((1, 1)).subspace
        assert code32.is_codeword(W)

    def test_wrong_dimension_rejected(self, code22):
        W = Subspace.from_generators(Matrix(code22.base, [[1, 0, 0, 0]]))
        assert not code22.is_codeword(W)

    def test_singular_nonzero_block_rejected(self, code22):
        B = Matrix(code22.base, [[1, 0], [0, 0]])
        W = Subspace.from_generators(
            hstack(Matrix.identity(code22.base, 2), B))
        assert not code22.is_codeword(W)

    @pytest.mark.parametrize("q,vector,bad", [
        (2, (3, 0), 3), (2, (-1, 0), -1), (2, (0, 256), 256),
        (3, (4, 0), 4), (3, (0, -2), -2)])
    def test_contains_rejects_out_of_range_entries(self, q, vector, bad):
        # Each entry must already be reduced: over F_2, (3, 0) is not
        # read as (1, 0), nor -1 as 1.
        W = Subspace(Matrix(PrimeField(q), [[1, 0]]))
        with pytest.raises(ValueError, match=f"entry {bad} is outside"):
            W.contains(vector)
        assert W.contains([1, 0]) and not W.contains([0, 1])


class TestEigenbasisFacts:
    @pytest.mark.parametrize("q,k", [(2, 3), (2, 4), (3, 3), (2, 5), (3, 5)])
    def test_full_rank_times_conjugate_columns(self, q, k):
        # random full-rank t-by-k over F_q times the first t columns of
        # the eigenvector matrix stays invertible
        code = SpreadCode(q, k, 2)
        rnd = random.Random(q + 10 * k)
        ext = code.ext
        trials = 0
        while trials < 200:
            t = rnd.randrange(1, k + 1)
            N = random_matrix(rnd, code.base, t, k)
            if rank(N) < t:
                continue
            cols = code.diagonalizer.submatrix(range(k), range(t))
            prod = N.lift(ext) @ cols
            assert rank(prod) == t
            trials += 1

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 3), (2, 5)])
    def test_consecutive_minors_nonzero(self, q, k):
        code = SpreadCode(q, k, 2)
        rnd = random.Random(3 * q + k)
        ext = code.ext
        for _ in range(100):
            t = rnd.randrange(1, k + 1)
            N = (random_matrix(rnd, code.base, k, t)
                 @ random_matrix(rnd, code.base, t, k))
            tr = rank(N)
            conj = code.conjugate(N)
            for a in range(1, k - tr + 2):
                for b in range(1, k - tr + 2):
                    J = tuple(range(a, a + tr))
                    L = tuple(range(b, b + tr))
                    assert minor(conj, J, L) != ext.zero

    @pytest.mark.parametrize("q,k", [(2, 3), (2, 5), (3, 5)])
    def test_nondiagonal_rank_equals_rank(self, q, k):
        code = SpreadCode(q, k, 2)
        checked, bad = ndrank_conjugation_trials(code, 40, q * k)
        assert checked == 40 and bad == 0


class TestHeadersAndFiles:
    def test_header_roundtrip(self, code32):
        assert code32.header() == "2 3 2 1 1 0"
        again = SpreadCode.from_header(code32.header())
        assert again.header() == code32.header()

    def test_subspace_file_roundtrip(self, code32):
        cw = code32.encode((code32.ext.one, code32.alpha))
        text = format_subspace(code32, cw.subspace)
        parsed_code, sub = parse_subspace(text, code32)
        assert sub == cw.subspace

    def test_mismatched_header_rejected(self, code32):
        text = format_subspace(code32, code32.encode((1, 0)).subspace)
        with pytest.raises(ValueError):
            parse_subspace(text, SpreadCode(2, 2, 2))

    def test_blank_lines_are_skipped(self, code32):
        cw = code32.encode((code32.ext.one, code32.alpha))
        text = format_subspace(code32, cw.subspace)
        spaced = "\n" + text.replace("\n", "\n\n")
        assert parse_subspace(spaced, code32)[1] == cw.subspace
        assert parse_subspace(spaced)[0].header() == code32.header()

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("\n2 3 x 1 1 0\n1 6\n1 0 0 0 0 0\n", 2),           # header digits
        ("2 2 2 1 1\n1 4\n1 0 0 0\n", 1),                   # other code
        ("2 3 2 1 1 0\n", 1),                               # no size line
        ("2 3 2 1 1 0\n1 6 1\n1 0 0 0 0 0\n", 2),           # size line
        ("2 3 2 1 1 0\n2 6\n1 0 0 0 0 0\n", 2),             # row count
        ("2 3 2 1 1 0\n\n1 4\n1 0 0 0\n", 3),               # code length
        ("2 3 2 1 1 0\n1 6\n1 0 0 0 0\n", 3),               # row width
        ("2 3 2 1 1 0\n1 6\n\n1 0 0 0 0 2\n", 4),           # digit range
        ("2 3 2 1 1 0\n2 6\n0 0 0 0 0 0\n0 0 0 0 0 0\n", 2),  # zero
        ("2 3 2 1 +1 0\n1 6\n1 0 0 0 0 0\n", 1),            # signed
        ("2 3 2 1 1 0\n0_1 6\n1 0 0 0 0 0\n", 2),           # underscore
    ])
    def test_malformed_file_names_its_line(self, code32, text, line):
        with pytest.raises(ValueError, match=rf"^line {line}:"):
            parse_subspace(text, code32)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            SpreadCode(2, 2, 1)
        with pytest.raises(ValueError):
            SpreadCode(2, 2, 2, (1, 0))  # x^2 + 1 reducible over F_2
        with pytest.raises(ValueError):
            SpreadCode(4, 2, 2)
        # The modulus is exactly k digits: not k + 1 coefficients, and no
        # 4 over F_3.
        with pytest.raises(ValueError, match="degree 2"):
            SpreadCode(2, 2, 2, (1, 1, 1))
        with pytest.raises(ValueError, match="p_0 = 4"):
            SpreadCode(3, 2, 2, (4, 0))

    def test_header_beyond_the_limits_is_refused_at_once(self):
        # A header alone builds the code, so its limits hold before any
        # field work: q = 10^18 + 3 would trial-divide up to 10^9.  The
        # child process's timeout makes a regression fail fast instead
        # of stalling the suite.
        headers = ["1000000000000000003 2 2 0 1",
                   "2 40 2 " + " ".join(["1"] * 40),    # q^k = 2^40
                   "2 3 65 1 1 0"]
        probe = ("import sys\n"
                 "from spreadcodes.spread import parse_subspace\n"
                 "for header in sys.argv[1:]:\n"
                 "    try:\n"
                 "        parse_subspace(header + '\\n1 4\\n0 0 0 1\\n')\n"
                 "    except ValueError as exc:\n"
                 "        print(exc)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", probe, *headers],
                             check=True, capture_output=True, text=True,
                             timeout=30,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.splitlines() == [
            "line 1: q^k must be at most 2^32, got 1000000000000000003^2",
            "line 1: q^k must be at most 2^32, got 2^40",
            "line 1: r must be in 2..64, got 65"]
        # A code given by the caller may lie beyond the limits.
        code = SpreadCode(2, 3, 65)
        text = format_subspace(code, code.encode([1] * 65).subspace)
        assert parse_subspace(text, code)[0] is code
        with pytest.raises(ValueError, match="^line 1: r must be in 2..64"):
            parse_subspace(text)

    def test_header_modulus_digit_out_of_range(self):
        # 3 = 1 mod 2 would make x^3 + x + 1, but a header digit is taken
        # as written.
        with pytest.raises(ValueError, match=r"^line 1:.*p_0 = 3"):
            parse_subspace("2 3 2 3 1 0\n1 6\n1 0 0 0 0 0\n")


# ---------------------------------------------------------------------------
# Properties of the subspace file format over q = 2, 3, 5 and r = 2..4.

@functools.cache
def file_code(q, k, r):
    return SpreadCode(q, k, r)


@st.composite
def code_and_space(draw):
    """A small code and a random nonzero subspace of its ambient space."""
    q = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.sampled_from([2, 3]))
    code = file_code(q, k, draw(st.integers(2, 4)))
    nrows = draw(st.integers(1, code.n))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=code.n,
                                  max_size=code.n),
                         min_size=nrows, max_size=nrows))
    sub = Subspace.from_generators(Matrix(code.base, rows))
    assume(sub.dim >= 1)
    return code, sub


@settings(max_examples=40, deadline=None)
@given(case=code_and_space())
def test_subspace_file_round_trip(case):
    code, sub = case
    text = format_subspace(code, sub)
    assert parse_subspace(text, code) == (code, sub)
    parsed_code, parsed = parse_subspace(text)
    assert parsed_code.header() == code.header() and parsed == sub


@settings(max_examples=60, deadline=None)
@given(case=code_and_space(), data=st.data())
def test_mutated_subspace_file_names_its_line(case, data):
    # Lines are 1: header, 2: size, 3..: rows.  A dropped row breaks the
    # row count the size line states, so that error names line 2.
    code, sub = case
    lines = format_subspace(code, sub).splitlines()
    kind = data.draw(st.sampled_from(
        ["digit q", "digit +1", "drop row", "widen row", "header"]))
    if kind == "header":
        at = data.draw(st.integers(3, 2 + code.k))
        fields = lines[0].split()
        old = int(fields[at])
        fields[at] = str(data.draw(st.integers(0, code.q - 1).filter(
            lambda c: c != old)))
        lines[0], line = " ".join(fields), 1
    elif kind == "drop row":
        del lines[data.draw(st.integers(2, len(lines) - 1))]
        line = 2
    else:
        line = data.draw(st.integers(3, len(lines)))
        digits = lines[line - 1].split()
        if kind == "widen row":
            digits.append("0")
        else:
            at = data.draw(st.integers(0, len(digits) - 1))
            digits[at] = str(code.q) if kind == "digit q" else "+1"
        lines[line - 1] = " ".join(digits)
    with pytest.raises(ValueError, match=rf"^line {line}:"):
        parse_subspace("\n".join(lines) + "\n", code)
