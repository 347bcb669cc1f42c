import collections
import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spreadcodes.decoder as decoder_module
import spreadcodes.linalg as linalg_module
import spreadcodes.spread as spread_module

from spreadcodes.channel import (ChannelSpec, corrupt, random_codeword,
                                 simulate, trial_rng)
from spreadcodes.decoder import (AffinePencil, DecodeResult, ReceivedSpace,
                                 REASON_DIMENSION, REASON_NO_CODEWORD,
                                 _interpolated_point, _nonsingular_core,
                                 candidate_roots, decode, decode_pair)
from spreadcodes.cli import main as cli_main
from spreadcodes.gf import ExtField, OpCount, PrimeField, is_element
from spreadcodes.linalg import Matrix, hstack, rank, vstack
from spreadcodes.oracle import brute_force_decode
from spreadcodes.spread import (SpreadCode, Subspace, format_subspace,
                                subspace_distance)

from paper_reference import _pencil_point, mu_characterization
from props import (all_subspaces, dense_point, dense_step,
                   fast_general_agreement, interpolated_point,
                   list_interpolated_point, list_interpolation,
                   oracle_agreement_cases,
                   oracle_agreement_exhaustive, oracle_agreement_sampled,
                   pair_point, pencil_pair_point, random_element,
                   random_matrix, root_evaluation_trials, transpose)


@functools.cache
def small_code(qkr):
    """One code per parameters, so its codeword list is built once."""
    return SpreadCode(*qkr)


@pytest.fixture(scope="module")
def code32():
    return SpreadCode(2, 3, 2)


@pytest.fixture(scope="module")
def code22():
    return SpreadCode(2, 2, 2)


class TestIntactCodewords:
    @pytest.mark.parametrize("q,k,r", [(2, 2, 2), (2, 3, 2), (3, 2, 2),
                                       (2, 2, 3)])
    def test_every_codeword_decodes_to_itself(self, q, k, r):
        code = SpreadCode(q, k, r)
        for cw in code.codeword_list():
            received = ReceivedSpace(cw.subspace, k)
            result = decode(received, code)
            assert result.ok and result.codeword == cw


class TestPairwise:
    def test_membership_fast_accept(self, code32):
        I = Matrix.identity(code32.base, 3)
        result = decode_pair(I, code32.P, code32)
        assert result.ok
        assert result.codeword == code32.encode((code32.ext.one,
                                                 code32.alpha))

    def test_small_first_block_returns_second_unit(self, code32):
        # received space inside the second block only
        rows = Matrix(code32.base, [[0, 0, 0, 1, 0, 0],
                                    [0, 0, 0, 0, 1, 0]])
        sub = Subspace.from_generators(rows)
        blocks = ReceivedSpace(sub, 3).blocks
        result = decode_pair(blocks[0], blocks[1], code32)
        assert result.ok
        assert result.codeword == code32.encode((0, 1))

    def test_erasure_plus_error_recovers(self, code32):
        # distance-2 corruption of the generator codeword, oracle checked
        cw = code32.encode((code32.ext.one, code32.alpha))
        rng = trial_rng(99)
        received = corrupt(cw, ChannelSpec(erasures=1, errors=1), code32, rng)
        best, nearest = brute_force_decode(received, code32)
        assert best == 2 and nearest == [cw]
        result = decode(received, code32)
        assert result.ok and result.codeword == cw

    def test_block_swap_symmetry(self, code32):
        rnd = random.Random(5)
        for _ in range(200):
            M = random_matrix(rnd, code32.base, rnd.randrange(1, 4), 6)
            if rank(M) < M.nrows:
                continue
            sub = Subspace.from_generators(M)
            blocks = ReceivedSpace(sub, 3).blocks
            a = decode_pair(blocks[0], blocks[1], code32)
            b = decode_pair(blocks[1], blocks[0], code32)
            assert a.ok == b.ok
            if a.ok:
                pa, pb = a.codeword.point, b.codeword.point
                assert code32.encode((pa[1], pa[0])) == b.codeword
                assert code32.encode((pb[1], pb[0])) == a.codeword

    def test_rejects_rank_deficient_stack(self, code32):
        Z = Matrix.zeros(code32.base, 2, 3)
        with pytest.raises(ValueError):
            decode_pair(Z, Z, code32)

    def test_oversized_dimension_fails_cleanly(self, code22):
        # A space of dimension k + 1 holding the codeword [1 : 0] lies at
        # distance 1 from it and decodes to it, as brute force says.  At
        # dimension 2k every codeword is at distance k or more, and the
        # decoder refuses at once.
        rows = Matrix(code22.base, [[1, 0, 0, 0], [0, 1, 0, 0],
                                    [0, 0, 1, 0]])
        sub = Subspace.from_generators(rows)
        best, nearest = brute_force_decode(ReceivedSpace(sub, 2), code22)
        assert best == 1 and nearest == [code22.encode((1, 0))]
        blocks = ReceivedSpace(sub, 2).blocks
        result = decode_pair(blocks[0], blocks[1], code22)
        assert result.ok and result.codeword == nearest[0]
        whole = Subspace.from_generators(Matrix.identity(code22.base, 4))
        result = decode(ReceivedSpace(whole, 2), code22)
        assert not result.ok and result.reason == REASON_DIMENSION

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 3), (5, 2)])
    def test_decode_pair_is_decode_on_two_blocks(self, q, k):
        # Both block orders give what decode gives on the row space of
        # the stacked blocks.  On every pair with both blocks above the
        # rank threshold, wherever the paper's pencil search accepts a
        # parameter, the rank-metric pair step returns the same one; and
        # wherever the closed form applies, it returns what the pencil
        # search returns, parameter or failure reason.
        code = SpreadCode(q, k, 2)
        I = Matrix.identity(code.base, k)
        checked = accepted = closed = 0
        for e, eps in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, k - 1)]:
            for t in range(6):
                rng = trial_rng(q * 10 + k, e, eps, t)
                received = corrupt(random_codeword(code, rng),
                                   ChannelSpec(eps, e), code, rng)
                A, B = received.blocks
                for X, Y in ((A, B), (B, A)):
                    pair = Subspace.from_generators(hstack(X, Y))
                    want = decode(ReceivedSpace(pair, k), code)
                    assert decode_pair(X, Y, code) == want
                    checked += 1
                    d = pair.dim
                    P1, P2 = ReceivedSpace(pair, k).blocks
                    if min(rank(P1), rank(P2)) <= (d - 1) / 2:
                        continue
                    ref = pencil_pair_point(P1, P2, code)
                    if not isinstance(ref, str):
                        accepted += 1
                        assert pair_point(P1, P2, d, code) == ref
                        assert want.ok
                    if P1 == I and code.element_of(P2) is None:
                        closed += 1
                        assert _nonsingular_core(P2, code) == ref
        assert checked == 6 * 6 * 2
        assert accepted and closed


class TestPencil:
    @pytest.mark.parametrize("q,k", [(2, 3), (3, 3), (5, 2)])
    def test_at_matches_entries_and_charges_other_coefficients(self, q, k):
        # R(mu)[i, j] = coeff[i, j] * mu^(q^j) - offset[i, j]; a
        # coefficient 0 or +-1 costs no extension-field multiplication.
        code = SpreadCode(q, k, 2)
        ext = code.ext
        rnd = random.Random(q + k)
        units = [0, ext.one, ext.neg(ext.one)]
        for _ in range(20):
            n = rnd.randrange(1, k + 1)
            coeff = Matrix(ext, [[rnd.choice(units + [random_element(
                rnd, ext)]) for _ in range(k)] for _ in range(n)])
            offset = random_matrix(rnd, ext, n, k)
            mu = random_element(rnd, ext)
            want = [[ext.sub(ext.mul(a, ext.frobenius(mu, j)), b)
                     for j, (a, b) in enumerate(zip(arow, brow))]
                    for arow, brow in zip(coeff.data, offset.data)]
            with OpCount() as c:
                got = AffinePencil(coeff, offset).at(mu)
            assert got == Matrix(ext, want)
            others = sum(1 for row in coeff.data for a in row
                         if a not in units)
            assert (c.ext_mul, c.ext_inv) == (others, 0)


class TestNonsingularPath:
    def test_single_error_on_power_codeword(self, code32):
        # second block is P^2 plus a rank-one disturbance that keeps it
        # invertible; the only codeword within distance 2 is rowsp(I|P^2)
        P2 = code32.P @ code32.P
        I = Matrix.identity(code32.base, 3)
        target = code32.encode((code32.ext.one, code32.element_of(P2)))
        found = None
        for u in range(1, 8):
            for v in range(1, 8):
                urow = [(u >> i) & 1 for i in range(3)]
                vrow = [(v >> i) & 1 for i in range(3)]
                E = transpose(Matrix(code32.base, [urow])) @ Matrix(
                    code32.base, [vrow])
                R2 = P2 + E
                if rank(R2) == 3:
                    found = R2
                    break
            if found is not None:
                break
        best, nearest = brute_force_decode(
            ReceivedSpace(Subspace.from_generators(hstack(I, found)), 3),
            code32)
        assert best == 2 and nearest == [target]
        mu = code32.element_of(P2)
        assert _nonsingular_core(found, code32) == mu
        assert _pencil_point(I, found, code32) == mu
        result = decode_pair(I, found, code32)
        assert result.ok and result.codeword == target

    def test_failure_when_nothing_in_range(self, code32):
        I = Matrix.identity(code32.base, 3)
        rnd = random.Random(11)
        found = None
        while found is None:
            R2 = random_matrix(rnd, code32.base, 3, 3)
            sub = Subspace.from_generators(hstack(I, R2))
            best, _ = brute_force_decode(ReceivedSpace(sub, 3), code32)
            if best >= 3 and rank(R2) == 3:
                found = R2
        assert _nonsingular_core(found, code32) == REASON_NO_CODEWORD
        assert _pencil_point(I, found, code32) == REASON_NO_CODEWORD
        result = decode_pair(I, found, code32)
        assert not result.ok and result.reason == REASON_NO_CODEWORD

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (2, 4), (3, 3)])
    def test_agrees_with_general_path(self, q, k):
        code = SpreadCode(q, k, 2)
        done, disagree = fast_general_agreement(code, 250, q * 10 + k)
        assert done == 250 and disagree == 0


class TestCandidateRoots:
    def test_empty_free_set_rejected(self, code32):
        ext = code32.ext
        pencil = AffinePencil(Matrix.identity(ext, 3),
                              Matrix.zeros(ext, 3, 3))
        with pytest.raises(ValueError):
            candidate_roots(pencil, (1,), (2,), ())

    @pytest.mark.parametrize("q,k,cells", [
        (2, 3, [(0, 1), (1, 1)]),
        (3, 2, [(0, 1)]),
        (2, 4, [(0, 1), (1, 1), (1, 2)]),
        (3, 3, [(0, 1), (1, 1)]),
    ])
    def test_roots_kill_minor_and_rank_test_unique(self, q, k, cells):
        code = SpreadCode(q, k, 2)
        instances, nonzero, wrong = root_evaluation_trials(
            code, cells, 60, seed=q * 100 + k)
        assert instances > 0
        assert nonzero == 0 and wrong == 0

    def test_unique_parameter_matches_enumeration(self, code32):
        # distance-2 instances: the decoded parameter is the unique one
        # the exhaustive characterization finds
        for t in range(40):
            rng = trial_rng(17, t)
            cw = random_codeword(code32, rng)
            received = corrupt(cw, ChannelSpec(erasures=1, errors=1),
                               code32, rng)
            blocks = received.blocks
            mus = mu_characterization(blocks[0], blocks[1], code32)
            result = decode(received, code32)
            assert result.ok and result.codeword == cw
            lead, tail = result.codeword.point
            if lead == code32.ext.one:
                assert mus == [tail]

    def test_nondecodable_has_empty_characterization(self, code22):
        # any 2-dim non-codeword at k=2 has nothing within distance 1
        rnd = random.Random(23)
        hits = 0
        while hits < 20:
            M = random_matrix(rnd, code22.base, 2, 4)
            if rank(M) != 2:
                continue
            sub = Subspace.from_generators(M)
            if code22.is_codeword(sub):
                continue
            blocks = ReceivedSpace(sub, 2).blocks
            if rank(blocks[0]) < 2:
                continue
            hits += 1
            assert mu_characterization(blocks[0], blocks[1], code22) == []
            assert not decode(ReceivedSpace(sub, 2), code22).ok


class TestOracleAgreement:
    # Every subspace of dimension 1..n-1: 15 + 35 + 15 of F_2^4,
    # 40 + 130 + 40 of F_3^4, and 63 + 651 + 1395 + 651 + 63 of F_2^6.
    def test_exhaustive_smallest_code(self, code22):
        cases, mismatches = oracle_agreement_exhaustive(code22)
        assert cases == 65 and mismatches == 0

    def test_exhaustive_odd_q(self):
        cases, mismatches = oracle_agreement_exhaustive(SpreadCode(3, 2, 2))
        assert cases == 210 and mismatches == 0

    def test_exhaustive_three_blocks(self):
        cases, mismatches = oracle_agreement_exhaustive(SpreadCode(2, 2, 3))
        assert cases == 2823 and mismatches == 0

    @pytest.mark.parametrize("qkr", [(2, 3, 2), (2, 2, 3), (3, 3, 2)])
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_subspaces_of_any_dimension(self, qkr, data):
        # Random combinations of a codeword's basis rows plus random
        # rows: every dimension 1..n-1, inside the radius and beyond it.
        code = small_code(qkr)
        q, n = code.q, code.n
        cw = data.draw(st.sampled_from(code.codeword_list()))
        coeffs = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        kept = data.draw(st.lists(st.lists(st.integers(0, q - 1),
                                           min_size=code.k,
                                           max_size=code.k),
                                  max_size=code.k))
        extra = data.draw(st.lists(coeffs, max_size=n - 1))
        parts = [Matrix(code.base, kept) @ cw.subspace.basis] if kept else []
        if extra:
            parts.append(Matrix(code.base, extra))
        assume(parts)
        sub = Subspace.from_generators(vstack(*parts))
        assume(1 <= sub.dim <= n - 1)
        cases, mismatches = oracle_agreement_cases(code, [sub])
        assert cases == 1 and mismatches == 0

    @pytest.mark.parametrize("q,k,r,cells", [
        (2, 3, 2, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]),
        (3, 2, 2, [(0, 0), (0, 1), (1, 1)]),
        (2, 2, 3, [(0, 0), (0, 1), (1, 1)]),
        (5, 2, 2, [(0, 0), (0, 1), (1, 1)]),
    ])
    def test_sampled_channel_outputs(self, q, k, r, cells):
        code = SpreadCode(q, k, r)
        cases, mismatches = oracle_agreement_sampled(code, cells, 40,
                                                     seed=q + k + r)
        assert cases == 40 * len(cells) and mismatches == 0


def dense_decode(received, code):
    """decode with the dense Welch-Berlekamp solve in every pair step."""
    with mock.patch.object(decoder_module, "_pair_step", dense_step):
        return decode(received, code)


class TestInterpolation:
    """The q = 2, t >= 2 pair step (linearized Koetter interpolation)
    against the dense Welch-Berlekamp solve that every other case runs."""

    @pytest.mark.parametrize("qkr", [(2, 5, 2), (2, 6, 2), (2, 8, 2),
                                     (2, 4, 3), (2, 5, 3)])
    def test_same_mu_on_every_pair_inside_the_radius(self, qkr):
        code = small_code(qkr)
        ext, k = code.ext, code.k
        compared = 0
        for e in range(k):
            for eps in range(k - e):
                for t in range(3):
                    rng = trial_rng(11, e, eps, t)
                    cw = random_codeword(code, rng)
                    received = corrupt(cw, ChannelSpec(eps, e), code, rng)
                    d = received.dim
                    if d < 5:
                        continue
                    blocks = received.blocks
                    high = [i for i, b in enumerate(blocks)
                            if 2 * rank(b) > d - 1]
                    point = cw.point
                    j = high[0]
                    for i in high[1:]:
                        want = ext.mul(point[i], ext.inv(point[j]))
                        args = (blocks[j], blocks[i], d, code)
                        assert interpolated_point(*args) == want
                        assert dense_point(*args) == want
                        compared += 1
        assert compared >= 20

    def test_packed_field_with_a_dense_modulus(self):
        # F_2^17 is above TABLE_LIMIT, so the interpolation runs the
        # packed row kernels, here reducing by a modulus with every low
        # coefficient set but that of x^4.
        low = tuple(int(i != 4) for i in range(17))
        code = SpreadCode(2, 17, 2, low)
        ext = code.ext
        assert ext._log is None and ext.modulus == low + (1,)
        for e, eps in ((16, 0), (8, 8), (5, 3), (0, 12)):
            for t in range(3):
                rng = trial_rng(17, e, eps, t)
                cw = random_codeword(code, rng)
                received = corrupt(cw, ChannelSpec(eps, e), code, rng)
                R0, R1 = received.blocks
                point = cw.point
                want = ext.mul(point[1], ext.inv(point[0]))
                args = (R0, R1, received.dim, code)
                assert interpolated_point(*args) == want
                assert dense_point(*args) == want
                result = decode(received, code)
                assert result.ok and result.codeword == cw
                assert result == dense_decode(received, code)

    @pytest.mark.parametrize("qkr", [(2, 17, 2), (2, 24, 2)])
    def test_slotted_row_handles(self, qkr):
        # Packed fields, so the interpolation holds its rows as slotted
        # ints.  Inside the radius it finds the sent mu, as the dense
        # solve does; beyond it the two fail with the same reason or
        # agree on mu, and decode agrees with the dense decode.  On every
        # input the interpolation on list rows gives the same answer at
        # the same OpCount.
        code = small_code(qkr)
        ext, k = code.ext, code.k
        assert isinstance(ext.rows.load([1]), int)
        seen = collections.Counter()
        for e in range(0, k + 1, 3):
            for eps in range(0, k, 3):
                rng = trial_rng(23, e, eps)
                cw = random_codeword(code, rng)
                received = corrupt(cw, ChannelSpec(eps, e), code, rng)
                d = received.dim
                R0, R1 = received.blocks
                if d < 5 or 2 * min(rank(R0), rank(R1)) <= d - 1:
                    continue
                args = (R0, R1, d, code)
                with OpCount() as slotted:
                    mu = interpolated_point(*args)
                with OpCount() as listed:
                    assert list_interpolated_point(*args) == mu
                assert repr(slotted) == repr(listed)
                assert mu == dense_point(*args)
                inside = e + eps < k
                if inside:
                    point = cw.point
                    assert mu == ext.mul(point[1], ext.inv(point[0]))
                assert decode(received, code) == dense_decode(received, code)
                seen[inside, isinstance(mu, str)] += 1
        assert seen[True, False] >= 10 and seen[False, True] >= 5

    @pytest.mark.parametrize("qkr", [(2, 5, 2), (2, 9, 2)])
    def test_list_oracle_on_table_fields(self, qkr):
        # The interpolation on the list row handles of a table field
        # against the list oracle: the same answer at the same OpCount
        # at every cell the interpolation runs.
        code = small_code(qkr)
        k = code.k
        compared = 0
        for e in range(k + 1):
            for eps in range(k):
                rng = trial_rng(29, e, eps)
                cw = random_codeword(code, rng)
                received = corrupt(cw, ChannelSpec(eps, e), code, rng)
                d = received.dim
                R0, R1 = received.blocks
                if d < 5 or 2 * min(rank(R0), rank(R1)) <= d - 1:
                    continue
                args = (R0, R1, d, code)
                with OpCount() as handled:
                    mu = interpolated_point(*args)
                with OpCount() as listed:
                    assert list_interpolated_point(*args) == mu
                assert repr(handled) == repr(listed)
                compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("qk", [(2, 5), (2, 9), (2, 17), (2, 24)])
    def test_constructed_interpolation_cases(self, qk):
        # Points that force each branch of the interpolation, followed by
        # random ones, against the list oracle (answer and OpCount):
        # both values nonzero at equal degrees, at degree 0 and again at
        # degree 1; both values zero at a point; and x, then y, dropped
        # at degree t after t + 1 independent points on its own side.
        q, k = qk
        ext = SpreadCode(q, k, 2).ext
        rnd = random.Random(k)
        g = ext.gen()
        for t in (0, 1, 2, 3):
            basis = [1 << i for i in range(t + 1)]
            zeros = [0] * (t + 1)
            heads = [([1], [g]), ([1, 0, g], [0, 1, g]), ([0], [0]),
                     (basis, zeros), (zeros, basis)]
            for a, b in heads:
                for _ in range(4):
                    n = 2 * t + 1 + rnd.randrange(4) - len(a)
                    tail = [[rnd.randrange(ext.order) for _ in range(n)]
                            for _ in "ab"]
                    xa, yb = a + tail[0], b + tail[1]
                    with OpCount() as handled:
                        mu = _interpolated_point(xa, yb, t, ext)
                    with OpCount() as listed:
                        assert list_interpolation(xa, yb, t, ext) == mu
                    assert repr(handled) == repr(listed)

    def test_every_five_dimensional_space(self):
        # The 63 hyperplanes of F_2^6: both pair steps give the same
        # outcome, which is brute force's.
        code = small_code((2, 3, 2))
        spaces = all_subspaces(2, 6, [5])
        assert len(spaces) == 63
        decoded = 0
        for sub in spaces:
            received = ReceivedSpace(sub, 3)
            result = decode(received, code)
            assert result == dense_decode(received, code)
            decoded += result.ok
        assert decoded
        assert oracle_agreement_cases(code, spaces) == (63, 0)

    @pytest.mark.parametrize("qkr", [(2, 4, 2), (2, 5, 2), (2, 4, 3)])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_spaces_of_dimension_five_and_up(self, qkr, data):
        # A random part of a codeword plus random rows, as in the oracle
        # property above, kept only at d >= 5.
        code = small_code(qkr)
        q, n, k = code.q, code.n, code.k
        cw = data.draw(st.sampled_from(code.codeword_list()))
        kept = data.draw(st.lists(st.lists(st.integers(0, q - 1),
                                           min_size=k, max_size=k),
                                  min_size=1, max_size=k))
        extra = data.draw(st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            max_size=n - 1))
        parts = [Matrix(code.base, kept) @ cw.subspace.basis]
        if extra:
            parts.append(Matrix(code.base, extra))
        sub = Subspace.from_generators(vstack(*parts))
        assume(5 <= sub.dim <= n - 1)
        received = ReceivedSpace(sub, k)
        assert decode(received, code) == dense_decode(received, code)


class TestPairAcceptance:
    """For r = 2, decode accepts on the pair's own rank test,
    2 rank(R_j M(mu) - R_i) <= d - 1, and runs no distance check: the
    decoder does not even import one.  A
    solved pair has dim(W + C) = k + rank(R_j M - R_i), so
    dist(W, C) = k - d + 2 rank(R_j M - R_i); a pinned block is the
    case M = 0, at distance at most k - 1; a membership pair is C."""

    CODES = [(2, 5, 2), (2, 9, 2), (3, 4, 2), (5, 3, 2)]

    @staticmethod
    def cells(k):
        # Every (errors, erasures) with a nonempty received space, inside
        # the radius k - 1 and beyond it.
        return [(e, eps) for e in range(k + 1) for eps in range(k + 1)
                if k - eps + e >= 1]

    @pytest.mark.parametrize("qkr", CODES)
    def test_no_distance_check(self, qkr):
        code = small_code(qkr)
        k = code.k
        trials = 1 if k > 5 else 3
        members = []
        membership = decoder_module._membership_point

        def recorded(code, A):
            mu = membership(code, A)
            members.append(mu is not None)
            return mu

        def refused(*args):
            raise AssertionError("r = 2 decode ran a distance check")

        assert not hasattr(decoder_module, "subspace_distance")

        # Random codewords, and the two whose other block is zero, which
        # keeps that block pinned inside the radius.
        sent = [lambda rng: random_codeword(code, rng)] * trials + [
            lambda rng: code.encode((1, 0)), lambda rng: code.encode((0, 1))]
        seen = collections.Counter()
        for e, eps in self.cells(k):
            for t, codeword in enumerate(sent):
                rng = trial_rng(31, e, eps, t)
                received = corrupt(codeword(rng), ChannelSpec(eps, e), code,
                                   rng)
                best, nearest = brute_force_decode(received, code)
                members.clear()
                with mock.patch.object(spread_module, "subspace_distance",
                                       refused), \
                        mock.patch.object(decoder_module, "_membership_point",
                                          recorded):
                    result = decode(received, code)
                if best < k:
                    assert result.ok and result.codeword == nearest[0]
                else:
                    assert not result.ok
                d = received.dim
                pinned = any(2 * rank(b) <= d - 1 for b in received.blocks)
                seen["pinned" if pinned else "member" if any(members)
                     else "solved", result.ok] += 1
        assert seen["pinned", True] and seen["member", True]
        assert seen["solved", True] and seen["solved", False]

    @pytest.mark.parametrize("qkr", [(2, 5, 2), (3, 4, 2), (5, 3, 2)])
    def test_every_answer_of_the_pair_step(self, qkr):
        # Whatever mu the pair step returns, decode accepts exactly when
        # the codeword [1 : mu] lies within distance k - 1, the boundary
        # 2 rank = d included, which no solver answer reached in sampling.
        code = small_code(qkr)
        k = code.k
        seen = collections.Counter()
        for e, eps in self.cells(k):
            received = corrupt(random_codeword(code, trial_rng(41, e, eps)),
                               ChannelSpec(eps, e), code, trial_rng(43, e, eps))
            d = received.dim
            R0, R1 = received.blocks
            if d >= 2 * k or 2 * min(rank(R0), rank(R1)) <= d - 1 or (
                    R0 == code.identity_block
                    and code.element_of(R1) is not None):
                continue
            read = decoder_module._pair_step(code, d, (d - 1) // 2)[0]
            for mu in code.ext.elements():
                step = (read, lambda *args: mu)
                with mock.patch.object(decoder_module, "_pair_step",
                                       lambda *args: step):
                    result = decode(received, code)
                cw = code.encode((1, mu))
                dist = subspace_distance(received.subspace, cw.subspace)
                assert result == (DecodeResult(cw) if dist < k else
                                  DecodeResult(None, REASON_NO_CODEWORD))
                seen["boundary" if dist == k else dist < k] += 1
        assert seen["boundary"] and seen[True] and seen[False]

    @pytest.mark.parametrize("qkr", CODES)
    def test_distance_identity(self, qkr):
        # dist(W, C) = k - d + 2 rank(R_0 M - R_1) for C = rowspace(I M),
        # W a channel output with blocks (R_0 R_1), mu = 0 included.
        code = small_code(qkr)
        k, ext = code.k, code.ext
        I = code.identity_block
        checked = 0
        for e, eps in self.cells(k):
            rng = trial_rng(37, e, eps)
            received = corrupt(random_codeword(code, rng),
                               ChannelSpec(eps, e), code, rng)
            R0, R1 = received.blocks
            d = received.dim
            for mu in (0, 1, int(rng.integers(ext.order))):
                M = code.matrix_rep(mu)
                C = Subspace.from_generators(hstack(I, M))
                assert subspace_distance(received.subspace, C) == (
                    k - d + 2 * rank(R0 @ M - R1))
                checked += 1
        assert checked >= 3 * len(self.cells(k))


class TestKernelSteps:
    """For r > 2, every pair step after the first runs on the rows u of
    W's basis with u X_i = 0 for each block i read before it, where
    X_i = R_j M(mu_i) - R_i, and X_i = R_i for a pinned block, at
    t' = t - rho for the rank rho of those X_i stacked.  The decode
    accepts on 2 rho <= d - 1 over all the blocks, as
    dist(W, C) = k - d + 2 rank(hstack_i X_i), and runs no distance
    check."""

    CODES = [(2, 3, 3), (2, 4, 4), (3, 3, 4), (5, 2, 3)]

    @staticmethod
    def recording_steps(monkeypatch):
        """Patch _pair_step to record the number of rows of each step."""
        rows = []
        real_step = decoder_module._pair_step

        def step(code, d, t):
            rows.append(d)
            return real_step(code, d, t)

        monkeypatch.setattr(decoder_module, "_pair_step", step)
        return rows

    @pytest.mark.parametrize("qkr", CODES)
    def test_brute_force_agreement_in_every_cell(self, monkeypatch, qkr):
        # Every (errors, erasures) with a nonempty received space, inside
        # the radius k - 1 and beyond it.
        code = small_code(qkr)
        k = code.k
        trials = 1 if code.size > 10 ** 4 else 3
        rows = self.recording_steps(monkeypatch)
        seen = collections.Counter()
        for e in range(k + 1):
            for eps in range(k + 1):
                if k - eps + e < 1:
                    continue
                for i in range(trials):
                    rng = trial_rng(53, e, eps, i)
                    received = corrupt(random_codeword(code, rng),
                                       ChannelSpec(eps, e), code, rng)
                    best, nearest = brute_force_decode(received, code)
                    rows.clear()
                    result = decode(received, code)
                    if best < k:
                        assert result == DecodeResult(nearest[0])
                    else:
                        assert not result.ok and result.reason in (
                            REASON_NO_CODEWORD, REASON_DIMENSION)
                    restricted = any(n < received.dim for n in rows)
                    seen[best < k, restricted] += 1
        assert seen[True, True] and seen[True, False]
        assert seen[False, True] + seen[False, False]

    @pytest.mark.parametrize("qkr", CODES + [(2, 5, 4)])
    def test_distance_identity(self, qkr):
        # dist(W, C) = k - d + 2 rank(hstack_i X_i) for the codeword C of
        # a point led by block j, X_i = R_j M(v_i) - R_i over i != j, W a
        # channel output, the point the sent one or another.
        code = small_code(qkr)
        k = code.k
        checked = 0
        for e in range(k + 1):
            for eps in range(k):
                rng = trial_rng(59, e, eps)
                sent = random_codeword(code, rng)
                received = corrupt(sent, ChannelSpec(eps, e), code, rng)
                blocks, d = received.blocks, received.dim
                other = random_codeword(code, rng).point
                lead = list(other)
                lead[:2] = (0, 1)
                for point in (sent.point, other, tuple(lead)):
                    cw = code.encode(point)
                    j = next(i for i, v in enumerate(cw.point) if v)
                    X = hstack(*(blocks[j] @ code.matrix_rep(v) - blocks[i]
                                 for i, v in enumerate(cw.point) if i != j))
                    assert subspace_distance(received.subspace,
                                             cw.subspace) == k - d + 2 * rank(X)
                    checked += 1
        assert checked == 3 * (k + 1) * k

    @staticmethod
    def late_errors(code, block, e, eps, seed):
        """A codeword with no zero coordinate and a received space: k - eps
        of its rows and e error rows whose only nonzero block is
        ``block``, of rank e there."""
        k, n, ext = code.k, code.n, code.ext
        rnd = random.Random(seed)
        while True:
            cw = code.encode([1] + [rnd.randrange(1, ext.order)
                                    for _ in range(code.r - 1)])
            kept = random_matrix(rnd, code.base, k - eps, k)
            E = random_matrix(rnd, code.base, e, k)
            errors = [[0] * block * k + list(row) + [0] * (n - (block + 1) * k)
                      for row in E.data]
            sub = Subspace.from_generators(vstack(
                kept @ cw.subspace.basis, Matrix(code.base, errors)))
            if rank(kept) == k - eps and rank(E) == e:
                assert sub.dim == k - eps + e
                return cw, ReceivedSpace(sub, k)

    @pytest.mark.parametrize("qkr,block", [((2, 3, 4), 2), ((2, 3, 4), 3),
                                           ((3, 2, 4), 3), ((2, 4, 5), 3),
                                           ((2, 8, 8), 5)])
    def test_errors_invisible_to_the_first_pair(self, monkeypatch, qkr,
                                                block):
        # Errors whose only nonzero block is a later one leave the first
        # pair's X zero, so the pair steps before that block run on all
        # d rows and those after it on the d - e rows it proved clean.
        # Inside the radius the sent codeword comes back; beyond it the
        # answer is brute force's.
        code = small_code(qkr)
        k = code.k
        rows = self.recording_steps(monkeypatch)
        seen = collections.Counter()
        for e in range(1, k + 1):
            for eps in range(max(0, e - 1), k):
                seed = 100 * e + eps
                cw, received = self.late_errors(code, block, e, eps, seed)
                d, t = received.dim, (received.dim - 1) // 2
                blocks = received.blocks
                X1 = blocks[0] @ code.matrix_rep(cw.point[1]) - blocks[1]
                assert rank(X1) == 0
                rows.clear()
                result = decode(received, code)
                if e <= t:
                    assert result == DecodeResult(cw)
                    after = block + 1 < code.r
                    assert rows[0] == d
                    assert (rows[-1] == d - e) == after
                    seen["inside", after] += 1
                elif code.size <= 10 ** 4:
                    best, nearest = brute_force_decode(received, code)
                    assert result == (DecodeResult(nearest[0]) if best < k
                                      else DecodeResult(None,
                                                        REASON_NO_CODEWORD))
                    seen["beyond"] += 1
        assert seen["inside", block + 1 < code.r]

    @pytest.mark.parametrize("qkr,seed", [((2, 3, 3), 4), ((3, 3, 4), 2),
                                          ((5, 3, 3), 1)])
    def test_kept_rows_are_zero_in_blocks_read(self, monkeypatch, qkr,
                                               seed):
        # Every block is above the rank threshold, so block 0 leads and
        # the others are read in turn.  Each split zeroes the columns of
        # the block it reads, so the rows kept are zero in every block
        # read so far, and no later row update multiplies there.
        code = SpreadCode(*qkr)
        k, r = code.k, code.r
        rng = trial_rng(seed)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(erasures=1, errors=1), code, rng)
        assert min(rank(b) for b in received.blocks) > (received.dim - 1) / 2
        read, kept_rows = [], []
        real_split = decoder_module._kernel_split

        def split(X, Y, at):
            read.append(at // k)
            s, kept = real_split(X, Y, at)
            if kept is not None:
                kept_rows.append((len(read), kept))
            return s, kept

        monkeypatch.setattr(decoder_module, "_kernel_split", split)
        assert decode(received, code) == DecodeResult(cw)
        assert read == list(range(1, r - 1)) and kept_rows
        for n, kept in kept_rows:
            zero = Matrix.zeros(code.base, kept.nrows, k)
            assert all(kept.columns_slice(b * k, (b + 1) * k) == zero
                       for b in read[:n])


class TestShortenedSolve:
    """Over q <= 3 at t' >= 1 the dense solve reads only the first
    2t' + 1 of the step's rows; the q = 2 interpolation, every q >= 5
    step and every t' = 0 step read all of them.  The rank of
    X_i = R_j M(mu) - R_i is still taken on every row, so an answer the
    shortened solve finds is accepted only within the radius."""

    @staticmethod
    def recording_solves(monkeypatch):
        """Patch _pair_step and the solvers to record, for each solve,
        the solver's name, the step's rows and t', and the row counts of
        the two point lists it receives."""
        solves = []
        step = []
        real_step = decoder_module._pair_step

        def pair_step(code, d, t):
            step[:] = [d, t]
            return real_step(code, d, t)

        def recorded(name, fn):
            def solve(a, b, t, ext):
                mu = fn(a, b, t, ext)
                solves.append((name, *step, len(a), len(b), mu))
                return mu
            return solve

        monkeypatch.setattr(decoder_module, "_pair_step", pair_step)
        for name in ("_dense_point", "_interpolated_point", "_divided_point"):
            monkeypatch.setattr(decoder_module, name, recorded(
                name, getattr(decoder_module, name)))
        return solves

    @pytest.mark.parametrize("qkr", [(3, 3, 2), (3, 4, 2), (3, 3, 4),
                                     (2, 4, 4)])
    def test_brute_force_agreement_in_every_cell(self, monkeypatch, qkr):
        # Every (errors, erasures) with a nonempty received space, inside
        # the radius k - 1 and beyond it.  Some decodes inside the radius
        # run a shortened solve, and beyond it some shortened solve
        # returns a mu that the rank on all rows rejects.
        code = small_code(qkr)
        k = code.k
        trials = 1 if code.size > 10 ** 4 else 3
        solves = self.recording_solves(monkeypatch)
        seen = collections.Counter()
        for e in range(k + 1):
            for eps in range(k + 1):
                if k - eps + e < 1:
                    continue
                for i in range(trials):
                    rng = trial_rng(61, e, eps, i)
                    received = corrupt(random_codeword(code, rng),
                                       ChannelSpec(eps, e), code, rng)
                    best, nearest = brute_force_decode(received, code)
                    solves.clear()
                    result = decode(received, code)
                    if best < k:
                        assert result == DecodeResult(nearest[0])
                    else:
                        assert not result.ok and result.reason in (
                            REASON_NO_CODEWORD, REASON_DIMENSION)
                    short = [s for s in solves if s[3] < s[1]]
                    seen[best < k, bool(short)] += 1
                    if best >= k and any(not isinstance(s[-1], str)
                                         for s in short):
                        seen["rejected"] += 1
        assert seen[True, True] and seen[True, False]
        assert seen["rejected"]

    @pytest.mark.parametrize("qkr", [(2, 5, 2), (2, 3, 3), (2, 8, 8),
                                     (3, 3, 2), (3, 5, 4), (5, 2, 3),
                                     (5, 4, 2), (7, 3, 2)])
    def test_rows_each_solve_reads(self, monkeypatch, qkr):
        code = small_code(qkr)
        k = code.k
        solves = self.recording_solves(monkeypatch)
        for e in range(k + 1):
            for eps in range(k + 1):
                if k - eps + e < 1:
                    continue
                for i in range(2):
                    rng = trial_rng(67, e, eps, i)
                    decode(corrupt(random_codeword(code, rng),
                                   ChannelSpec(eps, e), code, rng), code)
        kinds = set()
        for name, d, t, na, nb, _ in solves:
            assert na == nb
            if name == "_dense_point" and code.q <= 3 and t >= 1:
                assert na == 2 * t + 1
                kinds.add("short" if d > na else "odd")
            else:
                assert na == d
                kinds.add(name if t else "t = 0")
        if code.q <= 3:
            assert "short" in kinds
        else:
            assert "_dense_point" in kinds
        if code.q == 2 and k >= 3:
            assert "_interpolated_point" in kinds
        assert "t = 0" in kinds

    @pytest.mark.parametrize("qk", [(2, 4), (3, 4), (3, 5)])
    def test_error_only_in_a_dropped_row(self, monkeypatch, qk):
        # W holds the rows of C led by e_0, e_1, e_2 and the error row
        # (e_3 | v), v not row 3 of M(mu): its RREF is those four rows,
        # d = 4, t = 1, so the solve reads the three clean rows only.
        # The rank test on all four rows sees the error, rank 1, and the
        # answer is brute force's: C, at distance k + 4 - 6.
        q, k = qk
        code = small_code((q, k, 2))
        rnd = random.Random(q * k)
        mu = rnd.randrange(2, code.ext.order)
        M = code.matrix_rep(mu)
        v = list(M.row(3))
        p = rnd.randrange(k)
        v[p] = (v[p] + 1) % q
        rows = [[int(a == b) for b in range(k)] + list(M.row(a))
                for a in range(3)]
        rows.append([int(b == 3) for b in range(k)] + v)
        sub = Subspace(Matrix(code.base, rows))
        assert sub.basis == Matrix(code.base, rows)
        received = ReceivedSpace(sub, k)
        cw = code.encode((1, mu))
        best, nearest = brute_force_decode(received, code)
        assert (best, nearest) == (k - 2, [cw])
        solves = self.recording_solves(monkeypatch)
        ranks = []
        real_rank = decoder_module.rank

        def recorded_rank(X):
            ranks.append((X.nrows, real_rank(X)))
            return ranks[-1][1]

        monkeypatch.setattr(decoder_module, "rank", recorded_rank)
        assert decode(received, code) == DecodeResult(cw)
        assert [s[:5] for s in solves] == [("_dense_point", 4, 1, 3, 3)]
        assert solves[0][-1] == mu
        assert ranks[-1] == (4, 1)


class TestSoundness:
    @pytest.mark.parametrize("q,k,r", [(2, 2, 2), (2, 3, 2), (3, 2, 2),
                                       (2, 2, 3)])
    def test_decoded_answers_are_close(self, q, k, r):
        # random garbage subspaces: every accepted answer is a codeword
        # within distance k-1
        code = SpreadCode(q, k, r)
        rnd = random.Random(q * k * r)
        for _ in range(300):
            M = random_matrix(rnd, code.base, rnd.randrange(1, k + 1), code.n)
            if rank(M) < M.nrows:
                continue
            sub = Subspace.from_generators(M)
            result = decode(ReceivedSpace(sub, k), code)
            if result.ok:
                assert code.is_codeword(result.codeword.subspace)
                assert subspace_distance(
                    sub, result.codeword.subspace) < k

    def test_layout_validation(self, code32):
        sub = Subspace.from_generators(
            Matrix(code32.base, [[1, 0, 0, 0, 0, 0]]))
        with pytest.raises(ValueError):
            decode(ReceivedSpace(sub, 2), code32)  # blocks of wrong width


class TestMultiBlock:
    def test_zero_leading_block_assembly(self):
        code = SpreadCode(2, 2, 3)
        ext = code.ext
        cw = code.encode((ext.zero, ext.one, ext.gen()))
        rng = trial_rng(31)
        received = corrupt(cw, ChannelSpec(erasures=1, errors=0), code, rng)
        best, nearest = brute_force_decode(received, code)
        assert best == 1 and nearest == [cw]
        result = decode(received, code)
        assert result.ok and result.codeword == cw

    def test_all_small_blocks_fail(self):
        code = SpreadCode(2, 3, 3)
        rows = Matrix(code.base, [
            [1, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0, 0]])
        sub = Subspace.from_generators(rows)
        received = ReceivedSpace(sub, 3)
        assert all(rank(b) == 1 for b in received.blocks)
        result = decode(received, code)
        assert not result.ok

    def test_pairwise_failure_propagates(self):
        code = SpreadCode(2, 2, 3)
        # blocks 1 and 2 high rank but jointly far from any pair codeword
        rnd = random.Random(41)
        found = 0
        for _ in range(500):
            M = random_matrix(rnd, code.base, 2, 6)
            if rank(M) < 2:
                continue
            sub = Subspace.from_generators(M)
            received = ReceivedSpace(sub, 2)
            best, _ = brute_force_decode(received, code)
            result = decode(received, code)
            if best >= 2:
                assert not result.ok
                found += 1
        assert found > 0


class TestLargeCharacteristic:
    @pytest.mark.parametrize("q,k", [(65521, 2), (1619, 3)])
    def test_one_error_decodes_near_the_field_limit(self, q, k):
        # q^k close to the CLI's limit of 2^32 with q far above the
        # tables' reach: the packed odd-q kernel, which must hold no
        # table sized by q, decodes one error back to the codeword.
        code = SpreadCode(q, k, 2)
        assert code.ext._log is None
        spec = ChannelSpec(erasures=0, errors=1)
        for i in range(5):
            rng = trial_rng(q, k, i)
            cw = random_codeword(code, rng)
            result = decode(corrupt(cw, spec, code, rng), code)
            assert result.ok and result.codeword == cw


class TestWorkDoneOnce:
    """The pair path reuses what its caller holds: one rank per input
    block, the raw blocks of the received RREF with no re-canonicalized
    pair and no inverse, one kernel split per block X_i but the last
    and one rank for the last, no distance check, and an answer built
    from the blocks the decode holds with no encode, whichever block has
    the higher rank."""

    @staticmethod
    def tally(monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        real_rank = decoder_module.rank

        def rank_of_blocks(M):
            if isinstance(M.field, PrimeField):
                calls["base rank"] += 1
            return real_rank(M)

        monkeypatch.setattr(decoder_module, "rank", rank_of_blocks)
        monkeypatch.setattr(decoder_module, "_kernel_split", counted(
            "kernel", decoder_module._kernel_split))
        monkeypatch.setattr(SpreadCode, "encode",
                            counted("encode", SpreadCode.encode))
        monkeypatch.setattr(Subspace, "from_generators", classmethod(
            counted("from_generators", Subspace.from_generators.__func__)))
        return calls

    @staticmethod
    def swap_case():
        """A decodable pair whose second block has the higher rank."""
        code = SpreadCode(2, 5, 2)
        rng = trial_rng(6)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(erasures=2, errors=2), code, rng)
        low, high = received.blocks[1], received.blocks[0]
        assert rank(low) < rank(high)
        return code, cw, low, high

    @pytest.mark.parametrize("low_first", [True, False])
    def test_decode_pair_swap(self, monkeypatch, low_first):
        # The first block leads whether or not it has the higher rank,
        # so both orders cost the same calls.
        code, cw, low, high = self.swap_case()
        want = code.encode((cw.point[1], cw.point[0]))
        if not low_first:
            low, high, want = high, low, cw
        calls = self.tally(monkeypatch)
        result = decode_pair(low, high, code)
        assert result.ok and result.codeword == want
        # One RREF for the pair; the answer's block matrix is already in
        # RREF.
        assert calls == collections.Counter(
            {"base rank": 3, "from_generators": 1, "encode": 0})

    def test_decode_two_blocks(self, monkeypatch):
        code, cw, low, high = self.swap_case()
        received = ReceivedSpace(Subspace.from_generators(hstack(high, low)),
                                 code.k)
        calls = self.tally(monkeypatch)
        result = decode(received, code)
        assert result.ok and result.codeword == cw
        # For r = 2 the pair's own rank is the final check: no distance.
        assert calls == collections.Counter(
            {"base rank": 3, "encode": 0})

    @pytest.mark.parametrize("qkr,seed", [((2, 3, 3), 4), ((3, 3, 4), 2)])
    def test_decode_many_blocks(self, monkeypatch, qkr, seed):
        # Every block is above the rank threshold and the first is not
        # the largest, so r - 1 pair steps run on rows of the raw
        # blocks, each followed by one kernel split, the last by one
        # rank instead; none encodes or canonicalizes, and no check
        # against the received space ends.
        code = SpreadCode(*qkr)
        rng = trial_rng(seed)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(erasures=1, errors=1), code, rng)
        ranks = [rank(b) for b in received.blocks]
        assert min(ranks) > (received.dim - 1) / 2 and ranks[0] < max(ranks)
        calls = self.tally(monkeypatch)
        result = decode(received, code)
        assert result.ok and result.codeword == cw
        assert calls == collections.Counter(
            {"base rank": code.r + 1, "kernel": code.r - 2, "encode": 0})

    def test_decode_pivots_in_first_block(self, monkeypatch):
        # Block 0 has full rank, so it holds every pivot of the received
        # RREF and is I: each pair (0, i) takes the membership test
        # first, then the solve and its kernel split, or for the last
        # block its rank.
        code = SpreadCode(3, 3, 4)
        rng = trial_rng(10)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(erasures=1, errors=1), code, rng)
        assert [rank(b) for b in received.blocks] == [3, 3, 3, 3]
        calls = self.tally(monkeypatch)
        membership = []
        real_membership = decoder_module._membership_point

        def recorded(*args):
            membership.append(real_membership(*args))
            return membership[-1]

        monkeypatch.setattr(decoder_module, "_membership_point", recorded)
        result = decode(received, code)
        assert result.ok and result.codeword == cw
        assert calls == collections.Counter(
            {"base rank": 4 + 1, "kernel": 2, "encode": 0})
        assert membership == [None] * 3

    @pytest.mark.parametrize("qkr,dense", [((2, 5, 2), False),
                                           ((3, 5, 2), True)])
    def test_extension_products_only_in_dense_solve(self, monkeypatch, qkr,
                                                    dense):
        # At q = 2 and d >= 5 the pair step reads its points straight
        # off the rows; the dense solve (odd q here) lifts both blocks
        # and multiplies them by S over the extension field.
        code = SpreadCode(*qkr)
        rng = trial_rng(5)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(erasures=2, errors=2), code, rng)
        assert received.dim == 5
        calls = collections.Counter()
        real_matmul, real_lift = Matrix.__matmul__, Matrix.lift

        def matmul(A, B):
            if not isinstance(A.field, PrimeField):
                calls["ext matmul"] += 1
            return real_matmul(A, B)

        def lift(M, ext):
            calls["lift"] += 1
            return real_lift(M, ext)

        monkeypatch.setattr(Matrix, "__matmul__", matmul)
        monkeypatch.setattr(Matrix, "lift", lift)
        result = decode(received, code)
        assert result.ok and result.codeword == cw
        want = {"ext matmul": 2, "lift": 2} if dense else {}
        assert calls == want

    # Every (q, r) of q in {2, 3, 5} and r in {2, 3, 4}, and a packed
    # field; the cells run inside the radius and beyond it.
    ANSWER_CODES = [(2, 5, 2), (2, 4, 3), (2, 3, 4), (3, 3, 2), (3, 3, 3),
                    (3, 2, 4), (5, 2, 2), (5, 2, 3), (5, 2, 4), (2, 17, 2)]

    @staticmethod
    def channel_outputs(code):
        k = code.k
        cells = ([(e, eps) for e in range(k + 1) for eps in range(k)]
                 if k < 10 else [(0, 0), (8, 8), (9, 8), (16, 0)])
        for e, eps in cells:
            for t in range(4 if k < 10 else 1):
                rng = trial_rng(21, e, eps, t)
                cw = random_codeword(code, rng)
                yield e + eps < k, corrupt(cw, ChannelSpec(eps, e), code, rng)

    @pytest.mark.parametrize("qkr", ANSWER_CODES)
    def test_answer_is_the_encoding_of_its_point(self, monkeypatch, qkr):
        # decode builds its codeword from the blocks it holds; that is
        # what encode builds from the decoded point, basis and all.
        code = small_code(qkr)
        hits = []
        real_membership = decoder_module._membership_point

        def recorded(*args):
            mu = real_membership(*args)
            hits.append(mu is not None)
            return mu

        monkeypatch.setattr(decoder_module, "_membership_point", recorded)
        decoded = {True: 0, False: 0}
        for inside, received in self.channel_outputs(code):
            result = decode(received, code)
            if result.ok:
                want = code.encode(result.codeword.point)
                assert result.codeword.point == want.point
                assert (result.codeword.subspace.basis
                        == want.subspace.basis)
                decoded[inside] += 1
        assert decoded[True] and any(hits)

    @pytest.mark.parametrize("qkr", ANSWER_CODES)
    def test_points_are_field_elements(self, qkr):
        # Codeword.point holds field elements, plain ints in 0..q^k-1,
        # whether decode, encode (from digits, too) or the enumeration
        # built it.
        code = small_code(qkr)
        points = [cw.point for cw in itertools.islice(code.codewords(), 50)]
        points.append(code.encode([(1,) * code.k] * code.r).point)
        decoded = [decode(received, code).codeword
                   for _, received in self.channel_outputs(code)]
        points += [cw.point for cw in decoded if cw is not None]
        assert any(decoded)
        assert all(is_element(v, code.q ** code.k)
                   for point in points for v in point)

    @pytest.mark.parametrize("qkr", ANSWER_CODES)
    def test_no_encode_and_one_matrix_rep_per_solved_pair(self, monkeypatch,
                                                         qkr):
        # Per decode: no encode and no normalize_point; one matrix_rep
        # per membership test and at most one per solved pair; the lead
        # block read once per set of rows the pair steps run on, and
        # only when a pair is solved: once for r = 2.
        code = small_code(qkr)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("encode", "normalize_point", "matrix_rep"):
            monkeypatch.setattr(SpreadCode, name,
                                counted(name, getattr(SpreadCode, name)))
        monkeypatch.setattr(decoder_module, "_membership_point", counted(
            "membership", decoder_module._membership_point))
        real_step = decoder_module._pair_step

        def step(code, d, t):
            calls["step"] += 1
            read, solve = real_step(code, d, t)
            return counted("read", read), counted("solve", solve)

        monkeypatch.setattr(decoder_module, "_pair_step", step)
        solved = 0
        for _, received in self.channel_outputs(code):
            calls.clear()
            decode(received, code)
            assert calls["encode"] == calls["normalize_point"] == 0
            assert (calls["matrix_rep"] - calls["membership"]
                    <= calls["solve"])
            assert calls["read"] == calls["solve"] + calls["step"]
            assert (calls["step"] <= calls["solve"] if code.r > 2
                    else calls["step"] == calls["solve"] <= 1)
            assert calls["solve"] > 0 or not calls["step"]
            solved += calls["solve"]
        assert solved

    def test_code_blocks_are_built_once(self, monkeypatch):
        # The code holds its k x k identity and zero blocks from
        # construction: no decode and no membership test, of the
        # received space or of the answer, builds another.
        cases = [(small_code(qkr), received) for qkr in self.ANSWER_CODES
                 for _, received in self.channel_outputs(small_code(qkr))]
        built = collections.Counter()
        for name in ("identity", "zeros"):
            real = getattr(Matrix, name).__func__

            def counted(cls, *args, name=name, real=real):
                built[name] += 1
                return real(cls, *args)

            monkeypatch.setattr(Matrix, name, classmethod(counted))
        decoded = 0
        for code, received in cases:
            result = decode(received, code)
            code.is_codeword(received.subspace)
            if result.ok:
                assert code.is_codeword(result.codeword.subspace)
                decoded += 1
        assert decoded and not built

    def test_paper_path_unused(self, monkeypatch):
        # Neither construction nor decode reaches the pencil search, the
        # closed form, the eigenbasis change or any matrix inverse, on
        # every cell inside the radius and beyond it, at every
        # dimension the channel makes.
        def forbidden(*args, **kwargs):
            raise AssertionError("the paper's pencil path was called")

        for module in (decoder_module, spread_module, linalg_module):
            for name in ("pair_support", "candidate_roots", "_pencil_point",
                         "_nonsingular_core", "disjoint_pivot_tuples",
                         "inverse", "minor"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(SpreadCode, "conjugate", forbidden)
        monkeypatch.setattr(AffinePencil, "at", forbidden)
        for qkr in [(2, 4, 2), (3, 3, 2), (2, 3, 3), (3, 3, 4), (5, 2, 2)]:
            code = SpreadCode(*qkr)
            k = code.k
            for e in range(k + 1):
                for eps in range(k):
                    rng = trial_rng(3, e, eps)
                    cw = random_codeword(code, rng)
                    received = corrupt(cw, ChannelSpec(eps, e), code, rng)
                    result = decode(received, code)
                    if e + eps < k:
                        assert result.ok and result.codeword == cw


class TestEntriesCheckedOnce:
    """Only a caller's matrix has its entries checked.  decode, corrupt
    and simulate build every matrix from checked ones, so none of them
    calls the checking constructor ``Matrix.__init__``."""

    @staticmethod
    def checked(monkeypatch):
        calls = []
        real_init = Matrix.__init__

        def init(self, field, rows):
            calls.append(field)
            real_init(self, field, rows)

        monkeypatch.setattr(Matrix, "__init__", init)
        return calls

    @pytest.mark.parametrize("qkr,cells", [
        ((2, 9, 2), [(0, 0), (4, 4), (3, 4), (5, 5)]),
        ((3, 5, 4), [(0, 0), (1, 2), (2, 2), (0, 1), (3, 3), (3, 2)])])
    def test_decode_corrupt_simulate(self, monkeypatch, qkr, cells):
        code = SpreadCode(*qkr)
        inputs = []
        for e, eps in cells:
            rng = trial_rng(3, e, eps)
            cw = random_codeword(code, rng)
            spec = ChannelSpec(erasures=eps, errors=e)
            inputs.append((cw, corrupt(cw, spec, code, rng)))
        calls = self.checked(monkeypatch)
        results = [decode(received, code) for _, received in inputs]
        rng = trial_rng(4)
        corrupt(random_codeword(code, rng), ChannelSpec(1, 1), code, rng)
        simulate(code, 1, cells, seed=5)
        assert calls == []
        assert any(r.ok and r.codeword == cw
                   for r, (cw, _) in zip(results, inputs))
        # The wrapper does see a caller's matrix.
        Matrix(code.base, [[1]])
        assert calls == [code.base]


class TestHeldValuesReadUnchecked:
    """What the package already holds is read unchecked.  A decode, a
    ``corrupt``, a ``simulate`` trial and a CLI ``decode`` request read
    no row of digits through the checked ``ExtField.element`` and build
    no matrix through the checking ``Matrix.__init__``; both still
    check what a caller passes."""

    @staticmethod
    def checked(monkeypatch):
        calls = []
        real_init, real_element = Matrix.__init__, ExtField.element

        def init(self, field, rows):
            calls.append(("Matrix", field))
            real_init(self, field, rows)

        def element(self, value):
            if not isinstance(value, int):     # the digit-sequence form
                calls.append(("element", value))
            return real_element(self, value)

        monkeypatch.setattr(Matrix, "__init__", init)
        monkeypatch.setattr(ExtField, "element", element)
        return calls

    # The benchmark workloads' cells.
    @pytest.mark.parametrize("qkr,cells", [
        ((2, 9, 2), [(0, 0), (4, 4), (3, 4), (5, 5)]),
        ((2, 24, 2), [(10, 11), (1, 1)]),
        ((3, 5, 4), [(0, 0), (1, 2), (2, 2), (0, 1), (3, 3), (3, 2)])])
    def test_decode_corrupt_simulate(self, monkeypatch, qkr, cells):
        code = small_code(qkr)
        inputs = []
        for e, eps in cells:
            for t in range(2):
                rng = trial_rng(6, e, eps, t)
                cw = random_codeword(code, rng)
                inputs.append((cw, corrupt(cw, ChannelSpec(eps, e), code,
                                           rng)))
        calls = self.checked(monkeypatch)
        results = [decode(received, code) for _, received in inputs]
        rng = trial_rng(7)
        corrupt(random_codeword(code, rng), ChannelSpec(1, 1), code, rng)
        if code.k <= 9:
            simulate(code, 1, cells, seed=8)
        assert calls == []
        assert any(r.ok and r.codeword == cw
                   for r, (cw, _) in zip(results, inputs))
        # The wrappers do see a caller's values.
        code.ext.element((1, 1))
        Matrix(code.base, [[1]])
        assert calls == [("element", (1, 1)), ("Matrix", code.base)]

    def test_cli_decode_request(self, monkeypatch, tmp_path):
        code = small_code((3, 5, 4))
        rng = trial_rng(9, 1, 2)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(2, 1), code, rng)
        infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
        infile.write_text(format_subspace(code, received.subspace))
        calls = self.checked(monkeypatch)
        status = cli_main(["decode", "--q", "3", "--k", "5", "--r", "4",
                           "--in", str(infile), "--out", str(outfile)])
        assert status == 0 and calls == []
        assert outfile.read_text() == format_subspace(code, cw.subspace)


class TestReceivedSpaceContract:
    @pytest.mark.parametrize("k", [0, -2])
    def test_block_size_below_one(self, k):
        # At k = 0 the ambient check divided by zero; k = -2 was taken.
        sub = Subspace.from_generators(Matrix(PrimeField(2), [[1, 0]]))
        with pytest.raises(ValueError, match="block size"):
            ReceivedSpace(sub, k)

    @staticmethod
    def forbid_pair_steps(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a pair step ran")

        for name in ("_membership_point", "_pair_step",
                     "_interpolated_point", "_dense_point"):
            monkeypatch.setattr(decoder_module, name, forbidden)

    @pytest.mark.parametrize("d", [5, 3])    # interpolation, dense solve
    def test_space_over_the_wrong_field(self, monkeypatch, d):
        code = small_code((2, 5, 2))
        F3 = PrimeField(3)
        rnd = random.Random(d)
        for _ in range(10):
            sub = Subspace.from_generators(random_matrix(rnd, F3, d, 10))
            received = ReceivedSpace(sub, 5)
            if (sub.dim == d and any(2 in row for row in sub.basis.data)
                    and all(2 * rank(b) > d - 1 for b in received.blocks)):
                break
        else:
            pytest.fail("no full-rank F_3 sample")
        self.forbid_pair_steps(monkeypatch)
        with pytest.raises(ValueError, match="^received space does not "
                                             "match the code layout$"):
            decode(received, code)

    def test_low_rank_blocks_over_the_wrong_field(self, monkeypatch):
        # Every block has rank 1 at d = 3, so no pair step would run: the
        # space was answered "no codeword within distance".
        code = small_code((2, 3, 3))
        rows = [[0] * 9 for _ in range(3)]
        for i in range(3):
            rows[i][3 * i] = 1
        received = ReceivedSpace(
            Subspace.from_generators(Matrix(PrimeField(3), rows)), 3)
        self.forbid_pair_steps(monkeypatch)
        with pytest.raises(ValueError, match="^received space does not "
                                             "match the code layout$"):
            decode(received, code)
