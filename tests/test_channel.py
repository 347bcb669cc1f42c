import hashlib

import pytest

from spreadcodes.channel import (ChannelSpec, SimRecord, _accepts, _draw,
                                 corrupt, random_codeword, simulate,
                                 trial_rng)
from spreadcodes.decoder import decode
from spreadcodes.gf import PrimeField
from spreadcodes.linalg import Matrix, vstack
from spreadcodes.spread import SpreadCode, Subspace, subspace_distance


@pytest.fixture(scope="module")
def code():
    return SpreadCode(2, 3, 2)


class TestCorrupt:
    @pytest.mark.parametrize("e,eps", [(0, 0), (0, 1), (0, 2), (1, 1),
                                       (1, 2), (2, 2), (1, 3), (2, 1)])
    def test_distance_is_exact(self, code, e, eps):
        for t in range(25):
            rng = trial_rng(7, e, eps, t)
            cw = random_codeword(code, rng)
            received = corrupt(cw, ChannelSpec(eps, e), code, rng)
            assert received.dim == code.k - eps + e
            assert subspace_distance(received.subspace,
                                     cw.subspace) == e + eps

    def test_clean_channel_returns_the_codeword(self, code):
        rng = trial_rng(1)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(0, 0), code, rng)
        assert received.subspace == cw.subspace

    def test_single_erasure_shape(self, code):
        rng = trial_rng(2)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(1, 0), code, rng)
        assert received.dim == code.k - 1
        assert subspace_distance(received.subspace, cw.subspace) == 1

    def test_recovery_inside_unique_radius(self, code):
        for e, eps in [(0, 1), (0, 2), (1, 1)]:
            for t in range(30):
                rng = trial_rng(13, e, eps, t)
                cw = random_codeword(code, rng)
                received = corrupt(cw, ChannelSpec(eps, e), code, rng)
                result = decode(received, code)
                assert result.ok and result.codeword == cw

    def test_impossible_specs_rejected(self, code):
        # Counts are ints, not bools, in range: nothing is coerced.
        cw = code.encode((1, 0))
        rng = trial_rng(0)
        for erasures, errors, what in [
                (4, 0, "4"), (0, 4, "4"), (3, 0, "empty"),
                (True, 1, "True"), (0, 1.0, "1.0"), (1.7, 0, "1.7"),
                ("2", 0, "'2'"), (0, 2.5, "2.5")]:
            with pytest.raises(ValueError, match=what):
                corrupt(cw, ChannelSpec(erasures, errors), code, rng)

    def test_deterministic_under_fixed_seed(self, code):
        outs = []
        for _ in range(2):
            rng = trial_rng(21, 1, 1, 0)
            cw = random_codeword(code, rng)
            outs.append(corrupt(cw, ChannelSpec(1, 1), code, rng))
        assert outs[0].subspace == outs[1].subspace


def _state(rng):
    s = rng.bit_generator.state
    return (s["state"]["state"], s["state"]["inc"], s["has_uint32"],
            s["uinteger"])


# Cells inside and beyond the radius, and with no kept dimension.
PIN_CELLS = {
    (2, 9, 2): [(0, 0), (4, 4), (3, 4), (5, 5), (0, 8), (9, 0), (9, 9)],
    (3, 5, 4): [(0, 0), (1, 2), (3, 3), (0, 4), (15, 0), (15, 5)],
    (2, 24, 2): [(0, 0), (11, 12), (24, 0), (24, 24)],
    (5, 2, 3): [(0, 0), (0, 1), (1, 1), (1, 2), (4, 0), (4, 2)],
    (7, 3, 2): [(0, 0), (1, 1), (0, 2), (2, 0), (3, 1), (3, 3)],
}

# sha256 over PIN_CELLS of each sent point, received basis and generator
# state after each call, for trials 0..2 under master seed 11, as the
# channel drew them with one numpy call per matrix and per coordinate.
PIN_DIGEST = ("fbde0d0eea40faf2303103ce7323b779"
              "b4fa3a481ee6ee90bd3e885918d86ac5")


class TestStream:
    def test_draws_and_states_are_pinned(self):
        h = hashlib.sha256()
        for qkr, cells in PIN_CELLS.items():
            code = SpreadCode(*qkr)
            for e, eps in cells:
                for t in range(3):
                    rng = trial_rng(11, e, eps, t)
                    cw = random_codeword(code, rng)
                    h.update(repr((qkr, e, eps, t, cw.point,
                                   _state(rng))).encode())
                    received = corrupt(cw, ChannelSpec(eps, e), code, rng)
                    h.update(repr((received.subspace.basis.data,
                                   _state(rng))).encode())
        assert h.hexdigest() == PIN_DIGEST

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 65521])
    def test_one_draw_equals_one_call_per_shape(self, q):
        # The matrices of one call per shape, and the generator left
        # where those calls leave it.
        field = PrimeField(q)
        shapes = ((3, 5), (0, 4), (2, 11))
        for seed in range(4):
            rng, ref = trial_rng(seed), trial_rng(seed)
            got = _draw(rng, field, *shapes)
            for (nrows, ncols), M in zip(shapes, got):
                want = ref.integers(0, q, size=(nrows, ncols)).tolist()
                assert (M.nrows, M.ncols) == (nrows, ncols)
                assert [list(row) for row in M.data] == want
            assert _state(rng) == _state(ref)


class TestRankTest:
    @pytest.mark.parametrize("qkr", [(2, 3, 3), (3, 3, 2), (5, 2, 3)])
    def test_accepts_exactly_when_the_space_hits_the_target(self, qkr):
        # Every cell, raw draws rejected ones included: the rank test
        # agrees with building R and measuring it.
        code = SpreadCode(*qkr)
        k, n = code.k, code.n
        seen = set()
        for e in range(n - k + 1):
            for eps in range(k + 1):
                keep = k - eps
                if keep + e < 1:
                    continue
                for t in range(12):
                    rng = trial_rng(5, e, eps, t)
                    cw = random_codeword(code, rng)
                    B = cw.subspace.basis
                    H = Matrix._of_rows(code.base, rng.integers(
                        0, code.q, size=(keep, k)).tolist(), k)
                    E = Matrix._of_rows(code.base, rng.integers(
                        0, code.q, size=(e, n)).tolist(), n)
                    R = Subspace.from_generators(vstack(H @ B, E))
                    hit = (R.dim == keep + e and subspace_distance(
                        R, cw.subspace) == e + eps)
                    assert _accepts(B, H, E) == hit, (e, eps, t)
                    seen.add(hit)
        assert seen == {True, False}


class TestSimulate:
    def test_records_are_deterministic_and_sorted(self, code):
        a = simulate(code, 25, [(1, 1), (0, 1)], seed=3)
        b = simulate(code, 25, [(0, 1), (1, 1)], seed=3)
        assert a == b
        assert [(r.errors, r.erasures) for r in a] == [(0, 1), (1, 1)]

    def test_perfect_recovery_inside_radius(self, code):
        for rec in simulate(code, 40, [(0, 0), (0, 1), (0, 2), (1, 1)],
                            seed=5):
            assert rec.successes == rec.trials and rec.failures == 0

    def test_membership_accept_is_cheap(self, code):
        clean = simulate(code, 20, [(0, 0)], seed=9)[0]
        noisy = simulate(code, 20, [(1, 1)], seed=9)[0]
        assert clean.mean_ops < noisy.mean_ops

    def test_line_format(self):
        rec = SimRecord(1, 2, 10, 7, 3, 41.5, 60)
        assert rec.line() == "1 2 10 7 3 41.50 60"

    def test_trial_reproducible_in_isolation(self, code):
        records = simulate(code, 5, [(1, 1)], seed=77)
        # rebuild trial 3 from its documented spawn key
        rng = trial_rng(77, 1, 1, 3)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(1, 1), code, rng)
        result = decode(received, code)
        assert result.ok and result.codeword == cw
        assert records[0].successes == 5

    def test_input_validation(self, code):
        # Every count is checked before any cell runs or the cells sort.
        for trials, cells, what in [
                (0, [(0, 0)], "0"), (2.5, [(0, 0)], "2.5"),
                (True, [(0, 0)], "True"), (2, [(1.7, 0)], "1.7"),
                (2, [("2", True)], "'2'"), (2, [(2, True)], "True"),
                (2, [(0, 0), (0, 2.5)], "2.5"), (2, [(0, 0), (4, 0)], "4"),
                (2, [(0, 0), (0, 3)], "empty")]:
            with pytest.raises(ValueError, match=what):
                simulate(code, trials, cells)

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    def test_seed_must_be_a_plain_int(self, code, seed, monkeypatch):
        # Refused by trial_rng with a ValueError that names the seed, and
        # so by simulate before any trial draws a codeword.
        draws = []
        monkeypatch.setattr("spreadcodes.channel.random_codeword",
                            lambda *args: draws.append(args))
        with pytest.raises(ValueError, match=f"seed .*{seed!r}"):
            trial_rng(seed, 0, 0, 0)
        with pytest.raises(ValueError, match=f"seed .*{seed!r}"):
            simulate(code, 1, [(0, 0)], seed=seed)
        assert draws == []

    def test_large_int_seed_is_taken(self, code):
        assert simulate(code, 2, [(0, 0)], seed=1 << 80)[0].successes == 2
