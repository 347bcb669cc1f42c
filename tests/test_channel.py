import pytest

from spreadcodes.channel import (ChannelSpec, SimRecord, corrupt,
                                 random_codeword, simulate, trial_rng)
from spreadcodes.decoder import decode
from spreadcodes.spread import SpreadCode, subspace_distance


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
