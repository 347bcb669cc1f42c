import pytest

from spreadcodes.channel import ChannelSpec, corrupt, trial_rng
from spreadcodes.decoder import ReceivedSpace
from spreadcodes.oracle import brute_force_decode
from spreadcodes.spread import SpreadCode

from paper_reference import mu_characterization


@pytest.fixture(scope="module")
def code22():
    return SpreadCode(2, 2, 2)


def test_codeword_is_its_own_nearest(code22):
    cw = code22.encode((code22.ext.one, code22.alpha))
    best, nearest = brute_force_decode(ReceivedSpace(cw.subspace, 2), code22)
    assert best == 0 and nearest == [cw]


def test_distance_one_neighborhood(code22):
    cw = code22.encode((code22.ext.one, code22.alpha))
    rng = trial_rng(3)
    received = corrupt(cw, ChannelSpec(erasures=1, errors=0), code22, rng)
    best, nearest = brute_force_decode(received, code22)
    assert best == 1 and nearest == [cw]


def test_equidistant_spaces_list_everything(code22):
    # planes that are not codewords sit at distance two from several
    # codewords at once, and the decoder refuses them
    from spreadcodes.decoder import decode
    from props import all_subspaces
    found = 0
    for sub in all_subspaces(2, 4, [2]):
        best, nearest = brute_force_decode(ReceivedSpace(sub, 2), code22)
        if best >= 2:
            assert len(nearest) >= 2
            assert not decode(ReceivedSpace(sub, 2), code22).ok
            found += 1
    assert found > 0


def test_brute_force_guard():
    big = SpreadCode(2, 5, 5)
    assert big.size > 10 ** 6
    cw_sub = big.encode((1, 0, 0, 0, 0)).subspace
    with pytest.raises(ValueError):
        brute_force_decode(ReceivedSpace(cw_sub, 5), big)


def test_mu_guard():
    big = SpreadCode(5, 8, 2)
    assert big.q ** big.k > 2 ** 16
    I = __import__("spreadcodes").Matrix.identity(big.base, 8)
    with pytest.raises(ValueError):
        mu_characterization(I, I, big)


def test_mu_of_intact_generator_codeword(code22):
    cw = code22.encode((code22.ext.one, code22.alpha))
    blocks = ReceivedSpace(cw.subspace, 2).blocks
    assert mu_characterization(blocks[0], blocks[1], code22) == [code22.alpha]
