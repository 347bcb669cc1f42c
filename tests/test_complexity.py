"""Cost gates: the paper's O((n - k) k^3) claim as exact scaling tests.

OpCount figures are deterministic, so the decoder's cost can be held to
a closed form in the received dimension d rather than to a timing.  Per
solved pair, ``ext_total / (r - 1)``, the worst of a few seeded inputs
at distance k - 1 and just beyond the radius must stay within

* d^2 + C2*d for q = 2 (Koetter interpolation, about d^2 ext ops);
* d^3/3 + C3*d^2 for q = 3 (the dense Welch-Berlekamp solve);
* 2d^3/3 + C5*d^2 for q = 5, where the same solve charges about twice
  as much: the Moore rows ``R.lift(ext) @ S`` charge a product for
  every digit other than 0 and +-1.

For q = 3 the dense solve reads only the s = 2t + 1 rows it needs, so
per solved pair it must also stay within s^3/3 + C3S*s^2.  At odd d,
s = d; at even d, s = d - 1, and the cells at distance k - 2 give every
code of the q = 3 grid inputs of both parities inside the radius.

The whole decode must also stay within one such pair step plus CB ext
ops for each of the r - 2 blocks after the first pair.  At distance
k - 1 the channel's e errors fill the radius t = (d-1)/2, and the first
pair's X = R_j M - R_i generally shows all of them, so each later block
runs the pair step at t' = 0 on the rows the blocks before it proved
clean: at most one division, two ext ops.  Beyond the radius the rank
test ends the decode early.

Building a code charges only its diagonalizer S: k^3 (k - 1) base
multiplications, no extension-field op and no inversion.  A kernel
change that raises a cost has to raise a bound here, in the open.
"""

import pytest

from spreadcodes import OpCount, SpreadCode, decode
from spreadcodes.channel import ChannelSpec, corrupt, random_codeword, trial_rng

SEED = 7
INPUTS = 4

# Measured worst c, rounded up: 4.984 at (2, 64, 2), d = 63; 0.573 at
# (3, 6, 2) and (3, 6, 4), d = 5; 1.222 at (5, 4, 2), d = 3.
C2 = 5.0
C3 = 0.6
C5 = 1.3
# Measured worst c of the law in s, rounded up: 0.667 at (3, 6, 2),
# d = 4, s = 3 (15 ext ops).  A dense solve on all d rows read 1.667
# there, and up to 1.116 at (3, 18, 2), d = 16.
C3S = 0.7
# Measured worst ext ops per block beyond one pair step, rounded up:
# 1.95 at (3, 5, 16), d = 5; 1.93 at (2, 8, 16) and (2, 8, 32), d = 7.
CB = 2.0

# (5, k, 2) runs on exp/log tables for k <= 6 and packed at k = 7.  The
# r >= 16 codes are the paper's regime, k small against n = rk.
DECODE_GRID = ([(2, k, 2) for k in (8, 16, 24, 32, 48, 64)] + [(2, 16, 4)]
               + [(2, 8, 16), (2, 8, 32)]
               + [(3, k, 2) for k in (6, 9, 12, 15, 18)] + [(3, 6, 4)]
               + [(3, 5, 16)]
               + [(5, k, 2) for k in (4, 5, 6, 7)])

BUILD_GRID = ([(2, k, 2) for k in (8, 16, 24, 32)]
              + [(3, k, 2) for k in (6, 12, 18)])


def cells(k):
    """(errors, erasures): two splits of distance k - 1, inside the
    radius, and one of distance k, beyond it."""
    h = k // 2
    return [(k - 1 - h, h), (h, k - 1 - h), (k - h, h)]


def cells_both_parities(k):
    """:func:`cells` and two splits of distance k - 2, inside the
    radius, whose d has the other parity than at distance k - 1."""
    h = k // 2
    return cells(k) + [(k - 2 - h, h), (k - 1 - h, h - 1)]


def bound(q, d):
    if q == 2:
        return d * d + C2 * d
    if q == 3:
        return d ** 3 / 3 + C3 * d * d
    return 2 * d ** 3 / 3 + C5 * d * d


def decodes(code, cells_of=cells):
    """(cell, input, d, ext ops) of each seeded input's decode, which
    must return the sent codeword inside the radius."""
    k = code.k
    for e, eps in cells_of(k):
        for i in range(INPUTS):
            rng = trial_rng(SEED, e, eps, i)
            cw = random_codeword(code, rng)
            received = corrupt(cw, ChannelSpec(eps, e), code, rng)
            with OpCount() as c:
                result = decode(received, code)
            if e + eps < k:
                assert result.ok and result.codeword == cw
            yield (e, eps), i, received.dim, c.ext_total


@pytest.mark.parametrize("qkr", DECODE_GRID, ids=str)
def test_ext_ops_per_pair_step(qkr):
    q, k, r = qkr
    for cell, i, d, ops in decodes(SpreadCode(*qkr)):
        assert ops / (r - 1) <= bound(q, d), (
            f"cell {cell} input {i}: {ops} ext ops at d = {d}")


@pytest.mark.parametrize("qkr", [c for c in DECODE_GRID if c[0] == 3],
                         ids=str)
def test_ext_ops_per_pair_step_in_solved_rows(qkr):
    r = qkr[2]
    for cell, i, d, ops in decodes(SpreadCode(*qkr), cells_both_parities):
        s = 2 * ((d - 1) // 2) + 1
        assert ops / (r - 1) <= s ** 3 / 3 + C3S * s * s, (
            f"cell {cell} input {i}: {ops} ext ops at d = {d}, s = {s}")


@pytest.mark.parametrize("qkr", DECODE_GRID, ids=str)
def test_ext_ops_one_pair_step_plus_blocks(qkr):
    q, k, r = qkr
    for cell, i, d, ops in decodes(SpreadCode(*qkr)):
        assert ops <= bound(q, d) + CB * (r - 2), (
            f"cell {cell} input {i}: {ops} ext ops at d = {d}, r = {r}")


@pytest.mark.parametrize("qkr", BUILD_GRID, ids=str)
def test_build_charges_only_the_diagonalizer(qkr):
    k = qkr[1]
    with OpCount() as c:
        SpreadCode(*qkr)
    assert (c.ext_mul, c.ext_inv, c.base_inv) == (0, 0, 0)
    assert c.base_mul <= k ** 3 * (k - 1)
