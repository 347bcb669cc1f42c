"""Op-count regression gate.

OpCount figures are deterministic, so they can gate regressions where
wall time cannot.  For a fixed seeded grid of codes and channel cells,
inside the decoding radius k-1 and beyond it, this pins the per-cell
decode counts (all four OpCount fields, summed over the trials) and the
``SimRecord.line()`` output, as measured with the single elimination
kernel in ``linalg`` and the pair decoder that reuses the block ranks
and the pair RREF of ``decode``.  No count may rise.  Success and
failure tallies must not change at all; they are the ones first pinned
on the digit-tuple element implementation (commit 67d2df8).
"""

import pytest

from spreadcodes import OpCount, SpreadCode, decode, simulate
from spreadcodes.channel import ChannelSpec, corrupt, random_codeword, trial_rng

SEED = 7
TRIALS = 6

# (q, k, r) -> {(errors, erasures): (ext_mul, ext_inv, base_mul, base_inv)}
PINNED_COUNTS = {
    (2, 5, 2): {(0, 0): (0, 0, 306, 0), (2, 2): (1253, 41, 887, 0),
                (1, 3): (1001, 43, 884, 0), (2, 3): (1300, 33, 0, 0),
                (3, 3): (1588, 63, 763, 0)},
    (3, 3, 2): {(0, 0): (0, 0, 260, 2), (1, 1): (330, 21, 423, 8),
                (0, 2): (108, 12, 217, 3), (1, 2): (233, 15, 6, 1),
                (2, 2): (353, 21, 343, 5)},
    (2, 3, 3): {(0, 0): (0, 0, 352, 0), (1, 1): (547, 31, 601, 0),
                (0, 2): (197, 20, 415, 0), (1, 2): (197, 13, 0, 0),
                (2, 2): (424, 27, 401, 0)},
}

PINNED_LINES = {
    (2, 5, 2): ["0 0 6 6 0 0.00 0", "1 3 6 6 0 174.00 192",
                "2 2 6 6 0 215.67 293", "2 3 6 0 6 222.17 242",
                "3 3 6 0 6 275.17 317"],
    (3, 3, 2): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 20.00 23",
                "1 1 6 6 0 58.50 73", "1 2 6 0 6 41.33 49",
                "2 2 6 0 6 62.33 70"],
    (2, 3, 3): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 36.17 46",
                "1 1 6 6 0 96.33 116", "1 2 6 0 6 35.00 50",
                "2 2 6 0 6 75.17 119"],
}


@pytest.mark.parametrize("qkr", sorted(PINNED_COUNTS))
def test_decode_counts_do_not_rise(qkr):
    code = SpreadCode(*qkr)
    for (e, eps), pinned in PINNED_COUNTS[qkr].items():
        totals = [0, 0, 0, 0]
        for t in range(TRIALS):
            rng = trial_rng(SEED, e, eps, t)
            cw = random_codeword(code, rng)
            received = corrupt(cw, ChannelSpec(eps, e), code, rng)
            with OpCount() as c:
                decode(received, code)
            for i, n in enumerate((c.ext_mul, c.ext_inv, c.base_mul,
                                   c.base_inv)):
                totals[i] += n
        assert all(now <= then for now, then in zip(totals, pinned)), (
            f"cell {(e, eps)}: {tuple(totals)} exceeds {pinned}")


@pytest.mark.parametrize("qkr", sorted(PINNED_LINES))
def test_simulate_records_do_not_rise(qkr):
    cells = list(PINNED_COUNTS[qkr])
    records = simulate(SpreadCode(*qkr), TRIALS, cells, seed=SEED)
    assert len(records) == len(PINNED_LINES[qkr])
    for rec, pinned in zip(records, PINNED_LINES[qkr]):
        now, then = rec.line().split(), pinned.split()
        assert now[:5] == then[:5]
        assert float(now[5]) <= float(then[5]) and int(now[6]) <= int(then[6])
