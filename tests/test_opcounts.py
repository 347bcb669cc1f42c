"""Op-count regression gate.

OpCount figures are deterministic, so they can gate regressions where
wall time cannot.  For a fixed seeded grid of codes and channel cells,
inside the decoding radius k-1 and beyond it, this pins the per-cell
decode counts (all four OpCount fields, summed over the trials) and the
``SimRecord.line()`` output, as measured on the digit-tuple element
implementation (commit 67d2df8).  No count may rise.  Success and
failure tallies must not change at all.
"""

import pytest

from spreadcodes import OpCount, SpreadCode, decode, simulate
from spreadcodes.channel import ChannelSpec, corrupt, random_codeword, trial_rng

SEED = 7
TRIALS = 6

# (q, k, r) -> {(errors, erasures): (ext_mul, ext_inv, base_mul, base_inv)}
PINNED_COUNTS = {
    (2, 5, 2): {(0, 0): (0, 0, 412, 0), (2, 2): (1651, 41, 1414, 0),
                (1, 3): (1283, 43, 1116, 0), (2, 3): (1882, 33, 154, 0),
                (3, 3): (2523, 63, 775, 0)},
    (3, 3, 2): {(0, 0): (0, 0, 558, 6), (1, 1): (395, 21, 1046, 21),
                (0, 2): (126, 12, 382, 6), (1, 2): (303, 15, 36, 3),
                (2, 2): (419, 21, 790, 15)},
    (2, 3, 3): {(0, 0): (87, 2, 487, 0), (1, 1): (634, 31, 717, 0),
                (0, 2): (226, 20, 415, 0), (1, 2): (261, 13, 0, 0),
                (2, 2): (558, 27, 616, 0)},
}

PINNED_LINES = {
    (2, 5, 2): ["0 0 6 6 0 0.00 0", "1 3 6 6 0 221.00 239",
                "2 2 6 6 0 282.00 465", "2 3 6 0 6 319.17 340",
                "3 3 6 0 6 431.00 503"],
    (3, 3, 2): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 23.00 26",
                "1 1 6 6 0 69.33 113", "1 2 6 0 6 53.00 62",
                "2 2 6 0 6 73.33 110"],
    (2, 3, 3): ["0 0 6 6 0 14.83 89", "0 2 6 6 0 41.00 52",
                "1 1 6 6 0 110.83 126", "1 2 6 0 6 45.67 59",
                "2 2 6 0 6 97.50 191"],
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
