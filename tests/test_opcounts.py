"""Op-count regression gate.

OpCount figures are deterministic, so they can gate regressions where
wall time cannot.  For a fixed seeded grid of codes and channel cells,
inside the decoding radius k-1 and beyond it, this pins the per-cell
decode counts (all four OpCount fields, summed over the trials) and the
``SimRecord.line()`` output, as measured with the row kernel ``axpy``
behind elimination (the back pass of ``rref`` included) and matrix
products, which charges nothing for a product by 0 or +-1,
``matrix_rep`` built row by row, an ``encode`` that does not re-reduce
its block matrix, pencil evaluation that charges nothing for a
coefficient 0 or +-1, and one encode plus distance check per decode.
(3, 3, 4) gives the multi-pair loop of an odd-q code a gate.  The
same four counts are pinned for building each code.  No count may rise.  Success and failure tallies must not change at all; for the
three other codes they are the ones first pinned on the digit-tuple
element implementation (commit 67d2df8).
"""

import pytest

from spreadcodes import OpCount, SpreadCode, decode, simulate
from spreadcodes.channel import ChannelSpec, corrupt, random_codeword, trial_rng

SEED = 7
TRIALS = 6

# (q, k, r) -> {(errors, erasures): (ext_mul, ext_inv, base_mul, base_inv)}
PINNED_COUNTS = {
    (2, 5, 2): {(0, 0): (0, 0, 0, 0), (2, 2): (783, 41, 550, 0),
                (1, 3): (544, 43, 750, 0), (2, 3): (710, 33, 0, 0),
                (3, 3): (856, 63, 725, 0)},
    (3, 3, 2): {(0, 0): (0, 0, 3, 2), (1, 1): (166, 21, 127, 8),
                (0, 2): (48, 12, 111, 3), (1, 2): (100, 15, 1, 1),
                (2, 2): (160, 21, 104, 5)},
    (2, 3, 3): {(0, 0): (0, 0, 0, 0), (1, 1): (276, 31, 207, 0),
                (0, 2): (74, 20, 198, 0), (1, 2): (76, 13, 0, 0),
                (2, 2): (201, 27, 189, 0)},
    (3, 3, 4): {(0, 0): (0, 0, 10, 8), (1, 1): (478, 51, 339, 12),
                (0, 2): (136, 34, 311, 5), (1, 2): (70, 13, 3, 3),
                (2, 2): (204, 28, 164, 7)},
}

PINNED_LINES = {
    (2, 5, 2): ["0 0 6 6 0 0.00 0", "1 3 6 6 0 97.83 106",
                "2 2 6 6 0 137.33 180", "2 3 6 0 6 123.83 141",
                "3 3 6 0 6 153.17 182"],
    (3, 3, 2): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 10.00 10",
                "1 1 6 6 0 31.17 32", "1 2 6 0 6 19.17 24",
                "2 2 6 0 6 30.17 33"],
    (2, 3, 3): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 15.67 20",
                "1 1 6 6 0 51.17 63", "1 2 6 0 6 14.83 24",
                "2 2 6 0 6 38.00 60"],
    (3, 3, 4): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 28.33 30",
                "1 1 6 6 0 88.17 93", "1 2 6 0 6 13.83 19",
                "2 2 6 0 6 38.67 91"],
}

# (q, k, r) -> OpCount fields of SpreadCode(q, k, r), measured with a
# constructor that builds the diagonalizer S and its inverse and checks
# neither (tests/test_spread.py does).  (3, 5, 4) is the code that
# one-shot CLI requests at q = 3, k = 5 rebuild on every call.
PINNED_BUILD_COUNTS = {
    (2, 5, 2): (106, 4, 500, 0),
    (3, 3, 2): (10, 2, 54, 0),
    (2, 3, 3): (19, 2, 54, 0),
    (3, 3, 4): (10, 2, 54, 0),
    (3, 5, 4): (106, 4, 500, 0),
}


@pytest.mark.parametrize("qkr", sorted(PINNED_BUILD_COUNTS))
def test_build_counts_do_not_rise(qkr):
    with OpCount() as c:
        SpreadCode(*qkr)
    now = (c.ext_mul, c.ext_inv, c.base_mul, c.base_inv)
    pinned = PINNED_BUILD_COUNTS[qkr]
    assert all(a <= b for a, b in zip(now, pinned)), (
        f"{now} exceeds {pinned}")


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
