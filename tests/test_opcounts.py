"""Op-count regression gate.

OpCount figures are deterministic, so they can gate regressions where
wall time cannot.  For a fixed seeded grid of codes and channel cells,
inside the decoding radius k-1 and beyond it, this pins the per-cell
decode counts (all four OpCount fields, summed over the trials) and the
``SimRecord.line()`` output, as measured with the rank-metric pair
step on the raw received blocks (Koetter interpolation for q = 2 and 5
or more rows, one division at t = 0 on more than two rows, the dense
Welch-Berlekamp solve otherwise, which for q <= 3 and t >= 1 reads only
the first 2t + 1 rows and skips the division for a zero right-hand
side), an F_q rank of the last block R_j M(mu) - R_i, the row kernel
``axpy`` behind elimination (the back pass of ``rref`` included) and
matrix products, which charges nothing for a product by 0 or +-1,
elimination that inverts no pivot of +-1, ``matrix_rep`` built row by
row, an ``encode`` that does not re-reduce its block matrix, and a
decoded codeword assembled from the blocks the decode already holds.
For r > 2 each pair step after the first runs
on the rows that the blocks before it proved clean, at t - rho for
their stacked rank rho, found by one elimination per block that sets
the columns of the block it reads to zero, so that its row updates
multiply only in the lead block and the blocks still to be read, and no
distance check runs: for every r that rank, taken on all the rows, is
the acceptance test.
(3, 3, 4) gives the multi-pair loop of an odd-q code a gate, (2, 8, 8)
a code of many blocks, and (5, 2, 3) and (5, 3, 2) the q >= 5 paths
for r > 2 and r = 2, where products by coefficients other than 0 and
+-1 are charged.  (3, 5, 4) is pinned at the cells of the benchmark's
cli-q3k5r4 workload.  The cells of (5, 4, 2) and (7, 3, 2) lie beyond
the radius at even d, where a dense solve on 2t + 1 rows would return a
spurious mu whose ``matrix_rep`` and ``R_j @ M`` are charged for q >= 5:
they hold those steps to all their rows.  The same four counts are
pinned for building each code.  No count may rise, and a cell whose
decode runs the q = 2 interpolation must read exactly its pin.
Success and failure tallies must not change at all; for (2, 5, 2),
(3, 3, 2) and (2, 3, 3) they are the ones first pinned on the
digit-tuple element implementation (commit 67d2df8).
"""

import pytest

from spreadcodes import OpCount, SpreadCode, decode, decoder, simulate
from spreadcodes.channel import ChannelSpec, corrupt, random_codeword, trial_rng

SEED = 7
TRIALS = 6

# (q, k, r) -> {(errors, erasures): (ext_mul, ext_inv, base_mul, base_inv)}
PINNED_COUNTS = {
    (2, 5, 2): {(0, 0): (0, 0, 0, 0), (2, 2): (182, 21, 0, 0),
                (1, 3): (63, 17, 0, 0), (2, 3): (71, 17, 0, 0),
                (3, 3): (231, 28, 0, 0)},
    (3, 3, 2): {(0, 0): (0, 0, 0, 0), (1, 1): (58, 15, 0, 0),
                (0, 2): (6, 6, 0, 0), (1, 2): (10, 4, 0, 0),
                (2, 2): (59, 14, 0, 0)},
    (2, 3, 3): {(0, 0): (0, 0, 0, 0), (1, 1): (61, 17, 0, 0),
                (0, 2): (9, 9, 0, 0), (1, 2): (6, 2, 0, 0),
                (2, 2): (61, 19, 0, 0)},
    (3, 3, 4): {(0, 0): (0, 0, 0, 0), (1, 1): (91, 24, 0, 0),
                (0, 2): (17, 17, 0, 0), (1, 2): (6, 1, 0, 0),
                (2, 2): (55, 15, 0, 0)},
    (2, 17, 2): {(8, 8): (2123, 104, 0, 0), (9, 8): (2309, 98, 0, 0)},
    (5, 2, 3): {(0, 0): (0, 0, 11, 5), (1, 1): (16, 0, 8, 4),
                (0, 1): (24, 10, 22, 0), (1, 0): (93, 22, 29, 5)},
    (2, 5, 3): {(2, 2): (150, 23, 0, 0), (3, 3): (231, 31, 0, 0)},
    (2, 8, 8): {(0, 0): (0, 0, 0, 0), (3, 3): (454, 63, 0, 0),
                (1, 3): (636, 55, 0, 0), (2, 5): (278, 69, 0, 0),
                (4, 3): (693, 82, 0, 0), (4, 4): (503, 37, 0, 0)},
    (2, 24, 2): {(10, 11): (3649, 130, 0, 0)},
    (5, 3, 2): {(0, 0): (0, 0, 23, 6), (1, 1): (111, 17, 38, 5),
                (2, 0): (238, 30, 41, 8), (0, 2): (13, 6, 15, 0),
                (2, 2): (108, 18, 42, 8)},
    (3, 5, 4): {(0, 0): (0, 0, 0, 0), (1, 2): (80, 28, 0, 0),
                (2, 2): (322, 42, 0, 0), (0, 1): (192, 33, 0, 0),
                (3, 3): (294, 29, 0, 0), (3, 2): (279, 30, 0, 0)},
    (5, 4, 2): {(3, 1): (425, 30, 19, 5), (2, 2): (188, 18, 23, 7),
                (4, 2): (400, 29, 15, 5)},
    (7, 3, 2): {(2, 1): (169, 18, 16, 6), (3, 2): (148, 16, 8, 3)},
}

# Cells at d >= 5 over F_2, whose pair steps run the interpolation: a
# refactor of it must leave their counts exactly at the pins.  (2, 5, 3)
# and (2, 8, 8) are r > 2 codes, whose later pair steps run on fewer
# rows, and (2, 24, 2) (10, 11) is the benchmark's build-q2k24r2 cell,
# on slotted rows.
INTERPOLATION_CELLS = [((2, 5, 2), (2, 2)), ((2, 5, 2), (3, 3)),
                       ((2, 5, 3), (2, 2)), ((2, 5, 3), (3, 3)),
                       ((2, 8, 8), (3, 3)), ((2, 8, 8), (4, 4)),
                       ((2, 17, 2), (8, 8)), ((2, 17, 2), (9, 8)),
                       ((2, 24, 2), (10, 11))]

PINNED_LINES = {
    (2, 5, 2): ["0 0 6 6 0 0.00 0", "1 3 6 6 0 13.33 15",
                "2 2 6 6 0 33.83 48", "2 3 6 0 6 14.67 15",
                "3 3 6 0 6 43.17 47"],
    (3, 3, 2): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 2.00 2",
                "1 1 6 6 0 12.17 15", "1 2 6 0 6 2.33 3",
                "2 2 6 0 6 12.17 15"],
    (2, 3, 3): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 3.00 4",
                "1 1 6 6 0 13.00 19", "1 2 6 0 6 1.33 3",
                "2 2 6 0 6 13.33 19"],
    (3, 3, 4): ["0 0 6 6 0 0.00 0", "0 2 6 6 0 5.67 6",
                "1 1 6 6 0 19.17 23", "1 2 6 0 6 1.17 3",
                "2 2 6 0 6 11.67 15"],
    (5, 2, 3): ["0 0 6 6 0 0.00 0", "0 1 6 6 0 5.67 9",
                "1 0 6 6 0 19.17 23", "1 1 6 0 6 2.67 5"],
}

# (q, k, r) -> OpCount fields of SpreadCode(q, k, r), measured with a
# constructor that builds the diagonalizer S, checks nothing about it
# (tests/test_spread.py does) and leaves its inverse to first use.
# (3, 5, 4) is the code that one-shot CLI requests at q = 3, k = 5
# rebuild on every call.  (2, 17, 2) builds a packed field, whose
# Frobenius calls run through its byte tables.
PINNED_BUILD_COUNTS = {
    (2, 5, 2): (0, 0, 500, 0),
    (3, 3, 2): (0, 0, 54, 0),
    (2, 3, 3): (0, 0, 54, 0),
    (3, 3, 4): (0, 0, 54, 0),
    (3, 5, 4): (0, 0, 500, 0),
    (2, 17, 2): (0, 0, 78608, 0),
}


@pytest.mark.parametrize("qkr", sorted(PINNED_BUILD_COUNTS))
def test_build_counts_do_not_rise(qkr):
    with OpCount() as c:
        SpreadCode(*qkr)
    now = (c.ext_mul, c.ext_inv, c.base_mul, c.base_inv)
    pinned = PINNED_BUILD_COUNTS[qkr]
    assert all(a <= b for a, b in zip(now, pinned)), (
        f"{now} exceeds {pinned}")


def cell_counts(code, e, eps) -> tuple:
    """The four OpCount fields of decoding the cell's trials, summed."""
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
    return tuple(totals)


@pytest.mark.parametrize("qkr", sorted(PINNED_COUNTS))
def test_decode_counts_do_not_rise(qkr):
    code = SpreadCode(*qkr)
    for (e, eps), pinned in PINNED_COUNTS[qkr].items():
        totals = cell_counts(code, e, eps)
        assert all(now <= then for now, then in zip(totals, pinned)), (
            f"cell {(e, eps)}: {totals} exceeds {pinned}")


@pytest.mark.parametrize("qkr,cell", INTERPOLATION_CELLS)
def test_interpolation_counts_equal_pins(qkr, cell, monkeypatch):
    calls = []
    solve = decoder._interpolated_point
    monkeypatch.setattr(decoder, "_interpolated_point",
                        lambda *args: calls.append(1) or solve(*args))
    assert cell_counts(SpreadCode(*qkr), *cell) == PINNED_COUNTS[qkr][cell]
    assert calls


@pytest.mark.parametrize("qkr", sorted(PINNED_LINES))
def test_simulate_records_do_not_rise(qkr):
    cells = list(PINNED_COUNTS[qkr])
    records = simulate(SpreadCode(*qkr), TRIALS, cells, seed=SEED)
    assert len(records) == len(PINNED_LINES[qkr])
    for rec, pinned in zip(records, PINNED_LINES[qkr]):
        now, then = rec.line().split(), pinned.split()
        assert now[:5] == then[:5]
        assert float(now[5]) <= float(then[5]) and int(now[6]) <= int(then[6])
