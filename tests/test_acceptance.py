"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline) and asserts exactness at the stated volumes.
"""

import itertools

from spreadcodes import SpreadCode, subspace_distance
from spreadcodes.gf import ExtField, PrimeField, find_irreducible

from props import (factor_relation_trials,
                   fast_general_agreement, mean_decode_ops,
                   minor_expansion_trials, ndrank_conjugation_trials,
                   oracle_agreement_exhaustive, oracle_agreement_sampled,
                   pivot_postcondition_trials, root_evaluation_trials)


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_code_parameters():
    expected = {(2, 2, 2): 5, (2, 2, 3): 21, (2, 3, 2): 9, (3, 2, 2): 10}
    bad = []
    for (q, k, r), size in expected.items():
        code = SpreadCode(q, k, r)
        cws = code.codeword_list()
        if code.size != size or len(cws) != size:
            bad.append(f"({q},{k},{r}) cardinality")
        if any(subspace_distance(a.subspace, b.subspace) != 2 * k
               for a, b in itertools.combinations(cws, 2)):
            bad.append(f"({q},{k},{r}) distance")
    report(1, not bad,
           f"cardinalities 5/21/9/10 and all pairwise distances 2k exact"
           f"{'' if not bad else ': ' + ', '.join(bad)}")


def test_criterion_2_spread_partition():
    bad = []
    for q, k, r in [(2, 2, 2), (2, 3, 2)]:
        code = SpreadCode(q, k, r)
        cws = code.codeword_list()
        for v in itertools.product(range(q), repeat=code.n):
            if any(v) and sum(c.subspace.contains(v) for c in cws) != 1:
                bad.append((q, k, r, v))
    report(2, not bad,
           "every nonzero ambient vector lies in exactly one codeword "
           "at (2,2,2) and (2,3,2)")


def test_criterion_3_decoder_oracle_equivalence():
    cases = mismatches = 0
    lines = []
    for q, k, r in [(2, 2, 2), (3, 2, 2)]:
        c, m = oracle_agreement_exhaustive(SpreadCode(q, k, r))
        cases += c
        mismatches += m
        lines.append(f"({q},{k},{r}) exhaustive {c} subspaces")
    # Cells with more errors than erasures receive spaces of dimension
    # above k; inside the radius they decode, beyond it they fail.
    sampled = [
        ((2, 3, 2), [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)], 220),
        ((3, 2, 2), [(0, 0), (0, 1), (1, 1)], 340),
        ((2, 2, 3), [(0, 0), (0, 1), (1, 1)], 340),
        ((2, 3, 2), [(1, 0), (2, 0), (2, 1), (3, 0)], 60),
        ((2, 4, 2), [(2, 0), (2, 1), (3, 0), (4, 1)], 30),
        ((3, 3, 2), [(1, 0), (2, 0), (2, 1)], 30),
        ((2, 3, 3), [(1, 0), (2, 0), (3, 1)], 30),
    ]
    for (q, k, r), cells, per_cell in sampled:
        code = SpreadCode(q, k, r)
        c, m = oracle_agreement_sampled(code, cells, per_cell, seed=q + k + r)
        cases += c
        mismatches += m
        lines.append(f"({q},{k},{r}) {c} sampled")
    report(3, mismatches == 0,
           f"{cases} cases, {mismatches} mismatches ({'; '.join(lines)})")


def test_criterion_4_candidate_root_factorization():
    instances = nonzero = wrong = 0
    for (q, k), cells, per_cell in [
        ((2, 3), [(0, 1), (1, 1), (0, 2)], 120),
        ((3, 3), [(0, 1), (1, 1)], 100),
        ((2, 4), [(0, 1), (1, 1), (1, 2)], 80),
    ]:
        code = SpreadCode(q, k, 2)
        i, n, w = root_evaluation_trials(code, cells, per_cell,
                                         seed=41 * q + k)
        instances += i
        nonzero += n
        wrong += w
    ok = instances >= 500 and nonzero == 0 and wrong == 0
    report(4, ok,
           f"{instances} decodable instances: {nonzero} nonzero minor "
           f"evaluations at candidate roots, {wrong} with rank-test "
           f"winners != 1")


def test_criterion_5_nondiagonal_rank_of_conjugates():
    total = bad = 0
    for k in (3, 5):
        code = SpreadCode(2, k, 2)
        c, b = ndrank_conjugation_trials(code, 110, seed=100 + k)
        total += c
        bad += b
    report(5, bad == 0,
           f"{total} conjugated matrices at k in {{3,5}}: non-diagonal rank "
           f"equals rank and all consecutive-window minors nonzero")


def test_criterion_6_fast_path_equivalence():
    done1, dis1 = fast_general_agreement(SpreadCode(2, 3, 2), 600, seed=61)
    done2, dis2 = fast_general_agreement(SpreadCode(3, 2, 2), 400, seed=62)
    done, disagree = done1 + done2, dis1 + dis2
    report(6, done >= 1000 and disagree == 0,
           f"{done} invertible-first-block instances, {disagree} "
           f"disagreements between the rank-metric pair step, the closed "
           f"form and the pencil search")


def test_criterion_7_operation_count_scaling():
    ks = [3, 5, 7, 9]
    per_k = {k: mean_decode_ops(2, k, 2, trials=10, seed=7) for k in ks}
    notes = [f"k={k}:{per_k[k]:.0f}" for k in ks]
    ok = True
    for a, b in zip(ks, ks[1:]):
        ratio = per_k[b] / per_k[a]
        bound = 2 * (b / a) ** 4
        notes.append(f"{b}/{a}={ratio:.2f}<={bound:.2f}")
        ok = ok and ratio <= bound
    rs = [2, 4, 8]
    per_r = {r: mean_decode_ops(2, 3, r, trials=10, seed=8) for r in rs}
    for a, b in zip(rs, rs[1:]):
        ratio = per_r[b] / per_r[a]
        bound = 2 * (b - 1) / (a - 1)
        notes.append(f"r{b}/r{a}={ratio:.2f}<={bound:.2f}")
        ok = ok and ratio <= bound
    report(7, ok, "pairwise-decode ops within quartic trend and "
                  "block-count ops within linear trend: " + " ".join(notes))


def test_criterion_8_pivot_tuple_postconditions():
    total = bad = 0
    grid = [(PrimeField(2), 4), (PrimeField(2), 5), (PrimeField(3), 5),
            (PrimeField(5), 4),
            (ExtField(PrimeField(2), find_irreducible(2, 3)), 4)]
    for field, k in grid:
        c, b = pivot_postcondition_trials(field, k, 110, seed=80 + k)
        total += c
        bad += b
    report(8, total >= 500 and bad == 0,
           f"{total} random non-diagonal matrices: pivot tuples nonzero, "
           f"disjoint and unextendable ({bad} violations)")


def test_criterion_9_minor_and_factor_identities():
    expansion_bad = 0
    for q in (2, 3, 5):
        field = PrimeField(q)
        for k in (3, 4, 5):
            expansion_bad += minor_expansion_trials(field, k, 200,
                                                    seed=q * k)
    factor_bad = 0
    for q, k in [(2, 2), (3, 2), (2, 3)]:
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        for s in (2, 3, 4):
            factor_bad += factor_relation_trials(ext, s, 25, seed=q + s)
    factor_bad += factor_relation_trials(PrimeField(7), 4, 25, seed=70)
    report(9, expansion_bad == 0 and factor_bad == 0,
           f"prefix-minor expansion ({expansion_bad} failures over 200 "
           f"trials per field and size, k<=5) and linear-factor "
           f"coefficient relations ({factor_bad} failures, s<=4)")
