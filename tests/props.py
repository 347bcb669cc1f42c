"""Shared property drivers and reference oracles for the test suite.

Each driver returns plain counts so callers can assert zero failures at
whatever trial volume they need; the acceptance suite reruns them at
full volume.
"""

from __future__ import annotations

import itertools
import random

from spreadcodes import (OpCount, SpreadCode, Subspace, brute_force_decode,
                         decode, hstack, rank, subspace_distance)
from spreadcodes.channel import ChannelSpec, corrupt, random_codeword, trial_rng
from spreadcodes.decoder import (REASON_NO_CODEWORD, DecodeResult,
                                 ReceivedSpace, _dense_point,
                                 _interpolated_point, _nonsingular_core,
                                 _pair_step, candidate_roots, decode_pair,
                                 pair_support)
from spreadcodes.gf import PrimeField
from spreadcodes.linalg import Matrix, disjoint_pivot_tuples, minor

from paper_reference import _pencil_point, nondiagonal_rank


def random_element(rnd: random.Random, field):
    width = getattr(field, "k", 1)
    if width == 1:
        return rnd.randrange(field.q)
    return field.element([rnd.randrange(field.q) for _ in range(width)])


def random_matrix(rnd: random.Random, field, nrows: int, ncols: int) -> Matrix:
    return Matrix(field, [[random_element(rnd, field) for _ in range(ncols)]
                          for _ in range(nrows)])


def all_subspaces(q: int, n: int, dims) -> list[Subspace]:
    """Every subspace of F_q^n whose dimension lies in dims, one per
    RREF basis: each set of pivot columns with every free entry (right
    of its row's pivot, outside the pivot columns) running over F_q.
    Exponential; desk scale only."""
    f = PrimeField(q)
    spaces = []
    for d in dims:
        for pivots in itertools.combinations(range(n), d):
            free = [(i, c) for i, p in enumerate(pivots)
                    for c in range(p + 1, n) if c not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(d)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), v in zip(free, values):
                    rows[i][c] = v
                spaces.append(Subspace(Matrix(f, rows)))
    return spaces


# -- minor identities --------------------------------------------------------

def minor_expansion_trials(field, k: int, trials: int, seed: int) -> int:
    """Product of a prefix minor with the full minor expands over row
    exchanges against the next column index.  Returns failure count."""
    rnd = random.Random(seed)
    bad = 0
    for _ in range(trials):
        M = random_matrix(rnd, field, k, k)
        J = list(range(1, k + 1))
        L = list(range(1, k + 1))
        rnd.shuffle(J)
        rnd.shuffle(L)
        s = rnd.randrange(0, k)
        Js, Ls = tuple(J[:s]), tuple(L[:s])
        lhs = field.mul(minor(M, Js, Ls), minor(M, tuple(J), tuple(L)))
        rhs = field.zero
        for t in range(s + 1, k + 1):
            jt, ls1 = J[t - 1], L[s]
            term = field.mul(
                minor(M, Js + (jt,), Ls + (ls1,)),
                minor(M, tuple(x for x in J if x != jt),
                      tuple(x for x in L if x != ls1)))
            if (t + s + 1) % 2 == 1:
                term = field.neg(term)
            rhs = field.add(rhs, term)
        if lhs != rhs:
            bad += 1
    return bad


def factor_relation_trials(field, s: int, trials: int, seed: int) -> int:
    """Coefficients of a product of linear factors obey the pairwise
    relation a_U a_V = a_(U cap V) a_full, and the roots are recovered
    from the codimension-one coefficient ratios.  Returns failures."""
    rnd = random.Random(seed)
    full = tuple(range(1, s + 1))
    elements = list(field.elements())
    nonzero = [e for e in elements if e != field.zero]
    bad = 0
    for _ in range(trials):
        a_full = rnd.choice(nonzero)
        roots = [rnd.choice(elements) for _ in range(s)]

        def coeff(U):
            out = a_full
            for u in full:
                if u not in U:
                    out = field.mul(out, roots[u - 1])
            return out

        for V in itertools.combinations(full, s - 1):
            v = next(x for x in full if x not in V)
            for size in range(s + 1):
                for U in itertools.combinations(full, size):
                    if v in U:
                        lhs = field.mul(coeff(U), coeff(V))
                        rhs = field.mul(coeff(tuple(x for x in U if x in V)),
                                        coeff(full))
                        if lhs != rhs:
                            bad += 1
        for u in full:
            rec = field.mul(coeff(tuple(x for x in full if x != u)),
                            field.inv(a_full))
            if rec != roots[u - 1]:
                bad += 1
    return bad


def matched_extension_trials(field, k: int, s: int, trials: int,
                             seed: int) -> tuple[int, int]:
    """On matrices whose off-diagonal part has rank at most s (so every
    disjoint minor of size s+1 vanishes), the pivot-search tuples J, L
    extend multiplicatively along matched diagonal index sets:
    [J+W;L+W][J+(v);L+(v)] = [J+W+(v);L+W+(v)][J;L].
    Returns (checked, failures)."""
    rnd = random.Random(seed)
    checked = bad = 0
    while checked < trials:
        low = (random_matrix(rnd, field, k, s)
               @ random_matrix(rnd, field, s, k))
        diag = Matrix.diagonal(field,
                               [rnd.randrange(field.q) for _ in range(k)])
        M = low + diag
        if M.is_diagonal():
            continue
        J, L = disjoint_pivot_tuples(M)
        outside = [i for i in range(1, k + 1) if i not in J and i not in L]
        if len(outside) < 2:
            continue
        wlen = rnd.randrange(1, len(outside))
        picks = rnd.sample(outside, wlen + 1)
        W, v = tuple(sorted(picks[:wlen])), picks[-1]
        Wv = tuple(sorted(W + (v,)))
        lhs = field.mul(minor(M, J + W, L + W), minor(M, J + (v,), L + (v,)))
        rhs = field.mul(minor(M, J + Wv, L + Wv), minor(M, J, L))
        checked += 1
        if lhs != rhs:
            bad += 1
    return checked, bad


def pivot_postcondition_trials(field, k: int, trials: int,
                               seed: int) -> tuple[int, int]:
    """Pivot-tuple search on random non-diagonal matrices: the returned
    tuples are nonempty, disjoint, carry a nonzero minor, and no
    one-step extension by a distinct outside pair has a nonzero minor
    (checked exhaustively).  Returns (checked, failures)."""
    rnd = random.Random(seed)
    checked = bad = 0
    while checked < trials:
        M = random_matrix(rnd, field, k, k)
        if M.is_diagonal():
            continue
        J, L = disjoint_pivot_tuples(M)
        checked += 1
        ok = (len(J) >= 1 and len(J) == len(L)
              and not set(J) & set(L)
              and minor(M, J, L) != field.zero)
        outside = [i for i in range(1, k + 1) if i not in J and i not in L]
        for j in outside:
            for l in outside:
                if j != l and minor(M, J + (j,), L + (l,)) != field.zero:
                    ok = False
        if not ok:
            bad += 1
    return checked, bad


# -- decoder versus oracle ---------------------------------------------------

def oracle_agreement_cases(code: SpreadCode, spaces) -> tuple[int, int]:
    """Compare the decoder to brute force on given subspaces: within
    distance k-1 of some codeword the decoder must return exactly the
    nearest one, otherwise it must fail.  Returns (cases, mismatches)."""
    cases = mismatches = 0
    for sub in spaces:
        received = ReceivedSpace(sub, code.k)
        best, nearest = brute_force_decode(received, code)
        result = decode(received, code)
        if best < code.k:
            ok = result.ok and result.codeword == nearest[0]
        else:
            ok = not result.ok
        cases += 1
        mismatches += not ok
    return cases, mismatches


def oracle_agreement_exhaustive(code: SpreadCode) -> tuple[int, int]:
    """Oracle agreement on every subspace of dimension 1..n-1."""
    spaces = all_subspaces(code.q, code.n, range(1, code.n))
    return oracle_agreement_cases(code, spaces)


def channel_outputs(code: SpreadCode, cells, per_cell: int, seed: int):
    for e, eps in cells:
        spec = ChannelSpec(erasures=eps, errors=e)
        for t in range(per_cell):
            rng = trial_rng(seed, e, eps, t)
            cw = random_codeword(code, rng)
            yield corrupt(cw, spec, code, rng).subspace


def oracle_agreement_sampled(code: SpreadCode, cells, per_cell: int,
                             seed: int) -> tuple[int, int]:
    return oracle_agreement_cases(
        code, channel_outputs(code, cells, per_cell, seed))


# -- candidate-root factorization --------------------------------------------

def root_evaluation_trials(code: SpreadCode, cells, per_cell: int,
                           seed: int) -> tuple[int, int, int]:
    """On decodable channel outputs that reach the general pairwise
    step, evaluate the constructed minor at every emitted candidate root
    (must be zero) and count candidates passing the rank test (must be
    exactly one distinct value).  Returns (instances, nonzero_evals,
    wrong_pass_counts)."""
    instances = nonzero = wrong = 0
    ext = code.ext
    for sub in channel_outputs(code, cells, per_cell, seed):
        received = ReceivedSpace(sub, code.k)
        ktil = received.dim
        blocks = received.blocks
        r = [rank(b) for b in blocks]
        if not (2 * r[0] > ktil - 1 and 2 * r[1] > ktil - 1):
            continue
        R1, R2 = (blocks[0], blocks[1]) if r[0] >= r[1] else (blocks[1],
                                                              blocks[0])
        support = pair_support(R1, R2, code)
        if support is None:
            continue
        instances += 1
        passing = set()
        for c, mu in candidate_roots(support.pencil, support.rows,
                                     support.cols, support.free):
            value = minor(support.pencil.at(mu),
                          support.rows + support.free,
                          support.cols + support.free)
            if value != ext.zero:
                nonzero += 1
            if 2 * rank(support.pencil.at(mu)) <= ktil - 1:
                passing.add(mu)
        if len(passing) != 1:
            wrong += 1
    return instances, nonzero, wrong


# -- decode's pair step on one pair of blocks --------------------------------

def pair_point(Rj: Matrix, Ri: Matrix, d: int, code: SpreadCode, step=None):
    """The pair step of :func:`decode` on the blocks (Rj Ri) of a
    received space of dimension d: mu of the pair codeword [1 : mu], or
    the failure reason.  ``step`` is a (read, solve) pair as
    ``_pair_step`` gives it, by default decode's own."""
    read, solve = step or _pair_step(code, d)
    return solve(read(Rj), read(Ri), (d - 1) // 2, code.ext)


def interpolated_point(Rj: Matrix, Ri: Matrix, d: int, code: SpreadCode):
    """The interpolation solver on the points of the rows of (Rj Ri),
    each read through the checked ``ExtField.element``."""
    def points(R):
        return [code.ext.element(u) for u in R.data]
    return pair_point(Rj, Ri, d, code, (points, _interpolated_point))


def dense_step(code: SpreadCode, d: int):
    """(read, solve) of the dense solve at dimension d, whatever q and d
    are: each row u becomes its Moore row (a, a^q, ..., a^(q^t)) for
    a = phi(u), by Frobenius powers rather than by the columns of S."""
    ext, t = code.ext, (d - 1) // 2

    def moore_rows(R):
        return [tuple(ext.frobenius(ext.element(u), j) for j in range(t + 1))
                for u in R.data]
    return moore_rows, _dense_point


def dense_point(Rj: Matrix, Ri: Matrix, d: int, code: SpreadCode):
    """The dense Welch-Berlekamp solver on the Moore rows of (Rj Ri)."""
    return pair_point(Rj, Ri, d, code, dense_step(code, d))


def checked_point(code: SpreadCode, received: Subspace, point) -> DecodeResult:
    """The codeword of a point, accepted only within distance k - 1 of
    the received space, as :func:`decode` accepts its answer."""
    cw = code.encode(point)
    if subspace_distance(received, cw.subspace) >= code.k:
        return DecodeResult(None, REASON_NO_CODEWORD)
    return DecodeResult(cw)


# -- the pair step against the paper's pencil search ------------------------

def pencil_pair_point(R1: Matrix, R2: Matrix, code: SpreadCode):
    """The paper's pair step on the blocks of a pair of dimension at
    most k in RREF, both blocks above the rank threshold: the pencil
    search led by the higher-rank block, its answer turned back to mu of
    the pair codeword [1 : mu] ([x : 1] = [1 : 1/x]), or the failure
    reason."""
    if rank(R2) <= rank(R1):
        return _pencil_point(R1, R2, code)
    mu = _pencil_point(R2, R1, code)
    return mu if isinstance(mu, str) else code.ext.inv(mu)


def fast_general_agreement(code: SpreadCode, trials: int,
                           seed: int) -> tuple[int, int]:
    """Random pairs (R1 R2) with R1 invertible whose canonical pair
    (I A) is above the rank threshold and not a codeword, the case the
    closed form covers.  The closed form and the general pencil search
    must return the same parameter or failure reason; where they accept,
    the rank-metric pair step must return that parameter; and
    decode_pair must return the pencil search's answer after the final
    distance check.  Returns (compared, disagreements)."""
    rnd = random.Random(seed)
    k = code.k
    I = Matrix.identity(code.base, k)
    done = disagree = 0
    while done < trials:
        R1 = random_matrix(rnd, code.base, k, k)
        if rank(R1) < k:
            continue
        R2 = random_matrix(rnd, code.base, k, k)
        pair = Subspace.from_generators(hstack(R1, R2))
        A = pair.basis.columns_slice(k, 2 * k)
        if 2 * rank(A) <= k - 1 or code.element_of(A) is not None:
            continue
        fast = _nonsingular_core(A, code)
        slow = _pencil_point(I, A, code)
        new = slow if isinstance(slow, str) else pair_point(I, A, k, code)
        want = (DecodeResult(None, slow) if isinstance(slow, str)
                else checked_point(code, pair, (code.ext.one, slow)))
        done += 1
        disagree += (fast != slow or new != slow
                     or decode_pair(R1, R2, code) != want)
    return done, disagree


# -- eigenbasis conjugation and non-diagonal rank ------------------------------

def ndrank_conjugation_trials(code: SpreadCode, trials: int,
                              seed: int) -> tuple[int, int]:
    """Random N with rank at most (k-1)/2: the conjugated matrix has
    non-diagonal rank equal to rank(N) and every pair of
    consecutive-window minors of that size is nonzero."""
    rnd = random.Random(seed)
    k = code.k
    t_max = (k - 1) // 2
    ext = code.ext
    checked = bad = 0
    for _ in range(trials):
        t = rnd.randrange(0, t_max + 1)
        if t == 0:
            N = Matrix.zeros(code.base, k, k)
        else:
            N = (random_matrix(rnd, code.base, k, t)
                 @ random_matrix(rnd, code.base, t, k))
        conj = code.conjugate(N)
        r = rank(N)
        ok = nondiagonal_rank(conj) == r
        for a in range(1, k - r + 2):
            for b in range(1, k - r + 2):
                J = tuple(range(a, a + r))
                L = tuple(range(b, b + r))
                if minor(conj, J, L) == ext.zero:
                    ok = False
        checked += 1
        bad += not ok
    return checked, bad


# -- operation-count scaling ---------------------------------------------------

def mean_decode_ops(q: int, k: int, r: int, trials: int, seed: int,
                    erasures: int = 1, errors: int = 0) -> float:
    """Mean extension-field operations per decode on channel instances."""
    code = SpreadCode(q, k, r)
    spec = ChannelSpec(erasures=erasures, errors=errors)
    total = 0
    for t in range(trials):
        rng = trial_rng(seed, k, r, t)
        cw = random_codeword(code, rng)
        received = corrupt(cw, spec, code, rng)
        with OpCount() as counter:
            result = decode(received, code)
        assert result.ok and result.codeword == cw
        total += counter.ext_total
    return total / trials
