"""The paper's pencil search and two exhaustive oracles, kept as test
references.

``spreadcodes.decode`` reads each block pair as a lifted one-dimensional
Gabidulin code and calls none of this.  The search loop
:func:`_pencil_point` tries the closed-form candidate roots of the
pencil minors (``spreadcodes.decoder.candidate_roots``) and keeps the
one that drops the pencil rank below half the dimension.
:func:`nondiagonal_rank` enumerates the minors on disjoint row/column
tuples, and :func:`mu_characterization` enumerates F_{q^k} for every
pair parameter within the radius.  All three are slow and uncounted by
design; the tests check the package's pair step against them.
"""

from __future__ import annotations

import itertools

from spreadcodes.decoder import (REASON_AMBIGUOUS, REASON_NO_CODEWORD,
                                 candidate_roots, pair_support)
from spreadcodes.linalg import Matrix, minor, rank
from spreadcodes.spread import SpreadCode

PARAMETER_SPACE_LIMIT = 2 ** 16


def _pencil_point(R1: Matrix, R2: Matrix, code: SpreadCode):
    """The general pencil search on a pair with rank(R1) >= rank(R2),
    both above (dim-1)/2: mu of the pair codeword [1 : mu], or the
    failure reason."""
    ktil = R1.nrows
    support = pair_support(R1, R2, code)
    if support is None:
        return REASON_NO_CODEWORD
    passing = []
    for _, mu in candidate_roots(support.pencil, support.rows,
                                 support.cols, support.free):
        if mu in passing:
            continue
        if 2 * rank(support.pencil.at(mu)) <= ktil - 1:
            passing.append(mu)
    if not passing:
        return REASON_NO_CODEWORD
    if len(passing) > 1:
        return REASON_AMBIGUOUS
    return passing[0]


def nondiagonal_rank(M: Matrix) -> int:
    """One less than the smallest minor size t for which every t-by-t
    minor on disjoint row/column tuples vanishes.

    Exhaustive enumeration; exponential in k and only meant as a test
    oracle at small sizes.
    """
    if M.nrows != M.ncols:
        raise ValueError("square matrix required")
    k = M.nrows
    z = M.field.zero
    indices = range(1, k + 1)
    for t in range(1, k // 2 + 1):
        all_zero = True
        for J in itertools.combinations(indices, t):
            rest = [i for i in indices if i not in J]
            for L in itertools.combinations(rest, t):
                if minor(M, J, L) != z:
                    all_zero = False
                    break
            if not all_zero:
                break
        if all_zero:
            return t - 1
    return k // 2


def mu_characterization(R1: Matrix, R2: Matrix,
                        code: SpreadCode) -> list[tuple]:
    """All extension-field parameters mu whose codeword candidate
    rowsp(I | M(mu)) sits within half the minimum distance of the pair:
    rank(R1 M(mu) - R2) at most (dim-1)/2, checked for every mu by
    exhaustive enumeration of F_{q^k}.
    """
    if code.q ** code.k > PARAMETER_SPACE_LIMIT:
        raise ValueError("parameter space too large to enumerate")
    ktil = R1.nrows
    out = []
    for mu in code.ext.elements():
        X = code.matrix_rep(mu)
        if 2 * rank(R1 @ X - R2) <= ktil - 1:
            out.append(mu)
    return out
