"""Ground-truth reference used only for verification.

The search is exhaustive and guarded against accidental use at scale;
it is deliberately independent of the decoder's algebra so the two can
check each other.
"""

from __future__ import annotations

from .decoder import ReceivedSpace
from .spread import Codeword, SpreadCode, subspace_distance

BRUTE_FORCE_LIMIT = 10 ** 6


def brute_force_decode(received: ReceivedSpace,
                       code: SpreadCode) -> tuple[int, list[Codeword]]:
    """Exact nearest-codeword search by full enumeration.

    Returns the minimum subspace distance over the whole code and every
    codeword attaining it.
    """
    if code.size > BRUTE_FORCE_LIMIT:
        raise ValueError(f"code too large for brute force ({code.size})")
    best = code.n + 1
    attaining: list[Codeword] = []
    for cw in code.codeword_list():
        d = subspace_distance(received.subspace, cw.subspace)
        if d < best:
            best = d
            attaining = [cw]
        elif d == best:
            attaining.append(cw)
    return best, attaining

