"""Spread codes for random linear network coding.

Construction and enumeration of the code, membership testing, a seeded
error/erasure channel, brute-force reference decoding, and the full
minimum-distance decoding stack with per-field operation counting.
"""

from .gf import ExtField, OpCount, PrimeField, find_irreducible, is_prime
from .linalg import (Matrix, RrefResult, disjoint_pivot_tuples, det, hstack,
                     inverse, minor, nondiagonal_rank, rank, rref, vstack)
from .spread import (Codeword, SpreadCode, Subspace, companion_matrix,
                     format_subspace, parse_subspace, subspace_distance)
from .decoder import (AffinePencil, DecodeResult, PairSupport, ReceivedSpace,
                      candidate_roots, decode, decode_pair, pair_support,
                      REASON_AMBIGUOUS, REASON_DIMENSION, REASON_NO_CODEWORD)
from .channel import (ChannelSpec, SimRecord, corrupt, random_codeword,
                      simulate, trial_rng)
from .oracle import brute_force_decode, mu_characterization

__all__ = [
    "AffinePencil", "ChannelSpec", "Codeword", "DecodeResult", "ExtField",
    "Matrix", "OpCount", "PairSupport", "PrimeField", "ReceivedSpace",
    "RrefResult", "SimRecord", "SpreadCode", "Subspace",
    "REASON_AMBIGUOUS", "REASON_DIMENSION", "REASON_NO_CODEWORD",
    "brute_force_decode", "candidate_roots", "companion_matrix", "corrupt",
    "decode", "decode_pair", "det",
    "disjoint_pivot_tuples", "find_irreducible", "format_subspace", "hstack",
    "inverse", "is_prime", "minor", "mu_characterization",
    "nondiagonal_rank", "pair_support", "parse_subspace", "rank",
    "random_codeword", "rref", "simulate", "subspace_distance", "trial_rng",
    "vstack",
]

__version__ = "0.1.0"
