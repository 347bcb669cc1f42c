"""Spread codes for random linear network coding.

Construction and enumeration of the code, membership testing, a seeded
error/erasure channel, brute-force reference decoding, and the full
minimum-distance decoding stack with per-field operation counting.
"""

from .gf import ExtField, OpCount, PrimeField, find_irreducible, is_prime
from .linalg import (Matrix, RrefResult, det, hstack, inverse, rank, rref,
                     vstack)
from .spread import (Codeword, SpreadCode, Subspace, companion_matrix,
                     format_subspace, parse_subspace, subspace_distance)
from .decoder import (DecodeResult, ReceivedSpace, decode, REASON_DIMENSION,
                      REASON_NO_CODEWORD)
from .channel import (ChannelSpec, SimRecord, corrupt, random_codeword,
                      simulate, trial_rng)
from .oracle import brute_force_decode

__all__ = [
    "ChannelSpec", "Codeword", "DecodeResult", "ExtField", "Matrix",
    "OpCount", "PrimeField", "ReceivedSpace", "RrefResult", "SimRecord",
    "SpreadCode", "Subspace", "REASON_DIMENSION", "REASON_NO_CODEWORD",
    "brute_force_decode", "companion_matrix", "corrupt", "decode", "det",
    "find_irreducible", "format_subspace", "hstack", "inverse", "is_prime",
    "parse_subspace", "rank", "random_codeword", "rref", "simulate",
    "subspace_distance", "trial_rng", "vstack",
]

__version__ = "0.1.0"
