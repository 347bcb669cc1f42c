"""Seeded error/erasure channel and Monte Carlo decoding statistics.

The transmission model keeps a random (k - erasures)-dimensional
subspace H of the sent codeword and adjoins an independent random
subspace of ``errors`` extra dimensions, so the received space sits at
subspace distance errors + erasures from the codeword.  A draw of H
(keep x k, with keep = k - erasures) and E (errors x n) is tested
before the received space is built, and redrawn until it passes
(budget 100 draws per sample).  With B the codeword's basis and
R = span(HB, E), R has dimension keep + errors and distance
errors + erasures from the codeword exactly when rank(H) = keep and
rank([B; E]) = k + errors: HB lies in the codeword, so
R + C = span(B, E), and dim(R ∩ C) = dim R + k - dim(R + C).  A
rejected draw costs one small rank; only the accepted one is
multiplied out and reduced, and with no errors and no erasures the
received space is the codeword's own.

Randomness is numpy based and splittable.  Trial t of cell (e, eps)
under master seed s draws from ``SeedSequence(s, spawn_key=(e, eps, t))``,
so any single trial can be reproduced in isolation and trials may run
in any order or in parallel without changing the statistics.  Each
draw is one ``integers`` call, which takes values from the stream one
at a time, so it equals a call per matrix or per coordinate.  numpy is
imported on the first draw, so a process that only decodes never loads
it.
"""

from __future__ import annotations

from .decoder import ReceivedSpace, decode
from .gf import OpCount, check_int, is_element
from .linalg import Matrix, Record, rank, vstack
from .spread import Codeword, SpreadCode, Subspace

RETRY_BUDGET = 100


class ChannelSpec(Record):
    """One channel cell: dimensions dropped and dimensions adjoined."""

    __slots__ = ("erasures", "errors")

    def __init__(self, erasures: int, errors: int):
        self._set(erasures, errors)


def trial_rng(seed: int, *key: int):
    """Independent numpy Generator for one labeled trial of a master
    seed, a plain int (not a bool) of at least 0."""
    check_int("seed", seed, 0)
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _draw(rng, field, *shapes) -> list:
    """A uniform matrix over the prime field for each (nrows, ncols)
    shape in turn, from one numpy call.  Over F_2 each bit row is sliced
    off the packed draw by a shift and a mask."""
    q = field.q
    vals = rng.integers(0, q, size=sum(a * b for a, b in shapes))
    if q == 2:
        import numpy as np
        x = int.from_bytes(np.packbits(vals, bitorder="little").tobytes(),
                           "little")
    else:
        flat = vals.tolist()
    out, i = [], 0
    for nrows, ncols in shapes:
        starts = range(i, i + nrows * ncols, ncols)
        if q == 2:
            mask = (1 << ncols) - 1
            out.append(Matrix._of_bits(field, [x >> j & mask for j in starts],
                                       ncols))
        else:
            out.append(Matrix._of_rows(field, [flat[j:j + ncols]
                                               for j in starts], ncols))
        i += nrows * ncols
    return out


def random_codeword(code: SpreadCode, rng) -> Codeword:
    """Uniformly random codeword, via a uniform nonzero projective point."""
    while True:
        coords = _draw(rng, code.base, (code.r, code.k))[0].row_elements
        if any(coords):
            return code.encode(coords)


def _check_cell(code: SpreadCode, errors, erasures):
    """Refuse a cell whose counts are not ints (not bools) in range, or
    that would leave the received space empty."""
    if not is_element(errors, code.n - code.k + 1):
        raise ValueError(f"errors must be an int in 0..{code.n - code.k}, "
                         f"got {errors!r}")
    if not is_element(erasures, code.k + 1):
        raise ValueError(f"erasures must be an int in 0..{code.k}, "
                         f"got {erasures!r}")
    if code.k - erasures + errors < 1:
        raise ValueError("the received space would be empty")


def _accepts(B: Matrix, H: Matrix, E: Matrix) -> bool:
    """Whether R = span(HB, E) has dimension rows(H) + rows(E) and lies
    at distance rows(E) + rows(B) - rows(H) from span(B), for B of full
    row rank: exactly when H and [B; E] have full row rank."""
    return (rank(H) == H.nrows
            and (not E.nrows or rank(vstack(B, E)) == B.nrows + E.nrows))


def corrupt(cw: Codeword, spec: ChannelSpec, code: SpreadCode,
            rng) -> ReceivedSpace:
    """Received space at distance exactly errors + erasures from cw."""
    eps, e = spec.erasures, spec.errors
    _check_cell(code, e, eps)
    k, n, keep = code.k, code.n, code.k - eps
    B = cw.subspace.basis
    for _ in range(RETRY_BUDGET):
        H, E = _draw(rng, code.base, (keep, k), (e, n))
        if _accepts(B, H, E):
            if not e and keep == k:
                return ReceivedSpace(cw.subspace, k)
            R = Subspace.from_generators(vstack(H @ B, E))
            return ReceivedSpace(R, k)
    raise RuntimeError("channel sampling failed to hit the target distance "
                       f"within {RETRY_BUDGET} draws")


class SimRecord(Record):
    """Decoding statistics for one (errors, erasures) cell."""

    __slots__ = ("errors", "erasures", "trials", "successes", "failures",
                 "mean_ops", "max_ops")

    def __init__(self, errors: int, erasures: int, trials: int,
                 successes: int, failures: int, mean_ops: float,
                 max_ops: int):
        self._set(errors, erasures, trials, successes, failures, mean_ops,
                  max_ops)

    def line(self) -> str:
        return (f"{self.errors} {self.erasures} {self.trials} "
                f"{self.successes} {self.failures} "
                f"{self.mean_ops:.2f} {self.max_ops}")


def simulate(code: SpreadCode, trials: int, cells, seed: int = 0) -> list[SimRecord]:
    """Monte Carlo decoding over a grid of (errors, erasures) cells.

    A success is a decode that returns exactly the transmitted codeword.
    Operation counts are the decoder's extension-field multiplications
    plus inversions per call.  Deterministic for a fixed seed; records
    come back sorted by cell.
    """
    check_int("trials", trials, 1)
    cells = [(e, eps) for e, eps in cells]
    for e, eps in cells:
        _check_cell(code, e, eps)
    records = []
    for e, eps in sorted(set(cells)):
        spec = ChannelSpec(erasures=eps, errors=e)
        successes = 0
        ops = []
        for t in range(trials):
            rng = trial_rng(seed, e, eps, t)
            cw = random_codeword(code, rng)
            received = corrupt(cw, spec, code, rng)
            with OpCount() as counter:
                result = decode(received, code)
            ops.append(counter.ext_total)
            if result.ok and result.codeword == cw:
                successes += 1
        records.append(SimRecord(e, eps, trials, successes,
                                 trials - successes,
                                 sum(ops) / len(ops), max(ops)))
    return records
