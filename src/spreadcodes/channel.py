"""Seeded error/erasure channel and Monte Carlo decoding statistics.

The transmission model keeps a random (k - erasures)-dimensional
subspace H of the sent codeword and adjoins an independent random
subspace of ``errors`` extra dimensions, so the received space sits at
subspace distance errors + erasures from the codeword.  The distance is
enforced by verify-and-retry: a fresh sample is drawn until the target
distance holds exactly (budget 100 draws per sample).

Randomness is numpy based and splittable.  Trial t of cell (e, eps)
under master seed s draws from ``SeedSequence(s, spawn_key=(e, eps, t))``,
so any single trial can be reproduced in isolation and trials may run
in any order or in parallel without changing the statistics.  numpy is
imported on the first draw, so a process that only decodes never loads
it.
"""

from __future__ import annotations

from .decoder import ReceivedSpace, decode
from .gf import OpCount, _from_digits, is_element
from .linalg import Matrix, Record, vstack
from .spread import Codeword, SpreadCode, Subspace, subspace_distance

RETRY_BUDGET = 100


class ChannelSpec(Record):
    """One channel cell: dimensions dropped and dimensions adjoined."""

    __slots__ = ("erasures", "errors")

    def __init__(self, erasures: int, errors: int):
        self._set(erasures, errors)

    @property
    def target_distance(self) -> int:
        return self.errors + self.erasures


def trial_rng(seed: int, *key: int):
    """Independent numpy Generator for one labeled trial of a master
    seed, a plain int (not a bool) of at least 0."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be an int of at least 0, got {seed!r}")
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _random_matrix(rng, field, nrows: int, ncols: int) -> Matrix:
    vals = rng.integers(0, field.q, size=(nrows, ncols))
    return Matrix._of_rows(field, vals.tolist(), ncols)


def random_codeword(code: SpreadCode, rng) -> Codeword:
    """Uniformly random codeword, via a uniform nonzero projective point."""
    q = code.q
    while True:
        coords = [_from_digits(rng.integers(0, q, size=code.k).tolist(), q)
                  for _ in range(code.r)]
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


def corrupt(cw: Codeword, spec: ChannelSpec, code: SpreadCode,
            rng) -> ReceivedSpace:
    """Received space at distance exactly errors + erasures from cw."""
    eps, e = spec.erasures, spec.errors
    _check_cell(code, e, eps)
    keep = code.k - eps
    for _ in range(RETRY_BUDGET):
        parts = []
        if keep:
            H = _random_matrix(rng, code.base, keep, code.k)
            parts.append(H @ cw.subspace.basis)
        if e:
            parts.append(_random_matrix(rng, code.base, e, code.n))
        R = Subspace.from_generators(vstack(*parts))
        if (R.dim == keep + e
                and subspace_distance(R, cw.subspace) == spec.target_distance):
            return ReceivedSpace(R, code.k)
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
    if type(trials) is not int or trials < 1:
        raise ValueError("trials must be an int of at least 1, "
                         f"got {trials!r}")
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
