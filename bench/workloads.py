"""The benchmark's workloads: inputs made from a seed, requests, checks.

Every workload is a closed loop with one caller in one thread.  Inputs
are received spaces drawn with the package's own splittable channel
RNG: input ``i`` of cell ``(errors, erasures)`` under seed ``s`` comes
from ``trial_rng(s, errors, erasures, i)``, so the same seed gives the
same inputs on every commit.  The pool is ordered round-robin over the
cells and requests cycle through it.

The OpCount figures are counted on a second, fixed set of inputs drawn
the same way from ``OPS_SEED`` whatever the run's seed.  They are exact,
so every run of one commit reports the same ``ext_ops.mean`` and any
change in the operations a request costs shows, however small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

OPS_SEED = 0


@dataclass(frozen=True)
class Spec:
    name: str
    q: int
    k: int
    r: int
    cells: tuple            # (errors, erasures) cells of the request pool
    per_cell: int           # pool inputs per cell
    unit_per_cell: int      # inputs per cell in one traced unit of work
    setups: int             # cold set-ups per run; setup_s is their median
    ops_per_cell: int       # inputs per cell of the OpCount set
    via_cli: bool           # requests are `spreadcodes decode` calls
    simulate: bool          # simulate() chunks run between decodes
    cross_cell: tuple | None  # one input also decoded through the CLI


SPECS = {spec.name: spec for spec in (
    # Monte Carlo use.  (0,0) is membership, (4,4) the closed-form
    # nonsingular path, (3,4) the general pencil path and (5,5) a
    # detected failure beyond the radius.  Extension-field arithmetic
    # and elimination over F_{2^9} dominate.
    Spec("sim-q2k9r2", 2, 9, 2, ((0, 0), (4, 4), (3, 4), (5, 5)),
         per_cell=64, unit_per_cell=2, setups=21, ops_per_cell=8,
         via_cli=False, simulate=True, cross_cell=(4, 4)),
    # One-shot CLI calls that rebuild the code on every request.  Odd q
    # sends base-field elimination through the general rank/rref, and
    # r=4 runs the multi-pair orchestration.  (3,3) fails beyond the
    # radius and (3,2) exceeds the dimension; both exit 2.
    Spec("cli-q3k5r4", 3, 5, 4,
         ((0, 0), (1, 2), (2, 2), (0, 1), (3, 3), (3, 2)),
         per_cell=8, unit_per_cell=2, setups=21, ops_per_cell=4,
         via_cli=True, simulate=False, cross_cell=None),
    # Construction-heavy.  q^k = 2^24 is above the size where field
    # tables are practical, so table decisions meet one workload on
    # each side.  The (1,1) input takes the closed-form path through
    # the CLI cross-check.
    Spec("build-q2k24r2", 2, 24, 2, ((10, 11),),
         per_cell=3, unit_per_cell=1, setups=7, ops_per_cell=1,
         via_cli=False, simulate=False, cross_cell=(1, 1)),
)}


@dataclass
class Item:
    cell: tuple
    index: int
    sent: object            # Codeword
    received: object        # ReceivedSpace
    infile: str | None = None
    outfile: str | None = None

    @property
    def inside(self) -> bool:
        """Within the decoding radius k-1 of the sent codeword."""
        return sum(self.cell) <= self.sent.subspace.dim - 1


def _paths(workdir, cell, index):
    stem = os.path.join(workdir, f"{cell[0]}-{cell[1]}-{index}")
    return stem + ".in.txt", stem + ".out.txt"


def prepare(mods, spec: Spec, seed: int, per_cell: int, workdir: str,
            write: bool, code=None):
    """Draw the inputs from the seed, building the code cold unless one
    is given.

    Returns (code, pool, cross, draw).  ``cross`` is the input decoded
    by both the library and the CLI, or None.  ``draw(n)`` makes input
    ``n`` of the round-robin order; the pool holds the first ones.  With
    ``write`` the subspace files the CLI reads are written to ``workdir``.
    """
    ch = mods.channel
    if code is None:
        code = mods.spread.SpreadCode(spec.q, spec.k, spec.r)

    def draw_cell(cell, index):
        e, eps = cell
        rng = ch.trial_rng(seed, e, eps, index)
        sent = ch.random_codeword(code, rng)
        received = ch.corrupt(sent, ch.ChannelSpec(erasures=eps, errors=e),
                              code, rng)
        item = Item(cell, index, sent, received)
        if spec.via_cli or cell == spec.cross_cell:
            item.infile, item.outfile = _paths(workdir, cell, index)
            if write:
                with open(item.infile, "w", encoding="utf-8") as fh:
                    fh.write(mods.spread.format_subspace(
                        code, received.subspace))
        return item

    def draw(n):
        cells = spec.cells
        return draw_cell(cells[n % len(cells)], n // len(cells))

    pool = [draw(n) for n in range(per_cell * len(spec.cells))]
    cross = draw_cell(spec.cross_cell, 0) if spec.cross_cell else None
    return code, pool, cross, draw


# -- requests ----------------------------------------------------------------
# Each returns (timing, result).  ``timer()`` is a context manager around
# the call into the package only, such as ``Calibrator.timing``, or
# ``contextlib.nullcontext`` for an untimed request.

def decode_request(mods, code, item, timer=contextlib.nullcontext):
    decode = mods.decoder.decode
    with timer() as timing:
        result = decode(item.received, code)
    return timing, result


def cli_request(mods, spec, item, timer=contextlib.nullcontext):
    with contextlib.suppress(FileNotFoundError):
        os.remove(item.outfile)
    argv = ["decode", "--q", str(spec.q), "--k", str(spec.k),
            "--r", str(spec.r), "--in", item.infile, "--out", item.outfile]
    main = mods.cli.main
    err = io.StringIO()
    with contextlib.redirect_stderr(err), timer() as timing:
        status = main(argv)
    try:
        with open(item.outfile, "rb") as fh:
            out = fh.read()
    except FileNotFoundError:
        out = b""
    return timing, (status, out, err.getvalue())


# -- outcomes and checks -----------------------------------------------------

def outcome(result) -> str:
    """Canonical text of one request's result, for digests and repeats."""
    if isinstance(result, tuple):
        status, out, err = result
        return f"{status} {hashlib.sha256(out).hexdigest()} {err!r}"
    if result.ok:
        return f"ok {result.codeword.point!r}"
    return f"fail {result.reason}"


def check(mods, code, item, result, expected) -> str | None:
    """Check one request: a CLI result against the library decode of the
    same file, a library result against the sent codeword."""
    if not isinstance(result, tuple):
        return check_decode(mods, code, item, result)
    if result == expected[item.infile]:
        return None
    return (f"CLI on cell {item.cell} input {item.index}: exit code or "
            "output differs from the library decode")


def check_decode(mods, code, item, result) -> str | None:
    """Inside the radius the sent codeword must come back; beyond it the
    decoder must fail, or return a codeword at distance below k."""
    if item.inside:
        if result.ok and result.codeword == item.sent:
            return None
        return (f"cell {item.cell} input {item.index}: sent codeword not "
                "returned")
    if not result.ok:
        return None
    d = mods.spread.subspace_distance(item.received.subspace,
                                      result.codeword.subspace)
    if d < code.k:
        return None
    return (f"cell {item.cell} input {item.index}: returned a codeword at "
            f"distance {d} >= k")


def expected_cli(mods, code, item):
    """What `spreadcodes decode` must produce for this input file: the
    library decode of the same file.  Also returns the check of that
    library result against the sent codeword."""
    with open(item.infile, encoding="utf-8") as fh:
        header, body = fh.read().split("\n", 1)
    if header != code.header():
        raise ValueError(f"{item.infile}: header {header!r} is not the code's")
    basis = mods.linalg.parse_matrix(code.base, body)
    received = mods.decoder.ReceivedSpace(
        mods.spread.Subspace.from_generators(basis), code.k)
    result = mods.decoder.decode(received, code)
    problem = check_decode(mods, code, item, result)
    if result.ok:
        text = mods.spread.format_subspace(code, result.codeword.subspace)
        return (0, text.encode("utf-8"), ""), problem
    return (2, b"", f"decoding failed: {result.reason}\n"), problem


def check_oracle(mods, code, item, result) -> str | None:
    """Agreement with the brute-force nearest-codeword search: within
    distance k-1 of a codeword the decoder returns exactly it, otherwise
    it fails."""
    best, nearest = mods.oracle.brute_force_decode(item.received, code)
    if best < code.k:
        ok = result.ok and result.codeword == nearest[0]
    else:
        ok = not result.ok
    if ok:
        return None
    return f"cell {item.cell} input {item.index}: disagrees with brute force"


def check_records(code, records) -> list:
    """One problem or None per simulate() record: every trial inside the
    radius succeeds; beyond it none can, since the sent codeword is at
    distance >= k."""
    problems = []
    for rec in records:
        inside = rec.errors + rec.erasures <= code.k - 1
        want = rec.trials if inside else 0
        problems.append(None if rec.successes == want else
                        f"simulate cell ({rec.errors},{rec.erasures}): "
                        f"{rec.successes} of {rec.trials} successes, "
                        f"expected {want}")
    return problems


def chunk_seed(np, seed: int, label: int) -> int:
    """Master seed of one simulate() chunk, disjoint from the pool's."""
    ss = np.random.SeedSequence(seed, spawn_key=(1_000_003, label))
    return int(ss.generate_state(1)[0])
