"""Minimum-distance decoding of spread codes.

The received space W, of dimension d, is kept as the blocks R_1 ... R_r
of its RREF basis.  :func:`decode` pins blocks of rank at most (d-1)/2
to zero; each other block i is found by one pair step against the first
high-rank block j, which always leads.  The step reads the d rows
(u | v) of the raw blocks (R_j R_i) as pairs of field elements
a = phi(u), b = phi(v), where phi reads the digits of a row unchecked,
as ``gf._from_digits`` does: the rows come from a received space that
:func:`decode` has matched to the code's base field, and every entry
was checked when its matrix was built.
The pair codeword [1 : mu] holds the rows (u, u M(mu)), and
phi(u M(mu)) = mu phi(u), so finding mu decodes a one-dimensional
Gabidulin code whose evaluation points are the a (Gabidulin 1985; Silva,
Kschischang and Koetter 2008: a spread-code pair led by I is a lifted
MRD code).  With t = floor((d-1)/2), one linear Welch-Berlekamp system

    sum_{j=0..t} N_j a^(q^j) + sum_{j=1..t} V_j b^(q^j) = b

over all d rows gives mu = N_0.  Within distance k - 1 of a codeword,
Q(x) = mu x - V(mu x) - N(x) has q-degree at most t and vanishes on
the images a of W's intersection with the codeword, a space of
dimension above t, so Q = 0 and every solution has N_0 = mu.  The Moore
columns a^(q^j) are u S[:, j] for the eigenvector matrix S of the
companion matrix, a product that costs nothing for q = 2 and 3.  A
space led by I is tested for exact membership first.

Forward elimination of that dense d x (2t+2) system costs about d^3/3
ext ops.  For q = 2 and t >= 2 (d >= 5) the pair step instead finds the
least bivariate linearized Q(x, y) = N(x) + V(y) of q-degree at most t
that vanishes on the d points by Koetter's interpolation in its
linearized form (Koetter and Kschischang 2008; Loidreau's
Welch-Berlekamp-like decoder, 2006, is the same algorithm), in about d^2
ext ops: :func:`_interpolated_point`.  Within the radius that Q is
c L(y - mu x) for the subspace polynomial L of the error values, so
mu = -N_0 / V_0.  It builds no Moore matrix: in characteristic 2 the
update s^q - D^(q-1) s of a value v is v (v + D), one counted product,
which the row kernel ``ExtField.square_plus`` computes as v^2 + D v for
all the values ahead in one call.  For odd
q that update needs two or more products per value while the Moore
columns of the dense solve cost nothing, and for t <= 1 the dense
system is at most 4 x 4; in both cases the dense solve stays, and it
is cheaper there in counted ops.

The lead block R_j is read once, and only if a pair step runs.  The
codeword is built from the blocks the decode holds, with no encode, and
accepted only within distance k - 1 of W, so out-of-contract inputs
fail rather than miscorrect.  For r > 2 a pair whose answer leaves
2 rank(R_j M(mu) - R_i) above d - 1 ends the decode early; for r = 2
the final check is the same test.  A space of dimension 2k or more
lies at distance k or more from every codeword and is refused at once.

:func:`decode_pair` is :func:`decode` on a two-block space.  No code in
the package calls it and the package does not export it; it stays here
because the benchmark tracer (``bench/tracing.py``) names it.

The paper's pencil decoder is not used by :func:`decode`.  Its pieces
below stay in this module only because the benchmark tracer
(``bench/tracing.py``) names them; the search loop that ties them
together lives with the tests, in ``tests/paper_reference.py``.  In it
the pair moves to the eigenbasis of the companion matrix, where mu
appears as the unknown of an affine matrix pencil R(x)
(:class:`AffinePencil`) whose columns carry successive Frobenius powers
of x.  :func:`pair_support` picks disjoint row/column tuples spanning
the non-diagonal part of R(0); appending one free diagonal index to
both yields a minor linear in a single Frobenius power, so each free
index gives one closed-form candidate root (:func:`candidate_roots`),
and the search keeps the candidate that drops the pencil rank below
half the dimension.  With an invertible first block,
:func:`_nonsingular_core` takes a single candidate straight from one
minor ratio.

All functions are pure; concurrent calls are safe and their operation
counts (see :class:`spreadcodes.gf.OpCount`) tally independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import _from_digits
from .linalg import Matrix, _eliminate, hstack, minor, rank, rref
from .linalg import disjoint_pivot_tuples
from .spread import Codeword, SpreadCode, Subspace, subspace_distance

REASON_NO_CODEWORD = "no codeword within distance"
# Only the pencil search returns it; kept because bench/tracing.py counts it.
REASON_AMBIGUOUS = "multiple candidates passed the rank test"
REASON_DIMENSION = "received dimension is at least twice the codeword dimension"


@dataclass(frozen=True)
class ReceivedSpace:
    """A received subspace split into r blocks of k columns each."""
    subspace: Subspace
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"block size must be at least 1, got {self.k}")
        if self.subspace.dim < 1:
            raise ValueError("received space must have dimension at least 1")
        if self.subspace.ambient % self.k:
            raise ValueError("ambient dimension is not a multiple of k")

    @property
    def r(self) -> int:
        return self.subspace.ambient // self.k

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def blocks(self) -> list[Matrix]:
        basis = self.subspace.basis
        return [basis.columns_slice(i * self.k, (i + 1) * self.k)
                for i in range(self.r)]


@dataclass(frozen=True)
class DecodeResult:
    codeword: Codeword | None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.codeword is not None


def _fail(reason: str) -> DecodeResult:
    return DecodeResult(None, reason)


@dataclass(frozen=True)
class AffinePencil:
    """The matrix pencil R(x) = coeff * diag(x, x^q, ...) - offset over
    F_{q^k}; entry (i, j) is coeff[i,j] * x^(q^j) - offset[i,j]."""
    coeff: Matrix
    offset: Matrix

    def __post_init__(self):
        if (self.coeff.field != self.offset.field
                or self.coeff.nrows != self.offset.nrows
                or self.coeff.ncols != self.offset.ncols):
            raise ValueError("pencil parts must match in field and shape")

    @property
    def field(self):
        return self.coeff.field

    def at_zero(self) -> Matrix:
        return -self.offset

    def at(self, mu) -> Matrix:
        """R(mu).  A coefficient 0 or +-1 costs no multiplication, as in
        the row kernel ``axpy``."""
        ext = self.field
        minus_one = ext.neg(ext.one)
        pows = [ext.element(mu)]
        for _ in range(self.coeff.ncols - 1):
            pows.append(ext.frobenius(pows[-1], 1))
        rows = []
        for arow, brow in zip(self.coeff.data, self.offset.data):
            rows.append([ext.sub(p if a == ext.one
                                 else ext.neg(p) if a == minus_one
                                 else ext.mul(a, p) if a else a, b)
                         for a, p, b in zip(arow, pows, brow)])
        return Matrix._of_rows(ext, rows, self.coeff.ncols)


@dataclass(frozen=True)
class PairSupport:
    """Support data for the general pairwise step: the pencil in RREF
    coordinates plus the tuple selection feeding the candidate roots.
    All indices are 1-based columns/rows of the pencil."""
    pencil: AffinePencil
    rows: tuple[int, ...]      # disjoint row tuple with nonzero minor
    cols: tuple[int, ...]      # matching column tuple
    free: tuple[int, ...]      # diagonal indices appended one at a time


def candidate_roots(pencil: AffinePencil, rows, cols, free) -> list[tuple]:
    """Closed-form roots of the pencil minor on rows+free, cols+free.

    For each index c in ``free`` the minor picks up the factor
    x^(q^(c-1)) + m1/m0 with m0 the minor of R(0) on (rows, cols) and m1
    the minor on (rows+(c,), cols+(c,)); undoing the Frobenius power
    gives the candidate mu_c = (-m1/m0)^(q^(k-c+1)).  Returns (c, mu_c)
    pairs in the order of ``free``.
    """
    if not free:
        raise ValueError("no free indices to build candidates from")
    ext = pencil.field
    R0 = pencil.at_zero()
    den = minor(R0, tuple(rows), tuple(cols))
    if den == ext.zero:
        raise ArithmeticError("support minor vanished; tuple selection is "
                              "out of contract")
    den_inv = ext.inv(den)
    out = []
    for c in free:
        num = minor(R0, tuple(rows) + (c,), tuple(cols) + (c,))
        ratio = ext.mul(num, den_inv)
        mu = ext.frobenius(ext.neg(ratio), (ext.k - (c - 1)) % ext.k)
        out.append((c, mu))
    return out


def pair_support(R1: Matrix, R2: Matrix, code: SpreadCode) -> PairSupport | None:
    """Build the pencil and tuple selection for the general pairwise
    step, assuming rank(R1) >= rank(R2) > (dim-1)/2.

    Returns None when the selection cannot produce any candidate, which
    certifies that no codeword lies within distance k of the input.
    """
    ktil = R1.nrows
    k = code.k
    ext = code.ext
    S = code.diagonalizer
    res = rref(hstack(R1.lift(ext) @ S, R2.lift(ext) @ S))
    piv1 = [c for c in res.pivot_cols if c <= k]
    piv2 = [c - k for c in res.pivot_cols if c > k]
    r1 = len(piv1)  # rank(R1), as S is invertible
    if piv1 != list(range(1, r1 + 1)):
        raise AssertionError("pivots escaped the leading columns")
    coeff = res.matrix.columns_slice(0, k)
    offset = res.matrix.columns_slice(k, 2 * k)
    pencil = AffinePencil(coeff, offset)
    excluded = set(piv2)
    eligible = [i for i in range(1, r1 + 1) if i not in excluded]
    R0 = pencil.at_zero()
    sub0 = R0.submatrix([i - 1 for i in eligible], [i - 1 for i in eligible])
    if sub0.is_diagonal():
        rows: tuple[int, ...] = ()
        cols: tuple[int, ...] = ()
    else:
        loc_rows, loc_cols = disjoint_pivot_tuples(sub0)
        rows = tuple(eligible[i - 1] for i in loc_rows)
        cols = tuple(eligible[i - 1] for i in loc_cols)
    s = len(rows)
    n_free = (ktil + 1) // 2 - (ktil - r1) - s
    avail = [i for i in eligible if i not in rows and i not in cols]
    if n_free < 1 or n_free > len(avail):
        return None
    return PairSupport(pencil, rows, cols, tuple(avail[:n_free]))


def _membership_point(code: SpreadCode, A: Matrix):
    """Step-1 acceptance: the pair (I A) is a codeword exactly when A
    lies in F_q[P].  Returns mu of the pair codeword [1 : mu], read by
    :meth:`SpreadCode.element_of`, or None."""
    return code.element_of(A)


def _nonsingular_core(A: Matrix, code: SpreadCode):
    """Closed-form candidate for A = R1^(-1) R2 with R1 invertible: mu
    of the pair codeword [1 : mu], or the failure reason.  The pair step
    calls it only after the membership test, so D = S^(-1) A S is not
    diagonal; on a diagonal D the formula would give D[0, 0]."""
    k = code.k
    ext = code.ext
    D = code.conjugate(A)
    R0 = -D
    c = (k - 1) // 2
    corner = R0.submatrix(range(c), range(k - c, k))
    s = rank(corner)
    rows = tuple(range(2, s + 2))
    cols = tuple(range(k - s + 1, k + 1))
    den = minor(R0, rows, cols)
    if den == ext.zero:
        return REASON_NO_CODEWORD
    num = minor(R0, (1,) + rows, (1,) + cols)
    mu = ext.neg(ext.mul(num, ext.inv(den)))
    if 2 * rank(code.frobenius_diag(mu) - D) <= k - 1:
        return mu
    return REASON_NO_CODEWORD


def _pair_step(code: SpreadCode, d: int):
    """The pair step at received dimension d, as (read, solve): read(R)
    gives the points phi(u) of the rows u of R for interpolation (q = 2,
    t >= 2), else their Moore rows u S[:, :t+1] for the dense solve, and
    solve(a, b, t, ext) on those of (Rj Ri) gives mu, or the reason."""
    if code.q == 2 and d >= 5:
        return (lambda R: [_from_digits(u, 2) for u in R.data],
                _interpolated_point)
    ext, S = code.ext, code.diagonalizer.columns_slice(0, (d - 1) // 2 + 1)
    return (lambda R: (R.lift(ext) @ S).data), _dense_point


def _interpolated_point(a: list, b: list, t: int, ext):
    """The pair step for q = 2 by linearized Koetter interpolation on
    the points (a, b), one per row of (Rj Ri), at t = (d-1)/2: mu of
    the pair codeword [1 : mu], or the failure reason.

    Each live polynomial is one row [N_0, V_0, its values at the points
    ahead, last point first] and its q-degree, starting as x and y: N_0
    and V_0 are its x- and y-coefficients of q-degree 0.  At each point
    the live polynomial s of least (degree, index) among those with a
    nonzero value D there clears the other's value with one ``axpy`` on
    the whole row, then becomes s^2 - D s: each value v ahead becomes
    v (v + D) and the coefficients scale by D.  An s at degree t is
    dropped instead, after clearing the other: past degree t it can
    never be the answer, and the survivor, now of lower degree, would
    only ever clear it, never the reverse.  The survivor of least
    (degree, index) gives mu = N_0 / V_0.
    """
    live = [[[1, 0] + a[::-1], 0], [[0, 1] + b[::-1], 0]]
    for _ in range(len(a)):
        hit = [(p[0].pop(), p) for p in live]
        hit = [(v, p) for v, p in hit if v]
        if not hit:
            continue
        ds, s = min(hit, key=lambda vp: vp[1][1])
        for v, o in hit:
            if o is not s:
                c = v if ds == 1 else ext.mul(v, ext.inv(ds))
                o[0] = ext.axpy(o[0], c, s[0])
        if s[1] == t:
            live.remove(s)
            if not live:
                return REASON_NO_CODEWORD
        else:
            n0, v0, *ahead = s[0]
            s[0] = ([ext.mul(n0, ds), ext.mul(v0, ds)]
                    + ext.square_plus(ahead, ds))
            s[1] += 1
    n0, v0 = min(live, key=lambda p: p[1])[0]
    if not v0:
        return REASON_NO_CODEWORD
    return n0 if v0 == 1 else ext.mul(n0, ext.inv(v0))


def _dense_point(a: tuple, b: tuple, t: int, ext):
    """The pair step as one dense Welch-Berlekamp solve on the Moore rows
    a, b of (Rj Ri): mu of the pair codeword [1 : mu], or the failure
    reason.  Row l of the system lists
    the Moore entries b^(q^1..q^t), a^(q^1..q^t), a, then b; after
    forward elimination N_0 is fixed exactly when the column of a holds
    the last pivot."""
    rows = [list(y[1:] + x[1:] + (x[0], y[0])) for x, y in zip(a, b)]
    pivots, _ = _eliminate(ext, rows, 2 * t + 2)
    col, inv = pivots[-1]
    if col != 2 * t:
        # A pivot in b's column leaves no solution; none in a's leaves
        # N_0 free.  Either way no codeword is within the radius.
        return REASON_NO_CODEWORD
    pivot, rhs = rows[len(pivots) - 1][col:]
    if inv is None:
        inv = ext.inv(pivot)
    return rhs if inv == ext.one else ext.mul(rhs, inv)


def decode_pair(R1: Matrix, R2: Matrix, code: SpreadCode) -> DecodeResult:
    """Decode the two-block space spanned by (R1 R2) with :func:`decode`.

    The stacked matrix (R1 R2) must have full row rank.
    """
    code = code.pairwise()
    ktil = R1.nrows
    pair = Subspace.from_generators(hstack(R1, R2))
    if ktil < 1 or pair.dim != ktil:
        raise ValueError("pair blocks must stack to a full-row-rank basis")
    return decode(ReceivedSpace(pair, code.k), code)


def decode(received: ReceivedSpace, code: SpreadCode) -> DecodeResult:
    """Minimum-distance decoding of an r-block received space.

    Block ranks at most (d-1)/2 pin the matching codeword blocks to
    zero; the first block above that threshold is the identity
    position, and each remaining high-rank block is recovered by a pair
    step against it.  Any pair-step failure, and any assembled answer
    at distance k or more, is a failure.  A space over a field other
    than the code's base field is a ValueError, raised before any block
    is read.
    """
    d = received.dim
    k, r = code.k, code.r
    sub = received.subspace
    if received.r != r or sub.ambient != code.n or sub.field != code.base:
        raise ValueError("received space does not match the code layout")
    if d >= 2 * k:
        return _fail(REASON_DIMENSION)
    blocks = received.blocks
    ranks = [rank(b) for b in blocks]
    high = [i for i, t in enumerate(ranks) if 2 * t > d - 1]
    if not high:
        return _fail(REASON_NO_CODEWORD)
    j, ext = high[0], code.ext
    Rj, I = blocks[j], Matrix.identity(code.base, k)
    # Normalized as built: the blocks before j are pinned, point[j] is 1.
    point, reps = [ext.zero] * r, [Matrix.zeros(code.base, k, k)] * r
    point[j], reps[j] = ext.one, I
    read, solve = _pair_step(code, d)
    lead = None
    for i in high[1:]:
        M = Ri = blocks[i]
        mu = _membership_point(code, Ri) if Rj == I else None
        if mu is None:
            lead = lead or read(Rj)
            mu = solve(lead, read(Ri), (d - 1) // 2, ext)
            if isinstance(mu, str):
                return _fail(mu)
            M = code.matrix_rep(mu)
            if r > 2 and 2 * rank(Rj @ M - Ri) > d - 1:
                return _fail(REASON_NO_CODEWORD)
        point[i], reps[i] = mu, M
    cw = code._codeword(point, reps)
    if subspace_distance(sub, cw.subspace) >= k:
        return _fail(REASON_NO_CODEWORD)
    return DecodeResult(cw)
