"""Minimum-distance decoding of spread codes.

The received space W, of dimension d, is kept as the blocks R_1 ... R_r
of its RREF basis.  :func:`decode` pins blocks of rank at most (d-1)/2
to zero; each other block i is found by one pair step against the first
high-rank block j, which always leads.  The first step reads the d rows
(u | v) of the raw blocks (R_j R_i) as pairs of field elements
a = phi(u), b = phi(v), where phi reads a row as the base-q digits of
a field element.  Over F_2 a matrix holds each row as an int with
column j at bit j (:mod:`spreadcodes.linalg`), so block j of a basis
row is a shift and a mask of it, and that int is phi(u) itself.  The
rows are read unchecked: they come from a received space that
:func:`decode` has matched to the code's base field, and every entry
was checked when its matrix was built.
The pair codeword [1 : mu] holds the rows (u, u M(mu)), and
phi(u M(mu)) = mu phi(u), so finding mu decodes a one-dimensional
Gabidulin code whose evaluation points are the a (Gabidulin 1985; Silva,
Kschischang and Koetter 2008: a spread-code pair led by I is a lifted
MRD code).  With t = floor((d-1)/2), one linear Welch-Berlekamp system

    sum_{j=0..t} N_j a^(q^j) + sum_{j=1..t} V_j b^(q^j) = b

over the rows it reads gives mu = N_0: the first 2t + 1 for q <= 3 and
t >= 1, else all d (see below).  Within distance k - 1 of a codeword C,
W holds at most t error dimensions, so the span W' of the rows read
meets C in a space of dimension above t.  Q(x) = mu x - V(mu x) - N(x)
has q-degree at most t and vanishes on the images a of W' ∩ C, so
Q = 0 and every solution has N_0 = mu.  The Moore columns a^(q^j) are
u S[:, j] for the eigenvector matrix S of the companion matrix, a
product that costs nothing for q = 2 and 3.  A space led by I is
tested for exact membership first.

Forward elimination of that dense s x (2t+2) system, on s = 2t + 1
rows or d, costs about s^3/3 ext ops.  For q = 2 and t >= 2 (d >= 5)
the pair step instead finds the least bivariate linearized
Q(x, y) = N(x) + V(y) of q-degree at most t that vanishes on the d
points by Koetter's interpolation in its linearized form (Koetter
and Kschischang 2008; Loidreau's Welch-Berlekamp-like decoder, 2006,
is the same algorithm), in about d^2 ext ops:
:func:`_interpolated_point`.  Within the radius that Q is c L(y - mu x)
for the subspace polynomial L of the error values, so mu = -N_0 / V_0.
It builds no Moore matrix: in characteristic 2 the update
s^q - D^(q-1) s of a value v is v (v + D), one counted product.
The two live polynomials are two row handles of the field
(``ExtField.rows``: a slotted int on a packed F_{2^k}, a list on a
table field), each loaded once with its values ahead and then N_0 and
V_0, from which each point is popped in turn.  The coefficients ride in
the products each step already makes: a clear is one ``axpy`` on the
handle by v/D, one ``ExtField.div``, and ``square_plus`` takes each
value v ahead to v^2 + D v and scales the two coefficients by D, in one
call.  For odd q
that update needs two or more products per value while the Moore
columns of the dense solve cost nothing, and for t <= 1 the dense
system is at most 4 x 4; in both cases the dense solve stays, and it
is cheaper there in counted ops.

The rows the dense solve drops are not lost: the rank test below reads
every row, so no answer is accepted on fewer rows, and a spurious mu
that the shorter system gives beyond the radius fails it.  Over F_2 and
F_3 such a mu costs no counted op, as ``matrix_rep`` and ``R_j @ M``
multiply only by 0 or +-1.  For q >= 5 they charge products by other
digits, so there the dense solve reads all d rows, as do the
interpolation, whose final division would run before the rank test
rejects, and the step at t = 0, which looks for a row with a = 1 among
all rows.

The codeword C is built from the blocks the decode holds, with no
encode, and accepted only within distance k - 1 of W, so
out-of-contract inputs fail rather than miscorrect.  W + C is C plus
the rows of X = (X_i), i != j, X_i = R_j M_i - R_i (R_i for a pinned
block, 0 for a membership pair), so dist(W, C) = k - d + 2 rank(X).
The decode reads the X_i one at a time, pinned blocks first, and keeps
the rows u W for a basis u of the left kernel of those read, d - rho
rows for their stacked rank rho, with the columns of the blocks read
set to zero, as no later step reads them.  Within the radius the rows
u W hold W's intersection with C and at most t - rho error dimensions,
and d - rho > 2 (t - rho), so the next pair step on them at
t' = t - rho is exact: the blocks of a spread codeword form an
interleaved Gabidulin code, whose error space all pairs share (Loidreau
and Overbeck 2006; Sidorenko, Jiang and Bossert 2011).  At t' = 0 the
step is one division.  One elimination of (X_i | rows) over the
columns of X_i, with block i of the rows set to zero so that no row
update multiplies there, gives its rank and the next rows
(``linalg._kernel_split``); the last block needs only its rank.  The
decode ends once 2 rho > d - 1 and otherwise accepts, with no distance
check; for r = 2 the one pair's rank decides.  The lead block R_j is
read only if a pair step runs, once per set of rows.  A space of
dimension 2k or more lies at distance k or more from every codeword and
is refused at once.

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

from .gf import _from_digits
from .linalg import Matrix, Record, _eliminate, _kernel_split, hstack, minor
from .linalg import disjoint_pivot_tuples, rank, rref
from .spread import Codeword, SpreadCode, Subspace

REASON_NO_CODEWORD = "no codeword within distance"
# Only the pencil search returns it; kept because bench/tracing.py counts it.
REASON_AMBIGUOUS = "multiple candidates passed the rank test"
REASON_DIMENSION = "received dimension is at least twice the codeword dimension"


class ReceivedSpace(Record):
    """A received subspace split into r blocks of k columns each."""

    __slots__ = ("subspace", "k")

    def __init__(self, subspace: Subspace, k: int):
        if k < 1:
            raise ValueError(f"block size must be at least 1, got {k}")
        if subspace.dim < 1:
            raise ValueError("received space must have dimension at least 1")
        if subspace.ambient % k:
            raise ValueError("ambient dimension is not a multiple of k")
        self._set(subspace, k)

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


class DecodeResult(Record):
    """A decoded codeword, or None and the reason no codeword was found."""

    __slots__ = ("codeword", "reason")

    def __init__(self, codeword: Codeword | None, reason: str = ""):
        self._set(codeword, reason)

    @property
    def ok(self) -> bool:
        return self.codeword is not None


def _fail(reason: str) -> DecodeResult:
    return DecodeResult(None, reason)


class AffinePencil(Record):
    """The matrix pencil R(x) = coeff * diag(x, x^q, ...) - offset over
    F_{q^k}; entry (i, j) is coeff[i,j] * x^(q^j) - offset[i,j]."""

    __slots__ = ("coeff", "offset")

    def __init__(self, coeff: Matrix, offset: Matrix):
        if (coeff.field != offset.field or coeff.nrows != offset.nrows
                or coeff.ncols != offset.ncols):
            raise ValueError("pencil parts must match in field and shape")
        self._set(coeff, offset)

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
        pows = ext._orbit(ext.element(mu), self.coeff.ncols)
        rows = []
        for arow, brow in zip(self.coeff.data, self.offset.data):
            rows.append([ext.sub(p if a == ext.one
                                 else ext.neg(p) if a == minus_one
                                 else ext.mul(a, p) if a else a, b)
                         for a, p, b in zip(arow, pows, brow)])
        return Matrix._of_rows(ext, rows, self.coeff.ncols)


class PairSupport(Record):
    """Support data for the general pairwise step: the pencil in RREF
    coordinates plus the tuple selection feeding the candidate roots.
    All indices are 1-based columns/rows of the pencil: ``rows`` is a
    disjoint row tuple with nonzero minor, ``cols`` the matching column
    tuple and ``free`` the diagonal indices appended one at a time."""

    __slots__ = ("pencil", "rows", "cols", "free")

    def __init__(self, pencil: AffinePencil, rows: tuple, cols: tuple,
                 free: tuple):
        self._set(pencil, rows, cols, free)


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


def _pair_step(code: SpreadCode, d: int, t: int):
    """The pair step on d rows at t, as (read, solve): read(R) gives the
    points of the rows of R, and solve(a, b, t, ext) on those of (Rj Ri)
    gives mu, or the reason.  A step on all d0 rows has t = (d0-1)/2, so
    d <= 2t + 2; one on the d0 - rho kernel rows has t = t0 - rho.  The
    solver is chosen at (q, d, t) from counted ops:

    * t = 0 on more than two rows, which only kernel rows give: one
      division on the points phi(u), :func:`_divided_point`, free at a
      row with a = 1, where the dense solve also clears every row;
    * q = 2 and d >= 5: the interpolation on the points phi(u), which on
      kernel rows at t = 1 also beats the dense solve;
    * else the dense solve on the Moore rows u S[:, :t+1], read off
      only the first 2t + 1 rows for q <= 3 and t >= 1: within the
      radius any 2t + 1 of the rows fix mu, and :func:`decode` ranks
      X_i on all of them.  For q >= 5 it reads all d rows, as a
      spurious mu from fewer rows would pay for ``matrix_rep`` and
      ``R_j @ M`` before the rank rejects it.

    At t = 0 and d <= 2, which a step on all rows also has, the dense
    solve stays, on all rows."""
    if t == 0 and d > 2:
        if code.q == 2:
            return (lambda R: R.bits), _divided_point
        q = code.q
        return (lambda R: [_from_digits(u, q) for u in R.data]), _divided_point
    if code.q == 2 and d >= 5:
        return (lambda R: R.bits), _interpolated_point
    ext, S = code.ext, code.diagonalizer.columns_slice(0, t + 1)
    if code.q > 3 or t == 0:
        return (lambda R: (R.lift(ext) @ S).data), _dense_point
    n = 2 * t + 1
    return (lambda R: (R._top(n).lift(ext) @ S).data), _dense_point


def _divided_point(a: list, b: list, t: int, ext):
    """The pair step at t = 0: within the radius every point is clean,
    b = mu a, so mu = b/a at a row with a = 1 where there is one, at no
    cost, else at the first a != 0.  Some a is nonzero: the rows span a
    space of dimension d - rho > d - rank(R_j).  The rank test that
    follows checks every other point."""
    n = a.index(1) if 1 in a else next(n for n, x in enumerate(a) if x)
    return b[n] if a[n] == 1 else ext.div(b[n], a[n])


def _interpolated_point(a: list, b: list, t: int, ext):
    """The pair step for q = 2 by linearized Koetter interpolation on
    the points (a, b), one per row of (Rj Ri), at t = (d-1)/2: mu of
    the pair codeword [1 : mu], or the failure reason.

    The live polynomials, x and y at the start, are two row handles
    (``ExtField.rows``) and their q-degrees dx and dy.  A handle holds
    the values at the points ahead, the next point first, so each point
    is popped off the front, and after them N_0 and V_0, its x- and
    y-coefficients of q-degree 0.  At each point the polynomial s of
    least degree, x on a tie, among those with a nonzero value D there
    clears the other's value v, o - (v/D) s: one ``div`` unless D is 1,
    then one ``axpy`` on the whole handle.  Then s becomes s^2 - D s:
    each value v ahead becomes v (v + D) and the coefficients scale by
    D, in one ``square_plus``.  An s at degree t is dropped instead,
    after clearing the other: past degree t it can never be the answer,
    and the survivor, now of lower degree, would only ever clear it, so
    the points left run on the survivor alone.  The survivor of least
    degree, x on a tie, is left holding only N_0 and V_0, and gives
    mu = N_0 / V_0.
    """
    rows = ext.rows
    x, y = rows.load([*a, 1, 0]), rows.load([*b, 0, 1])
    dx = dy = n = 0
    for n in range(len(a) - 1, -1, -1):
        vx, x = rows.pop(x)
        vy, y = rows.pop(y)
        if vx and (dx <= dy or not vy):
            if vy:
                y = rows.axpy(y, vy if vx == 1 else ext.div(vy, vx), x)
            if dx == t:
                s, ds = y, dy
                break
            x = rows.square_plus(x, vx, n, 2)
            dx += 1
        elif vy:
            if vx:
                x = rows.axpy(x, vx if vy == 1 else ext.div(vx, vy), y)
            if dy == t:
                s, ds = x, dx
                break
            y = rows.square_plus(y, vy, n, 2)
            dy += 1
    else:
        s, ds = (x, dx) if dx <= dy else (y, dy)
    for n in range(n - 1, -1, -1):
        v, s = rows.pop(s)
        if v:
            if ds == t:
                return REASON_NO_CODEWORD
            s = rows.square_plus(s, v, n, 2)
            ds += 1
    n0, s = rows.pop(s)
    v0 = rows.pop(s)[0]
    if not v0:
        return REASON_NO_CODEWORD
    return n0 if v0 == 1 else ext.div(n0, v0)


def _dense_point(a: tuple, b: tuple, t: int, ext):
    """The pair step as one dense Welch-Berlekamp solve on the Moore rows
    a, b of (Rj Ri) that :func:`_pair_step` reads, the first 2t + 1 for
    q <= 3 and t >= 1, else all: mu of the pair codeword [1 : mu], or
    the failure reason.  Row l of the system lists the Moore entries
    b^(q^1..q^t), a^(q^1..q^t), a, then b; after forward elimination
    N_0 is fixed exactly when the column of a holds the last pivot.  On
    2t + 1 rows beyond the radius the mu found may be spurious; the
    rank of X_i on every row, which follows, rejects it.  A zero
    right-hand side gives mu = 0 with no division."""
    rows = [list(y[1:] + x[1:] + (x[0], y[0])) for x, y in zip(a, b)]
    pivots, _ = _eliminate(ext, rows, 2 * t + 2)
    col, inv = pivots[-1]
    if col != 2 * t:
        # A pivot in b's column leaves no solution; none in a's leaves
        # N_0 free.  Either way no codeword is within the radius.
        return REASON_NO_CODEWORD
    pivot, rhs = rows[len(pivots) - 1][col:]
    if not rhs:
        return rhs
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
    step against it, on the rows that the blocks before it proved
    clean.  Any pair-step failure, and any answer at distance k or
    more, is a failure.  A space over a field other than the code's
    base field is a ValueError, raised before any block is read.
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
    t = (d - 1) // 2
    high = [i for i, s in enumerate(ranks) if s > t]
    if not high:
        return _fail(REASON_NO_CODEWORD)
    j, ext = high[0], code.ext
    Rj, I = blocks[j], code.identity_block
    # Normalized as built: the blocks before j are pinned, point[j] is 1.
    point, reps = [ext.zero] * r, [code.zero_block] * r
    point[j], reps[j] = ext.one, I
    # X_i = R_j M_i - R_i, and X_i = R_i for a pinned block, pinned
    # blocks first.  rows is None while rho = 0, for all d rows.
    order = [i for i, s in enumerate(ranks) if s <= t] + high[1:]
    last = order[-1]
    rho, rows, lead = 0, None, None
    for i in order:
        if ranks[i] > t:
            M = blocks[i]
            mu = _membership_point(code, M) if Rj == I else None
            if mu is not None:      # X_i = 0
                point[i], reps[i] = mu, M
                continue
            if lead is None:
                Rl = Rj if rows is None else rows.columns_slice(j * k,
                                                                (j + 1) * k)
                read, solve = _pair_step(code, d - rho, t - rho)
                lead = read(Rl)
            Ri = M if rows is None else rows.columns_slice(i * k, (i + 1) * k)
            mu = solve(lead, read(Ri), t - rho, ext)
            if isinstance(mu, str):
                return _fail(mu)
            point[i] = mu
            reps[i] = M = code.matrix_rep(mu)
            X = Rl @ M - Ri
        elif rows is None:
            if i == last:
                break               # rho = rank(R_i) <= t
            X = blocks[i]
        else:
            X = rows.columns_slice(i * k, (i + 1) * k)
        if i == last:
            rho += rank(X)
        else:
            s, kept = _kernel_split(X, sub.basis if rows is None else rows,
                                    i * k)
            if s:
                rho, rows, lead = rho + s, kept, None
        if rho > t:
            return _fail(REASON_NO_CODEWORD)
    return DecodeResult(code._codeword(point, reps))
