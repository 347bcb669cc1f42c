"""Spread-code construction and subspace geometry.

A spread code over F_q with block size k and r blocks is the set of
k-dimensional subspaces of F_q^(rk) spanned by rows of block matrices
(A_1 ... A_r) whose blocks all come from the matrix field F_q[P], where
P is the companion matrix of a monic irreducible polynomial of degree k.
Distinct codewords intersect trivially, the codewords cover the whole
ambient space, the minimum subspace distance is the maximum possible 2k,
and the code size (q^n - 1)/(q^k - 1) meets the anticode bound for that
distance.

Codewords correspond to points of the projective space P^(r-1)(F_{q^k}):
the point [v_1 : ... : v_r] maps to the row space of (M(v_1) ... M(v_r))
where M is the coefficient-wise isomorphism onto F_q[P].
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property

from .gf import (ExtField, PrimeField, _from_digits, check_coefficients,
                 find_irreducible, is_prime, parse_uint)
from .linalg import (Matrix, hstack, inverse, parse_matrix_lines, rank,
                     rref, vstack)


class Subspace:
    """Row space of a matrix over F_q, held as its canonical basis: the
    RREF with zero rows dropped.  Equal subspaces have equal bases,
    which equality, hashing, :meth:`SpreadCode.is_codeword` and the
    decoder read."""

    __slots__ = ("basis",)

    def __init__(self, M: Matrix):
        res = rref(M)
        self.basis = Matrix._of_rows(M.field, res.matrix.data[:res.rank],
                                     M.ncols)

    @classmethod
    def from_generators(cls, M: Matrix) -> "Subspace":
        """The row space of an arbitrary generator matrix; the same as
        ``Subspace(M)``."""
        return cls(M)

    @classmethod
    def _of_rref(cls, basis: Matrix) -> "Subspace":
        """The row space of a matrix already in RREF with no zero rows,
        taken as its basis with no elimination."""
        sub = cls.__new__(cls)
        sub.basis = basis
        return sub

    @property
    def field(self):
        return self.basis.field

    @property
    def ambient(self) -> int:
        return self.basis.ncols

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def contains(self, vector) -> bool:
        """Whether the space holds the vector, whose entries must lie
        in 0..q-1."""
        row = Matrix(self.field, [vector])
        return rank(vstack(self.basis, row)) == self.dim

    def __eq__(self, other):
        return isinstance(other, Subspace) and other.basis == self.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """Subspace metric dim(U+V) - dim(U∩V), computed from the rank of
    the stacked bases."""
    if U.ambient != V.ambient or U.field != V.field:
        raise ValueError("subspaces live in different ambient spaces")
    return 2 * rank(vstack(U.basis, V.basis)) - U.dim - V.dim


@dataclass(frozen=True)
class Codeword:
    """A spread codeword: a normalized projective point over F_{q^k}
    together with the subspace it encodes.  Each coordinate of ``point``
    is a field element of ``code.ext``; ``code.ext.to_str`` writes one
    as the digits of a point file."""
    point: tuple
    subspace: Subspace

    def __eq__(self, other):
        return isinstance(other, Codeword) and other.point == self.point

    def __hash__(self):
        return hash(self.point)


def companion_matrix(field: PrimeField, modulus) -> Matrix:
    """Companion matrix of a monic polynomial: ones on the first upper
    off-diagonal, negated low coefficients in the last row.  Each
    coefficient must lie in 0..q-1."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    check_coefficients(modulus, field.q)
    z, o = field.zero, field.one
    rows = [[o if j == i + 1 else z for j in range(k)] for i in range(k - 1)]
    rows.append([field.neg(modulus[j]) for j in range(k)])
    return Matrix._of_rows(field, rows, k)


class SpreadCode:
    """A spread code instance with everything fixed per code: the base
    and extension fields, the companion matrix P, and the matrix of
    Frobenius-conjugate eigenvectors of P used by the decoder.
    ``modulus`` is None for the default, or the k low coefficients
    p_0 ... p_{k-1}, each in 0..q-1, of a monic irreducible.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, q: int, k: int, r: int, modulus=None):
        if r < 2:
            raise ValueError("need at least two blocks")
        self.base = PrimeField(q)
        if modulus is None:
            full = find_irreducible(q, k)
        elif len(modulus) == k:
            full = tuple(modulus) + (1,)
        else:
            raise ValueError(f"modulus must have degree {k}, given as its "
                             f"{k} low coefficients")
        self.ext = ExtField(self.base, full)
        self.q = q
        self.k = k
        self.r = r
        self.n = r * k
        self.modulus = full
        self.P = companion_matrix(self.base, full)
        self.alpha = self.ext.gen()
        self.diagonalizer = self._build_diagonalizer()

    def _build_diagonalizer(self) -> Matrix:
        """S, whose column j is the eigenvector (1, b, ..., b^(k-1)) of P
        for b = alpha^(q^j).  ExtField has accepted the modulus as
        irreducible, so the k conjugates b are distinct: S is invertible
        and S^(-1) P S = diag(alpha, alpha^q, ...).  Row u of a base
        matrix times column j of S is phi(u)^(q^j), where phi reads u as
        the digits of a field element."""
        ext, k = self.ext, self.k
        # alpha^i = x^i is already reduced for i < k: the int q^i.
        col = [self.q ** i for i in range(k)]
        cols = [col]
        for _ in range(k - 1):
            cols.append([ext.frobenius(v, 1) for v in cols[-1]])
        return Matrix._of_rows(ext, zip(*cols), k)

    @cached_property
    def diagonalizer_inv(self) -> Matrix:
        """S^(-1), built on first use.  Only the eigenbasis change of
        :meth:`conjugate` reads it, and :func:`decoder.decode` never
        does.  As Frobenius shifts the columns of S cyclically, row i+1
        of S^(-1) is the Frobenius image of row i."""
        return inverse(self.diagonalizer)

    # -- code parameters ----------------------------------------------------

    def pairwise(self) -> "SpreadCode":
        """The two-block code with the same fields and companion matrix,
        used for pairwise decoding instances.  It shares this code's
        fields, companion matrix and diagonalizer instead of rebuilding
        them."""
        if self.r == 2:
            return self
        return self._pairwise_cache

    @cached_property
    def _pairwise_cache(self) -> "SpreadCode":
        pair = copy.copy(self)
        pair.__dict__.pop("_codeword_cache", None)
        pair.r, pair.n = 2, 2 * self.k
        return pair

    @property
    def size(self) -> int:
        return (self.q ** self.n - 1) // (self.q ** self.k - 1)

    @property
    def min_distance(self) -> int:
        return 2 * self.k

    def header_fields(self) -> tuple[int, ...]:
        """The integers of the header line: q, k, r, p_0 ... p_{k-1}."""
        return (self.q, self.k, self.r) + self.modulus[:self.k]

    def header(self) -> str:
        return " ".join(str(x) for x in self.header_fields())

    @classmethod
    def from_header(cls, line: str) -> "SpreadCode":
        """The code a header line names, refused by
        :func:`check_code_limits` before anything is built."""
        q, k, r, *modulus = parse_header(line)
        check_code_limits(q, k, r)
        return cls(q, k, r, tuple(modulus))

    # -- the matrix field F_q[P] --------------------------------------------

    def matrix_rep(self, a) -> Matrix:
        """The matrix in F_q[P] whose coefficient vector is a: the sum of
        a_i P^i.  A ring isomorphism from F_{q^k}; its first row equals
        the coefficient vector, which :meth:`element_of` reads back.

        Row i is the coefficient vector of a*x^i, so each row is the one
        above times P: shifted one place right, plus its last entry
        times the last row of P.  That costs O(k^2) base operations."""
        f = self.base
        row = list(self.ext.digits(self.ext.element(a)))
        last = self.P.row(self.k - 1)
        rows = [row]
        for _ in range(self.k - 1):
            row = f.axpy([f.zero] + row[:-1], row[-1], last)
            rows.append(row)
        return Matrix._of_rows(f, rows, self.k)

    def element_of(self, A: Matrix):
        """The element a with matrix_rep(a) == A, or None when A is not a
        k x k matrix over F_q in F_q[P], the centralizer of P: an O(k^2)
        test of A P == P A with no product.  A Matrix was checked when
        built, so its first row is read unchecked."""
        if A.field != self.base or A.nrows != self.k or A.ncols != self.k:
            return None
        a = _from_digits(A.row(0), self.q)
        return a if A == self.matrix_rep(a) else None

    def frobenius_diag(self, mu) -> Matrix:
        """diag(mu, mu^q, ..., mu^(q^(k-1))) over the extension field."""
        ext = self.ext
        vals = [ext.element(mu)]
        for _ in range(self.k - 1):
            vals.append(ext.frobenius(vals[-1], 1))
        return Matrix.diagonal(ext, vals)

    def conjugate(self, M: Matrix) -> Matrix:
        """Change a base-field k-by-k matrix to the eigenbasis of P.  The
        inner product M S has base-field coefficients, so for q = 2 and 3
        it costs no extension-field multiplication."""
        return self.diagonalizer_inv @ (M.lift(self.ext) @ self.diagonalizer)

    # -- encoding and enumeration -------------------------------------------

    def normalize_point(self, point) -> tuple:
        ext = self.ext
        coords = [ext.element(v) for v in point]
        if len(coords) != self.r:
            raise ValueError(f"point needs {self.r} coordinates")
        lead = next((i for i, v in enumerate(coords) if v != ext.zero), None)
        if lead is None:
            raise ValueError("the zero tuple is not a projective point")
        if coords[lead] != ext.one:
            scale = ext.inv(coords[lead])
            coords = [ext.mul(scale, v) for v in coords]
        return tuple(coords)

    def encode(self, point) -> Codeword:
        """Codeword of a projective point: the row space of the block
        matrix whose i-th block is matrix_rep(v_i).  The coordinates may
        be field elements or digit sequences.  The normalized point makes
        that matrix (0 ... 0 | I | M(v) ...), which is already in RREF."""
        coords = self.normalize_point(point)
        return self._codeword(coords, map(self.matrix_rep, coords))

    def _codeword(self, coords, blocks) -> Codeword:
        """The codeword of a normalized point from its blocks M(v_i)."""
        return Codeword(tuple(coords), Subspace._of_rref(hstack(*blocks)))

    def codewords(self):
        """All (q^n - 1)/(q^k - 1) codewords, one per projective point,
        the coordinate after the leading 1 varying fastest."""
        ext = self.ext
        for lead in range(self.r):
            tail = self.r - lead - 1
            for rest in itertools.product(ext.elements(), repeat=tail):
                point = (ext.zero,) * lead + (ext.one,) + rest[::-1]
                yield self.encode(point)

    @cached_property
    def _codeword_cache(self):
        if self.size > 10 ** 6:
            raise ValueError(f"code too large to enumerate ({self.size})")
        return tuple(self.codewords())

    def codeword_list(self) -> tuple:
        """Materialized codeword tuple, cached; guarded against large codes."""
        return self._codeword_cache

    # -- membership ----------------------------------------------------------

    def is_codeword(self, W: Subspace) -> bool:
        """Exact membership read off the RREF basis of W, over F_q.  A
        codeword's RREF is (0 ... 0 | I | M(v) ...), so W is one when its
        first nonzero block is I and every later block lies in F_q[P].
        Every nonzero element of F_q[P] is invertible, so a later block
        needs no rank test."""
        if W.dim != self.k or W.ambient != self.n:
            return False
        k, basis = self.k, W.basis
        # Row 0 of an RREF basis starts at the leftmost pivot.
        j = next(c for c, a in enumerate(basis.row(0)) if a) // k
        lead, *rest = (basis.columns_slice(i * k, (i + 1) * k)
                       for i in range(j, self.r))
        return (lead == Matrix.identity(self.base, k)
                and all(self.element_of(B) is not None for B in rest))


# ---------------------------------------------------------------------------
# Subspace file format: the code header line, then the basis matrix in
# the linalg text format over F_q.

MAX_FIELD_ORDER = 1 << 32
MAX_R = 64


def check_code_limits(q: int, k: int, r: int) -> None:
    """Refuse code parameters from outside the program that would cost
    more than a bounded build: k >= 2, k <= 32 and q^k <= 2^32, q prime,
    and 2 <= r <= MAX_R (so |S| < 2^2048 prints in at most 617 digits).
    ValueError names the value at fault."""
    if k < 2:
        raise ValueError("k must be at least 2")
    # Checked before primality, which then trial-divides q <= 2^16 only.
    # For q >= 2, k > 32 puts q^k above the limit without computing it.
    if k > 32 or q ** k > MAX_FIELD_ORDER:
        raise ValueError(f"q^k must be at most 2^32, got {q}^{k}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not 2 <= r <= MAX_R:
        raise ValueError(f"r must be in 2..{MAX_R}, got {r}")


def parse_header(line: str) -> tuple[int, ...]:
    """The integers of a code header "q k r p_0 ... p_{k-1}", checked
    for shape only; ValueError when the line is malformed."""
    try:
        parts = tuple(parse_uint(x) for x in line.split())
    except ValueError as exc:
        raise ValueError(f"bad code header {line!r}") from exc
    if len(parts) < 4:
        raise ValueError(f"bad code header {line!r}")
    if len(parts) != 3 + parts[1]:
        raise ValueError(f"header lists {len(parts) - 3} coefficients, "
                         f"expected {parts[1]}")
    return parts


def format_subspace(code: SpreadCode, sub: Subspace) -> str:
    from .linalg import format_matrix
    return code.header() + "\n" + format_matrix(sub.basis)


def parse_subspace(text: str, code: SpreadCode | None = None):
    """(code, subspace) of a subspace file; the header builds the code
    within :func:`check_code_limits`, or must match ``code``, which may
    lie beyond those limits.  Blank lines are skipped.  Every malformed
    line, a width other than n, or a basis spanning only the zero space
    raises a ValueError starting "line N:" for the line at fault."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty subspace file")
    head_no, header = lines[0]
    try:
        if code is None:
            code = SpreadCode.from_header(header)
        elif parse_header(header) != code.header_fields():
            raise ValueError(f"file header {header!r} does not match the "
                             f"requested code {code.header()!r}")
    except ValueError as exc:
        raise ValueError(f"line {head_no}: {exc}") from exc
    if len(lines) < 2:
        raise ValueError(f"line {head_no}: missing matrix size line")
    size_no = lines[1][0]
    M = parse_matrix_lines(code.base, lines[1:])
    sub = Subspace.from_generators(M)
    if sub.dim < 1:
        raise ValueError(f"line {size_no}: basis spans only the zero space")
    if M.ncols != code.n:
        raise ValueError(f"line {size_no}: expected {code.n} columns, "
                         f"found {M.ncols}")
    return code, sub
