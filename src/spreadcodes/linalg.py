"""Dense exact linear algebra over the fields in :mod:`spreadcodes.gf`.

A single :class:`Matrix` type serves both F_q and F_{q^k}; entries are
the fields' int elements, and a base-field entry 0..q-1 is already its
own embedding in the extension field.  ``Matrix(field, rows)`` checks
each entry once, with the package's one element test
:func:`spreadcodes.gf.is_element`: a plain int, not a bool, in range.
A matrix derived from checked ones, or parsed by
:func:`parse_matrix_lines` from digits that ``from_str`` has checked,
is built unchecked with its width given, so no kernel checks entries
and a matrix with no rows keeps its width.  Matrices are immutable and
every operation returns a fresh matrix, so they can be shared freely
between threads.

One elimination loop, :func:`_eliminate`, serves :func:`rref`,
:func:`det`, :func:`inverse` and :func:`rank`.  Its row updates, the
back pass of :func:`rref` and every product ``A @ B`` (each output row
a sum of rows of B scaled by the entries of A) run through the field's
row kernel ``axpy``.  The kernel charges nothing for a product by 0 or
+-1, so a product with a base-field matrix of 0/+-1 entries, such as a
lifted F_2 or F_3 matrix, costs no multiplication at all.

Over F_2 itself, :func:`rref` (and so :func:`inverse`), :func:`rank`
and ``A @ B`` skip both: they run on rows packed into ints, one byte
per column, where every row update is one XOR and nothing is charged.
One packed reduction gives :func:`rank`; :func:`rref` runs it again,
backward over that basis.  Only :func:`det` runs the loop over F_2.

Row and column tuples for minors are 1-based and order-sensitive: the
minor of rows (2, 1) is the negative of the minor of rows (1, 2), and a
repeated index makes the minor vanish.  The empty minor is 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import xor

from .gf import PrimeField, is_element, parse_uint


class Matrix:
    """Immutable dense matrix over a PrimeField or ExtField.  Its rows
    have equal length and each entry is an element of the field, a
    plain int in 0..q-1 over F_q or 0..q^k-1 over F_{q^k}: the
    constructor raises a ValueError that names the first entry that is
    not.  ``Matrix(field, [])`` is 0 x 0."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, rows):
        data = tuple(map(tuple, rows))
        if len(set(map(len, data))) > 1:
            raise ValueError("ragged rows")
        n = len(field.elements())
        for row in data:
            for a in row:
                if not is_element(a, n):
                    raise ValueError(f"entry {a!r} is outside 0..{n - 1}")
        self.field, self.data, self.nrows = field, data, len(data)
        self.ncols = len(data[0]) if data else 0

    @classmethod
    def _of_rows(cls, field, rows, ncols: int) -> "Matrix":
        """A matrix from rows of ncols field elements each, unchecked:
        the rows of checked matrices or field operations on them.  The
        width is given, so a matrix with no rows keeps it."""
        M = cls.__new__(cls)
        M.field, M.data = field, tuple(map(tuple, rows))
        M.nrows, M.ncols = len(M.data), ncols
        return M

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls._of_rows(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls._of_rows(field, [[o if i == j else z for j in range(n)]
                                    for i in range(n)], n)

    @classmethod
    def diagonal(cls, field, values) -> "Matrix":
        values = list(values)
        z = field.zero
        n = len(values)
        return cls(field, [[values[i] if i == j else z for j in range(n)]
                           for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.data == self.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Each output row is the sum of the rows of ``other`` scaled by
        the nonzero entries of the matching row of ``self``, through the
        field's row kernel ``axpy``: a coefficient of +-1 costs no
        multiplication.  Over F_2 the sum is an XOR of packed rows."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        if _is_gf2(f):
            rows = _pack(other.data)
            return _unpack(f, [reduce(xor, itertools.compress(rows, arow), 0)
                               for arow in self.data], other.ncols)
        zero = [f.zero] * other.ncols
        out = []
        for arow in self.data:
            acc = zero
            for a, brow in zip(arow, other.data):
                if a:
                    acc = f.axpy(acc, a, brow)
            out.append(acc)
        return Matrix._of_rows(f, out, other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        return Matrix._of_rows(f, [[f.add(a, b) for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.data, other.data)],
                               self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        return Matrix._of_rows(f, [[f.sub(a, b) for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.data, other.data)],
                               self.ncols)

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix._of_rows(f, [[f.neg(a) for a in row]
                                   for row in self.data], self.ncols)

    def _same_shape(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def scale(self, value) -> "Matrix":
        f = self.field
        Matrix(f, [[value]])               # the scalar is checked as an entry
        return Matrix._of_rows(f, [[f.mul(value, a) for a in row]
                                   for row in self.data], self.ncols)

    def transpose(self) -> "Matrix":
        # zip(*rows) of no rows gives no columns, not ncols empty ones.
        cols = zip(*self.data) if self.data else [()] * self.ncols
        return Matrix._of_rows(self.field, cols, self.nrows)

    def submatrix(self, rows, cols) -> "Matrix":
        """Submatrix at 0-based index sequences, kept in the given order."""
        return Matrix._of_rows(self.field, [[self.data[i][j] for j in cols]
                                            for i in rows], len(cols))

    def row(self, i: int) -> tuple:
        return self.data[i]

    def columns_slice(self, start: int, stop: int) -> "Matrix":
        return Matrix._of_rows(self.field,
                               [row[start:stop] for row in self.data],
                               len(range(self.ncols)[start:stop]))

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(a == z for row in self.data for a in row)

    def is_diagonal(self) -> bool:
        z = self.field.zero
        return all(a == z for i, row in enumerate(self.data)
                   for j, a in enumerate(row) if i != j)

    def lift(self, ext) -> "Matrix":
        """Reinterpret a base-field matrix over the extension field.  The
        entries stay as they are: 0..q-1 encode the same elements in
        both fields."""
        if ext.base != self.field:
            raise ValueError("extension field does not extend this field")
        return Matrix._of_rows(ext, self.data, self.ncols)


def vstack(*mats: Matrix) -> Matrix:
    field = mats[0].field
    ncols = mats[0].ncols
    rows = []
    for m in mats:
        if m.field != field or m.ncols != ncols:
            raise ValueError("vstack needs matching fields and widths")
        rows.extend(m.data)
    return Matrix._of_rows(field, rows, ncols)


def hstack(*mats: Matrix) -> Matrix:
    field = mats[0].field
    nrows = mats[0].nrows
    for m in mats:
        if m.field != field or m.nrows != nrows:
            raise ValueError("hstack needs matching fields and heights")
    return Matrix._of_rows(field, [sum(parts, ()) for parts in
                                   zip(*(m.data for m in mats))],
                           sum(m.ncols for m in mats))


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form of a matrix, with its rank and pivots."""
    matrix: Matrix
    rank: int
    pivot_cols: tuple[int, ...]  # 1-based, ascending


def _clear(f, row: list, g, prow: list, col: int):
    """row -= g * prow in place, where that zeroes row[col] and both rows
    are zero left of col."""
    row[col:] = [f.zero] + f.axpy(row[col + 1:], f.neg(g), prow[col + 1:])


def _eliminate(f, R: list, ncols: int):
    """Forward elimination of the row lists R, in place, to row echelon
    form.  Returns one (column, pivot inverse) pair per pivot row, the
    inverse None if no row below needed it and never computed for a
    pivot of +-1, and the number of row swaps."""
    z, one = f.zero, f.one
    minus_one = f.neg(one)
    pivots, swaps = [], 0
    for col in range(ncols):
        r = len(pivots)
        if r == len(R):
            break
        p = next((i for i in range(r, len(R)) if R[i][col] != z), None)
        if p is None:
            continue
        if p != r:
            R[r], R[p] = R[p], R[r]
            swaps += 1
        piv = R[r][col]
        # +-1 is its own inverse, and g = +-row[col] needs no product.
        inv = piv if piv == one or piv == minus_one else None
        for row in R[r + 1:]:
            if row[col] != z:
                if inv is None:
                    inv = f.inv(piv)
                g = (row[col] if inv == one
                     else f.neg(row[col]) if inv == minus_one
                     else f.mul(row[col], inv))
                _clear(f, row, g, R[r], col)
        pivots.append((col, inv))
    return pivots, swaps


def rref(M: Matrix) -> RrefResult:
    f = M.field
    if _is_gf2(f):
        return _rref_gf2(M)
    R = [list(row) for row in M.data]
    pivots, _ = _eliminate(f, R, M.ncols)
    # Bottom up, so each pivot row is already clear in the later pivot
    # columns when it is scaled and subtracted from the rows above.
    for r in range(len(pivots) - 1, -1, -1):
        col, inv = pivots[r]
        prow = R[r]
        if prow[col] != f.one:
            if inv is None:
                inv = f.inv(prow[col])
            tail = prow[col + 1:]
            prow[col:] = [f.one] + f.axpy([f.zero] * len(tail), inv, tail)
        for row in R[:r]:
            if row[col] != f.zero:
                _clear(f, row, row[col], prow, col)
    return RrefResult(Matrix._of_rows(f, R, M.ncols), len(pivots),
                      tuple(col + 1 for col, _ in pivots))


def _is_gf2(f) -> bool:
    return isinstance(f, PrimeField) and f.q == 2


def _pack(rows) -> list[int]:
    """Rows over F_2 as ints, column j in byte j: XOR never carries
    between bytes, so the bytes stay 0 or 1, and the entry in column j
    is bit 8j."""
    return [int.from_bytes(bytes(row), "little") for row in rows]


def _unpack(f, xs, ncols: int) -> Matrix:
    return Matrix._of_rows(f, [x.to_bytes(ncols, "little") for x in xs],
                           ncols)


def _echelon_gf2(xs) -> list:
    """The one packed reduction over F_2: each row is reduced by the
    basis rows before it, keyed by their pivot bit (the lowest), and
    what is left of it, if anything, joins the basis.  No basis row
    holds the pivot of an earlier one, so the basis length is the
    rank."""
    basis = []
    for x in xs:
        for low, b in basis:
            if x & low:
                x ^= b
        if x:
            basis.append((x & -x, x))
    return basis


def _rref_gf2(M: Matrix) -> RrefResult:
    # The backward pass is the same reduction over the basis reversed:
    # each row is cleared at the pivots of the rows after it, which are
    # cleared already, and keeps its own pivot.  Then sort by pivot.
    basis = _echelon_gf2(_pack(M.data))
    basis = sorted(_echelon_gf2([b for _, b in reversed(basis)]))
    rows = [b for _, b in basis]
    R = _unpack(M.field, rows + [0] * (M.nrows - len(rows)), M.ncols)
    return RrefResult(R, len(rows), tuple((low.bit_length() - 1) // 8 + 1
                                          for low, _ in basis))


def rank(M: Matrix) -> int:
    f = M.field
    if _is_gf2(f):
        return len(_echelon_gf2(_pack(M.data)))
    return len(_eliminate(f, [list(row) for row in M.data], M.ncols)[0])


def det(M: Matrix):
    if M.nrows != M.ncols:
        raise ValueError("determinant needs a square matrix")
    f = M.field
    R = [list(row) for row in M.data]
    pivots, swaps = _eliminate(f, R, M.ncols)
    if len(pivots) < M.nrows:
        return f.zero
    acc = R[0][0] if R else f.one
    for i in range(1, len(R)):
        acc = f.mul(acc, R[i][i])
    return f.neg(acc) if swaps % 2 else acc


def inverse(M: Matrix) -> Matrix:
    """The right half of the RREF of (M | I)."""
    if M.nrows != M.ncols:
        raise ValueError("inverse needs a square matrix")
    n = M.nrows
    res = rref(hstack(M, Matrix.identity(M.field, n)))
    if n and res.pivot_cols[n - 1] != n:
        raise ZeroDivisionError("matrix is singular")
    return res.matrix.columns_slice(n, 2 * n)


def minor(M: Matrix, rows: tuple, cols: tuple):
    """Determinant of the submatrix at 1-based row/column tuples, taken
    in tuple order.  Empty tuples give 1; repeated indices give 0."""
    if len(rows) != len(cols):
        raise ValueError("row and column tuples must have equal length")
    if any(i < 1 or i > M.nrows for i in rows):
        raise IndexError("row index out of range")
    if any(j < 1 or j > M.ncols for j in cols):
        raise IndexError("column index out of range")
    return det(M.submatrix([i - 1 for i in rows], [j - 1 for j in cols]))


def disjoint_pivot_tuples(M: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row-operation search for disjoint 1-based tuples J, L with a
    nonzero minor [J;L] that cannot be extended: every minor on
    J+(j), L+(l) with distinct j, l outside J and L vanishes.

    Runs in O(k^3) field operations.  The input must be square and
    must have a nonzero off-diagonal entry.
    """
    if M.nrows != M.ncols:
        raise ValueError("square matrix required")
    if M.is_diagonal():
        raise ValueError("matrix is diagonal")
    f = M.field
    z = f.zero
    k = M.nrows
    N = [list(row) for row in M.data]
    J: list[int] = []
    L: list[int] = []
    # Pivot rows are consumed in ascending order; a row with no usable
    # entry leaves the pivot pool but its column stays scannable, so
    # support below exhausted rows is still found.
    pivot_rows = list(range(1, k + 1))
    columns = list(range(1, k + 1))
    while pivot_rows:
        j = pivot_rows[0]
        hit = next((l for l in columns if l != j and N[j - 1][l - 1] != z),
                   None)
        if hit is None:
            pivot_rows.remove(j)
            continue
        J.append(j)
        L.append(hit)
        pivot_rows = [x for x in pivot_rows if x != j and x != hit]
        columns = [x for x in columns if x != j and x != hit]
        pivot_inv = f.inv(N[j - 1][hit - 1])
        base = N[j - 1]
        for i in range(j, k):  # rows strictly below the pivot row
            a = N[i][hit - 1]
            if a != z:
                N[i] = f.axpy(N[i], f.neg(f.mul(a, pivot_inv)), base)
    return tuple(J), tuple(L)


# ---------------------------------------------------------------------------
# Text format: first line "rows cols", then one line per row of
# space-separated element serializations in the field's digit format.

def format_matrix(M: Matrix) -> str:
    lines = [f"{M.nrows} {M.ncols}"]
    for row in M.data:
        lines.append(" ".join(M.field.to_str(a) for a in row))
    return "\n".join(lines) + "\n"


def parse_matrix(field, text: str) -> Matrix:
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty matrix text")
    return parse_matrix_lines(field, lines)


def parse_matrix_lines(field, lines) -> Matrix:
    """Parse the text format from its non-blank lines, given as
    (line number, text) pairs: the size line, then the rows.  Every
    ValueError starts with "line N:" for the line at fault."""
    size_no, size = lines[0]
    try:
        nrows, ncols = map(parse_uint, size.split())
    except ValueError as exc:
        raise ValueError(f"line {size_no}: bad size line {size!r}") from exc
    if len(lines) != nrows + 1:
        raise ValueError(f"line {size_no}: expected {nrows} rows, "
                         f"found {len(lines) - 1}")
    width = getattr(field, "k", 1)
    rows = []
    for lineno, ln in lines[1:]:
        digits = ln.split()
        if len(digits) != ncols * width:
            raise ValueError(f"line {lineno}: expected {ncols * width} "
                             f"digits, found {len(digits)}")
        try:
            rows.append([field.from_str(" ".join(digits[c:c + width]))
                         for c in range(0, len(digits), width)])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    # from_str has checked every digit and the loop every row width.
    return Matrix._of_rows(field, rows, ncols)
