"""Exact arithmetic in prime fields F_q and extension fields F_{q^k}.

Every element is a plain int.  In F_q it is the residue 0..q-1.  In
F_{q^k} = F_q[x]/(p) the polynomial a_0 + a_1 x + ... + a_{k-1} x^(k-1)
is the int a_0 + a_1 q + ... + a_{k-1} q^(k-1): its base-q digits,
lowest first.  The base field therefore sits inside the extension as
0..q-1, the residue class of x is the int q, and ``ExtField.elements()``
is ``range(q**k)``.  Digit tuples appear only at the text boundary:
``to_str``/``from_str``, point and subspace files.

One test, :func:`is_element`, decides what counts as an element or a
digit: a plain int, not a bool, in range.  ``Matrix(field, rows)``,
both forms of :meth:`ExtField.element` and :func:`check_coefficients`
apply it to what a caller passes.  Values the package already holds,
such as the rows of a checked matrix, are read without it, through
``_from_digits``.

The default modulus of F_{q^k} is the first monic irreducible of degree
k in a fixed candidate order (:func:`find_irreducible`).  Each candidate
is tested by Ben-Or's gcd test on coefficient lists in at most
O(k^3 log q) base operations, where trial division needs up to q^(k/2)
divisions.

Extension-field multiplication uses one of three kernels, fixed when
the field is built:

* q^k <= TABLE_LIMIT (2^16): exp/log tables over a primitive element,
  held in ``array`` storage.  ``mul``, ``inv`` and ``frobenius`` are
  lookups; for odd q, addition goes through a table of Zech logarithms
  (Huber, *Some comments on Zech's logarithms*, IEEE Trans. IT 1990).
* larger fields with q = 2: a carry-less product of the packed ints
  from a table of the 16 multiples a*n, one shifted lookup per 4-bit
  window n of b.  The high half h of the product, at most k - 1 bits, is
  reduced by fold tables built once per field, fold_i[n] = n*x^(k+8i)
  mod p: one lookup and XOR per byte of h.  Every q = 2 field builds
  them, since the exp/log fill multiplies through this kernel when x is
  not primitive.  Squaring is F_2-linear, so ``frobenius`` reads a^2
  off byte tables frob_i[n] = (n*x^(8i))^2 mod p (Hankerson, Menezes
  and Vanstone 2004, polynomial squaring), one lookup per byte of a.
* larger fields with odd q: schoolbook multiplication of digit lists;
  ``frobenius`` applies the k images (x^i)^q to the digits of a.

For q = 2, addition and subtraction are XOR in every case.

Both field classes have a row kernel, ``axpy(xs, g, ys)`` = xs + g*ys
entry by entry, which is the inner loop of elimination and of matrix
products in :mod:`spreadcodes.linalg`.  It runs one branch per kernel
above: for q = 2 tables an exp/log lookup and an XOR per entry, for
odd-q tables one Zech addition per entry, for packed odd q one raw
product per nonzero entry.  The packed q = 2 branch works on the whole
row at once.  The row becomes one int with each entry in its own slot
of 64*ceil((2k - 1)/64) bits, wide enough for an unreduced product;
g*y is then the XOR of that int shifted by each set bit of g, and one
Barrett reduction, two products by constants of the field, brings every
slot below x^k.  So each step is one big-int operation per row, not a
table walk per entry.  For q = 2 a second row kernel,
``square_plus(ys, g)`` = y*(y + g) = y^2 + g*y per entry, is the value
update of the decoder's interpolation; packed, it squares every slot
by spreading its bits with masks, adds g*y and reduces once.

Multiplications and inversions are tallied on the innermost active
:class:`OpCount` of the current thread, separately per field layer, so
decoding costs can be profiled in field operations rather than wall time.
The row kernels charge their products in one step: ``axpy`` one
multiplication per nonzero entry of ys, and none at all when g is 0 or
+-1; ``square_plus`` one per entry.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array

# Fields with at most this many elements multiply through exp/log tables.
# Filling them takes about a microsecond per element in pure Python, so
# the limit keeps construction cheap: 0.05 s at 2^16 elements, where
# 2^20 would take about a second.
TABLE_LIMIT = 1 << 16
# Array type code for table entries: signed, at least 32 bits.
_TYPECODE = "i" if array("i").itemsize >= 4 else "l"
# The slotted rows of the packed q = 2 row kernels are arrays of 64-bit
# words read as one little-endian int.
_WORD = (1 << 64) - 1
_BIG_ENDIAN = sys.byteorder == "big"


class _Local(threading.local):
    current = None


_ACTIVE = _Local()
_LOCK = threading.Lock()
# OpCount contexts open in any thread.  While it is 0 the field kernels
# skip the thread-local lookup; the counter itself stays per thread.
_open_counters = 0


class OpCount:
    """Tally of field multiplications and inversions.

    Used as a context manager.  While active, every multiplication and
    inversion performed by a PrimeField is charged to ``base_mul`` /
    ``base_inv`` and every one performed by an ExtField to ``ext_mul`` /
    ``ext_inv``.  An extension-field multiplication counts as one ext op;
    the base-field work inside it is not double counted.  Counters are
    thread-local and nest, so concurrent decodes tally independently.
    """

    __slots__ = ("base_mul", "base_inv", "ext_mul", "ext_inv", "_prev")

    def __init__(self):
        self.base_mul = 0
        self.base_inv = 0
        self.ext_mul = 0
        self.ext_inv = 0
        self._prev = None

    def __enter__(self):
        global _open_counters
        with _LOCK:
            _open_counters += 1
        self._prev = _ACTIVE.current
        _ACTIVE.current = self
        return self

    def __exit__(self, *exc):
        global _open_counters
        _ACTIVE.current = self._prev
        self._prev = None
        with _LOCK:
            _open_counters -= 1
        return False

    @property
    def base_total(self) -> int:
        return self.base_mul + self.base_inv

    @property
    def ext_total(self) -> int:
        return self.ext_mul + self.ext_inv

    def __repr__(self):
        return (f"OpCount(base_mul={self.base_mul}, base_inv={self.base_inv}, "
                f"ext_mul={self.ext_mul}, ext_inv={self.ext_inv})")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _power(mul, a, e: int):
    """a^e for e >= 0 by left-to-right square-and-multiply through
    ``mul``: bit_length(e) - 1 squarings and popcount(e) - 1 products."""
    if not e:
        return 1
    out = a
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


def parse_uint(s: str) -> int:
    """A non-negative integer written in the ASCII digits 0-9 only;
    ``int`` alone would also take a sign, underscores and other
    scripts' digits."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"{s!r} is not a number in digits 0-9")
    return int(s)


def is_element(a, n: int) -> bool:
    """The package's one element test: a is an element of a field with
    n elements, or a digit when n = q, exactly when it is a plain int
    (not a bool) in 0..n-1.  A float, a bool, None or a numpy scalar is
    not, whatever its value."""
    return type(a) is int and 0 <= a < n


def _parse_digit(s: str, q: int) -> int:
    d = parse_uint(s)
    if not is_element(d, q):
        raise ValueError(f"digit {d} is outside 0..{q - 1}")
    return d


def check_coefficients(coeffs, q: int) -> None:
    """A ValueError unless every polynomial coefficient is an element
    of F_q."""
    for i, c in enumerate(coeffs):
        if not is_element(c, q):
            raise ValueError(f"modulus coefficient p_{i} = {c!r} is "
                             f"outside 0..{q - 1}")


class PrimeField:
    """The prime field F_q.  Element values are ints reduced mod q."""

    __slots__ = ("q", "zero", "one")

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"field order must be prime, got {q}")
        self.q = q
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"PrimeField({self.q})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def element(self, value: int) -> int:
        """A plain int (not a bool) reduced mod q; any other value, a
        float, bool, None or numpy scalar, is a ValueError."""
        if type(value) is not int:
            raise ValueError(f"{value!r} is not an element of F_{self.q}")
        return value % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        if _open_counters:
            c = _ACTIVE.current
            if c is not None:
                c.base_mul += 1
        return (a * b) % self.q

    def axpy(self, xs, g: int, ys) -> list[int]:
        """The row xs + g*ys, entry by entry, for g in 0..q-1.  Charges
        one base multiplication per nonzero entry of ys unless g is 0
        or +-1."""
        q = self.q
        if g == 1:
            return [(x + y) % q for x, y in zip(xs, ys)]
        if g == q - 1:
            return [(x - y) % q for x, y in zip(xs, ys)]
        if not g:
            return list(xs)
        if _open_counters:
            c = _ACTIVE.current
            if c is not None:
                c.base_mul += len(ys) - ys.count(0)
        return [(x + g * y) % q for x, y in zip(xs, ys)]

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        if _open_counters:
            c = _ACTIVE.current
            if c is not None:
                c.base_inv += 1
        return pow(a, self.q - 2, self.q)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, a % self.q, e)

    def elements(self):
        return range(self.q)

    def to_str(self, a: int) -> str:
        return str(a % self.q)

    def from_str(self, s: str) -> int:
        """Parse one digit; anything outside 0..q-1 is a ValueError."""
        return _parse_digit(s, self.q)


# ---------------------------------------------------------------------------
# Polynomial helpers over F_q.  Coefficient lists, lowest degree first.
# Construction-time plumbing; none of this is charged to op counters.

def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f, g, q: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % q
    return _poly_trim(out)


def _poly_divmod(num, den, q: int):
    num = list(num)
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        return [], _poly_trim(num)
    quo = [0] * (len(num) - len(den) + 1)
    lead_inv = pow(den[-1], q - 2, q)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] * lead_inv % q
        if c:
            quo[shift] = c
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - c * d) % q
    return _poly_trim(quo), _poly_trim(num[:len(den) - 1])


def _poly_sub(f, g, q: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = (a - b) % q
    return _poly_trim(out)


@functools.lru_cache(maxsize=1)
def poly_is_irreducible(p: tuple[int, ...], q: int) -> bool:
    """Ben-Or's test (Ben-Or, *Probabilistic algorithms in finite
    fields*, FOCS 1981; the early-exit form of Rabin's test).  x^(q^i)
    - x is the product of the monic irreducibles of degree dividing i,
    so a monic p of degree k is irreducible iff gcd(x^(q^i) - x, p) = 1
    for i = 1 .. k/2.  Step i raises h = x^(q^(i-1)) mod p to the q-th
    power by left-to-right square-and-multiply, O(log q) products mod
    p, so a p with a small factor fails within the first steps.  The
    last answer is kept, so the ExtField built on the modulus that
    :func:`find_irreducible` has just returned does not test it again,
    while a later search still runs in full."""
    p = tuple(c % q for c in p)
    k = len(p) - 1
    if k < 1 or p[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    p = list(p)
    bits = bin(q)[3:]                  # q's bits after the leading 1
    h = [0, 1]
    for _ in range(k // 2):
        base = h
        for bit in bits:
            h = _poly_divmod(_poly_mul(h, h, q), p, q)[1]
            if bit == "1":
                h = _poly_divmod(_poly_mul(h, base, q), p, q)[1]
        a, b = p, _poly_sub(h, [0, 1], q)
        while b:
            a, b = b, _poly_divmod(a, b, q)[1]
        if len(a) > 1:
            return False
    return True


def find_irreducible(q: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible polynomial of degree k over F_q.

    Candidates are ordered by the coefficient tuple read from the
    highest non-leading coefficient down, so e.g. x^3+x+1 precedes
    x^3+x^2+1 over F_2.  Deterministic; returns the full coefficient
    tuple (p_0, ..., p_{k-1}, 1).
    """
    if not is_prime(q):
        raise ValueError(f"field order must be prime, got {q}")
    if k < 2:
        raise ValueError("extension degree must be at least 2")
    for high_first in itertools.product(range(q), repeat=k):
        coeffs = tuple(reversed(high_first)) + (1,)
        if poly_is_irreducible(coeffs, q):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _to_digits(a: int, q: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        a, d = divmod(a, q)
        out.append(d)
    return out


def _from_digits(digits, q: int) -> int:
    n = 0
    for d in reversed(digits):
        n = n * q + d
    return n


def _window_values(a0, a1, a2, a3):
    """The XOR of the a_i picked by the bits i of n, for every 4-bit
    value n: with a_i = a*x^i, the table of a*n."""
    a01, a23 = a0 ^ a1, a2 ^ a3
    return (0, a0, a1, a01, a2, a2 ^ a0, a2 ^ a1, a2 ^ a01,
            a3, a3 ^ a0, a3 ^ a1, a3 ^ a01,
            a23, a23 ^ a0, a23 ^ a1, a23 ^ a01)


class _SlottedRows:
    """A row of F_{2^k} elements held as one int for the packed q = 2
    row kernels: entry i in slot i, bits w*i .. w*i + w - 1, with
    w = 64*ceil((2k - 1)/64) bits, room for a product before it is
    reduced.  Rows go in and out through an ``array('Q')``, a slot
    being w/64 words and an entry ceil(k/64) of them.

    A slot r = h*x^k + l of degree at most 2k - 2 is reduced mod p by
    Barrett's method (Barrett, CRYPTO 1986), exact for polynomials:
    with mu = x^(2k) div p, the quotient r div p is a = h*mu div x^k,
    so r mod p = l + (a*(p - x^k) mod x^k).  Both constants are kept as
    their set bits, one shift and XOR each, so a row takes two constant
    products to reduce whatever the modulus."""

    __slots__ = ("k", "stride", "words", "mu", "rest", "shifts",
                 "patterns", "_masks")

    def __init__(self, k: int, bits: int):
        self.k = k
        self.stride = -(-(2 * k - 1) // 64)
        self.words = -(-k // 64)
        mu, r = 0, 1 << 2 * k
        while r >> k:
            shift = r.bit_length() - 1 - k
            mu ^= 1 << shift
            r ^= bits << shift
        self.mu = tuple(i for i in range(k + 1) if mu >> i & 1)
        self.rest = tuple(i for i in range(k) if bits >> i & 1)
        # Squaring spreads bit i of an entry to bit 2i in ceil(log2 k)
        # steps; the step of shift s moves the bits in positions
        # 4s*j + s .. 4s*j + 2s - 1 of a slot up by s.
        self.shifts = []
        s = 1 << (k - 1).bit_length()
        while s > 1:
            s >>= 1
            self.shifts.append(s)
        self.patterns = [(1 << k - 1) - 1, (1 << k) - 1] + [
            sum(1 << i for i in range(64 * self.stride)
                if s <= i % (4 * s) < 2 * s) for s in self.shifts]
        # Sized here for an elimination row of 2k entries, so that a row
        # of any length, an empty one too, finds its masks.
        self._masks = (0, ())
        self.masks(2 * k)

    def masks(self, n: int) -> tuple:
        """The patterns repeated over at least n slots: the low k - 1
        bits, the low k bits, then the squaring steps' moves.  They grow
        by doubling and are kept, since a mask longer than its row costs
        no more to apply; size and masks change in one assignment."""
        size, masks = self._masks
        if size < n:
            w, size = 64 * self.stride, max(n, 2 * size)
            ones = ((1 << w * size) - 1) // ((1 << w) - 1)
            masks = tuple(p * ones for p in self.patterns)
            self._masks = size, masks
        return masks

    def load(self, ys) -> int:
        """The row ys as one int."""
        stride, words = self.stride, self.words
        if stride == 1:                     # k <= 32: a slot is an entry
            a = array("Q", ys)
        else:
            a = array("Q", bytes(8 * stride * len(ys)))
            for j in range(words):
                a[j::stride] = array("Q", ys if words == 1 else
                                     [y >> 64 * j & _WORD for y in ys])
        if _BIG_ENDIAN:
            a.byteswap()
        return int.from_bytes(a, "little")

    def store(self, r: int, n: int) -> list:
        """The n entries of r, each below 2^k."""
        stride = self.stride
        a = array("Q", r.to_bytes(8 * stride * n, "little"))
        if _BIG_ENDIAN:
            a.byteswap()
        out = a[::stride].tolist()
        for j in range(1, self.words):
            out = [v | u << 64 * j for v, u in zip(out, a[j::stride])]
        return out

    def square(self, y: int, n: int) -> int:
        """y^2 in each of the n slots, not reduced."""
        for shift, m in zip(self.shifts, self.masks(n)[2:]):
            t = y & m
            y ^= t ^ t << shift
        return y

    def mul_add(self, r: int, y: int, g: int, n: int) -> int:
        """r + g*y in each of the n slots, reduced mod p, for r of
        degree at most 2k - 2 and y below 2^k per slot: g*y is the XOR
        of y shifted by each set bit of g."""
        while g:
            low = g & -g
            r ^= y << low.bit_length() - 1
            g ^= low
        k = self.k
        mask_h, mask_l = self.masks(n)[:2]
        h, a = r >> k & mask_h, 0
        for b in self.mu:
            a ^= h << b
        a = a >> k & mask_h
        for b in self.rest:
            r ^= a << b
        return r & mask_l


class ExtField:
    """The extension field F_{q^k} = F_q[x]/(p) for monic irreducible p.

    Element values are ints in 0..q^k-1 whose base-q digits, lowest
    first, are the polynomial coefficients; :meth:`gen`, the residue
    class of x, is the int q.  :meth:`element` accepts such an int or a
    digit sequence, and :meth:`digits` gives the digits back.  Fields
    with at most TABLE_LIMIT elements multiply through exp/log tables,
    larger ones through a packed kernel (see the module docstring).
    """

    __slots__ = ("base", "q", "k", "modulus", "order", "zero", "one",
                 "_char2", "_bits", "_red", "_exp", "_log", "_zech",
                 "_half", "_frob", "_fold", "_rows")

    def __init__(self, base: PrimeField, modulus):
        q, modulus = base.q, tuple(modulus)
        check_coefficients(modulus, q)
        k = len(modulus) - 1
        if k < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 2")
        if not poly_is_irreducible(modulus, q):
            raise ValueError(f"modulus {modulus} is reducible over F_{q}")
        self.base = base
        self.q = q
        self.k = k
        self.modulus = modulus
        self.order = q ** k
        self.zero = 0
        self.one = 1
        self._char2 = q == 2
        # The packed kernels reduce by p: as a bit pattern for q = 2;
        # for odd q as _red = digits of x^k mod p.
        self._bits = self._red = self._fold = None
        if self._char2:
            self._bits = sum(c << i for i, c in enumerate(modulus))
            # For the q = 2 _mul_raw: _fold[i][n] = n*x^(k+8i) mod p, one
            # table per byte of the high half of a product, which has at
            # most k - 1 bits.  Built before the exp/log tables, whose
            # fill calls _mul_raw when x is not primitive.
            self._fold = self._byte_tables(self._bits ^ (1 << k), k - 1, 1)
        else:
            self._red = [(-c) % q for c in modulus[:k]]
        self._exp = self._log = self._zech = self._frob = None
        self._rows = None
        self._half = 0
        if self.order <= TABLE_LIMIT:
            self._build_tables()
        else:
            self._build_frobenius_map()
            if self._char2:
                self._rows = _SlottedRows(k, self._bits)

    def _build_tables(self):
        """exp/log over a primitive element g: exp[i] = g^i, stored twice
        so that a sum of two logs needs no reduction, and log[g^i] = i.
        For odd q also zech[d] = log(1 + g^d), or -1 where 1 + g^d = 0.

        Multiplying by x is a shift plus a fold of the top digit, so the
        fill walks by x.  It first walks the powers of x from 1 until it
        returns to 1; the walk's length m is the order of x.  When m is
        n = q^k - 1, x is primitive: g = x and the walk is exp[:n].
        Otherwise g is the least primitive element (tested by powers)
        and the tables are filled along the c = n / m cosets of the
        subgroup <x>: coset 0 is the walk, coset b starts at g^b and
        steps by x.  g^c generates <x>, so it is x^s for s its index in
        the walk, x = g^(c*w) with w = s^-1 mod m, and
        g^b * x^j = g^(b + c*j*w)."""
        q, k = self.q, self.k
        n = self.order - 1
        if self._char2:
            bits = self._bits

            def times_x(e):
                e <<= 1
                return e ^ bits if e >> k else e
        else:
            # e = low + t*x^(k-1) gives e*x = low*x + t*(x^k mod p).  Digit
            # 0 of low*x is 0, so t*red_0 lands as it is; for each higher
            # nonzero red_j, rows[t] holds the change of the whole int for
            # every value d of its digit j.
            top, red = q ** (k - 1), self._red
            low0 = [t * red[0] % q for t in range(q)]
            rows = [[(q ** j, [((d + t * r) % q - d) * q ** j
                               for d in range(q)])
                     for j, r in enumerate(red) if j and r]
                    for t in range(q)]

            def times_x(e):
                t, s = divmod(e, top)
                if not t:
                    return s * q
                s = s * q + low0[t]
                for qj, row in rows[t]:
                    s += row[s // qj % q]
                return s

        def orbit(e):                          # e, e*x, e*x^2, ... until e
            out = [e]
            f = times_x(e)
            while f != e:
                out.append(f)
                f = times_x(f)
            return out

        walk = orbit(1)
        m = len(walk)                          # the order of x
        c = n // m
        g, w = q, 1
        if c > 1:
            primes = _prime_factors(n)
            # x is not primitive, so the search starts after it.
            g = next(g for g in range(q + 1, self.order)
                     if all(self._pow_raw(g, n // p) != 1 for p in primes))
            w = pow(walk.index(self._pow_raw(g, c)), -1, m)
        step = c * w
        exp = array(_TYPECODE, [0]) * (2 * n)
        log = array(_TYPECODE, [0]) * self.order
        start = 1
        for b in range(c):
            if b:
                start = self._mul_raw(start, g)
                walk = orbit(start)
            a = b
            for e in walk:             # e = g^a, a = b + c*(j*w mod m)
                exp[a] = exp[a + n] = e
                log[e] = a
                a += step
                if a >= n:
                    a -= n
        self._exp, self._log = exp, log
        if not self._char2:
            self._half = half = n // 2         # g^(n/2) = -1
            # 1 + e changes only the lowest digit of e.
            self._zech = array(_TYPECODE, (
                -1 if d == half else
                log[e + 1 if e % q != q - 1 else e - (q - 1)]
                for d, e in enumerate(exp[:n])))

    def _byte_tables(self, e, nbits: int, step: int):
        """For q = 2: the F_2-linear map sending bit j of an nbits-bit
        int to e*x^(step*j) mod p, as one table per byte, table i
        mapping n to the image of n << 8i; the last table has 2^w entries
        for its w <= 8 bits.  Each bit doubles the table, appending it
        XORed with the next image."""
        k, bits = self.k, self._bits
        tables = []
        for i in range(0, nbits, 8):
            table = [0]
            for _ in range(min(8, nbits - i)):
                table += [v ^ e for v in table]
                for _ in range(step):
                    e <<= 1
                    if e >> k:
                        e ^= bits
            tables.append(table)
        return tables

    def _build_frobenius_map(self):
        """For the packed kernels, the one Frobenius map a -> a^q.  For
        q = 2 squaring is F_2-linear: _frob[i][n] = (n*x^(8i))^2 mod p,
        one table per byte of a, doubling from the images x^(2j) mod p.
        For odd q, _frob[i] = the digits of (x^i)^q."""
        q, k = self.q, self.k
        if self._char2:
            self._frob = self._byte_tables(1, k, 2)
            return
        xq = self._pow_raw(q, q)
        images = [1]
        for _ in range(1, k):
            images.append(self._mul_raw(images[-1], xq))
        self._frob = [_to_digits(v, q, k) for v in images]

    def __repr__(self):
        return f"ExtField(q={self.q}, k={self.k}, p={self.modulus})"

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.q == self.q
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ExtField", self.q, self.modulus))

    def gen(self) -> int:
        """The residue class of x, a root of the modulus."""
        return self.q

    def element(self, value) -> int:
        """An element from its int encoding, or from a sequence of at
        most k base-q digits, lowest first, each in 0..q-1.  Anything
        not iterable is read as the int encoding, so a float or a bool
        is refused rather than read as digits."""
        if not hasattr(value, "__iter__"):
            if not is_element(value, self.order):
                raise ValueError(f"{value!r} does not encode an element of "
                                 f"F_{self.q}^{self.k}")
            return value
        digits = tuple(value)
        if len(digits) > self.k:
            raise ValueError(f"too many coefficients for degree {self.k}")
        q = self.q
        for d in digits:
            if not is_element(d, q):
                raise ValueError(f"a digit of {digits} is outside 0..{q - 1}")
        return _from_digits(digits, q)

    def digits(self, a: int) -> tuple[int, ...]:
        """The k base-q digits of a, lowest first."""
        return tuple(_to_digits(a, self.q, self.k))

    def in_base(self, a: int) -> bool:
        return a < self.q

    # -- addition ------------------------------------------------------------

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign*b digit by digit, for the packed odd-q kernel."""
        q = self.q
        out, scale = 0, 1
        while a or b:
            a, x = divmod(a, q)
            b, y = divmod(b, q)
            out += (x + sign * y) % q * scale
            scale *= q
        return out

    def add(self, a, b):
        if self._char2:
            return a ^ b
        log = self._log
        if log is None:
            return self._digitwise(a, b, 1)
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a):
        if self._char2 or not a:
            return a
        log = self._log
        if log is None:
            return self._digitwise(0, a, -1)
        return self._exp[log[a] + self._half]

    def sub(self, a, b):
        if self._char2:
            return a ^ b
        if self._log is None:
            return self._digitwise(a, b, -1)
        return self.add(a, self.neg(b))

    # -- multiplication --------------------------------------------------------

    def _mul_raw(self, a, b):
        """Uncounted product by the packed kernel of this characteristic."""
        k = self.k
        if self._char2:
            # Carry-less a*b: one shifted multiple a*n per 4-bit window
            # n of b.
            t = _window_values(a, a << 1, a << 2, a << 3)
            r = t[b & 15]
            b >>= 4
            s = 4
            while b:
                r ^= t[b & 15] << s
                b >>= 4
                s += 4
            # r = low + h*x^k with deg h <= k - 2: each byte of h is
            # reduced by one lookup in its fold table.
            h = r >> k
            if h:
                r ^= h << k
                for fold in self._fold:
                    r ^= fold[h & 255]
                    h >>= 8
            return r
        q = self.q
        da, db = _to_digits(a, q, k), _to_digits(b, q, k)
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] += ai * bj
        # x^i = x^(i-k) * x^k, folded from the top down so each fold
        # lands below the digit it clears.
        red = self._red
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % q
            if c:
                for j, rj in enumerate(red, i - k):
                    prod[j] += c * rj
        return _from_digits([prod[j] % q for j in range(k)], q)

    def mul(self, a, b):
        if _open_counters:
            c = _ACTIVE.current
            if c is not None:
                c.ext_mul += 1
        if not (a and b):
            return 0
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
        return self._mul_raw(a, b)

    def axpy(self, xs, g, ys) -> list:
        """The row xs + g*ys, entry by entry: the inner loop of
        elimination and of matrix products.  Charges one ext_mul per
        nonzero entry of ys unless g is 0 or +-1."""
        if not g:
            return list(xs)
        q = self.q
        if g != 1 and g != q - 1 and _open_counters:
            c = _ACTIVE.current
            if c is not None:
                c.ext_mul += len(ys) - ys.count(0)
        log = self._log
        if self._char2:
            if g == 1:
                return [x ^ y for x, y in zip(xs, ys)]
            if log is None:
                rows, n = self._rows, len(ys)
                r = rows.mul_add(rows.load(xs), rows.load(ys), g, n)
                return rows.store(r, n)
            exp, lg = self._exp, log[g]
            return [x ^ exp[lg + log[y]] if y else x for x, y in zip(xs, ys)]
        if log is None:
            sign = 1
            if g == q - 1:
                sign = -1
            elif g != 1:
                ys = [self._mul_raw(g, y) if y else 0 for y in ys]
            return [self._digitwise(x, y, sign) if y else x
                    for x, y in zip(xs, ys)]
        # One Zech addition per entry: x + g*y = g^lx * (1 + g^(ly - lx)),
        # where a negative index wraps around the period n of the tables.
        exp, zech, n, lg = self._exp, self._zech, self.order - 1, log[g]
        out = []
        for x, y in zip(xs, ys):
            if y:
                ly = lg + log[y]
                if ly >= n:
                    ly -= n
                if x:
                    lx = log[x]
                    z = zech[ly - lx]
                    x = exp[lx + z] if z >= 0 else 0
                else:
                    x = exp[ly]
            out.append(x)
        return out

    def square_plus(self, ys, g) -> list:
        """The row y*(y + g) = y^2 + g*y, entry by entry, for q = 2: the
        value update of the decoder's interpolation.  Charges one ext_mul
        per entry, zeros included, as ``mul(y, y ^ g)`` would."""
        if not self._char2:
            raise ValueError("square_plus needs characteristic 2")
        if _open_counters:
            c = _ACTIVE.current
            if c is not None:
                c.ext_mul += len(ys)
        log = self._log
        if log is not None:
            exp = self._exp
            return [exp[log[y] + log[y ^ g]] if y and y != g else 0
                    for y in ys]
        rows, n = self._rows, len(ys)
        y = rows.load(ys)
        return rows.store(rows.mul_add(rows.square(y, n), y, g, n), n)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in F_{q^k}")
        if _open_counters:
            c = _ACTIVE.current
            if c is not None:
                c.ext_inv += 1
        log = self._log
        if log is not None:
            return self._exp[self.order - 1 - log[a]]
        return self._inv_raw(a)

    def _inv_raw(self, a):
        """Uncounted inverse by the extended Euclidean algorithm."""
        if self._char2:
            # Invariants g1*a = u and g2*a = v mod p (Hankerson, Menezes
            # and Vanstone, Guide to Elliptic Curve Cryptography, 2.48).
            u, v, g1, g2 = a, self._bits, 1, 0
            while u != 1:
                j = u.bit_length() - v.bit_length()
                if j < 0:
                    u, v, g1, g2 = v, u, g2, g1
                    j = -j
                u ^= v << j
                g1 ^= g2 << j
            return g1
        q = self.q
        r0, r1 = list(self.modulus), _poly_trim(_to_digits(a, q, self.k))
        s0, s1 = [], [1]
        while len(r1) > 1:
            quo, rem = _poly_divmod(r0, r1, q)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(quo, s1, q), q)
        scale = pow(r1[0], q - 2, q)
        return _from_digits([x * scale % q for x in s1], q)

    def _pow_raw(self, a, e: int):
        return _power(self._mul_raw, a, e)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, a, e)

    # -- Frobenius and trace ---------------------------------------------------

    def _apply(self, a: int) -> int:
        """a^q by the packed field's Frobenius map (see _frob): for
        q = 2 one lookup per byte of a."""
        frob = self._frob
        if self._char2:
            out = 0
            for table in frob:
                out ^= table[a & 255]
                a >>= 8
            return out
        q, k = self.q, self.k
        acc = [0] * k
        for ai, image in zip(_to_digits(a, q, k), frob):
            if ai:
                for j, v in enumerate(image):
                    acc[j] += ai * v
        return _from_digits([x % q for x in acc], q)

    def frobenius(self, a, j: int):
        """a raised to the q^j power, j mod k.  An F_q-linear map; charges
        k*k base multiplications per call, no extension-field ops."""
        j %= self.k
        if j == 0:
            return a
        if _open_counters:
            c = _ACTIVE.current
            if c is not None:
                c.base_mul += self.k * self.k
        log = self._log
        if log is not None:
            if not a:
                return 0
            n = self.order - 1
            return self._exp[log[a] * pow(self.q, j, n) % n]
        for _ in range(j):                     # a packed field's one map
            a = self._apply(a)
        return a

    def trace(self, a) -> int:
        """Trace down to F_q: the sum of all Frobenius conjugates."""
        acc = conj = a
        for _ in range(self.k - 1):
            conj = self.frobenius(conj, 1)
            acc = self.add(acc, conj)
        if not self.in_base(acc):
            raise ArithmeticError("trace left the base field")
        return acc

    # -- enumeration and text ----------------------------------------------------

    def elements(self):
        """All q^k elements in increasing int order."""
        return range(self.order)

    def to_str(self, a) -> str:
        return " ".join(str(c) for c in self.digits(a))

    def from_str(self, s: str) -> int:
        """Parse k space-separated digits, lowest first; a digit outside
        0..q-1 is a ValueError."""
        parts = s.split()
        if len(parts) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(parts)}")
        return _from_digits([_parse_digit(p, self.q) for p in parts], self.q)
