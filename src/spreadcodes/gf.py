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
``_from_digits``, the one reader of digits.

The default modulus of F_{q^k} is the first monic irreducible of degree
k in a fixed candidate order (:func:`find_irreducible`).  Each candidate
is tested by Ben-Or's gcd test, on bit patterns for q = 2 and on
coefficient lists for odd q, in at most O(k^3 log q) base operations,
where trial division needs up to q^(k/2) divisions.  For odd q a
three-point sieve runs first: a candidate with a root at 0, 1 or -1 is
reducible and skipped, at O(k) per candidate.

Extension-field multiplication uses one of three kernels, fixed when
the field is built:

* q^k <= TABLE_LIMIT (2^16): exp/log tables over a primitive element,
  held in ``array`` storage.  ``mul``, ``inv`` and ``frobenius`` are
  lookups; for odd q, addition goes through a table of Zech logarithms
  (Huber, *Some comments on Zech's logarithms*, IEEE Trans. IT 1990).
* larger fields with q = 2: the carry-less product ``_clmul`` of the
  packed ints, from a table of the 16 multiples a*n, one shifted lookup
  per 4-bit window n of b.  The high half h of the product, at most
  k - 1 bits, is reduced by fold tables built once per field,
  fold_i[n] = n*x^(k+8i) mod p: one lookup and XOR per byte of h.  Every
  q = 2 field builds them, since the exp/log fill multiplies through
  this kernel when x is not primitive.  Squaring is F_2-linear, so
  ``frobenius`` reads a^2 off byte tables frob_i[n] = (n*x^(8i))^2 mod p
  (Hankerson, Menezes and Vanstone 2004, polynomial squaring), one
  lookup per byte of a.
* larger fields with odd q: schoolbook multiplication of digit lists;
  ``frobenius`` applies the k images (x^i)^q to the digits of a.

For q = 2, addition and subtraction are XOR in every case.  ``div(a, b)``
charges what ``mul(a, inv(b))`` does, and costs one Euclid on packed q = 2.

Both field classes have a row kernel, ``axpy(xs, g, ys)`` = xs + g*ys
entry by entry, which is the inner loop of elimination and of matrix
products in :mod:`spreadcodes.linalg`.  It runs one branch per kind of
field: for q = 2 tables an exp/log lookup and an XOR per entry, for
odd-q tables one Zech addition per entry, and for packed fields of
either characteristic one raw product per nonzero entry, none when g
is +-1, then the field's own ``add`` or ``sub``.

A row that stays in a kernel across many steps, as each polynomial of
the decoder's interpolation does (its values ahead, then its two
coefficients of q-degree 0), is held as a row handle of
``ExtField.rows`` (see :class:`_ListRows`).  On a packed q = 2 field the handle is one int
with each entry in its own slot of 64*ceil((2k - 1)/64) bits, wide
enough for an unreduced product.  g*y is then one ``_clmul`` of that
int by g, the product a single element takes, and one Barrett
reduction, two products by constants of the field, brings every slot
below x^k: a few big-int operations per row, not a table walk per
entry, and reading the first entry is a mask and a shift.  On every
other field the handle is a list, as slots lose to one table lookup per
entry.

Multiplications and inversions are tallied on the innermost active
:class:`OpCount` of the current thread, separately per field layer, so
decoding costs can be profiled in field operations rather than wall time.
Every kernel charges through the one helper ``_charge(kind, n)``, called
only while ``_open_counters`` says some counter is open.  The row
kernels charge their products in one step: ``axpy`` one multiplication
per nonzero entry of ys, and none at all when g is 0 or +-1;
``square_plus(h, g, n, m)`` one per entry, n + m in all, zeros included.
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
# The slotted row handles of packed q = 2 fields are loaded from arrays
# of 64-bit words read as one little-endian int.
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


def _charge(kind: str, n: int = 1) -> None:
    """Add n to field ``kind`` of this thread's innermost OpCount, if
    any.  Each kernel tests ``_open_counters`` before it calls this, so
    while no counter is open anywhere the kernels make no call here."""
    c = _ACTIVE.current
    if c is not None:
        setattr(c, kind, getattr(c, kind) + n)


def is_prime(n: int) -> bool:
    return next(_prime_factors(n), None) == n


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
            _charge("base_mul")
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
            _charge("base_mul", len(ys) - ys.count(0))
        return [(x + g * y) % q for x, y in zip(xs, ys)]

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        if _open_counters:
            _charge("base_inv")
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


def _gf2_divmod(a: int, b: int) -> tuple:
    """(a div b, a mod b) for polynomials over F_2 as bit patterns,
    b nonzero: long division by shift and XOR."""
    n, quo = b.bit_length(), 0
    while a.bit_length() >= n:
        s = a.bit_length() - n
        quo ^= 1 << s
        a ^= b << s
    return quo, a


@functools.lru_cache(maxsize=1)
def _gf2_is_irreducible(p: int) -> bool:
    """Ben-Or's test of :func:`poly_is_irreducible` for q = 2 on the
    bit pattern of p: h is squared by ``_clmul`` and reduced, and the
    gcd is Euclid's, each step one ``_gf2_divmod``."""
    h = 2
    for _ in range((p.bit_length() - 1) // 2):
        h = _gf2_divmod(_clmul(h, h), p)[1]
        a, b = p, h ^ 2
        while b:
            a, b = b, _gf2_divmod(a, b)[1]
        if a != 1:
            return False
    return True


@functools.lru_cache(maxsize=1)
def poly_is_irreducible(p: tuple[int, ...], q: int) -> bool:
    """Ben-Or's test (Ben-Or, *Probabilistic algorithms in finite
    fields*, FOCS 1981; the early-exit form of Rabin's test).  x^(q^i)
    - x is the product of the monic irreducibles of degree dividing i,
    so a monic p of degree k is irreducible iff gcd(x^(q^i) - x, p) = 1
    for i = 1 .. k/2.  Step i raises h = x^(q^(i-1)) mod p to the q-th
    power by left-to-right square-and-multiply, O(log q) products mod
    p, so a p with a small factor fails within the first steps.  For
    q = 2 the test runs on ints (:func:`_gf2_is_irreducible`), for odd q
    on coefficient lists.  The last answer of each form is kept, so the
    ExtField built on the modulus that :func:`find_irreducible` has just
    returned does not test it again, while a later search still runs in
    full."""
    p = tuple(c % q for c in p)
    k = len(p) - 1
    if k < 1 or p[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    if q == 2:
        return _gf2_is_irreducible(_from_digits(p, 2))
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
    x^3+x^2+1 over F_2; for q = 2 that is the order of the bit patterns
    as ints.  Deterministic; returns the full coefficient tuple
    (p_0, ..., p_{k-1}, 1).  For odd q a candidate with a root at 0, 1
    or -1 is skipped before Ben-Or's test (:func:`_root_free`): it is
    reducible, so the result is the same, and the sieve costs O(k) per
    candidate whatever q is.
    """
    if not is_prime(q):
        raise ValueError(f"field order must be prime, got {q}")
    if k < 2:
        raise ValueError("extension degree must be at least 2")
    if q == 2:
        p = next(filter(_gf2_is_irreducible, range(1 << k, 2 << k)))
        return tuple(_to_digits(p, 2, k + 1))
    for high_first in itertools.product(range(q), repeat=k):
        coeffs = tuple(reversed(high_first)) + (1,)
        if _root_free(coeffs, q) and poly_is_irreducible(coeffs, q):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _root_free(p, q: int) -> bool:
    """Whether none of 0, 1 and -1 is a root of p over F_q: the sieve of
    the odd-q search, O(k) whatever q is.  A root gives p a linear
    factor, so a p of degree >= 2 that fails is reducible."""
    even, odd = sum(p[::2]), sum(p[1::2])
    return bool(p[0] and (even + odd) % q and (even - odd) % q)


def _prime_factors(n: int):
    """The distinct primes dividing n, ascending, each found by trial
    division only when asked for; none for n < 2."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1 + (f > 2)
    if n > 1:
        yield n


def _to_digits(a: int, q: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        a, d = divmod(a, q)
        out.append(d)
    return out


def _from_digits(digits, q: int) -> int:
    """The element with these base-q digits, lowest first, unchecked."""
    n = 0
    for d in reversed(digits):
        n = n * q + d
    return n


def _clmul(a: int, b: int) -> int:
    """The carry-less product of a and b, polynomials over F_2 as bit
    patterns: one shifted multiple a*n, from a table of the 16, per
    4-bit window n of b."""
    a1, a2, a3 = a << 1, a << 2, a << 3
    a01, a23 = a ^ a1, a2 ^ a3
    t = (0, a, a1, a01, a2, a2 ^ a, a2 ^ a1, a2 ^ a01,
         a3, a3 ^ a, a3 ^ a1, a3 ^ a01,
         a23, a23 ^ a, a23 ^ a1, a23 ^ a01)
    r = s = 0
    while b:
        r ^= t[b & 15] << s
        b >>= 4
        s += 4
    return r


class _SlottedRows:
    """A row of F_{2^k} elements held as one int, the row handle (see
    :class:`_ListRows`) of a packed q = 2 field: entry i in slot i, bits
    w*i .. w*i + w - 1, with w = 64*ceil((2k - 1)/64) bits, room for a
    product before it is reduced.  A row goes in through an
    ``array('Q')``, a slot being w/64 words and an entry ceil(k/64) of
    them, and comes out one entry at a time through ``pop``;
    ``square_plus`` squares its first n slots by spreading their bits,
    masked off the m after them, then adds g*y over the whole row.

    A slot r = h*x^k + l of degree at most 2k - 2 is reduced mod p by
    Barrett's method (Barrett, CRYPTO 1986), exact for polynomials:
    with mu = x^(2k) div p, the quotient r div p is a = h*mu div x^k,
    so r mod p = l + (a*(p - x^k) mod x^k).  Both constants are kept as
    their set bits, one shift and XOR each, so a row takes two constant
    products to reduce whatever the modulus."""

    __slots__ = ("k", "stride", "width", "words", "mu", "rest", "shifts",
                 "patterns", "_masks")

    def __init__(self, k: int, bits: int):
        self.k = k
        self.stride = -(-(2 * k - 1) // 64)
        self.width = 64 * self.stride
        self.words = -(-k // 64)
        mu = _gf2_divmod(1 << 2 * k, bits)[0]
        self.mu = tuple(i for i in range(k + 1) if mu >> i & 1)
        self.rest = tuple(i for i in range(k) if bits >> i & 1)
        # Squaring spreads bit i of an entry to bit 2i in ceil(log2 k)
        # steps; the step of shift s moves the bits in positions
        # 4s*j + s .. 4s*j + 2s - 1 of a slot up by s.  The same shifts
        # OR-fold the k bits of an entry into its lowest bit.
        self.shifts = []
        s = 1 << (k - 1).bit_length()
        while s > 1:
            s >>= 1
            self.shifts.append(s)
        self.patterns = [(1 << k - 1) - 1, (1 << k) - 1, 1] + [
            sum(1 << i for i in range(self.width)
                if s <= i % (4 * s) < 2 * s) for s in self.shifts]
        # Sized here for an elimination row of 2k entries, so that a row
        # of any length, an empty one too, finds its masks.
        self._masks = (0, ())
        self.masks(2 * k)

    def masks(self, n: int) -> tuple:
        """The patterns repeated over at least n slots: the low k - 1
        bits, the low k bits, the lowest bit, then the squaring steps'
        moves.  They grow by doubling and are kept, since a mask longer
        than its row costs no more to apply; size and masks change in
        one assignment."""
        size, masks = self._masks
        if size < n:
            w, size = self.width, max(n, 2 * size)
            ones = ((1 << w * size) - 1) // ((1 << w) - 1)
            masks = tuple(p * ones for p in self.patterns)
            self._masks = size, masks
        return masks

    def _masks_of(self, r: int) -> tuple:
        """The masks covering every nonzero slot of r."""
        return self.masks(-(-r.bit_length() // self.width))

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

    def square(self, y: int) -> int:
        """y^2 in each slot, not reduced."""
        for shift, m in zip(self.shifts, self._masks_of(y)[3:]):
            t = y & m
            y ^= t ^ t << shift
        return y

    def mul_add(self, r: int, y: int, g: int) -> int:
        """r + g*y in each slot, reduced mod p, for r of degree at most
        2k - 2 and y below 2^k per slot: g*y is one carry-less product
        of the whole row by g."""
        r ^= _clmul(y, g)
        k = self.k
        mask_h, mask_l = self._masks_of(r)[:2]
        h, a = r >> k & mask_h, 0
        for b in self.mu:
            a ^= h << b
        a = a >> k & mask_h
        for b in self.rest:
            r ^= a << b
        return r & mask_l

    def count(self, y: int) -> int:
        """The number of nonzero entries of y, for the charge of
        ``axpy``: each slot OR-folded into its lowest bit, then a
        popcount, run only while an OpCount is open."""
        low = self._masks_of(y)[2]
        for shift in self.shifts:
            y |= y >> shift
        return (y & low).bit_count()

    def pop(self, h: int) -> tuple:
        return h & self.patterns[1], h >> self.width

    def axpy(self, x: int, g, y: int) -> int:
        if not g:
            return x
        if g == 1:
            return x ^ y
        if _open_counters:
            _charge("ext_mul", self.count(y))
        return self.mul_add(x, y, g)

    def square_plus(self, h: int, g, n: int, m: int = 0) -> int:
        if _open_counters:
            _charge("ext_mul", n + m)
        return self.mul_add(self.square(h & (1 << self.width * n) - 1), h, g)


class _ListRows:
    """Row handles as lists, last entry first: ``ExtField.rows`` of a
    field of at most TABLE_LIMIT elements or of odd q.  Each call takes
    handles and returns a new one, consuming those it is given:

    * ``load(ys)``: the handle of the row ys;
    * ``pop(h)``: (the first entry, the handle of the rest);
    * ``axpy(x, g, y)``: x + g*y, charged as ``ExtField.axpy``;
    * ``square_plus(h, g, n, m=0)``: for q = 2 and a handle of n + m
      entries, y*(y + g) on each of the first n and g*y on the last m:
      the degree step of the decoder's interpolation, whose handles hold
      the values ahead and then two coefficients.  It charges n + m
      ext_mul, one per entry, zeros included.  In the list, last entry
      first, the m entries are its first m items."""

    __slots__ = ("axpy", "_ext")

    def __init__(self, ext):
        self._ext = ext
        self.axpy = ext.axpy

    def load(self, ys) -> list:
        return [*reversed(ys)]

    def pop(self, h: list) -> tuple:
        return h.pop(), h

    def square_plus(self, h: list, g, n: int, m: int = 0) -> list:
        ext = self._ext
        if not ext._char2:
            raise ValueError("square_plus needs characteristic 2")
        if _open_counters:
            _charge("ext_mul", n + m)
        exp, log = ext._exp, ext._log
        lg = log[g]
        # One pass: the m at the front take g*y, the rest y*(y + g).
        return [0 if not y else
                (exp[lg + log[y]] if g else 0) if i < m else
                (exp[log[y] + log[y ^ g]] if y != g else 0)
                for i, y in enumerate(h)]


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
                 "_half", "_frob", "_fold", "rows")

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
            # For the q = 2 _reduce: _fold[i][n] = n*x^(k+8i) mod p, one
            # table per byte of the high half of a product, which has at
            # most k - 1 bits.  Built before the exp/log tables, whose
            # fill calls _mul_raw when x is not primitive.
            self._fold = self._byte_tables(
                self._x_steps(self._bits ^ (1 << k), k - 1))
        else:
            self._red = [(-c) % q for c in modulus[:k]]
        self._exp = self._log = self._zech = self._frob = None
        self._half = 0
        if self.order <= TABLE_LIMIT:
            self._build_tables()
        else:
            self._build_frobenius_map()
        # The row handles (see _ListRows): slotted ints for packed q = 2.
        self.rows = (_SlottedRows(k, self._bits)
                     if self._char2 and self._log is None else _ListRows(self))

    def _build_tables(self):
        """exp/log over a primitive element g: exp[i] = g^i, stored twice
        so that a sum of two logs needs no reduction, and log[g^i] = i.
        For odd q also zech[d] = log(1 + g^d), or -1 where 1 + g^d = 0.

        The fill walks by x (:meth:`_walks`), from 1 until it returns to
        1; the walk's length m is the order of x.  When m is
        n = q^k - 1, x is primitive: g = x and exp[:n] is the walk.
        Otherwise g is the least primitive element (tested by powers)
        and exp is filled along the c = n / m cosets of the subgroup
        <x>: coset b is the walk from g^b.  g^c generates <x>, so it is
        x^s for s its index in the walk, and g^(b + c*i) is
        g^b * x^(i*s mod m), entry i*s mod m of coset b's walk."""
        q, order = self.q, self.order
        n = order - 1
        [walk] = self._walks([1])
        m = len(walk)                          # the order of x
        c = n // m
        if c == 1:
            exp = walk
        else:
            primes = list(_prime_factors(n))
            # x is not primitive, so the search starts after it.
            g = next(g for g in range(q + 1, order)
                     if all(self._pow_raw(g, n // p) != 1 for p in primes))
            s = walk.index(self._pow_raw(g, c))
            starts = [g]
            for _ in range(c - 2):
                starts.append(self._mul_raw(starts[-1], g))
            exp = [0] * n
            perm = [i * s % m for i in range(m)]
            for b, walk in enumerate([walk] + self._walks(starts)):
                exp[b::c] = map(walk.__getitem__, perm)
        log = [0] * order
        for a, e in enumerate(exp):
            log[e] = a
        if not self._char2:
            self._half = half = n // 2         # g^(n/2) = -1
            # 1 + e changes only the lowest digit of e: plus1[e] = 1 + e.
            # At d = half, 1 + e = 0, whose log entry 0 is not a log.
            plus1 = list(range(1, order + 1))
            plus1[q - 1::q] = range(0, order, q)
            zech = [log[plus1[e]] for e in exp]
            zech[half] = -1
            self._zech = array(_TYPECODE, zech)
        self._exp = array(_TYPECODE, exp * 2)
        self._log = array(_TYPECODE, log)

    def _walks(self, starts) -> list:
        """For each start e, the walk e, e*x, e*x^2, ... mod p until it
        returns to e: an orbit of multiplication by x, each step inline.
        For q = 2 a step is a shift and, when the top bit is set, an XOR
        of the modulus.  For odd q, e = s + t*x^(k-1) gives
        e*x = s*x + t*(x^k mod p) digit by digit: digit 0 of s*x is 0, so
        t*red_0 lands as it is, and digit j >= 1 of s*x is digit j - 1
        of s.  fixes[t] holds, for each j >= 1 with red_j != 0, the pair
        (q^(j-1), the change of the int for each value of that digit),
        with t*red_0 added into the first pair, which reads digit 0 of s
        when no red_j is nonzero."""
        q, k, char2 = self.q, self.k, self._char2
        if char2:
            top, bits = 1 << k, self._bits
        else:
            top, red, fixes = q ** (k - 1), self._red, [None]
            for t in range(1, q):
                fix = [(q ** (j - 1), [((d + t * r) % q - d) * q ** j
                                       for d in range(q)])
                       for j, r in enumerate(red) if j and r] or [(1, [0] * q)]
                qj, row = fix[0]
                fix[0] = qj, [v + t * red[0] % q for v in row]
                fixes.append(fix)
        walks = []
        for e in starts:
            out, f = [e], e
            if char2:
                while True:
                    f <<= 1
                    if f & top:
                        f ^= bits
                    if f == e:
                        break
                    out.append(f)
            else:
                while True:
                    if f < top:
                        f *= q
                    else:
                        t, s = divmod(f, top)
                        f = s * q
                        for qj, row in fixes[t]:
                            f += row[s // qj % q]
                    if f == e:
                        break
                    out.append(f)
            walks.append(out)
        return walks

    def _x_steps(self, a: int, n: int) -> list:
        """For q = 2: a, a*x, ..., a*x^(n-1) mod p for n >= 1, each step
        a shift and, when the top bit is set, an XOR of the modulus.  The
        byte tables and ``SpreadCode.matrix_rep`` take their rows here."""
        top, p = 1 << self.k, self._bits
        out = [a]
        for _ in range(n - 1):
            a <<= 1
            if a & top:
                a ^= p
            out.append(a)
        return out

    @staticmethod
    def _byte_tables(images) -> list:
        """For q = 2: the F_2-linear map sending bit j of an int to
        images[j], as one table per byte, table i mapping n to the image of
        n << 8i; the last table has 2^w entries for its w <= 8 bits.  Each
        bit doubles the table, appending it XORed with its image."""
        tables = []
        for i in range(0, len(images), 8):
            table = [0]
            for e in images[i:i + 8]:
                table += [v ^ e for v in table]
            tables.append(table)
        return tables

    def _build_frobenius_map(self):
        """For the packed kernels, the one Frobenius map a -> a^q.  For
        q = 2 squaring is F_2-linear: _frob[i][n] = (n*x^(8i))^2 mod p,
        one table per byte of a, doubling from the images x^(2j) mod p.
        For odd q, _frob[i] = the digits of (x^i)^q."""
        q, k = self.q, self.k
        if self._char2:
            self._frob = self._byte_tables(self._x_steps(1, 2 * k - 1)[::2])
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
        if self._char2:
            return self._reduce(_clmul(a, b))
        k, q = self.k, self.q
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

    def _reduce(self, r):
        """r mod p for q = 2 and deg r <= 2k - 2: one fold-table lookup
        per byte of the high half h, r = low + h*x^k."""
        k = self.k
        h = r >> k
        if h:
            r ^= h << k
            for fold in self._fold:
                r ^= fold[h & 255]
                h >>= 8
        return r

    def mul(self, a, b):
        if _open_counters:
            _charge("ext_mul")
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
            _charge("ext_mul", len(ys) - ys.count(0))
        log = self._log
        if log is None:
            op = self.add
            if g == q - 1:
                op = self.sub
            elif g != 1:
                ys = [self._mul_raw(g, y) if y else 0 for y in ys]
            return [op(x, y) if y else x for x, y in zip(xs, ys)]
        if self._char2:
            if g == 1:
                return [x ^ y for x, y in zip(xs, ys)]
            exp, lg = self._exp, log[g]
            return [x ^ exp[lg + log[y]] if y else x for x, y in zip(xs, ys)]
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

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in F_{q^k}")
        if _open_counters:
            _charge("ext_inv")
        log = self._log
        if log is not None:
            return self._exp[self.order - 1 - log[a]]
        return self._inv_raw(a)

    def div(self, a, b):
        """a / b, charged as ``mul(a, inv(b))``, a = 0 included; b = 0
        raises before any charge."""
        if not b:
            raise ZeroDivisionError("division by zero in F_{q^k}")
        if _open_counters:
            _charge("ext_inv")
            _charge("ext_mul")
        if not a:
            return 0
        log = self._log
        if log is not None:
            return self._exp[log[a] + self.order - 1 - log[b]]
        if self._char2:
            return self._div_raw(a, b)
        return self._mul_raw(a, self._inv_raw(b))

    def _div_raw(self, a, b):
        """Uncounted a / b for packed q = 2: the binary extended Euclid
        (Hankerson, Menezes and Vanstone 2004, 2.48) started at g1 = a,
        with g1*b = u*a and g2*b = v*a mod p from u = b and v = p, as
        two alternating loops with no swap, each reducing its side by
        shifts of the other.  The gcd is 1, so neither side reaches 0
        before the other reaches 1, whose g is a / b: a times the
        inverse's g, of degree at most 2k - 2, so one fold reduces it."""
        u, v, g1, g2 = b, self._bits, a, 0
        lu, lv = u.bit_length(), v.bit_length()
        while u != 1:
            while lv >= lu:
                v ^= u << lv - lu
                g2 ^= g1 << lv - lu
                lv = v.bit_length()
            if v == 1:
                g1 = g2
                break
            while lu >= lv:
                u ^= v << lu - lv
                g1 ^= g2 << lu - lv
                lu = u.bit_length()
        return self._reduce(g1)

    def _inv_raw(self, a):
        """Uncounted inverse: for q = 2 the division 1 / a, for odd q
        the extended Euclidean algorithm on digit lists."""
        if self._char2:
            return self._div_raw(1, a)
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
            _charge("base_mul", self.k * self.k)
        log = self._log
        if log is not None:
            if not a:
                return 0
            n = self.order - 1
            return self._exp[log[a] * pow(self.q, j, n) % n]
        for _ in range(j):                     # a packed field's one map
            a = self._apply(a)
        return a

    def _orbit(self, a, n: int) -> list:
        """a, a^q, a^(q^2), ...: the first n Frobenius conjugates of a,
        each one ``frobenius`` of the last and charged as that call."""
        out = [a]
        for _ in range(n - 1):
            out.append(self.frobenius(out[-1], 1))
        return out

    def trace(self, a) -> int:
        """Trace down to F_q: the sum of all Frobenius conjugates."""
        acc = functools.reduce(self.add, self._orbit(a, self.k))
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
