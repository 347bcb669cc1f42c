"""Reference arithmetic for F_{q^k} on digit tuples.

Elements are length-k tuples of ints in 0..q-1, lowest coefficient
first, multiplied by a schoolbook double loop and inverted by the
extended Euclidean algorithm on coefficient lists.  This is the
element representation the library used before it moved to
int-encoded elements with table and packed kernels; it stays here,
slow and uncounted, as the oracle of the differential field tests.
"""

from __future__ import annotations


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f, g, q):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % q
    return _trim(out)


def _poly_divmod(num, den, q):
    num = list(num)
    den = _trim(list(den))
    if len(num) < len(den):
        return [], _trim(num)
    quo = [0] * (len(num) - len(den) + 1)
    lead_inv = pow(den[-1], q - 2, q)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] * lead_inv % q
        if c:
            quo[shift] = c
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - c * d) % q
    return _trim(quo), _trim(num[:len(den) - 1])


def _poly_sub(f, g, q):
    n = max(len(f), len(g))
    return _trim([((f[i] if i < len(f) else 0)
                   - (g[i] if i < len(g) else 0)) % q for i in range(n)])


class TupleExtField:
    """F_q[x]/(p) on digit tuples; the modulus must be monic irreducible."""

    def __init__(self, q: int, modulus):
        modulus = tuple(c % q for c in modulus)
        k = len(modulus) - 1
        self.q = q
        self.k = k
        self.modulus = modulus
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        # _red[i] = coefficients of x^(k+i) reduced mod p, i in 0..k-2
        red = []
        cur = [(-c) % q for c in modulus[:k]]
        red.append(tuple(cur))
        for _ in range(k - 2):
            nxt = [0] + cur[:k - 1]
            top = cur[k - 1]
            if top:
                for j in range(k):
                    nxt[j] = (nxt[j] + top * red[0][j]) % q
            cur = nxt
            red.append(tuple(cur))
        self._red = red
        # _frob[j][i] = coefficients of (x^i)^(q^j), j in 0..k-1
        identity = tuple(tuple(1 if c == i else 0 for c in range(k))
                         for i in range(k))
        lam_q = self.pow(self.gen(), q)
        first = [self.one]
        for _ in range(1, k):
            first.append(self.mul(first[-1], lam_q))
        tables = [identity, tuple(first)]
        for _ in range(k - 2):
            tables.append(tuple(self._apply(v, tables[1])
                                for v in tables[-1]))
        self._frob = tables[:k]

    def gen(self):
        return tuple(1 if i == 1 else 0 for i in range(self.k))

    def element(self, coeffs):
        coeffs = tuple(c % self.q for c in coeffs)
        return coeffs + (0,) * (self.k - len(coeffs))

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.q for x in a)

    def mul(self, a, b):
        k, q = self.k, self.q
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % q
            if c:
                row = self._red[i - k]
                for j in range(k):
                    prod[j] += c * row[j]
        return tuple(prod[j] % q for j in range(k))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        q = self.q
        r0, r1 = list(self.modulus), _trim(list(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            quo, rem = _poly_divmod(r0, r1, q)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(quo, s1, q), q)
        scale = pow(r1[0], q - 2, q)
        return self.element([x * scale % q for x in s1])

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        out, base = self.one, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def _apply(self, a, table):
        out = [0] * self.k
        for i, ai in enumerate(a):
            if ai:
                for j in range(self.k):
                    out[j] += ai * table[i][j]
        return tuple(x % self.q for x in out)

    def frobenius(self, a, j: int):
        return self._apply(a, self._frob[j % self.k])

    def trace(self, a) -> int:
        acc = conj = a
        for _ in range(self.k - 1):
            conj = self.frobenius(conj, 1)
            acc = self.add(acc, conj)
        assert all(c == 0 for c in acc[1:])
        return acc[0]

    def elements(self):
        """All q^k elements, ordered by the integer value of the digits."""
        for n in range(self.q ** self.k):
            digits = []
            for _ in range(self.k):
                n, d = divmod(n, self.q)
                digits.append(d)
            yield tuple(digits)

    def to_str(self, a) -> str:
        return " ".join(str(c) for c in a)
