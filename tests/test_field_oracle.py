"""Differential tests: the int-encoded ExtField against the digit-tuple
reference in ``tuple_field``, through the digit conversion.

The fields cover every multiplication kernel: exp/log tables at
(2,2..9), (3,2..5) and (5,3), the packed q = 2 kernel at (2,17),
(2,24), (2,29), (2,32), (2,33), (2,64) and (2,65) and the packed odd-q
kernel at (3,13).  A packed q = 2 product reduces its high half one
byte per fold table: at (2,29) the last byte is partial, and (2,33)
needs four tables.  The row kernel ``axpy`` is checked against the
per-entry ``add`` and ``mul`` of the same field, and so are the row
handles of ``ExtField.rows`` (load, pop, axpy and, for q = 2,
``square_plus`` with and without its tail of g*y entries, also against
the oracle).  The packed q = 2 inverse is checked at its edge cases as
well as on random elements, and division ``div`` against ``mul`` by
``inv`` on each kernel, packed odd q at (3,11) included.  Packed q = 2 row kernels
hold a row as one int with a slot of 64*ceil((2k - 1)/64) bits per
entry: (2,32) is the last field with one-word slots, (2,64) the last
whose elements fit one 64-bit word, (2,65) the first whose elements do
not, and at (2,129) an element takes three words and its slot five.
They reduce by Barrett's method, so a dense modulus at k = 24 is
checked as well.
"""

import pytest
from hypothesis import given, settings, strategies as st

from spreadcodes.gf import (TABLE_LIMIT, ExtField, OpCount, PrimeField,
                            find_irreducible)

from tuple_field import TupleExtField

TABLE_FIELDS = ([(2, k) for k in range(2, 10)]
                + [(3, k) for k in range(2, 6)] + [(5, 3)])
PACKED_FIELDS = [(2, 17), (2, 24), (2, 29), (2, 32), (2, 33), (2, 64),
                 (2, 65), (3, 13)]
FIELDS = TABLE_FIELDS + PACKED_FIELDS
# Every coefficient of x^0 .. x^23 set but those of x and x^7.
DENSE_24 = tuple(int(i not in (1, 7)) for i in range(24)) + (1,)

_built = {}


def fields(q, k, modulus=None):
    """The field under test and its oracle, built once per module; the
    modulus defaults to find_irreducible's."""
    p = modulus or find_irreducible(q, k)
    if (q, p) not in _built:
        _built[q, p] = ExtField(PrimeField(q), p), TupleExtField(q, p)
    return _built[q, p]


def element_values(ext, nonzero=False):
    return st.integers(1 if nonzero else 0, ext.order - 1)


def unload(rows, h, n):
    """The n entries of the row handle h, popped front to back."""
    out = []
    for _ in range(n):
        v, h = rows.pop(h)
        out.append(v)
    return out


def handle_axpy(ext, xs, g, ys):
    """xs + g*ys through the row handles, read back as a list."""
    rows = ext.rows
    return unload(rows, rows.axpy(rows.load(xs), g, rows.load(ys)), len(ys))


@pytest.mark.parametrize("q,k", FIELDS)
def test_kernel_choice(q, k):
    ext, _ = fields(q, k)
    assert (ext._log is not None) == ((q, k) in TABLE_FIELDS)
    assert ((q, k) in TABLE_FIELDS) == (q ** k <= TABLE_LIMIT)


@pytest.mark.parametrize("q,k", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_operations(q, k, data):
    ext, ref = fields(q, k)
    a = data.draw(element_values(ext))
    b = data.draw(element_values(ext))
    da, db = ext.digits(a), ext.digits(b)
    assert da == ref.element(da) and ext.element(da) == a
    assert ext.digits(ext.add(a, b)) == ref.add(da, db)
    assert ext.digits(ext.sub(a, b)) == ref.sub(da, db)
    assert ext.digits(ext.neg(a)) == ref.neg(da)
    assert ext.digits(ext.mul(a, b)) == ref.mul(da, db)
    e = data.draw(st.integers(-3, 3 * q))
    if a or e >= 0:
        assert ext.digits(ext.pow(a, e)) == ref.pow(da, e)


@pytest.mark.parametrize("q,k", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse(q, k, data):
    ext, ref = fields(q, k)
    a = data.draw(element_values(ext, nonzero=True))
    inv = ext.inv(a)
    assert ext.digits(inv) == ref.inv(ext.digits(a))
    assert ext.mul(a, inv) == ext.one


@pytest.mark.parametrize("q,k", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_frobenius_and_trace(q, k, data):
    ext, ref = fields(q, k)
    a = data.draw(element_values(ext))
    j = data.draw(st.integers(0, 2 * k))
    assert ext.digits(ext.frobenius(a, j)) == ref.frobenius(ext.digits(a), j)
    assert ext.trace(a) == ref.trace(ext.digits(a))


@pytest.mark.parametrize("q,k", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_text_round_trip(q, k, data):
    ext, ref = fields(q, k)
    a = data.draw(element_values(ext))
    text = ext.to_str(a)
    assert text == ref.to_str(ext.digits(a))
    assert ext.from_str(text) == a


@pytest.mark.parametrize("q,k", TABLE_FIELDS)
def test_element_order(q, k):
    ext, ref = fields(q, k)
    assert [ext.digits(a) for a in ext.elements()] == list(ref.elements())


@pytest.mark.parametrize("q,k", FIELDS)
def test_counts_match_the_cost_model(q, k):
    # one ext op per mul/inv whatever the kernel; Frobenius is charged
    # as k*k base multiplications
    ext, _ = fields(q, k)
    a = ext.gen()
    with OpCount() as c:
        ext.mul(a, a)
        ext.inv(a)
        ext.frobenius(a, 1)
        ext.add(a, a)
    assert (c.ext_mul, c.ext_inv, c.base_mul, c.base_inv) == (1, 1, k * k, 0)


@pytest.mark.parametrize("q,k", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_row_kernel(q, k, data):
    # axpy(xs, g, ys) = xs + g*ys against the per-entry add and mul, in
    # the extension field and in its base field.  A product by 0 or +-1
    # is free; any other g costs one multiplication per nonzero ys entry.
    # Packed fields also get a row of length 2k, as in elimination.  In
    # the extension field the row handles give the same row and charge.
    ext, _ = fields(q, k)
    for f, values in ((ext, element_values(ext)),
                      (ext.base, st.integers(0, q - 1))):
        lengths = [data.draw(st.integers(0, 6))]
        if f is ext and (q, k) in PACKED_FIELDS:
            lengths.append(2 * k)
        for n in lengths:
            entries = st.lists(st.just(0) | values, min_size=n, max_size=n)
            xs, ys = data.draw(entries), tuple(data.draw(entries))
            before = list(xs)
            for g in (0, 1, f.neg(1), data.draw(values)):
                want = [f.add(x, f.mul(g, y)) for x, y in zip(xs, ys)]
                with OpCount() as c:
                    got = f.axpy(xs, g, ys)
                assert got == want and xs == before
                free = g in (0, 1, f.neg(1))
                charged = 0 if free else sum(1 for y in ys if y)
                counts = ((c.ext_mul, c.base_mul) if f is ext
                          else (c.base_mul, c.ext_mul))
                assert counts == (charged, 0)
                assert c.ext_inv == c.base_inv == 0
                if f is ext:
                    with OpCount() as c:
                        got = handle_axpy(ext, xs, g, ys)
                    assert got == want and xs == before
                    assert (c.ext_mul, c.base_mul, c.ext_inv) == (
                        charged, 0, 0)


@pytest.mark.parametrize("q,k", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_square_plus(q, k, data):
    # The row handle's square_plus(h, g, n, m) = y*(y + g) on each of
    # the first n entries and g*y on the m after them, against mul and
    # add and against the oracle, zeros and y == g included; it charges
    # one ext_mul per entry and nothing else.  n = 0 leaves only the
    # tail, and m = 0 is the call without one.  Odd q has no such kernel.
    ext, ref = fields(q, k)
    rows = ext.rows
    g = data.draw(element_values(ext))
    if q != 2:
        with pytest.raises(ValueError):
            rows.square_plus(rows.load([g]), g, 1)
        return
    ys = data.draw(st.lists(element_values(ext), max_size=2 * k)) + [0, g]
    zs = data.draw(st.lists(element_values(ext), min_size=1, max_size=3))
    dg = ext.digits(g)
    for head, tail in ((ys, zs + [0]), (ys, []), ([], zs + [0])):
        n, m = len(head), len(tail)
        tail_arg = (m,) if m else ()
        with OpCount() as c:
            h = rows.square_plus(rows.load(head + tail), g, n, *tail_arg)
        assert (c.ext_mul, c.ext_inv, c.base_mul, c.base_inv) == (
            n + m, 0, 0, 0)
        got = unload(rows, h, n + m)
        assert got == ([ext.mul(y, ext.add(y, g)) for y in head]
                       + [ext.mul(g, z) for z in tail])
        assert [ext.digits(v) for v in got] == (
            [ref.mul(dy, ref.add(dy, dg)) for dy in map(ext.digits, head)]
            + [ref.mul(dg, dz) for dz in map(ext.digits, tail)])


INVERSE_EDGES = [*(pytest.param(k, None, id=str(k))
                   for k in (17, 24, 33, 64, 65)),
                 pytest.param(24, DENSE_24, id="24-dense")]


@pytest.mark.parametrize("k,modulus", INVERSE_EDGES)
def test_inverse_edge_cases(k, modulus):
    # The packed q = 2 inverse, a binary Euclid between a and p, at its
    # ends: 1 (no step), x and x^(k-1) (one bit), the modulus's low part
    # p - x^k (one step from p) and the all-ones element, against the
    # oracle.
    ext, ref = fields(2, k, modulus)
    low = ext.element(ext.modulus[:k])
    for a in (1, ext.gen(), 1 << k - 1, low, ext.order - 1):
        inv = ext.inv(a)
        assert ext.digits(inv) == ref.inv(ext.digits(a))
        assert ext.mul(a, inv) == ext.one


DIVISION_FIELDS = [(2, 9, None), (3, 5, None), (2, 17, None),
                   (2, 24, None), (2, 64, None), (2, 65, None),
                   pytest.param(2, 24, DENSE_24, id="2-24-dense"),
                   (3, 11, None)]


@pytest.mark.parametrize("q,k,modulus", DIVISION_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_division(q, k, modulus, data):
    # div(a, b) is mul(a, inv(b)), value and charge, on the table, packed
    # q = 2 and packed odd-q kernels: at a = 0, b = 1, a = b, and the
    # all-ones a over x, the longest quotient before its fold.
    ext, _ = fields(q, k, modulus)
    a = data.draw(element_values(ext))
    b = data.draw(element_values(ext, nonzero=True))
    for a, b in ((a, b), (0, b), (a, 1), (b, b), (ext.order - 1, ext.gen())):
        with OpCount() as divided:
            got = ext.div(a, b)
        with OpCount() as composed:
            want = ext.mul(a, ext.inv(b))
        assert got == want
        assert repr(divided) == repr(composed)
    with OpCount() as refused:
        with pytest.raises(ZeroDivisionError):
            ext.div(a, 0)
    assert repr(refused) == repr(OpCount())


SLOTTED = [*((k, None) for q, k in PACKED_FIELDS if q == 2), (129, None),
           pytest.param(24, DENSE_24, id="24-dense")]


@pytest.mark.parametrize("k,modulus", SLOTTED)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_packed_rows(k, modulus, data):
    # The packed q = 2 row kernels, the list axpy and the slotted row
    # handles, on rows of length 0, 1 and more than 2k (longer than the
    # slot masks built with the field), with 0, g and 2^k - 1 drawn
    # often: each entry against mul and the oracle, each call charged
    # exactly its ext_mul.  ``square_plus`` runs with and without a
    # tail.
    ext, ref = fields(2, k, modulus)
    rows = ext.rows
    assert isinstance(rows.load([1]), int)
    top = ext.order - 1
    g = data.draw(st.sampled_from([2, top]) | st.integers(2, top))
    entries = st.sampled_from([0, g, top]) | element_values(ext)
    dg = ext.digits(g)
    for n in (0, 1, data.draw(st.integers(2 * k + 1, 2 * k + 3))):
        xs = data.draw(st.lists(entries, min_size=n, max_size=n))
        ys = data.draw(st.lists(entries, min_size=n, max_size=n))
        dxs, dys = [ext.digits(x) for x in xs], [ext.digits(y) for y in ys]
        with OpCount() as c:
            got = ext.axpy(xs, g, ys)
        assert (c.ext_mul, c.ext_inv, c.base_mul, c.base_inv) == (
            n - ys.count(0), 0, 0, 0)
        assert got == [x ^ ext.mul(g, y) for x, y in zip(xs, ys)]
        assert [ext.digits(v) for v in got] == [
            ref.add(dx, ref.mul(dg, dy)) for dx, dy in zip(dxs, dys)]
        assert unload(rows, rows.load(ys), n) == ys
        with OpCount() as c:
            assert handle_axpy(ext, xs, g, ys) == got
        assert (c.ext_mul, c.ext_inv, c.base_mul, c.base_inv) == (
            n - ys.count(0), 0, 0, 0)
        with OpCount() as c:
            got = unload(rows, rows.square_plus(rows.load(ys), g, n), n)
        assert (c.ext_mul, c.ext_inv, c.base_mul, c.base_inv) == (
            n, 0, 0, 0)
        assert got == [ext.mul(y, y ^ g) for y in ys]
        assert [ext.digits(v) for v in got] == [
            ref.mul(dy, ref.add(dy, dg)) for dy in dys]
        # With a tail of m entries after the n, each taking g*z, as the
        # interpolation's two coefficients do; at n = 0 only the tail.
        zs = data.draw(st.lists(entries, min_size=1, max_size=3))
        m = len(zs)
        with OpCount() as c:
            h = rows.square_plus(rows.load(ys + zs), g, n, m)
        assert (c.ext_mul, c.ext_inv, c.base_mul, c.base_inv) == (
            n + m, 0, 0, 0)
        got = unload(rows, h, n + m)
        assert got == ([ext.mul(y, y ^ g) for y in ys]
                       + [ext.mul(g, z) for z in zs])
        assert [ext.digits(v) for v in got[n:]] == [
            ref.mul(dg, ext.digits(z)) for z in zs]


@pytest.mark.parametrize("k,modulus", SLOTTED)
def test_slotted_nonzero_count(k, modulus):
    # The OR-fold count of nonzero slots, which the handle axpy charges,
    # on rows of x^(k-1), 1 and 0 (every bit of a slot folds into its
    # lowest), an all-zero row and an empty row; and a pop leaves the
    # next point in slot 0.
    ext, _ = fields(2, k, modulus)
    rows, high = ext.rows, 1 << k - 1
    for ys in ([high, 1, 0], [0, high, 0, 1, high], [high] * (2 * k + 1),
               [1, 0] * k, [0] * 5, []):
        h = rows.load(ys)
        assert rows.count(h) == len(ys) - ys.count(0)
        with OpCount() as c:
            rows.axpy(rows.load([0] * len(ys)), 2, h)
        assert c.ext_mul == len(ys) - ys.count(0)
        if ys:
            v, rest = rows.pop(h)
            assert v == ys[0] and rest == rows.load(ys[1:])


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (2, 24), (3, 13)])
@pytest.mark.parametrize("bad", ["q", "-1", "x", "1.0", "+1", "0_1",
                                 "\u0661"])
def test_from_str_rejects_bad_digits(q, k, bad):
    ext, _ = fields(q, k)
    digit = str(q) if bad == "q" else bad
    with pytest.raises(ValueError):
        ext.from_str(" ".join(["0"] * (k - 1) + [digit]))
    with pytest.raises(ValueError):
        ext.base.from_str(digit)
