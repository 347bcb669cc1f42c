import hashlib
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from spreadcodes import gf
from spreadcodes.gf import (ExtField, OpCount, PrimeField, find_irreducible,
                            is_prime, poly_is_irreducible)
from spreadcodes.spread import SpreadCode

from test_field_oracle import DENSE_24


def poly_eval(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def irreducible_by_trial_division(coeffs, q):
    """Independent check: no root and no monic factor of degree <= k/2,
    by exhaustive polynomial long division."""
    k = len(coeffs) - 1
    if any(poly_eval(coeffs, x, q) == 0 for x in range(q)):
        return False
    for d in range(2, k // 2 + 1):
        for tail in itertools.product(range(q), repeat=d):
            div = list(tail) + [1]
            rem = list(coeffs)
            for shift in range(len(rem) - len(div), -1, -1):
                c = rem[shift + len(div) - 1]
                if c:
                    for i, dc in enumerate(div):
                        rem[shift + i] = (rem[shift + i] - c * dc) % q
            if not any(rem[:len(div) - 1]):
                return False
    return True


class TestFindIrreducible:
    def test_only_monic_quadratic_over_f2(self):
        assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1

    def test_first_cubic_over_f2_by_exhaustion(self):
        # oracle: scan all monic cubics in the same candidate order
        found = None
        for high_first in itertools.product(range(2), repeat=3):
            cand = tuple(reversed(high_first)) + (1,)
            if irreducible_by_trial_division(cand, 2):
                found = cand
                break
        assert found == (1, 1, 0, 1)  # x^3 + x + 1
        assert find_irreducible(2, 3) == found

    def test_first_quadratic_over_f3_by_exhaustion(self):
        found = None
        for high_first in itertools.product(range(3), repeat=2):
            cand = tuple(reversed(high_first)) + (1,)
            if irreducible_by_trial_division(cand, 3):
                found = cand
                break
        assert found == (1, 0, 1)  # x^2 + 1
        assert find_irreducible(3, 2) == found

    @pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (2, 4), (3, 2),
                                     (3, 3), (5, 2), (5, 4), (7, 3)])
    def test_output_irreducible(self, q, k):
        p = find_irreducible(q, k)
        assert len(p) == k + 1 and p[-1] == 1
        if k <= 4:
            assert irreducible_by_trial_division(p, q)
        assert poly_is_irreducible(p, q)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            find_irreducible(4, 2)
        with pytest.raises(ValueError):
            find_irreducible(2, 1)

    def test_found_modulus_is_tested_once(self, monkeypatch):
        divisions = []
        real = gf._gf2_divmod

        def counting(*args):
            divisions.append(args)
            return real(*args)

        monkeypatch.setattr(gf, "_gf2_divmod", counting)
        p = find_irreducible(2, 8)
        assert divisions
        divisions.clear()
        ExtField(PrimeField(2), p)
        assert not divisions
        # A modulus given by the caller is still tested, and a repeated
        # search runs in full.
        ExtField(PrimeField(2), (1, 0, 1, 1, 1, 0, 0, 0, 1))
        assert divisions
        divisions.clear()
        assert find_irreducible(2, 8) == p and divisions
        with pytest.raises(ValueError):
            ExtField(PrimeField(2), (1, 0, 0, 0, 0, 0, 0, 0, 1))


# The search's results before the gcd test replaced trial division,
# computed once by trial division: (q, k) -> (p_0, ..., p_j), the low
# coefficients of the modulus up to its last nonzero one below x^k.
# Every (q, k) with q^k <= 2^16.
PARENT_MODULI = {
    (2, 2): (1, 1), (2, 3): (1, 1), (2, 4): (1, 1), (2, 5): (1, 0, 1),
    (2, 6): (1, 1), (2, 7): (1, 1), (2, 8): (1, 1, 0, 1, 1), (2, 9): (1, 1),
    (2, 10): (1, 0, 0, 1), (2, 11): (1, 0, 1), (2, 12): (1, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1), (2, 14): (1, 0, 0, 0, 0, 1), (2, 15): (1, 1),
    (2, 16): (1, 1, 0, 1, 0, 1), (3, 2): (1,), (3, 3): (1, 2), (3, 4): (2, 1),
    (3, 5): (1, 2), (3, 6): (2, 1), (3, 7): (2, 0, 1), (3, 8): (2, 0, 1),
    (3, 9): (1, 0, 1, 2), (3, 10): (1, 0, 2), (5, 2): (2,), (5, 3): (1, 1),
    (5, 4): (2,), (5, 5): (1, 4), (5, 6): (2, 1), (7, 2): (1,), (7, 3): (2,),
    (7, 4): (1, 1), (7, 5): (3, 1), (11, 2): (1,), (11, 3): (4, 1),
    (11, 4): (2, 1), (13, 2): (2,), (13, 3): (2,), (13, 4): (2,),
    (17, 2): (3,), (17, 3): (3, 1), (19, 2): (1,), (19, 3): (2,),
    (23, 2): (1,), (23, 3): (3, 1), (29, 2): (2,), (29, 3): (4, 1),
    (31, 2): (1,), (31, 3): (3,), (37, 2): (2,), (37, 3): (2,), (41, 2): (3,),
    (43, 2): (1,), (47, 2): (1,), (53, 2): (2,), (59, 2): (1,), (61, 2): (2,),
    (67, 2): (1,), (71, 2): (1,), (73, 2): (5,), (79, 2): (1,), (83, 2): (1,),
    (89, 2): (3,), (97, 2): (5,), (101, 2): (2,), (103, 2): (1,),
    (107, 2): (1,), (109, 2): (2,), (113, 2): (3,), (127, 2): (1,),
    (131, 2): (1,), (137, 2): (3,), (139, 2): (1,), (149, 2): (2,),
    (151, 2): (1,), (157, 2): (2,), (163, 2): (1,), (167, 2): (1,),
    (173, 2): (2,), (179, 2): (1,), (181, 2): (2,), (191, 2): (1,),
    (193, 2): (5,), (197, 2): (2,), (199, 2): (1,), (211, 2): (1,),
    (223, 2): (1,), (227, 2): (1,), (229, 2): (2,), (233, 2): (3,),
    (239, 2): (1,), (241, 2): (7,), (251, 2): (1,),
}

# The largest fields the CLI accepts, where trial division took 1.9 to
# 21 s, and two library-only degrees, (2, 64) and (2, 129): (q, k) ->
# (low coefficients as above, bound on the polynomial divisions in the
# search: _gf2_divmod calls for q = 2, _poly_divmod calls for odd q).
# Each bound is about twice the count of the gcd test (1419, 598, 5747,
# 27637, 489, 822 and 3612); trial division needs over 2^16 calls at
# (2, 32) and over 10^6 at (1619, 3).
LARGE_FIELDS = {
    (2, 32): ((1, 0, 1, 1, 0, 0, 0, 1), 2800),
    (2, 64): ((1, 1, 0, 1, 1), 1650),
    (2, 129): ((1, 0, 0, 0, 0, 1), 7200),
    (3, 20): ((1, 2, 0, 1), 1200),
    (251, 4): ((4, 1), 11500),
    (1619, 3): ((6, 1), 55000),
    (65521, 2): ((17,), 1000),
}


# find_irreducible(2, k) for k = 17..64 as the list form of the search
# returned it, low coefficients as above.
Q2_MODULI = {
    17: (1, 0, 0, 1), 18: (1, 0, 0, 1), 19: (1, 1, 1, 0, 0, 1),
    20: (1, 0, 0, 1), 21: (1, 0, 1), 22: (1, 1), 23: (1, 0, 0, 0, 0, 1),
    24: (1, 1, 0, 1, 1), 25: (1, 0, 0, 1), 26: (1, 1, 0, 1, 1),
    27: (1, 1, 1, 0, 0, 1), 28: (1, 1), 29: (1, 0, 1), 30: (1, 1),
    31: (1, 0, 0, 1), 32: (1, 0, 1, 1, 0, 0, 0, 1), 33: (1, 1, 0, 1, 0, 0, 1),
    34: (1, 1, 0, 1, 1), 35: (1, 0, 1), 36: (1, 0, 1, 0, 1, 1),
    37: (1, 1, 1, 1, 1, 1), 38: (1, 1, 0, 0, 0, 1, 1), 39: (1, 0, 0, 0, 1),
    40: (1, 0, 0, 1, 1, 1), 41: (1, 0, 0, 1), 42: (1, 1, 1, 0, 0, 1),
    43: (1, 0, 0, 1, 1, 0, 1), 44: (1, 0, 0, 0, 0, 1), 45: (1, 1, 0, 1, 1),
    46: (1, 1), 47: (1, 0, 0, 0, 0, 1), 48: (1, 0, 1, 1, 0, 1),
    49: (1, 0, 0, 0, 1, 1, 1), 50: (1, 0, 1, 1, 1), 51: (1, 1, 0, 1, 0, 0, 1),
    52: (1, 0, 0, 1), 53: (1, 1, 1, 0, 0, 0, 1), 54: (1, 0, 1, 1, 1, 1, 1),
    55: (1, 1, 1, 0, 0, 0, 1), 56: (1, 0, 1, 0, 1, 0, 0, 1),
    57: (1, 0, 0, 0, 1), 58: (1, 1, 0, 0, 0, 1, 1), 59: (1, 1, 0, 1, 1, 1, 1),
    60: (1, 1), 61: (1, 1, 1, 0, 0, 1), 62: (1, 0, 0, 1, 0, 1, 1), 63: (1, 1),
    64: (1, 1, 0, 1, 1),
}


def full_modulus(k, low):
    return low + (0,) * (k - len(low)) + (1,)


def monic_polynomials(q, max_order):
    """Every monic polynomial of degree >= 2 over F_q with q^k <= max_order,
    as full coefficient tuples."""
    k = 2
    while q ** k <= max_order:
        for tail in itertools.product(range(q), repeat=k):
            yield tail + (1,)
        k += 1


def first_irreducible_by_ben_or(q, k):
    """The odd-q search with no sieve: every candidate, in the search's
    order, through Ben-Or's test."""
    for high_first in itertools.product(range(q), repeat=k):
        cand = tuple(reversed(high_first)) + (1,)
        if poly_is_irreducible(cand, q):
            return cand


SIEVED_SEARCHES = [(q, k) for q in (3, 5, 7, 11, 13) for k in range(2, 13)
                   if q ** k <= 1 << 20] + [(3, 20), (65521, 2), (1619, 3)]


class TestIrreducibilityTest:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_agrees_with_trial_division(self, q):
        for p in monic_polynomials(q, 1 << 12):
            assert (poly_is_irreducible(p, q)
                    == irreducible_by_trial_division(p, q)), p

    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_linear_is_irreducible(self, q):
        for c in range(q):
            assert poly_is_irreducible((c, 1), q)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            poly_is_irreducible((1, 1, 2), 3)
        with pytest.raises(ValueError):
            poly_is_irreducible((1,), 3)

    def test_search_keeps_every_small_modulus(self):
        expected = {(q, k): full_modulus(k, low)
                    for (q, k), low in PARENT_MODULI.items()}
        found = {(q, k): find_irreducible(q, k) for q in range(2, 257)
                 if is_prime(q) for k in range(2, 17) if q ** k <= 1 << 16}
        assert found == expected

    @pytest.mark.parametrize("q,k", sorted(LARGE_FIELDS))
    def test_largest_fields_take_polynomial_work(self, q, k, monkeypatch):
        low, bound = LARGE_FIELDS[q, k]
        calls = 0
        # The q = 2 search divides bit patterns, odd q coefficient lists.
        name = "_gf2_divmod" if q == 2 else "_poly_divmod"
        real = getattr(gf, name)

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(gf, name, counting)
        assert find_irreducible(q, k) == full_modulus(k, low)
        assert calls <= bound

    @pytest.mark.parametrize("q,k", SIEVED_SEARCHES)
    def test_sieve_keeps_the_modulus(self, q, k):
        assert find_irreducible(q, k) == first_irreducible_by_ben_or(q, k)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 5, 7, 11, 13, 1619]).flatmap(
        lambda q: st.tuples(st.just(q), st.lists(
            st.integers(0, q - 1), min_size=2, max_size=7))))
    def test_sieve_passes_every_irreducible(self, case):
        q, low = case
        p = tuple(low) + (1,)
        assert gf._root_free(p, q) == all(poly_eval(p, x, q)
                                          for x in (0, 1, q - 1))
        if poly_is_irreducible(p, q):
            assert gf._root_free(p, q)

    def test_binary_search_keeps_the_list_form_moduli(self):
        found = {k: find_irreducible(2, k) for k in Q2_MODULI}
        assert found == {k: full_modulus(k, low)
                         for k, low in Q2_MODULI.items()}

    def test_binary_division(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b = rng.getrandbits(80), rng.getrandbits(rng.randrange(1, 40))
            quo, rem = gf._gf2_divmod(a, b | 1)
            assert rem.bit_length() < (b | 1).bit_length()
            assert gf._clmul(quo, b | 1) ^ rem == a


class TestPrimeField:
    def test_requires_prime(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        assert is_prime(2) and is_prime(97) and not is_prime(91)

    def test_is_prime_matches_a_sieve(self):
        n = 10 ** 4
        sieve = [False, False] + [True] * (n - 2)
        for i in range(2, math.isqrt(n) + 1):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(sieve[i * i::i])
        assert [m for m in range(n) if is_prime(m)] == [
            m for m in range(n) if sieve[m]]
        assert is_prime(65521) and is_prime(65537) and not is_prime(65536)
        assert not any(is_prime(m) for m in (-7, -2, -1))
        assert list(gf._prime_factors(65536)) == [2]
        assert list(gf._prime_factors(2 * 3 * 3 * 65521)) == [2, 3, 65521]
        # The one trial division behind is_prime also factors by the sieve.
        primes = [m for m in range(n) if sieve[m]]
        for m in range(2, 2000):
            assert list(gf._prime_factors(m)) == [
                f for f in primes if f <= m and m % f == 0]

    @pytest.mark.parametrize("n", [2 * 999983 ** 2, 3 * (2 ** 31 - 1) ** 2])
    def test_is_prime_stops_at_the_first_divisor(self, n):
        # A composite with a large square cofactor is refused at its
        # smallest prime; factoring it fully would trial-divide up to the
        # cofactor's root.  A line budget stops a full factoring early.
        lines = 0

        def budget(frame, event, arg):
            nonlocal lines
            lines += 1
            if lines > 10_000:
                raise RuntimeError("is_prime ran past its line budget")
            return budget

        outer = sys.gettrace()
        sys.settrace(budget)
        try:
            prime = is_prime(n)
        finally:
            sys.settrace(outer)
        assert prime is False

    def test_f2_addition(self):
        f = PrimeField(2)
        assert f.add(1, 1) == 0

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_inverse_randomized(self, q):
        f = PrimeField(q)
        rnd = random.Random(q)
        for _ in range(1000):
            a = rnd.randrange(1, q)
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_pow(self):
        f = PrimeField(7)
        assert f.pow(3, 0) == 1
        assert f.pow(3, 6) == 1
        assert f.pow(3, -1) == f.inv(3)


@pytest.fixture(scope="module")
def f4():
    return ExtField(PrimeField(2), (1, 1, 1))


class TestExtField:
    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            ExtField(PrimeField(2), (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2

    @pytest.mark.parametrize("q,modulus,what", [
        (3, (4, 0, 1), "p_0 = 4"),   # x^2 + 1 once 4 is reduced mod 3
        (2, (1, 1, 3), "p_2 = 3"),   # x^2 + x + 1 once 3 is reduced mod 2
        (3, (1, -1, 1), "p_1 = -1"),
    ])
    def test_refuses_coefficient_outside_base_field(self, q, modulus, what):
        with pytest.raises(ValueError, match=what):
            ExtField(PrimeField(q), modulus)

    def test_f4_generator_square(self, f4):
        lam = f4.gen()
        assert f4.mul(lam, lam) == 3  # x^2 = x + 1 mod x^2+x+1

    def test_f4_generator_inverse_by_search(self, f4):
        lam = f4.gen()
        expected = [a for a in f4.elements()
                    if a != f4.zero and f4.mul(lam, a) == f4.one]
        assert expected == [3]
        assert f4.inv(lam) == 3

    def test_inverse_of_zero(self, f4):
        with pytest.raises(ZeroDivisionError):
            f4.inv(f4.zero)

    @pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2), (2, 5), (5, 3)])
    def test_inverse_randomized(self, q, k):
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        rnd = random.Random(17 * q + k)
        for _ in range(1000):
            a = ext.element([rnd.randrange(q) for _ in range(k)])
            if a == ext.zero:
                continue
            assert ext.mul(a, ext.inv(a)) == ext.one

    def test_pow_matches_repeated_mul(self, f4):
        lam = f4.gen()
        acc = f4.one
        for e in range(8):
            assert f4.pow(lam, e) == acc
            acc = f4.mul(acc, lam)

    @pytest.mark.parametrize("q,k", [(2, 5), (3, 3), (2, 17)])
    def test_pow_product_count(self, q, k):
        # Left-to-right square-and-multiply: bit_length(e) - 1 squarings
        # and popcount(e) - 1 further products, so a^2 is one product.
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        a = ext.gen()
        for e in [1, 2, 3, 4, 7, 8, 13, 64, 255, 1000]:
            with OpCount() as c:
                got = ext.pow(a, e)
            want = ext.one
            for _ in range(e):
                want = ext._mul_raw(want, a)
            assert got == want
            assert c.ext_mul == e.bit_length() - 1 + bin(e).count("1") - 1
        with OpCount() as c:
            assert ext.pow(a, 0) == ext.one
        assert c.ext_mul == 0

    def test_element_coercion_and_strings(self, f4):
        assert f4.element(1) == 1
        assert f4.element([1, 1]) == 3
        assert f4.to_str(3) == "1 1"
        assert f4.from_str("1 1") == 3
        with pytest.raises(ValueError):
            f4.from_str("1")
        with pytest.raises(ValueError):
            f4.element([1, 0, 1])

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (2, 17), (3, 11),
                                     (7, 2), (13, 2)])
    def test_element_rejects_out_of_range_digits(self, q, k):
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        assert ext.element([q - 1, 0]) == q - 1
        assert ext.element([1, q - 1]) == 1 + (q - 1) * q
        assert ext.element(()) == 0
        for bad in ([q, 0], [-1], [0, q + 1], [1, 2 * q], [256],
                    [0, max(q, 10)], [1, max(q, 11), 0][:k]):
            with pytest.raises(ValueError):
                ext.element(bad)

    def test_element_order(self, f4):
        els = list(f4.elements())
        assert len(els) == 4 and len(set(els)) == 4
        assert els[0] == f4.zero


# Digests of the exp, log and zech tables of every odd-q table field
# with q^k <= 2^12 under its default modulus, taken before the odd-q walk
# by x folded the top digit through precomputed rows.
ODD_TABLE_DIGESTS = {
    (3, 2): "811a000683e87932", (3, 3): "c3d7c6dbbb5df7b5",
    (3, 4): "9c55c67b9e27c12d", (3, 5): "2d5d242e8ea3385f",
    (3, 6): "2cdcfeb71a98c2b2", (3, 7): "8589f28cf85d02e2",
    (5, 2): "08e11c15b38b3124", (5, 3): "0790aba27bf31f82",
    (5, 4): "57b3c775f4f91b19", (5, 5): "29dbb8dd716eacc6",
    (7, 2): "05f73b8e9e2cfd0f", (7, 3): "3b58f068584ff08f",
    (7, 4): "defa5f8d216d104f", (11, 2): "11a5316686f23a42",
    (11, 3): "fe7d6d7c8f911e9f", (13, 2): "9983b78435aec7bf",
    (13, 3): "3da1b59cce686d21", (17, 2): "abba02b11d2a071a",
    (19, 2): "c9289671dd27cff7", (23, 2): "df4fc13f36b5d233",
    (29, 2): "7a758702258b0b7f", (31, 2): "eeb3a06243d2bcdf",
    (37, 2): "065ed8eebff08b69", (41, 2): "f9bb95059629ca7a",
    (43, 2): "61f568a746b26d41", (47, 2): "d4051129e0e2ca1d",
    (53, 2): "7d0e3ec379183f50", (59, 2): "5bd0f27474a75c64",
    (61, 2): "53610c3d2d820a31",
}


def tables_by_raw_walk(ext):
    """exp, log and zech of an odd-q table field by their definitions,
    from products by ``_mul_raw``: g is x when walking by x from 1
    meets every nonzero element, else the least element of order n;
    exp[i] = g^i, log[g^i] = i, and zech[d] = log(1 + g^d), or -1 where
    1 + g^d = 0."""
    q, order = ext.q, ext.order
    n = order - 1

    def walk(g):
        out = [1]
        for _ in range(n - 1):
            out.append(ext._mul_raw(out[-1], g))
        return out

    def primitive(g):
        return all(gf._power(ext._mul_raw, g, n // p) != 1
                   for p in range(2, n + 1) if n % p == 0 and is_prime(p))

    exp = walk(q)
    if len(set(exp)) < n:
        exp = walk(next(g for g in range(q + 1, order) if primitive(g)))
    log = [0] * order
    for i, e in enumerate(exp):
        log[e] = i
    zech = [log[ext._digitwise(e, 1, 1)] if e != q - 1 else -1
            for e in exp]
    return exp, log, zech


# Every default odd-q table field with q <= 13, then moduli whose x is
# not primitive (cosets c = n / ord(x) in the comment), then primitive
# ones whose x^k mod p has every digit nonzero.
ODD_ORACLE_FIELDS = [
    (q, find_irreducible(q, k)) for q in (3, 5, 7, 11, 13)
    for k in range(2, 11) if q ** k <= gf.TABLE_LIMIT] + [
    (3, (1, 1, 1, 1, 1)),          # c = 16
    (3, (2, 2, 1, 2, 0, 1)),       # c = 22
    (5, (1, 1, 1)),                # c = 8
    (5, (4, 1, 0, 1)),             # c = 4
    (7, (3, 0, 0, 1)),             # c = 38
    (11, (1, 1, 1)),               # c = 40
    (13, (1, 3, 1)),               # c = 24
    (3, (1, 2, 1, 1, 1, 1)),
    (5, (3, 1, 1, 1)),
]


class TestTableBuild:
    # (q, k, modulus or None for the default, cosets c = (q^k - 1) / ord(x))
    CASES = [
        (3, 5, None, 1),          # x primitive: the walk of x is exp
        (2, 4, None, 1),
        (2, 9, None, 7),          # ord(x) = 73
        (7, 2, (1, 0, 1), 12),    # x^2 + 1: ord(x) = 4
        (13, 4, None, 595),       # ord(x) = 48
    ]

    @staticmethod
    def build(q, k, modulus, monkeypatch):
        raw_pows = []
        pow_raw = ExtField._pow_raw

        def counting(self, a, e):
            raw_pows.append((a, e))
            return pow_raw(self, a, e)

        monkeypatch.setattr(ExtField, "_pow_raw", counting)
        ext = ExtField(PrimeField(q), modulus or find_irreducible(q, k))
        monkeypatch.undo()
        return ext, raw_pows

    @pytest.mark.parametrize("q,k,modulus,cosets", CASES)
    def test_exp_log_over_least_primitive(self, q, k, modulus, cosets,
                                          monkeypatch):
        ext, raw_pows = self.build(q, k, modulus, monkeypatch)
        n = ext.order - 1
        exp, log = ext._exp, ext._log
        assert len(exp) == 2 * n and len(log) == ext.order
        assert sorted(exp[:n]) == list(range(1, ext.order))
        assert all(log[exp[i]] == i for i in range(n))
        assert exp[n:] == exp[:n]

        def order(a):
            return n // math.gcd(n, log[a])

        assert order(q) == n // cosets
        g = exp[1]
        assert order(g) == n
        assert all(order(a) < n for a in range(q, g))
        if cosets == 1:
            assert g == q and raw_pows == []
        else:
            assert raw_pows

    @pytest.mark.parametrize("q,k,modulus,cosets", CASES)
    def test_table_arithmetic_matches_raw(self, q, k, modulus, cosets,
                                          monkeypatch):
        ext, _ = self.build(q, k, modulus, monkeypatch)
        if ext.order <= 1 << 10:
            pairs = list(itertools.product(range(ext.order), repeat=2))
        else:
            rnd = random.Random(ext.order)
            pairs = [(rnd.randrange(ext.order), rnd.randrange(ext.order))
                     for _ in range(5000)]
        for a, b in pairs:
            assert ext.mul(a, b) == ext._mul_raw(a, b)
            if q % 2:
                assert ext.add(a, b) == ext._digitwise(a, b, 1)

    @pytest.mark.parametrize("q,k", sorted(ODD_TABLE_DIGESTS))
    def test_odd_tables_are_unchanged(self, q, k):
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        h = hashlib.sha256()
        for table in (ext._exp, ext._log, ext._zech):
            h.update(",".join(map(str, table)).encode() + b";")
        assert h.hexdigest()[:16] == ODD_TABLE_DIGESTS[q, k]

    @pytest.mark.parametrize("q,modulus", ODD_ORACLE_FIELDS)
    def test_odd_tables_match_the_raw_walk(self, q, modulus):
        ext = ExtField(PrimeField(q), modulus)
        exp, log, zech = tables_by_raw_walk(ext)
        n = ext.order - 1
        assert list(ext._exp) == exp + exp
        assert list(ext._log) == log
        assert list(ext._zech) == zech and ext._half == n // 2

    @pytest.mark.parametrize("width", [0, 1, 4, 5, 13, 24])
    def test_packed_row_kernel_by_top_window(self, width):
        # Rows whose entries top out at every width, zeros included,
        # agree with mul in the packed kernel.
        ext = ExtField(PrimeField(2), find_irreducible(2, 24))
        rnd = random.Random(width)
        ys = [0, 1 << width >> 1] + [rnd.randrange(1 << width)
                                     for _ in range(6)]
        xs = [rnd.randrange(ext.order) for _ in ys]
        g = rnd.randrange(2, ext.order)
        assert ext.axpy(xs, g, ys) == [ext.add(x, ext.mul(g, y))
                                       for x, y in zip(xs, ys)]


def shift_and_fold(a, b, k, bits):
    """Reference q = 2 product: carry-less by one set bit of b at a
    time, then reduced by the modulus bit pattern one top bit at a time."""
    r = 0
    while b:
        low = b & -b
        r ^= a * low
        b ^= low
    top = r.bit_length() - 1
    while top >= k:
        r ^= bits << (top - k)
        top = r.bit_length() - 1
    return r


class TestPackedProduct:
    # (2, 9) multiplies by tables but builds them with _mul_raw; (2, 29)
    # leaves a 4-bit last byte in the high half, (2, 33) needs four fold
    # tables.
    @pytest.mark.parametrize("k", [2, 3, 9, 16, 17, 24, 29, 33])
    def test_matches_shift_and_fold(self, k):
        ext = ExtField(PrimeField(2), find_irreducible(2, k))
        assert len(ext._fold) == -(-(k - 1) // 8)
        rnd = random.Random(k)
        top = (1 << k) - 1
        pairs = [(0, 0), (0, top), (1, top), (top, top), (top, 1 << k >> 1)]
        pairs += [(rnd.getrandbits(k), rnd.getrandbits(k))
                  for _ in range(500)]
        for _ in range(200):
            # deg a + deg b <= k - 1: the high half is zero
            i = rnd.randrange(k)
            a, b = rnd.getrandbits(i + 1), rnd.getrandbits(k - i)
            assert shift_and_fold(a, b, k, 0) < 1 << k
            pairs.append((a, b))
        for a, b in pairs:
            assert ext._mul_raw(a, b) == shift_and_fold(a, b, k, ext._bits)
            assert ext._mul_raw(b, a) == ext._mul_raw(a, b)

    def test_row_kernels_with_wide_slots(self):
        # At k = 129 an entry takes three 64-bit words and its slot five,
        # and a squaring step that shifted whole slots rather than only
        # the bits it moves would spill into the next slot.
        k = 129
        ext = ExtField(PrimeField(2), find_irreducible(2, k))
        rnd = random.Random(k)
        top = (1 << k) - 1
        g = rnd.getrandbits(k) | 1 << k - 1
        ys = [0, 1, g, top] + [rnd.getrandbits(k) for _ in range(2 * k)]
        xs = [rnd.getrandbits(k) for _ in ys]
        assert ext.axpy(xs, g, ys) == [
            x ^ shift_and_fold(g, y, k, ext._bits) for x, y in zip(xs, ys)]
        rows = ext.rows
        h = rows.square_plus(rows.load(ys), g, len(ys))
        got = []
        for _ in ys:
            v, h = rows.pop(h)
            got.append(v)
        assert got == [shift_and_fold(y, y ^ g, k, ext._bits) for y in ys]


class TestSharedKernels:
    """The carry-less product, the digit reader, the Frobenius orbit and
    the q = 2 x-step are each written once and serve every caller."""

    @pytest.mark.parametrize("k", [17, 24, 33, 64, 129])
    def test_clmul_is_the_unreduced_product(self, k):
        # Of two ints, and of a whole slotted row by one element: every
        # slot holds its entry's product, unreduced.
        rnd = random.Random(k)
        top = (1 << k) - 1
        pairs = [(0, 0), (0, top), (top, 0), (1, top), (top, top),
                 (1 << k - 1, 1 << k - 1)]
        pairs += [(rnd.getrandbits(k), rnd.getrandbits(k))
                  for _ in range(300)]
        for a, b in pairs:
            assert gf._clmul(a, b) == shift_and_fold(a, b, 2 * k, 0)
        rows = ExtField(PrimeField(2), find_irreducible(2, k)).rows
        ys = [0, 1, top] + [rnd.getrandbits(k) for _ in range(2 * k)]
        for g in [1, top, 1 << k - 1] + [rnd.getrandbits(k)
                                         for _ in range(20)]:
            assert gf._clmul(rows.load(ys), g) == sum(
                shift_and_fold(y, g, 2 * k, 0) << rows.width * i
                for i, y in enumerate(ys))

    def test_binary_digits_round_trip(self):
        rnd = random.Random(2)
        for k in range(1, 130):
            values = [0, 1, (1 << k) - 1, 1 << k - 1] + [
                rnd.getrandbits(k) for _ in range(20)]
            for a in values:
                bits = gf._to_digits(a, 2, k)
                assert gf._from_digits(bits, 2) == a
                assert gf._from_digits(tuple(bits), 2) == a
                assert gf._from_digits(bits + [0, 0], 2) == a
        # An empty numeral is 0, on table and packed fields alike.
        assert gf._from_digits([], 2) == gf._from_digits((), 2) == 0
        for k in 2, 9, 24:
            ext = ExtField(PrimeField(2), find_irreducible(2, k))
            assert ext.element([]) == ext.element(()) == 0
            assert ext.element([0, 1]) == ext.gen()

    # Table fields of both characteristics, and packed ones.
    @pytest.mark.parametrize("q,k", [(2, 4), (3, 5), (2, 24), (3, 11),
                                     (5, 7)])
    def test_orbit_is_repeated_frobenius(self, q, k):
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        rnd = random.Random(q * k)
        values = [0, 1, ext.gen()] + [rnd.randrange(ext.order)
                                      for _ in range(5)]
        for a in values:
            for n in 1, 2, k, k + 1:
                with OpCount() as want:
                    expected = [a]
                    for _ in range(n - 1):
                        expected.append(ext.frobenius(expected[-1], 1))
                with OpCount() as got:
                    orbit = ext._orbit(a, n)
                assert orbit == expected
                assert repr(got) == repr(want)
            assert ext._orbit(a, k + 1)[k] == a

    # Table fields, packed ones, and a modulus with 23 nonzero terms.
    @pytest.mark.parametrize("k,modulus", [
        *((k, None) for k in [*range(2, 10), 16, 17, 24, 33, 64, 129]),
        pytest.param(24, DENSE_24, id="24-dense")])
    def test_x_step_serves_rows_and_byte_tables(self, k, modulus):
        # The x-step, the rows of matrix_rep over F_2, and the fold and
        # Frobenius byte tables built from it, against shift_and_fold.
        modulus = modulus or find_irreducible(2, k)
        ext = ExtField(PrimeField(2), modulus)

        def times(a, b):
            return shift_and_fold(a, b, k, ext._bits)

        rnd = random.Random(k)
        values = [0, 1, (1 << k) - 1, 1 << k - 1] + [
            rnd.getrandbits(k) for _ in range(5)]
        code = SpreadCode(2, k, 2, modulus[:k])
        for a in values:
            for n in 1, 2, k, 2 * k:
                assert ext._x_steps(a, n) == [times(a, 1 << i)
                                              for i in range(n)]
            assert code.matrix_rep(a).bits == tuple(times(a, 1 << i)
                                                    for i in range(k))
        # fold_i[n] = n*x^(k+8i) over the k - 1 bits of a product's high
        # half; frob_i[n] = (n*x^(8i))^2 over the k bits of an element.
        tables = [(ext._fold, k - 1, lambda n: times(n, 1 << k))]
        if ext._frob is not None:
            tables.append((ext._frob, k, lambda n: times(n, n)))
        for table, nbits, image in tables:
            assert [len(t) for t in table] == [
                1 << min(8, nbits - i) for i in range(0, nbits, 8)]
            for i, t in enumerate(table):
                assert t == [image(n << 8 * i) for n in range(len(t))]


class TestFrobenius:
    def test_identity_and_order(self, f4):
        lam = f4.gen()
        assert f4.frobenius(lam, 0) == lam
        assert f4.frobenius(lam, f4.k) == lam

    def test_f4_square_of_generator(self, f4):
        # oracle: square by plain polynomial multiplication
        assert f4.mul(f4.gen(), f4.gen()) == 3
        assert f4.frobenius(f4.gen(), 1) == 3

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (2, 4), (5, 2)])
    def test_is_field_automorphism(self, q, k):
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        rnd = random.Random(q * k)
        for _ in range(300):
            a = ext.element([rnd.randrange(q) for _ in range(k)])
            b = ext.element([rnd.randrange(q) for _ in range(k)])
            assert (ext.frobenius(ext.add(a, b), 1)
                    == ext.add(ext.frobenius(a, 1), ext.frobenius(b, 1)))
            assert (ext.frobenius(ext.mul(a, b), 1)
                    == ext.mul(ext.frobenius(a, 1), ext.frobenius(b, 1)))
            assert ext.frobenius(a, 1) == ext.pow(a, q)

    # (2, 17) and (3, 11) are packed: a^(q^j) applies one map j times.
    @pytest.mark.parametrize("q,k", [(2, 3), (3, 3), (2, 5), (2, 17),
                                     (3, 11)])
    def test_unit_steps_cycle(self, q, k):
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        rnd = random.Random(k)
        for _ in range(100):
            a = ext.element([rnd.randrange(q) for _ in range(k)])
            cur = a
            for _ in range(k):
                cur = ext.frobenius(cur, 1)
            assert cur == a
            assert ext.frobenius(a, 2) == ext.frobenius(
                ext.frobenius(a, 1), 1)


class TestTrace:
    def test_zero(self, f4):
        assert f4.trace(f4.zero) == 0

    def test_f4_generator_by_direct_arithmetic(self, f4):
        # lam + lam^2 = lam + (lam + 1) = 1
        lam = f4.gen()
        assert f4.add(lam, f4.mul(lam, lam)) == f4.one
        assert f4.trace(lam) == 1

    @pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2), (5, 3)])
    def test_frobenius_invariant_and_additive(self, q, k):
        ext = ExtField(PrimeField(q), find_irreducible(q, k))
        rnd = random.Random(q + k)
        for _ in range(200):
            a = ext.element([rnd.randrange(q) for _ in range(k)])
            b = ext.element([rnd.randrange(q) for _ in range(k)])
            assert ext.trace(a) == ext.trace(ext.frobenius(a, 1))
            assert ext.trace(ext.add(a, b)) == (ext.trace(a)
                                                + ext.trace(b)) % q


class TestOpCount:
    def test_counts_by_layer(self, f4):
        base = PrimeField(5)
        with OpCount() as c:
            f4.mul(f4.gen(), f4.gen())
            f4.inv(f4.gen())
            base.mul(2, 3)
            base.inv(4)
        assert (c.ext_mul, c.ext_inv) == (1, 1)
        assert (c.base_mul, c.base_inv) == (1, 1)
        assert c.ext_total == 2 and c.base_total == 2

    def test_nesting_restores_outer(self, f4):
        with OpCount() as outer:
            f4.mul(f4.one, f4.one)
            with OpCount() as inner:
                f4.mul(f4.one, f4.one)
                f4.mul(f4.one, f4.one)
            f4.mul(f4.one, f4.one)
        assert inner.ext_mul == 2
        assert outer.ext_mul == 2

    def test_no_counter_active_is_fine(self, f4):
        assert f4.mul(f4.gen(), f4.one) == f4.gen()

    def test_counts_are_thread_local(self, f4):
        import threading
        results = {}

        def work(name, reps):
            with OpCount() as c:
                for _ in range(reps):
                    f4.mul(f4.gen(), f4.gen())
            results[name] = c.ext_mul

        threads = [threading.Thread(target=work, args=(i, 50 + i))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {i: 50 + i for i in range(4)}

    def test_open_counter_flag_survives_thread_churn(self, f4):
        # Many threads open and close counters concurrently; the shared
        # "any counter open" flag must return to zero and no thread may
        # lose a count.
        import sys
        import threading
        from spreadcodes import gf

        results = {}

        def work(name):
            total = 0
            for _ in range(200):
                with OpCount() as c:
                    f4.mul(f4.gen(), f4.gen())
                total += c.ext_mul
            results[name] = total

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: 200 for i in range(8)}
        assert gf._open_counters == 0
