import itertools
import math
import random

import pytest

from spreadcodes import gf
from spreadcodes.gf import (ExtField, OpCount, PrimeField, find_irreducible,
                            is_prime, poly_is_irreducible)


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
        real = gf._poly_divmod

        def counting(*args):
            divisions.append(args)
            return real(*args)

        monkeypatch.setattr(gf, "_poly_divmod", counting)
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


class TestPrimeField:
    def test_requires_prime(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        assert is_prime(2) and is_prime(97) and not is_prime(91)

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

    def test_element_coercion_and_strings(self, f4):
        assert f4.element(1) == 1
        assert f4.element([1, 1]) == 3
        assert f4.to_str(3) == "1 1"
        assert f4.from_str("1 1") == 3
        with pytest.raises(ValueError):
            f4.from_str("1")
        with pytest.raises(ValueError):
            f4.element([1, 0, 1])

    def test_element_order(self, f4):
        els = list(f4.elements())
        assert len(els) == 4 and len(set(els)) == 4
        assert els[0] == f4.zero


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

    @pytest.mark.parametrize("width", [0, 1, 4, 5, 13, 24])
    def test_packed_row_kernel_by_top_window(self, width):
        # The packed kernel reads every window of a nonzero y, zero top
        # windows included, and skips zero entries; rows topping out at
        # every width agree with mul.
        ext = ExtField(PrimeField(2), find_irreducible(2, 24))
        rnd = random.Random(width)
        ys = [0, 1 << width >> 1] + [rnd.randrange(1 << width)
                                     for _ in range(6)]
        xs = [rnd.randrange(ext.order) for _ in ys]
        g = rnd.randrange(2, ext.order)
        assert ext.axpy(xs, g, ys) == [ext.add(x, ext.mul(g, y))
                                       for x, y in zip(xs, ys)]


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

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 3), (2, 5)])
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
