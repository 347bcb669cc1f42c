"""The package's one element rule: a value is an element of a field, or
a digit, when it is a plain int (not a bool) in range.  Every checked
entry point refuses anything else with a ValueError that names it."""

import re

import numpy as np
import pytest

from spreadcodes.gf import ExtField, PrimeField, is_element
from spreadcodes.linalg import Matrix, rank
from spreadcodes.spread import SpreadCode, Subspace

F2 = PrimeField(2)
F3 = PrimeField(3)


@pytest.mark.parametrize("value,ok", [
    (0, True), (2, True), (3, False), (-1, False), (1.0, False),
    (1.5, False), (True, False), (False, False), (None, False),
    (np.int64(1), False), ("1", False)])
def test_is_element(value, ok):
    assert is_element(value, 3) is ok


class TestMatrix:
    @pytest.mark.parametrize("field,rows,named", [
        (F3, [[1.5, 0]], "1.5"),        # was taken, with rank 1
        (F2, [[True, 0]], "True"),      # was taken
        (F2, [[1.0, 0]], "1.0"),        # was taken; rank raised TypeError
        (F3, [[None, 0]], "None"),      # was a TypeError
        (F3, [[np.int64(1), 0]], "np.int64(1)")])   # was taken
    def test_constructor_refuses(self, field, rows, named):
        with pytest.raises(ValueError,
                           match=re.escape(f"entry {named} is outside")):
            Matrix(field, rows)

    def test_diagonal_and_scale_refuse(self):
        with pytest.raises(ValueError, match="entry 1.0 is outside"):
            Matrix.diagonal(F3, [1.0])
        for bad in (2.0, True):
            with pytest.raises(ValueError, match=f"entry {bad} is outside"):
                Matrix.identity(F3, 2).scale(bad)

    def test_subspace_contains_refuses(self):
        sub = Subspace(Matrix(F2, [[1, 0, 1]]))
        with pytest.raises(ValueError, match="entry True is outside"):
            sub.contains([True, False, True])
        assert sub.contains([1, 0, 1])

    def test_plain_ints_are_taken(self):
        assert rank(Matrix(F3, [[2, 0], [0, 1]])) == 2


@pytest.mark.parametrize("qkr", [(2, 3, 2), (2, 17, 2)])   # table, packed
class TestExtElement:
    def test_int_form_refuses(self, qkr):
        ext = SpreadCode(*qkr).ext
        for bad in (True, 1.0, None, np.int64(1)):
            with pytest.raises(ValueError,
                               match=re.escape(f"{bad!r} does not encode")):
                ext.element(bad)

    def test_digit_form_refuses(self, qkr):
        ext = SpreadCode(*qkr).ext
        with pytest.raises(ValueError, match=r"a digit of \(1.0, 0\)"):
            ext.element([1.0, 0])       # was 1.0
        with pytest.raises(ValueError, match=r"a digit of \(True, 1\)"):
            ext.element([True, 1])      # was 3

    def test_plain_ints_are_taken(self, qkr):
        ext = SpreadCode(*qkr).ext
        assert ext.element([1, 1]) == 3
        assert ext.element(3) == 3
        assert ext.element(()) == 0


class TestModulus:
    @pytest.mark.parametrize("low,named", [
        ((True, 1, 0), "p_0 = True"),   # was built, header "2 3 2 True 1 0"
        ((1.0, 1, 0), "p_0 = 1.0"),     # was a TypeError
        ((1, np.int64(1), 0), "p_1 = np.int64(1)")])
    def test_spread_code_refuses(self, low, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            SpreadCode(2, 3, 2, low)

    def test_ext_field_refuses(self):
        with pytest.raises(ValueError, match="p_2 = True"):
            ExtField(F2, (1, 1, True))
