"""Inputs outside the contract are refused with the message of the check
that guards them.  Each test matches that message, so it fails if its
check is deleted, even where a later check would refuse the input too.
"""

import pytest

from spreadcodes import cli
from spreadcodes.decoder import ReceivedSpace, decode_pair
from spreadcodes.gf import ExtField, PrimeField
from spreadcodes.linalg import Matrix, parse_matrix
from spreadcodes.spread import (SpreadCode, Subspace, check_code_limits,
                                companion_matrix, parse_header)

F2 = PrimeField(2)


@pytest.mark.parametrize("line", ["2 0 2", "2 3", ""])
def test_header_with_fewer_than_four_fields(line):
    # "2 0 2" lists its k = 0 coefficients; only the length check stops it.
    with pytest.raises(ValueError, match="^bad code header"):
        parse_header(line)


def test_header_with_the_wrong_coefficient_count():
    with pytest.raises(ValueError, match="header lists 2 coefficients, "
                                         "expected 3"):
        parse_header("2 3 2 1 1")


@pytest.mark.parametrize("k", [1, 0])
def test_code_limits_refuse_k_below_two(k):
    with pytest.raises(ValueError, match="k must be at least 2"):
        check_code_limits(2, k, 2)


@pytest.mark.parametrize("point", [(1,), (1, 0, 0)])
def test_point_with_the_wrong_number_of_coordinates(point):
    with pytest.raises(ValueError, match="point needs 2 coordinates"):
        SpreadCode(2, 3, 2).normalize_point(point)


@pytest.mark.parametrize("q,modulus", [(3, (1, 0, 2)), (2, (1, 1, 0))])
def test_companion_matrix_of_a_non_monic_polynomial(q, modulus):
    with pytest.raises(ValueError, match="monic"):
        companion_matrix(PrimeField(q), modulus)


def test_codeword_list_refuses_a_large_code(monkeypatch):
    code = SpreadCode(2, 7, 4)
    assert code.size > 10 ** 6

    def enumerated(self):
        raise AssertionError("the code was enumerated")

    monkeypatch.setattr(SpreadCode, "codewords", enumerated)
    with pytest.raises(ValueError, match="code too large to enumerate"):
        code.codeword_list()


def test_received_space_of_the_zero_space():
    zero = Subspace.from_generators(Matrix.zeros(F2, 1, 4))
    with pytest.raises(ValueError, match="dimension at least 1"):
        ReceivedSpace(zero, 2)


def test_received_width_not_a_multiple_of_k():
    sub = Subspace.from_generators(Matrix(F2, [[1, 0, 1]]))
    with pytest.raises(ValueError, match="not a multiple of k"):
        ReceivedSpace(sub, 2)


def test_ragged_matrix_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix(F2, [[1, 0], [1]])


@pytest.mark.parametrize("text", ["", " \n\n\t\n"])
def test_parse_matrix_of_blank_text(text):
    with pytest.raises(ValueError, match="^line 1: empty matrix text$"):
        parse_matrix(F2, text)


@pytest.mark.parametrize("q,modulus", [(2, (1, 1)), (3, (2, 1))])
def test_ext_field_of_degree_one(q, modulus):
    with pytest.raises(ValueError, match="modulus must be monic of "
                                         "degree >= 2"):
        ExtField(PrimeField(q), modulus)


def test_bench_with_an_empty_k_list(capsys):
    assert cli.main(["bench", "--q", "2", "--k", ","]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "usage error: --k must list at least one block size\n"


def test_decode_pair_of_a_three_block_code():
    # The pair is decoded by the two-block code of the same modulus.
    code = SpreadCode(2, 3, 3, (1, 1, 0))
    pair = code.pairwise()
    assert (pair.r, pair.n, pair.modulus) == (2, 6, code.modulus)
    result = decode_pair(Matrix.identity(code.base, 3), code.P, code)
    assert result.ok
    assert result.codeword == pair.encode((1, code.alpha))
    assert result.codeword.subspace.ambient == 6
