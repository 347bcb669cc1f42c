"""The package's records: frozen slotted classes on ``linalg.Record``.

Every public record, and the two the decoder keeps for the paper's
pencil, survives ``pickle``, ``copy.copy`` and ``copy.deepcopy`` equal
to itself with the same hash and text; none takes an assignment; each
is equal only to a record of its own class.  A fresh interpreter that
imports the package and its CLI loads neither ``dataclasses`` nor
``inspect``, nor numpy, which only the channel's first draw needs.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import spreadcodes
from spreadcodes import (ChannelSpec, DecodeResult, Matrix, ReceivedSpace,
                         SimRecord, SpreadCode, rref)
from spreadcodes.decoder import REASON_NO_CODEWORD, AffinePencil, PairSupport


def records(q, k, r):
    """One of each record over the code (q, k, r)."""
    code = SpreadCode(q, k, r)
    cw = code.encode([1, q + 1] + [0] * (r - 2))
    pencil = AffinePencil(Matrix.identity(code.ext, 2),
                          Matrix.zeros(code.ext, 2, 2))
    return [ChannelSpec(erasures=1, errors=2),
            SimRecord(1, 2, 10, 7, 3, 41.5, 60),
            cw, DecodeResult(cw), DecodeResult(None, REASON_NO_CODEWORD),
            ReceivedSpace(cw.subspace, k), rref(code.P), pencil,
            PairSupport(pencil, (1,), (1,), (2,))]


ROUND_TRIPS = {"pickle": lambda o: pickle.loads(pickle.dumps(o)),
               "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("q,k,r", [(2, 3, 2), (3, 3, 2), (2, 24, 2),
                                   (3, 5, 4)])
def test_round_trip_keeps_every_record(q, k, r, how):
    for rec in records(q, k, r):
        back = ROUND_TRIPS[how](rec)
        assert type(back) is type(rec)
        assert back == rec and hash(back) == hash(rec)
        assert repr(back) == repr(rec)
        for name in rec.__slots__:
            assert getattr(back, name) == getattr(rec, name), name


@pytest.mark.parametrize("rec", records(2, 3, 2),
                         ids=lambda r: type(r).__name__)
def test_fields_are_read_only(rec):
    name = rec.__slots__[0]
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(rec, name, None)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_repr_is_the_field_list():
    assert repr(ChannelSpec(1, 2)) == "ChannelSpec(erasures=1, errors=2)"
    assert repr(SimRecord(1, 2, 10, 7, 3, 41.5, 60)) == (
        "SimRecord(errors=1, erasures=2, trials=10, successes=7, "
        "failures=3, mean_ops=41.5, max_ops=60)")
    assert repr(DecodeResult(None, "x")) == (
        "DecodeResult(codeword=None, reason='x')")
    code = SpreadCode(2, 3, 2)
    cw = code.encode([1, 0])
    assert repr(cw) == ("Codeword(point=(1, 0), "
                        "subspace=Subspace(dim=3, ambient=6))")
    assert repr(rref(code.P)) == (
        "RrefResult(matrix=Matrix(3x3 over PrimeField(2)), rank=3, "
        "pivot_cols=(1, 2, 3))")


def test_equality_needs_the_same_class():
    a, b = ChannelSpec(1, 2), ChannelSpec(erasures=1, errors=2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ChannelSpec(2, 1)
    assert a != (1, 2)
    assert DecodeResult(None, "") != ChannelSpec(None, "")
    assert DecodeResult(None) == DecodeResult(None, "")
    assert not DecodeResult(None).ok
    assert hash(SimRecord(1, 2, 3, 4, 5, 6.0, 7)) == hash((1, 2, 3, 4, 5,
                                                           6.0, 7))


def test_codeword_compares_by_point():
    code = SpreadCode(2, 3, 2)
    cw = code.encode([1, 3])
    other = type(cw)(cw.point, None)
    assert other == cw and hash(other) == hash(cw)
    assert cw != code.encode([1, 4])


def test_construction_checks_stay():
    code = SpreadCode(2, 3, 2)
    sub = code.encode([1, 0]).subspace
    with pytest.raises(ValueError, match="block size"):
        ReceivedSpace(sub, 0)
    with pytest.raises(ValueError, match="multiple of k"):
        ReceivedSpace(sub, 4)
    with pytest.raises(ValueError, match="pencil parts"):
        AffinePencil(Matrix.identity(code.ext, 2),
                     Matrix.identity(code.ext, 3))
    with pytest.raises(TypeError):
        ChannelSpec(1)


def test_import_loads_no_dataclasses_inspect_or_numpy():
    src = os.path.dirname(os.path.dirname(spreadcodes.__file__))
    # -S keeps site's own imports out of the check.
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, spreadcodes, spreadcodes.cli\n"
         "print(spreadcodes.__file__)\n"
         "print(sorted(m for m in ('dataclasses', 'inspect', 'numpy')\n"
         "             if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout.splitlines()
    assert out == [spreadcodes.__file__, "[]"]
