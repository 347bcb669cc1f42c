"""The package's public names: everything in ``__all__`` resolves, and
the paper's pencil pieces, which only the tests and the benchmark
tracer use, stay out of it while remaining importable where they live."""

import importlib

import pytest

import spreadcodes

# Each name left the package's API; it lives in this module.
RETIRED = {
    "AffinePencil": "spreadcodes.decoder",
    "PairSupport": "spreadcodes.decoder",
    "candidate_roots": "spreadcodes.decoder",
    "pair_support": "spreadcodes.decoder",
    "REASON_AMBIGUOUS": "spreadcodes.decoder",
    "decode_pair": "spreadcodes.decoder",
    "disjoint_pivot_tuples": "spreadcodes.linalg",
    "minor": "spreadcodes.linalg",
    "nondiagonal_rank": "paper_reference",     # tests/paper_reference.py
    "mu_characterization": "paper_reference",
}


def test_every_exported_name_resolves():
    assert len(set(spreadcodes.__all__)) == len(spreadcodes.__all__)
    for name in spreadcodes.__all__:
        assert hasattr(spreadcodes, name), name


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_name_is_not_exported(name):
    assert name not in spreadcodes.__all__
    assert not hasattr(spreadcodes, name)


@pytest.mark.parametrize("name,home", sorted(RETIRED.items()))
def test_retired_name_resolves_where_it_lives(name, home):
    assert getattr(importlib.import_module(home), name) is not None
