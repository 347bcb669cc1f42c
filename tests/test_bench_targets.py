"""The benchmark's tracer names package callables by string, so a
rename would otherwise fail only in the middle of a traced benchmark
run.  This loads ``bench/tracing.py`` by path, without changing it, and
checks that every name it wraps or counts resolves in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", tracing.TARGETS,
                         ids=lambda t: ".".join(x for x in t[:3] if x))
def test_target_resolves(target):
    mod_name, owner, attr, _, _ = target
    module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    if owner is None:
        assert callable(getattr(module, attr))
    else:
        # The tracer replaces the attribute in the class's own namespace.
        raw = getattr(module, owner).__dict__[attr]
        assert callable(raw.__func__ if isinstance(raw, classmethod)
                        else raw)


def test_reason_constants_resolve():
    decoder = importlib.import_module(f"{tracing.PACKAGE}.decoder")
    for const in tracing.REASONS:
        assert isinstance(getattr(decoder, const), str)
