"""Span tracing for the benchmark, installed from outside the package.

The tracer wraps the public callables of each ``spreadcodes`` layer
(``gf``, ``linalg``, ``spread``, ``decoder``, ``channel``, ``cli``) and
records one span per call: name, start, end, parent span and request id.
Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.

Wrappers replace the original object at every import site: the defining
module, every ``spreadcodes`` module that imported the name, and the
package namespace.  Methods are replaced on their class.  :meth:`remove`
puts every original back, so untraced runs measure unmodified code.

The field operations (``ExtField.mul``/``inv``/``frobenius``,
``PrimeField.mul``) run millions of times per run and call nothing that
is traced, so they are leaves: they are counted and timed in aggregate,
and their time is charged to the enclosing span as child time, instead
of storing one span per call.

The end-to-end figure each layer's rows should move, and where:

* ``gf``: latency on sim-q2k9r2 and build-q2k24r2; ``setup_s`` on
  build-q2k24r2 (``find_irreducible``, ``ExtField.init``); ``base_mul``
  moves latency on cli-q3k5r4.
* ``linalg``: the ``.ext`` rows move latency on sim-q2k9r2 and
  ``setup_s`` on build-q2k24r2; the ``.base`` rows latency on cli-q3k5r4.
* ``spread``: latency on cli-q3k5r4, which builds the code per request;
  ``setup_s`` on build-q2k24r2.
* ``decoder``: latency on sim-q2k9r2 and build-q2k24r2.
* ``channel``: throughput on sim-q2k9r2 only.
* ``cli``: latency on cli-q3k5r4 only.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

PACKAGE = "spreadcodes"
LAYERS = ("gf", "linalg", "spread", "decoder", "channel", "cli")

# (module, owner, attribute, kind, span name).  ``owner`` is None for a
# module-level function, else the class whose method is wrapped.  A name
# containing "{field}" is completed per call with "base" or "ext" from
# the field of the first argument.  Kind "count" wraps private decoder
# steps only to count which path a decode took; those record no span.
# The general path is counted by its ``pair_support`` spans.
TARGETS = (
    ("gf", None, "find_irreducible", "span", "gf.find_irreducible"),
    ("gf", "ExtField", "__init__", "span", "gf.ExtField.init"),
    ("gf", "ExtField", "mul", "leaf", "gf.ext_mul"),
    ("gf", "ExtField", "inv", "leaf", "gf.ext_inv"),
    ("gf", "ExtField", "frobenius", "leaf", "gf.frobenius"),
    ("gf", "PrimeField", "mul", "leaf", "gf.base_mul"),
    ("linalg", None, "rref", "span", "linalg.rref.{field}"),
    ("linalg", None, "rank", "span", "linalg.rank.{field}"),
    ("linalg", "Matrix", "__matmul__", "span", "linalg.matmul.{field}"),
    ("linalg", None, "det", "span", "linalg.det"),
    ("linalg", None, "inverse", "span", "linalg.inverse"),
    ("linalg", "Matrix", "lift", "span", "linalg.lift"),
    ("linalg", None, "disjoint_pivot_tuples", "span",
     "linalg.disjoint_pivot_tuples"),
    ("spread", "SpreadCode", "__init__", "span", "spread.SpreadCode.init"),
    ("spread", "SpreadCode", "encode", "span", "spread.encode"),
    ("spread", "Subspace", "from_generators", "span",
     "spread.from_generators"),
    ("spread", None, "subspace_distance", "span", "spread.subspace_distance"),
    ("spread", "SpreadCode", "conjugate", "span", "spread.conjugate"),
    ("spread", "SpreadCode", "pairwise", "span", "spread.pairwise"),
    # Only the CLI writes subspace files on the request path.
    ("spread", None, "format_subspace", "span", "cli.format_subspace"),
    ("decoder", None, "decode", "span", "decoder.decode"),
    ("decoder", None, "decode_pair", "span", "decoder.decode_pair"),
    ("decoder", None, "pair_support", "span", "decoder.pair_support"),
    ("decoder", None, "candidate_roots", "span", "decoder.candidate_roots"),
    ("decoder", "AffinePencil", "at", "span", "decoder.pencil_at"),
    ("decoder", None, "_membership_point", "count", "membership"),
    ("decoder", None, "_nonsingular_core", "count", "closed_form"),
    ("channel", None, "simulate", "span", "channel.simulate"),
    ("channel", None, "corrupt", "span", "channel.corrupt"),
    ("channel", None, "random_codeword", "span", "channel.random_codeword"),
    ("cli", None, "main", "span", "cli.main"),
)

# Failure reasons counted from decode() results, by decoder constant.
REASONS = {"REASON_NO_CODEWORD": "no_codeword",
           "REASON_AMBIGUOUS": "ambiguous",
           "REASON_DIMENSION": "dimension"}


def zero_names() -> set:
    """Per-layer names that read zero when a workload never reaches
    their callable or outcome.  Any other name must be measured."""
    names = set()
    for _, _, _, kind, name in TARGETS:
        if kind == "count":
            names.add("decoder.path." + name)
            continue
        for full in {name.format(field="base"), name.format(field="ext")}:
            names.update((full + ".calls", full + ".self_s"))
    names.update("decoder.reason." + key for key in REASONS.values())
    return names


class Tracer:
    """Span recorder.  Install, run traced work, remove, then summarize."""

    def __init__(self):
        # (name, start, end, parent, request, self_ns)
        self.spans: list = []
        self.leaves: dict = {}       # name -> [calls, ns]
        self.counts: dict = {}       # counter name -> int
        self.request = None
        self._stack: list = []       # open spans: (index, [child_ns])
        self._restore: list = []     # (holder, attribute, original)
        self._last_pencil = None

    # -- recording -------------------------------------------------------

    def count(self, key: str):
        self.counts[key] = self.counts.get(key, 0) + 1

    def _span(self, fn, name, field_of, hook):
        spans, stack = self.spans, self._stack
        prime = sys.modules[PACKAGE + ".gf"].PrimeField

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if field_of:
                kind = "base" if isinstance(args[0].field, prime) else "ext"
                label = name.format(field=kind)
            child = [0]
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, child))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1][0] += end - start
                spans[index] = (label, start, end, parent, self.request,
                                end - start - child[0])
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _leaf(self, fn, name):
        stats = self.leaves.setdefault(name, [0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                took = perf_counter_ns() - start
                stats[0] += 1
                stats[1] += took
                if stack:
                    stack[-1][1][0] += took
        return wrapper

    def _counter(self, fn, path):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if path != "membership" or result is not None:
                tracer.count("decoder.path." + path)
            return result
        return wrapper

    # Hooks read outcomes at a boundary without changing them.

    def _on_decode(self, args, result):
        if not result.ok:
            dec = sys.modules[PACKAGE + ".decoder"]
            key = {getattr(dec, const): key
                   for const, key in REASONS.items()}[result.reason]
            self.count("decoder.reason." + key)

    def _on_pencil_at(self, args, result):
        self.count("decoder.candidates.tried")
        self._last_pencil = (result, args[0].coeff.nrows)

    def _on_rank(self, args, result):
        # The decoder tests each candidate root by the rank of the
        # pencil evaluated there; it passes when 2*rank <= dim - 1.
        last = self._last_pencil
        if last is not None and args[0] is last[0]:
            self._last_pencil = None
            if 2 * result <= last[1] - 1:
                self.count("decoder.candidates.accepted")

    # -- installation ------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = {"decoder.decode": self._on_decode,
                 "decoder.pencil_at": self._on_pencil_at,
                 "linalg.rank.{field}": self._on_rank}
        prefix = PACKAGE + "."
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None
                   and (key == PACKAGE or key.startswith(prefix))]
        for mod_name, owner, attr, kind, name in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if owner is not None:
                cls = getattr(module, owner)
                raw = cls.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
            else:
                fn = getattr(module, attr)
            if kind == "leaf":
                wrapped = self._leaf(fn, name)
            elif kind == "count":
                wrapped = self._counter(fn, name)
            else:
                wrapped = self._span(fn, name, "{field}" in name,
                                     hooks.get(name))
            if owner is not None:
                self._restore.append((cls, attr, raw))
                setattr(cls, attr,
                        classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapped)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.request = None
        self.remove()
        return False

    def remove(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        for holder, attr, original in self._restore:
            current = (holder.__dict__[attr] if isinstance(holder, type)
                       else getattr(holder, attr))
            if current is not original:
                raise RuntimeError(f"trace wrapper left on {holder!r}.{attr}")
        self._restore = []

    # -- results -----------------------------------------------------------

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self, units: int) -> dict:
        """Per-layer figures averaged over ``units`` identical traced
        units of work.  Every row has ``calls`` and ``self_s``."""
        calls: dict = {}
        self_ns: dict = {}
        for name, _, _, _, _, own in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
        for name, (n, ns) in self.leaves.items():
            calls[name] = calls.get(name, 0) + n
            self_ns[name] = self_ns.get(name, 0) + ns
        out = {}
        for name in sorted(calls):
            out[name + ".calls"] = calls[name] / units
            out[name + ".self_s"] = self_ns[name] / 1e9 / units
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                ns for name, ns in self_ns.items()
                if name.startswith(layer + ".")) / 1e9 / units
        for key, n in self.counts.items():
            out[key] = n / units
        out["decoder.path.general"] = (calls.get("decoder.pair_support", 0)
                                       / units)
        tried = self.counts.get("decoder.candidates.tried", 0)
        accepted = self.counts.get("decoder.candidates.accepted", 0)
        out["decoder.candidates.accept_ratio"] = (accepted / tried if tried
                                                  else 0.0)
        draws = sum(1 for s in self.spans
                    if s[0] == "spread.from_generators" and s[3] >= 0
                    and self.spans[s[3]][0] == "channel.corrupt")
        corrupts = calls.get("channel.corrupt", 0)
        out["channel.corrupt.accept_ratio"] = (corrupts / draws if draws
                                               else 0.0)
        built = sum(1 for i, s in enumerate(self.spans)
                    if s[0] == "spread.SpreadCode.init"
                    and self._has_ancestor(i, "cli.main"))
        mains = calls.get("cli.main", 0)
        out["cli.codes_built_per_request"] = built / mains if mains else 0.0
        out["trace.spans"] = len(self.spans) / units
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "request",
                       "self_ns"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                      for s in self.spans],
            "leaves": {n: {"calls": c, "ns": ns}
                       for n, (c, ns) in sorted(self.leaves.items())},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
