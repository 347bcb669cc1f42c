"""Benchmark of the spreadcodes package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``spreadcodes``
from ``src/`` of that checkout, in one process and one thread.  The
workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the
root names the metrics and their units.

With ``--trace 0`` the run measures the end-to-end metrics with the
package unmodified.  With ``--trace 1`` it alternates one untraced and
one traced unit of the same work (a cold build, input generation and a
pass over the requests) until the time is up, reports per-layer figures
averaged per unit, the traced wall time over the untraced one as the
tracing overhead, and writes the spans to ``.bench_out/``.

Every output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's details: outcome digest, provenance,
raw (unscaled) times, ``latency_ms.p50``, ``latency_ms.p90`` where at
least ten samples lie beyond it, and the share of requests with a wrong
outcome.  The gated latency is the mean: the Monte Carlo mix has a gap
between latency modes right at its median, so the median moves by
several percent with the seed's inputs while the mean does not.  The
run fails, printing no result, if the OpCount figures of a request do
not repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads as wl
from calibration import Calibrator
from tracing import PACKAGE, Tracer, zero_names

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("gf", "linalg", "spread", "decoder", "channel", "oracle", "cli")


class Checker:
    """Counts checked requests and wrong outcomes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


def import_package() -> SimpleNamespace:
    """Import the package afresh from the checkout's ``src``."""
    for key in [k for k in sys.modules
                if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    pkg = importlib.import_module(PACKAGE)
    src = (ROOT / "src").resolve()
    if Path(pkg.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported {PACKAGE} from {pkg.__file__}, "
                         f"not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in MODULES})


def setup(spec, cal):
    """Import the package and build the code, cold.  Returns the
    modules, the code and the set-up's timing."""
    with cal.timing() as t:
        mods = import_package()
        code = mods.spread.SpreadCode(spec.q, spec.k, spec.r)
    return mods, code, t


def repeat_setup(spec, cal):
    """One more cold set-up, timed and discarded: the modules the run
    uses are put back, since the package imports some names lazily, and
    the discarded ones are freed at once, so that they leave the peak
    memory as it was."""
    saved = {k: m for k, m in sys.modules.items()
             if k == PACKAGE or k.startswith(PACKAGE + ".")}
    t = setup(spec, cal)[2]
    sys.modules.update(saved)
    gc.collect()
    return t


def request(mods, spec, code, item, timer=contextlib.nullcontext):
    if spec.via_cli:
        return wl.cli_request(mods, spec, item, timer)
    return wl.decode_request(mods, code, item, timer)


def ops_of(counter) -> tuple:
    return (counter.ext_mul, counter.ext_inv, counter.base_mul,
            counter.base_inv)


def count_ops(mods, spec, code, items, expected, checker=None) -> list:
    """Per-request OpCount figures of ``items``, counted untimed.  Each
    result is checked when ``checker`` is given."""
    ops = []
    for item in items:
        with mods.gf.OpCount() as counter:
            _, result = request(mods, spec, code, item)
        ops.append(ops_of(counter))
        if checker is not None:
            checker.add(wl.check(mods, code, item, result, expected))
    return ops


def reference_pass(mods, np, spec, code, pool, cross, expected, seed,
                   checker):
    """One untimed pass over the pool, checked in full.  Returns the
    outcome texts and the simulate() record lines."""
    outcomes = []
    for item in pool:
        _, result = request(mods, spec, code, item)
        outcomes.append(wl.outcome(result))
        checker.add(wl.check(mods, code, item, result, expected))
    if code.size <= mods.oracle.BRUTE_FORCE_LIMIT and not spec.via_cli:
        for item in pool[:len(spec.cells)]:
            result = mods.decoder.decode(item.received, code)
            checker.add(wl.check_oracle(mods, code, item, result))
    lines = []
    if spec.simulate:
        records = mods.channel.simulate(code, 2, spec.cells,
                                        seed=wl.chunk_seed(np, seed, 0))
        lines = [rec.line() for rec in records]
        for problem in wl.check_records(code, records):
            checker.add(problem)
    if cross is not None:
        for result in (wl.decode_request(mods, code, cross)[1],
                       wl.cli_request(mods, spec, cross)[1]):
            checker.add(wl.check(mods, code, cross, result, expected))
            outcomes.append(wl.outcome(result))
    return outcomes, lines


def timed_loop(mods, np, spec, code, pool, draw, ref_outcomes, expected,
               seed, seconds, checker, cal, setups):
    """Closed loop with one caller until ``seconds`` have passed.  The
    requests run through the pool, then go on with fresh inputs; CLI
    requests cycle the pool again, since each input file needs a library
    decode for its expected output.  Every timed call is calibrated.
    The workload's further cold set-ups run at even steps of request
    time, so that their median spans the run's changes in host speed as
    the latency does; their time does not count toward ``seconds``.
    ``setups`` holds the timing of the first set-up and gets the others.
    Returns request latencies, raw and scaled, the simulate() trials and
    their seconds, raw and scaled."""
    raw, latencies = [], []
    trials, sim_raw, sim_seconds = 0, 0.0, 0.0
    batch = 2 * len(spec.cells) if spec.simulate else 1
    n = 0
    chunk = 0
    start = perf_counter()
    paused = 0.0
    while (elapsed := perf_counter() - start - paused) < seconds:
        if elapsed * spec.setups >= seconds * len(setups):
            before = perf_counter()
            setups.append(repeat_setup(spec, cal))
            paused += perf_counter() - before
            continue
        if spec.simulate:
            chunk += 1
            with cal.timing() as t:
                records = mods.channel.simulate(
                    code, 1, spec.cells, seed=wl.chunk_seed(np, seed, chunk))
            sim_raw += t.raw
            sim_seconds += t.scaled
            trials += sum(rec.trials for rec in records)
            for problem in wl.check_records(code, records):
                checker.add(problem)
        for _ in range(batch):
            index = n % len(pool)
            if n < len(pool) or spec.via_cli:
                item = pool[index]
            else:
                item, index = draw(n), None
            n += 1
            t, result = request(mods, spec, code, item, cal.timing)
            raw.append(t.raw)
            latencies.append(t.scaled)
            problem = wl.check(mods, code, item, result, expected)
            if (problem is None and index is not None
                    and wl.outcome(result) != ref_outcomes[index]):
                problem = (f"cell {item.cell} input {item.index}: "
                           "outcome differs from the reference pass")
            checker.add(problem)
    while len(setups) < spec.setups:
        setups.append(repeat_setup(spec, cal))
    return raw, latencies, trials, sim_raw, sim_seconds


def run_unit(mods, np, spec, seed, workdir, expected, checker, cal,
             tracer=None, unit: int = 0) -> float:
    """One unit of work: cold build, input generation, one request per
    input, one simulate() chunk where the workload has them, and the
    CLI cross-check.  Traced when ``tracer`` is given.  Returns its
    scaled wall time; outputs are checked afterwards, untraced.  The
    kernel is sampled only around the unit, never inside its spans."""
    def label(name):
        if tracer is not None:
            tracer.request = f"{unit}:{name}"

    records = []
    with cal.timing(sample_during=False) as t, \
            (tracer or contextlib.nullcontext()):
        label("setup")
        code, items, cross, _ = wl.prepare(
            mods, spec, seed, spec.unit_per_cell, workdir, write=False)
        results = []
        for n, item in enumerate(items):
            label(n)
            results.append(request(mods, spec, code, item)[1])
        if spec.simulate:
            label("simulate")
            records = mods.channel.simulate(code, 1, spec.cells,
                                            seed=wl.chunk_seed(np, seed, 0))
        if cross is not None:
            label("cross")
            items += [cross, cross]
            results += [wl.decode_request(mods, code, cross)[1],
                        wl.cli_request(mods, spec, cross)[1]]
    for item, result in zip(items, results):
        checker.add(wl.check(mods, code, item, result, expected))
    for problem in wl.check_records(code, records):
        checker.add(problem)
    return t.scaled


def recheck(mods, spec, code, ops_items, ops, expected, np, seed,
            ref_lines):
    """The OpCount figures are deterministic: a second count of the same
    requests must repeat the first exactly, as must simulate()."""
    again = count_ops(mods, spec, code, ops_items, expected)
    for item, want, got in zip(ops_items, ops, again):
        if got != want:
            raise SystemExit(
                f"OpCount did not repeat on cell {item.cell} input "
                f"{item.index}: {want} then {got}")
    if spec.simulate:
        records = mods.channel.simulate(code, 2, spec.cells,
                                        seed=wl.chunk_seed(np, seed, 0))
        lines = [rec.line() for rec in records]
        if lines != ref_lines:
            raise SystemExit(f"simulate records did not repeat: {ref_lines} "
                             f"then {lines}")


def provenance(load_before, np) -> dict:
    git = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        git = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                git = target.read_text().strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    load_after = os.getloadavg()
    cores = len(os.sched_getaffinity(0))
    return {
        "git_revision": git,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": cores,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "overloaded": max(load_before[0], load_after[0]) > cores,
    }


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"end_to_end": [(m["name"], m["unit"]) for m in doc["end_to_end"]],
            "per_layer": [(m["name"], m["unit"]) for m in doc["per_layer"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    spec = wl.SPECS[args.workload]
    load_before = os.getloadavg()
    import numpy as np
    sys.path.insert(0, str(ROOT / "src"))

    checker = Checker()
    cal = Calibrator()
    mods, code, first_setup = setup(spec, cal)
    setups = [first_setup]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        code, pool, cross, draw = wl.prepare(
            mods, spec, args.seed, spec.per_cell, str(workdir), write=True,
            code=code)
        ops_dir = workdir / "ops"
        ops_dir.mkdir()
        _, ops_items, _, _ = wl.prepare(
            mods, spec, wl.OPS_SEED, spec.ops_per_cell, str(ops_dir),
            write=spec.via_cli, code=code)
        expected = {}
        files = pool + ops_items if spec.via_cli else []
        for item in files + ([cross] if cross else []):
            want, problem = wl.expected_cli(mods, code, item)
            expected[item.infile] = want
            checker.add(problem)
        ops = count_ops(mods, spec, code, ops_items, expected, checker)
        ref_outcomes, ref_lines = reference_pass(
            mods, np, spec, code, pool, cross, expected, args.seed, checker)
        digest = hashlib.sha256(
            "\n".join(ref_outcomes + ref_lines).encode()).hexdigest()

        detail = {"workload": spec.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "outcome_sha256": digest, "simulate_lines": ref_lines}
        values = {}
        if args.trace:
            tracer = Tracer()
            plain = traced = 0.0
            units = 0
            deadline = perf_counter() + args.seconds
            while True:
                plain += run_unit(mods, np, spec, args.seed, str(workdir),
                                  expected, checker, cal)
                traced += run_unit(mods, np, spec, args.seed, str(workdir),
                                   expected, checker, cal, tracer, units)
                units += 1
                if perf_counter() >= deadline:
                    break
            values.update(tracer.summary(units))
            values["trace.overhead_ratio"] = traced / plain
            for i, key in enumerate(("ext_mul", "ext_inv", "base_mul",
                                     "base_inv")):
                values[f"gf.opcount.{key}"] = (sum(o[i] for o in ops)
                                               / len(ops))
            trace_path = out_dir / f"trace-{spec.name}-seed{args.seed}.json"
            tracer.write(trace_path)
            detail.update(trace_units=units, trace_file=str(
                trace_path.relative_to(ROOT)),
                untraced_unit_s=plain / units, traced_unit_s=traced / units)
            wanted = declared["per_layer"]
        else:
            raw, latencies, trials, sim_raw, sim_seconds = timed_loop(
                mods, np, spec, code, pool, draw, ref_outcomes, expected,
                args.seed, args.seconds, checker, cal, setups)
            ms = [t * 1e3 for t in latencies]
            values["latency_ms.mean"] = statistics.mean(ms)
            values["throughput_per_s"] = (trials / sim_seconds if spec.simulate
                                          else len(ms) / (sum(ms) / 1e3))
            setup_times = [t.scaled for t in setups]
            values["setup_s"] = statistics.median(setup_times)
            values["ext_ops.mean"] = (sum(o[0] + o[1] for o in ops)
                                      / len(ops))
            # p90 only where at least ten samples lie beyond it.
            p90 = (statistics.quantiles(ms, n=10)[-1] if len(ms) >= 100
                   else None)
            detail.update({
                "requests": len(ms), "simulate_trials": trials,
                "latency_ms.p50": statistics.median(ms),
                "latency_ms.p90": p90,
                "raw": {"latency_ms.mean": statistics.mean(raw) * 1e3,
                        "throughput_per_s": (trials / sim_raw if spec.simulate
                                             else len(raw) / sum(raw)),
                        "setup_s": statistics.median(t.raw for t in setups)},
                "setup_times_s": setup_times})
            wanted = declared["end_to_end"]
        recheck(mods, spec, code, ops_items, ops, expected, np, args.seed,
                ref_lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)

    metrics = {}
    zero = zero_names() if args.trace else set()
    for name, unit in wanted:
        # A traced callable that never ran has no span: zero calls, zero
        # time.  Any other missing name is an error.
        value = values.get(name, 0.0 if name in zero else None)
        if value is None:
            raise SystemExit(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    detail.update(error_ratio=checker.failed / checker.attempted,
                  kernel_s_median=statistics.median(cal.all),
                  problems=checker.problems[:10],
                  provenance=provenance(load_before, np))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for problem in checker.problems[:10]:
        print(f"WRONG: {problem}", file=sys.stderr)
    if detail["provenance"]["overloaded"]:
        print("load average exceeded the core count during this run",
              file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
