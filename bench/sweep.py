"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --workloads sim-q2k9r2,cli-q3k5r4 --seeds 1-10
        [--seconds 15] [--trace 0|1] [--out bench/BENCH_<label>.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time,
from the checkout root.  For each metric it prints the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and their
distance as a share of the median (the run-to-run spread), flagging
each gated metric whose spread is not below a third of its bound.  Next
to each calibrated time it prints the same figures for the raw time: a
before/after pair must agree on both (see ``calibration.py``).  It fails
if ``ext_ops.mean``, counted on a fixed input set, differs between runs.
With ``--out`` it writes every run's result and details, with provenance, to
a JSON file; two such files from two commits make a before/after pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "result": result, "detail": detail}


def spread(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def spread_table(runs: list) -> dict:
    table = {name: spread([r["result"]["metrics"][name]["value"]
                           for r in runs])
             for name in runs[0]["result"]["metrics"]}
    for name in runs[0]["detail"].get("raw", {}):
        table[name]["raw"] = spread([r["detail"]["raw"][name] for r in runs])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in seeds_of(args.seeds)]
        table = spread_table(runs)
        ops = table.get("ext_ops.mean")
        if ops is not None and len(set(ops["values"])) > 1:
            raise SystemExit(f"{workload}: ext_ops.mean differs between "
                             f"runs: {ops['values']}")
        doc["workloads"][workload] = {"summary": table, "runs": runs}
        bad = sum(not r["result"]["correct"] for r in runs)
        wall = sum(r["wall_s"] for r in runs) / len(runs)
        print(f"== {workload}: {len(runs)} runs, {bad} with wrong outcomes, "
              f"{wall:.1f} s per run")
        for name, row in table.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if row["spread"] < bound / 3 else "WIDE"
            raw = ""
            if "raw" in row:
                raw = (f"  raw median {row['raw']['median']:12.6g}  "
                       f"spread {row['raw']['spread']:7.2%}")
            print(f"  {name:40s} median {row['median']:12.6g}  "
                  f"spread {row['spread']:7.2%}  {flag:4s}{raw}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
