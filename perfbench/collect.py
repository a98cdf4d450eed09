#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it in one JSON file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/NAME.json

For every workload of BENCHMARK.json this makes one untraced run per seed,
then one traced run on the first seed, and writes each metric's values,
median, quartiles (``statistics.quantiles(n=4)``) and quartile spread as a
share of the median, with the run metadata.  Compare two commits only
through files made this way on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    return meta, json.loads(lines[-1])


def _summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    doc = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs, metas = [], []
        for seed in seeds:
            start = time.perf_counter()
            meta, result = _run(name, seed, spec["run_seconds"], 0)
            metas.append(meta)
            runs.append(result)
            print(f"{name} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        _, traced = _run(name, seeds[0], spec["run_seconds"], 1)
        doc["meta"] = {k: v for k, v in metas[0].items() if k != "seed"}
        doc["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], **_summary(
                    [r["metrics"][m["name"]]["value"] for r in runs]))
                for m in spec["end_to_end"]},
            "per_layer": {"seed": seeds[0], "failed": traced["failed"],
                          **traced["metrics"]},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
