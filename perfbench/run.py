#!/usr/bin/env python3
"""End-to-end benchmark of the nswrank command line.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload desk_nsw --seed 1 --seconds 10 --trace 0

One client runs nswrank commands back to back (a closed loop), each in a
fresh interpreter with ``PYTHONPATH=src``, exactly as a user runs them.  The
workload's command sequence is repeated until ``--seconds`` of measuring
have passed (at least once); every figure is the median over repetitions.
Every command's output is checked, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first repeats
the sequence untraced, then again through ``perfbench/tracer.py``, which
wraps the calls that cross nswrank's module boundaries, and reports the
per-layer metrics plus ``trace.overhead_s`` (traced minus untraced wall
time).  The lines above the JSON give the run metadata, the failure count
and the metrics in words.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
COMMAND_TIMEOUT_S = 150.0
SETUP_SAMPLES = 3       # setup is repeated and its median reported
GAP_TOL = 1e-6          # the CLI's default --tol
OBJECTIVE_RTOL = 1e-6
RESIDUAL_TOL = 1e-6
EPSILON = 1e-9          # the CLI's default decompose --epsilon
# Every pipeline solves the generator's seed-0 market (the ROADMAP desk
# market) and the benchmark seed relabels its users or its items.  Across
# generator seeds the desk-scale NSW solve took from 116 to 274 passes (2.7
# to 8.6 s), so a seed that picked the market would make the spread between
# runs measure the market, not the code.
MARKET_SEED = 0
SWEEP_PARALLEL = 2
# The parallel sweep is the noisiest figure (both cores busy, and the slowest
# pool unit sets the time), so an untraced sweep run reports the median of two.
SWEEP_REPS = 2
SWEEP_LAMBDAS = [0.0, 0.5, 1.0]
SERIAL_LAMBDAS = [0.5]  # the serial re-run: one grid point, two seeds
SERIAL_SEEDS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
                    "audit_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Pipeline:
    """generate -> solve -> evaluate -> decompose -> sample on one market.

    ``relabel`` ("users" or "items") is the axis the benchmark seed
    permutes.  ``objective`` is the policy objective recorded when the
    benchmark was defined (commit 20a876f); relabelling leaves it unchanged.
    """

    policy: str
    relabel: str
    users: int
    items: int
    cutoff: int
    objective: float


@dataclass(frozen=True)
class Sweep:
    """``nswrank sweep`` over lambda in {0, 0.5, 1} and five policies."""

    users: int
    items: int
    cutoff: int
    seeds: int


SWEEP_POLICIES = ["max", "uniform", "expo-fair", "nsw", {"alpha-nsw": [1.0]}]

WORKLOADS = {
    # desk_nsw: the ROADMAP desk scale through the NSW solver.  Loads the
    # Frank-Wolfe kernel (_kernels) and the solvers' certificate; the five
    # interpreter starts (cli) are the other large share.  BvN is nearly
    # idle (about 2.5 terms per user) and no LP runs.  The seed relabels
    # items: the solver sweeps users in order, and reordering them moved
    # the pass count from 183 to 239.
    "desk_nsw": {
        "full": Pipeline("nsw", "items", 100, 50, 5, 54.11998872712228),
        "toy": Pipeline("nsw", "items", 8, 6, 2, 1.0373470979345796),
    },
    # desk_expo_fair: the same market through the exposure-fair LP.  The
    # kernel never runs; HiGHS (solvers) takes about a second and BvN (bvn,
    # _kernels matching) most of the time, because the pooled tail spreads
    # mass over ranks K..n and gives about 290 terms per user.  Its policy
    # and decomposition JSON load the io layer too.  The seed relabels
    # users: the simplex path follows the item order, and reordering items
    # moved HiGHS from 7.2k to 10.2k iterations (users: within 6%).
    "desk_expo_fair": {
        "full": Pipeline("expo-fair", "users", 100, 50, 5, 153.9573701284494),
        "toy": Pipeline("expo-fair", "users", 8, 6, 2, 7.4772184250349625),
    },
    # wide_max: utility-max on a wider market.  The solver costs nearly
    # nothing; writing and reading the dense m*n^2 policy JSON (io) and the
    # PolicyTensor validation (core) dominate, with the highest peak RSS.
    # A compact policy format shows its gain here; a solver change should
    # move nothing.
    "wide_max": {
        "full": Pipeline("max", "items", 500, 100, 10, 1082.3174835373281),
        "toy": Pipeline("max", "items", 10, 8, 3, 11.988840737372332),
    },
    # sweep_small: many small markets in one interpreter and a pool of two
    # workers.  Loads the solvers (NSW pass counts vary more than tenfold
    # across grid points), metrics and synth layers in a different mix.
    # The slowest unit in the pool sets the wall time, so fixed per-call
    # cost that a desk-scale speed-up adds shows up here as a loss.
    "sweep_small": {
        "full": Sweep(40, 20, 5, 4),
        "toy": Sweep(8, 6, 2, 2),
    },
}

PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.sweep_unit_max_s": "s",
    "cli.sweep_unit_sum_s": "s",
    "synth.generate_market_s": "s",
    "io.save_policy_s": "s",
    "io.load_policy_s": "s",
    "io.policy_bytes": "bytes",
    "io.save_decomposition_s": "s",
    "io.load_decomposition_s": "s",
    "io.decomposition_bytes": "bytes",
    "io.load_relevance_s": "s",
    "solvers.solve_nsw_s": "s",
    "solvers.nsw_certify_s": "s",
    "kernels.fw_solve_s": "s",
    "kernels.fw_passes": "count",
    "kernels.fw_rel_gap": "ratio",
    "solvers.solve_expo_fair_s": "s",
    "solvers.linprog_s": "s",
    "solvers.lp_build_s": "s",
    "solvers.lp_iterations": "count",
    "solvers.solve_utility_max_s": "s",
    "core.renormalize_calls": "count",
    "core.renormalize_s": "s",
    "metrics.fairness_report_s": "s",
    "bvn.decompose_s": "s",
    "bvn.terms_per_user": "terms/user",
    "bvn.terms_max": "count",
    "kernels.matching_calls": "count",
    "kernels.matching_s": "s",
    "bvn.reconstruct_s": "s",
    "bvn.sample_s": "s",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------------ running


class Runner:
    """Runs nswrank commands in fresh interpreters and keeps the tally."""

    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.trace_dir = None  # set: run commands through the tracer
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def run(self, argv: list) -> dict:
        """Run one command; returns its wall time, peak RSS, exit code, stdout."""
        self.count += 1
        tag = os.path.join(self.work, f"cmd{self.count}")
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "nswrank.cli", *argv]
        else:
            prefix = os.path.join(self.trace_dir, argv[0])
            cmd = [sys.executable, TRACER, prefix, *argv]
        with open(tag + ".out", "wb") as out, open(tag + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, [proc.pid])
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        rc = proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers a failed command left behind
        with open(tag + ".out", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if rc != 0:
            with open(tag + ".err", encoding="utf-8", errors="replace") as fh:
                detail = fh.read().strip().splitlines()[-1:]
            print(f"command {argv[0]} exited {rc}: {detail}", file=sys.stderr)
        # ru_maxrss of a reaped child covers the descendants it reaped too
        return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "rc": rc, "stdout": stdout}

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; report it when its check failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _python_probe(runner: Runner) -> dict:
    """Import nswrank.cli once (fills the bytecode and file caches) and
    report the versions the run used."""
    code = (
        "import json, importlib.util, numpy, scipy, nswrank.cli\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__,"
        " 'numba': importlib.util.find_spec('numba') is not None,"
        " 'blas': blas.get('name'), 'blas_version': blas.get('version'),"
        " 'blas_config': blas.get('openblas configuration')}))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=runner.work,
                          env=runner.env, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import nswrank.cli: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _metadata(runner: Runner, seed: int) -> dict:
    meta = _python_probe(runner)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    meta.update({
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    })
    return meta


# ---------------------------------------------------------------- pipelines


def _relabel(src: str, dst: str, axis: str, perm: list) -> None:
    """Write the relevance CSV with its rows (users) or columns (items)
    reordered by perm.  Fields move as text, so values stay bit-identical."""
    with open(src, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    if axis == "users":
        rows = [rows[j] for j in perm]
    else:
        rows = [",".join(row.split(",")[j] for j in perm) for row in rows]
    with open(dst, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def _generate_args(w: Pipeline) -> list:
    return ["generate", "--users", str(w.users), "--items", str(w.items),
            "--lambda", "0.5", "--noise", "0.05", "--seed", str(MARKET_SEED),
            "--out-true", "gen_true.csv", "--out-pred", "gen_pred.csv"]


def _prepare_pipeline(runner: Runner, w: Pipeline, seed: int,
                      samples: int) -> list:
    """Generate the market and relabel it from the seed; returns the setup
    samples (wall time of ``nswrank generate``)."""
    setup = []
    for _ in range(samples):
        res = runner.run(_generate_args(w))
        runner.op(res["rc"] == 0, "generate exit code")
        setup.append(res["wall"])
    perm = list(range(w.users if w.relabel == "users" else w.items))
    random.Random(seed).shuffle(perm)
    for name in ("true", "pred"):
        _relabel(os.path.join(runner.work, f"gen_{name}.csv"),
                 os.path.join(runner.work, f"{name}.csv"), w.relabel, perm)
    return setup


def _check_policy(runner: Runner, w: Pipeline) -> bool:
    with open(os.path.join(runner.work, "policy.json"), encoding="utf-8") as fh:
        diag = json.load(fh)["diagnostics"]
    obj = diag["objective"]
    ok = abs(obj - w.objective) <= OBJECTIVE_RTOL * abs(w.objective)
    if w.policy == "nsw":
        ok = ok and diag["duality_gap"] <= GAP_TOL * abs(obj)
    if w.policy == "expo-fair":
        ok = ok and diag["constraint_residual"] <= RESIDUAL_TOL
    if not ok:
        print(f"policy diagnostics: {diag}", file=sys.stderr)
    return ok


def _check_metrics(runner: Runner) -> bool:
    with open(os.path.join(runner.work, "metrics.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc.get("schema") == "metrics/v1" and math.isfinite(doc["user_utility"])


def _check_reconstruction(stdout: str, n: int) -> bool:
    line = stdout.strip().splitlines()[-1]
    key, _, value = line.partition("=")
    return key == "reconstruction_error" and float(value) <= n * EPSILON + 1e-9


def _check_sample(stdout: str, n: int) -> bool:
    pairs = [p.split(",") for p in stdout.split()]
    ranks = [int(r) for r, _ in pairs]
    items = sorted(int(i) for _, i in pairs)
    return ranks == list(range(1, n + 1)) and items == list(range(n))


def _pipeline_rep(runner: Runner, w: Pipeline, seed: int) -> dict:
    run = runner.run
    expo = ["--exposure", "inverse", "--cutoff", str(w.cutoff)]
    steps = {}
    steps["generate"] = run(_generate_args(w))
    runner.op(steps["generate"]["rc"] == 0, "generate exit code")

    steps["solve"] = run(["solve", "--policy", w.policy, "--relevance", "pred.csv",
                          *expo, "--out", "policy.json"])
    runner.op(steps["solve"]["rc"] == 0 and _check_policy(runner, w),
              f"solve {w.policy}")

    steps["evaluate"] = run(["evaluate", "--policy", "policy.json",
                             "--relevance", "true.csv", *expo,
                             "--impact", "relevance",
                             "--out-json", "metrics.json"])
    runner.op(steps["evaluate"]["rc"] == 0 and _check_metrics(runner), "evaluate")

    steps["decompose"] = run(["decompose", "--policy", "policy.json",
                              "--out", "dec.json"])
    runner.op(steps["decompose"]["rc"] == 0
              and _check_reconstruction(steps["decompose"]["stdout"], w.items),
              "decompose reconstruction error")

    steps["sample"] = run(["sample", "--decomposition", "dec.json",
                           "--user", str(seed % w.users),
                           "--seed", str(seed % 2**32)])
    runner.op(steps["sample"]["rc"] == 0
              and _check_sample(steps["sample"]["stdout"], w.items),
              "sample is a permutation")

    audit = ("evaluate", "decompose", "sample")
    return {
        "wall_s": sum(s["wall"] for s in steps.values()),
        "setup": steps["generate"]["wall"],
        "solve_s": steps["solve"]["wall"],
        "audit_s": sum(steps[k]["wall"] for k in audit),
        "peak_rss_mb": max(s["rss_mb"] for s in steps.values()),
    }


# -------------------------------------------------------------------- sweep


def _sweep_config(w: Sweep, seed: int, seeds: int, lambdas: list) -> dict:
    # The seed orders the policies (and so the CSV rows).  It leaves the
    # markets alone: Frank-Wolfe pass counts are chaotic in the input, and
    # moving the noise level by 1% moved one grid point from 545 to 1034
    # passes, which would make the spread between runs measure the markets.
    policies = list(SWEEP_POLICIES)
    random.Random(seed).shuffle(policies)
    return {"policies": policies,
            "grid": {"lambda": lambdas, "noise_c": [0.05],
                     "k": [w.cutoff], "n_items": [w.items]},
            "seeds": seeds, "users": w.users, "exposure": "inverse"}


def _prepare_sweep(runner: Runner, w: Sweep, seed: int, samples: int) -> list:
    """Write the sweep configs; returns the setup samples (wall time of a
    fresh-interpreter ``import nswrank.cli``)."""
    configs = {"sweep.json": _sweep_config(w, seed, w.seeds, SWEEP_LAMBDAS),
               "serial.json": _sweep_config(w, seed, SERIAL_SEEDS, SERIAL_LAMBDAS)}
    for name, config in configs.items():
        with open(os.path.join(runner.work, name), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    setup = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import nswrank.cli"],
                              cwd=runner.work, env=runner.env,
                              timeout=COMMAND_TIMEOUT_S)
        setup.append(time.perf_counter() - start)
        runner.op(proc.returncode == 0, "import nswrank.cli")
    return setup


def _row_key(row: str) -> str:
    """policy,lambda,noise_c,k,n_items,seed: what identifies a sweep row."""
    return ",".join(row.split(",")[:6])


def _read_rows(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _sweep_rep(runner: Runner, w: Sweep, seed: int) -> dict:
    par = runner.run(["sweep", "--config", "sweep.json", "--out", "sweep.csv",
                      "--parallel", str(SWEEP_PARALLEL)])
    runner.op(par["rc"] == 0, "sweep exit code")
    n_rows = len(SWEEP_POLICIES) * len(SWEEP_LAMBDAS) * w.seeds
    rows = _read_rows(os.path.join(runner.work, "sweep.csv")) if par["rc"] == 0 else []
    body = rows[1:]
    for i in range(n_rows):
        ok = i < len(body) and "error" not in body[i].split(",")
        runner.op(ok, f"sweep row {i + 1}")
    runner.op(len(body) == n_rows, f"sweep wrote {len(body)} of {n_rows} rows")

    # criterion 9: parallel and serial sweeps agree byte for byte.  The
    # serial re-run covers every policy at one grid point and two seeds.
    ser = runner.run(["sweep", "--config", "serial.json", "--out", "serial.csv",
                      "--parallel", "1"])
    serial = _read_rows(os.path.join(runner.work, "serial.csv")) if ser["rc"] == 0 else []
    by_key = {_row_key(r): r for r in body}
    matched = [r for r in serial[1:] if by_key.get(_row_key(r)) == r]
    runner.op(ser["rc"] == 0 and serial[:1] == rows[:1]
              and len(matched) == len(serial) - 1
              == len(SWEEP_POLICIES) * SERIAL_SEEDS,
              "serial sweep matches the parallel one")
    return {
        "wall_s": par["wall"] + ser["wall"],
        "solve_s": par["wall"],
        "audit_s": ser["wall"],
        "peak_rss_mb": max(par["rss_mb"], ser["rss_mb"]),
        "rows_per_s": len(body) / par["wall"],
    }


# ------------------------------------------------------------------ tracing


def _load_spans(trace_dir: str) -> list:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over one traced repetition of the command sequence."""
    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def total(name):
        return math.fsum(durations(name))

    def attr(name, key):
        return [s["attrs"][key] for s in spans
                if s["name"] == name and key in s["attrs"]]

    units = durations("cli.sweep_unit")
    users = sum(attr("bvn.decompose", "users"))
    out = {
        "cli.startup_s": total("cli.startup"),
        "cli.sweep_unit_max_s": max(units, default=0.0),
        "cli.sweep_unit_sum_s": math.fsum(units),
        "synth.generate_market_s": total("synth.generate_market"),
        "io.save_policy_s": total("io.save_policy"),
        "io.load_policy_s": total("io.load_policy"),
        "io.policy_bytes": sum(attr("io.save_policy", "bytes")),
        "io.save_decomposition_s": total("io.save_decomposition"),
        "io.load_decomposition_s": total("io.load_decomposition"),
        "io.decomposition_bytes": sum(attr("io.save_decomposition", "bytes")),
        "io.load_relevance_s": total("io.load_relevance"),
        "solvers.solve_nsw_s": total("solvers.solve_nsw"),
        "kernels.fw_solve_s": total("kernels.fw_solve"),
        "kernels.fw_passes": sum(attr("kernels.fw_solve", "passes")),
        "kernels.fw_rel_gap": max(attr("kernels.fw_solve", "rel_gap"), default=0.0),
        "solvers.solve_expo_fair_s": total("solvers.solve_expo_fair"),
        "solvers.linprog_s": total("solvers.linprog"),
        "solvers.lp_iterations": sum(attr("solvers.linprog", "nit")),
        "solvers.solve_utility_max_s": total("solvers.solve_utility_max"),
        "core.renormalize_calls": len(durations("core.renormalize")),
        "core.renormalize_s": total("core.renormalize"),
        "metrics.fairness_report_s": total("metrics.fairness_report"),
        "bvn.decompose_s": total("bvn.decompose"),
        "bvn.terms_per_user": sum(attr("bvn.decompose", "terms")) / users if users else 0.0,
        "bvn.terms_max": max(attr("bvn.decompose", "terms_max"), default=0),
        "kernels.matching_calls": len(durations("kernels.matching")),
        "kernels.matching_s": total("kernels.matching"),
        "bvn.reconstruct_s": total("bvn.reconstruct"),
        "bvn.sample_s": total("bvn.sample"),
    }
    out["solvers.nsw_certify_s"] = out["solvers.solve_nsw_s"] - out["kernels.fw_solve_s"]
    out["solvers.lp_build_s"] = out["solvers.solve_expo_fair_s"] - out["solvers.linprog_s"]
    return out


# --------------------------------------------------------------------- main


def _repeat(seconds: float, rep, min_reps: int = 1) -> list:
    """Run rep() back to back until ``seconds`` have passed and it ran at
    least ``min_reps`` times."""
    results = []
    start = time.perf_counter()
    while len(results) < min_reps or time.perf_counter() - start < seconds:
        results.append(rep())
    return results


def _median(reps: list, key: str) -> float:
    return statistics.median(r[key] for r in reps)


def run_workload(name: str, scale: str, seed: int, seconds: float,
                 trace: bool, work: str) -> dict:
    w = WORKLOADS[name][scale]
    runner = Runner(work)
    meta = _metadata(runner, seed)
    print("meta " + json.dumps(meta, sort_keys=True))
    if isinstance(w, Pipeline):
        prepare, rep = _prepare_pipeline, _pipeline_rep
    else:
        prepare, rep = _prepare_sweep, _sweep_rep
    # the traced run reports no set-up time, so it sets up once
    setup = prepare(runner, w, seed, 1 if trace else SETUP_SAMPLES)
    min_reps = SWEEP_REPS if isinstance(w, Sweep) and not trace else 1
    reps = _repeat(seconds, lambda: rep(runner, w, seed), min_reps)

    if not trace:
        setup += [r["setup"] for r in reps if "setup" in r]
        metrics = {"wall_s": _median(reps, "wall_s"),
                   "setup_s": statistics.median(setup),
                   "solve_s": _median(reps, "solve_s"),
                   "audit_s": _median(reps, "audit_s"),
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in reps)}
        units = END_TO_END_UNITS
    else:
        layers = []

        def traced_rep():
            runner.trace_dir = os.path.join(work, f"trace{len(layers)}")
            os.mkdir(runner.trace_dir)
            result = rep(runner, w, seed)
            layers.append(layer_metrics(_load_spans(runner.trace_dir)))
            return result

        traced = _repeat(seconds, traced_rep)
        metrics = {k: statistics.median(layer[k] for layer in layers)
                   for k in layers[0]}
        metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(reps, "wall_s")
        units = PER_LAYER_UNITS
    print(f"workload {name} scale {scale} seed {seed} repetitions {len(reps)}")
    print(f"failed_ops {runner.failed}/{runner.attempted} ops")
    for key, unit in units.items():
        print(f"{key} {metrics[key]!r} {unit}")
    if isinstance(w, Sweep) and not trace:
        print(f"sweep_rows_per_s {_median(reps, 'rows_per_s')!r} 1/s")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny markets for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nswrank", "cli.py")):
        print(f"error: no nswrank sources under {ROOT}/src", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.mkdir(work)
    try:
        result = run_workload(args.workload, args.scale, args.seed,
                              args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
