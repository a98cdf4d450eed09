#!/usr/bin/env python3
"""Scale ladder: the library pipeline of each policy on markets of growing size.

Run from the root of a source checkout (no install needed):

    python3 benchmarks/ladder.py --out BENCH_<n>.json

For every rung (users x items x exposed ranks) and policy, a fresh
interpreter, started REPEATS times, generates ``generate_market(m, n,
lam=0.5, noise_c=0.05, seed=0)``, solves on the predicted relevance with
inverse exposure, audits the policy against the ground truth
(``fairness_report``), decomposes it (``bvn_decompose``), checks the
decomposition as ``nswrank decompose`` does (``check_s``) and draws one
ranking for every user (``sample_ranking``).  It reports the seconds of each
step, the solver's iterations, the BvN terms per user, the size of the
policy JSON that ``nswrank solve`` would write and the peak RSS of its own
process, both right after the market is generated (``market_peak_rss_mb``)
and at the end (``peak_rss_mb``), so that a row tells the generator's peak
from the solve's.  Each figure is the median over the REPEATS runs, and each ``*_s``
figure also has its least and greatest value as ``*_s_min`` and
``*_s_max``.  The repeats of a rung are interleaved: the first run of every
policy, then the second, and so on, so that a slow spell of a shared machine
falls on every row of the rung rather than on one.  A run that takes more
than CHILD_BUDGET_S is stopped: its policy's row is written as ``null``,
its later repeats are skipped, and the rung's ``over_budget`` map gives the
reason and the seconds spent.  The file also records the machine's core
count and the python, numpy and scipy versions.

``--one M N K POLICY`` runs one rung in this process and prints its row;
it also takes the ``max`` and ``uniform`` policies, which the ladder leaves
out.

The ``cli_startup`` section times the command line at the desk rung:
``python -c "import numpy"``, ``python -c "import nswrank.cli"`` and each
pipeline command (generate, solve nsw and expo-fair, evaluate, decompose,
sample), each in a fresh interpreter as a user runs it.  Each entry has
its wall seconds (median, least, greatest), the same for its seconds over
the numpy start of the same repeat (``over_numpy_s``) and its median peak
RSS, over STARTUP_REPEATS interleaved runs.  At that size every command
does little work, so these figures are mostly interpreter start-up and
imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
RUNGS = [(100, 50, 5), (1000, 100, 10), (10_000, 1000, 10)]
POLICIES = ("nsw", "expo-fair")
# runs per rung and policy: one run's timings swing more than most changes
# move them
REPEATS = 3
# runs of each start-up entry: a start takes about 0.3 s and one run swings
# by 15% on a shared machine, so the section takes more runs than a rung
STARTUP_REPEATS = 15
# seconds one run may take before it is stopped: a rung-3 NSW run takes
# about a minute, and rung-3 exposure-fair does not finish
CHILD_BUDGET_S = 600


def _market(m: int, n: int, k: int):
    from nswrank import ExposureModel
    from nswrank.synth import SyntheticConfig, generate_market

    rel_true, rel_pred = generate_market(
        SyntheticConfig(m=m, n=n, lam=0.5, noise_c=0.05, seed=0))
    return rel_true, rel_pred, ExposureModel.make("inverse", n, k)


def _timed_check(dec, pol) -> float:
    """Seconds of the reconstruction check that ``nswrank decompose`` prints."""
    from nswrank.cli import _reconstruction_error

    clock = time.perf_counter()
    _reconstruction_error(dec, pol)
    return time.perf_counter() - clock


def run_rung(m: int, n: int, k: int, policy: str) -> dict:
    """Time one policy's pipeline on the rung's market, in this process."""
    import numpy as np
    from nswrank import (NswConfig, bvn_decompose, fairness_report,
                         sample_ranking)
    from nswrank.cli import _solve_one
    from nswrank.io import save_policy

    cfg = NswConfig()
    rel_true, rel_pred, exp = _market(m, n, k)
    market_rss_mb = _peak_rss_mb()
    clock = time.perf_counter()
    pol, diag = _solve_one(policy, rel_pred, exp, cfg.alpha, cfg.rel_gap_tol,
                           cfg.max_iters)
    solved = time.perf_counter()
    report = fairness_report(pol, rel_true, exp)
    evaluated = time.perf_counter()
    dec = bvn_decompose(pol)
    decomposed = time.perf_counter()
    check_s = _timed_check(dec, pol)
    checked = time.perf_counter()
    for user in range(m):
        sample_ranking(dec, user, seed=user)
    sampled = time.perf_counter()
    counts = np.diff(dec.indptr)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "policy.json")
        save_policy(path, pol, policy, "inverse", k, diagnostics=diag,
                    alpha=0.0 if policy == "nsw" else None)
        policy_bytes = os.path.getsize(path)
    return {
        "objective": diag.objective_value,
        # Frank-Wolfe passes for nsw, pricing rounds for expo-fair, 0 for
        # max and uniform
        "iterations": diag.iterations,
        "user_utility": report.user_utility,
        "solve_s": solved - clock,
        "evaluate_s": evaluated - solved,
        "decompose_s": decomposed - evaluated,
        "check_s": check_s,
        "sample_s": sampled - checked,
        "terms_per_user": int(counts.sum()) / m,
        "terms_max": int(counts.max()),
        "policy_bytes": policy_bytes,
        "market_peak_rss_mb": market_rss_mb,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _peak_rss_mb() -> float:
    """This process's peak RSS so far; ru_maxrss is in kB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child_env() -> dict:
    """This process's environment with this checkout's package first on the
    path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _run_in_child(m: int, n: int, k: int, policy: str) -> dict:
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", str(m), str(n),
         str(k), policy],
        env=env, capture_output=True, text=True, check=True,
        timeout=CHILD_BUDGET_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _startup_commands() -> dict:
    """The start-up entries: name -> arguments after ``python``."""
    cli = ["-m", "nswrank.cli"]
    m, n, k = RUNGS[0]
    cut = ["--cutoff", str(k)]
    return {
        "import numpy": ["-c", "import numpy"],
        "import nswrank.cli": ["-c", "import nswrank.cli"],
        "generate": [*cli, "generate", "--users", str(m), "--items", str(n),
                     "--seed", "0", "--out-true", "true.csv",
                     "--out-pred", "pred.csv"],
        "solve nsw": [*cli, "solve", "--policy", "nsw", "--relevance",
                      "pred.csv", *cut, "--out", "nsw.json"],
        "solve expo-fair": [*cli, "solve", "--policy", "expo-fair",
                            "--relevance", "pred.csv", *cut,
                            "--out", "expo-fair.json"],
        "evaluate": [*cli, "evaluate", "--policy", "nsw.json", "--relevance",
                     "true.csv", *cut, "--out-json", "metrics.json"],
        "decompose": [*cli, "decompose", "--policy", "nsw.json",
                      "--out", "dec.json"],
        "sample": [*cli, "sample", "--decomposition", "dec.json",
                   "--user", "0", "--seed", "0"],
    }


def _timed_command(args: list, work: str, env: dict) -> dict:
    """Wall seconds and peak RSS of ``python ARGS`` in ``work``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=work, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}")
    # ru_maxrss is in kB on Linux
    return {"wall_s": wall_s, "peak_rss_mb": usage.ru_maxrss / 1024}


def cli_startup() -> dict:
    """The ``cli_startup`` section: every entry once per repeat, in order,
    so that a slow spell of a shared machine falls on every entry."""
    env = _child_env()
    m, n, k = RUNGS[0]
    with tempfile.TemporaryDirectory() as work:
        commands = _startup_commands()
        # the inputs of the later commands exist before the first timed run
        for name in ("generate", "solve nsw", "decompose"):
            _timed_command(commands[name], work, env)
        runs = {name: [] for name in commands}
        for _ in range(STARTUP_REPEATS):
            for name, args in commands.items():
                runs[name].append(_timed_command(args, work, env))
    # each run less the numpy start of its repeat: a slow spell that outlasts
    # one repeat cancels out
    base = [row["wall_s"] for row in runs["import numpy"]]
    for rows in runs.values():
        for row, numpy_s in zip(rows, base):
            row["over_numpy_s"] = row["wall_s"] - numpy_s
    return {"m": m, "n": n, "k": k,
            "bytecode_written": not sys.dont_write_bytecode,
            "commands": {name: aggregate(rows) for name, rows in runs.items()}}


def aggregate(runs: list) -> dict:
    """The median of each figure over the runs, plus the least and the
    greatest value of each ``*_s`` figure."""
    out = {"runs": len(runs)}
    for key in runs[0]:
        values = [run[key] for run in runs]
        out[key] = statistics.median(values)
        if key.endswith("_s"):
            out[key + "_min"], out[key + "_max"] = min(values), max(values)
    return out


def ladder(rungs=RUNGS) -> dict:
    """Every rung and policy, each in its own interpreter."""
    import numpy
    import scipy

    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "market": "generate_market(m, n, lam=0.5, noise_c=0.05, seed=0), "
                  "inverse exposure",
        "rungs": [],
    }
    for m, n, k in rungs:
        rung = {"m": m, "n": n, "k": k}
        runs = {name: [] for name in POLICIES}
        over = {}
        for repeat in range(REPEATS):
            for name in POLICIES:
                if name in over:
                    continue
                print(f"{m}x{n}x{k} {name} run {repeat + 1}", file=sys.stderr,
                      flush=True)
                start = time.perf_counter()
                try:
                    runs[name].append(_run_in_child(m, n, k, name))
                except subprocess.TimeoutExpired:
                    over[name] = {"reason": f"a run took over {CHILD_BUDGET_S} s",
                                  "seconds": time.perf_counter() - start}
        rung["policies"] = {policy: None if policy in over
                            else aggregate(runs[policy]) for policy in POLICIES}
        if over:
            rung["over_budget"] = over
        out["rungs"].append(rung)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--one", nargs=4, metavar=("M", "N", "K", "POLICY"),
                        help="run one rung and policy here; print its JSON")
    args = parser.parse_args(argv)
    if args.one:
        m, n, k, policy = args.one
        print(json.dumps(run_rung(int(m), int(n), int(k), policy)))
        return 0
    if not args.out:
        parser.error("--out is required")
    doc = ladder()
    doc["cli_startup"] = cli_startup()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    # this checkout's package, ahead of any other on the path
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
