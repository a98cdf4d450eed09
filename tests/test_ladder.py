"""The scale ladder's rung function on a toy market."""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                     "ladder.py")
_spec = importlib.util.spec_from_file_location("ladder", _PATH)
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


@pytest.mark.parametrize("policy", ladder.POLICIES)
def test_rung_reports_every_step(policy):
    row = ladder.run_rung(6, 5, 2, policy)
    assert set(row) == {"objective", "iterations", "user_utility", "solve_s",
                        "evaluate_s", "decompose_s", "check_s", "sample_s",
                        "terms_per_user", "terms_max", "policy_bytes",
                        "market_peak_rss_mb", "peak_rss_mb"}
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in row.values())
    assert 1.0 <= row["terms_per_user"] <= row["terms_max"] <= 4 ** 2 + 1
    assert isinstance(row["iterations"], int) and row["iterations"] >= 1
    assert 0 < row["market_peak_rss_mb"] <= row["peak_rss_mb"]
    assert row["policy_bytes"] > 0


@pytest.mark.parametrize("policy", ["max", "uniform"])
def test_one_runs_a_policy_the_ladder_leaves_out(policy, capsys):
    # the ladder's rows keep their schema: only --one takes these policies
    assert policy not in ladder.POLICIES
    assert ladder.main(["--one", "6", "5", "2", policy]) == 0
    row = json.loads(capsys.readouterr().out)
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in row.values())
    # one ranking or one empty prefix per user, and no iterations
    assert row["iterations"] == 0 and row["terms_max"] == 1
    assert row["terms_per_user"] == 1.0 and row["policy_bytes"] > 0


def test_one_runs_without_pythonpath(tmp_path):
    # the script finds this checkout's package itself: no install needed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(_PATH), "--one", "8", "6", "2", "nsw"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    assert row["iterations"] >= 1 and row["terms_per_user"] >= 1.0


def test_repeats_are_interleaved(monkeypatch):
    # the first run of every policy, then the second: a slow spell of the
    # machine lands on every row, not on one
    calls = []
    monkeypatch.setattr(ladder, "_run_in_child",
                        lambda m, n, k, policy: calls.append(policy) or {"x": 1})
    doc = ladder.ladder(rungs=[ladder.RUNGS[0], (6, 5, 2)])
    assert calls == list(ladder.POLICIES) * ladder.REPEATS * 2
    for rung in doc["rungs"]:
        assert set(rung) == {"m", "n", "k", "policies"}


def test_run_over_budget_is_null_with_reason(monkeypatch):
    # no child starts: the expo-fair child is stopped at its budget, the
    # nsw child returns a row
    calls = []

    def run(args, timeout, **kwargs):
        calls.append(args[-1])
        assert timeout == ladder.CHILD_BUDGET_S
        if args[-1] == "expo-fair":
            raise subprocess.TimeoutExpired(args, timeout)
        return subprocess.CompletedProcess(args, 0, stdout='{"solve_s": 1.0}\n')

    monkeypatch.setattr(ladder.subprocess, "run", run)
    doc = ladder.ladder(rungs=[(10_000, 1000, 10)])
    assert set(doc["machine"]) == {"nproc", "python", "numpy", "scipy"}
    # a stopped policy's later repeats are skipped
    assert sorted(calls) == ["expo-fair"] + ["nsw"] * ladder.REPEATS
    [rung] = doc["rungs"]
    assert rung["policies"]["expo-fair"] is None
    assert rung["policies"]["nsw"]["runs"] == ladder.REPEATS
    [(policy, over)] = rung["over_budget"].items()
    assert policy == "expo-fair"
    assert over["reason"] == f"a run took over {ladder.CHILD_BUDGET_S} s"
    assert over["seconds"] >= 0.0


def test_each_policy_row_aggregates_repeated_runs(monkeypatch):
    # the children run in process here; each row is the median of REPEATS
    # runs, with the range of every timing
    calls = []

    def in_process(m, n, k, policy):
        calls.append(policy)
        return ladder.run_rung(m, n, k, policy)

    monkeypatch.setattr(ladder, "_run_in_child", in_process)
    doc = ladder.ladder(rungs=[(6, 5, 2)])
    assert sorted(calls) == sorted(ladder.POLICIES * ladder.REPEATS)
    for row in doc["rungs"][0]["policies"].values():
        assert row["runs"] == ladder.REPEATS
        for key in [k for k in row if k.endswith("_s")]:
            assert row[key + "_min"] <= row[key] <= row[key + "_max"]
        assert isinstance(row["iterations"], int)


def test_aggregate_takes_medians_and_timing_ranges():
    runs = [{"solve_s": 3.0, "iterations": 7, "terms_per_user": 1.5},
            {"solve_s": 1.0, "iterations": 7, "terms_per_user": 1.5},
            {"solve_s": 2.0, "iterations": 7, "terms_per_user": 1.5}]
    assert ladder.aggregate(runs) == {
        "runs": 3, "solve_s": 2.0, "solve_s_min": 1.0, "solve_s_max": 3.0,
        "iterations": 7, "terms_per_user": 1.5}


def test_cli_startup_times_every_entry(monkeypatch):
    monkeypatch.setattr(ladder, "STARTUP_REPEATS", 1)
    section = ladder.cli_startup()
    assert (section["m"], section["n"], section["k"]) == ladder.RUNGS[0]
    commands = section["commands"]
    assert list(commands) == list(ladder._startup_commands())
    for row in commands.values():
        assert set(row) == {"runs", "wall_s", "wall_s_min", "wall_s_max",
                            "over_numpy_s", "over_numpy_s_min",
                            "over_numpy_s_max", "peak_rss_mb"}
        assert row["runs"] == 1 and row["wall_s"] > 0 and row["peak_rss_mb"] > 0
    assert commands["import numpy"]["over_numpy_s"] == 0.0
