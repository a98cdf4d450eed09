"""Command-line behavior: outputs, determinism, exit codes."""

import concurrent.futures
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswrank import (ExposureModel, NswConfig, RankingMixture, bvn_decompose,
                     cli, errors, reconstruct, solve_nsw, solve_uniform, solvers)
from nswrank import io as nio
from nswrank.cli import main
from nswrank.errors import InfeasibleError, NswrankError

TOY = "# m=2 n=2\n0.8,0.3\n0.5,0.4\n"


def write_toy(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY)
    return path


class TestGenerate:
    def test_writes_headers(self, tmp_path):
        rc = main(["generate", "--users", "2", "--items", "2", "--seed", "1",
                   "--out-true", str(tmp_path / "t.csv"),
                   "--out-pred", str(tmp_path / "p.csv")])
        assert rc == 0
        assert (tmp_path / "t.csv").read_text().startswith("# m=2 n=2\n")
        assert (tmp_path / "p.csv").read_text().startswith("# m=2 n=2\n")

    def test_zero_noise_bodies_identical(self, tmp_path):
        rc = main(["generate", "--users", "4", "--items", "3", "--noise", "0",
                   "--seed", "2",
                   "--out-true", str(tmp_path / "t.csv"),
                   "--out-pred", str(tmp_path / "p.csv")])
        assert rc == 0
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()

    def test_deterministic(self, tmp_path):
        args = ["generate", "--users", "3", "--items", "4", "--lambda", "0.5",
                "--seed", "7"]
        main(args + ["--out-true", str(tmp_path / "a.csv"),
                     "--out-pred", str(tmp_path / "ap.csv")])
        main(args + ["--out-true", str(tmp_path / "b.csv"),
                     "--out-pred", str(tmp_path / "bp.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "ap.csv").read_bytes() == (tmp_path / "bp.csv").read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--noise", "nan", "noise_c must be finite and >= 0, got nan"),
        ("--noise", "inf", "noise_c must be finite and >= 0, got inf"),
    ], ids=["seed-negative", "noise-nan", "noise-inf"])
    def test_out_of_range_exit_code(self, tmp_path, capsys, flag, value,
                                    message):
        out = tmp_path / "t.csv"
        assert main(["generate", flag, value, "--out-true", str(out),
                     "--out-pred", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


    def test_noise_whose_draw_overflows_exit_code(self, tmp_path, capsys):
        # the draw's range 2c must be finite: 8.9e307 is drawn, 9e307 refused
        args = ["generate", "--users", "3", "--items", "4",
                "--out-true", str(tmp_path / "t.csv"),
                "--out-pred", str(tmp_path / "p.csv")]
        assert main(args + ["--noise", "9e307"]) == 2
        assert capsys.readouterr().err == (
            "error: noise_c must be at most 8.99e+307, got 9e+307\n")
        assert list(tmp_path.iterdir()) == []
        assert main(args + ["--noise", "8.9e307"]) == 0

    @pytest.mark.parametrize("users", ["1000000000000",
                                       "100000000000000000000"])
    def test_market_too_large_exit_code(self, tmp_path, monkeypatch, capsys,
                                        users):
        # refused before any allocation: drawing the market would fail here
        def no_draw(seed):
            raise AssertionError("the market was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "t.csv"
        assert main(["generate", "--users", users, "--items", "5",
                     "--out-true", str(out),
                     "--out-pred", str(tmp_path / "p.csv")]) == 9
        assert capsys.readouterr().err.startswith(f"error: a {users} x 5 market")
        assert not out.exists()

class TestSolve:
    def test_nsw_on_toy(self, tmp_path):
        toy = write_toy(tmp_path)
        out = tmp_path / "nsw.json"
        rc = main(["solve", "--policy", "nsw", "--relevance", str(toy),
                   "--exposure", "inverse", "--cutoff", "1", "--out", str(out)])
        assert rc == 0
        doc = nio.load_policy(out)
        assert doc["diagnostics"]["objective"] == pytest.approx(
            np.log(0.8) + np.log(0.4), abs=1e-6)
        prof = doc["policy"].exposures(np.array([1.0, 0.0]))
        utility = float((np.array([[0.8, 0.3], [0.5, 0.4]]) * prof).sum())
        assert utility == pytest.approx(1.20, abs=0.005)

    def test_uniform_policy_entries(self, tmp_path):
        toy = write_toy(tmp_path)
        out = tmp_path / "unif.json"
        assert main(["solve", "--policy", "uniform", "--relevance", str(toy),
                     "--cutoff", "1", "--out", str(out)]) == 0
        doc = nio.load_policy(out)
        assert np.all(doc["policy"].dense() == 0.5)

    def test_expo_fair_diagnostics(self, tmp_path):
        toy = write_toy(tmp_path)
        out = tmp_path / "fair.json"
        rc = main(["solve", "--policy", "expo-fair", "--relevance", str(toy),
                   "--cutoff", "1", "--out", str(out)])
        assert rc == 0
        doc = nio.load_policy(out)
        assert doc["diagnostics"]["constraint_residual"] <= 1e-6
        assert doc["diagnostics"]["objective"] == pytest.approx(1.23, abs=0.005)

    def test_missing_relevance_file(self, tmp_path):
        rc = main(["solve", "--policy", "nsw", "--relevance",
                   str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.json")])
        assert rc == 3

    @pytest.mark.parametrize("field", ["-0.5", "nan", "inf", "-inf", "1e400",
                                       "1_0", " 2", "2 "])
    def test_bad_relevance_value_exit_code(self, tmp_path, capsys, field):
        path = tmp_path / "bad.csv"
        path.write_text(f"# m=2 n=2\n0.8,0.3\n0.5,{field}\n")
        rc = main(["solve", "--policy", "max", "--relevance", str(path),
                   "--cutoff", "1", "--out", str(tmp_path / "o.json")])
        assert rc == 3
        assert "(line 3, column 5)" in capsys.readouterr().err

    def test_relevance_summing_past_half_the_float_range(self, tmp_path,
                                                         capsys):
        huge = tmp_path / "huge.csv"
        huge.write_text("# m=2 n=3\n" + "1e308,1e308,1e308\n" * 2)
        small = tmp_path / "small.csv"
        small.write_text("# m=2 n=3\n" + "0.5,0.5,0.5\n" * 2)
        message = "error: relevance entries must sum to at most 8.99e+307\n"
        out = tmp_path / "o.json"
        assert main(["solve", "--policy", "max", "--relevance", str(huge),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()
        assert main(["solve", "--policy", "max", "--relevance", str(small),
                     "--out", str(out)]) == 0
        metrics = tmp_path / "m.json"
        assert main(["evaluate", "--policy", str(out), "--relevance",
                     str(huge), "--out-json", str(metrics)]) == 2
        assert capsys.readouterr().err == message
        assert not metrics.exists()

    def test_huge_relevance_header_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# m=1 n=99999999999\n0.8,0.3\n")
        rc = main(["solve", "--policy", "max", "--relevance", str(path),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 6

    def test_infeasible_expo_fair(self, tmp_path):
        path = tmp_path / "skew.csv"
        path.write_text("# m=1 n=3\n0.98,0.01,0.01\n")
        rc = main(["solve", "--policy", "expo-fair", "--relevance", str(path),
                   "--cutoff", "2", "--out", str(tmp_path / "o.json")])
        assert rc == 5

    def test_bad_flags(self):
        assert main(["solve", "--policy", "bogus"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "nan", "alpha must be finite and >= 0, got nan"),
        ("--alpha", "inf", "alpha must be finite and >= 0, got inf"),
        ("--tol", "nan", "rel_gap_tol must be finite and > 0, got nan"),
        ("--tol", "inf", "rel_gap_tol must be finite and > 0, got inf"),
    ], ids=["alpha-nan", "alpha-inf", "tol-nan", "tol-inf"])
    def test_nsw_config_out_of_range_exit_code(self, tmp_path, capsys, flag,
                                               value, message):
        toy = write_toy(tmp_path)
        out = tmp_path / "nsw.json"
        rc = main(["solve", "--policy", "nsw", "--relevance", str(toy),
                   "--cutoff", "1", flag, value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_nsw_at_alpha_150_reaches_the_gap_target(self, tmp_path):
        # merit^150 is finite on the desk market, if near 1e276: the solver's
        # power-of-two scalings keep every step in the float range
        true, pred = tmp_path / "t.csv", tmp_path / "p.csv"
        assert main(["generate", "--out-true", str(true),
                     "--out-pred", str(pred)]) == 0
        out = tmp_path / "nsw.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--policy", "nsw", "--alpha", "150",
                         "--relevance", str(pred), "--out", str(out)]) == 0
        diag = nio.load_policy(out)["diagnostics"]
        assert diag["duality_gap"] <= 1e-6 * abs(diag["objective"])

    def test_nsw_at_alpha_145_fails_with_the_error_line_alone(self, tmp_path):
        # an item's impact reaches 0 on the desk market, so its log is -inf:
        # the solve stops with SolverError and numpy warns of nothing
        true, pred = tmp_path / "t.csv", tmp_path / "p.csv"
        assert main(["generate", "--out-true", str(true),
                     "--out-pred", str(pred)]) == 0
        out = tmp_path / "nsw.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nswrank.cli", "solve", "--policy", "nsw",
             "--alpha", "145", "--relevance", str(pred), "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 8
        assert proc.stderr == ("error: the NSW solve left the float range: "
                               "objective -inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["200", "1e308"])
    def test_nsw_past_the_float_range_exit_code(self, tmp_path, capsys,
                                                alpha):
        # merit^alpha leaves the float range on the desk market
        true, pred = tmp_path / "t.csv", tmp_path / "p.csv"
        assert main(["generate", "--out-true", str(true),
                     "--out-pred", str(pred)]) == 0
        out = tmp_path / "nsw.json"
        with np.errstate(all="ignore"):
            rc = main(["solve", "--policy", "nsw", "--alpha", alpha,
                       "--relevance", str(pred), "--out", str(out)])
        assert rc == 8
        assert capsys.readouterr().err.startswith(
            "error: the NSW solve left the float range")
        assert not out.exists()

    def test_bare_value_error_is_a_bug(self, tmp_path, monkeypatch):
        def bug(rel, exp):
            raise ValueError("a bug, not a bad flag")

        monkeypatch.setattr(cli, "solve_utility_max", bug)
        with pytest.raises(ValueError, match="a bug"):
            main(["solve", "--policy", "max", "--relevance",
                  str(write_toy(tmp_path)), "--out", str(tmp_path / "o.json")])

    def test_link_is_not_a_flag(self, tmp_path):
        toy = write_toy(tmp_path)
        assert main(["solve", "--policy", "max", "--relevance", str(toy),
                     "--link", "identity", "--out", str(tmp_path / "o.json")]) == 2

    def test_lp_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        failed = SimpleNamespace(success=False,
                                 message="Numerical difficulties encountered.")
        monkeypatch.setattr(solvers._Master, "solve", lambda self: failed)
        toy = write_toy(tmp_path)
        out = tmp_path / "fair.json"
        rc = main(["solve", "--policy", "expo-fair", "--relevance", str(toy),
                   "--cutoff", "1", "--out", str(out)])
        assert rc == 8
        assert "Numerical difficulties" in capsys.readouterr().err
        assert not out.exists()

    def test_gap_target_unmet_still_writes_policy(self, tmp_path):
        rng = np.random.default_rng(8)
        rel_path = tmp_path / "rel.csv"
        lines = ["# m=6 n=5"] + [",".join(f"{v:.6f}" for v in row)
                                 for row in rng.uniform(0.1, 1, (6, 5))]
        rel_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.json"
        rc = main(["solve", "--policy", "nsw", "--relevance", str(rel_path),
                   "--cutoff", "2", "--tol", "1e-12", "--max-iters", "2",
                   "--out", str(out)])
        assert rc == 4
        assert nio.load_policy(out)["diagnostics"]["iterations"] == 2

    def test_tight_target_runs_every_pass(self, tmp_path, capsys):
        # the solver's state can meet 1e-16 while the policy built from it
        # does not: the solve stops only on the returned policy's gap
        true, pred = tmp_path / "t.csv", tmp_path / "p.csv"
        assert main(["generate", "--users", "6", "--items", "4", "--seed", "0",
                     "--out-true", str(true), "--out-pred", str(pred)]) == 0
        out = tmp_path / "o.json"
        capsys.readouterr()
        assert main(["solve", "--policy", "nsw", "--relevance", str(pred),
                     "--tol", "1e-16", "--max-iters", "50",
                     "--out", str(out)]) == 4
        assert "gap target not met after 50 iterations" in capsys.readouterr().err
        assert nio.load_policy(out)["diagnostics"]["iterations"] == 50

    def test_unconverged_desk_solve_reports_it_and_exits_4(self, tmp_path):
        # solve_nsw decides convergence; the command only reads its verdict
        true, pred = tmp_path / "t.csv", tmp_path / "p.csv"
        assert main(["generate", "--out-true", str(true),
                     "--out-pred", str(pred)]) == 0
        rel = nio.load_relevance(pred)
        exp = ExposureModel.make("inverse", rel.n, 5)
        _, diag = solve_nsw(rel, exp, NswConfig(max_iters=1))
        assert diag.converged is False
        assert main(["solve", "--policy", "nsw", "--relevance", str(pred),
                     "--max-iters", "1", "--out", str(tmp_path / "o.json")]) == 4


class TestEvaluate:
    def _solve(self, tmp_path, policy, **kw):
        toy = write_toy(tmp_path)
        out = tmp_path / f"{policy}.json"
        args = ["solve", "--policy", policy, "--relevance", str(toy),
                "--cutoff", "1", "--out", str(out)]
        assert main(args) == 0
        return toy, out

    def test_nsw_envy_free(self, tmp_path):
        toy, pol = self._solve(tmp_path, "nsw")
        out = tmp_path / "m.json"
        rc = main(["evaluate", "--policy", str(pol), "--relevance", str(toy),
                   "--cutoff", "1", "--out-json", str(out)])
        assert rc == 0
        doc = nio.load_metrics(out)
        assert doc["mean_max_envy"] == pytest.approx(0.0, abs=1e-4)

    def test_expo_fair_envy(self, tmp_path):
        toy, pol = self._solve(tmp_path, "expo-fair")
        out = tmp_path / "m.json"
        assert main(["evaluate", "--policy", str(pol), "--relevance", str(toy),
                     "--cutoff", "1", "--out-json", str(out)]) == 0
        doc = nio.load_metrics(out)
        assert doc["mean_max_envy"] == pytest.approx(0.07, abs=0.005)

    def test_uniform_percentages_zero(self, tmp_path):
        toy, pol = self._solve(tmp_path, "uniform")
        out = tmp_path / "m.json"
        assert main(["evaluate", "--policy", str(pol), "--relevance", str(toy),
                     "--cutoff", "1", "--out-json", str(out)]) == 0
        doc = nio.load_metrics(out)
        assert doc["pct_improved_10"] == 0.0
        assert doc["pct_decreased_10"] == 0.0

    def test_dimension_mismatch_exit_code(self, tmp_path):
        _, pol = self._solve(tmp_path, "uniform")
        other = tmp_path / "wide.csv"
        other.write_text("# m=2 n=3\n0.5,0.5,0.5\n0.5,0.5,0.5\n")
        rc = main(["evaluate", "--policy", str(pol), "--relevance", str(other),
                   "--cutoff", "1", "--out-json", str(tmp_path / "m.json")])
        assert rc == 6

    def test_policy_entry_of_the_wrong_type_exit_code(self, tmp_path):
        toy, pol = self._solve(tmp_path, "max")
        doc = json.loads(pol.read_text())
        doc["users"][0][0]["items_by_rank"] = ["1.0", False]
        pol.write_text(json.dumps(doc))
        out = tmp_path / "m.json"
        assert main(["evaluate", "--policy", str(pol), "--relevance", str(toy),
                     "--cutoff", "1", "--out-json", str(out)]) == 3
        assert not out.exists()

    def test_boolean_prefix_item_exit_code(self, tmp_path, capsys):
        # [false, 1] is not the prefix [0, 1]
        toy, pol = self._solve(tmp_path, "max")
        doc = json.loads(pol.read_text())
        doc["users"][0][0]["items_by_rank"] = [False, 1]
        pol.write_text(json.dumps(doc))
        out = tmp_path / "m.json"
        assert main(["evaluate", "--policy", str(pol), "--relevance", str(toy),
                     "--cutoff", "1", "--out-json", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: items_by_rank must hold integers only\n")
        assert not out.exists()

    def test_envy_grid_past_the_size_bound_exit_code(self, tmp_path, capsys):
        # a 100,000 x 100,000 envy grid would take 74.5 GiB
        rel, pol = tmp_path / "t.csv", tmp_path / "max.json"
        assert main(["generate", "--users", "1", "--items", "100000",
                     "--out-true", str(rel),
                     "--out-pred", str(tmp_path / "p.csv")]) == 0
        assert main(["solve", "--policy", "max", "--relevance", str(rel),
                     "--out", str(pol)]) == 0
        out = tmp_path / "m.json"
        assert main(["evaluate", "--policy", str(pol), "--relevance", str(rel),
                     "--out-json", str(out)]) == 9
        assert capsys.readouterr().err == (
            "error: a policy over 100000 items takes 100000^2 entries per "
            "user, more than 268435456\n")
        assert not out.exists()

    def test_exposure_only_impact(self, tmp_path):
        toy, pol = self._solve(tmp_path, "max")
        out = tmp_path / "m.json"
        assert main(["evaluate", "--policy", str(pol), "--relevance", str(toy),
                     "--cutoff", "1", "--impact", "exposure",
                     "--out-json", str(out)]) == 0
        doc = nio.load_metrics(out)
        # both users expose item 0, so exposure-only impacts are (2, 0)
        assert doc["per_item_impact"] == [2.0, 0.0]


class TestDecomposeAndSample:
    def test_uniform_two_by_two(self, tmp_path, capsys):
        toy = write_toy(tmp_path)
        pol = tmp_path / "unif.json"
        main(["solve", "--policy", "uniform", "--relevance", str(toy),
              "--cutoff", "1", "--out", str(pol)])
        dec = tmp_path / "dec.json"
        rc = main(["decompose", "--policy", str(pol), "--out", str(dec)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert float(printed.split("=")[1]) <= 1e-9
        doc = json.loads(dec.read_text())
        assert doc["schema"] == "decomposition/v2"
        assert doc["users"][0] == [{"weight": 1.0, "items_by_rank": []}]

    def test_deterministic_policy_single_term(self, tmp_path):
        toy = write_toy(tmp_path)
        pol = tmp_path / "max.json"
        main(["solve", "--policy", "max", "--relevance", str(toy),
              "--cutoff", "1", "--out", str(pol)])
        dec = tmp_path / "dec.json"
        main(["decompose", "--policy", str(pol), "--out", str(dec)])
        doc = json.loads(dec.read_text())
        assert all(len(user) == 1 for user in doc["users"])

    def test_sample_line_format(self, tmp_path, capsys):
        toy = write_toy(tmp_path)
        pol = tmp_path / "max.json"
        main(["solve", "--policy", "max", "--relevance", str(toy),
              "--cutoff", "1", "--out", str(pol)])
        dec = tmp_path / "dec.json"
        main(["decompose", "--policy", str(pol), "--out", str(dec)])
        capsys.readouterr()
        rc = main(["sample", "--decomposition", str(dec), "--user", "0",
                   "--seed", "3"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line == "1,0 2,1"

    def test_nsw_sample_starts_with_a_prefix(self, tmp_path, capsys):
        # NSW terms are top-K prefixes: a sample is a permutation whose first
        # K items are one of the user's prefixes, and the rest is drawn
        true, pred = tmp_path / "true.csv", tmp_path / "pred.csv"
        pol, dec = tmp_path / "nsw.json", tmp_path / "dec.json"
        assert main(["generate", "--users", "6", "--items", "7", "--seed", "1",
                     "--out-true", str(true), "--out-pred", str(pred)]) == 0
        assert main(["solve", "--policy", "nsw", "--relevance", str(pred),
                     "--cutoff", "3", "--out", str(pol)]) == 0
        assert main(["decompose", "--policy", str(pol), "--out", str(dec)]) == 0
        terms = nio.load_decomposition(dec).terms
        capsys.readouterr()
        for user in range(6):
            prefixes = [p.tolist() for _, p in terms[user]]
            assert all(len(p) == 3 for p in prefixes)
            for seed in range(4):
                assert main(["sample", "--decomposition", str(dec), "--user",
                             str(user), "--seed", str(seed)]) == 0
                pairs = [f.split(",") for f in capsys.readouterr().out.split()]
                assert [int(rank) for rank, _ in pairs] == list(range(1, 8))
                items = [int(item) for _, item in pairs]
                assert sorted(items) == list(range(7))
                assert items[:3] in prefixes

    @staticmethod
    def _size_error(tmp_path, capsys, command, schema, n, terms, bound):
        """Run ``command`` on a one-user file declaring n items; it exits 9
        within ``bound`` bytes of traced memory and writes no file."""
        import tracemalloc

        src = tmp_path / "huge.json"
        src.write_text(json.dumps({"schema": schema, "m": 1, "n": n,
                                   "epsilon": 1e-9, "users": [terms]}))
        dec = tmp_path / "dec.json"
        argv = (["decompose", "--policy", str(src), "--out", str(dec)]
                if command == "decompose" else
                ["sample", "--decomposition", str(src), "--user", "0",
                 "--seed", "0"])
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 9
        assert capsys.readouterr().err == (
            f"error: a policy over {n} items takes {n}^2 entries per user, "
            "more than 268435456\n")
        assert not dec.exists()
        assert peak < bound

    def test_huge_declared_n_is_a_size_error(self, tmp_path, capsys):
        # checking the decomposition of one empty prefix over 10^8 items
        # would take 10^16 entries; the size check runs before anything that
        # large exists
        self._size_error(tmp_path, capsys, "decompose", "policy/v2", 10**8,
                         [{"weight": 1.0, "items_by_rank": []}], 2**20)

    def test_size_error_leaves_no_decomposition_file(self, tmp_path, capsys):
        # one full ranking of 20,000 items decomposes cheaply, but no command
        # would load the file: decompose refuses before it writes it
        self._size_error(tmp_path, capsys, "decompose", "policy/v2", 20_000,
                         [{"weight": 1.0, "items_by_rank": list(range(20_000))}],
                         2**23)

    def test_sample_refuses_a_huge_declared_n(self, tmp_path, capsys):
        # a prefix file need not list its n items, so sampling it would build
        # and print all of them: 2^20 here, which the bound would show
        # (8 MB) without taking much memory if the check were missing
        self._size_error(tmp_path, capsys, "sample", "decomposition/v2", 2**20,
                         [{"weight": 1.0, "items_by_rank": []}], 2**20)

    @staticmethod
    def _mixture(users):
        terms = [t for user in users for t in user]
        return RankingMixture.from_counts(
            4, [len(user) for user in users], [w for w, _ in terms],
            [len(p) for _, p in terms], np.concatenate([p for _, p in terms]))

    @staticmethod
    def _count_checked(monkeypatch):
        """Count the users that cli.reconstruct receives."""
        seen = []
        real = cli.reconstruct

        def counting(dec):
            seen.append(dec.m)
            return real(dec)

        monkeypatch.setattr(cli, "reconstruct", counting)
        return seen

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_reconstruction_error_by_user_blocks(self, monkeypatch, block):
        # blocks of at most `block` users give the entry of the whole-tensor
        # check; users 2 and 5 have weights that miss 1 by 2^-26, more than
        # the 1e-9 within which bvn_decompose keeps them, so it rescales them,
        # and user 6 has a term of weight zero, which it drops: only those
        # three are checked
        rng = np.random.default_rng(block)
        miss = 2.0 ** -26
        heavy = {2: 0.75 + miss, 5: 0.75 - miss}
        users = [[(0.25, rng.permutation(4)[:2]),
                  (heavy.get(u, 0.75), rng.permutation(4))] for u in range(8)]
        users[6].insert(1, (0.0, rng.permutation(4)[:1]))
        mixture = self._mixture(users)
        # a block takes 16 entries per user and L + (4 - L)^2 per term: 26
        # for each checked user
        monkeypatch.setattr(cli, "_CHECK_ENTRIES", block * 26)
        seen = self._count_checked(monkeypatch)
        dec = bvn_decompose(mixture)
        whole = float(np.abs(reconstruct(dec) - mixture.dense()).max())
        assert cli._reconstruction_error(dec, mixture) == whole
        assert sum(seen) == 3 and max(seen) <= block
        assert len(seen) == -(-3 // block)    # blocks fill up
        # the rescaled weights differ from the policy's by 0.875 * 2^-26
        assert 0.5 * miss < whole < miss

        # weights that miss 1 by a few ulps are kept bit for bit, so those
        # users build no block
        ulp = 2.0 ** -53    # of 0.75
        close = self._mixture([[(0.25, rng.permutation(4)[:2]),
                                (0.75 + d, rng.permutation(4))]
                               for d in (2 * ulp, -3 * ulp)])
        dec = bvn_decompose(close)
        assert np.array_equal(dec.weights, close.weights)
        seen.clear()
        assert cli._reconstruction_error(dec, close) == 0.0
        assert seen == []

    @pytest.mark.parametrize("entries, blocks", [(71, [1, 1, 1]), (72, [2, 1])],
                             ids=["71", "72"])
    def test_blocks_count_the_cells_of_every_term(self, monkeypatch, entries,
                                                   blocks):
        # each user takes 16 entries, 16 for the tail of its empty prefix and
        # 4 for its full ranking: 36, so two users fit in 72 entries, not 71
        miss = 2.0 ** -26   # rescaled, so every user is checked
        users = [[(0.5 + miss, np.arange(0)), (0.5, np.arange(4))]] * 3
        mixture = self._mixture(users)
        monkeypatch.setattr(cli, "_CHECK_ENTRIES", entries)
        seen = self._count_checked(monkeypatch)
        dec = bvn_decompose(mixture)
        whole = float(np.abs(reconstruct(dec) - mixture.dense()).max())
        assert cli._reconstruction_error(dec, mixture) == whole
        assert seen == blocks

    @pytest.mark.parametrize("prefix, error", [([1, 0], 0.5), ([0, 1, 2], 0.25)],
                             ids=["items", "length"])
    def test_changed_prefix_is_still_compared(self, prefix, error):
        # equal weights alone do not skip a user: a decomposition whose
        # prefix differs from the policy's is checked
        full = np.array([2, 3, 1, 0])
        policy = self._mixture([[(0.5, np.array([0, 1])), (0.5, full)]])
        dec = self._mixture([[(0.5, np.array(prefix)), (0.5, full)]])
        assert cli._reconstruction_error(dec, policy) == error

    def test_own_terms_build_no_block(self, tmp_path, capsys, monkeypatch):
        # every user's decomposition is its own terms, bit for bit: nothing
        # reaches the dense check, and the error is exactly 0
        rng = np.random.default_rng(0)
        users = [[(0.25, rng.permutation(4)[:2]), (0.5, rng.permutation(4)),
                  (0.25, rng.permutation(4)[:0])] for _ in range(6)]
        pol, dec = tmp_path / "pol.json", tmp_path / "dec.json"
        nio.save_policy(pol, self._mixture(users), "nsw", "inverse", 2,
                        alpha=0.0)
        seen = self._count_checked(monkeypatch)
        assert main(["decompose", "--policy", str(pol), "--out", str(dec)]) == 0
        assert seen == []
        assert capsys.readouterr().out == "reconstruction_error=0.000e+00\n"

    @pytest.mark.parametrize("user", ["100", "-1"])
    def test_sample_user_out_of_range(self, tmp_path, capsys, user):
        dec = tmp_path / "dec.json"
        nio.save_decomposition(dec, bvn_decompose(solve_uniform(100, 2)))
        rc = main(["sample", "--decomposition", str(dec), "--user", user,
                   "--seed", "3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: user {user} out of range for m=100\n")

    def test_sample_negative_seed(self, tmp_path, capsys):
        dec = tmp_path / "dec.json"
        nio.save_decomposition(dec, bvn_decompose(solve_uniform(2, 2)))
        rc = main(["sample", "--decomposition", str(dec), "--user", "0",
                   "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", [
        ["evaluate", "--policy", "{file}", "--relevance", "{toy}",
         "--out-json", "{out}"],
        ["decompose", "--policy", "{file}", "--out", "{out}"],
        ["sample", "--decomposition", "{file}", "--user", "0", "--seed", "3"],
    ], ids=["evaluate", "decompose", "sample"])
    def test_json_file_not_utf8_exit_code(self, tmp_path, capsys, command):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"schema":\n "policy/v2\xff"}')
        out = tmp_path / "out.json"
        names = {"file": path, "toy": write_toy(tmp_path), "out": out}
        assert main([arg.format(**names) for arg in command]) == 3
        assert capsys.readouterr().err == (
            "error: byte 0xff is not UTF-8 (line 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["evaluate", "--policy", "{file}", "--relevance", "{toy}",
         "--out-json", "{out}"],
        ["sample", "--decomposition", "{file}", "--user", "0", "--seed", "3"],
    ], ids=["evaluate", "sample"])
    def test_json_integer_past_the_digit_limit_exit_code(self, tmp_path,
                                                         capsys, command):
        path = tmp_path / "huge.json"
        path.write_text('{"schema": "decomposition/v1", "m": 1, "n": '
                        + "9" * 5000 + "}")
        out = tmp_path / "out.json"
        names = {"file": path, "toy": write_toy(tmp_path), "out": out}
        assert main([arg.format(**names) for arg in command]) == 3
        assert "4300 digits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, code", [
        (["evaluate", "--policy", "{file}", "--relevance", "{toy}",
          "--out-json", "{out}"], 3),
        (["decompose", "--policy", "{file}", "--out", "{out}"], 3),
        (["sample", "--decomposition", "{file}", "--user", "0", "--seed", "3"],
         3),
        (["sweep", "--config", "{file}", "--out", "{out}"], 2),
    ], ids=["evaluate", "decompose", "sample", "sweep"])
    def test_json_nested_past_the_recursion_limit_exit_code(
            self, tmp_path, capsys, command, code):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        out = tmp_path / "out.json"
        names = {"file": path, "toy": write_toy(tmp_path), "out": out}
        assert main([arg.format(**names) for arg in command]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: " if code == 2 else "error: ")
        assert "maximum recursion depth exceeded" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("term", [
        {"weight": 1.0},
        {"weight": "heavy", "items_by_rank": [0, 1]},
        {"weight": 0.9, "items_by_rank": [0, 1]},
        {"weight": 1.0, "items_by_rank": [True, 0]},
    ], ids=["no-items_by_rank", "text-weight", "weights-sum-0.9", "bool-rank"])
    def test_sample_malformed_decomposition(self, tmp_path, term):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"schema": "decomposition/v1", "m": 1,
                                   "n": 2, "epsilon": 1e-9,
                                   "users": [[term]]}))
        rc = main(["sample", "--decomposition", str(dec), "--user", "0",
                   "--seed", "3"])
        assert rc == 3

    @pytest.mark.parametrize("fields, rc, message", [
        ({"n": 0, "users": [[{"weight": 1.0, "items_by_rank": []}]]}, 6,
         "need m >= 1 and n >= 2, got m=1, n=0"),
        ({"m": 0, "users": []}, 6, "need m >= 1 and n >= 2, got m=0, n=2"),
        ({"epsilon": float("nan")}, 3,
         "epsilon must be a finite number, got nan"),
    ], ids=["no-items", "no-users", "nan-epsilon"])
    def test_sample_bad_sizes_and_epsilon(self, tmp_path, capsys, fields, rc,
                                          message):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"schema": "decomposition/v1", "m": 1,
                                   "n": 2, "epsilon": 1e-9,
                                   "users": [[{"weight": 1.0,
                                               "items_by_rank": [0, 1]}]],
                                   **fields}))
        assert main(["sample", "--decomposition", str(dec), "--user", "0",
                     "--seed", "3"]) == rc
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("weights", [[float("nan")], [1.5, -0.5]],
                             ids=["nan", "negative"])
    def test_sample_unsamplable_weights(self, tmp_path, capsys, weights):
        dec = tmp_path / "dec.json"
        terms = [{"weight": w, "items_by_rank": [0, 1]} for w in weights]
        dec.write_text(json.dumps({"schema": "decomposition/v1", "m": 1,
                                   "n": 2, "epsilon": 1e-9,
                                   "users": [terms]}))
        rc = main(["sample", "--decomposition", str(dec), "--user", "0",
                   "--seed", "3"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: user 0: ")

    def test_dense_policy_is_not_decomposed(self, tmp_path, capsys):
        # a policy/v1 file holds marginals only: no command reads it, and
        # neither evaluate nor decompose writes anything
        toy = write_toy(tmp_path)
        pol = tmp_path / "dense.json"
        pol.write_text(json.dumps({
            "schema": "policy/v1", "m": 2, "n": 2, "policy_type": "uniform",
            "alpha": None, "exposure": {"kind": "inverse", "cutoff": 1},
            "matrices": [[0.5, 0.5, 0.5, 0.5]] * 2,
            "diagnostics": {"objective": 0.0, "duality_gap": None,
                            "iterations": 0, "constraint_residual": None}}))
        out, met = tmp_path / "dec.json", tmp_path / "metrics.json"
        for argv in (["decompose", "--policy", str(pol), "--out", str(out)],
                     ["evaluate", "--policy", str(pol), "--relevance",
                      str(toy), "--cutoff", "1", "--out-json", str(met)]):
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                "error: expected schema 'policy/v2', found 'policy/v1'\n")
        assert not out.exists() and not met.exists()


# Three users, every weight a dyadic rational (1/2, 1/4, 1/8): validation
# and normalization are exact, so the bytes involve no rounding.
GOLDEN_MIXTURES = [
    [(0.5, [0, 1, 2, 3]), (0.25, [1, 2, 3, 0]), (0.25, [3, 0, 1, 2])],
    [(1.0, [2, 0, 3, 1])],
    [(0.5, [3, 2, 1, 0]), (0.375, [0, 1, 2, 3]), (0.125, [1, 0, 3, 2])],
]
GOLDEN_DECOMPOSITION_SHA256 = (
    "f52d5599149d1fc63020f99f53e30c74f07db508c16871c23821bf4ff71c7673")


def test_decompose_golden_bytes(tmp_path, capsys):
    # pins the decomposition/v1 bytes and the printed error line, so that a
    # change to either shows up as a failing test rather than only in a cmp
    terms = [t for user in GOLDEN_MIXTURES for t in user]
    mixture = RankingMixture.from_counts(
        4, [len(user) for user in GOLDEN_MIXTURES], [w for w, _ in terms],
        [4] * len(terms), np.concatenate([p for _, p in terms]))
    pol = tmp_path / "policy.json"
    nio.save_policy(pol, mixture, "uniform", "inverse", 2)
    out = tmp_path / "dec.json"
    assert main(["decompose", "--policy", str(pol), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "reconstruction_error=0.000e+00\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        GOLDEN_DECOMPOSITION_SHA256)


# Every relevance and exposure sum of this market is a dyadic rational, so
# the policy and metrics files hold exact values rather than rounded ones.
GOLDEN_MARKET = ("# m=3 n=4\n0.5,0.25,0.75,0\n1,0.5,0.125,0.25\n"
                 "0.25,0.75,0.5,0.125\n")
GOLDEN_SHA256 = {
    "max.json":
        "0ab0cd71755ce982c78f949e1cd1d0a56116bdef0a92cbc3b3fdee0bec2190a2",
    "max-metrics.json":
        "7bb048519d8330a397b5145138ff398f9a91bbbc60973de24515159eef22ef59",
    "uniform.json":
        "637cb1990d1d2a66dd4b161657e6fcbe7296920ef7ddfba3026ae2156d6bae81",
    "uniform-metrics.json":
        "be5a2f4520d7d1f4db290c166371bd6b173636beaad7f4d442cf14e19e2946b2",
}


@pytest.mark.parametrize("policy", ["max", "uniform"])
def test_policy_and_metrics_golden_bytes(tmp_path, policy):
    # pins the policy/v2 and metrics/v1 bytes of solve and evaluate
    rel = tmp_path / "market.csv"
    rel.write_text(GOLDEN_MARKET)
    pol = tmp_path / f"{policy}.json"
    met = tmp_path / f"{policy}-metrics.json"
    assert main(["solve", "--policy", policy, "--relevance", str(rel),
                 "--cutoff", "2", "--out", str(pol)]) == 0
    assert main(["evaluate", "--policy", str(pol), "--relevance", str(rel),
                 "--cutoff", "2", "--out-json", str(met)]) == 0
    for path in (pol, met):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            GOLDEN_SHA256[path.name]), path.name


# Three users of GOLDEN_MARKET whose terms have prefix lengths 0, K = 2 and
# n = 4, with dyadic weights: exposures, impacts and the decomposition of
# the mixture are exact.
GOLDEN_PREFIX_MIXTURE = [
    [(0.5, []), (0.25, [1, 3]), (0.25, [2, 0, 3, 1])],
    [(1.0, [3, 1])],
    [(0.75, [0, 1, 2, 3]), (0.25, [])],
]
GOLDEN_PREFIX_SHA256 = {
    "policy.json":
        "83417a12af36a36659ef80d62a7f590ab23eaa3aa08f648f292749be1fa41461",
    "metrics.json":
        "9d77d3c7b5b86a20ec62c6c84dc6871a86e610aefc44fab32f2c6f6ca31ea9ec",
    "dec.json":
        "a24aecb0c41c08a29fe66076fd45a38ad2372cd1d189b066c374b0a277e166d5",
}


def test_prefix_mixture_golden_bytes(tmp_path, capsys):
    # pins the policy/v2 bytes of a mixture of prefix lengths 0, K and n,
    # and what evaluate and decompose make of it
    terms = [t for user in GOLDEN_PREFIX_MIXTURE for t in user]
    mixture = RankingMixture.from_counts(
        4, [len(user) for user in GOLDEN_PREFIX_MIXTURE],
        [w for w, _ in terms], [len(p) for _, p in terms],
        np.array([i for _, p in terms for i in p], dtype=np.int64))
    rel = tmp_path / "market.csv"
    rel.write_text(GOLDEN_MARKET)
    pol, met, dec = (tmp_path / name for name in GOLDEN_PREFIX_SHA256)
    nio.save_policy(pol, mixture, "nsw", "inverse", 2, alpha=0.0)
    assert main(["evaluate", "--policy", str(pol), "--relevance", str(rel),
                 "--cutoff", "2", "--out-json", str(met)]) == 0
    assert main(["decompose", "--policy", str(pol), "--out", str(dec)]) == 0
    assert capsys.readouterr().out == "reconstruction_error=0.000e+00\n"
    for path in (pol, met, dec):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            GOLDEN_PREFIX_SHA256[path.name]), path.name
    # each user's own terms
    assert [len(user) for user in json.loads(dec.read_text())["users"]] == [
        3, 1, 2]


class TestSweep:
    def _config(self, tmp_path, **overrides):
        cfg = {
            "policies": ["max", "uniform", "nsw"],
            "grid": {"lambda": [0.0, 1.0], "noise_c": [0.05], "k": [2],
                     "n_items": [5]},
            "seeds": 2,
            "users": 6,
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_row_count(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == nio.SWEEP_HEADER
        assert len(lines) == 1 + 3 * 2 * 2  # policies x grid x seeds

    def test_alpha_nsw_rows(self, tmp_path):
        cfg = self._config(tmp_path,
                           policies=["nsw", {"alpha-nsw": [1.0, 2.0]}])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        names = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert names == {"nsw", "nsw-a1", "nsw-a2"}

    def test_parallel_matches_serial(self, tmp_path):
        cfg = self._config(tmp_path)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(parallel),
                     "--parallel", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_pool_is_capped_at_the_task_count(self, tmp_path, monkeypatch):
        # records the pool size and runs the units in process, so no test
        # starts a worker
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        cfg = self._config(tmp_path)
        serial = tmp_path / "serial.csv"
        capped = tmp_path / "capped.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert sizes == []
        assert main(["sweep", "--config", str(cfg), "--out", str(capped),
                     "--parallel", "1000"]) == 0
        assert sizes == [2 * 2]  # grid points x seeds
        assert capped.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_below_one_is_rejected(self, tmp_path, monkeypatch,
                                            capsys, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("no pool may start")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(self._config(tmp_path)),
                     "--out", str(out), "--parallel", workers]) == 2
        assert "--parallel must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_exponential_exposure_config(self, tmp_path):
        cfg = self._config(tmp_path, exposure="exponential",
                           policies=["nsw"], seeds=1)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2 and "error" not in out.read_text()

    def test_unit_marks_typed_errors_and_raises_bugs(self, monkeypatch):
        task = (0.5, 0.05, 2, 5, 0, 6, "inverse", (("max", "max", 0.0),),
                1e-6, 10000)

        def infeasible(rel, exp):
            raise InfeasibleError("no policy")

        monkeypatch.setattr(cli, "solve_utility_max", infeasible)
        assert cli._sweep_unit(task)[0].endswith(",error")

        def bug(rel, exp):
            raise TypeError("a bug, not a data error")

        monkeypatch.setattr(cli, "solve_utility_max", bug)
        with pytest.raises(TypeError):
            cli._sweep_unit(task)

        def bare_value_error(rel, exp):
            raise ValueError("a bug too")

        monkeypatch.setattr(cli, "solve_utility_max", bare_value_error)
        with pytest.raises(ValueError):
            cli._sweep_unit(task)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bare_value_error_ends_the_run(self, tmp_path, monkeypatch,
                                           workers):
        # the pool's workers are forked, so they see the replaced solver
        def bug(rel, exp):
            raise ValueError("a bug, not a data error")

        monkeypatch.setattr(cli, "solve_utility_max", bug)
        cfg = self._config(tmp_path, policies=["max"])
        out = tmp_path / "sweep.csv"
        with pytest.raises(ValueError, match="a bug"):
            main(["sweep", "--config", str(cfg), "--out", str(out),
                  "--parallel", workers])
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"{bad", b"\xff\xfe",
                                      b'{"seeds": ' + b"9" * 5000 + b"}"],
                             ids=["not-json", "not-utf8", "huge-integer"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad config: ")
        assert not out.exists()

    def test_lp_failure_gives_error_rows(self, tmp_path, monkeypatch):
        failed = SimpleNamespace(success=False,
                                 message="Numerical difficulties encountered.")
        monkeypatch.setattr(solvers._Master, "solve", lambda self: failed)
        cfg = self._config(tmp_path, policies=["expo-fair", "max"])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            assert (row[6:] == ["error"] * 4) == (row[0] == "expo-fair")

    def test_bad_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"policies": [], "grid": {}}))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"policies": "nsw"},
        {"policies": [{"alpha-nsw": 1.0}]},
        {"grid": []},
        {"grid": {"lambda": 0.5}},
        {"grid": {"lambda": [None]}},
        {"grid": {"k": [True]}},
        {"grid": {"n_items": [2.5]}},
        {"policies": [{"alpha-nsw": [None]}]},
        {"seeds": None},
        {"seeds": float("inf")},
        {"users": None},
        {"users": False},
        {"tol": None},
        {"tol": "1e-6"},
        {"max_iters": None},
    ], ids=["policies-string", "alpha-nsw-number", "grid-list",
            "grid-value-number", "lambda-null", "k-boolean", "n-items-fraction",
            "alpha-nsw-null", "seeds-null", "seeds-infinite", "users-null",
            "users-boolean", "tol-null", "tol-string", "max-iters-null"])
    def test_config_of_the_wrong_type(self, tmp_path, capsys, overrides):
        cfg = self._config(tmp_path, **overrides)
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: bad config: ")

    @pytest.mark.parametrize("overrides", [
        {"grid": {"lambda": [1.5]}},
        {"grid": {"lambda": [float("nan")]}},
        {"grid": {"noise_c": [-0.1]}},
        {"grid": {"k": [0]}},
        {"grid": {"n_items": [1]}},
        {"policies": [{"alpha-nsw": [-1]}]},
        {"policies": [{"alpha-nsw": [float("inf")]}]},
        {"seeds": 0},
        {"users": 0},
        {"tol": -1},
        {"tol": 0},
        {"max_iters": 0},
    ], ids=["lambda-above-one", "lambda-nan", "noise-negative", "k-zero",
            "n-items-one", "alpha-nsw-negative", "alpha-nsw-infinite",
            "seeds-zero", "users-zero", "tol-negative", "tol-zero",
            "max-iters-zero"])
    def test_config_out_of_range(self, tmp_path, capsys, monkeypatch,
                                 overrides):
        def no_unit(task):
            raise AssertionError("no unit may run")

        monkeypatch.setattr(cli, "_sweep_unit", no_unit)
        cfg = self._config(tmp_path, **overrides)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad config: ")
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"grid": {"noise_c": [1e308]}},
        {"grid": {"noise_c": [10**400]}},
        {"users": 1000000000},
        {"grid": {"n_items": [1000000]}, "users": 1},
    ], ids=["noise-drawn-past-the-float-range", "noise-integer-past-a-float",
            "market-too-large", "envy-grid-too-large"])
    def test_config_a_unit_would_refuse(self, tmp_path, capsys, monkeypatch,
                                        overrides):
        def no_unit(task):
            raise AssertionError("no unit may run")

        monkeypatch.setattr(cli, "_sweep_unit", no_unit)
        cfg = self._config(tmp_path, **overrides)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("policies", [
        ["nsw", {"alpha-nsw": [0]}],
        ["max", "max"],
        [{"alpha-nsw": [1, 1.0]}],
        [{"alpha-nsw": [1.0000001, 1.0000002]}],
    ], ids=["nsw-and-alpha-zero", "max-twice", "equal-alphas",
            "alphas-printed-alike"])
    def test_repeated_policy_name_is_refused(self, tmp_path, capsys,
                                             monkeypatch, policies):
        # a name is the CSV's only key to a row's policy
        def no_unit(task):
            raise AssertionError("no unit may run")

        monkeypatch.setattr(cli, "_sweep_unit", no_unit)
        cfg = self._config(tmp_path, policies=policies)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: two policies are named ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_rows_past_the_limit_are_refused_before_any_task(self, tmp_path):
        # a billion seeds would be a billion tasks, built before any unit
        # runs; under an address-space limit the run must end with the
        # config's error line, not a MemoryError
        cfg = self._config(tmp_path, seeds=10**9)
        out = tmp_path / "o.csv"
        limit = 1536 * 2**20

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "nswrank.cli", "sweep", "--config", str(cfg),
             "--out", str(out)], capture_output=True, text=True, timeout=120,
            preexec_fn=cap_memory,
            # each BLAS thread's buffers count against the limit
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: bad config: the sweep has {2 * 3 * 10**9} rows (grid points "
            f"x policies x seeds), more than {cli._MAX_SWEEP_ROWS}\n")
        assert not out.exists()

    def test_bad_exposure_kind_rejected_at_parse(self, tmp_path, capsys):
        # an array is not a kind, and it cannot be looked up in the table
        for kind in ("bogus", ["inverse"]):
            cfg = self._config(tmp_path, exposure=kind)
            assert main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv")]) == 2
            assert capsys.readouterr().err == (
                f"error: bad config: unknown exposure kind {kind!r}\n")


# any JSON number: the whole float line with NaN and the infinities, and
# integers past the float range
_NUMBERS = st.one_of(st.floats(), st.integers(),
                     st.integers(-10**400, 10**400))


def _config_values(valid):
    """Mostly values a sweep accepts, one in eight any JSON number."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else _NUMBERS)


@settings(max_examples=200, deadline=None)
@given(grid=st.fixed_dictionaries({
           key: st.lists(_config_values(valid), min_size=1, max_size=2)
           for key, valid in (("lambda", st.floats(0.0, 1.0)),
                              ("noise_c", st.floats(0.0, 1.0)),
                              ("k", st.integers(1, 6)),
                              ("n_items", st.integers(2, 6)))}),
       alphas=st.lists(_config_values(st.floats(0.0, 4.0)), max_size=2),
       seeds=st.integers(-1, 2),
       users=_config_values(st.integers(1, 6)),
       tol=_config_values(st.floats(1e-9, 1.0)),
       max_iters=_config_values(st.integers(1, 100)))
def test_sweep_config_runs_or_is_refused_before_any_unit(
        grid, alphas, seeds, users, tol, max_iters):
    policies = ["max", {"alpha-nsw": alphas}]
    calls = []

    def unit(task):
        calls.append(task)
        return [f"row{p}" for p in range(len(task[7]))]

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "_sweep_unit", unit)
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "o.csv"
        cfg.write_text(json.dumps({
            "policies": policies, "grid": grid, "seeds": seeds,
            "users": users, "tol": tol, "max_iters": max_iters}))
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        if rc == 0:
            rows = out.read_text().splitlines()[1:]
            assert calls and len(rows) == len(calls) * (1 + len(alphas))
        else:
            assert rc == 2 and not calls and not out.exists()
            assert err.getvalue().startswith("error: bad config: ")
            assert err.getvalue().count("\n") == 1


def test_exit_codes_match_the_readme_table():
    # every typed error and its exit code, as the README's table lists them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = {name: int(code) for name, code in
             re.findall(r"^\| `(\w+)` \| (\d+) \|", readme, re.MULTILINE)}
    classes = {name: cls.exit_code for name, cls in
               inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, NswrankError) and cls is not NswrankError}
    assert classes == table == {
        "InputError": 2, "ParseError": 3, "SchemaError": 3,
        "NotDoublyStochastic": 3, "InfeasibleError": 5, "ZeroMeritError": 5,
        "DegenerateMarketError": 5, "DimensionError": 6, "SolverError": 8,
        "SizeError": 9}


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "nswrank.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "sweep" in proc.stdout


# ------------------------------------------------ python -m nswrank.cli

def cli_process(args, **kwargs):
    """``python -m nswrank.cli args`` in a fresh interpreter."""
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, "-m", "nswrank.cli", *args],
                          text=True, timeout=120, **kwargs)


def python_process(code, **kwargs):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, **kwargs)


@pytest.fixture
def desk_files(tmp_path):
    """A small market's relevance, its nsw policy and the policy's
    decomposition, written in process."""
    true, pred = tmp_path / "t.csv", tmp_path / "p.csv"
    policy, dec = tmp_path / "nsw.json", tmp_path / "dec.json"
    assert main(["generate", "--users", "12", "--items", "6",
                 "--out-true", str(true), "--out-pred", str(pred)]) == 0
    assert main(["solve", "--policy", "nsw", "--relevance", str(pred),
                 "--cutoff", "3", "--out", str(policy)]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["decompose", "--policy", str(policy),
                     "--out", str(dec)]) == 0
    return SimpleNamespace(true=true, pred=pred, policy=policy, dec=dec)


@pytest.mark.parametrize("command", [
    "sample", "decompose", "missing file", "max-iters 1", "help", "usage"])
def test_process_writes_and_exits_as_main_does(tmp_path, desk_files, capsys,
                                               monkeypatch, command):
    # the same streams, exit code and files as main() in process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    args = {
        "sample": ["sample", "--decomposition", str(desk_files.dec),
                   "--user", "3", "--seed", "5"],
        "decompose": ["decompose", "--policy", str(desk_files.policy),
                      "--out", str(tmp_path / "dec2.json")],
        "missing file": ["evaluate", "--policy", str(tmp_path / "none.json"),
                         "--relevance", str(desk_files.true),
                         "--out-json", str(tmp_path / "m.json")],
        "max-iters 1": ["solve", "--policy", "nsw", "--max-iters", "1",
                        "--relevance", str(desk_files.pred),
                        "--out", str(tmp_path / "one.json")],
        "help": ["--help"],
        "usage": ["solve", "--policy", "nsw"],
    }[command]
    code = main(args)
    out, err = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert code == {"sample": 0, "decompose": 0, "missing file": 3,
                    "max-iters 1": 4, "help": 0, "usage": 2}[command]
    assert (out != "") == (command in ("sample", "decompose", "help"))
    assert (err != "") == (command in ("missing file", "max-iters 1", "usage"))
    proc = cli_process(args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_process_with_stdout_closed_succeeds(tmp_path, desk_files):
    # sys.stdout is None when descriptor 1 is closed: print() writes nothing
    out = tmp_path / "dec2.json"
    proc = cli_process(["decompose", "--policy", str(desk_files.policy),
                        "--out", str(out)],
                       capture_output=False, stderr=subprocess.PIPE,
                       preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0 and proc.stderr == ""
    assert out.read_bytes() == desk_files.dec.read_bytes()


def test_process_writing_to_a_closed_pipe_reports_it_at_exit():
    # buffered stdout is flushed at exit, into a pipe with no reader: the
    # interpreter reports the error in one line and exits with 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = cli_process(["--help"], capture_output=False, stdout=write,
                           stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 120
    assert proc.stderr.startswith("Exception ignored in: <_io.TextIOWrapper "
                                  "name='<stdout>'")
    assert proc.stderr.endswith("\nBrokenPipeError: [Errno 32] Broken pipe\n")
    assert "Traceback" not in proc.stderr


def test_exception_out_of_main_is_a_traceback_and_exit_1():
    proc = python_process(
        "import nswrank.cli as cli\n"
        "def main():\n"
        "    raise RuntimeError('injected')\n"
        "cli.main = main\n"
        "cli.entry()\n")
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback")
    assert proc.stderr.endswith("RuntimeError: injected\n")


def test_entry_runs_atexit_handlers_and_skips_teardown():
    # a handler main() registers runs, and its output is flushed; the
    # interpreter's teardown, which would finalize the global, does not run
    proc = python_process(
        "import atexit, sys\n"
        "import nswrank.cli as cli\n"
        "class Finalized:\n"
        "    def __del__(self):\n"
        "        sys.stderr.write('teardown\\n')\n"
        "probe = Finalized()\n"
        "def main():\n"
        "    atexit.register(print, 'handler')\n"
        "    print('main')\n"
        "    return 7\n"
        "cli.main = main\n"
        "cli.entry()\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (7, "main\nhandler\n", "")


def test_parallel_sweep_process_leaves_no_child(tmp_path):
    cfg = TestSweep()._config(tmp_path)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
    with subprocess.Popen(
            [sys.executable, "-m", "nswrank.cli", "sweep", "--config", str(cfg),
             "--out", str(parallel), "--parallel", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True) as proc:
        assert proc.communicate(timeout=120) == (b"", b"")
    assert proc.returncode == 0
    # the command led its own process group; no member of it is left
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert parallel.read_bytes() == serial.read_bytes()
