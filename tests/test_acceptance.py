"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them) and asserts at its stated tolerance.  Random instances use fixed seeds,
so reruns are reproducible.
"""

import csv
import json
import time
from collections import defaultdict
from statistics import mean

import numpy as np
import pytest

from nswrank import (
    ExposureModel,
    ImpactFunction,
    InfeasibleError,
    NswConfig,
    RelevanceMatrix,
    adversarial_market,
    amortized_exposure,
    brute_force_oracle,
    bvn_decompose,
    envy_matrix,
    item_impact,
    merit,
    reconstruct,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
    solve_utility_max,
    user_utility,
)
from nswrank.cli import main as cli_main


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def toy():
    rel = RelevanceMatrix([[0.8, 0.3], [0.5, 0.4]])
    exp = ExposureModel.make("inverse", 2, 1)
    return rel, exp


def test_criterion_1_toy_table_regression():
    t0 = time.perf_counter()
    rel, exp = toy()
    policies = {
        "max": solve_utility_max(rel, exp),
        "expo-fair": solve_expo_fair(rel, exp)[0],
        "nsw": solve_nsw(rel, exp)[0],
        "uniform": solve_uniform(2, 2),
    }
    expected = {
        "max": (1.30, (1.3, 0.0)),
        "expo-fair": (1.23, (0.95, 0.28)),
        "nsw": (1.20, (0.8, 0.4)),
        "uniform": (1.00, (0.65, 0.35)),
    }
    bad = []
    for name, policy in policies.items():
        util, impacts = expected[name]
        got_util = user_utility(policy, rel, exp)
        got_imp = item_impact(policy, rel, exp)
        if abs(got_util - util) > 0.005:
            bad.append(f"{name} utility {got_util:.4f} != {util}")
        if np.abs(got_imp - impacts).max() > 0.005:
            bad.append(f"{name} impacts {got_imp} != {impacts}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.2f}s >= 1s")
    report("criterion 1: toy-table regression", not bad,
           "; ".join(bad) or f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_alpha_nsw_regression():
    rel, exp = toy()
    bad = []
    p1, _ = solve_nsw(rel, exp, NswConfig(alpha=1.0))
    if np.abs(item_impact(p1, rel, exp) - [0.845, 0.364]).max() > 0.005:
        bad.append(f"alpha=1 impacts {item_impact(p1, rel, exp)}")
    if abs(user_utility(p1, rel, exp) - 1.209) > 0.005:
        bad.append(f"alpha=1 utility {user_utility(p1, rel, exp):.4f}")
    p2, _ = solve_nsw(rel, exp, NswConfig(alpha=2.0))
    if np.abs(item_impact(p2, rel, exp) - [1.008, 0.234]).max() > 0.005:
        bad.append(f"alpha=2 impacts {item_impact(p2, rel, exp)}")
    if abs(user_utility(p2, rel, exp) - 1.242) > 0.005:
        bad.append(f"alpha=2 utility {user_utility(p2, rel, exp):.4f}")
    u_nsw = user_utility(solve_nsw(rel, exp)[0], rel, exp)
    u_fair = user_utility(solve_expo_fair(rel, exp)[0], rel, exp)
    if not u_nsw < user_utility(p1, rel, exp) < u_fair < user_utility(p2, rel, exp):
        bad.append("utility ordering nsw < 1-nsw < expo-fair < 2-nsw broken")
    report("criterion 2: alpha-NSW regression", not bad, "; ".join(bad))


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2023)
    exp = ExposureModel.make("inverse", 2, 1)
    grid = 1e-3
    bad = []
    for trial in range(50):
        rel = RelevanceMatrix(rng.uniform(0.1, 1.0, (2, 2)))
        _, diag = solve_nsw(rel, exp)
        nsw_oracle = brute_force_oracle(rel, exp, "nsw", grid_step=grid)
        if diag.objective_value < nsw_oracle - 2 * grid:
            bad.append(f"trial {trial}: nsw {diag.objective_value:.6f} < "
                       f"oracle {nsw_oracle:.6f} - 2e-3")
        policy, _ = solve_expo_fair(rel, exp)
        fair_oracle = brute_force_oracle(rel, exp, "expo_fair", grid_step=grid)
        if user_utility(policy, rel, exp) < fair_oracle - 2 * grid:
            bad.append(f"trial {trial}: expo-fair {user_utility(policy, rel, exp):.6f}"
                       f" < oracle {fair_oracle:.6f} - 2e-3")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        bad.append(f"runtime {elapsed:.1f}s >= 30s")
    report("criterion 3: oracle equivalence on 50 random 2x2 markets",
           not bad, "; ".join(bad) or f"{elapsed:.1f} s")


def test_criterion_4_k1_axiom_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    tol = 1e-4
    bad = []
    for trial in range(100):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(2, 9))
        rel = RelevanceMatrix(rng.uniform(0.02, 1.0, (m, n)))
        exp = ExposureModel.make("inverse", n, 1)
        unif_imp = item_impact(solve_uniform(m, n), rel, exp)
        mer = merit(rel)
        for alpha in (0.0, 1.0, 2.0):
            policy, _ = solve_nsw(rel, exp, NswConfig(alpha=alpha))
            imp = item_impact(policy, rel, exp)
            em = envy_matrix(policy, rel, exp)
            wem = em / np.power(mer, alpha)[None, :]
            envy = float(np.max(wem.max(axis=1) - np.diagonal(wem)))
            weights = np.power(mer, alpha)
            floor = n * weights / weights.sum() * unif_imp
            dom_gap = float(np.max(floor - imp))
            if envy > tol:
                bad.append(f"trial {trial} alpha={alpha}: envy {envy:.2e}")
            if dom_gap > tol:
                bad.append(f"trial {trial} alpha={alpha}: dominance gap {dom_gap:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        bad.append(f"runtime {elapsed:.1f}s >= 60s")
    report("criterion 4: K=1 axiom suite on 100 random markets",
           not bad, "; ".join(bad[:4]) or f"{elapsed:.1f} s")


def test_criterion_5_expo_fair_disparity_bound():
    # Faithful to the stated configuration: adversarial market, inverse
    # examination weights over all n positions, identity link.
    ratios = []
    try:
        for n in (4, 8, 16):
            rel = adversarial_market(n)
            exp = ExposureModel.make("inverse", n, n)
            policy, _ = solve_expo_fair(rel, exp)
            unif_imp = item_impact(solve_uniform(n, n), rel, exp)
            ratio = item_impact(policy, rel, exp)[-1] / unif_imp[-1]
            assert ratio <= 4 * n / (n + 1) ** 2
            ratios.append(ratio)
        ok = ratios[0] > ratios[1] > ratios[2]
        report("criterion 5: expo-fair disparity bound", ok,
               f"ratios {ratios}")
    except InfeasibleError as exc:
        detail = (
            "the stated configuration admits no exposure-fair policy: with "
            "inverse examination weights over all n positions, the "
            "merit-proportional exposure targets of the adversarial market "
            "are not majorized by the examination weights (for n=4 the top "
            "3 items require 7.5 total exposure but 4 users can examine at "
            "most 4*(1+1/2+1/3)=7.33 across 3 ranks), so the equality "
            "constraint set is empty; the LP solver independently reports "
            "infeasibility. The same check passes under the exponential "
            "examination function (see the supplementary test below). "
            f"[{exc}]")
        report("criterion 5: expo-fair disparity bound", False, detail)


def test_criterion_5_nsw_dominance_on_adversarial_markets():
    bad = []
    for n in (4, 8, 16):
        rel = adversarial_market(n)
        exp = ExposureModel.make("inverse", n, n)
        policy, _ = solve_nsw(rel, exp)
        shortfall = float(np.max(
            item_impact(solve_uniform(n, n), rel, exp) - item_impact(policy, rel, exp)))
        if shortfall > 1e-3:
            bad.append(f"n={n}: shortfall {shortfall:.2e}")
    report("criterion 5: NSW dominance on adversarial markets", not bad,
           "; ".join(bad))


def test_supplementary_disparity_bound_under_exponential_exposure():
    # Not an acceptance criterion: demonstrates the disparity bound on the
    # same markets with an examination function for which the exposure-fair
    # program is feasible.
    ratios = []
    for n in (4, 8, 16):
        rel = adversarial_market(n)
        exp = ExposureModel.make("exponential", n, n)
        policy, _ = solve_expo_fair(rel, exp)
        unif_imp = item_impact(solve_uniform(n, n), rel, exp)
        ratio = float(item_impact(policy, rel, exp)[-1] / unif_imp[-1])
        assert ratio <= 4 * n / (n + 1) ** 2
        ratios.append(ratio)
    assert ratios[0] > ratios[1] > ratios[2]
    report("supplementary: disparity bound, exponential exposure", True,
           f"ratios {[round(r, 4) for r in ratios]} vs bounds "
           f"{[round(4 * n / (n + 1) ** 2, 4) for n in (4, 8, 16)]}")


def test_criterion_6_appendix_equivalences():
    bad = []
    # merit-proportional exposure (identity link) equalizes exposure/merit
    markets = [toy()]
    rng = np.random.default_rng(66)
    for _ in range(4):
        rel = RelevanceMatrix(rng.uniform(0.1, 1.0, (12, 6)))
        markets.append((rel, ExposureModel.make("inverse", 6, 2)))
    for idx, (rel, exp) in enumerate(markets):
        policy, _ = solve_expo_fair(rel, exp)
        ratios = amortized_exposure(policy, exp) / merit(rel)
        spread = float(ratios.max() - ratios.min())
        if spread > 1e-6:
            bad.append(f"market {idx}: equity spread {spread:.2e}")
    # exposure-only welfare at K=1 equalizes amortized exposure
    for trial in range(5):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, 9))
        rel = RelevanceMatrix(rng.uniform(0.1, 1.0, (m, n)))
        exp = ExposureModel.make("inverse", n, 1)
        policy, _ = solve_nsw(rel, exp, vfn=ImpactFunction.EXPOSURE_ONLY)
        expo = amortized_exposure(policy, exp)
        if float(expo.max() - expo.min()) > 1e-4:
            bad.append(f"trial {trial}: exposure spread {expo.max() - expo.min():.2e}")
    report("criterion 6: attention-equality equivalences", not bad, "; ".join(bad))


def test_criterion_7_bvn_suite():
    rng = np.random.default_rng(777)
    bad = []
    for trial in range(20):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(2, 21))
        rel = RelevanceMatrix(rng.uniform(0.05, 1.0, (m, n)))
        exp = ExposureModel.make("inverse", n, min(5, n))
        policies = [
            solve_uniform(m, n),
            solve_utility_max(rel, exp),
            solve_nsw(rel, exp)[0],
            solve_expo_fair(rel, exp)[0],
        ]
        for pidx, policy in enumerate(policies):
            dec = bvn_decompose(policy)
            err = float(np.abs(reconstruct(dec) - policy.dense()).max())
            if err > 1e-8:
                bad.append(f"trial {trial} policy {pidx}: reconstruction {err:.2e}")
            for user_terms in dec.terms:
                if abs(sum(w for w, _ in user_terms) - 1.0) > 1e-9:
                    bad.append(f"trial {trial} policy {pidx}: weight sum")
                if len(user_terms) > (n - 1) ** 2 + 1:
                    bad.append(f"trial {trial} policy {pidx}: term count")
            drift = abs(np.sum(rel.values * (reconstruct(dec) @ exp.weights))
                        - user_utility(policy, rel, exp))
            if drift > 1e-6:
                bad.append(f"trial {trial} policy {pidx}: utility drift {drift:.2e}")
    report("criterion 7: BvN suite", not bad, "; ".join(bad[:4]))


SWEEP_POLICIES = ("max", "uniform", "expo-fair", "nsw")


def run_sweep(tmp_path, name, **overrides):
    cfg = {
        "policies": list(SWEEP_POLICIES),
        "grid": {"lambda": [0.0, 0.5, 1.0], "noise_c": [0.05], "k": [5],
                 "n_items": [20]},
        "seeds": 5,
        "users": 50,
    }
    cfg.update(overrides)
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}.csv"
    rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return out


def test_criterion_8_sweep_trends(tmp_path):
    t0 = time.perf_counter()
    out = run_sweep(tmp_path, "c8")
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 3 * 5
    by_policy_lam = defaultdict(list)
    for row in rows:
        by_policy_lam[(row["policy"], row["lambda"])].append(
            {k: float(row[k]) for k in ("user_utility", "mean_max_envy",
                                        "pct_improved_10", "pct_decreased_10")})

    def agg(policy, lam, key):
        return mean(v[key] for v in by_policy_lam[(policy, lam)])

    bad = []
    envy_ratio = agg("nsw", "1", "mean_max_envy") / agg("expo-fair", "1", "mean_max_envy")
    if envy_ratio > 0.05:
        bad.append(f"nsw envy is {envy_ratio:.1%} of expo-fair at lambda=1")
    for lam in ("0", "0.5", "1"):
        if any(v["pct_decreased_10"] != 0.0 for v in by_policy_lam[("nsw", lam)]):
            bad.append(f"nsw decreased some item at lambda={lam}")
    if agg("expo-fair", "1", "pct_decreased_10") <= 0.0:
        bad.append("expo-fair decreased no items at lambda=1")
    for lam in ("0", "0.5", "1"):
        utils = [agg(p, lam, "user_utility") for p in
                 ("max", "expo-fair", "nsw", "uniform")]
        if not utils[0] >= utils[1] >= utils[2] >= utils[3]:
            bad.append(f"utility ordering broken at lambda={lam}: {utils}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        bad.append(f"runtime {elapsed:.0f}s >= 300s")
    report("criterion 8: sweep trends at desk scale", not bad,
           "; ".join(bad) or f"envy ratio {envy_ratio:.1%}, {elapsed:.0f} s")


def test_criterion_9_determinism(tmp_path):
    bad = []
    # generation
    for tag in ("a", "b"):
        cli_main(["generate", "--users", "10", "--items", "6", "--seed", "11",
                  "--out-true", str(tmp_path / f"t{tag}.csv"),
                  "--out-pred", str(tmp_path / f"p{tag}.csv")])
    if (tmp_path / "ta.csv").read_bytes() != (tmp_path / "tb.csv").read_bytes():
        bad.append("generate not byte-identical")
    # solve + evaluate
    toy_path = tmp_path / "toy.csv"
    toy_path.write_text("# m=2 n=2\n0.8,0.3\n0.5,0.4\n")
    for tag in ("a", "b"):
        cli_main(["solve", "--policy", "nsw", "--relevance", str(toy_path),
                  "--cutoff", "1", "--out", str(tmp_path / f"nsw{tag}.json")])
        cli_main(["evaluate", "--policy", str(tmp_path / f"nsw{tag}.json"),
                  "--relevance", str(toy_path), "--cutoff", "1",
                  "--out-json", str(tmp_path / f"m{tag}.json")])
    if (tmp_path / "nswa.json").read_bytes() != (tmp_path / "nswb.json").read_bytes():
        bad.append("solve not byte-identical")
    if (tmp_path / "ma.json").read_bytes() != (tmp_path / "mb.json").read_bytes():
        bad.append("evaluate not byte-identical")
    # sweep, serial twice and parallel once
    small = {"grid": {"lambda": [0.0, 1.0], "noise_c": [0.05], "k": [3],
                      "n_items": [8]}, "seeds": 2, "users": 10}
    runs = [run_sweep(tmp_path, f"s{i}", **small) for i in range(2)]
    if runs[0].read_bytes() != runs[1].read_bytes():
        bad.append("sweep not byte-identical across runs")
    cfg_path = tmp_path / "s0.json"
    par = tmp_path / "par.csv"
    cli_main(["sweep", "--config", str(cfg_path), "--out", str(par),
              "--parallel", "2"])
    if par.read_bytes() != runs[0].read_bytes():
        bad.append("parallel sweep differs from serial")
    report("criterion 9: determinism", not bad, "; ".join(bad))
