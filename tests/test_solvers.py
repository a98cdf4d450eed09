"""Policy solvers against hand-computed optima and the enumeration oracle."""

import itertools
import subprocess
import sys
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nswrank import _kernels, solvers
from nswrank.solvers import expo_fair_bound
from nswrank import (
    DegenerateMarketError,
    ExposureModel,
    ImpactFunction,
    InfeasibleError,
    NswConfig,
    RelevanceMatrix,
    SizeError,
    SolverError,
    SyntheticConfig,
    ZeroMeritError,
    amortized_exposure,
    brute_force_oracle,
    envy_matrix,
    exposure_targets,
    generate_market,
    item_impact,
    merit,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
    solve_utility_max,
    user_utility,
)

RW = ImpactFunction.RELEVANCE_WEIGHTED
XO = ImpactFunction.EXPOSURE_ONLY


def assert_doubly_stochastic(policy):
    mats = policy.dense()
    assert mats.min() >= 0.0 and mats.max() <= 1.0
    assert np.abs(mats.sum(axis=2) - 1).max() < 1e-9
    assert np.abs(mats.sum(axis=1) - 1).max() < 1e-9


def random_market(rng, m_max=6, n_max=6, low=0.1):
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(2, n_max + 1))
    return RelevanceMatrix(rng.uniform(low, 1.0, (m, n)))


class TestSolveUniform:
    def test_entries(self):
        assert np.all(solve_uniform(2, 2).dense() == 0.5)

    def test_entries_are_exactly_one_over_n(self):
        # fifty copies of 1/50 sum to 1 only up to rounding; the policy keeps
        # them as they are
        assert np.all(solve_uniform(2, 50).dense() == 1.0 / 50)

    def test_toy_measurements(self, toy_market):
        rel, exp = toy_market
        policy = solve_uniform(2, 2)
        assert user_utility(policy, rel, exp) == pytest.approx(1.00)
        assert np.allclose(item_impact(policy, rel, exp), [0.65, 0.35])

    def test_exposure_symmetry(self):
        exp = ExposureModel.make("inverse", 4, 2)
        expo = amortized_exposure(solve_uniform(5, 4), exp)
        assert np.allclose(expo, 5 * exp.total_exposure / 4)


class TestSolveUtilityMax:
    def test_toy(self, toy_market):
        rel, exp = toy_market
        policy = solve_utility_max(rel, exp)
        assert user_utility(policy, rel, exp) == pytest.approx(1.30)
        assert np.allclose(item_impact(policy, rel, exp), [1.3, 0.0])
        assert np.allclose(amortized_exposure(policy, exp), [2.0, 0.0])

    def test_ties_break_by_item_index(self):
        rel = RelevanceMatrix([[0.4, 0.4, 0.4]])
        exp = ExposureModel.make("inverse", 3, 3)
        assert np.array_equal(solve_utility_max(rel, exp).dense()[0], np.eye(3))

    def test_matches_permutation_enumeration(self):
        rel = RelevanceMatrix([[0.1, 0.9, 0.5]])
        exp = ExposureModel.make("inverse", 3, 3)
        policy = solve_utility_max(rel, exp)
        # independent oracle: evaluate all 3! rankings
        best = max(
            sum(e * rel.values[0, i] for e, i in zip(exp.weights, perm))
            for perm in itertools.permutations(range(3)))
        assert best == pytest.approx(0.9 + 0.5 / 2 + 0.1 / 3)
        assert user_utility(policy, rel, exp) == pytest.approx(best)
        # ranking is (i2, i3, i1)
        assert np.array_equal(np.argmax(policy.dense()[0], axis=0), [1, 2, 0])


class TestSolveExpoFair:
    def test_toy_allocation(self, toy_market):
        rel, exp = toy_market
        policy, diag = solve_expo_fair(rel, exp)
        assert np.allclose(amortized_exposure(policy, exp), [1.3, 0.7])
        assert np.allclose(item_impact(policy, rel, exp), [0.95, 0.28])
        assert user_utility(policy, rel, exp) == pytest.approx(1.23)
        assert diag.constraint_residual <= 1e-6
        assert diag.objective_value == pytest.approx(1.23)

    def test_toy_unique_optimum(self, toy_market):
        # on the constraint line the utility is 0.83 + 0.4 x, so the unique
        # maximum puts user 1 fully on item 1 and splits user 2 as 0.3 / 0.7
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        prof = policy.dense() @ exp.weights
        assert np.allclose(prof, [[1.0, 0.0], [0.3, 0.7]], atol=1e-8)

    def test_equal_merit_square_market(self):
        rel = RelevanceMatrix(np.full((4, 4), 0.5))
        exp = ExposureModel.make("inverse", 4, 1)
        policy, _ = solve_expo_fair(rel, exp)
        assert np.allclose(amortized_exposure(policy, exp), 1.0, atol=1e-8)

    def test_infeasible_targets(self):
        # one user, huge merit skew, two exposed slots: the top item's target
        # exceeds what a single doubly stochastic row can collect
        rel = RelevanceMatrix([[0.98, 0.01, 0.01]])
        exp = ExposureModel.make("inverse", 3, 2)
        with pytest.raises(InfeasibleError, match="exceeds the maximum"):
            solve_expo_fair(rel, exp)

    def test_no_exposed_rank_gives_the_uniform_policy(self):
        rel = RelevanceMatrix([[0.5, 0.2, 0.1], [0.3, 0.4, 0.6]])
        policy, diag = solve_expo_fair(rel, ExposureModel([0.0] * 3))
        assert np.all(policy.dense() == 1.0 / 3)
        assert diag.objective_value == diag.duality_gap == 0.0

    def test_zero_merit(self):
        rel = RelevanceMatrix([[0.5, 0.0], [0.5, 0.0]])
        exp = ExposureModel.make("inverse", 2, 1)
        with pytest.raises(ZeroMeritError):
            solve_expo_fair(rel, exp)

    def test_solver_failure_is_typed(self, toy_market, monkeypatch):
        failed = SimpleNamespace(success=False, message="Iteration limit reached.")
        monkeypatch.setattr(solvers._Master, "solve", lambda self: failed)
        rel, exp = toy_market
        with pytest.raises(SolverError, match="Iteration limit"):
            solve_expo_fair(rel, exp)

    def test_targets_met_to_rounding_at_a_million_users(self):
        # the cumulative sums reach m·Σe, and their rounding alone made the
        # last slack (0 in exact arithmetic) about -5e-9
        m = 10**6
        rng = np.random.default_rng(0)
        for n in (1000, 2000):
            e = ExposureModel.make("inverse", n, 10).weights
            for _ in range(20):
                mer = rng.uniform(0.1, 1.0, n)
                solvers._check_targets_feasible(
                    mer * (m * e.sum() / mer.sum()), m, e)

    def test_targets_short_by_a_millionth_are_infeasible(self):
        m, e = 10**6, ExposureModel.make("inverse", 4, 2).weights
        targets = np.array([m * e[0] * (1 + 1e-6), 0.0, 0.0, 0.0])
        with pytest.raises(InfeasibleError, match="exceeds the maximum"):
            solvers._check_targets_feasible(targets, m, e)

    def test_a_market_cleared_at_zero_prices_stops_the_seed(self, monkeypatch):
        # each user's utility-max prefix is a different item of equal merit,
        # so λ = 0 meets the targets and the subgradient is exactly 0
        rel = RelevanceMatrix([[1.0, 0.5], [0.5, 1.0]])
        exp = ExposureModel.make("inverse", 2, 1)
        points = []
        lagrangian = solvers._lagrangian

        def recording(r, eK, targets, prices):
            points.append(prices.copy())
            return lagrangian(r, eK, targets, prices)

        monkeypatch.setattr(solvers, "_lagrangian", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy, diag = solve_expo_fair(rel, exp)
        # the seed's one point, then the certificate's
        assert len(points) == 2 and not points[0].any()
        assert diag.objective_value == 2.0 and diag.duality_gap == 0.0
        assert np.array_equal(policy.dense()[:, :, 0], np.eye(2))

    def test_desk_needs_few_pricing_rounds(self):
        # without the seed the desk master takes 24 rounds
        rel, exp = MARKETS["desk"]()
        _, diag = solve_expo_fair(rel, exp)
        assert diag.iterations <= 12

    def test_artificial_mass_left_is_an_error(self, monkeypatch):
        # free artificial columns let the master ignore the exposure targets;
        # the solve must refuse to return that policy
        monkeypatch.setattr(solvers, "_ARTIFICIAL_COST", 0.0)
        rel, exp = MARKETS["crit6-0"]()
        with pytest.raises(SolverError, match="artificial"):
            solve_expo_fair(rel, exp)

    def test_a_column_already_in_the_master_ends_pricing(self, monkeypatch):
        # here HiGHS stops with an existing column pricing just above the
        # pricing tolerance, within its own dual tolerance; adding that
        # column again would give the same duals round after round
        rel = RelevanceMatrix([[0.2859354478403595, 0.04493178781326068,
                                0.20266157509814406, 0.1202438833936993,
                                0.9246001744331733, 0.000125315670180647,
                                0.9903779428226731, 0.0074508591669880525]])
        exp = ExposureModel.make("exponential", 8, 6)
        rounds = []
        solve = solvers._Master.solve

        def bounded(master):
            rounds.append(1)
            assert len(rounds) <= 100, "pricing does not terminate"
            return solve(master)

        monkeypatch.setattr(solvers._Master, "solve", bounded)
        policy, diag = solve_expo_fair(rel, exp)
        assert diag.duality_gap <= 1e-9 * user_utility(policy, rel, exp)


def loop_constraints(m, n, nc, e_top, targets):
    """Reference: the exposure-fair LP's equality constraints, one COO
    triplet at a time."""
    import scipy.sparse as sp

    K = len(e_top)
    rows, cols, vals, rhs = [], [], [], []

    def vidx(u, i, k):
        return (u * n + i) * nc + k

    for u in range(m):
        for i in range(n):
            for k in range(nc):
                rows.append(len(rhs))
                cols.append(vidx(u, i, k))
                vals.append(1.0)
            rhs.append(1.0)
    for u in range(m):
        for k in range(nc):
            for i in range(n):
                rows.append(len(rhs))
                cols.append(vidx(u, i, k))
                vals.append(1.0)
            rhs.append(1.0 if k < K else float(n - K))
    for i in range(n):
        for u in range(m):
            for k in range(K):
                rows.append(len(rhs))
                cols.append(vidx(u, i, k))
                vals.append(e_top[k])
        rhs.append(targets[i])
    a_eq = sp.coo_matrix((vals, (rows, cols)),
                         shape=(len(rhs), m * n * nc)).tocsr()
    return a_eq, rhs


def dense_lp_utility(rel, exp):
    """Reference: the exposure-fair LP over every x[u, i, rank class], with
    ranks K..n-1 pooled into one class, solved by HiGHS in one go."""
    from scipy.optimize import linprog

    m, n = rel.m, rel.n
    e = exp.weights
    K = int(np.count_nonzero(e > 0.0))
    nc = K + 1 if K < n else n
    cost = np.zeros((m, n, nc))
    cost[:, :, :K] = -rel.values[:, :, None] * e[:K]
    a_eq, rhs = loop_constraints(m, n, nc, e[:K], exposure_targets(rel, exp))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=rhs, bounds=(0.0, 1.0),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return -res.fun


def _toy():
    return (RelevanceMatrix([[0.8, 0.3], [0.5, 0.4]]),
            ExposureModel.make("inverse", 2, 1))


def _desk():
    _, pred = generate_market(SyntheticConfig(m=100, n=50, lam=0.5,
                                              noise_c=0.05, seed=0))
    return pred, ExposureModel.make("inverse", 50, 5)


def _criterion_6_markets():
    # the draws of test_criterion_6_appendix_equivalences
    rng = np.random.default_rng(66)
    return [(RelevanceMatrix(rng.uniform(0.1, 1.0, (12, 6))),
             ExposureModel.make("inverse", 6, 2)) for _ in range(4)]


def _criterion_7_markets():
    # the draws of test_criterion_7_bvn_suite
    rng = np.random.default_rng(777)
    markets = []
    for _ in range(20):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(2, 21))
        rel = RelevanceMatrix(rng.uniform(0.05, 1.0, (m, n)))
        markets.append((rel, ExposureModel.make("inverse", n, min(5, n))))
    return markets


MARKETS = {"toy": _toy, "desk": _desk}
MARKETS.update({f"crit6-{j}": (lambda j=j: _criterion_6_markets()[j])
                for j in range(4)})
MARKETS.update({f"crit7-{j}": (lambda j=j: _criterion_7_markets()[j])
                for j in range(20)})


@pytest.mark.parametrize("name", list(MARKETS))
def test_utility_matches_the_dense_lp(name):
    rel, exp = MARKETS[name]()
    policy, diag = solve_expo_fair(rel, exp)
    want = dense_lp_utility(rel, exp)
    assert user_utility(policy, rel, exp) == pytest.approx(want, rel=1e-9)
    assert diag.objective_value == pytest.approx(want, rel=1e-9)
    assert diag.constraint_residual <= 1e-9


@st.composite
def _feasible_markets(draw, kinds=("inverse", "exponential", "dcg"),
                      value=st.floats(0.05, 1.0)):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 6))
    K = draw(st.integers(1, n))
    kind = draw(st.sampled_from(kinds))
    values = draw(st.lists(value, min_size=m * n, max_size=m * n))
    rel = RelevanceMatrix(np.reshape(values, (m, n)))
    exp = ExposureModel.make(kind, n, K)
    try:
        solvers._check_targets_feasible(exposure_targets(rel, exp), m,
                                        exp.weights)
    except InfeasibleError:
        assume(False)
    return rel, exp


@settings(max_examples=150, deadline=None)
@given(market=_feasible_markets())
def test_expo_fair_duality_gap_certifies_the_policy(market):
    rel, exp = market
    policy, diag = solve_expo_fair(rel, exp)
    utility = user_utility(policy, rel, exp)
    # the certificate is the bound at the stored prices minus the utility
    # of the policy actually returned
    assert diag.duality_gap == max(
        expo_fair_bound(rel, exp, diag.exposure_prices) - diag.objective_value,
        0.0)
    assert diag.objective_value == pytest.approx(utility, rel=1e-12)
    assert 0.0 <= diag.duality_gap <= 1e-9 * abs(utility)


def test_expo_fair_gap_that_rounds_below_zero_is_reported_as_zero():
    # on this market the bound at the optimal prices is the utility but
    # for rounding: their difference is -1.42e-14
    _, pred = generate_market(SyntheticConfig(m=40, n=20, lam=0.0, seed=0))
    exp = ExposureModel.make("inverse", 20, 5)
    _, diag = solve_expo_fair(pred, exp)
    assert (expo_fair_bound(pred, exp, diag.exposure_prices)
            < diag.objective_value)
    assert diag.duality_gap == 0.0


def _solve_adding_each_column_once(rel, exp):
    """solve_expo_fair, checking that no column enters the master twice."""
    columns = []
    add = solvers._Master.add

    def recording(master, cost, counts, index, value):
        ends = np.cumsum(counts)
        columns.extend((tuple(index[a:b].tolist()), tuple(value[a:b].tolist()))
                       for a, b in zip(ends - counts, ends))
        add(master, cost, counts, index, value)

    with mock.patch.object(solvers._Master, "add", recording):
        policy, diag = solve_expo_fair(rel, exp)
    assert len(set(columns)) == len(columns)
    utility = user_utility(policy, rel, exp)
    assert -1e-12 <= diag.duality_gap <= 1e-9 * abs(utility)
    assert diag.constraint_residual <= 1e-9
    return utility


@settings(max_examples=150, deadline=None)
# a few coarse values make ties within and across users likely
@given(market=_feasible_markets(
    kinds=("inverse", "exponential"),
    value=st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.05, 1.0)))
def test_the_seed_keeps_the_optimum(market):
    rel, exp = market
    seeded = _solve_adding_each_column_once(rel, exp)
    with mock.patch.object(solvers, "_SEED_STEPS", 0):
        plain = _solve_adding_each_column_once(rel, exp)
    assert seeded == pytest.approx(plain, rel=1e-9)


@st.composite
def _nsw_markets(draw):
    m = draw(st.integers(1, 8))
    K = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(max(K, 2), 6))
    values = draw(st.lists(st.floats(0.05, 1.0), min_size=m * n,
                           max_size=m * n))
    return RelevanceMatrix(np.reshape(values, (m, n))), ExposureModel.make("inverse", n, K)


@settings(max_examples=150, deadline=None)
@given(market=_nsw_markets(), alpha=st.sampled_from([0.0, 1.0]))
# the objective moves from -0.27 to -0.198 within the last pass, so the gap
# must be held to the bound of the objective the solve ends with
@example(market=(RelevanceMatrix(np.array([[0.859375, 0.859375, 0.74609375],
                                           [0.5, 0.5, 0.87890625]])),
                 ExposureModel.make("inverse", 3, 3)), alpha=0.0)
def test_nsw_duality_gap_certifies_the_policy(market, alpha):
    rel, exp = market
    cfg = NswConfig(alpha=alpha)
    policy, diag = solve_nsw(rel, exp, cfg)
    w = np.power(merit(rel), alpha)
    objective = float(np.sum(w * np.log(item_impact(policy, rel, exp))))
    assert diag.objective_value == pytest.approx(objective, rel=1e-12)
    assert 0.0 <= diag.duality_gap <= cfg.rel_gap_tol * abs(diag.objective_value) + 1e-12
    # the uniform start and top-K prefixes only
    assert set(policy.lengths.tolist()) <= {0, exp.K}


@settings(max_examples=150, deadline=None)
@given(market=_nsw_markets(), alpha=st.sampled_from([0.0, 1.0]),
       tol=st.floats(1e-16, 1e-6), max_iters=st.integers(1, 60))
def test_nsw_stops_early_only_on_its_reported_certificate(
        market, alpha, tol, max_iters):
    rel, exp = market
    policy, diag = solve_nsw(rel, exp, NswConfig(alpha=alpha, rel_gap_tol=tol,
                                                 max_iters=max_iters))
    if diag.iterations < max_iters:
        assert diag.duality_gap <= tol * max(abs(diag.objective_value), 1e-300)
    # the reported pair is the returned policy's certificate, bit for bit
    w = np.power(merit(rel), alpha)
    assert (diag.objective_value, diag.duality_gap) == _kernels.certificate(
        rel.values, policy.exposures(exp.weights), exp.weights[:exp.K], w,
        merit(rel) > 0)


def test_nsw_gap_that_rounds_below_zero_is_zero():
    # at this optimum the oracle's value and sum w differ by -3.6e-12 in
    # floats; a Frank-Wolfe gap is never negative
    _, pred = generate_market(SyntheticConfig(m=60, n=30, lam=0.5,
                                              noise_c=0.05, seed=0))
    _, diag = solve_nsw(pred, ExposureModel.make("inverse", 30, 3),
                        NswConfig(alpha=2.0))
    assert diag.converged and diag.duality_gap == 0.0


def test_nsw_tight_target_runs_every_pass_or_is_met():
    # the solver's state can meet 1e-16 while the mixture built from it does
    # not: the solve stops only on the returned mixture's certificate
    _, pred = generate_market(SyntheticConfig(m=8, n=6, seed=0))
    cfg = NswConfig(rel_gap_tol=1e-16, max_iters=60)
    _, diag = solve_nsw(pred, ExposureModel.make("inverse", 6, 2), cfg)
    assert (diag.iterations == cfg.max_iters
            or diag.duality_gap <= cfg.rel_gap_tol * abs(diag.objective_value))


@settings(max_examples=150, deadline=None)
@given(market=_nsw_markets(), alpha=st.sampled_from([0.0, 1.0]))
def test_nsw_at_one_slot_is_envy_free_within_its_gap(market, alpha):
    # At K = 1 the gap is sum_u sum_j E[u, j] (max_k c[u, k] - c[u, j]) with
    # c[u, i] = w_i V[u, i] / imp_i, every term nonnegative, so for items i, j
    # it bounds sum_u E[u, j] (c[u, i] - c[u, j]) = w_i em[i, j] / imp_i - w_j.
    # Dividing column j by w_j: em[i, j] / w_j - imp_i / w_i <= G imp_i / (w_i w_j).
    rel, _ = market
    exp = ExposureModel.make("inverse", rel.n, 1)
    policy, diag = solve_nsw(rel, exp, NswConfig(alpha=alpha))
    w = np.power(merit(rel), alpha)
    imp = item_impact(policy, rel, exp)
    wem = envy_matrix(policy, rel, exp) / w[None, :]
    envy = wem - (imp / w)[:, None]
    bound = max(diag.duality_gap, 0.0) * imp[:, None] / np.outer(w, w)
    assert np.all(envy <= bound + 1e-12 * (imp / w)[:, None])


def test_perturbed_prices_give_a_larger_bound():
    rel, exp = MARKETS["desk"]()
    _, diag = solve_expo_fair(rel, exp)
    best = expo_fair_bound(rel, exp, diag.exposure_prices)
    rng = np.random.default_rng(10)
    for _ in range(5):
        step = 0.05 * rng.standard_normal(rel.n)
        assert expo_fair_bound(rel, exp, diag.exposure_prices + step) > best


def test_importing_the_cli_leaves_scipy_unloaded():
    code = ("import sys, nswrank.cli; "
            "print(sorted(k for k in ('scipy.optimize', 'scipy.sparse') "
            "if k in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_highs_core_is_unavailable_without_scipy(monkeypatch):
    # with no scipy to find, the binding is unavailable
    monkeypatch.delitem(sys.modules, solvers._HIGHS_CORE, raising=False)
    monkeypatch.setitem(sys.modules, "scipy", None)
    assert solvers._highs_core() is None


def test_expo_fair_without_the_highs_binding_is_a_solver_error(
        tmp_path, toy_market, monkeypatch, capsys):
    # the master has no other LP path: a blocked binding fails the solve and
    # the command (exit 8) before any file is written
    from nswrank import io as nio
    from nswrank.cli import main

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    rel, exp = toy_market
    with pytest.raises(SolverError, match=r"scipy\.optimize\._highspy\._core"):
        solve_expo_fair(rel, exp)
    csv, out = tmp_path / "rel.csv", tmp_path / "policy.json"
    nio.save_relevance(rel, str(csv))
    rc = main(["solve", "--policy", "expo-fair", "--relevance", str(csv),
               "--exposure", "inverse", "--cutoff", "1", "--out", str(out)])
    assert rc == 8
    assert "scipy.optimize._highspy._core" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scipy_first", [False, True],
                         ids=["highs-first", "scipy-optimize-first"])
def test_expo_fair_loads_highs_without_scipy_optimize(tmp_path, toy_market,
                                                      scipy_first):
    # `solve --policy expo-fair` loads scipy's HiGHS extension by itself.  In
    # either import order the process ends with one module object for it:
    # pybind11 cannot register its classes twice.
    from nswrank import io as nio

    rel, exp = toy_market
    csv, out = str(tmp_path / "rel.csv"), str(tmp_path / "policy.json")
    nio.save_relevance(rel, csv)
    code = "\n".join([
        "import json, sys",
        "import numpy as np",
        "import scipy.optimize" if scipy_first else "",
        "from nswrank import ExposureModel, RelevanceMatrix, cli, solvers",
        "name = 'scipy.optimize._highspy._core'",
        "before = sys.modules.get(name)",
        "print(cli.main(['solve', '--policy', 'expo-fair', '--relevance',",
        f"                {csv!r}, '--cutoff', '1', '--out', {out!r}]))",
        "core = sys.modules[name]",
        "print('scipy.optimize' in sys.modules, before is core)",
        "print(solvers._Master(np.ones(1)).highs is not None)",
        "from scipy.optimize import linprog",
        "print(linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]).fun,",
        "      sys.modules[name] is core)",
        f"with open({out!r}) as fh:",
        "    first = json.load(fh)['diagnostics']['objective']",
        "rel = RelevanceMatrix([[0.8, 0.3], [0.5, 0.4]])",
        "_, second = solvers.solve_expo_fair(rel, ExposureModel.make('inverse', 2, 1))",
        "print(second.objective_value == first)",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(scipy_first), str(scipy_first),
                                   "True", "1.0", "True", "True"]


class TestSolveNsw:
    def test_toy_plain(self, toy_market):
        rel, exp = toy_market
        policy, diag = solve_nsw(rel, exp)
        assert np.allclose(item_impact(policy, rel, exp), [0.8, 0.4], atol=1e-8)
        assert user_utility(policy, rel, exp) == pytest.approx(1.20, abs=1e-8)
        assert np.allclose(amortized_exposure(policy, exp), [1.0, 1.0], atol=1e-8)
        assert diag.duality_gap <= 1e-6 * abs(diag.objective_value) + 1e-12

    def test_toy_alpha_one(self, toy_market):
        # interior stationarity: 0.65/(0.8+0.5b) = 0.28/(0.4-0.4b) at b = 0.09
        rel, exp = toy_market
        policy, _ = solve_nsw(rel, exp, NswConfig(alpha=1.0))
        assert np.allclose(item_impact(policy, rel, exp), [0.845, 0.364], atol=1e-6)
        assert user_utility(policy, rel, exp) == pytest.approx(1.209, abs=1e-6)

    def test_toy_alpha_two(self, toy_market):
        # same stationarity with squared merit weights: b = 0.1812 / 0.436
        rel, exp = toy_market
        b = 0.1812 / 0.436
        policy, _ = solve_nsw(rel, exp, NswConfig(alpha=2.0))
        assert np.allclose(item_impact(policy, rel, exp),
                           [0.8 + 0.5 * b, 0.4 * (1 - b)], atol=1e-6)
        assert user_utility(policy, rel, exp) == pytest.approx(1.2 + 0.1 * b, abs=1e-6)

    def test_toy_utility_ordering(self, toy_market):
        rel, exp = toy_market
        u = {}
        u["nsw"] = user_utility(solve_nsw(rel, exp)[0], rel, exp)
        u["nsw1"] = user_utility(solve_nsw(rel, exp, NswConfig(alpha=1.0))[0], rel, exp)
        u["fair"] = user_utility(solve_expo_fair(rel, exp)[0], rel, exp)
        u["nsw2"] = user_utility(solve_nsw(rel, exp, NswConfig(alpha=2.0))[0], rel, exp)
        assert u["nsw"] < u["nsw1"] < u["fair"] < u["nsw2"]

    def test_exposure_only_equalizes_exposure(self):
        rng = np.random.default_rng(11)
        rel = RelevanceMatrix(rng.uniform(0.1, 1.0, (5, 4)))
        exp = ExposureModel.make("inverse", 4, 1)
        policy, _ = solve_nsw(rel, exp, vfn=XO)
        expo = amortized_exposure(policy, exp)
        assert expo.max() - expo.min() <= 1e-4

    def test_zero_merit_item_excluded(self):
        rel = RelevanceMatrix([[0.6, 0.0, 0.2], [0.4, 0.0, 0.5]])
        exp = ExposureModel.make("inverse", 3, 2)
        with pytest.warns(RuntimeWarning, match=r"\[1\]"):
            policy, diag = solve_nsw(rel, exp)
        assert_doubly_stochastic(policy)
        assert item_impact(policy, rel, exp)[1] == 0.0
        assert np.isfinite(diag.objective_value)

    def test_degenerate_market(self):
        rel = RelevanceMatrix(np.zeros((2, 2)))
        exp = ExposureModel.make("inverse", 2, 1)
        with pytest.raises(DegenerateMarketError):
            solve_nsw(rel, exp)

    def test_no_exposed_rank_is_degenerate(self):
        # K = 0: every impact is 0 under every policy, as with zero merit
        rel = RelevanceMatrix([[0.5, 0.2, 0.1], [0.3, 0.4, 0.6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateMarketError, match="examines no rank"):
                solve_nsw(rel, ExposureModel([0.0] * 3))

    @pytest.mark.parametrize("field, value", [
        ("alpha", -1.0), ("alpha", float("nan")), ("alpha", float("inf")),
        ("rel_gap_tol", 0.0), ("rel_gap_tol", float("nan")),
        ("rel_gap_tol", float("inf")), ("max_iters", 0)])
    def test_config_rejects_out_of_range_values(self, field, value):
        # a NaN or infinite alpha or tolerance would run every pass and write
        # a NaN or infinite objective, or stop after one pass
        with pytest.raises(ValueError, match=field):
            NswConfig(**{field: value})


class TestBruteForceOracle:
    def test_toy_nsw_objective(self, toy_market):
        rel, exp = toy_market
        val = brute_force_oracle(rel, exp, "nsw", grid_step=1e-3)
        assert val == pytest.approx(np.log(0.8) + np.log(0.4), abs=1e-3)

    def test_toy_utility(self, toy_market):
        rel, exp = toy_market
        assert brute_force_oracle(rel, exp, "utility", grid_step=1e-2) == pytest.approx(1.30)

    def test_symmetric_market_optimum_is_uniform(self):
        rel = RelevanceMatrix(np.full((2, 2), 0.5))
        exp = ExposureModel.make("inverse", 2, 1)
        val = brute_force_oracle(rel, exp, "nsw", grid_step=1e-2)
        assert val == pytest.approx(2 * np.log(0.25 / 0.5), abs=1e-9)

    def test_size_guard(self):
        rel = RelevanceMatrix(np.full((4, 2), 0.5))
        exp = ExposureModel.make("inverse", 2, 1)
        with pytest.raises(SizeError):
            brute_force_oracle(rel, exp, "nsw", grid_step=1e-3)

    def test_requires_single_slot(self):
        rel = RelevanceMatrix(np.full((2, 2), 0.5))
        exp = ExposureModel.make("inverse", 2, 2)
        with pytest.raises(SizeError):
            brute_force_oracle(rel, exp, "nsw")


class TestSolverInvariants:
    def test_outputs_doubly_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rel = random_market(rng)
            exp = ExposureModel.make("inverse", rel.n, min(3, rel.n))
            assert_doubly_stochastic(solve_uniform(rel.m, rel.n))
            assert_doubly_stochastic(solve_utility_max(rel, exp))
            assert_doubly_stochastic(solve_nsw(rel, exp)[0])
            assert_doubly_stochastic(solve_expo_fair(rel, exp)[0])

    def test_utility_max_dominates_other_solvers(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            rel = random_market(rng)
            exp = ExposureModel.make("inverse", rel.n, min(2, rel.n))
            top = user_utility(solve_utility_max(rel, exp), rel, exp)
            for policy in (solve_uniform(rel.m, rel.n), solve_nsw(rel, exp)[0],
                           solve_expo_fair(rel, exp)[0]):
                assert user_utility(policy, rel, exp) <= top + 1e-9

    def test_nsw_kkt_certificate(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            rel = random_market(rng)
            exp = ExposureModel.make("inverse", rel.n, min(3, rel.n))
            for alpha in (0.0, 1.0):
                cfg = NswConfig(alpha=alpha)
                _, diag = solve_nsw(rel, exp, cfg)
                assert diag.duality_gap >= 0.0
                assert diag.duality_gap <= cfg.rel_gap_tol * abs(diag.objective_value) + 1e-12

    @pytest.mark.parametrize("m,n,grid", [(2, 2, 1e-3), (3, 2, 1e-2), (2, 3, 1e-2)])
    def test_oracle_equivalence_on_tiny_instances(self, m, n, grid):
        rng = np.random.default_rng(100 * m + n)
        exp = ExposureModel.make("inverse", n, 1)
        for _ in range(3):
            rel = RelevanceMatrix(rng.uniform(0.1, 1.0, (m, n)))
            _, diag = solve_nsw(rel, exp)
            assert diag.objective_value >= brute_force_oracle(
                rel, exp, "nsw", grid_step=grid) - 2 * grid
            policy, _ = solve_expo_fair(rel, exp)
            assert user_utility(policy, rel, exp) >= brute_force_oracle(
                rel, exp, "expo_fair", grid_step=grid) - 2 * grid

    def test_expo_fair_exposure_only_equity(self, toy_market):
        # merit-proportional exposure makes exposure / merit a constant, the
        # zero point of merit-weighted envy under the exposure-only impact
        rel, exp = toy_market
        policy, _ = solve_expo_fair(rel, exp)
        ratios = amortized_exposure(policy, exp) / merit(rel)
        assert ratios.max() - ratios.min() <= 1e-6
