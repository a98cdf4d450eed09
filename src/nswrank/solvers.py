"""Policy solvers: utility-max, uniform, exposure-fair, NSW/alpha-NSW.

All solvers optimize over per-user doubly stochastic matrices and return the
mixture of rankings they build, as a validated
:class:`~nswrank.core.RankingMixture`: one full ranking per user for
utility-max, one empty prefix for uniform, the master's top-K prefixes for
exposure-fair and Frank-Wolfe's uniform start plus its vertices' top-K
prefixes for NSW.  Past the cutoff K exposure is zero, so a top-K prefix
loses nothing; utility-max keeps full rankings so that its policy stays
deterministic, past the cutoff too.  The
exposure-fair LP is solved by column generation over top-K prefixes, and NSW
by pairwise Frank-Wolfe; both report a duality gap computed from the
returned policy with the same sort oracle
(:func:`nswrank._kernels.sort_oracle`).  A
grid-enumeration oracle for tiny instances is included so every solver can
be checked against an independent computation of the same objective.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import os
import sys
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import _kernels
from .core import (
    ExposureModel,
    ImpactFunction,
    RankingMixture,
    RelevanceMatrix,
    exposure_profile,
    merit,
)
from .errors import (
    DegenerateMarketError,
    DimensionError,
    InfeasibleError,
    InputError,
    SizeError,
    SolverError,
    ZeroMeritError,
)


@dataclass(frozen=True)
class NswConfig:
    """Knobs for the Frank-Wolfe NSW solver.

    alpha is the merit weight exponent (0 gives the plain NSW objective).
    """

    alpha: float = 0.0
    max_iters: int = 10000
    rel_gap_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.alpha < np.inf:  # also false for NaN
            raise InputError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 < self.rel_gap_tol < np.inf:
            raise InputError("rel_gap_tol must be finite and > 0, "
                             f"got {self.rel_gap_tol}")
        if self.max_iters < 1:
            raise InputError("max_iters must be positive")


@dataclass(frozen=True)
class SolveDiagnostics:
    """What a solve reports about the policy it returns.

    iterations counts Frank-Wolfe passes for NSW and pricing rounds for the
    exposure-fair solve (its seed steps do not count), whose exposure_prices
    are the item prices λ of its duality-gap certificate (see
    ``expo_fair_bound``).  converged is False only for an NSW solve whose
    gap misses ``rel_gap_tol`` after max_iters passes.
    """

    objective_value: float
    duality_gap: float | None = None
    iterations: int = 0
    constraint_residual: float | None = None
    exposure_prices: np.ndarray | None = None
    converged: bool = True


def _check_market(rel: RelevanceMatrix, exp: ExposureModel) -> None:
    if exp.n != rel.n:
        raise DimensionError(
            f"exposure weights have length {exp.n}, relevance has n={rel.n} items")


def solve_uniform(m: int, n: int) -> RankingMixture:
    """Policy that samples every permutation uniformly: all marginals 1/n,
    one empty prefix per user."""
    if m < 1 or n < 2:
        raise DimensionError(f"need m >= 1 and n >= 2, got m={m}, n={n}")
    return RankingMixture.from_counts(n, np.ones(m, np.int64), np.ones(m),
                                      np.zeros(m, np.int64), np.zeros(0, np.int64))


def solve_utility_max(rel: RelevanceMatrix, exp: ExposureModel) -> RankingMixture:
    """Deterministic sort-by-relevance policy, ties broken by item index."""
    _check_market(rel, exp)
    m, n = rel.m, rel.n
    order = np.argsort(-rel.values, axis=1, kind="stable")
    return RankingMixture.from_counts(n, np.ones(m, np.int64), np.ones(m),
                                      np.full(m, n), order.ravel())


def exposure_targets(rel: RelevanceMatrix, exp: ExposureModel) -> np.ndarray:
    """Per-item exposure totals forced by the proportionality constraint."""
    mer = merit(rel)
    if np.any(mer <= 0):
        raise ZeroMeritError(
            "merit-proportional exposure needs positive merit for every item; "
            f"zero-merit items: {np.nonzero(mer <= 0)[0].tolist()}")
    return mer * (rel.m * exp.total_exposure / mer.sum())


def _check_targets_feasible(targets: np.ndarray, m: int, e: np.ndarray) -> None:
    # Totals of m doubly stochastic matrices can realize per-item exposures t
    # iff t/m lies in the convex hull of permutations of e, i.e. t/m is
    # majorized by e.  The cumulative sums grow to m·Σe, and the last slack,
    # 0 in exact arithmetic, carries their rounding: the tolerance scales
    # with them.
    tol = 1e-9 * m * float(np.sum(e))
    t_sorted = np.sort(targets)[::-1]
    e_sorted = np.sort(e)[::-1]
    if t_sorted[0] > m * e_sorted[0] + tol:
        raise InfeasibleError(
            f"required exposure {t_sorted[0]:.6g} exceeds the maximum "
            f"{m * e_sorted[0]:.6g} any single item can receive")
    slack = m * np.cumsum(e_sorted) - np.cumsum(t_sorted)
    if np.any(slack < -tol):
        j = int(np.nonzero(slack < -tol)[0][0]) + 1
        raise InfeasibleError(
            f"exposure targets are not majorized by the exposure weights: the "
            f"top {j} items require {np.cumsum(t_sorted)[j - 1]:.6g} but at most "
            f"{m * np.cumsum(e_sorted)[j - 1]:.6g} is available")


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    Loading scipy.optimize takes longer than every other import of the CLI
    together (about 0.7 s), so only the cold fallback of the exposure-fair
    solve pays for it: the solve calls this only when scipy's HiGHS binding
    cannot be loaded (see ``_highs_core``).
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# The master works on relevance divided by its maximum and exposure divided
# by e[0], so these constants do not depend on the market's scale.  The
# artificial columns' penalty is far above the exposure prices (at most 0.35
# at desk scale) and small enough that HiGHS stays accurate next to it (with
# a penalty of 1e6 HiGHS fails on the desk market).
_ARTIFICIAL_COST = 1e3
_ARTIFICIAL_TOL = 1e-9
# A column enters when its reduced cost exceeds this share of the largest
# convexity dual.
_PRICING_TOL = 1e-12
# The seed: _SEED_STEPS subgradient steps on the Lagrangian dual from λ = 0,
# step k moving λ by _SEED_STEP/√(k+1) root-mean-square over the items; the
# prefixes of the last _SEED_ITERATES iterates enter the first master.
_SEED_STEPS = 30
_SEED_STEP = 0.03
_SEED_ITERATES = 5
_MASTER_TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
                      "dual_feasibility_tolerance": 1e-10}


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's bundled HiGHS binding, loaded without scipy.optimize, or None
    when it cannot be loaded.

    Importing it by name runs scipy.optimize's ``__init__`` first (about
    0.7 s), and even the scipy package's ``__init__`` takes about 18 ms;
    loading the extension from its file takes about 10 ms.  scipy is located
    with ``find_spec``, which runs none of its code.  The module is
    registered under its own name before it runs, so a later
    ``import scipy.optimize`` reuses it: pybind11 cannot register its
    classes twice in one process.  An entry already in ``sys.modules`` is
    reused, and a ``None`` entry (an import blocked on purpose) or a missing
    scipy means the binding is unavailable.
    """
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    where = [os.path.join(path, "optimize", "_highspy")
             for path in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_CORE, where)
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_CORE] = module
        spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(_HIGHS_CORE, None)
        return None
    return module


class _Master:
    """Restricted master LP: minimize cost @ x subject to A x = rhs and
    x >= 0, where A only ever gains columns.

    It lives in one HiGHS instance of scipy's bundled binding, so each solve
    restarts from the previous basis; loading that binding takes the
    extension alone (``_highs_core``), not scipy or scipy.optimize.
    The binding is private to scipy; when it cannot be loaded, each solve is
    a cold ``linprog`` call over every column so far, which imports
    scipy.optimize and reaches the same optimum more slowly.
    """

    def __init__(self, rhs: np.ndarray):
        self.rhs = rhs
        self.columns = []   # the CSC pieces, kept for the cold solves only
        core = _highs_core()
        if core is None:
            self.highs = None
            return
        self.optimal = core.HighsModelStatus.kOptimal
        self.highs = core._Highs()
        self.highs.setOptionValue("output_flag", False)
        for key, value in _MASTER_TOLERANCES.items():
            self.highs.setOptionValue(key, value)
        # new columns leave the last basis primal feasible, so primal
        # simplex goes on from it (0.15 s against 0.27 s for the default
        # dual simplex at desk scale)
        self.highs.setOptionValue("simplex_strategy", 4)
        empty = np.zeros(0, dtype=np.int32)
        self.highs.addRows(rhs.size, rhs, rhs, 0, empty, empty, np.zeros(0))

    def add(self, cost, counts, index, value) -> None:
        """Append columns given in CSC pieces: column j has counts[j] entries."""
        if self.highs is None:
            self.columns.append((cost, counts, index, value))
            return
        k = cost.size
        starts = np.concatenate([[0], np.cumsum(counts[:-1])])
        self.highs.addCols(k, cost, np.zeros(k), np.full(k, np.inf),
                           index.size, starts.astype(np.int32),
                           index.astype(np.int32), value)

    def solve(self):
        """One solve: ``success`` and ``message``, and on success the
        primal ``x`` and the row ``duals`` (d objective / d rhs)."""
        if self.highs is not None:
            self.highs.run()
            status = self.highs.getModelStatus()
            if status != self.optimal:
                return SimpleNamespace(
                    success=False,
                    message=self.highs.modelStatusToString(status))
            sol = self.highs.getSolution()
            return SimpleNamespace(success=True, message="",
                                   x=np.asarray(sol.col_value),
                                   duals=np.asarray(sol.row_dual))
        import scipy.sparse as sp

        cost, counts, index, value = map(np.concatenate, zip(*self.columns))
        a_eq = sp.csc_matrix(
            (value, index, np.concatenate([[0], np.cumsum(counts)])),
            shape=(self.rhs.size, counts.size))
        res = linprog(cost, A_eq=a_eq, b_eq=self.rhs,
                      bounds=(0.0, None), method="highs-ds",
                      options=_MASTER_TOLERANCES)
        if not res.success:
            return SimpleNamespace(success=False, message=res.message)
        return SimpleNamespace(success=True, message=res.message, x=res.x,
                               duals=res.eqlin.marginals)


def solve_expo_fair(rel: RelevanceMatrix, exp: ExposureModel,
                    ) -> tuple[RankingMixture, SolveDiagnostics]:
    """Utility-maximizing policy subject to exposure proportional to merit.

    Column generation (Dantzig-Wolfe) over the LP of Singh & Joachims: the
    master mixes, per user, top-K prefixes under m convexity rows and the
    items' exposure-target rows; pricing sorts each user's relevance minus
    the target rows' duals against e.  The first master holds each user's
    utility-max prefix and the prefixes of the last few iterates of a short
    subgradient descent on the Lagrangian dual (the seed), so the first duals
    start near the optimal prices; the seed only adds columns, so it cannot
    change the LP's optimum.  The policy is the master's columns of
    positive weight, each a top-K prefix whose other items share the ranks
    beyond the cutoff uniformly (those carry no exposure).  The diagnostics
    carry the number of pricing rounds (the seed's steps do not count), the
    exposure prices and the Lagrangian duality gap of the returned policy.
    Raises InfeasibleError when the targets cannot be met, and SolverError
    when HiGHS stops for any other reason, artificial mass is left on a
    target or the objective or gap leaves the float range.
    """
    _check_market(rel, exp)
    m, n = rel.m, rel.n
    e = exp.weights
    targets = exposure_targets(rel, exp)
    _check_targets_feasible(targets, m, e)
    K = exp.K

    scale = float(rel.values.max())   # positive: every merit is
    r = rel.values / scale
    e_top = e[0] if K else 1.0        # K = 0: nothing exposed, all targets 0
    eK = e[:K] / e_top
    # Every prefix carries the same total exposure, so the convexity rows
    # imply the sum of the target rows; the last target row is left out and
    # its item's price is 0.
    nt = n - 1
    t = targets / e_top
    master = _Master(np.concatenate([np.ones(m), t[:nt]]))
    # a +1 and a -1 artificial column per target row make the master
    # feasible from the first round
    master.add(np.full(2 * nt, _ARTIFICIAL_COST), np.ones(2 * nt, np.int64),
               np.repeat(m + np.arange(nt), 2), np.tile([1.0, -1.0], nt))

    col_users, col_prefixes, seen = [], [], set()

    def add_columns(users, prefixes) -> int:
        """Add the columns not in the master yet; return how many."""
        keys = list(zip(users.tolist(), map(bytes, prefixes)))
        new = [j for j, key in enumerate(keys) if key not in seen]
        if not new:
            return 0
        seen.update(keys[j] for j in new)
        users, prefixes = users[new], prefixes[new]
        index = np.concatenate([users[:, None], m + prefixes], axis=1)
        value = np.broadcast_to(np.concatenate([[1.0], eK]), index.shape)
        kept = index < m + nt
        cost = -(np.take_along_axis(r[users], prefixes, axis=1) @ eK)
        master.add(cost, kept.sum(axis=1), index[kept], value[kept])
        col_users.append(users)
        col_prefixes.append(prefixes)
        return len(new)

    # The seed: normalized subgradient steps on L from λ = 0, whose first
    # prefixes are the utility-max ones.  The last item's price stays 0.
    everyone = np.arange(m)
    lam = np.zeros(n)
    prefixes, exposure, _ = _lagrangian(r, eK, t, lam)
    add_columns(everyone, prefixes)
    for k in range(_SEED_STEPS):
        g = t - exposure
        g[-1] = 0.0
        norm = float(np.linalg.norm(g))
        if norm == 0.0:   # λ clears the market
            break
        lam = lam - (_SEED_STEP * np.sqrt(n / (k + 1)) / norm) * g
        prefixes, exposure, _ = _lagrangian(r, eK, t, lam)
        if k >= _SEED_STEPS - _SEED_ITERATES:
            add_columns(everyone, prefixes)

    rounds = 0
    while True:
        res = master.solve()
        rounds += 1
        if not res.success:
            raise SolverError(f"LP solver failed: {res.message}")
        mu = -res.duals[:m]
        prices = np.append(-res.duals[m:], 0.0)
        prefixes, top = _kernels.sort_oracle(r - prices, K)
        reduced = top @ eK - mu
        tol = _PRICING_TOL * float(np.abs(mu).max())
        # a column already in the master can price above tol within HiGHS's
        # own dual tolerance; adding it again would repeat the round forever
        users = np.flatnonzero(reduced > tol)
        if not add_columns(users, prefixes[users]):
            break

    artificial = float(res.x[:2 * nt].max())
    if artificial > _ARTIFICIAL_TOL:
        raise SolverError(
            f"column generation ended with artificial mass {artificial:.3g} "
            "on an exposure target")

    theta = res.x[2 * nt:]
    used = theta > 0.0
    users = np.concatenate(col_users)[used]
    # each user's columns in the order they entered the master
    order = np.argsort(users, kind="stable")
    policy = RankingMixture.from_counts(
        n, np.bincount(users, minlength=m), theta[used][order],
        np.full(order.size, K), np.concatenate(col_prefixes)[used][order].ravel())

    prices *= scale
    prof = exposure_profile(policy, exp)
    objective = float(np.sum(rel.values * prof))
    ratios = prof.sum(axis=0) / merit(rel)
    gap = expo_fair_bound(rel, exp, prices) - objective
    if not np.isfinite([objective, gap]).all():
        raise SolverError("the exposure-fair certificate left the float "
                          f"range: objective {objective}, gap {gap}")
    diag = SolveDiagnostics(
        objective_value=objective,
        # a duality gap is nonnegative; the difference can round below 0
        # when the bound is tight, as the NSW certificate's does
        duality_gap=max(gap, 0.0),
        iterations=rounds,
        constraint_residual=float(ratios.max() - ratios.min()),
        exposure_prices=prices,
    )
    return policy, diag


def expo_fair_bound(rel: RelevanceMatrix, exp: ExposureModel,
                    prices: np.ndarray) -> float:
    """Lagrangian upper bound on the exposure-fair utility at item exposure
    prices λ: ``sum_u max_prefix sum_k e_k (r_u - λ)_{prefix_k} + λ·t``.

    Every λ gives a bound; the solver's prices give the optimum up to its
    tolerances.
    """
    return _lagrangian(rel.values, exp.weights[:exp.K],
                       exposure_targets(rel, exp), prices)[2]


def _lagrangian(r: np.ndarray, eK: np.ndarray, targets: np.ndarray,
                prices: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The Lagrangian dual at item prices λ: every user's best top-K prefix
    against ``r - λ``, the exposure those prefixes give each item, and
    ``L(λ) = sum_u max_prefix sum_k eK_k (r_u - λ)_{prefix_k} + λ·t``.

    ``targets - exposure`` is a subgradient of L at λ.
    """
    m, n = r.shape
    prefixes, top = _kernels.sort_oracle(r - prices, eK.size)
    exposure = np.bincount(prefixes.ravel(), np.tile(eK, m), n)
    return prefixes, exposure, float(np.sum(top @ eK) + prices @ targets)


def solve_nsw(rel: RelevanceMatrix, exp: ExposureModel,
              cfg: NswConfig = NswConfig(),
              vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED,
              ) -> tuple[RankingMixture, SolveDiagnostics]:
    """Maximize sum_i merit_i^alpha * log(impact_i) by pairwise Frank-Wolfe.

    The gradient is separable per user as e(k) * coefficient(u, i), so the
    linear oracle is a sort of items against exposure weights; the step size
    comes from a safeguarded Newton search on the 1-D concave restriction.
    Hitting max_iters is not an error: the policy is returned with its final
    duality gap in the diagnostics.  A pass whose objective or gradient
    leaves the float range raises SolverError.
    """
    _check_market(rel, exp)
    mer = merit(rel)
    if not np.any(mer > 0):
        raise DegenerateMarketError("every item has zero merit")
    if exp.K == 0:
        raise DegenerateMarketError("the exposure model examines no rank")
    w = np.power(mer, cfg.alpha)
    if vfn is ImpactFunction.RELEVANCE_WEIGHTED:
        active = mer > 0
    else:
        active = w > 0
    excluded = np.nonzero(~active)[0]
    if excluded.size:
        warnings.warn(
            f"items {excluded.tolist()} have zero merit and are excluded from "
            "the welfare objective", RuntimeWarning, stacklevel=2)

    # the gap and objective are the certificate of the returned policy
    policy, iters, gap, objective = _kernels.fw_solve(
        vfn.user_weights(rel), exp.weights, w, active, cfg.rel_gap_tol,
        cfg.max_iters)
    diag = SolveDiagnostics(
        objective_value=objective, duality_gap=gap, iterations=iters,
        converged=_kernels.meets_target(objective, gap, cfg.rel_gap_tol))
    return policy, diag


def _simplex_grid(n: int, steps: int) -> np.ndarray:
    """All length-n nonnegative integer compositions of ``steps``, as fractions."""
    combos = itertools.combinations(range(steps + n - 1), n - 1)
    pts = []
    for cut in combos:
        prev = -1
        row = []
        for c in cut:
            row.append(c - prev - 1)
            prev = c
        row.append(steps + n - 2 - prev)
        pts.append(row)
    return np.asarray(pts, dtype=np.float64) / steps


_ORACLE_MAX_COMBOS = 2 * 10**8


def brute_force_oracle(rel: RelevanceMatrix, exp: ExposureModel,
                       objective: str = "nsw", grid_step: float = 1e-3,
                       alpha: float = 0.0) -> float:
    """Exhaustive grid search over top-slot allocations on tiny K=1 instances.

    With a single exposed position each user's policy reduces to a point on
    the item simplex; the oracle scans the product of per-user simplex grids
    at resolution grid_step and returns the best objective found.  For the
    ``expo_fair`` objective only grid points whose amortized exposure is
    within ``0.5 * m * e(1) * grid_step`` of every target count as feasible.
    Independent of the solvers by construction.
    """
    _check_market(rel, exp)
    if objective not in ("nsw", "utility", "expo_fair"):
        raise InputError(f"unknown oracle objective {objective!r}")
    m, n = rel.m, rel.n
    K = exp.K
    if m > 3 or n > 3:
        raise SizeError(f"oracle handles m <= 3 and n <= 3, got {m} x {n}")
    if K != 1:
        raise SizeError(f"oracle requires a single exposed position, got K={K}")
    steps = int(round(1.0 / grid_step))
    grid = _simplex_grid(n, steps)
    p = grid.shape[0]
    if p ** m > _ORACLE_MAX_COMBOS:
        raise SizeError(
            f"{p}^{m} grid combinations exceed the enumerable bound")

    e1 = float(exp.weights[0])
    r = rel.values

    if objective == "expo_fair":
        targets = exposure_targets(rel, exp)
        expo_tol = 0.5 * m * e1 * grid_step

    active = merit(rel) > 0
    w = np.power(merit(rel), alpha)
    best = -np.inf
    # Enumerate the first m-1 users in chunks; vectorize over the last user.
    chunk_size = max(1, 2 * 10**6 // p)
    first = itertools.product(range(p), repeat=m - 1) if m > 1 else [()]
    for chunk in _chunked(first, chunk_size):
        idx = np.asarray(chunk, dtype=np.int64).reshape(len(chunk), m - 1)
        c = idx.shape[0]
        if objective == "utility":
            fixed_util = (grid[idx] * r[:-1][None, :, :]).sum(axis=(1, 2)) * e1 \
                if m > 1 else np.zeros(c)
            vals = fixed_util[:, None] + (grid @ r[-1])[None, :] * e1
        else:
            # per-item impact over all (chunk, last-user) combinations: (c, p, n)
            imp_fixed = (grid[idx] * r[:-1][None, :, :]).sum(axis=1) * e1 \
                if m > 1 else np.zeros((c, n))
            imp = imp_fixed[:, None, :] + (grid * r[-1][None, :])[None, :, :] * e1
            if objective == "nsw":
                ia = imp[:, :, active]
                with np.errstate(divide="ignore", invalid="ignore"):
                    vals = np.where(ia > 0, w[active] * np.log(ia), -np.inf).sum(axis=2)
            else:  # expo_fair
                fixed_expo = grid[idx].sum(axis=1) * e1 if m > 1 else np.zeros((c, n))
                expo = fixed_expo[:, None, :] + grid[None, :, :] * e1
                feasible = np.all(np.abs(expo - targets) <= expo_tol, axis=2)
                vals = np.where(feasible, imp.sum(axis=2), -np.inf)
        chunk_best = float(vals.max())
        if chunk_best > best:
            best = chunk_best
    return best


def _chunked(iterable, size):
    it = iter(iterable)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk
