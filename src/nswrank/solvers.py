"""Policy solvers: utility-max, uniform, exposure-fair LP, NSW/alpha-NSW.

All solvers optimize over per-user doubly stochastic matrices and return a
validated :class:`~nswrank.core.PolicyTensor`.  A grid-enumeration oracle for
tiny instances is included so every solver can be checked against an
independent computation of the same objective.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    ExposureModel,
    ImpactFunction,
    PolicyTensor,
    RelevanceMatrix,
    exposure_profile,
    item_impact,
    merit,
)
from .errors import (
    DegenerateMarketError,
    DimensionError,
    InfeasibleError,
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
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.rel_gap_tol <= 0:
            raise ValueError("rel_gap_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class SolveDiagnostics:
    objective_value: float
    duality_gap: float | None = None
    iterations: int = 0
    constraint_residual: float | None = None


def _check_market(rel: RelevanceMatrix, exp: ExposureModel) -> None:
    if exp.n != rel.n:
        raise DimensionError(
            f"exposure weights have length {exp.n}, relevance has n={rel.n} items")


def solve_uniform(m: int, n: int) -> PolicyTensor:
    """Policy that samples every permutation uniformly: all marginals 1/n."""
    if m < 1 or n < 2:
        raise DimensionError(f"need m >= 1 and n >= 2, got m={m}, n={n}")
    return PolicyTensor(np.full((m, n, n), 1.0 / n))


def solve_utility_max(rel: RelevanceMatrix, exp: ExposureModel) -> PolicyTensor:
    """Deterministic sort-by-relevance policy, ties broken by item index."""
    _check_market(rel, exp)
    m, n = rel.m, rel.n
    mats = np.zeros((m, n, n))
    order = np.argsort(-rel.values, axis=1, kind="stable")
    rows = np.arange(m)[:, None]
    cols = np.arange(n)[None, :]
    mats[rows, order, cols] = 1.0
    return PolicyTensor(mats)


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
    # majorized by e.
    t_sorted = np.sort(targets)[::-1]
    e_sorted = np.sort(e)[::-1]
    if t_sorted[0] > m * e_sorted[0] + 1e-9:
        raise InfeasibleError(
            f"required exposure {t_sorted[0]:.6g} exceeds the maximum "
            f"{m * e_sorted[0]:.6g} any single item can receive")
    slack = m * np.cumsum(e_sorted) - np.cumsum(t_sorted)
    if np.any(slack < -1e-9):
        j = int(np.nonzero(slack < -1e-9)[0][0]) + 1
        raise InfeasibleError(
            f"exposure targets are not majorized by the exposure weights: the "
            f"top {j} items require {np.cumsum(t_sorted)[j - 1]:.6g} but at most "
            f"{m * np.cumsum(e_sorted)[j - 1]:.6g} is available")


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    Loading scipy.optimize takes longer than every other import of the CLI
    together, so only the exposure-fair solve pays for it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _expo_fair_constraints(m: int, n: int, nc: int, e_top: np.ndarray,
                           targets: np.ndarray):
    """Equality constraints (CSR matrix, right-hand side) of the
    exposure-fair LP over variables x[u, i, k] at flat index (u*n + i)*nc + k,
    where the K = len(e_top) explicit ranks come first and, when K < n, the
    last rank class pools the n - K unexposed ranks."""
    import scipy.sparse as sp

    K = e_top.size
    rank_class_sizes = np.where(np.arange(nc) < K, 1.0, float(n - K))
    e_pad = np.zeros((1, nc))  # no exposure in the pool column
    e_pad[0, :K] = e_top
    a_eq = sp.vstack([
        # each item takes exactly one rank class per user
        sp.kron(sp.identity(m * n), np.ones((1, nc))),
        # each explicit rank holds one item, and the pool holds n - K
        sp.kron(sp.kron(sp.identity(m), np.ones((1, n))), sp.identity(nc)),
        # amortized exposure meets every item's target
        sp.kron(sp.kron(np.ones((1, m)), sp.identity(n)), e_pad),
    ], format="csr")
    a_eq.eliminate_zeros()  # kron stores the pool column's zero weights
    rhs = np.concatenate([np.ones(m * n), np.tile(rank_class_sizes, m), targets])
    return a_eq, rhs


def solve_expo_fair(rel: RelevanceMatrix, exp: ExposureModel,
                    ) -> tuple[PolicyTensor, SolveDiagnostics]:
    """Utility-maximizing policy subject to exposure proportional to merit.

    Positions beyond the cutoff carry zero exposure, so they are pooled into a
    single LP column class and spread back uniformly afterwards; the returned
    tensor is always full n x n.  Raises InfeasibleError when the targets
    cannot be met and SolverError when HiGHS stops for any other reason.
    """
    _check_market(rel, exp)
    m, n = rel.m, rel.n
    e = exp.weights
    targets = exposure_targets(rel, exp)
    _check_targets_feasible(targets, m, e)

    K = int(np.count_nonzero(e > 0.0))
    pooled = K < n
    nc = K + 1 if pooled else n  # rank classes per user

    cost = np.zeros((m, n, nc))
    cost[:, :, :K] = -rel.values[:, :, None] * e[:K]

    a_eq, rhs = _expo_fair_constraints(m, n, nc, e[:K], targets)
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=rhs, bounds=(0.0, 1.0),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        raise InfeasibleError("exposure-fair program reported infeasible")
    if not res.success:
        raise SolverError(f"LP solver failed: {res.message}")

    x = res.x.reshape(m, n, nc)
    mats = np.zeros((m, n, n))
    mats[:, :, :K] = x[:, :, :K]
    if pooled:
        mats[:, :, K:] = x[:, :, K][:, :, None] / (n - K)
    policy = PolicyTensor(mats)

    prof = exposure_profile(policy, exp)
    ratios = prof.sum(axis=0) / merit(rel)
    diag = SolveDiagnostics(
        objective_value=float(np.sum(rel.values * prof)),
        iterations=int(getattr(res, "nit", 0)),
        constraint_residual=float(ratios.max() - ratios.min()),
    )
    return policy, diag


def solve_nsw(rel: RelevanceMatrix, exp: ExposureModel,
              cfg: NswConfig = NswConfig(),
              vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED,
              ) -> tuple[PolicyTensor, SolveDiagnostics]:
    """Maximize sum_i merit_i^alpha * log(impact_i) by pairwise Frank-Wolfe.

    The gradient is separable per user as e(k) * coefficient(u, i), so the
    linear oracle is a sort of items against exposure weights; the step size
    comes from a safeguarded Newton search on the 1-D concave restriction.
    Hitting max_iters is not an error: the policy is returned with its final
    duality gap in the diagnostics.
    """
    _check_market(rel, exp)
    mer = merit(rel)
    if not np.any(mer > 0):
        raise DegenerateMarketError("every item has zero merit")
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

    V = vfn.user_weights(rel)
    X, iters, _, _ = _kernels.fw_solve(
        V, exp.weights, w, active, cfg.rel_gap_tol, cfg.max_iters)
    policy = PolicyTensor(X)

    # Recompute objective and FW gap from the validated policy so the
    # diagnostics certify the object actually returned.
    imp = item_impact(policy, rel, exp, vfn)
    objective = float(np.sum(w[active] * np.log(imp[active])))
    coef = np.zeros_like(V)
    coef[:, active] = V[:, active] * (w[active] / imp[active])
    K = int(np.count_nonzero(exp.weights > 0.0))
    top = -np.sort(-coef, axis=1)[:, :K]
    oracle_value = float(np.sum(top * exp.weights[:K]))
    gap = oracle_value - float(np.sum(w[active]))
    diag = SolveDiagnostics(objective_value=objective, duality_gap=gap,
                            iterations=iters)
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
        raise ValueError(f"unknown oracle objective {objective!r}")
    m, n = rel.m, rel.n
    K = int(np.count_nonzero(exp.weights > 0.0))
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
