"""Fairness measurements for ranking policies.

Envy compares an item's impact under its own allocation against the impact it
would get under every other item's allocation; dominance compares per-item
impact against the uniform random policy, which gives every (user, item)
pair exposure sum_k e(k) / n.  Every measurement factors through the
policy's (m, n) exposure profile.  Reports are always evaluated against
whichever relevance matrix the caller designates as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ExposureModel,
    ImpactFunction,
    RankingMixture,
    RelevanceMatrix,
    _check_dims,
    exposure_profile,
    merit,
)
from .errors import InputError, ZeroMeritError


@dataclass(frozen=True)
class FairnessReport:
    mean_max_envy: float
    pct_improved_10: float
    pct_decreased_10: float
    user_utility: float
    per_item_impact: np.ndarray
    per_item_impact_ratio_vs_uniform: np.ndarray  # nan where uniform impact is 0
    max_envy_per_item: np.ndarray
    excluded_items: tuple


def _envy_grid(weights: np.ndarray, prof: np.ndarray) -> np.ndarray:
    # One einsum, not a GEMM: without optimize= it sums over users in order,
    # so the diagonal is item_impact bit for bit and identical columns give
    # identical entries (a uniform policy's envy is exactly 0).
    return np.einsum("ui,uj->ij", weights, prof)


def envy_matrix(policy: RankingMixture, rel: RelevanceMatrix, exp: ExposureModel,
                vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED) -> np.ndarray:
    """n x n grid whose (i, j) entry is item i's impact under j's allocation."""
    _check_dims(policy, exp, rel)
    return _envy_grid(vfn.user_weights(rel), exposure_profile(policy, exp))


def max_envy_per_item(em: np.ndarray) -> np.ndarray:
    """How much the best other allocation beats each item's own."""
    return np.clip(em.max(axis=1) - np.diagonal(em), 0.0, None)


def mean_max_envy(em: np.ndarray) -> float:
    """Average over items of how much the best other allocation beats their own."""
    return float(max_envy_per_item(em).mean())


def weighted_envy_matrix(policy: RankingMixture, rel: RelevanceMatrix,
                         exp: ExposureModel, vfn: ImpactFunction,
                         alpha: float) -> np.ndarray:
    """Envy grid with each column j scaled by 1 / merit_j^alpha."""
    if not 0.0 <= alpha < np.inf:  # also false for NaN
        raise InputError(f"alpha must be finite and >= 0, got {alpha}")
    mer = merit(rel)
    if alpha > 0 and np.any(mer <= 0):
        raise ZeroMeritError(
            f"zero-merit items {np.nonzero(mer <= 0)[0].tolist()} cannot be "
            "merit-weighted")
    return envy_matrix(policy, rel, exp, vfn) / np.power(mer, alpha)[None, :]


def fairness_report(policy: RankingMixture, rel_true: RelevanceMatrix,
                    exp: ExposureModel,
                    vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED,
                    ) -> FairnessReport:
    """Evaluate a policy against ground-truth relevance.

    Items with zero impact under the uniform baseline get a nan ratio and are
    excluded from both dominance counts; the percentages still divide by n.
    """
    _check_dims(policy, exp, rel_true)
    n = policy.n
    prof = exposure_profile(policy, exp)
    weights = vfn.user_weights(rel_true)
    grid = _envy_grid(weights, prof)
    envy = max_envy_per_item(grid)
    imp = np.diagonal(grid).copy()  # item_impact, bit for bit
    imp_unif = exp.total_exposure / n * weights.sum(axis=0)
    valid = imp_unif > 0
    ratios = np.full(n, np.nan)
    ratios[valid] = imp[valid] / imp_unif[valid]
    return FairnessReport(
        mean_max_envy=float(envy.mean()),
        pct_improved_10=100.0 / n * int(np.count_nonzero(ratios[valid] >= 1.1)),
        pct_decreased_10=100.0 / n * int(np.count_nonzero(ratios[valid] <= 0.9)),
        user_utility=float(np.sum(rel_true.values * prof)),
        per_item_impact=imp,
        per_item_impact_ratio_vs_uniform=ratios,
        max_envy_per_item=envy,
        excluded_items=tuple(np.nonzero(~valid)[0].tolist()),
    )
