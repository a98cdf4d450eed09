"""Fairness measurements for ranking policies.

Envy compares an item's impact under its own allocation against the impact it
would get under every other item's allocation; dominance compares per-item
impact against the uniform random policy.  Reports are always evaluated
against whichever relevance matrix the caller designates as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ExposureModel,
    ImpactFunction,
    PolicyTensor,
    RelevanceMatrix,
    exposure_profile,
    item_impact,
    merit,
    user_utility,
)
from .errors import DimensionError, ZeroMeritError
from .solvers import solve_uniform


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


def envy_matrix(policy: PolicyTensor, rel: RelevanceMatrix, exp: ExposureModel,
                vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED) -> np.ndarray:
    """n x n grid whose (i, j) entry is item i's impact under j's allocation."""
    if (rel.m, rel.n) != (policy.m, policy.n):
        raise DimensionError(
            f"relevance is {rel.m} x {rel.n}, policy is {policy.m} x {policy.n}")
    prof = exposure_profile(policy, exp)
    weights = vfn.user_weights(rel)
    # column-wise einsum keeps the diagonal bitwise equal to item_impact
    return np.stack([np.einsum("ui,u->i", weights, prof[:, j])
                     for j in range(policy.n)], axis=1)


def max_envy_per_item(em: np.ndarray) -> np.ndarray:
    """How much the best other allocation beats each item's own."""
    return np.clip(em.max(axis=1) - np.diagonal(em), 0.0, None)


def mean_max_envy(em: np.ndarray) -> float:
    """Average over items of how much the best other allocation beats their own."""
    return float(max_envy_per_item(em).mean())


def dominance_stats(policy: PolicyTensor, rel: RelevanceMatrix, exp: ExposureModel,
                    vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED,
                    ) -> tuple[float, float]:
    """Percentages of items whose impact moved >= 10% up / down vs uniform.

    Items with zero impact under the uniform baseline are excluded from both
    counts (the ratio is undefined there); the denominator stays n.
    """
    ratios, valid = _impact_ratios(policy, rel, exp, vfn)
    return _dominance_counts(ratios, valid)


def _dominance_counts(ratios, valid):
    n = ratios.size
    improved = 100.0 / n * int(np.count_nonzero(ratios[valid] >= 1.1))
    decreased = 100.0 / n * int(np.count_nonzero(ratios[valid] <= 0.9))
    return improved, decreased


def _impact_ratios(policy, rel, exp, vfn):
    imp = item_impact(policy, rel, exp, vfn)
    uniform = solve_uniform(policy.m, policy.n)
    imp_unif = item_impact(uniform, rel, exp, vfn)
    valid = imp_unif > 0
    ratios = np.full(policy.n, np.nan)
    ratios[valid] = imp[valid] / imp_unif[valid]
    return ratios, valid


def weighted_envy_matrix(policy: PolicyTensor, rel: RelevanceMatrix,
                         exp: ExposureModel, vfn: ImpactFunction,
                         alpha: float) -> np.ndarray:
    """Envy grid with each column j scaled by 1 / merit_j^alpha."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    mer = merit(rel)
    if alpha > 0 and np.any(mer <= 0):
        raise ZeroMeritError(
            f"zero-merit items {np.nonzero(mer <= 0)[0].tolist()} cannot be "
            "merit-weighted")
    return envy_matrix(policy, rel, exp, vfn) / np.power(mer, alpha)[None, :]


def fairness_report(policy: PolicyTensor, rel_true: RelevanceMatrix,
                    exp: ExposureModel,
                    vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED,
                    ) -> FairnessReport:
    """Evaluate a policy against ground-truth relevance."""
    em = envy_matrix(policy, rel_true, exp, vfn)
    ratios, valid = _impact_ratios(policy, rel_true, exp, vfn)
    improved, decreased = _dominance_counts(ratios, valid)
    envy = max_envy_per_item(em)
    return FairnessReport(
        mean_max_envy=float(envy.mean()),
        pct_improved_10=improved,
        pct_decreased_10=decreased,
        user_utility=user_utility(policy, rel_true, exp),
        per_item_impact=item_impact(policy, rel_true, exp, vfn),
        per_item_impact_ratio_vs_uniform=ratios,
        max_envy_per_item=envy,
        excluded_items=tuple(np.nonzero(~valid)[0].tolist()),
    )
