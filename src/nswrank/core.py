"""Domain types and measurement primitives for stochastic ranking policies.

A market has m users and n items.  A stochastic ranking policy is one n x n
doubly stochastic matrix per user whose (i, k) entry is the marginal
probability that item i occupies rank k for that user; it is measured as
given, never renormalized.  Positions are examined with probability e(k), so
everything a policy does to utility, exposure and impact factors through the
per-user expected exposure of each item, ``sum_k e(k) * X[u, i, k]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, NotDoublyStochastic

# Tolerance accepted on row/column sums of policy matrices.  A policy within
# it is measured as given; entries are only clipped into [0, 1].
DS_TOL = 1e-6

_EXPOSURE_KINDS = ("inverse", "exponential", "dcg", "custom")


@dataclass(frozen=True)
class RelevanceMatrix:
    """m x n grid of nonnegative relevance scores r(u, i)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2:
            raise DimensionError(f"relevance must be 2-D, got shape {vals.shape}")
        m, n = vals.shape
        if m < 1 or n < 2:
            raise DimensionError(f"need m >= 1 users and n >= 2 items, got {m} x {n}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("relevance entries must be finite")
        if np.any(vals < 0):
            raise ValueError("relevance entries must be nonnegative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def merit(rel: RelevanceMatrix) -> np.ndarray:
    """Per-item relevance amortized over all users (column sums)."""
    return rel.values.sum(axis=0)


@dataclass(frozen=True)
class ExposureModel:
    """Position -> examination-probability map with cutoff K.

    Weights are nonincreasing, lie in [0, 1] and vanish beyond the cutoff,
    which is what lets utility maximization reduce to a per-user sort.
    """

    kind: str
    cutoff: int
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in _EXPOSURE_KINDS:
            raise ValueError(f"unknown exposure kind {self.kind!r}")
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if w.ndim != 1 or w.size < 2:
            raise DimensionError("exposure weights must be a vector of length n >= 2")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("exposure weights must lie in [0, 1]")
        if np.any(np.diff(w) > 0):
            raise ValueError("exposure weights must be nonincreasing in rank")
        if np.any(w[min(self.cutoff, w.size):] != 0):
            raise ValueError("exposure weights beyond the cutoff must be zero")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def make(cls, kind: str, n: int, cutoff: int) -> "ExposureModel":
        """Build one of the named examination functions over n positions."""
        if kind == "custom":
            raise ValueError("use ExposureModel.custom for explicit weights")
        k = np.arange(1, n + 1, dtype=np.float64)
        if kind == "inverse":
            w = 1.0 / k
        elif kind == "exponential":
            w = np.exp(-(k - 1.0))
        elif kind == "dcg":
            w = 1.0 / np.log2(k + 1.0)
        else:
            raise ValueError(f"unknown exposure kind {kind!r}")
        w[cutoff:] = 0.0
        return cls(kind=kind, cutoff=cutoff, weights=w)

    @classmethod
    def custom(cls, weights, cutoff: int | None = None) -> "ExposureModel":
        w = np.asarray(weights, dtype=np.float64)
        if cutoff is None:
            nz = np.nonzero(w)[0]
            cutoff = int(nz[-1]) + 1 if nz.size else 1
        return cls(kind="custom", cutoff=cutoff, weights=w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total_exposure(self) -> float:
        """Total examination probability available per user, sum_k e(k)."""
        return float(self.weights.sum())


class ImpactFunction(Enum):
    """How much value an item derives from being examined.

    ``relevance_weighted`` counts expected relevant views, e(k) * r(u, i);
    ``exposure_only`` counts raw examination probability, e(k).
    """

    RELEVANCE_WEIGHTED = "relevance_weighted"
    EXPOSURE_ONLY = "exposure_only"

    def user_weights(self, rel: RelevanceMatrix) -> np.ndarray:
        """Per-(user, item) multiplier applied to exposure to obtain impact."""
        if self is ImpactFunction.RELEVANCE_WEIGHTED:
            return rel.values
        return np.ones_like(rel.values)


def renormalize_doubly_stochastic(mats: np.ndarray, max_sweeps: int = 100,
                                  resid_tol: float = 1e-13) -> np.ndarray:
    """Alternate row/column rescaling until every sum is 1 to within resid_tol."""
    out = np.clip(np.asarray(mats, dtype=np.float64), 0.0, None).copy()
    for _ in range(max_sweeps):
        out /= out.sum(axis=2, keepdims=True)
        out /= out.sum(axis=1, keepdims=True)
        resid = max(
            np.abs(out.sum(axis=2) - 1.0).max(),
            np.abs(out.sum(axis=1) - 1.0).max(),
        )
        if resid <= resid_tol:
            break
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class PolicyTensor:
    """Per-user n x n marginal rank-probability matrices, entry (i, k).

    Construction checks each matrix against DS_TOL and keeps a read-only
    copy clipped into [0, 1], so every measurement sees the policy as given.
    """

    matrices: np.ndarray

    def __post_init__(self):
        mats = np.ascontiguousarray(np.asarray(self.matrices, dtype=np.float64))
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionError(f"policy must have shape (m, n, n), got {mats.shape}")
        m, n, _ = mats.shape
        if m < 1 or n < 2:
            raise DimensionError(f"need m >= 1 and n >= 2, got m={m}, n={n}")
        if not np.all(np.isfinite(mats)):
            raise NotDoublyStochastic("policy entries must be finite")
        if mats.min() < -DS_TOL or mats.max() > 1.0 + DS_TOL:
            raise NotDoublyStochastic(
                f"policy entries outside [-{DS_TOL}, 1+{DS_TOL}]:"
                f" min={mats.min()}, max={mats.max()}")
        row_err = np.abs(mats.sum(axis=2) - 1.0).max()
        col_err = np.abs(mats.sum(axis=1) - 1.0).max()
        if max(row_err, col_err) > DS_TOL:
            raise NotDoublyStochastic(
                f"row/column sums deviate from 1 by {max(row_err, col_err):.3e}"
                f" (tolerance {DS_TOL})")
        mats = np.clip(mats, 0.0, 1.0)  # a copy: the caller's array is untouched
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)

    @property
    def m(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]


def _check_dims(policy: PolicyTensor, exp: ExposureModel,
                rel: RelevanceMatrix | None = None) -> None:
    if rel is not None and (rel.m, rel.n) != (policy.m, policy.n):
        raise DimensionError(
            f"relevance is {rel.m} x {rel.n}, policy is {policy.m} x {policy.n}")
    if exp.n != policy.n:
        raise DimensionError(
            f"exposure weights have length {exp.n}, policy has n={policy.n} items")


def exposure_profile(policy: PolicyTensor, exp: ExposureModel) -> np.ndarray:
    """(m, n) matrix of expected exposure per (user, item), sum_k e(k) X[u,i,k]."""
    _check_dims(policy, exp)
    return policy.matrices @ exp.weights


def user_utility(policy: PolicyTensor, rel: RelevanceMatrix,
                 exp: ExposureModel) -> float:
    """Total expected relevance examined across all users."""
    _check_dims(policy, exp, rel)
    return float(np.sum(rel.values * exposure_profile(policy, exp)))


def item_impact(policy: PolicyTensor, rel: RelevanceMatrix, exp: ExposureModel,
                vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED) -> np.ndarray:
    """Impact each item receives from its own position allocation."""
    _check_dims(policy, exp, rel)
    prof = exposure_profile(policy, exp)
    return np.einsum("ui,ui->i", vfn.user_weights(rel), prof)


def amortized_exposure(policy: PolicyTensor, exp: ExposureModel) -> np.ndarray:
    """Total exposure allocated to each item, summed over users."""
    return exposure_profile(policy, exp).sum(axis=0)
