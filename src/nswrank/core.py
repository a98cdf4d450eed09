"""Domain types and measurement primitives for stochastic ranking policies.

A market has m users and n items.  A stochastic ranking policy gives each
user an n x n doubly stochastic matrix whose (i, k) entry is the marginal
probability that item i occupies rank k for that user.  A ``RankingMixture``
holds it as, per user, a few weighted ranking prefixes whose left-out items
share the remaining ranks uniformly; its ``dense()`` gives the matrices.  It
is measured as given, never renormalized.  Positions are examined with
probability e(k), so everything a policy does to utility, exposure and
impact factors through the per-user expected exposure of each item,
``sum_k e(k) * X[u, i, k]`` (``RankingMixture.exposures``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, InputError, NotDoublyStochastic, SizeError

# Tolerance accepted on the sum of each mixture user's weights.  A policy
# within it is measured as given, never renormalized.
DS_TOL = 1e-6

# Tolerance on the sum of each decomposition user's weights: a decomposition
# is a mixture whose users' weights sum to 1 within it, and
# ``bvn_decompose`` keeps weights that do bit for bit.
DECOMPOSITION_TOL = 1e-9

# The named examination functions: e(k) of the 1-based rank k.
EXPOSURE_KINDS = {
    "inverse": lambda k: 1.0 / k,
    "exponential": lambda k: np.exp(-(k - 1.0)),
    "dcg": lambda k: 1.0 / np.log2(k + 1.0),
}

# The most entries of one user's n x n matrix that ``RankingMixture.dense``
# may build, of an audit's n x n envy grid, and of one m x n synthetic
# relevance matrix: 2 GiB of floats.
MAX_ENTRIES = 2**28

# The most that a market's relevance entries may sum to.  Every utility,
# impact, merit and envy entry is a sum of entries times weights of at most
# 1 + DS_TOL, so each stays finite in any summation order.
HALF_FLOAT_MAX = np.finfo(np.float64).max / 2


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
            raise InputError("relevance entries must be finite")
        if np.any(vals < 0):
            raise InputError("relevance entries must be nonnegative")
        with np.errstate(over="ignore"):
            if vals.sum() > HALF_FLOAT_MAX:
                raise InputError("relevance entries must sum to at most "
                                 f"{HALF_FLOAT_MAX:.3g}")
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
    """Examination probability e(k) of each rank k.

    Weights lie in [0, 1] and are nonincreasing, so the positive ones are a
    prefix, the top K ranks, and only those carry exposure: this is what
    lets utility maximization reduce to a per-user sort.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if w.ndim != 1 or w.size < 2:
            raise DimensionError("exposure weights must be a vector of length n >= 2")
        if not np.all((w >= 0) & (w <= 1)):  # also false for nan
            raise InputError("exposure weights must be finite and lie in [0, 1]")
        if np.any(np.diff(w) > 0):
            raise InputError("exposure weights must be nonincreasing in rank")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def make(cls, kind: str, n: int, cutoff: int) -> "ExposureModel":
        """One of the named examination functions over n ranks, zero past
        rank ``cutoff``."""
        if not isinstance(kind, str) or kind not in EXPOSURE_KINDS:
            raise InputError(f"unknown exposure kind {kind!r}")
        if cutoff < 1:
            raise InputError("cutoff must be >= 1")
        w = EXPOSURE_KINDS[kind](np.arange(1, n + 1, dtype=np.float64))
        w[cutoff:] = 0.0
        return cls(w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def K(self) -> int:
        """The number of exposed ranks, those of positive weight."""
        return int(np.count_nonzero(self.weights > 0.0))

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


# unused in the package: kept only because perfbench/tracer.py wraps it by name
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
class RankingMixture:
    """Per-user convex combinations of ranking prefixes, stored CSR-style.

    User u's terms are ``indptr[u]:indptr[u + 1]``.  Term t has weight
    ``weights[t]`` and a prefix of ``lengths[t] = L`` items, the next L
    entries of ``items``, which it places at ranks 0..L-1; the n - L items it
    leaves out share ranks L..n-1 uniformly.  L = n is one full ranking and
    L = 0 the uniform policy.

    Construction checks the mixture: integer index arrays of consistent
    sizes, prefixes of distinct items in 0..n-1, weights finite and
    nonnegative and each user's weights summing to 1 within DS_TOL.  It never
    renormalizes.  Like ``RelevanceMatrix`` and ``ExposureModel``, it keeps
    the int64 index arrays and float64 weights it is given, marked
    read-only, with no copy; a list, or an array of another dtype, is
    converted once.
    """

    n: int
    indptr: np.ndarray
    weights: np.ndarray
    lengths: np.ndarray
    items: np.ndarray

    def __post_init__(self):
        n = self.n
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise DimensionError(f"need n >= 2 items, got n={n!r}")
        indptr = _index_array(self.indptr, "indptr")
        lengths = _index_array(self.lengths, "lengths")
        items = _index_array(self.items, "items")
        weights = np.asarray(self.weights, dtype=np.float64)
        terms = weights.size
        if indptr.size < 2:
            raise DimensionError("need m >= 1 users")
        if (indptr[0] != 0 or indptr[-1] != terms or np.any(np.diff(indptr) < 0)
                or weights.ndim != 1 or lengths.shape != weights.shape):
            raise DimensionError(
                "indptr must rise from 0 to the number of terms, with one "
                "weight and one prefix length per term")
        if np.any(lengths < 0) or np.any(lengths > n) or lengths.sum() != items.size:
            raise DimensionError(
                f"prefix lengths must lie in 0..{n} and add up to the "
                f"{items.size} prefix items")
        if items.size and (items.min() < 0 or items.max() >= n):
            raise DimensionError(f"prefix items must lie in 0..{n - 1}")
        if _repeats_an_item(lengths, items):
            raise NotDoublyStochastic("a prefix lists an item twice")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise NotDoublyStochastic("mixture weights must be finite and nonnegative")
        m = indptr.size - 1
        err = np.abs(np.bincount(np.repeat(np.arange(m), np.diff(indptr)),
                                 weights=weights, minlength=m) - 1.0).max()
        if err > DS_TOL:
            raise NotDoublyStochastic(
                f"a user's weights sum to 1 +- {err:.3e} (tolerance {DS_TOL})")
        for name, value in (("indptr", indptr), ("weights", weights),
                            ("lengths", lengths), ("items", items)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", int(n))

    @classmethod
    def from_counts(cls, n: int, counts, weights, lengths, items) -> "RankingMixture":
        """A mixture whose user u has the next ``counts[u]`` terms."""
        indptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
        return cls(n=n, indptr=indptr, weights=weights, lengths=lengths,
                   items=items)

    @property
    def m(self) -> int:
        return self.indptr.size - 1

    def take(self, users) -> "RankingMixture":
        """The mixture of the given users alone, in ascending order, each
        with its terms in order.  It costs the span from the first user to
        the last, not the whole mixture: for consecutive users it keeps
        read-only views of this mixture's weights, lengths and items."""
        users = np.asarray(users)
        if users.size and users.dtype.kind not in "iu":  # bools and floats
            raise InputError(f"take needs integer users in 0..{self.m - 1}, "
                             f"not {users.dtype} ones")
        users = users.astype(np.int64, copy=False)
        if users.size == 0 or np.any(np.diff(users) <= 0):
            raise InputError("take needs at least one user, in ascending order")
        outside = (users < 0) | (users >= self.m)
        if outside.any():
            raise InputError(f"take needs ascending users in 0..{self.m - 1}, "
                             f"not user {users[outside.argmax()]}")
        first, stop = int(users[0]), int(users[-1]) + 1
        lo, hi = self.indptr[first], self.indptr[stop]
        kept = np.zeros(stop - first, dtype=bool)
        kept[users - first] = True
        counts = np.diff(self.indptr[first:stop + 1])
        weights, lengths = self.weights[lo:hi], self.lengths[lo:hi]
        start = int(self.lengths[:lo].sum())
        items = self.items[start:start + int(lengths.sum())]
        if not kept.all():
            terms = np.repeat(kept, counts)
            items = items[np.repeat(terms, lengths)]
            counts, weights, lengths = counts[kept], weights[terms], lengths[terms]
        return RankingMixture.from_counts(self.n, counts, weights, lengths, items)

    @property
    def terms(self) -> tuple:
        """Per user, its ``(weight, items_by_rank)`` pairs: ``items_by_rank[k]``
        is the item at rank k of the term's prefix."""
        prefixes = np.split(self.items, np.cumsum(self.lengths)[:-1])
        pairs = list(zip(self.weights.tolist(), prefixes))
        indptr = self.indptr.tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(indptr, indptr[1:]))

    def term_users(self) -> np.ndarray:
        """The user of each term."""
        return np.repeat(np.arange(self.m), np.diff(self.indptr))

    def exposures(self, e: np.ndarray) -> np.ndarray:
        """(m, n) expected exposure of each (user, item) under weights e.

        A term of length L gives each item it leaves out the mean of e[L:],
        times its weight.  Every item of the user gets that share in one
        broadcast, and the prefix entries, whose own exposure replaces it,
        carry the difference: one scatter-add over the prefix items.
        """
        n, lengths = self.n, self.lengths
        e = np.asarray(e, dtype=np.float64)
        suffix = np.append(np.cumsum(e[::-1])[::-1], 0.0)   # sum of e[L:]
        share = self.weights * suffix[lengths] / np.maximum(n - lengths, 1)
        users = self.term_users()
        term = np.repeat(np.arange(lengths.size), lengths)
        rank = _segments(np.zeros_like(lengths), lengths)
        # bincount of no items is int64: the uniform policy has no prefix
        E = np.bincount(users[term] * n + self.items,
                        weights=self.weights[term] * e[rank] - share[term],
                        minlength=self.m * n).astype(np.float64, copy=False)
        E = E.reshape(self.m, n)
        E += np.bincount(users, weights=share, minlength=self.m)[:, None]
        return E

    def dense(self) -> np.ndarray:
        """(m, n, n) marginal rank probabilities, by one scatter-add: each
        prefix item at its rank, then, term by term, each left-out item in
        ascending order at every rank of the tail with weight / (n - L).
        Entries are clipped at 1: weights that sum to 1 within DS_TOL can
        put a ranked item an ulp above it."""
        n, lengths, weights = self.n, self.lengths, self.weights
        tail = n - lengths
        head_term = np.repeat(np.arange(lengths.size), lengths)
        left_out = np.ones((lengths.size, n), dtype=bool)
        left_out[head_term, self.items] = False
        out_term, out_item = np.nonzero(left_out)
        width = tail[out_term]
        cell_term = np.repeat(out_term, width)
        term = np.concatenate([head_term, cell_term])
        item = np.concatenate([self.items, np.repeat(out_item, width)])
        rank = np.concatenate([_segments(np.zeros_like(lengths), lengths),
                               _segments(lengths[out_term], width)])
        share = np.concatenate([weights[head_term],
                                (weights / np.maximum(tail, 1))[cell_term]])
        flat = (self.term_users()[term] * n + item) * n + rank
        dense = np.bincount(flat, weights=share, minlength=self.m * n * n)
        return np.minimum(dense, 1.0, out=dense).reshape(self.m, n, n)


def check_size(n: int) -> None:
    """Raise SizeError when a policy over n items passes MAX_ENTRIES entries
    per user."""
    if n * n > MAX_ENTRIES:
        raise SizeError(f"a policy over {n} items takes {n}^2 entries per "
                        f"user, more than {MAX_ENTRIES}")


def _index_array(values, name: str) -> np.ndarray:
    """A 1-D array of integers as int64: an int64 array itself, anything
    else converted."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size and arr.dtype.kind not in "iu":
        raise DimensionError(f"{name} must be a 1-D array of integers")
    return arr.astype(np.int64, copy=False)


def _repeats_an_item(lengths: np.ndarray, items: np.ndarray) -> bool:
    """Whether some prefix lists an item twice, by sorting each prefix; the
    memory taken is that of the items, whatever n is."""
    if lengths.size and np.all(lengths == lengths[0]):
        rows = np.sort(items.reshape(lengths.size, int(lengths[0])), axis=1)
        return bool(np.any(rows[:, 1:] == rows[:, :-1]))
    term = np.repeat(np.arange(lengths.size), lengths)
    order = np.lexsort((items, term))
    return bool(np.any((np.diff(items[order]) == 0) & (np.diff(term[order]) == 0)))


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` for each start s and count c."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


def _check_dims(policy: RankingMixture, exp: ExposureModel,
                rel: RelevanceMatrix | None = None) -> None:
    if rel is not None and (rel.m, rel.n) != (policy.m, policy.n):
        raise DimensionError(
            f"relevance is {rel.m} x {rel.n}, policy is {policy.m} x {policy.n}")
    if exp.n != policy.n:
        raise DimensionError(
            f"exposure weights have length {exp.n}, policy has n={policy.n} items")


def exposure_profile(policy: RankingMixture, exp: ExposureModel) -> np.ndarray:
    """(m, n) matrix of expected exposure per (user, item), sum_k e(k) X[u,i,k]."""
    _check_dims(policy, exp)
    return policy.exposures(exp.weights)


def user_utility(policy: RankingMixture, rel: RelevanceMatrix,
                 exp: ExposureModel) -> float:
    """Total expected relevance examined across all users."""
    _check_dims(policy, exp, rel)
    return float(np.sum(rel.values * exposure_profile(policy, exp)))


def item_impact(policy: RankingMixture, rel: RelevanceMatrix, exp: ExposureModel,
                vfn: ImpactFunction = ImpactFunction.RELEVANCE_WEIGHTED) -> np.ndarray:
    """Impact each item receives from its own position allocation."""
    _check_dims(policy, exp, rel)
    prof = exposure_profile(policy, exp)
    return np.einsum("ui,ui->i", vfn.user_weights(rel), prof)


def amortized_exposure(policy: RankingMixture, exp: ExposureModel) -> np.ndarray:
    """Total exposure allocated to each item, summed over users."""
    return exposure_profile(policy, exp).sum(axis=0)
