"""Birkhoff-von-Neumann decomposition of ranking mixtures, and sampling.

A decomposition is a ``RankingMixture`` whose users' weights sum to 1; the
items a term's prefix leaves out follow it in a uniformly random order.  A
policy is deployed by sampling the rankings it mixes, so a ``RankingMixture``
policy, which every solver returns, is its own decomposition: its terms of
positive weight, their weights kept bit for bit where they sum to 1 within
1e-9, with no matching and no scipy import.  A dense ``PolicyTensor`` holds
only marginals and is refused.  Sampling a ranking for a user is a seeded
draw over that user's terms, then a seeded shuffle of the items the drawn
prefix leaves out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PolicyTensor, RankingMixture
# unused: kept only because perfbench/tracer.py wraps this binding by name
from .core import renormalize_doubly_stochastic
from .errors import SchemaError, SizeError

# the epsilon a decomposition records unless told otherwise; no term
# depends on it
DEFAULT_EPSILON = 1e-9

# the most entries of one user's n x n matrix that checking a reconstruction
# may build, or that a decomposition file's rankings may span: 2 GiB
MAX_ENTRIES = 2**28


def check_size(n: int) -> None:
    """Raise SizeError when n items pass MAX_ENTRIES entries per user."""
    if n * n > MAX_ENTRIES:
        raise SizeError(f"a policy over {n} items takes {n}^2 entries per "
                        f"user, more than {MAX_ENTRIES}")


@dataclass(frozen=True)
class BvnDecomposition:
    """Per-user convex combinations of rankings, as a ``RankingMixture``
    whose users' weights each sum to 1 within 1e-9.  A term of length n is
    a permutation; a shorter one is followed by the items it leaves out in
    a uniformly random order.
    """

    mixture: RankingMixture
    epsilon: float
    # where each term's prefix starts in ``mixture.items``
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mix = self.mixture
        sums = np.bincount(mix.term_users(), weights=mix.weights, minlength=mix.m)
        err = np.abs(sums - 1.0)
        if err.max() > 1e-9:
            raise ValueError(f"term weights sum to {sums[err.argmax()]}, expected 1")
        object.__setattr__(self, "starts", np.cumsum(mix.lengths) - mix.lengths)

    @property
    def m(self) -> int:
        return self.mixture.m

    @property
    def n(self) -> int:
        return self.mixture.n

    @property
    def terms(self) -> tuple:
        """Per user, its ``(weight, items_by_rank)`` pairs: ``items_by_rank[k]``
        is the item at rank k of the term's prefix."""
        mix = self.mixture
        pairs = list(zip(mix.weights.tolist(), np.split(mix.items, self.starts[1:])))
        indptr = mix.indptr.tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(indptr, indptr[1:]))


def bvn_decompose(policy: RankingMixture,
                  epsilon: float = DEFAULT_EPSILON) -> BvnDecomposition:
    """Decompose every user's ranking mixture into weighted rankings: its
    terms of positive weight, in order.

    Each user's weights are divided by their sum, except where they sum to
    1 within 1e-9: those stay bit for bit.  Any other policy, a
    ``PolicyTensor`` of dense marginals included, raises ``SchemaError``.
    ``epsilon`` is only recorded with the decomposition.
    """
    if not isinstance(policy, RankingMixture):
        raise SchemaError(
            "decompose reads a ranking mixture (policy/v2); a policy/v1 file "
            "holds only the marginals of a policy, not the rankings it mixes")
    m, n = policy.m, policy.n
    live = policy.weights > 0.0
    users, weights = policy.term_users()[live], policy.weights[live]
    lengths = policy.lengths[live]
    items = policy.items[np.repeat(live, policy.lengths)]
    # bincount adds each user's weights in term order
    totals = np.bincount(users, weights=weights, minlength=m)
    # within the BvnDecomposition check: dividing by 1 keeps them
    totals[np.abs(totals - 1.0) <= 1e-9] = 1.0
    mixture = RankingMixture.from_counts(
        n, np.bincount(users, minlength=m), weights / totals[users], lengths, items)
    return BvnDecomposition(mixture=mixture, epsilon=epsilon)


def sample_ranking(dec: BvnDecomposition, user: int, seed: int) -> np.ndarray:
    """Draw one concrete ranking (items by rank) for a user, seeded: a term
    by weight, then a uniformly random order of the items its prefix leaves
    out (none for a full ranking)."""
    if not 0 <= user < dec.m:
        raise IndexError(f"user {user} out of range for m={dec.m}")
    mix = dec.mixture
    lo, hi = mix.indptr[user:user + 2]
    weights = mix.weights[lo:hi]
    rng = np.random.default_rng(seed)
    t = lo + int(rng.choice(hi - lo, p=weights / weights.sum()))
    prefix = mix.items[dec.starts[t]:dec.starts[t] + mix.lengths[t]]
    if prefix.size == mix.n:
        return prefix.copy()
    left_out = np.ones(mix.n, dtype=bool)
    left_out[prefix] = False
    return np.concatenate([prefix, rng.permutation(np.flatnonzero(left_out))])


def reconstruct(dec: BvnDecomposition) -> PolicyTensor:
    """Rebuild the policy as the raw weighted sum of the terms' marginals."""
    return PolicyTensor(dec.mixture.dense())
