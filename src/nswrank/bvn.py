"""Birkhoff-von-Neumann decomposition of ranking mixtures, and sampling.

A decomposition is a ``RankingMixture`` whose users' weights each sum to 1
within ``DECOMPOSITION_TOL``; the items a term's prefix leaves out follow it
in a uniformly random order.  A policy is deployed by sampling the rankings
it mixes, so a ``RankingMixture`` policy, which every solver returns, is its
own decomposition: ``bvn_decompose`` keeps its terms of positive weight,
their weights bit for bit where they sum to 1 within that tolerance, with no
matching and no scipy import.  Sampling a ranking for a user is a seeded
draw over that user's terms, then a seeded shuffle of the items the drawn
prefix leaves out; ``reconstruct`` gives the dense marginals the terms add
up to.
"""

from __future__ import annotations

import numpy as np

from .core import DECOMPOSITION_TOL, RankingMixture
# unused: kept only because perfbench/tracer.py wraps this binding by name
from .core import renormalize_doubly_stochastic
from .errors import InputError, SchemaError


def bvn_decompose(policy: RankingMixture) -> RankingMixture:
    """Decompose every user's ranking mixture into weighted rankings: its
    terms of positive weight, in order.

    Each user's weights are divided by their sum, except where they sum to
    1 within ``DECOMPOSITION_TOL``: those stay bit for bit.  Any other
    policy, dense marginals included, raises ``SchemaError``.
    """
    if not isinstance(policy, RankingMixture):
        raise SchemaError("decompose reads a ranking mixture (policy/v2), "
                          f"not a {type(policy).__name__}")
    m, n = policy.m, policy.n
    live = policy.weights > 0.0
    users, weights = policy.term_users()[live], policy.weights[live]
    lengths = policy.lengths[live]
    items = policy.items[np.repeat(live, policy.lengths)]
    # bincount adds each user's weights in term order
    totals = np.bincount(users, weights=weights, minlength=m)
    # within DECOMPOSITION_TOL of 1: dividing by 1 keeps them
    totals[np.abs(totals - 1.0) <= DECOMPOSITION_TOL] = 1.0
    return RankingMixture.from_counts(
        n, np.bincount(users, minlength=m), weights / totals[users], lengths, items)


def sample_ranking(mix: RankingMixture, user: int, seed: int) -> np.ndarray:
    """Draw one concrete ranking (items by rank) for a user, seeded: a term
    by weight, then a uniformly random order of the items its prefix leaves
    out (none for a full ranking).  A user outside 0..m-1 or a negative
    seed is an ``InputError``."""
    if not 0 <= user < mix.m:
        raise InputError(f"user {user} out of range for m={mix.m}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    lo, hi = mix.indptr[user:user + 2]
    weights = mix.weights[lo:hi]
    rng = np.random.default_rng(seed)
    t = lo + int(rng.choice(hi - lo, p=weights / weights.sum()))
    start = int(mix.lengths[:t].sum())
    prefix = mix.items[start:start + mix.lengths[t]]
    if prefix.size == mix.n:
        return prefix.copy()
    left_out = np.ones(mix.n, dtype=bool)
    left_out[prefix] = False
    return np.concatenate([prefix, rng.permutation(np.flatnonzero(left_out))])


def reconstruct(mix: RankingMixture) -> np.ndarray:
    """Rebuild the (m, n, n) marginals as the raw weighted sum of the terms'
    marginals.  Every term's prefix ranks distinct items, so a user's row
    and column sums are its weight sum: 1 within ``DECOMPOSITION_TOL`` for a
    decomposition."""
    return mix.dense()
