"""Birkhoff-von-Neumann decomposition of policies and ranking sampling.

A decomposition is a ``RankingMixture`` whose users' weights sum to 1; the
items a term's prefix leaves out follow it in a uniformly random order.  A
``RankingMixture`` policy is its own decomposition: its terms of positive
weight, their weights kept bit for bit where they sum to 1 within 1e-9,
with no matching and no scipy import.  A dense policy is peeled
into permutations: repeatedly find a perfect matching on the entries above
epsilon and subtract the smallest matched entry along it; mass still
unassigned after the Marcus-Ree bound on the number of rounds raises
MatchingFailure.  All users are peeled in lockstep, in one block-diagonal
matching per round, and each gets the terms that peeling it alone gives.
Sampling a ranking for a user is a seeded draw over that user's terms, then
a seeded shuffle of the items the drawn prefix leaves out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Policy, PolicyTensor, RankingMixture, renormalize_doubly_stochastic
from .errors import MatchingFailure, SizeError

DEFAULT_EPSILON = 1e-9

# the most entries of one user's n x n matrix that checking a reconstruction
# may build, or that a decomposition file's rankings may span: 2 GiB
MAX_ENTRIES = 2**28

# Marcus-Ree: a doubly stochastic matrix needs at most (n-1)^2 + 1 terms, so
# no user's peel has more.


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


def bvn_decompose(policy: Policy, epsilon: float = DEFAULT_EPSILON) -> BvnDecomposition:
    """Decompose every user's policy into weighted rankings.

    A ``RankingMixture`` gives its terms of positive weight, in order.  A
    dense policy is peeled.  Entries at or below epsilon are zeroed and
    their mass restored by a renormalization sweep first, so solver residue
    does not force spurious tiny terms.  Each round then takes the smallest
    matched entry as one term's weight, and each term is one ranking.

    Each user's weights are divided by their sum, except a mixture user's
    that sum to 1 within 1e-9, which stay bit for bit.  Reconstruction
    matches the input entrywise to within ``n * epsilon + 1e-9``.
    """
    if not 1e-12 <= epsilon <= 1e-6:
        raise ValueError(f"epsilon must lie in [1e-12, 1e-6], got {epsilon}")
    m, n = policy.m, policy.n
    if isinstance(policy, RankingMixture):
        live = policy.weights > 0.0
        users, weights = policy.term_users()[live], policy.weights[live]
        lengths = policy.lengths[live]
        items = policy.items[np.repeat(live, policy.lengths)]
    else:
        work = np.empty_like(policy.matrices)
        for u, mat in enumerate(policy.matrices):
            work[u] = _thresholded(mat, epsilon)
        users, weights, perms = (np.concatenate(a) for a in zip(*_peel(work, epsilon)))
        order = np.argsort(users, kind="stable")
        users, weights = users[order], weights[order]
        lengths = np.full(users.size, n)
        items = perms[order].ravel()
    # bincount adds each user's weights in term order
    totals = np.bincount(users, weights=weights, minlength=m)
    if isinstance(policy, RankingMixture):
        # within the BvnDecomposition check: dividing by 1 keeps them
        totals[np.abs(totals - 1.0) <= 1e-9] = 1.0
    mixture = RankingMixture.from_counts(
        n, np.bincount(users, minlength=m), weights / totals[users], lengths, items)
    return BvnDecomposition(mixture=mixture, epsilon=epsilon)


def _thresholded(mat: np.ndarray, epsilon: float) -> np.ndarray:
    """One user's matrix with entries at or below epsilon zeroed and the
    rest rescaled to doubly stochastic."""
    kept = np.where(mat > epsilon, mat, 0.0)
    if not (kept.any(axis=0).all() and kept.any(axis=1).all()):
        raise MatchingFailure(
            "an entire row or column fell at or below epsilon; "
            "retry with a smaller epsilon")
    # one user at a time: the sweep stops on the largest residual of what it
    # is given, so a batched call would change the entries
    return renormalize_doubly_stochastic(kept[None])[0]


def _peel(work: np.ndarray, epsilon: float) -> list:
    """Peel the users of ``work`` (m, n, n) in lockstep, in place.

    Returns the rounds, each as (users, weights, items_by_rank).
    """
    m, n = work.shape[:2]
    users = np.arange(m)
    remaining = np.ones(m)      # their mass not yet assigned to a term
    done = n * epsilon + 1e-15
    max_terms = (n - 1) ** 2 + 1
    ranks = np.arange(n)
    rounds = []
    # rounds keep their rankings in the narrowest integer type, so that
    # holding them all until the regrouping costs little next to its result
    rank_type = np.min_scalar_type(n - 1)
    # only a dense policy reaches the matching, and with it scipy
    from . import _kernels

    for _ in range(max_terms):
        live = remaining > done
        if not live.all():
            users, work, remaining = users[live], work[live], remaining[live]
            if users.size == 0:
                return rounds
        rank_of_item = _kernels.perfect_matching(work > epsilon)
        if np.any(rank_of_item < 0):
            raise MatchingFailure(
                "no perfect matching on entries above epsilon; "
                "retry with a smaller epsilon")
        block = np.arange(users.size)[:, None]
        matched = work[block, ranks, rank_of_item]
        weight = np.minimum(matched.min(axis=1), remaining)
        items_by_rank = np.empty(rank_of_item.shape, dtype=rank_type)
        items_by_rank[block, rank_of_item] = ranks
        rounds.append((users, weight, items_by_rank))
        work[block, ranks, rank_of_item] = matched - weight[:, None]
        remaining -= weight
    live = remaining > done
    if live.any():
        raise MatchingFailure(
            f"{max_terms} terms left mass {remaining[live].max():.3e} "
            "unassigned; retry with a smaller epsilon")
    return rounds


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
