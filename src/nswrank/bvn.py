"""Birkhoff-von-Neumann decomposition of policies and ranking sampling.

Each user's doubly stochastic matrix is peeled into a convex combination of
permutation matrices: repeatedly find a perfect matching on the entries above
epsilon, subtract the smallest matched entry times that permutation, and
normalize the collected weights at the end; mass still unassigned after the
Marcus-Ree bound on the number of terms raises MatchingFailure.  All users
are peeled in lockstep: each round matches every user that still has mass
left in one block-diagonal matching, and a user leaves the working arrays
once its mass is spent.  Each user's terms are those that peeling it alone
gives.  Sampling a concrete ranking for a user is then a seeded draw over
that user's terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import PolicyTensor, renormalize_doubly_stochastic
from .errors import MatchingFailure

DEFAULT_EPSILON = 1e-9

# Marcus-Ree: a doubly stochastic matrix needs at most (n-1)^2 + 1 terms.


@dataclass(frozen=True)
class BvnDecomposition:
    """Per-user convex combinations of rank permutations.

    ``terms[u]`` is a list of ``(weight, items_by_rank)`` pairs where
    ``items_by_rank[k]`` is the item placed at rank k.
    """

    m: int
    n: int
    epsilon: float
    terms: tuple

    def __post_init__(self):
        for user_terms in self.terms:
            total = sum(w for w, _ in user_terms)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"term weights sum to {total}, expected 1")


def bvn_decompose(policy: PolicyTensor, epsilon: float = DEFAULT_EPSILON) -> BvnDecomposition:
    """Decompose every user's matrix into weighted permutations.

    Entries at or below epsilon are zeroed and their mass restored by a
    renormalization sweep first, so solver residue does not force spurious
    tiny terms.  Reconstruction matches the input entrywise to within
    ``n * epsilon + 1e-9``.
    """
    if not 1e-12 <= epsilon <= 1e-6:
        raise ValueError(f"epsilon must lie in [1e-12, 1e-6], got {epsilon}")
    m, n = policy.m, policy.n
    work = np.empty_like(policy.matrices)
    for u, mat in enumerate(policy.matrices):
        kept = np.where(mat > epsilon, mat, 0.0)
        if not (kept.any(axis=0).all() and kept.any(axis=1).all()):
            raise MatchingFailure(
                "an entire row or column fell at or below epsilon; "
                "retry with a smaller epsilon")
        # one user at a time: the sweep stops on the largest residual of
        # what it is given, so a batched call would change the entries
        work[u] = renormalize_doubly_stochastic(kept[None])[0]

    users = np.arange(m)        # the users still in the working arrays
    remaining = np.ones(m)      # their mass not yet assigned to a term
    done = n * epsilon + 1e-15
    max_terms = (n - 1) ** 2 + 1
    ranks = np.arange(n)
    rounds = []                 # (users, weights, items_by_rank) per round
    # rounds keep their rankings in the narrowest integer type, so that
    # holding them all until the regrouping costs little next to its result
    rank_type = np.min_scalar_type(n - 1)
    for _ in range(max_terms):
        live = remaining > done
        if not live.all():
            users, work, remaining = users[live], work[live], remaining[live]
            if users.size == 0:
                break
        rank_of_item = _kernels.perfect_matching(work > epsilon)
        if np.any(rank_of_item < 0):
            raise MatchingFailure(
                "no perfect matching on entries above epsilon; "
                "retry with a smaller epsilon")
        block = np.arange(users.size)[:, None]
        weight = np.minimum(work[block, ranks, rank_of_item].min(axis=1),
                            remaining)
        items_by_rank = np.empty(rank_of_item.shape, dtype=rank_type)
        items_by_rank[block, rank_of_item] = ranks
        rounds.append((users, weight, items_by_rank))
        work[block, ranks, rank_of_item] -= weight[:, None]
        remaining -= weight
    if np.any(remaining > done):
        raise MatchingFailure(
            f"{max_terms} terms left mass {remaining.max():.3e} unassigned; "
            "retry with a smaller epsilon")
    if not rounds:
        raise MatchingFailure("decomposition produced no terms")

    # regroup the rounds by user, each user's terms in the order it got them
    user_of = np.concatenate([r[0] for r in rounds])
    order = np.argsort(user_of, kind="stable")
    weights = np.concatenate([r[1] for r in rounds])[order].tolist()
    perms = np.concatenate([r[2] for r in rounds])[order].astype(np.int64)
    ends = np.cumsum(np.bincount(user_of, minlength=m)).tolist()
    terms = []
    for start, end in zip([0] + ends[:-1], ends):
        total = sum(weights[start:end])
        terms.append([(w / total, perm)
                      for w, perm in zip(weights[start:end], perms[start:end])])
    return BvnDecomposition(m=m, n=n, epsilon=epsilon, terms=tuple(terms))


def sample_ranking(dec: BvnDecomposition, user: int, seed: int) -> np.ndarray:
    """Draw one concrete ranking (items by rank) for a user, seeded."""
    if not 0 <= user < dec.m:
        raise IndexError(f"user {user} out of range for m={dec.m}")
    user_terms = dec.terms[user]
    weights = np.array([w for w, _ in user_terms])
    rng = np.random.default_rng(seed)
    choice = int(rng.choice(len(user_terms), p=weights / weights.sum()))
    return user_terms[choice][1].copy()


def reconstruct(dec: BvnDecomposition) -> PolicyTensor:
    """Rebuild the policy as the raw weighted sum of permutation matrices."""
    n = dec.n
    ranks = np.arange(n)
    mats = np.empty((dec.m, n * n))
    for u, user_terms in enumerate(dec.terms):
        weights = np.array([w for w, _ in user_terms])
        perms = np.array([p for _, p in user_terms], dtype=np.int64)
        # bincount adds in input order: each entry sums the terms in order
        mats[u] = np.bincount((perms * n + ranks).ravel(),
                              weights=np.repeat(weights, n), minlength=n * n)
    return PolicyTensor(mats.reshape(dec.m, n, n))
