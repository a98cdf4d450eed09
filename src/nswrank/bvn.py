"""Birkhoff-von-Neumann decomposition of policies and ranking sampling.

Each user's doubly stochastic matrix is peeled into a convex combination of
permutation matrices: repeatedly find a perfect matching on the entries above
epsilon, subtract the smallest matched entry times that permutation, and
normalize the collected weights at the end; mass still unassigned after the
Marcus-Ree bound on the number of terms raises MatchingFailure.  Sampling a
concrete ranking for a user is then a seeded draw over that user's terms.
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


def _decompose_user(mat: np.ndarray, epsilon: float) -> list:
    n = mat.shape[0]
    work = mat.copy()
    work[work <= epsilon] = 0.0
    if np.any(work.sum(axis=0) <= 0) or np.any(work.sum(axis=1) <= 0):
        raise MatchingFailure(
            "an entire row or column fell at or below epsilon; "
            "retry with a smaller epsilon")
    work = renormalize_doubly_stochastic(work[None])[0]

    terms = []
    remaining = 1.0
    max_terms = (n - 1) ** 2 + 1
    for _ in range(max_terms):
        if remaining <= n * epsilon + 1e-15:
            break
        rank_of_item = _kernels.perfect_matching(work > epsilon)
        if np.any(rank_of_item < 0):
            raise MatchingFailure(
                "no perfect matching on entries above epsilon; "
                "retry with a smaller epsilon")
        matched = work[np.arange(n), rank_of_item]
        weight = min(float(matched.min()), remaining)
        items_by_rank = np.argsort(rank_of_item)
        terms.append((weight, items_by_rank))
        work[np.arange(n), rank_of_item] -= weight
        remaining -= weight
    if remaining > n * epsilon + 1e-15:
        raise MatchingFailure(
            f"{max_terms} terms left mass {remaining:.3e} unassigned; "
            "retry with a smaller epsilon")
    if not terms:
        raise MatchingFailure("decomposition produced no terms")
    total = sum(w for w, _ in terms)
    return [(w / total, perm) for w, perm in terms]


def bvn_decompose(policy: PolicyTensor, epsilon: float = DEFAULT_EPSILON) -> BvnDecomposition:
    """Decompose every user's matrix into weighted permutations.

    Entries at or below epsilon are zeroed and their mass restored by a
    renormalization sweep first, so solver residue does not force spurious
    tiny terms.  Reconstruction matches the input entrywise to within
    ``n * epsilon + 1e-9``.
    """
    if not 1e-12 <= epsilon <= 1e-6:
        raise ValueError(f"epsilon must lie in [1e-12, 1e-6], got {epsilon}")
    terms = tuple(_decompose_user(policy.matrices[u], epsilon)
                  for u in range(policy.m))
    return BvnDecomposition(m=policy.m, n=policy.n, epsilon=epsilon, terms=terms)


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
    """Rebuild the policy tensor as the weighted sum of permutation matrices."""
    mats = np.zeros((dec.m, dec.n, dec.n))
    ranks = np.arange(dec.n)
    for u, user_terms in enumerate(dec.terms):
        for weight, items_by_rank in user_terms:
            mats[u, items_by_rank, ranks] += weight
    return PolicyTensor(mats)
