"""Birkhoff-von-Neumann decomposition of policies and ranking sampling.

Each user's doubly stochastic matrix is peeled into a convex combination of
permutation matrices: repeatedly find a perfect matching on the entries above
epsilon, subtract the smallest matched entry times that permutation, and
normalize the collected weights at the end; mass still unassigned after the
Marcus-Ree bound on the number of rounds raises MatchingFailure.  All users
are peeled in lockstep: each round matches every user that still has mass
left in one block-diagonal matching, and a user leaves the working arrays
once its mass is spent.  Each user's terms are those that peeling it alone
gives.

A ``RankingMixture`` is already a mixture of rankings whose left-out items
share the tail ranks uniformly: each term is expanded into the cyclic shifts
of those items over the tail ranks, with no matching (and no scipy import).
Sampling a concrete ranking for a user is then a seeded draw over that
user's terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Policy, PolicyTensor, RankingMixture, renormalize_doubly_stochastic
from .errors import MatchingFailure, SizeError

DEFAULT_EPSILON = 1e-9

# the most rank entries (items of all terms' rankings, 8 bytes each) that
# decomposing a mixture may build: 2 GiB
MAX_ENTRIES = 2**28

# Marcus-Ree: a doubly stochastic matrix needs at most (n-1)^2 + 1 terms, so
# no user's decomposition has more.


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


def bvn_decompose(policy: Policy, epsilon: float = DEFAULT_EPSILON) -> BvnDecomposition:
    """Decompose every user's policy into weighted permutations.

    A ``RankingMixture`` needs no matching: each term of positive weight
    and prefix length L becomes its P = max(n - L, 1) cyclic shifts of the
    items it leaves out, in ascending order, over ranks n - P..n-1, each of
    weight w / P.  A user whose shifts would pass (n-1)^2 + 1 terms is peeled
    from its dense matrix instead, as below.

    A dense policy is peeled.  Entries at or below epsilon are zeroed and
    their mass restored by a renormalization sweep first, so solver residue
    does not force spurious tiny terms.  Each round then takes the smallest
    matched entry as one term's weight, and each term is one ranking.

    Either way each user's weights are divided by their sum, and
    reconstruction matches the input entrywise to within
    ``n * epsilon + 1e-9``.  A mixture whose shifts would hold more than
    ``MAX_ENTRIES`` rank entries raises ``SizeError`` before anything is built.
    """
    if not 1e-12 <= epsilon <= 1e-6:
        raise ValueError(f"epsilon must lie in [1e-12, 1e-6], got {epsilon}")
    if isinstance(policy, RankingMixture):
        terms = _mixture_terms(policy, epsilon)
    else:
        terms = _peeled_terms(policy.matrices, epsilon)
    return _expand(policy.m, policy.n, epsilon, *terms)


def _mixture_terms(policy: RankingMixture, epsilon: float) -> tuple:
    """(users, weights, items_by_rank, shifts) of the mixture's terms of
    positive weight, with the dense peel's terms for the users past the
    term bound."""
    m, n = policy.m, policy.n
    live = policy.weights > 0.0
    users = policy.term_users()[live]
    shifts = np.maximum(n - policy.lengths[live], 1)
    # each shift is a ranking of n items; a user past the term bound is
    # peeled from n x n entries, fewer than its shifts' n * (n-1)^2
    entries = float(n) * float(shifts.sum(dtype=np.float64))
    if entries > MAX_ENTRIES:
        raise SizeError(f"decomposing this policy takes {entries:.3g} rank "
                        f"entries, more than {MAX_ENTRIES}")
    parts = [(users, policy.weights[live], policy.rankings()[live], shifts)]
    over = np.flatnonzero(np.bincount(users, weights=shifts, minlength=m)
                          > (n - 1) ** 2 + 1)
    if over.size:
        keep = ~np.isin(users, over)
        parts = [tuple(a[keep] for a in parts[0])]
        # only these users' matrices: the whole tensor is m * n * n entries
        mats = np.stack([policy.users(u, u + 1).dense()[0] for u in over])
        peeled, *terms = _peeled_terms(mats, epsilon)
        parts.append((over[peeled], *terms))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _peeled_terms(matrices: np.ndarray, epsilon: float) -> tuple:
    """(users, weights, items_by_rank, shifts) of the peel's rounds, one
    shift per term."""
    work = np.empty_like(matrices)
    for u, mat in enumerate(matrices):
        work[u] = _thresholded(mat, epsilon)
    users, weights, perms = (np.concatenate(a) for a in zip(*_peel(work, epsilon)))
    return users, weights, perms, np.ones(users.size, np.int64)


def _expand(m: int, n: int, epsilon: float, users, weights, perms,
            shifts) -> BvnDecomposition:
    """Regroup the terms by user, each user's terms in the order given, and
    expand each term into the P = shifts cyclic shifts of its last P items
    over the last P ranks."""
    ranks = np.arange(n)
    order = np.argsort(users, kind="stable")
    copies = shifts[order]
    source = np.repeat(order, copies)
    shift = np.arange(source.size) - np.repeat(np.cumsum(copies) - copies, copies)
    shares = np.repeat(copies, copies)
    head = (n - shares)[:, None]
    offset = ranks - head
    rank_from = np.where(offset < 0, ranks,
                         head + (offset + shift[:, None]) % shares[:, None])
    weights = (weights[source] / shares).tolist()
    perms = perms[source[:, None], rank_from].astype(np.int64)
    ends = np.cumsum(np.bincount(users[source], minlength=m)).tolist()
    terms = []
    for start, end in zip([0] + ends[:-1], ends):
        total = sum(weights[start:end])
        terms.append([(w / total, perm)
                      for w, perm in zip(weights[start:end], perms[start:end])])
    return BvnDecomposition(m=m, n=n, epsilon=epsilon, terms=tuple(terms))


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
