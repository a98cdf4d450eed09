import numpy as np
import pytest

from nswrank import ExposureModel, RelevanceMatrix


@pytest.fixture
def toy_market():
    """Two users, two items, only the top slot exposed."""
    rel = RelevanceMatrix([[0.8, 0.3], [0.5, 0.4]])
    exp = ExposureModel.make("inverse", 2, 1)
    return rel, exp


def random_policy(m: int, n: int, seed: int, n_terms: int = 6):
    """Exactly doubly stochastic random policy: a mixture of permutations."""
    rng = np.random.default_rng(seed)
    mats = np.zeros((m, n, n))
    ranks = np.arange(n)
    for u in range(m):
        weights = rng.dirichlet(np.ones(n_terms))
        for w in weights:
            perm = rng.permutation(n)
            mats[u, perm, ranks] += w
    return mats
