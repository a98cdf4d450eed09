import numpy as np
import pytest

from nswrank import ExposureModel, RankingMixture, RelevanceMatrix


@pytest.fixture
def toy_market():
    """Two users, two items, only the top slot exposed."""
    rel = RelevanceMatrix([[0.8, 0.3], [0.5, 0.4]])
    exp = ExposureModel.make("inverse", 2, 1)
    return rel, exp


def random_policy(m: int, n: int, seed: int, n_terms: int = 6):
    """Exactly doubly stochastic random policy: a mixture of permutations."""
    rng = np.random.default_rng(seed)
    weights, perms = [], []
    for _ in range(m):
        weights.append(rng.dirichlet(np.ones(n_terms)))
        perms.extend(rng.permutation(n) for _ in range(n_terms))
    return RankingMixture.from_counts(n, [n_terms] * m, np.concatenate(weights),
                                      [n] * (m * n_terms), np.concatenate(perms))
