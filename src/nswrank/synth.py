"""Synthetic market generators.

``generate_market`` mixes i.i.d. uniform relevance with a popularity-biased
component and derives noisy predictions from the ground truth.  The PRNG is
numpy's default_rng (PCG64) and the draw order is pinned so a seed reproduces
bitwise across runs and platforms: the uniform base (row-major), then the
popular item subset (one permutation of the item indices), then the noise
(row-major).

``adversarial_market`` builds the square market on which merit-proportional
exposure provably starves the least relevant item as the market grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_ENTRIES, RelevanceMatrix
from .errors import InputError, SizeError

# the share of the items, rounded, in the popular subset
POPULAR_FRACTION = 0.7


@dataclass(frozen=True)
class SyntheticConfig:
    m: int = 100
    n: int = 50
    lam: float = 0.5
    noise_c: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise InputError("lam must lie in [0, 1]")
        if not 0.0 <= self.noise_c < np.inf:  # also false for NaN
            raise InputError(f"noise_c must be finite and >= 0, got {self.noise_c}")
        if self.m < 1 or self.n < 2:
            raise InputError(f"need m >= 1 and n >= 2, got m={self.m}, n={self.n}")
        if self.m * self.n > MAX_ENTRIES:
            raise SizeError(f"a {self.m} x {self.n} market has more than "
                            f"{MAX_ENTRIES} entries")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def generate_market(cfg: SyntheticConfig) -> tuple[RelevanceMatrix, RelevanceMatrix]:
    """Return (true, predicted) relevance matrices for one seeded market."""
    m, n = cfg.m, cfg.n
    rng = np.random.default_rng(cfg.seed)
    r_unif = rng.random((m, n))
    popular = rng.permutation(n)[: int(round(POPULAR_FRACTION * n))]

    # 1-based position indices as used in the popularity formulas
    item = np.arange(1, n + 1, dtype=np.float64)[None, :]
    user = np.arange(1, m + 1, dtype=np.float64)[:, None]
    r_pop = (n - item + 1.0) / n * user / m
    pop_mask = np.zeros(n, dtype=bool)
    pop_mask[popular] = True
    r_pop[:, pop_mask] = ((n - item + 1.0) / n * (m - user + 1.0) / m)[:, pop_mask]

    r_true = (1.0 - cfg.lam) * r_unif + cfg.lam * r_pop
    noise = rng.uniform(-cfg.noise_c, cfg.noise_c, size=(m, n))
    r_pred = np.clip(r_true + noise, 0.0, 1.0)
    return RelevanceMatrix(r_true), RelevanceMatrix(r_pred)


def adversarial_market(n: int) -> RelevanceMatrix:
    """Square market with r(u, i) = (n-u+1)(n-i+1) / n^2 (1-based indices)."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    idx = np.arange(1, n + 1, dtype=np.float64)
    return RelevanceMatrix(np.outer(n - idx + 1.0, n - idx + 1.0) / n**2)
