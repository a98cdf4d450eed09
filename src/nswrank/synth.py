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

from .core import HALF_FLOAT_MAX, MAX_ENTRIES, RelevanceMatrix
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
        if self.noise_c > HALF_FLOAT_MAX:  # the draw's range 2c is finite
            raise InputError(f"noise_c must be at most {HALF_FLOAT_MAX:.3g}, "
                             f"got {self.noise_c}")
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

    # 1-based position indices as used in the popularity formulas.  Each
    # (m, n) step runs in place, in the order of the formulas, so a seed
    # keeps its bits while at most three such arrays are alive at once.
    item = np.arange(1, n + 1, dtype=np.float64)[None, :]
    user = np.arange(1, m + 1, dtype=np.float64)[:, None]
    share = (n - item + 1.0) / n
    r_pop = share * user
    r_pop /= m
    pop_mask = np.zeros(n, dtype=bool)
    pop_mask[popular] = True
    top = share[:, pop_mask] * (m - user + 1.0)
    top /= m
    r_pop[:, pop_mask] = top
    del top

    r_true = r_unif
    r_true *= 1.0 - cfg.lam
    r_pop *= cfg.lam
    r_true += r_pop
    del r_pop
    r_pred = rng.uniform(-cfg.noise_c, cfg.noise_c, size=(m, n))
    r_pred += r_true
    np.clip(r_pred, 0.0, 1.0, out=r_pred)
    return RelevanceMatrix(r_true), RelevanceMatrix(r_pred)


def adversarial_market(n: int) -> RelevanceMatrix:
    """Square market with r(u, i) = (n-u+1)(n-i+1) / n^2 (1-based indices)."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    idx = np.arange(1, n + 1, dtype=np.float64)
    return RelevanceMatrix(np.outer(n - idx + 1.0, n - idx + 1.0) / n**2)
