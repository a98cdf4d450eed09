"""Synthetic market generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from nswrank import (InputError, SizeError, SyntheticConfig,
                     adversarial_market, generate_market, merit)
from nswrank.core import MAX_ENTRIES

# the first 16 hex digits of the sha256 of (true, predicted) relevance bytes,
# little-endian float64 in row-major order, keyed by (m, n, lam, seed) at
# the default noise
DIGESTS = {
    (100, 50, 0.0, 0): ("4e2ce6b3d6f5e23d", "a5bf705a19577e04"),
    (100, 50, 0.5, 0): ("99dad424b6b1e6fe", "f9b10035a4558b90"),
    (100, 50, 1.0, 0): ("59ddc7f845c0bb29", "9b54439b025a0303"),
    (100, 50, 0.0, 1): ("af5baca7bdbbf7f2", "fc4ea6172da61604"),
    (100, 50, 0.5, 1): ("b3bdc6e928b4a279", "15370ea65aa868be"),
    (100, 50, 1.0, 1): ("f123f3aa61296c8a", "3c08054c0fd5ccd1"),
    (500, 100, 0.0, 0): ("2a48a3fc71abe2ac", "e9ac1e57e18e37d8"),
    (500, 100, 0.5, 0): ("36006aa2799be3bc", "0dc7064db84aaf3f"),
    (500, 100, 1.0, 0): ("3b3025218328947b", "37c81d72a85a13c0"),
    (500, 100, 0.0, 1): ("555427432e7be085", "5699825ae4774a45"),
    (500, 100, 0.5, 1): ("0cd012d80d8c4fe7", "13e3dc84ec7d39be"),
    (500, 100, 1.0, 1): ("2a39c514592d860b", "ea9bf92f6831df14"),
    (40, 20, 0.0, 0): ("db3b13ce8ea38350", "32515e1e196f4844"),
    (40, 20, 0.5, 0): ("34e05f617c795cd9", "7b9e54413a68c0bf"),
    (40, 20, 1.0, 0): ("9e0065c1e4440c81", "73360a582f85d93a"),
    (40, 20, 0.0, 1): ("caceab4be824cdac", "a7300195f6735744"),
    (40, 20, 0.5, 1): ("808a6be61adeb859", "9cb65457820fabc9"),
    (40, 20, 1.0, 1): ("211ca5a8e5fdddb1", "b106536059fc9a94"),
}


def digest(values):
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


class TestGenerateMarket:
    def test_no_popularity_bias_has_uniform_mean(self):
        rel_true, _ = generate_market(SyntheticConfig(m=100, n=50, lam=0.0, seed=1))
        assert abs(rel_true.values.mean() - 0.5) <= 0.03

    def test_zero_noise_gives_identical_prediction(self):
        rel_true, rel_pred = generate_market(
            SyntheticConfig(m=20, n=10, noise_c=0.0, seed=2))
        assert np.array_equal(rel_true.values, rel_pred.values)

    def test_full_popularity_bias_is_monotone_per_item(self):
        cfg = SyntheticConfig(m=30, n=10, lam=1.0, seed=3)
        rel_true, _ = generate_market(cfg)
        diffs = np.diff(rel_true.values, axis=0)
        decreasing = int(np.sum(np.all(diffs < 0, axis=0)))
        increasing = int(np.sum(np.all(diffs > 0, axis=0)))
        assert decreasing == round(0.7 * 10)
        assert decreasing + increasing == 10

    def test_reproducible_bitwise(self):
        cfg = SyntheticConfig(m=15, n=8, lam=0.4, noise_c=0.1, seed=77)
        a_true, a_pred = generate_market(cfg)
        b_true, b_pred = generate_market(cfg)
        assert np.array_equal(a_true.values, b_true.values)
        assert np.array_equal(a_pred.values, b_pred.values)

    @pytest.mark.parametrize("key", sorted(DIGESTS), ids=str)
    def test_bits_are_pinned(self, key):
        # any change to the draws or to the order of the arithmetic moves them
        m, n, lam, seed = key
        rel_true, rel_pred = generate_market(
            SyntheticConfig(m=m, n=n, lam=lam, seed=seed))
        assert (digest(rel_true.values), digest(rel_pred.values)) == DIGESTS[key]

    def test_peak_memory_is_three_relevance_arrays(self):
        # the formulas run in place: the true and predicted matrices plus
        # one array of scratch at most
        m, n = 2000, 500
        tracemalloc.start()
        try:
            generate_market(SyntheticConfig(m=m, n=n, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * m * n

    def test_values_in_unit_interval(self):
        for seed in range(3):
            cfg = SyntheticConfig(m=25, n=12, lam=0.9, noise_c=0.3, seed=seed)
            rel_true, rel_pred = generate_market(cfg)
            for vals in (rel_true.values, rel_pred.values):
                assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            SyntheticConfig(lam=1.5)

    @pytest.mark.parametrize("field", [{"noise_c": float("nan")},
                                       {"noise_c": float("inf")},
                                       {"noise_c": -0.1}, {"seed": -1}],
                             ids=["noise-nan", "noise-inf", "noise-negative",
                                  "seed-negative"])
    def test_out_of_range_is_an_input_error(self, field):
        with pytest.raises(InputError):
            SyntheticConfig(**field)


    def test_noise_whose_draw_overflows_is_an_input_error(self):
        # uniform(-c, c) needs 2c to be finite
        generate_market(SyntheticConfig(m=2, n=3, noise_c=8.9e307))
        with pytest.raises(InputError, match="at most 8.99e"):
            SyntheticConfig(noise_c=9e307)

    def test_size_bound_is_checked_before_any_allocation(self):
        # only the config is built: a market this large is never generated
        SyntheticConfig(m=MAX_ENTRIES // 4, n=4)
        with pytest.raises(SizeError):
            SyntheticConfig(m=MAX_ENTRIES // 4 + 1, n=4)


class TestAdversarialMarket:
    def test_two_by_two_values(self):
        rel = adversarial_market(2)
        assert np.allclose(rel.values, [[1.0, 0.5], [0.5, 0.25]])

    def test_merit_closed_form(self):
        # merit_i = (n+1)(n-i+1) / (2n)
        rel = adversarial_market(4)
        assert np.allclose(merit(rel), [2.5, 1.875, 1.25, 0.625])
        for n in (3, 8):
            idx = np.arange(1, n + 1)
            assert np.allclose(merit(adversarial_market(n)),
                               (n + 1) * (n - idx + 1) / (2 * n))

    def test_corner_values(self):
        for n in (2, 5, 9):
            rel = adversarial_market(n)
            assert rel.values[0, 0] == pytest.approx(1.0)
            assert rel.values[n - 1, n - 1] == pytest.approx(1.0 / n**2)
