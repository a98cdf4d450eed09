"""RankingMixture: checks, exposures, dense marginals, decomposition, files."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswrank import (
    DimensionError,
    InputError,
    NotDoublyStochastic,
    RankingMixture,
    bvn_decompose,
    reconstruct,
)
from nswrank import io as nio


def random_mixture(seed: int, m: int, n: int, zero_weights: bool = False):
    """Users of 1-4 terms with prefix lengths anywhere in 0..n; with
    ``zero_weights`` some terms weigh 0."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 5, m)
    weights = np.concatenate([rng.dirichlet(np.ones(c)) for c in counts])
    if zero_weights:
        weights[rng.random(weights.size) < 0.2] = 0.0
        starts = np.cumsum(counts) - counts
        for s, c in zip(starts, counts):
            weights[s:s + c] /= weights[s:s + c].sum() or 1.0
            if weights[s:s + c].sum() == 0.0:
                weights[s] = 1.0
    lengths = rng.integers(0, n + 1, weights.size)
    items = np.concatenate([rng.permutation(n)[:k] for k in lengths]
                           + [np.zeros(0, np.int64)])
    return RankingMixture.from_counts(n, counts, weights, lengths, items)


def random_exposure(seed: int, n: int) -> np.ndarray:
    """Nonincreasing weights in [0, 1], zero past a random cutoff."""
    rng = np.random.default_rng(seed)
    e = -np.sort(-rng.random(n))
    e[rng.integers(1, n + 1):] = 0.0
    return e


MIXTURES = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6),
                n=st.integers(2, 8))


class TestChecks:
    def test_keeps_the_arrays_as_given(self):
        # int64 index arrays and float64 weights are kept, not copied, and
        # marked read-only: a write through the caller's reference fails
        given = dict(indptr=np.array([0, 2], np.int64),
                     weights=np.array([0.5, 0.5 + 4e-7]),
                     lengths=np.array([0, 3], np.int64),
                     items=np.array([2, 0, 1], np.int64))
        mix = RankingMixture(3, **given)
        for name, arr in given.items():
            kept = getattr(mix, name)
            assert np.shares_memory(kept, arr), name
            assert not kept.flags.writeable and not arr.flags.writeable, name
        with pytest.raises(ValueError):
            given["weights"][0] = 0.0
        with pytest.raises(ValueError):
            given["items"][0] = 1
        assert mix.weights[0] == 0.5 and mix.items[0] == 2

    @pytest.mark.parametrize("weights, items", [
        ([0.25, 0.75], [2, 0, 1]),
        (np.array([0.25, 0.75], np.float32), np.array([2, 0, 1], np.int32)),
    ], ids=["lists", "float32-int32"])
    def test_converts_other_inputs_to_its_own_arrays(self, weights, items):
        mix = RankingMixture.from_counts(3, [2], weights, [0, 3], items)
        assert mix.weights.dtype == np.float64 and mix.items.dtype == np.int64
        assert not (mix.weights.flags.writeable or mix.items.flags.writeable)
        if isinstance(items, np.ndarray):
            # the caller's arrays stay writeable, and writes leave the mixture
            assert weights.flags.writeable and items.flags.writeable
            weights[0], items[0] = 0.0, 1
        assert mix.weights[0] == 0.25 and mix.items[0] == 2

    def test_building_allocates_only_the_checks_temporaries(self):
        # a 2000 x 500 full-ranking mixture from int64 and float64 arrays:
        # the checks' one temporary the size of the items is the repeat
        # check's sorted copy, with its 1-byte comparison mask per item; the
        # rest are a few arrays of one 8-byte entry per user or term
        m, n = 2000, 500
        items = np.argsort(np.random.default_rng(0).random((m, n)),
                           axis=1).ravel().astype(np.int64, copy=False)
        weights, counts = np.ones(m), np.ones(m, np.int64)
        lengths = np.full(m, n, np.int64)
        tracemalloc.start()
        try:
            RankingMixture.from_counts(n, counts, weights, lengths, items)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= items.nbytes + items.size + 16 * 8 * m, peak

    @pytest.mark.parametrize("counts, weights, lengths, items, error", [
        ([1], [1.0], [2], [0, 0], NotDoublyStochastic),
        ([2], [0.5, 0.5], [1, 2], [0, 1, 1], NotDoublyStochastic),
        ([1], [1.0], [2], [0, 3], DimensionError),
        ([1], [1.0], [4], [0, 1, 2, 0], DimensionError),
        ([1], [1.0], [2], [0], DimensionError),
        ([1], [1.0], [1], [0.0], DimensionError),
        ([2], [0.5, 0.4], [0, 0], [], NotDoublyStochastic),
        ([2], [1.5, -0.5], [0, 0], [], NotDoublyStochastic),
        ([1], [float("nan")], [0], [], NotDoublyStochastic),
        ([1, 0], [1.0], [0], [], NotDoublyStochastic),
        ([2], [1.0], [0], [], DimensionError),
        ([], [], [], [], DimensionError),
    ], ids=["repeated-item", "repeated-item-of-a-longer-prefix", "item-out-of-range", "prefix-longer-than-n",
            "lengths-past-items", "float-items", "weights-sum-0.9",
            "negative-weight", "nan-weight", "user-without-terms",
            "counts-past-terms", "no-users"])
    def test_rejects(self, counts, weights, lengths, items, error):
        with pytest.raises(error):
            RankingMixture.from_counts(3, counts, weights, lengths, items)

    def test_needs_two_items(self):
        with pytest.raises(DimensionError):
            RankingMixture.from_counts(1, [1], [1.0], [1], [0])


class TestMarginals:
    def test_prefix_spreads_the_rest_over_the_tail(self):
        mix = RankingMixture.from_counts(4, [2], [0.5, 0.5], [2, 0], [3, 1])
        X = mix.dense()[0]
        want = np.full((4, 4), 0.5 / 4)     # the empty prefix
        want[3, 0] += 0.5                   # item 3 first, item 1 second
        want[1, 1] += 0.5
        want[[0, 2], 2:] += 0.5 / 2         # items 0 and 2 share ranks 2, 3
        assert np.array_equal(X, want)

    @settings(max_examples=100, deadline=None)
    @given(**MIXTURES)
    def test_exposures_equal_dense_times_weights(self, seed, m, n):
        mix = random_mixture(seed, m, n)
        e = random_exposure(seed, n)
        want = mix.dense() @ e
        assert np.allclose(mix.exposures(e), want, rtol=1e-12, atol=0.0)
        # and the dense marginals are doubly stochastic
        X = mix.dense()
        assert X.min() >= 0.0 and X.max() <= 1.0
        assert np.abs(X.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(X.sum(axis=2) - 1.0).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(**MIXTURES, k=st.integers(1, 8))
    def test_top_k_prefixes_expose_as_any_full_rankings(self, seed, m, n, k):
        # e vanishes past rank k, so a prefix's tail share is exactly 0 and
        # the items past rank k of a full ranking add exactly 0: completing
        # each k-prefix in any order leaves every exposure bit for bit
        k = min(k, n)
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 5, m)
        weights = np.concatenate([rng.dirichlet(np.ones(c)) for c in counts])
        lengths = np.where(rng.random(weights.size) < 0.8, k, 0)
        ranked = [rng.permutation(n)[:n if length else 0] for length in lengths]
        prefixes = RankingMixture.from_counts(
            n, counts, weights, lengths,
            np.concatenate([r[:k] for r in ranked]))
        full = RankingMixture.from_counts(
            n, counts, weights, [r.size for r in ranked], np.concatenate(ranked))
        e = random_exposure(seed, n)
        e[k:] = 0.0
        assert np.array_equal(prefixes.exposures(e), full.exposures(e))

    @settings(max_examples=100, deadline=None)
    @given(**MIXTURES, zero_weights=st.booleans())
    def test_dense_adds_heads_then_tails_in_term_order(self, seed, m, n,
                                                       zero_weights):
        # the order of the additions sets the rounding, and the decompose
        # check compares blocks built from different terms bit for bit
        mix = random_mixture(seed, m, n, zero_weights)
        want = np.zeros((m, n, n))
        users = mix.term_users()
        starts = np.cumsum(mix.lengths) - mix.lengths
        for u, w, s, L in zip(users, mix.weights, starts, mix.lengths):
            for k, i in enumerate(mix.items[s:s + L]):
                want[u, i, k] += w
        for u, w, s, L in zip(users, mix.weights, starts, mix.lengths):
            for i in sorted(set(range(n)) - set(mix.items[s:s + L].tolist())):
                for k in range(L, n):
                    want[u, i, k] += w / (n - L)
        assert np.array_equal(mix.dense(), np.minimum(want, 1.0))

    @settings(max_examples=50, deadline=None)
    @given(**MIXTURES, pick=st.integers(0, 5))
    def test_dense_of_a_user_is_its_entry_of_the_whole(self, seed, m, n, pick):
        mix = random_mixture(seed, m, n, zero_weights=True)
        user = pick % m
        assert np.array_equal(mix.dense(np.int64(user)), mix.dense()[user])

    @pytest.mark.parametrize("user", [3, -1])
    def test_dense_needs_a_user_in_range(self, user):
        with pytest.raises(InputError, match=f"not user {user}"):
            random_mixture(0, 3, 4).dense(user)

    def test_dense_holds_little_besides_its_output(self):
        # 300 users of 1 or 2 top-5 prefixes over 40 items: the tails are
        # added one term's block at a time, so the peak is the output and a
        # few arrays of one entry per prefix item or per item
        m, n, k = 300, 40, 5
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 3, m)
        weights = np.concatenate([rng.dirichlet(np.ones(c)) for c in counts])
        items = np.concatenate([rng.permutation(n)[:k] for _ in weights])
        mix = RankingMixture.from_counts(n, counts, weights,
                                         np.full(weights.size, k), items)
        out = m * n * n * 8
        tracemalloc.start()
        try:
            mix.dense()
            _, whole = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            mix.dense(7)
            _, one = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert whole <= 1.1 * out, whole
        assert one <= 4 * n * n * 8, one

    def test_policy_tensor_measures_the_same(self):
        mix = random_mixture(2, 4, 6)
        e = random_exposure(2, 6)
        assert np.allclose(mix.dense() @ e, mix.exposures(e), rtol=1e-12, atol=0.0)


class TestDecompose:
    @settings(max_examples=100, deadline=None)
    @given(zero_weights=st.booleans(), **MIXTURES)
    def test_reconstructs_the_dense_marginals(self, seed, m, n, zero_weights):
        mix = random_mixture(seed, m, n, zero_weights)
        dec = bvn_decompose(mix)
        live = mix.weights > 0
        starts = np.cumsum(mix.lengths) - mix.lengths
        want = [[(w, mix.items[a:a + k].tolist()) for w, a, k, keep in zip(
            mix.weights[lo:hi], starts[lo:hi], mix.lengths[lo:hi], live[lo:hi])
            if keep] for lo, hi in zip(mix.indptr[:-1], mix.indptr[1:])]
        got = [[(w, p.tolist()) for w, p in user_terms]
               for user_terms in dec.terms]
        # the positive-weight terms, with weights within 1e-15 of their share
        # of their user's sum (kept as they are when it is 1 within 1e-9)
        assert [[p for _, p in user] for user in got] == [
            [p for _, p in user] for user in want]
        for got_user, want_user in zip(got, want):
            total = sum(w for w, _ in want_user)
            assert [w for w, _ in got_user] == pytest.approx(
                [w / total for w, _ in want_user], rel=1e-15, abs=0)
        err = np.abs(reconstruct(dec) - mix.dense()).max()
        assert err <= n * 1e-12 + 1e-9

    def test_terms_are_the_prefixes_themselves(self):
        mix = RankingMixture.from_counts(4, [3], [0.5, 0.25, 0.25], [2, 4, 0],
                                         [3, 1, 0, 1, 2, 3])
        dec = bvn_decompose(mix)
        assert [(w, p.tolist()) for w, p in dec.terms[0]] == [
            (0.5, [3, 1]), (0.25, [0, 1, 2, 3]), (0.25, [])]

    def test_needs_no_matching(self):
        # decomposing a mixture does not load scipy
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from nswrank import RankingMixture, bvn_decompose\n"
            "mix = RankingMixture.from_counts(\n"
            "    50, [2] * 100, [0.5] * 200, [0, 5] * 100,\n"
            "    np.tile(np.arange(5), 100))\n"
            "dec = bvn_decompose(mix)\n"
            "print(sum(map(len, dec.terms)), 'scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["200", "False"]


class TestFiles:
    @settings(max_examples=60, deadline=None)
    @given(**MIXTURES)
    def test_v2_round_trips_bit_for_bit(self, tmp_path_factory, seed, m, n):
        mix = random_mixture(seed, m, n, zero_weights=True)
        path = tmp_path_factory.getbasetemp() / "policy.json"
        nio.save_policy(path, mix, "nsw", "inverse", 2)
        text = path.read_bytes()
        loaded = nio.load_policy(path)["policy"]
        assert isinstance(loaded, RankingMixture)
        for field in ("indptr", "weights", "lengths", "items"):
            assert np.array_equal(getattr(loaded, field), getattr(mix, field))
        nio.save_policy(path, loaded, "nsw", "inverse", 2)
        assert path.read_bytes() == text
