"""The numpy Frank-Wolfe kernel, its Newton line search and the matching."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nswrank import _kernels


def random_problem(seed, m=6, n=5, k=2):
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.05, 1.0, (m, n))
    e = np.zeros(n)
    e[:k] = 1.0 / np.arange(1, k + 1)
    w = np.ones(n)
    active = np.ones(n, dtype=bool)
    return V, e, w, active


def check_doubly_stochastic(X):
    assert X.min() >= -1e-12 and X.max() <= 1 + 1e-12
    assert np.abs(X.sum(axis=2) - 1).max() < 1e-9
    assert np.abs(X.sum(axis=1) - 1).max() < 1e-9


def test_output_is_doubly_stochastic():
    # some users collect more vertices than the active-set arrays first hold
    V, e, w, active = random_problem(3, m=12, n=8, k=3)
    V[:, 5] = 0.0                 # an item outside the objective
    active[5] = False
    policy, passes, _, _ = _kernels.fw_solve(V, e, w, active, 1e-8, 5000)
    X = policy.dense()
    assert X.shape == (12, 8, 8) and passes > 1
    check_doubly_stochastic(X)


@pytest.mark.parametrize("seed,k", [(0, 2), (3, 3), (7, 6)])
def test_terms_are_empty_or_top_k_prefixes(seed, k):
    # exposure is zero past rank k, so each vertex is kept as its top-k prefix
    V, e, w, active = random_problem(seed, m=8, n=6, k=k)
    policy, _, _, _ = _kernels.fw_solve(V, e, w, active, 1e-8, 5000)
    assert set(policy.lengths.tolist()) <= {0, k}
    assert np.any(policy.lengths == k)


@pytest.mark.parametrize("seed,k", [(0, 2), (1, 5), (7, 3)])
def test_gap_target_reached(seed, k):
    V, e, w, active = random_problem(seed, m=8, n=5 if k == 5 else 6, k=k)
    policy, _, gap, obj = _kernels.fw_solve(V, e, w, active, 1e-8, 5000)
    assert gap <= 1e-8 * abs(obj)
    # the returned objective and gap describe the returned policy
    E = policy.dense() @ e
    imp = np.einsum("ui,ui->i", V, E)
    assert obj == pytest.approx(float(np.sum(w * np.log(imp))), rel=1e-12)
    c = V * (w / imp)
    oracle = float(np.sum(-np.sort(-c, axis=1)[:, :k] * e[:k]))
    assert oracle - float(np.sum(c * E)) == pytest.approx(gap, abs=1e-10)


def dense_maximiser(imp, dimp, w, gamma_max, grid=2001):
    """Argmax of sum w*log(imp + g*dimp) on [0, gamma_max], by a dense grid
    refined with derivative-sign bisection, in extended precision."""
    imp, dimp, w = (np.asarray(x, dtype=np.longdouble) for x in (imp, dimp, w))
    dec = dimp < 0
    pole = np.min(imp[dec] / -dimp[dec]) if dec.any() else np.inf
    hi = min(np.longdouble(gamma_max), pole)
    gs = np.linspace(0, hi, grid, dtype=np.longdouble)
    if hi == pole:
        gs = gs[:-1]
    phi = (w * np.log(imp + gs[:, None] * dimp)).sum(axis=1)
    j = int(np.argmax(phi))
    lo = gs[max(j - 1, 0)]
    up = gs[j + 1] if j + 1 < gs.size else hi
    for _ in range(200):
        mid = (lo + up) / 2
        if np.sum(w * dimp / (imp + mid * dimp)) > 0:
            lo = mid
        else:
            up = mid
    return float((lo + up) / 2)


def ascent_direction(rng, n):
    imp = rng.uniform(0.1, 2.0, n)
    dimp = rng.uniform(-1.0, 1.0, n)
    w = rng.uniform(0.5, 2.0, n)
    if w @ (dimp / imp) < 0:
        dimp = -dimp
    return imp, dimp, w


@pytest.mark.parametrize("seed", range(20))
def test_newton_step_matches_dense_maximiser(seed):
    rng = np.random.default_rng(seed)
    imp, dimp, w = ascent_direction(rng, int(rng.integers(2, 12)))
    gamma_max = float(rng.uniform(0.05, 1.0))
    got = _kernels.newton_step(imp, dimp, w, gamma_max)
    assert 0.0 <= got <= gamma_max
    assert np.all(imp + got * dimp > 0)
    assert got == pytest.approx(dense_maximiser(imp, dimp, w, gamma_max),
                                abs=1e-12 * gamma_max)


def test_newton_step_takes_the_full_step():
    imp = np.array([1.0, 1.0])
    dimp = np.array([0.5, -0.1])
    assert _kernels.newton_step(imp, dimp, np.ones(2), 0.3) == 0.3


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10),
       past=st.floats(1.0, 4.0))
def test_newton_step_stops_before_an_impact_hits_zero(seed, n, past):
    rng = np.random.default_rng(seed)
    imp, dimp, w = ascent_direction(rng, n)
    dec = dimp < 0
    assume(dec.any())
    # gamma_max lies at or past the point where the first impact reaches 0
    gamma_max = float(np.min(imp[dec] / -dimp[dec])) * past
    got = _kernels.newton_step(imp, dimp, w, gamma_max)
    assert np.all(imp + got * dimp > 0)
    assert got == pytest.approx(dense_maximiser(imp, dimp, w, gamma_max),
                                abs=1e-12 * gamma_max)


def face_state(seed, m=4, n=6, k=2, vertices=5):
    """A random mixture per user: weight on the uniform start and on
    `vertices` random top-k prefixes, some of them at weight 0.  A prefix may
    repeat within a user, which makes rows of the face matrix 0."""
    rng = np.random.default_rng(seed)
    V, e, w, active = random_problem(seed, m=m, n=n, k=k)
    weights = rng.dirichlet(np.ones(vertices + 1), size=m)
    weights[rng.random((m, vertices + 1)) < 0.2] = 0.0
    weights[:, 1] += weights.sum(axis=1) == 0.0     # no user left empty
    weights /= weights.sum(axis=1, keepdims=True)
    prefixes = np.array([[rng.permutation(n)[:k] for _ in range(vertices)]
                         for _ in range(m)])
    return V, e[:k], w, weights[:, 0].copy(), weights[:, 1:].copy(), prefixes


def face_objective(V, eK, w, theta0, thetas, prefixes):
    n = V.shape[1]
    E = _kernels._exposures(theta0, thetas, prefixes, eK, eK.sum() / n, n)
    imp = np.einsum("ui,ui->i", V, E)
    return float(w @ np.log(imp)), imp


class TestFaceStep:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
           k=st.integers(1, 3), vertices=st.integers(1, 6))
    def test_objective_rises_and_weights_stay_on_the_simplex(self, seed, n, k,
                                                              vertices):
        k = min(k, n)
        V, eK, w, theta0, thetas, prefixes = face_state(seed, 4, n, k, vertices)
        before, imp = face_objective(V, eK, w, theta0, thetas, prefixes)
        was_zero = np.concatenate([theta0[:, None], thetas], axis=1) == 0.0
        _kernels.face_step(V, w, eK, eK.sum() / n, theta0, thetas, prefixes, imp)
        after, fresh = face_objective(V, eK, w, theta0, thetas, prefixes)
        W = np.concatenate([theta0[:, None], thetas], axis=1)
        assert after >= before - 1e-12 * abs(before)
        assert W.min() >= 0.0
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12
        # terms outside the support stay out, and imp follows the weights
        assert np.all(W[was_zero] == 0.0)
        assert np.allclose(imp, fresh, rtol=1e-9)

    def test_a_term_that_reaches_zero_leaves_the_support(self):
        # more terms than items: the face cannot hold them all at its optimum
        V, eK, w, theta0, thetas, prefixes = face_state(5, m=3, n=4, k=2,
                                                        vertices=6)
        positive = np.concatenate([theta0[:, None], thetas], axis=1) > 0.0
        _, imp = face_objective(V, eK, w, theta0, thetas, prefixes)
        _kernels.face_step(V, w, eK, eK.sum() / 4, theta0, thetas, prefixes, imp)
        W = np.concatenate([theta0[:, None], thetas], axis=1)
        left = positive & (W == 0.0)
        assert left.any()
        assert not np.any((W > 0.0) & (W < 1e-12))     # 0 exactly, no residue
        # a second face step works on the smaller support and leaves those out
        _kernels.face_step(V, w, eK, eK.sum() / 4, theta0, thetas, prefixes, imp)
        W = np.concatenate([theta0[:, None], thetas], axis=1)
        assert np.all(W[left] == 0.0)


class TestMatching:
    @pytest.mark.parametrize("seed", range(5))
    def test_finds_valid_matching(self, seed):
        b, n = 3, 8
        rng = np.random.default_rng(seed)
        # union of a few permutations always admits a perfect matching
        support = np.zeros((b, n, n), dtype=bool)
        for j in range(b):
            for _ in range(3):
                support[j, rng.permutation(n), np.arange(n)] = True
        match = _kernels.perfect_matching(support)
        assert match.shape == (b, n)
        for j in range(b):
            assert sorted(match[j].tolist()) == list(range(n))
            assert all(support[j, i, match[j, i]] for i in range(n))

    def test_reports_absence(self):
        # only the middle block lacks a perfect matching
        support = np.array([np.eye(2, dtype=bool),
                            [[True, False], [True, False]],
                            np.eye(2, dtype=bool)])
        match = _kernels.perfect_matching(support)
        assert (match[1] < 0).any()
        assert np.array_equal(match[[0, 2]], [[0, 1], [0, 1]])

    @settings(max_examples=300, deadline=None)
    @given(blocks=st.integers(1, 5), rows=st.integers(1, 7),
           cols=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_csr_matching(self, blocks, rows, cols, seed):
        # every block of the stack gets the matching that the dense mask of
        # that block alone gives, so every BvN term stays the same (-1
        # entries included); densities differ between blocks, so blocks
        # finish their augmenting phases at different times
        import scipy.sparse as sp
        from scipy.sparse.csgraph import maximum_bipartite_matching

        rng = np.random.default_rng(seed)
        density = rng.random((blocks, 1, 1))
        support = rng.random((blocks, rows, cols)) < density
        got = _kernels.perfect_matching(support)
        assert got.dtype == np.int64
        assert got.shape == (blocks, rows)
        for j in range(blocks):
            alone = maximum_bipartite_matching(
                sp.csr_matrix(support[j].astype(np.int8)), perm_type="column")
            assert np.array_equal(got[j], alone)
