"""The numpy Frank-Wolfe kernel, its Newton line search and the matching."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nswrank import (ExposureModel, NswConfig, RelevanceMatrix, SolverError,
                     _kernels, solve_nsw)


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


def test_certificate_of_a_zero_impact_is_a_solver_error():
    # no user ranks item 2, so its impact and log term leave the float range
    V = np.ones((2, 3))
    E = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="objective -inf"):
            _kernels.certificate(V, E, np.array([1.0, 0.5]), np.ones(3),
                                 np.ones(3, dtype=bool))


def kernel_state(m, n, k, cap, seed=0):
    """A full-size state as fw_solve keeps it: every item active, each user
    on the uniform start and cap - 1 top-k prefixes of random weights."""
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.05, 1.0, (m, n))
    eK = 1.0 / np.arange(1, k + 1)
    W = rng.dirichlet(np.ones(cap), size=m)
    prefixes = (rng.integers(0, n, (m, cap, 1)) + np.arange(k)) % n
    return V, eK, W, prefixes


def peak_arrays(fn, *args):
    """fn(*args) and its traced peak in (m, n) float arrays, the shape of
    args[0]."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (8 * args[0].size)


def test_exposures_peak_is_its_output_and_index_arrays():
    # the uniform share is added in place, not into a second (m, n) array
    V, eK, W, prefixes = kernel_state(2000, 500, 10, 9)
    n = V.shape[1]
    E, peak = peak_arrays(
        lambda V: _kernels._exposures(W, prefixes, eK, eK.sum() / n, n), V)
    assert E.shape == V.shape and peak <= 1.5


def test_certificate_peak_is_below_three_arrays():
    # the coefficients are one product: no zeroed array, no column copy of V
    V, eK, W, prefixes = kernel_state(2000, 500, 10, 9)
    n = V.shape[1]
    E = _kernels._exposures(W, prefixes, eK, eK.sum() / n, n)
    w, active = np.ones(n), np.ones(n, dtype=bool)
    (objective, gap), peak = peak_arrays(
        lambda V: _kernels.certificate(V, E, eK, w, active), V)
    assert np.isfinite(objective) and gap >= 0.0
    assert peak <= 2.5


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


def floats_step(imp, dimp, w, gamma_max):
    """The line search on Python floats, which the kernel runs on the few
    items of a move between two vertices."""
    return _kernels._newton_step_floats(
        *(np.asarray(x, dtype=np.float64).tolist() for x in (imp, dimp, w)),
        gamma_max)


# every line search the kernel runs, each held to the dense maximiser
line_searches = pytest.mark.parametrize(
    "search", [_kernels.newton_step, floats_step], ids=["arrays", "floats"])


def check_search(search, imp, dimp, w, gamma_max):
    got = search(imp, dimp, w, gamma_max)
    assert 0.0 <= got <= gamma_max
    assert np.all(imp + got * dimp > 0)
    assert got == pytest.approx(dense_maximiser(imp, dimp, w, gamma_max),
                                abs=1e-12 * gamma_max)
    return got


def matches_dense_maximiser(search, seed):
    rng = np.random.default_rng(seed)
    imp, dimp, w = ascent_direction(rng, int(rng.integers(2, 12)))
    check_search(search, imp, dimp, w, float(rng.uniform(0.05, 1.0)))


@pytest.mark.parametrize("seed", range(20))
def test_newton_step_matches_dense_maximiser(seed):
    matches_dense_maximiser(_kernels.newton_step, seed)


@pytest.mark.parametrize("seed", range(20))
def test_float_line_search_matches_dense_maximiser(seed):
    matches_dense_maximiser(floats_step, seed)


def takes_the_full_step(search):
    imp = np.array([1.0, 1.0])
    dimp = np.array([0.5, -0.1])
    assert search(imp, dimp, np.ones(2), 0.3) == 0.3


def test_newton_step_takes_the_full_step():
    takes_the_full_step(_kernels.newton_step)


def test_float_line_search_takes_the_full_step():
    takes_the_full_step(floats_step)


@line_searches
@pytest.mark.parametrize("gamma_max", [0.1, 1.0, 50.0])
def test_one_item_support_takes_the_full_step(search, gamma_max):
    # a move that changes one impact is an ascent only if that impact grows
    imp, dimp, w = np.array([0.7]), np.array([0.2]), np.array([1.5])
    assert check_search(search, imp, dimp, w, gamma_max) == gamma_max


@line_searches
@pytest.mark.parametrize("seed", range(10))
def test_newton_step_with_gamma_max_at_the_first_pole(search, seed):
    # at gamma_max the first impact is exactly 0, so the full step is out
    rng = np.random.default_rng(seed)
    dimp = np.ones(1)
    while not np.any(dimp < 0):
        imp, dimp, w = ascent_direction(rng, int(rng.integers(2, 12)))
    dec = dimp < 0
    gamma_max = float(np.min(imp[dec] / -dimp[dec]))
    assert check_search(search, imp, dimp, w, gamma_max) < gamma_max


@line_searches
def test_newton_step_falls_back_to_bisection(search, monkeypatch):
    # near the pole phi' is concave, so a Newton step from the left can leave
    # the bracket; the search then halves it
    points = []
    real = _kernels._bracketed_newton

    def recorded(slopes, hi, gamma_max):
        def logged(g):
            d1, d2 = slopes(g)
            points.append((g, d1, d2))
            return d1, d2
        return real(logged, hi, gamma_max)

    monkeypatch.setattr(_kernels, "_bracketed_newton", recorded)
    imp = np.array([0.34, 0.23, 0.32])
    dimp = np.array([-0.26, 0.67, 0.01])
    check_search(search, imp, dimp, np.ones(3), 1.0)
    newton = [g + d1 / d2 for g, d1, d2 in points[:-1]]
    assert any(nxt != step for nxt, step in
               zip([g for g, _, _ in points[1:]], newton))


def test_zero_curvature_bisects():
    # a curvature that underflows to 0 gives no Newton step: the search
    # halves its bracket instead of dividing by 0
    root = _kernels._bracketed_newton(lambda g: (0.25 - g, 0.0), 1.0, 1.0)
    assert root == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_extreme_relevance_scales(scale):
    # c*c in the face step's normal equations would leave the float range at
    # these scales; the face step scales its rows so that it does not, and
    # no solve warns
    exp = ExposureModel.make("inverse", 4, 2)
    for seed in range(20):
        rel = RelevanceMatrix(np.random.default_rng(seed).random((4, 4)) * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, diag = solve_nsw(rel, exp)
        assert diag.duality_gap <= 1e-6 * abs(diag.objective_value)


def test_tiny_merit_weights_never_divide_by_zero():
    # at alpha = 1 merits near 1e-300 give weights near 1e-300, on which the
    # line search's curvature would underflow; fw_solve scales the weights
    # by a power of two, and every solve reaches the gap target
    exp = ExposureModel.make("inverse", 4, 2)
    for seed in range(20):
        rel = RelevanceMatrix(np.random.default_rng(seed).random((4, 4)) * 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, diag = solve_nsw(rel, exp, NswConfig(alpha=1.0))
        assert diag.duality_gap <= 1e-6 * abs(diag.objective_value)


def test_nsw_past_the_float_range_is_a_solver_error():
    # merit^200 is inf: the first pass's objective is not finite
    rel = RelevanceMatrix(np.full((2, 3), 100.0))
    with np.errstate(all="ignore"), pytest.raises(SolverError,
                                                  match="float range"):
        solve_nsw(rel, ExposureModel.make("inverse", 3, 2),
                  NswConfig(alpha=200.0))


def stops_before_an_impact_hits_zero(search, seed, n, past):
    rng = np.random.default_rng(seed)
    imp, dimp, w = ascent_direction(rng, n)
    dec = dimp < 0
    assume(dec.any())
    # gamma_max lies at or past the point where the first impact reaches 0
    gamma_max = float(np.min(imp[dec] / -dimp[dec])) * past
    check_search(search, imp, dimp, w, gamma_max)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10),
       past=st.floats(1.0, 4.0))
def test_newton_step_stops_before_an_impact_hits_zero(seed, n, past):
    stops_before_an_impact_hits_zero(_kernels.newton_step, seed, n, past)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10),
       past=st.floats(1.0, 4.0))
def test_float_line_search_stops_before_an_impact_hits_zero(seed, n, past):
    stops_before_an_impact_hits_zero(floats_step, seed, n, past)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
       gamma_max=st.floats(1e-3, 10.0))
def test_line_search_forms_agree(seed, n, gamma_max):
    rng = np.random.default_rng(seed)
    imp, dimp, w = ascent_direction(rng, n)
    assume(w @ (dimp / imp) > 0)
    assert (floats_step(imp, dimp, w, gamma_max)
            == pytest.approx(_kernels.newton_step(imp, dimp, w, gamma_max),
                             abs=1e-12 * gamma_max))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6),
       n=st.integers(1, 12), k=st.integers(0, 12), levels=st.integers(1, 4))
def test_sort_oracle_is_the_stable_sort(seed, m, n, k, levels):
    # integer coefficients from a few levels: rows full of ties at the K-th
    # value, which must go to the lowest item indices as a stable sort does
    k = min(k, n)
    coef = np.random.default_rng(seed).integers(-levels, levels, (m, n)) * 1.0
    prefixes, values = _kernels.sort_oracle(coef, k)
    expected = np.argsort(-coef, axis=1, kind="stable")[:, :k]
    assert prefixes.dtype == expected.dtype
    assert np.array_equal(prefixes, expected)
    assert np.array_equal(values, np.take_along_axis(coef, expected, axis=1))


def test_nsw_prefixes_break_ties_by_item_index():
    # a user's zero-relevance items tie at coefficient 0, and the pass loop
    # must rank them as sort_oracle does, by item index, whichever sort
    # kernel numpy picks for the CPU (its default sort is not stable)
    exp = ExposureModel.make("inverse", 10, 5)
    unstable = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        r = rng.random((6, 10))
        r[rng.random((6, 10)) < 0.6] = 0.0
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "items .* have zero merit",
                                    RuntimeWarning)
            policy, _ = solve_nsw(RelevanceMatrix(r), exp)
        starts = np.cumsum(policy.lengths) - policy.lengths
        for u, start, length in zip(policy.term_users(), starts, policy.lengths):
            prefix = policy.items[start:start + length]
            zero = prefix[r[u, prefix] == 0.0]
            if not np.array_equal(zero, np.flatnonzero(r[u] == 0.0)[:zero.size]):
                unstable.append(seed)
                break
    assert unstable == []


def face_state(seed, m=4, n=6, k=2, vertices=5):
    """A random mixture per user as the kernel keeps it: W[u, 0] on the
    uniform start and W[u, s] on the top-k prefix prefixes[u, s] for the
    `vertices` slots s >= 1, some of them at weight 0 (prefixes[u, 0] is
    unused).  A prefix may repeat within a user, which makes rows of the
    face matrix 0."""
    rng = np.random.default_rng(seed)
    V, e, w, active = random_problem(seed, m=m, n=n, k=k)
    weights = rng.dirichlet(np.ones(vertices + 1), size=m)
    weights[rng.random((m, vertices + 1)) < 0.2] = 0.0
    weights[:, 1] += weights.sum(axis=1) == 0.0     # no user left empty
    weights /= weights.sum(axis=1, keepdims=True)
    prefixes = np.array([[np.zeros(k, np.int64)]
                         + [rng.permutation(n)[:k] for _ in range(vertices)]
                         for _ in range(m)])
    return V, e[:k], w, weights, prefixes


def face_objective(V, eK, w, W, prefixes):
    n = V.shape[1]
    E = _kernels._exposures(W, prefixes, eK, eK.sum() / n, n)
    imp = np.einsum("ui,ui->i", V, E)
    return float(w @ np.log(imp)), imp


def reference_search(face, p, x, r, imp, w):
    """The projected search event by event, on a dense face matrix: move
    every unfrozen weight along p until a term or a reference empties (or
    the objective stops rising), freeze that term, or every term of that
    reference's user, and go on.  Returns (x, r, g) and updates imp."""
    F, m = face.fu.size, r.size
    D = np.array([face.apply(np.ones(1), [j]) for j in range(F)])
    fu = face.fu
    x, r = x.copy(), r.copy()
    moving = np.ones(F, dtype=bool)
    lost = np.zeros(m, dtype=bool)
    emptied = np.zeros(F, dtype=bool)
    g = 0.0
    while moving.any():
        dr = -np.bincount(fu[moving], p[moving], minlength=m)
        dec = moving & (p < 0.0)
        hits = np.where(dec, g + x / np.where(dec, -p, 1.0), np.inf)
        down = (dr < 0.0) & ~lost
        zeros = np.where(down, g + r / np.where(down, -dr, 1.0), np.inf)
        end = min(hits.min(), zeros.min(), 1.0)
        dimp = (p * moving) @ D
        step = _kernels.newton_step(imp, dimp, w, end - g)
        imp += step * dimp
        x += step * p * moving
        r += step * dr
        if step < end - g:
            g += step
            break
        g = end
        if g >= 1.0:
            break
        out = moving & (hits <= g)
        emptied |= out
        users = np.flatnonzero(zeros <= g)
        lost[users] = True
        moving &= ~out & ~lost[fu]
    x = np.where(emptied, 0.0, np.maximum(x, 0.0))
    r = np.where(lost, 0.0, np.maximum(r, 0.0))
    return x, r, g


def search_inputs(seed, m, n, k, vertices):
    """A face of the state ``face_state`` draws, its Newton direction, and
    the free and reference weights and impacts a face step starts from;
    None when the face is empty or an impact is 0."""
    V, eK, w, W, prefixes = face_state(seed, m, n, k, vertices)
    with np.errstate(divide="ignore"):          # an impact may be 0
        _, imp = face_objective(V, eK, w, W, prefixes)
    rows = np.arange(m)
    ref = W.argmax(axis=1)
    free = W > 0.0
    free[rows, ref] = False
    fu, fs = np.nonzero(free)
    if fu.size == 0 or not np.all(imp > 0.0):
        return None
    terms = _kernels._Terms(V, eK, eK.sum() / n, prefixes, W)
    face = _kernels._Face(terms, fu, fs, ref[fu])
    return face, face.newton(w, imp), W[fu, fs], W[rows, ref], imp, w


class TestProjectedSearch:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
           n=st.integers(3, 8), k=st.integers(1, 3),
           vertices=st.integers(1, 3))
    def test_matches_the_event_by_event_search(self, seed, m, n, k, vertices):
        # the search finds a reference's zero only where the path can reach
        # it, and moves every term to its stop at once: the same path.  On a
        # face whose rows are dependent, weights can move along a direction
        # that leaves every impact as it is, and rounding decides how far;
        # so the face's rows are independent here
        inputs = search_inputs(seed, m, n, min(k, n), vertices)
        assume(inputs is not None)
        face, p, x, r, imp, w = inputs
        F = face.fu.size
        D = np.array([face.apply(np.ones(1), [j]) for j in range(F)])
        assume(np.linalg.matrix_rank(D) == F)
        want_imp = imp.copy()
        want = reference_search(face, p, x, r, want_imp, w)
        got = _kernels._projected_search(face, p, x, r, imp, w)
        # where the objective is nearly flat in g, so is the g it peaks at
        assert got[2] == pytest.approx(want[2], abs=1e-9)
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(imp, want_imp, rtol=1e-12)

    def test_a_reference_that_empties_stops_its_users_terms(self):
        face, p, x, r, imp, w = search_inputs(41, 5, 4, 2, 5)
        want = reference_search(face, p, x, r, imp.copy(), w)
        got = _kernels._projected_search(face, p, x, r, imp, w)
        lost = (want[1] == 0.0) & (r > 0.0)
        assert lost.any()
        assert np.array_equal(got[1] == 0.0, want[1] == 0.0)
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)


class TestFaceStep:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
           k=st.integers(1, 3), vertices=st.integers(1, 6))
    def test_objective_rises_and_weights_stay_on_the_simplex(self, seed, n, k,
                                                              vertices):
        k = min(k, n)
        V, eK, w, W, prefixes = face_state(seed, 4, n, k, vertices)
        before, imp = face_objective(V, eK, w, W, prefixes)
        was_zero = W == 0.0
        _kernels.face_step(V, w, eK, eK.sum() / n, W, prefixes, imp)
        after, fresh = face_objective(V, eK, w, W, prefixes)
        assert after >= before - 1e-12 * abs(before)
        assert W.min() >= 0.0
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12
        # terms outside the support stay out, and imp follows the weights
        assert np.all(W[was_zero] == 0.0)
        assert np.allclose(imp, fresh, rtol=1e-9)

    def test_a_term_that_reaches_zero_leaves_the_support(self):
        # more terms than items: the face cannot hold them all at its optimum
        V, eK, w, W, prefixes = face_state(5, m=3, n=4, k=2, vertices=6)
        positive = W > 0.0
        _, imp = face_objective(V, eK, w, W, prefixes)
        _kernels.face_step(V, w, eK, eK.sum() / 4, W, prefixes, imp)
        left = positive & (W == 0.0)
        assert left.any()
        assert not np.any((W > 0.0) & (W < 1e-12))     # 0 exactly, no residue
        # a second face step works on the smaller support and leaves those out
        _kernels.face_step(V, w, eK, eK.sum() / 4, W, prefixes, imp)
        assert np.all(W[left] == 0.0)

    def test_a_zero_impact_leaves_the_state_alone(self):
        # no user ranks item 1 and none keeps its uniform start
        V, eK, w, W, prefixes = face_state(3079834, m=4, n=6, k=1, vertices=4)
        with np.errstate(divide="ignore"):
            _, imp = face_objective(V, eK, w, W, prefixes)
        assert imp.min() == 0.0
        W_before, before = W.copy(), imp.copy()
        _kernels.face_step(V, w, eK, eK.sum() / 6, W, prefixes, imp)
        assert np.array_equal(W, W_before)
        assert np.array_equal(imp, before)


class TestStateExposures:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5),
           n=st.integers(2, 8), k=st.integers(1, 3),
           vertices=st.integers(1, 6), grown=st.integers(0, 2))
    def test_the_state_and_its_mixture_give_the_same_exposures(
            self, seed, m, n, k, vertices, grown):
        # fw_solve's cheap certificate reads the state's exposures and its
        # final one the returned mixture's: they must agree
        k = min(k, n)
        V, eK, w, W, prefixes = face_state(seed, m, n, k, vertices)
        rng = np.random.default_rng(seed)
        W[rng.random(m) < 0.5, 0] = 0.0             # no uniform weight left
        W[:, 1] += W.sum(axis=1) == 0.0
        W /= W.sum(axis=1, keepdims=True)
        for _ in range(grown):                      # slots grown, still unused
            W = np.concatenate([W, np.zeros_like(W)], axis=1)
            prefixes = np.concatenate([prefixes, np.zeros_like(prefixes)], axis=1)
        e = np.zeros(n)
        e[:k] = eK
        state = _kernels._exposures(W, prefixes, eK, e.sum() / n, n)
        mixture = _kernels._mixture(W, prefixes, n).exposures(e)
        assert np.abs(state - mixture).max() <= 1e-14 * np.abs(mixture).max()


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
