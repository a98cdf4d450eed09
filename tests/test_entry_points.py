"""The library entry points on any input: each either succeeds with finite
results or raises a typed ``NswrankError``, never a bare numpy or Python
exception."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nswrank import (
    ExposureModel,
    NswConfig,
    NswrankError,
    RankingMixture,
    RelevanceMatrix,
    bvn_decompose,
    fairness_report,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
)

_SPECIAL = st.sampled_from([0.0, -0.0, -1.0, -1e-300, np.nan, np.inf, -np.inf])


@st.composite
def _markets(draw):
    """(relevance values, exposure kind, cutoff K, alpha): m in 1..6, n in
    2..6, entries in [0, 1] times one power of ten from the subnormals to
    the largest floats, or each anywhere in the float range; a few entries
    may be NaN, infinite, negative or zero, and K runs from 0 to n + 1."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    if draw(st.booleans()):
        scale = float(f"1e{draw(st.integers(-323, 308))}")
        entries = st.floats(0.0, 1.0).map(lambda v: v * scale)
    else:
        entries = st.floats(0.0, allow_infinity=False)
    values = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n)))
    for at, value in draw(st.lists(st.tuples(st.integers(0, m * n - 1), _SPECIAL),
                                   max_size=2)):
        values[at] = value
    kind = draw(st.sampled_from(["inverse", "exponential", "dcg"]))
    return (values.reshape(m, n), kind, draw(st.integers(0, n + 1)),
            draw(st.floats(0.0, 200.0)))


def _typed(call):
    """``call()``, or None when it raises a typed error."""
    try:
        return call()
    except NswrankError:
        return None


@settings(max_examples=100, deadline=None)
@given(market=_markets())
def test_entry_points_succeed_finitely_or_raise_typed_errors(market):
    values, kind, cutoff, alpha = market
    m, n = values.shape
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        rel = _typed(lambda: RelevanceMatrix(values))
        exp = _typed(lambda: ExposureModel.make(kind, n, cutoff))
        if rel is None or exp is None:
            return
        policies = [solve_uniform(m, n)]
        for solve in (lambda: solve_nsw(rel, exp, NswConfig(alpha=alpha)),
                      lambda: solve_expo_fair(rel, exp)):
            solved = _typed(solve)
            if solved is not None:
                policy, diag = solved
                assert np.isfinite(diag.objective_value)
                assert np.isfinite(diag.duality_gap)
                policies.append(policy)
        for policy in policies:
            # the audit's sums may pass the largest float: inf, never NaN
            report = _typed(lambda: fairness_report(policy, rel, exp))
            if report is not None:
                assert report.user_utility >= 0.0
                assert 0.0 <= report.pct_improved_10 <= 100.0
                assert 0.0 <= report.pct_decreased_10 <= 100.0
            dec = _typed(lambda: bvn_decompose(policy))
            if dec is not None:
                assert isinstance(dec, RankingMixture)
                assert (dec.m, dec.n) == (m, n)
