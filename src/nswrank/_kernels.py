"""Hot numeric kernels: the sort oracle and the pairwise Frank-Wolfe welfare
solver, plus a batched perfect matching that no decomposition calls any
more.

The welfare solver performs per-user pairwise Frank-Wolfe steps
(Lacoste-Julien & Jaggi, NeurIPS 2015) in Gauss-Seidel passes: weight moves
from the worst active vertex of a user's current mixture onto the vertex the
sort oracle proposes, with the step length found by a safeguarded Newton
search on the items the move touches.  Plain Frank-Wolfe with exact line
search stalls in a zig-zag well above a 1e-6 relative gap; the pairwise
update converges linearly while using the same oracle.

Each user's state is the weight left on the uniform start, an empty prefix,
plus vertices kept as their top-K prefixes, since exposure is zero past rank
K.  That mixture is the returned policy.

Pairwise steps find the right vertices early and then creep along the face
they span.  After any pass whose gap did not fall below half the previous
pass's gap, ``face_step`` takes Newton steps on that face instead (as
blended conditional gradients do; Braun, Pokutta, Tu & Wright, ICML 2019):
each user's heaviest term is its reference, the other terms of positive
weight are free variables, and the Newton direction for all free weights
at once comes from one least-squares solve through the smaller of its F x F
and n x n normal equations.  A projected search along that direction drops
the terms that reach 0, several per step, and ``newton_step`` sizes each of
its pieces, so the objective never falls.  The next passes add the vertices
the face lacks.

At the sizes of a sweep a step touches a few dozen numbers, so its cost is
the count of interpreter-level operations, not arithmetic.  A move between
two vertices changes at most 2K impacts; its support comes straight from
the two prefixes and its line search runs on Python floats.  A face step
gathers its terms once for all its Newton steps, and its projected search
finds where a reference weight empties only for the users whose weight can
reach 0 before the search stops.
"""

from __future__ import annotations

import bisect

import numpy as np

from .core import RankingMixture
from .errors import SolverError

_TINY = 1e-300
_NEWTON_ITERS = 100
_STALL = 0.5            # a pass gap above this share of the last one stalls
_FACE_STEPS = 20        # Newton steps per face_step at most
_RIDGE = 1e-12          # ridge of the normal equations, relative to their diagonal


# --------------------------------------------------------------------------
# Maximize sum_i w_i * log(Imp_i) over per-user doubly stochastic matrices,
# where Imp_i = sum_u V[u, i] * E[u, i] and E[u] ranges over the convex hull
# of permutations of the exposure weights e.
#
#   V       (m, n) impact multiplier per user/item
#   e       (n,)   nonincreasing exposure weights, zero beyond the cutoff
#   w       (n,)   objective weights (merit ** alpha)
#   active  (n,)   bool, items that take part in the objective
# --------------------------------------------------------------------------


def fw_solve(V, e, w, active, rel_gap_tol, max_iters):
    """Pairwise Frank-Wolfe; returns (policy, passes, gap, objective), the
    policy as a ``RankingMixture`` and the gap and objective its certificate.

    One iteration is a pass over all users; each user transfers mass from
    its worst-value mixture component onto the oracle vertex.  A pass that
    stalls is followed by ``face_step``; passes are counted, face steps not.
    The solve stops when the returned mixture's certificate meets the
    target, or after max_iters (at least 1) passes.
    """
    V = np.asarray(V, dtype=np.float64)
    m, n = V.shape
    K = int(np.count_nonzero(e > 0.0))
    eK = np.ascontiguousarray(e[:K], dtype=np.float64)
    eK_list = eK.tolist()
    u0 = float(e.sum()) / n         # exposure of every item under uniform
    # Inactive items get zero impact columns and a dummy impact of 1, so
    # their coefficient w/imp and their log term are both exactly 0.
    wa = np.where(active, w, 0.0)
    # scaled by an even power of two that brings the largest weight near 1,
    # so the line search's curvature cannot underflow on tiny weights; the
    # scaling is exact, and the certificates use the weights as given
    scale = -2 * int(np.frexp(wa.max())[1] // 2)
    wa = np.ldexp(wa, scale)
    Va = V * active
    neg_Va = -Va
    inactive = ~np.asarray(active, dtype=bool)

    theta0 = np.ones(m)             # weight still on the uniform start
    # top-K prefix and weight per vertex; slots not yet used weigh 0
    cap = 4
    prefixes = np.zeros((m, cap, K), np.int64)
    thetas = np.zeros((m, cap))
    nv = [0] * m
    keys = [{} for _ in range(m)]   # prefix bytes -> vertex slot

    def snapshot():
        # reads prefixes and thetas at call time, so it sees them after growth
        E = _exposures(theta0, thetas, prefixes, eK, u0, n)
        imp = np.einsum("ui,ui->i", Va, E)
        imp[inactive] = 1.0
        # an impact of 0 or past the float range is caught just below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = wa / imp
            objective = float(wa @ np.log(imp))
        if not (np.isfinite(objective) and np.isfinite(ratio).all()):
            raise SolverError("the NSW solve left the float range: "
                              f"objective {objective}")
        return imp, ratio, objective

    def meets_target(objective, gap):
        return gap <= rel_gap_tol * max(abs(objective), _TINY)

    last_gap = np.inf
    for t in range(max_iters):
        imp, ratio, objective = snapshot()
        pass_gap = 0.0
        for u in range(m):
            cn = neg_Va[u] * ratio      # minus the gradient coefficients
            top = cn.argsort()[:K]
            f_best = -float(cn[top].dot(eK))
            k = nv[u]
            t0 = float(theta0[u])
            uni = -u0 * float(neg_Va[u].dot(ratio)) if t0 > 0.0 else 0.0
            th = thetas[u, :k]
            vals = -cn[prefixes[u, :k]].dot(eK)
            g = f_best - t0 * uni - float(th.dot(vals))
            pass_gap += g
            if g <= 0.0:
                continue

            # worst-value component of the current mixture; uniform wins ties
            a, a_val = (-1, uni) if t0 > 0.0 else (-2, np.inf)
            for j, (th_j, val_j) in enumerate(zip(th.tolist(), vals.tolist())):
                if th_j > 0.0 and val_j < a_val:
                    a, a_val = j, val_j
            if a == -2 or f_best - a_val <= 0.0:
                continue

            # locate or append the oracle vertex
            key = top.tobytes()
            s = keys[u].get(key)
            if s is None:
                if k == cap:
                    prefixes = np.concatenate([prefixes, np.zeros_like(prefixes)], axis=1)
                    thetas = np.concatenate([thetas, np.zeros_like(thetas)], axis=1)
                    cap *= 2
                s = keys[u][key] = k
                prefixes[u, s] = top
                nv[u] = k + 1
            if s == a:
                continue

            if a == -1:
                # off the uniform start: every item's exposure changes
                gamma_max = t0
                d = np.full(n, -u0)
                d[top] += eK
                dimp = Va[u] * d
                supp = np.flatnonzero(dimp)
                dimp = dimp[supp]
                gamma = newton_step(imp[supp], dimp, wa[supp], gamma_max)
                if gamma <= 0.0:
                    continue
                theta0[u] = 0.0 if gamma >= gamma_max else t0 - gamma
                new_imp = imp[supp] + gamma * dimp
                imp[supp] = new_imp
                ratio[supp] = wa[supp] / new_imp
            else:
                # between two vertices: only the at most 2K items of their
                # prefixes change, so the search runs on Python floats
                gamma_max = float(thetas[u, a])
                move = dict(zip(top.tolist(), eK_list))
                for i, x in zip(prefixes[u, a].tolist(), eK_list):
                    move[i] = move.get(i, 0.0) - x
                row = Va[u]
                supp, dimp = [], []
                for i, x in move.items():
                    x *= row.item(i)
                    if x != 0.0:
                        supp.append(i)
                        dimp.append(x)
                imp_s = [imp.item(i) for i in supp]
                w_s = [wa.item(i) for i in supp]
                gamma = _newton_step_floats(imp_s, dimp, w_s, gamma_max)
                if gamma <= 0.0:
                    continue
                thetas[u, a] = 0.0 if gamma >= gamma_max else gamma_max - gamma
                for i, x, dx, w_i in zip(supp, imp_s, dimp, w_s):
                    x += gamma * dx
                    imp[i] = x
                    ratio[i] = w_i / x
            thetas[u, s] += gamma

        stalled = pass_gap > _STALL * last_gap
        last_gap = pass_gap
        if stalled:
            face_step(Va, wa, eK, u0, theta0, thetas, prefixes, imp)
        final = t + 1 == max_iters
        if not final and not (stalled or meets_target(objective, pass_gap)):
            continue
        # the state's own certificate first: building the mixture costs more
        if final or meets_target(*certificate(
                V, _exposures(theta0, thetas, prefixes, eK, u0, n), eK, w, active)):
            policy = _mixture(theta0, thetas, prefixes, n)
            objective, gap = certificate(V, policy.exposures(e), eK, w, active)
            if final or meets_target(objective, gap):
                return policy, t + 1, gap, objective


def newton_step(imp, dimp, w, gamma_max):
    """Maximize phi(g) = sum w*log(imp + g*dimp) over g in [0, gamma_max].

    phi is concave, and phi'(0) > 0 for an ascent direction.  The bracket
    [lo, hi] keeps phi'(lo) > 0 >= phi'(hi) and stays below the first point
    where some impact reaches zero; a Newton step that leaves it falls back
    to bisection.  Takes numpy arrays: each Newton iteration is five array
    operations, whatever the length.  ``_newton_step_floats`` is the same
    search on lists of Python floats, for moves between two vertices.
    """
    post = imp + gamma_max * dimp
    if (post > 0.0).all():      # true when the impact change underflowed to none
        if w.dot(dimp / post) >= 0.0:
            return gamma_max
        hi = gamma_max
    else:
        dec = dimp < 0.0
        hi = float((imp[dec] / -dimp[dec]).min())

    def slopes(g):
        q = dimp / (imp + g * dimp)
        wq = w * q
        return float(w.dot(q)), float(wq.dot(q))
    return _bracketed_newton(slopes, hi, gamma_max)


def _newton_step_floats(imp, dimp, w, gamma_max):
    """``newton_step`` on lists of Python floats.  On the few entries of a
    move between two vertices, a Python loop costs less than the fixed cost
    of the numpy calls it replaces."""
    if all(x + gamma_max * dx > 0.0 for x, dx in zip(imp, dimp)):
        if sum(w_i * dx / (x + gamma_max * dx)
               for x, dx, w_i in zip(imp, dimp, w)) >= 0.0:
            return gamma_max
        hi = gamma_max
    else:
        hi = min(x / -dx for x, dx in zip(imp, dimp) if dx < 0.0)
    terms = list(zip(imp, dimp, w))

    def slopes(g):
        d1 = d2 = 0.0
        for x, dx, w_i in terms:
            q = dx / (x + g * dx)
            wq = w_i * q
            d1 += wq
            d2 += wq * q
        return d1, d2
    return _bracketed_newton(slopes, hi, gamma_max)


def _bracketed_newton(slopes, hi, gamma_max):
    """Newton's method on phi' from 0, safeguarded by bisection in [0, hi];
    ``slopes(g)`` returns (phi'(g), -phi''(g))."""
    lo = 0.0
    g = 0.0
    tol = 1e-15 * gamma_max
    for _ in range(_NEWTON_ITERS):
        d1, d2 = slopes(g)
        if d1 > 0.0:
            lo = g
        elif d1 < 0.0:
            hi = g
        else:
            return g
        step = g + d1 / d2 if d2 > 0.0 else lo     # d2 underflowed: bisect
        if lo < step < hi:
            if abs(step - g) <= tol:
                return step
        else:
            step = 0.5 * (lo + hi)
            if hi - lo <= tol:
                return step
        g = step
    return g


def face_step(Va, wa, eK, u0, theta0, thetas, prefixes, imp):
    """Newton's method on the face that the users' current supports span.

    Each user's support is its uniform weight and its vertices of positive
    weight; its heaviest term is the reference and the others are free, so
    impact = base + D.T @ x over the free weights x (see ``_Face``).  The
    Newton direction is followed by ``_projected_search``, which drops the
    terms that reach 0 on the way; a term at weight 0 is outside the face
    and stays there.  Stops after a full step, a step of 0 or _FACE_STEPS
    steps.  Updates theta0, thetas and imp (the current item impacts, 1 on
    inactive items) in place.  Leaves everything as it is when an impact is
    0: the objective is then -inf and has no Newton direction.

    The support only shrinks, so its terms are gathered once (``_Terms``)
    and each Newton step picks the rows of its face from them.
    """
    if not imp.min() > 0.0:
        return
    rows = np.arange(Va.shape[0])
    W = np.concatenate([theta0[:, None], thetas], axis=1)
    terms = _Terms(Va, eK, u0, prefixes, W)
    for _ in range(_FACE_STEPS):
        ref = W.argmax(axis=1)
        free = W > 0.0
        free[rows, ref] = False
        fu, fs = np.nonzero(free)
        if fu.size == 0:
            break
        face = _Face(terms, fu, fs, ref[fu])
        x, r, g = _projected_search(
            face, face.newton(wa, imp), W[fu, fs], W[rows, ref], imp, wa)
        W[fu, fs] = x
        W[rows, ref] = r
        if g <= 0.0 or g >= 1.0:
            break
    theta0[:] = W[:, 0]
    thetas[:] = W[:, 1:]


def _projected_search(face, p, x, r, imp, wa):
    """Follow the free weights x + g*p for g in [0, 1], freezing a term where
    it reaches 0 and every term of a user whose reference weight r reaches 0,
    up to the first maximum of the objective along that path.

    Users move apart: a term stops where it empties, or where its user's
    reference does.  The reference weight r - sum p*min(g, stop) is concave
    in g, so it can reach 0 in [0, 1] only if it is at most 0 at g = 1 with
    every term stopping where it empties, and not before the chord from
    (0, r) to that point crosses 0.  A user's zero is found only once the
    path reaches its chord bound, which most searches never do.  Between
    the stops the impacts move linearly, and ``newton_step`` searches each
    piece.  Updates imp in place; returns the new (x, r) and the g reached,
    0 when p or its impact change is not finite (past the float range).
    """
    dimp = face.apply(p)
    if not (np.isfinite(p).all() and np.isfinite(dimp).all()):
        return x, r, 0.0
    fu = face.fu
    m = r.size
    dec = p < 0.0
    hit = np.full(fu.size, np.inf)                  # g where each term empties
    hit[dec] = x[dec] / -p[dec]
    stop = hit.copy()                               # g where each term stops
    lost_at = np.full(m, np.inf)                    # g where a reference empties
    at_end = r - np.bincount(fu, p * np.minimum(hit, 1.0), minlength=m)
    pending = np.flatnonzero(at_end <= 0.0)
    chord = r[pending] / (r[pending] - at_end[pending])
    soonest = float(chord.min()) if pending.size else np.inf
    order = stop.argsort(kind="stable")
    ends = stop[order].tolist()
    g, k = 0.0, 0
    while True:
        end = min(ends[k], 1.0) if k < len(ends) else 1.0
        if soonest < end:
            # the references that may empty on this piece: find where they
            # do (not behind the path, where rounding could put them), then
            # reorder the stops still ahead
            near = chord < end
            for u in pending[near].tolist():
                lo, hi = np.searchsorted(fu, (u, u + 1)).tolist()   # fu is sorted
                lost_at[u] = max(_reference_zero(r[u], hit[lo:hi], p[lo:hi]), g)
                stop[lo:hi] = np.minimum(hit[lo:hi], lost_at[u])
            pending, chord = pending[~near], chord[~near]
            soonest = float(chord.min()) if pending.size else np.inf
            ahead = order[k:]
            order[k:] = ahead[stop[ahead].argsort(kind="stable")]
            ends = stop[order].tolist()
            continue
        length = end - g
        step = newton_step(imp, dimp, wa, length)
        imp += step * dimp
        if step < length:
            g += step
            break
        g = end
        if g >= 1.0:
            break
        k1 = bisect.bisect_right(ends, g, k)
        out = order[k:k1]
        k = k1
        if k == len(ends):
            break                   # every term has stopped: the rest is flat
        dimp -= face.apply(p[out], out)
    moved = p * np.minimum(g, stop)
    emptied = (hit <= lost_at[fu]) & (hit <= g)
    x = np.where(emptied, 0.0, np.maximum(x + moved, 0.0))
    r = r - np.bincount(fu, moved, minlength=m)
    r = np.where(lost_at <= g, 0.0, np.maximum(r, 0.0))
    return x, r, g


def _reference_zero(r, hit, p):
    """Where a reference weight r reaches 0 while its user's terms move at
    slopes p, each until its hit (inf: never); inf if it stays positive."""
    order = hit.argsort(kind="stable")
    g, slope = 0.0, -float(p.sum())
    for h, p_j in zip(hit[order].tolist(), p[order].tolist()):
        if h == np.inf or r + (h - g) * slope <= 0.0:
            break
        r += (h - g) * slope
        g = h
        slope += p_j
    return g + r / -slope if slope < 0.0 else np.inf


class _Terms:
    """Every term of a support as its prefix entries: the items of its top-K
    prefix and Va[u] * eK on them (no item and 0 for the uniform start), in
    the order of ``np.nonzero(W > 0)``; ``index`` maps a (user, slot) of W to
    its row."""

    def __init__(self, Va, eK, u0, prefixes, W):
        support = W > 0.0
        tu, ts = np.nonzero(support)
        self.index = np.cumsum(support).reshape(W.shape) - 1
        self.items = prefixes[tu, np.maximum(ts - 1, 0)]
        self.vals = Va[tu[:, None], self.items] * eK
        self.vals[ts == 0] = 0.0
        self.uniform = bool(support[:, 0].any())
        self.Va, self.u0 = Va, u0


class _Face:
    """The free terms of a face as rows of D, impact = base + D.T @ x.

    Row j is Va[u] * (exposure of free term j - exposure of u's reference),
    kept as its 2K prefix entries (the term's +eK, the reference's -eK; none
    for the uniform start) plus beta_j * Va[u], where beta_j = +u0 when the
    free term is the uniform start and -u0 when the reference is.
    """

    def __init__(self, terms, fu, fs, fr):
        js, jr = terms.index[fu, fs], terms.index[fu, fr]
        self.items = np.concatenate([terms.items[js], terms.items[jr]], axis=1)
        self.vals = np.concatenate([terms.vals[js], -terms.vals[jr]], axis=1)
        self.fu = fu
        self.m, self.n = terms.Va.shape
        self.sel = np.zeros(0, dtype=np.int64)
        if terms.uniform:
            self.beta = terms.u0 * ((fs == 0).astype(np.float64) - (fr == 0))
            # the terms with a beta part, the users whose uniform start is in
            # the face with their Va rows, and each such term's row in Vu
            self.sel = np.flatnonzero(self.beta)
            self.uni, self.at = np.unique(fu[self.sel], return_inverse=True)
            self.Vu = terms.Va[self.uni]

    def apply(self, x, rows=slice(None)):
        """D[rows].T @ x, the impact change of moving those free weights by x."""
        items, vals = self.items[rows], self.vals[rows]
        out = np.bincount(items.ravel(), (vals * x[:, None]).ravel(),
                          minlength=self.n)
        if self.sel.size:
            beta = self.beta[rows] * x
            per_user = np.bincount(self.fu[rows], beta, minlength=self.m)
            out += per_user[self.uni] @ self.Vu
        return out

    def newton(self, wa, imp):
        """Min-norm least-squares p of diag(sqrt(wa)/imp) D.T p = sqrt(wa),
        the Newton direction of sum wa*log(imp) in the free weights, through
        the smaller of the F x F and n x n normal equations with a ridge.

        D is taken times 2^s and c = sqrt(wa)/imp over 2^s, with 2^s near
        c's largest: every product of the two is the same, exactly, and
        c*c and the normal equations stay in the float range whatever the
        impacts' scale."""
        F, n = self.fu.size, self.n
        c = np.sqrt(wa) / imp
        s = int(np.frexp(c.max())[1])
        c = np.ldexp(c, -s)
        items, vals, sel = self.items, np.ldexp(self.vals, s), self.sel
        if sel.size:
            Vu = np.ldexp(self.Vu, s)
        if F < n:
            # F rows of n entries: smaller than the n x n system
            D = np.bincount((np.arange(F)[:, None] * n + items).ravel(), vals.ravel(),
                            minlength=F * n).reshape(F, n)
            if sel.size:
                D[sel] += self.beta[sel, None] * Vu[self.at]
            G = (D * (c * c)) @ D.T
            if not _ridge(G):
                return np.zeros(F)
            return np.linalg.solve(G, D @ (c * np.sqrt(wa)))
        # D.T D as a sum of outer products: the prefix entries pairwise, then
        # the dense beta * Va[u] parts of users with their uniform start
        pairs = (items[:, :, None] * n + items[:, None, :]).ravel()
        G = np.bincount(pairs, (vals[:, :, None] * vals[:, None, :]).ravel(),
                        minlength=n * n).reshape(n, n)
        if sel.size:
            bs, at = self.beta[sel], self.at
            Z = np.bincount((at[:, None] * n + items[sel]).ravel(),
                            (bs[:, None] * vals[sel]).ravel(),
                            minlength=self.uni.size * n).reshape(-1, n)
            Z += 0.5 * np.bincount(at, bs * bs, minlength=self.uni.size)[:, None] * Vu
            X = Vu.T @ Z
            G += X + X.T
        G *= c[:, None] * c[None, :]
        if not _ridge(G):
            return np.zeros(F)
        y = c * np.linalg.solve(G, np.sqrt(wa))
        p = (vals * y[items]).sum(axis=1)
        if sel.size:
            p[sel] += self.beta[sel] * (Vu @ y)[self.at]
        return p


def _ridge(G):
    """Add the ridge to G's diagonal in place; False when G is 0 (every
    free term moves no impact, so the direction is 0)."""
    scale = float(G.diagonal().max())
    if scale <= 0.0:
        return False
    G.flat[::G.shape[0] + 1] += _RIDGE * scale
    return True


def _exposures(theta0, thetas, prefixes, eK, u0, n):
    """Per-user exposure E (m, n) of the mixtures, by one scatter-add."""
    m = prefixes.shape[0]
    flat = (np.arange(m)[:, None, None] * n + prefixes).ravel()
    return np.bincount(flat, weights=(thetas[:, :, None] * eK).ravel(),
                       minlength=m * n).reshape(m, n) + (theta0 * u0)[:, None]


def sort_oracle(coef, K):
    """Each row's best top-K prefix against nonincreasing exposure weights.

    Returns (prefixes, values): the (m, K) item indices of each row's K
    largest coefficients in rank order, ties broken by item index, and those
    coefficients.  Callers reduce the values against their weights.

    The prefixes are those of a stable sort of each row, found by selection:
    every item above the row's K-th largest value, then the lowest-index
    items at that value, then a stable sort of the K picked.
    """
    m, n = coef.shape
    if not 0 < K < n:
        prefixes = np.argsort(-coef, axis=1, kind="stable")[:, :K]
        return prefixes, np.take_along_axis(coef, prefixes, axis=1)
    kth = np.partition(coef, n - K, axis=1)[:, n - K, None]
    above = coef > kth
    pick = above | (coef == kth)
    if np.count_nonzero(pick) > m * K:
        # rows with more ties at the K-th value than places left keep the
        # lowest-index ones
        tied = pick & ~above
        need = K - np.count_nonzero(above, axis=1)
        crowded = np.flatnonzero(np.count_nonzero(tied, axis=1) > need)
        t = tied[crowded]
        pick[crowded] = above[crowded] | t & (np.cumsum(t, axis=1) <= need[crowded, None])
    rows = np.arange(m)[:, None]
    items = np.nonzero(pick)[1].reshape(m, K)      # increasing item index per row
    values = coef[rows, items]
    order = np.argsort(-values, axis=1, kind="stable")
    return items[rows, order], values[rows, order]


def certificate(V, E, eK, w, active):
    """(objective, gap) of the per-user exposures E: sum w*log(impact) over
    the active items, impact the einsum of V and E, and the Frank-Wolfe gap,
    the sort oracle's value on the coefficients V*w/impact (0 off the active
    items) minus E's own, sum w.  Raises SolverError when the objective or
    the coefficients leave the float range, as they do when an impact is 0.
    """
    imp = np.einsum("ui,ui->i", V, E)
    coef = np.zeros_like(V)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        objective = float(np.sum(w[active] * np.log(imp[active])))
        coef[:, active] = V[:, active] * (w[active] / imp[active])
    if not (np.isfinite(objective) and np.isfinite(coef).all()):
        raise SolverError("the NSW solve left the float range: "
                          f"objective {objective}")
    _, top = sort_oracle(coef, eK.size)
    return objective, float(np.sum(top * eK)) - float(np.sum(w[active]))


def _mixture(theta0, thetas, prefixes, n):
    """Each user's uniform weight theta0 as an empty prefix, then its vertices
    as top-K prefixes in slot order; terms of weight 0 are left out."""
    weights = np.concatenate([theta0[:, None], thetas], axis=1)
    kept = weights > 0.0
    lengths = prefixes.shape[2] * (np.nonzero(kept)[1] > 0)
    return RankingMixture.from_counts(n, kept.sum(axis=1), weights[kept],
                                      lengths, prefixes[kept[:, 1:]].ravel())


# --------------------------------------------------------------------------
# Maximum matchings on a stack of boolean item x rank support matrices.
# Returns rank_of_item, shape (b, rows), -1 where an item stays unmatched.
# --------------------------------------------------------------------------


# unused in the package: kept only because perfbench/tracer.py wraps it by name
def perfect_matching(support):
    """Match every block of a (b, rows, cols) stack in one Hopcroft-Karp call.

    The blocks are the diagonal blocks of one bipartite graph.  Hopcroft-Karp
    recomputes its shortest-path layers from scratch in every phase, and a
    block takes part in a phase only when its own shortest augmenting path is
    the shortest of the phase; it then augments exactly as it would alone.  So
    each block gets the matching that a call on that block alone gives.
    """
    # imported here so that commands which never decompose skip loading csgraph
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_bipartite_matching

    # CSR arrays straight from the nonzeros: the same structure, in the same
    # order, as converting the dense block-diagonal matrix.  Entry (j, r, c)
    # is graph row j * rows + r, graph column j * cols + c.
    b, rows, cols = support.shape
    flat = np.flatnonzero(support)
    indptr = np.searchsorted(flat, np.arange(0, b * rows * cols + 1, cols))
    indices = flat // (rows * cols) * cols + flat % cols
    graph = sp.csr_matrix(
        (np.ones(flat.size, dtype=np.int8), indices.astype(np.int32),
         indptr.astype(np.int32)), shape=(b * rows, b * cols))
    match = maximum_bipartite_matching(graph, perm_type="column")
    match = match.astype(np.int64).reshape(b, rows)
    return np.where(match >= 0, match - np.arange(b)[:, None] * cols, -1)
