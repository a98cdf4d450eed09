"""Command-line surface: generate, solve, evaluate, decompose, sample, sweep.

Exit codes: 0 success, 2 bad flags or config, 3 unreadable/unwritable or
malformed files (``decompose`` of a policy/v1 file too, whose dense
marginals do not say which rankings they mix), 4 solver finished without
reaching its gap target (policy is still written), 5 infeasible or
degenerate program, 6 dimension mismatch, 8 the exposure-fair solve found no
optimum for another reason (HiGHS stopped on its master LP, or artificial
mass was left on an exposure target), 9 a policy or decomposition of n items
with n^2 > 2^28, refused before anything is decomposed, written or sampled.
7 is retired and unassigned.
``decompose`` keeps a policy/v2 mixture's own terms.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import numpy as np

from . import _MODULE_OF
from . import io as nio
from .core import ExposureModel, ImpactFunction, RankingMixture, user_utility
from .errors import (
    DegenerateMarketError,
    DimensionError,
    InfeasibleError,
    NotDoublyStochastic,
    NswrankError,
    ParseError,
    SchemaError,
    SizeError,
    SolverError,
    ZeroMeritError,
)

# The names this module binds from the modules that only some commands run,
# each with its module (``nswrank._MODULE_OF``; ``check_size`` is not public).
# A command imports its modules when it starts (``_load``), and the names
# become globals of this module, which the commands call through: a command
# loads only what it runs, and replacing ``cli.<name>`` (a test's
# monkeypatch, a timing wrapper) still reaches every call.
_DEFERRED = {name: _MODULE_OF[name] for name in (
    "BvnDecomposition", "bvn_decompose", "reconstruct", "sample_ranking",
    "fairness_report", "NswConfig", "SolveDiagnostics", "solve_expo_fair",
    "solve_nsw", "solve_uniform", "solve_utility_max", "SyntheticConfig",
    "generate_market")}
_DEFERRED["check_size"] = "bvn"
# the value ``_load`` last bound to each name: a global that no longer holds
# it was replaced since, and ``_load`` leaves it alone
_LOADED: dict = {}


def _load(*modules: str) -> None:
    """Import ``modules`` (values of ``_DEFERRED``) and bind their names
    here from each, except a name whose global was replaced."""
    bound = globals()
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        for name, source in _DEFERRED.items():
            if source == module and bound.get(name) is _LOADED.get(name):
                bound[name] = _LOADED[name] = getattr(mod, name)


def _load_pool() -> None:
    """Bind ``concurrent`` as ``import concurrent.futures`` does: only a
    parallel sweep loads it."""
    import concurrent.futures

    globals().setdefault("concurrent", concurrent)


def __getattr__(name: str):
    """``cli.<name>`` of a deferred name before any command has bound it."""
    if name == "concurrent":
        _load_pool()
    elif name in _DEFERRED:
        _load(_DEFERRED[name])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


_EXPOSURE_KINDS = ("inverse", "exponential", "dcg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nswrank",
        description="Fair stochastic ranking policies for two-sided markets")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic relevance matrices")
    g.add_argument("--users", type=int, default=100)
    g.add_argument("--items", type=int, default=50)
    g.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="popularity-bias mix in [0, 1]")
    g.add_argument("--noise", type=float, default=0.05,
                   help="half-width of the uniform prediction noise")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-true", required=True)
    g.add_argument("--out-pred", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="compute a ranking policy")
    s.add_argument("--policy", required=True,
                   choices=["max", "uniform", "expo-fair", "nsw"])
    s.add_argument("--alpha", type=float, default=0.0,
                   help="merit weight exponent for the nsw policy")
    s.add_argument("--relevance", required=True)
    s.add_argument("--exposure", choices=_EXPOSURE_KINDS, default="inverse")
    s.add_argument("--cutoff", type=int, default=5)
    s.add_argument("--tol", type=float, default=1e-6)
    s.add_argument("--max-iters", type=int, default=10000)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("evaluate", help="audit a policy against ground truth")
    e.add_argument("--policy", required=True, help="policy JSON path")
    e.add_argument("--relevance", required=True, help="ground-truth relevance CSV")
    e.add_argument("--exposure", choices=_EXPOSURE_KINDS, default="inverse")
    e.add_argument("--cutoff", type=int, default=5)
    e.add_argument("--impact", choices=["relevance", "exposure"],
                   default="relevance")
    e.add_argument("--out-json", required=True)
    e.set_defaults(func=cmd_evaluate)

    d = sub.add_parser("decompose", help="decompose a policy into rankings")
    d.add_argument("--policy", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_decompose)

    sm = sub.add_parser("sample", help="draw one ranking from a decomposition")
    sm.add_argument("--decomposition", required=True)
    sm.add_argument("--user", type=int, required=True)
    sm.add_argument("--seed", type=int, required=True)
    sm.set_defaults(func=cmd_sample)

    sw = sub.add_parser("sweep", help="run a seeded experiment grid")
    sw.add_argument("--config", required=True, help="sweep config JSON")
    sw.add_argument("--out", required=True, help="output CSV")
    sw.add_argument("--parallel", type=int, default=1)
    sw.set_defaults(func=cmd_sweep)
    return parser


def cmd_generate(args) -> int:
    _load("synth")
    cfg = SyntheticConfig(m=args.users, n=args.items, lam=args.lam,
                          noise_c=args.noise, seed=args.seed)
    rel_true, rel_pred = generate_market(cfg)
    nio.save_relevance(rel_true, args.out_true)
    nio.save_relevance(rel_pred, args.out_pred)
    return 0


def _solve_one(kind: str, rel, exp, alpha: float, tol: float, max_iters: int):
    """Returns (policy, diagnostics, converged)."""
    _load("solvers")
    if kind == "uniform":
        policy = solve_uniform(rel.m, rel.n)
    elif kind == "max":
        policy = solve_utility_max(rel, exp)
    elif kind == "expo-fair":
        policy, diag = solve_expo_fair(rel, exp)
        return policy, diag, True
    elif kind == "nsw":
        cfg = NswConfig(alpha=alpha, max_iters=max_iters, rel_gap_tol=tol)
        policy, diag = solve_nsw(rel, exp, cfg)
        converged = diag.duality_gap <= tol * max(abs(diag.objective_value), 1e-300)
        return policy, diag, converged
    else:
        raise ValueError(f"unknown policy {kind!r}")
    diag = SolveDiagnostics(objective_value=user_utility(policy, rel, exp))
    return policy, diag, True


def cmd_solve(args) -> int:
    rel = nio.load_relevance(args.relevance)
    exp = ExposureModel.make(args.exposure, rel.n, args.cutoff)
    policy, diag, converged = _solve_one(
        args.policy, rel, exp, args.alpha, args.tol, args.max_iters)
    alpha = args.alpha if args.policy == "nsw" else None
    nio.save_policy(args.out, policy, args.policy, args.exposure, args.cutoff,
                    diagnostics=diag, alpha=alpha)
    if not converged:
        print(f"gap target not met after {diag.iterations} iterations "
              f"(gap {diag.duality_gap:.3e})", file=sys.stderr)
        return 4
    return 0


def cmd_evaluate(args) -> int:
    _load("metrics")
    doc = nio.load_policy(args.policy)
    rel = nio.load_relevance(args.relevance)
    exp = ExposureModel.make(args.exposure, rel.n, args.cutoff)
    vfn = (ImpactFunction.RELEVANCE_WEIGHTED if args.impact == "relevance"
           else ImpactFunction.EXPOSURE_ONLY)
    report = fairness_report(doc["policy"], rel, exp, vfn)
    nio.save_metrics(args.out_json, report)
    return 0


def cmd_decompose(args) -> int:
    _load("bvn")
    policy = nio.load_policy(args.policy)["policy"]
    # refuse before writing: the reconstruction check builds an n x n matrix
    # for each user whose terms the decomposition changed, and
    # load_decomposition refuses such an n anyway
    check_size(policy.n)
    dec = bvn_decompose(policy)
    nio.save_decomposition(args.out, dec)
    print(f"reconstruction_error={_reconstruction_error(dec, policy):.3e}")
    return 0


# entries per block of the reconstruction check: a block's users' dense
# (n, n) cells plus the head and tail cells of their terms, about 2^20
_CHECK_ENTRIES = 2**20


def _reconstruction_error(dec: BvnDecomposition,
                          policy: RankingMixture) -> float:
    """Largest |reconstruct(dec) - policy| entry, or 0 when no user needs
    checking.

    A mixture user whose decomposition terms are its own, bit for bit (the
    same weights, lengths and items, in order), is skipped.
    ``bvn_decompose`` keeps a user's positive terms in order, and their
    weights as they are when they sum to 1 within 1e-9, so this holds for
    every such user with no term of zero weight: every solver's output.
    Its ``dense()`` cells are then the same shares, added by ``bincount``
    in the same term order whatever other users share the block, so its
    error is exactly 0.
    Nor can the ``PolicyTensor`` check inside ``reconstruct`` fail for it:
    its row and column sums are its weight sum, which ``RankingMixture``
    already checked.

    The other users are compared in blocks of consecutive users; each entry
    is computed as on the whole (m, n, n) tensors.  ``RankingMixture.dense``
    builds n^2 cells per user and L + (n - L)^2 per term of prefix length L,
    so a block holds at most ``_CHECK_ENTRIES`` of those, or one user.
    """
    _load("bvn")
    check = np.flatnonzero(~_own_terms(dec.mixture, policy))
    n, mix = dec.n, dec.mixture
    tail = n - mix.lengths
    cost = (n * n + np.bincount(mix.term_users(), mix.lengths + tail * tail,
                                minlength=dec.m))[check]
    ends = np.cumsum(cost)
    err = 0.0
    lo = 0
    while lo < check.size:
        # the next users whose entries fit, and at least one
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - cost[lo] + _CHECK_ENTRIES, side="right")))
        users = check[lo:hi]
        part = BvnDecomposition(mix.take(users), dec.epsilon)
        want = policy.take(users).dense()
        err = max(err, float(np.abs(reconstruct(part).matrices - want).max()))
        lo = hi
    return err


def _own_terms(dec: RankingMixture, policy: RankingMixture) -> np.ndarray:
    """Per user, whether its decomposition terms are the policy's, bit for
    bit.  A term of zero weight, which the decomposition drops, leaves its
    user with fewer terms there."""
    p_users, d_users = policy.term_users(), dec.term_users()
    same = np.diff(policy.indptr) == np.diff(dec.indptr)
    p, d = same[p_users], same[d_users]
    differs = ((policy.weights[p] != dec.weights[d])
               | (policy.lengths[p] != dec.lengths[d]))
    same[p_users[p][differs]] = False
    # the remaining users' prefixes line up item for item
    p, d = same[p_users], same[d_users]
    differs = (policy.items[np.repeat(p, policy.lengths)]
               != dec.items[np.repeat(d, dec.lengths)])
    same[np.repeat(p_users[p], policy.lengths[p])[differs]] = False
    return same


def cmd_sample(args) -> int:
    _load("bvn")
    dec = nio.load_decomposition(args.decomposition)
    if not 0 <= args.user < dec.m:
        raise ValueError(f"user {args.user} out of range for m={dec.m}")
    ranking = sample_ranking(dec, args.user, args.seed)
    print(" ".join(f"{rank + 1},{item}" for rank, item in enumerate(ranking)))
    return 0


# ------------------------------------------------------------------- sweep


_POLICY_CHOICES = ("max", "uniform", "expo-fair", "nsw")


def _parse_sweep_config(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be a JSON object")
    policies = []
    for entry in _config_field(doc, "policies", []):
        if isinstance(entry, str):
            if entry not in _POLICY_CHOICES:
                raise ValueError(f"unknown policy {entry!r}")
            policies.append((entry, entry, 0.0))
        elif isinstance(entry, dict) and set(entry) == {"alpha-nsw"}:
            for alpha in _config_field(entry, "alpha-nsw", []):
                alpha = _config_number(alpha, "alpha-nsw", float)
                name = "nsw" if alpha == 0.0 else f"nsw-a{alpha:g}"
                policies.append((name, "nsw", alpha))
        else:
            raise ValueError(f"bad policy entry {entry!r}")
    grid_doc = _config_field(doc, "grid", {}, dict)
    grid = {
        key: [_config_number(v, key, kind)
              for v in _config_field(grid_doc, key, [default])]
        for key, kind, default in (("lambda", float, 0.5),
                                   ("noise_c", float, 0.05),
                                   ("k", int, 5), ("n_items", int, 50))
    }
    if not policies or not all(grid.values()):
        raise ValueError("sweep config needs a nonempty policy list and grid")
    exposure = doc.get("exposure", "inverse")
    if exposure not in _EXPOSURE_KINDS:
        raise ValueError(f"unknown exposure kind {exposure!r}")
    return {
        "policies": policies,
        "grid": grid,
        "seeds": _config_number(doc.get("seeds", 10), "seeds", int),
        "users": _config_number(doc.get("users", 100), "users", int),
        "exposure": exposure,
        "tol": _config_number(doc.get("tol", 1e-6), "tol", float),
        "max_iters": _config_number(doc.get("max_iters", 10000), "max_iters",
                                    int),
    }


def _config_field(doc: dict, key: str, default, kind=list):
    value = doc.get(key, default)
    if not isinstance(value, kind):
        raise ValueError(f"bad config: {key} must be a JSON "
                         f"{'array' if kind is list else 'object'}, got {value!r}")
    return value


# The values each numeric config field accepts, checked before any unit
# runs; the constructors the units call would reject the rest row by row.
_CONFIG_RANGES = {
    "alpha-nsw": (lambda v: 0.0 <= v < np.inf, "finite and >= 0"),
    "lambda": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "noise_c": (lambda v: 0.0 <= v < np.inf, "finite and >= 0"),
    "k": (lambda v: v >= 1, ">= 1"),
    "n_items": (lambda v: v >= 2, ">= 2"),
    "seeds": (lambda v: v >= 1, ">= 1"),
    "users": (lambda v: v >= 1, ">= 1"),
    "tol": (lambda v: 0.0 < v < np.inf, "finite and > 0"),
    "max_iters": (lambda v: v >= 1, ">= 1"),
}


def _config_number(value, key: str, kind):
    """A JSON number as ``kind``, within the field's range: null, booleans,
    strings and containers are rejected, and so is a count (``kind`` int)
    that is not a whole number."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and isinstance(value, float)
            and not value.is_integer()):
        raise ValueError(f"bad config: {key} must be a JSON "
                         f"{'integer' if kind is int else 'number'}, "
                         f"got {json.dumps(value)}")
    in_range, allowed = _CONFIG_RANGES[key]
    if not in_range(value):  # also false for NaN
        raise ValueError(f"bad config: {key} must be {allowed}, "
                         f"got {json.dumps(value)}")
    return kind(value)


def _sweep_unit(task: tuple) -> list:
    """Solve every policy for one (grid point, seed); returns finished rows.

    A typed nswrank error or a ValueError marks a row "error"; any other
    exception is a bug and propagates.
    """
    (lam, noise_c, k, n_items, seed, users, exposure_kind, policies,
     tol, max_iters) = task
    _load("synth", "solvers", "metrics")
    rows = []
    try:
        rel_true, rel_pred = generate_market(SyntheticConfig(
            m=users, n=n_items, lam=lam, noise_c=noise_c, seed=seed))
        exp = ExposureModel.make(exposure_kind, n_items, k)
    except (NswrankError, ValueError):
        for name, _, _ in policies:
            rows.append(nio.format_sweep_row(name, lam, noise_c, k, n_items,
                                             seed, "error"))
        return rows
    for name, kind, alpha in policies:
        try:
            policy, _, _ = _solve_one(kind, rel_pred, exp, alpha, tol, max_iters)
            report = fairness_report(policy, rel_true, exp)
            values = (report.user_utility, report.mean_max_envy,
                      report.pct_improved_10, report.pct_decreased_10)
            rows.append(nio.format_sweep_row(name, lam, noise_c, k, n_items,
                                             seed, values))
        except (NswrankError, ValueError):
            rows.append(nio.format_sweep_row(name, lam, noise_c, k, n_items,
                                             seed, "error"))
    return rows


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ValueError(f"--parallel must be at least 1, got {args.parallel}")
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = _parse_sweep_config(json.load(fh))
    grid = cfg["grid"]
    tasks = []
    for lam in sorted(grid["lambda"]):
        for noise_c in sorted(grid["noise_c"]):
            for k in sorted(grid["k"]):
                for n_items in sorted(grid["n_items"]):
                    for seed in range(cfg["seeds"]):
                        tasks.append((lam, noise_c, k, n_items, seed,
                                      cfg["users"], cfg["exposure"],
                                      tuple(cfg["policies"]), cfg["tol"],
                                      cfg["max_iters"]))
    # the pool starts all its workers at once, so it gets no more than there
    # are tasks; they inherit the modules loaded here rather than each
    # importing them
    workers = min(args.parallel, len(tasks))
    _load("synth", "solvers", "metrics")
    if workers > 1:
        _load_pool()
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            per_task = list(pool.map(_sweep_unit, tasks))
    else:
        per_task = [_sweep_unit(t) for t in tasks]

    # rows are emitted per grid point in policy order, seeds innermost;
    # regroup so the order is grid point, policy, seed
    n_pol = len(cfg["policies"])
    seeds = cfg["seeds"]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(nio.SWEEP_HEADER + "\n")
        for point in range(0, len(tasks), seeds):
            for p in range(n_pol):
                for s in range(seeds):
                    fh.write(per_task[point + s][p] + "\n")
    return 0


# ------------------------------------------------------------------- entry


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ParseError, SchemaError, NotDoublyStochastic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InfeasibleError, ZeroMeritError, DegenerateMarketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 8
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 9


def entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
