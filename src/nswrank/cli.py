"""Command-line surface: generate, solve, evaluate, decompose, sample, sweep.

Exit codes: 0 success, 3 an unreadable or unwritable file, 4 solver
finished without reaching its gap target (the policy is still written), and
for each typed error its class's ``exit_code`` (see ``nswrank.errors``).
Any other exception is a bug and propagates.
``decompose`` keeps a policy/v2 mixture's own terms.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import _MODULE_OF
from . import io as nio
from .core import (EXPOSURE_KINDS, ExposureModel, ImpactFunction,
                   RankingMixture, check_size, user_utility)
from .errors import InputError, NswrankError, ParseError

# ``cli.<name>`` of a public name that only some commands run is looked up
# in its defining module on every access, and every command calls through
# it as ``_cli.<name>``: a command imports only the modules it runs, a
# replacement set on ``cli`` (a test's monkeypatch, a timing wrapper) is a
# real global and wins, and one set on the defining module is reached
# otherwise.
_cli = sys.modules[__name__]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


_POLICY_CHOICES = ("max", "uniform", "expo-fair", "nsw")


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
    s.add_argument("--policy", required=True, choices=_POLICY_CHOICES)
    s.add_argument("--alpha", type=float, default=0.0,
                   help="merit weight exponent for the nsw policy")
    s.add_argument("--relevance", required=True)
    s.add_argument("--exposure", choices=EXPOSURE_KINDS, default="inverse")
    s.add_argument("--cutoff", type=int, default=5)
    s.add_argument("--tol", type=float, default=1e-6)
    s.add_argument("--max-iters", type=int, default=10000)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("evaluate", help="audit a policy against ground truth")
    e.add_argument("--policy", required=True, help="policy JSON path")
    e.add_argument("--relevance", required=True, help="ground-truth relevance CSV")
    e.add_argument("--exposure", choices=EXPOSURE_KINDS, default="inverse")
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
    cfg = _cli.SyntheticConfig(m=args.users, n=args.items, lam=args.lam,
                               noise_c=args.noise, seed=args.seed)
    rel_true, rel_pred = _cli.generate_market(cfg)
    nio.save_relevance(rel_true, args.out_true)
    nio.save_relevance(rel_pred, args.out_pred)
    return 0


def _solve_one(kind: str, rel, exp, alpha: float, tol: float, max_iters: int):
    """Returns (policy, diagnostics)."""
    if kind == "uniform":
        policy = _cli.solve_uniform(rel.m, rel.n)
    elif kind == "max":
        policy = _cli.solve_utility_max(rel, exp)
    elif kind == "expo-fair":
        return _cli.solve_expo_fair(rel, exp)
    elif kind == "nsw":
        cfg = _cli.NswConfig(alpha=alpha, max_iters=max_iters, rel_gap_tol=tol)
        return _cli.solve_nsw(rel, exp, cfg)
    else:
        raise InputError(f"unknown policy {kind!r}")
    diag = _cli.SolveDiagnostics(objective_value=user_utility(policy, rel, exp))
    return policy, diag


def cmd_solve(args) -> int:
    rel = nio.load_relevance(args.relevance)
    exp = ExposureModel.make(args.exposure, rel.n, args.cutoff)
    policy, diag = _solve_one(
        args.policy, rel, exp, args.alpha, args.tol, args.max_iters)
    alpha = args.alpha if args.policy == "nsw" else None
    nio.save_policy(args.out, policy, args.policy, args.exposure, args.cutoff,
                    diagnostics=diag, alpha=alpha)
    if not diag.converged:
        print(f"gap target not met after {diag.iterations} iterations "
              f"(gap {diag.duality_gap:.3e})", file=sys.stderr)
        return 4
    return 0


def cmd_evaluate(args) -> int:
    doc = nio.load_policy(args.policy)
    rel = nio.load_relevance(args.relevance)
    exp = ExposureModel.make(args.exposure, rel.n, args.cutoff)
    vfn = (ImpactFunction.RELEVANCE_WEIGHTED if args.impact == "relevance"
           else ImpactFunction.EXPOSURE_ONLY)
    report = _cli.fairness_report(doc["policy"], rel, exp, vfn)
    nio.save_metrics(args.out_json, report)
    return 0


def cmd_decompose(args) -> int:
    policy = nio.load_policy(args.policy)["policy"]
    # refuse before writing: the reconstruction check builds an n x n matrix
    # for each user whose terms the decomposition changed, and
    # load_decomposition refuses such an n anyway
    check_size(policy.n)
    dec = _cli.bvn_decompose(policy)
    nio.save_decomposition(args.out, dec)
    print(f"reconstruction_error={_reconstruction_error(dec, policy):.3e}")
    return 0


def _reconstruction_error(dec: RankingMixture, policy: RankingMixture) -> float:
    """Largest |dec.dense() - policy.dense()| entry, or 0 when no user needs
    checking.

    A user whose decomposition terms are its own, bit for bit, has an error
    of exactly 0 and is skipped: ``bvn_decompose`` keeps a user's positive
    terms in order, and their weights as they are when they sum to 1 within
    ``core.DECOMPOSITION_TOL``, so this holds for every solver's output.
    Each other user is compared alone, by ``dense(user)`` of both: one
    (n, n) matrix at a time, whose entries are those of the whole tensors.
    """
    err = 0.0
    for user in np.flatnonzero(~_own_terms(dec, policy)):
        err = max(err, float(np.abs(dec.dense(user) - policy.dense(user)).max()))
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
    dec = nio.load_decomposition(args.decomposition)
    ranking = _cli.sample_ranking(dec, args.user, args.seed)
    print(" ".join(f"{rank + 1},{item}" for rank, item in enumerate(ranking)))
    return 0


# ------------------------------------------------------------------- sweep

# rows (grid points x policies x seeds) a sweep may write at most; its task
# list is built before any unit runs, so a larger one is refused first
_MAX_SWEEP_ROWS = 2**20


def _parse_sweep_config(doc: dict) -> dict:
    # Before any unit runs, each value is checked by what a unit builds from
    # it: a typed error from its market's config, its audit's n x n size
    # bound, its exposure model or a policy's NswConfig is a bad config.
    # The sweep's own rules are that it names no unknown key, that its
    # policy names differ, that its grid values print apart, that seeds is
    # at least 1 and that its rows stay within _MAX_SWEEP_ROWS.
    if not isinstance(doc, dict):
        raise InputError("bad config: the sweep config must be a JSON object")
    _known_keys(doc, "the sweep config", ("policies", "grid", "seeds", "users",
                                          "exposure", "tol", "max_iters"))
    policies = []
    for entry in _config_field(doc, "policies", []):
        if isinstance(entry, str):
            if entry not in _POLICY_CHOICES:
                raise InputError(f"bad config: unknown policy {entry!r}")
            policies.append((entry, entry, 0.0))
        elif isinstance(entry, dict) and set(entry) == {"alpha-nsw"}:
            for alpha in _config_field(entry, "alpha-nsw", []):
                alpha = _config_number(alpha, "alpha-nsw", float)
                name = "nsw" if alpha == 0.0 else f"nsw-a{alpha:g}"
                policies.append((name, "nsw", alpha))
        else:
            raise InputError(f"bad config: bad policy entry {entry!r}")
    names = set()
    for name, _, _ in policies:
        if name in names:
            raise InputError(f"bad config: two policies are named {name!r}")
        names.add(name)
    grid_doc = _config_field(doc, "grid", {}, dict)
    _known_keys(grid_doc, "the grid", ("lambda", "noise_c", "k", "n_items"))
    grid = [sorted(_config_number(v, key, kind)
                   for v in _config_field(grid_doc, key, [default]))
            for key, kind, default in (("lambda", float, 0.5),
                                       ("noise_c", float, 0.05),
                                       ("k", int, 5), ("n_items", int, 50))]
    if not policies or not all(grid):
        raise InputError("bad config: the sweep needs a nonempty policy list "
                         "and grid")
    seeds = _config_number(doc.get("seeds", 10), "seeds", int)
    if seeds < 1:
        raise InputError(f"bad config: seeds must be >= 1, got {seeds}")
    rows = math.prod(map(len, grid)) * len(policies) * seeds
    if rows > _MAX_SWEEP_ROWS:
        raise InputError(f"bad config: the sweep has {rows} rows (grid points "
                         f"x policies x seeds), more than {_MAX_SWEEP_ROWS}")
    points = list(itertools.product(*grid))
    # a row's printed grid columns are the CSV's only key to its grid point
    printed = set()
    for point in points:
        columns = ",".join(
            nio.format_sweep_row("", *point, 0, "error").split(",")[1:5])
        if columns in printed:
            raise InputError("bad config: two grid points print as "
                             f"lambda,noise_c,k,n_items={columns}")
        printed.add(columns)
    cfg = {
        "policies": tuple(policies),
        # (lambda, noise_c, k, n_items), each ascending, the last innermost
        "points": points,
        "seeds": seeds,
        "users": _config_number(doc.get("users", 100), "users", int),
        "exposure": doc.get("exposure", "inverse"),
        "tol": _config_number(doc.get("tol", 1e-6), "tol", float),
        "max_iters": _config_number(doc.get("max_iters", 10000), "max_iters",
                                    int),
    }
    try:
        for lam, noise_c, k, n_items in dict.fromkeys(cfg["points"]):
            _cli.SyntheticConfig(m=cfg["users"], n=n_items, lam=lam,
                                 noise_c=noise_c)
            check_size(n_items)
            ExposureModel.make(cfg["exposure"], n_items, k)
        for alpha in dict.fromkeys(alpha for _, _, alpha in policies):
            _cli.NswConfig(alpha=alpha, max_iters=cfg["max_iters"],
                           rel_gap_tol=cfg["tol"])
    except NswrankError as exc:
        raise InputError(f"bad config: {exc}") from None
    return cfg


def _known_keys(doc: dict, where: str, known: tuple) -> None:
    for key in doc:
        if key not in known:
            raise InputError(f"bad config: {where} has an unknown key "
                             f"{key!r} (known: {', '.join(known)})")


def _config_field(doc: dict, key: str, default, kind=list):
    value = doc.get(key, default)
    if not isinstance(value, kind):
        raise InputError(f"bad config: {key} must be a JSON "
                         f"{'array' if kind is list else 'object'}, got {value!r}")
    return value


def _config_number(value, key: str, kind):
    """A JSON number as ``kind``: null, booleans, strings and containers are
    rejected, and so are a count (``kind`` int) that is not a whole number
    and an integer past the float range for a ``kind`` float."""
    try:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or kind is int and isinstance(value, float)
                and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, OverflowError):
        raise InputError(f"bad config: {key} must be a JSON "
                         f"{'integer' if kind is int else 'number'}, "
                         f"got {json.dumps(value)}") from None


def _sweep_unit(task: tuple) -> list:
    """Solve every policy for one (grid point, seed); returns finished rows.

    A typed nswrank error from a solve or an audit marks that row "error";
    any other exception is a bug and propagates.
    """
    (lam, noise_c, k, n_items, seed, users, exposure_kind, policies,
     tol, max_iters) = task
    rel_true, rel_pred = _cli.generate_market(_cli.SyntheticConfig(
        m=users, n=n_items, lam=lam, noise_c=noise_c, seed=seed))
    exp = ExposureModel.make(exposure_kind, n_items, k)
    rows = []
    for name, kind, alpha in policies:
        try:
            policy, _ = _solve_one(kind, rel_pred, exp, alpha, tol, max_iters)
            report = _cli.fairness_report(policy, rel_true, exp)
            values = (report.user_utility, report.mean_max_envy,
                      report.pct_improved_10, report.pct_decreased_10)
        except NswrankError:
            values = "error"
        rows.append(nio.format_sweep_row(name, lam, noise_c, k, n_items,
                                         seed, values))
    return rows


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise InputError(f"--parallel must be at least 1, got {args.parallel}")
    try:
        doc = nio.read_json(args.config)
    except ParseError as exc:
        raise InputError(f"bad config: {exc}") from None
    cfg = _parse_sweep_config(doc)
    tasks = [(*point, seed, cfg["users"], cfg["exposure"], cfg["policies"],
              cfg["tol"], cfg["max_iters"])
             for point in cfg["points"] for seed in range(cfg["seeds"])]
    # the pool starts all its workers at once, so it gets no more than there
    # are tasks or CPUs; they inherit the modules loaded here rather than
    # each importing them
    workers = min(args.parallel, len(tasks), os.cpu_count() or 1)
    from . import metrics, solvers, synth  # noqa: F401
    if workers > 1:
        import concurrent.futures

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
    except NswrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The console script and ``python -m nswrank.cli``: ``main()``, then
    the end of the process with its exit code.

    Once ``main()`` has returned, the process skips the interpreter's
    teardown (about 20 ms with numpy loaded, a seventh of a desk-scale
    command): it runs the ``atexit`` handlers and flushes the standard
    streams, as the teardown does in that order, and ends with
    ``os._exit``.  An exception out of ``main()`` takes the normal exit.
    So does a failed flush (a pipe with no reader, a full disk): the text
    stays buffered, and the teardown flushes it again and reports the
    error as it always has.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # its descriptor was closed at start-up
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
