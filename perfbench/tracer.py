"""Run one nswrank command with timing wrappers at its module boundaries.

    python3 perfbench/tracer.py SPANS_PREFIX <nswrank arguments...>

behaves like ``python3 -m nswrank.cli <nswrank arguments...>`` (same exit
code, same files), and also records one span per call that crosses from one
nswrank module into another: name, start, end, the span that caused it and a
few counts taken from the call's result.  Spans stay in memory and are
written out when the process ends, one JSON object per line, to
``SPANS_PREFIX.<pid>.jsonl``.  Sweep pool workers are forked from the traced
process, so they inherit the wrappers and write their own file at exit.

Nothing under ``src/`` knows about this file: the wrappers replace module
attributes after import.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_spans: list = []   # finished spans of this process
_stack: list = []   # ids of the open spans, innermost last
_state = {"prefix": None, "next_id": 0, "finalizer": False}


def _open_span():
    sid = _state["next_id"]
    _state["next_id"] += 1
    parent = _stack[-1] if _stack else None
    _stack.append(sid)
    return sid, parent


def _close_span(sid, parent, name, start, attrs):
    end = time.perf_counter()
    _stack.pop()
    _spans.append({"id": sid, "parent": parent, "name": name,
                   "start": start, "end": end, "attrs": attrs})


def _wrap(owner, attr: str, name: str, attrs_of=None) -> None:
    """Replace ``owner.attr`` by a wrapper that records a span per call.

    ``attrs_of(args, kwargs, result)`` returns the counts to keep with the
    span; it runs after the span closes, so its cost is not in the span.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent = _open_span()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            _close_span(sid, parent, name, start, {"raised": True})
            raise
        _close_span(sid, parent, name, start, {})
        if attrs_of is not None:
            _spans[-1]["attrs"] = attrs_of(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _fw_attrs(args, kwargs, result):
    _, passes, gap, objective = result
    return {"passes": int(passes),
            "rel_gap": float(gap) / max(abs(float(objective)), 1e-300)}


def _lp_attrs(args, kwargs, result):
    return {"nit": int(getattr(result, "nit", 0))}


def _bvn_attrs(args, kwargs, result):
    counts = [len(user_terms) for user_terms in result.terms]
    return {"users": len(counts), "terms": sum(counts), "terms_max": max(counts)}


def _sweep_unit_attrs(args, kwargs, result):
    # a forked pool worker never returns to main(); write its spans at exit
    if os.getpid() != _state["main_pid"] and not _state["finalizer"]:
        from multiprocessing import util
        util.Finalize(None, _flush, exitpriority=10)
        _state["finalizer"] = True
    return {}


def _forget_parent_spans():
    _spans.clear()
    _stack.clear()
    _state["finalizer"] = False


def install() -> None:
    """Wrap every cross-module call site that the CLI commands reach."""
    from nswrank import _kernels, bvn, cli, core, io, solvers

    _wrap(cli, "_sweep_unit", "cli.sweep_unit", _sweep_unit_attrs)
    _wrap(cli, "generate_market", "synth.generate_market")
    _wrap(cli, "solve_nsw", "solvers.solve_nsw")
    _wrap(cli, "solve_expo_fair", "solvers.solve_expo_fair")
    _wrap(cli, "solve_utility_max", "solvers.solve_utility_max")
    _wrap(cli, "fairness_report", "metrics.fairness_report")
    _wrap(cli, "bvn_decompose", "bvn.decompose", _bvn_attrs)
    _wrap(cli, "reconstruct", "bvn.reconstruct")
    _wrap(cli, "sample_ranking", "bvn.sample")
    _wrap(io, "load_relevance", "io.load_relevance")
    _wrap(io, "save_policy", "io.save_policy", _file_bytes)
    _wrap(io, "load_policy", "io.load_policy")
    _wrap(io, "save_decomposition", "io.save_decomposition", _file_bytes)
    _wrap(io, "load_decomposition", "io.load_decomposition")
    _wrap(solvers, "linprog", "solvers.linprog", _lp_attrs)
    _wrap(_kernels, "fw_solve", "kernels.fw_solve", _fw_attrs)
    _wrap(_kernels, "perfect_matching", "kernels.matching")
    _wrap(core, "renormalize_doubly_stochastic", "core.renormalize")
    _wrap(bvn, "renormalize_doubly_stochastic", "core.renormalize")
    os.register_at_fork(after_in_child=_forget_parent_spans)


def _flush() -> None:
    path = f"{_state['prefix']}.{os.getpid()}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in _spans:
            fh.write(json.dumps(span) + "\n")
    _spans.clear()


def main(argv: list) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_PREFIX <nswrank arguments...>",
              file=sys.stderr)
        return 2
    _state["prefix"] = argv[0]
    _state["main_pid"] = os.getpid()
    sid, parent = _open_span()
    start = time.perf_counter()
    import nswrank.cli
    _close_span(sid, parent, "cli.startup", start, {})
    install()
    try:
        return nswrank.cli.main(argv[1:])
    finally:
        _flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
