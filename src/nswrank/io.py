"""File formats: relevance CSV, policy/metrics/decomposition JSON, sweep CSV.

All formats are platform-independent: LF line endings, UTF-8, period decimal
separator.  Relevance CSVs serialize with 12 significant digits and sweep rows
with 10, both well below every test tolerance; JSON numbers (policy matrices,
decomposition weights) are written at full round-trip precision, so a load
gives back the saved floats bit for bit.  Every load validates the target
type's invariants and fails loudly.

Policy and decomposition JSON hold one large array (m * n^2 matrix entries,
or all BvN terms).  Their writers stream that array one user at a time and
produce exactly the bytes of ``json.dump(doc, fh, indent=2)`` plus a newline.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .bvn import BvnDecomposition
from .core import PolicyTensor, RelevanceMatrix
from .errors import DimensionError, ParseError, SchemaError
from .solvers import SolveDiagnostics

POLICY_SCHEMA = "policy/v1"
METRICS_SCHEMA = "metrics/v1"
DECOMPOSITION_SCHEMA = "decomposition/v1"

SWEEP_HEADER = ("policy,lambda,noise_c,k,n_items,seed,"
                "user_utility,mean_max_envy,pct_improved_10,pct_decreased_10")

# counts of at most 18 digits: int() refuses digit strings past its length
# limit with a ValueError
_HEADER_RE = re.compile(r"^# m=(\d{1,18}) n=(\d{1,18})$")


def _fmt(value: float, digits: int = 12) -> str:
    return f"{value:.{digits}g}"


# ---------------------------------------------------------------- relevance


def save_relevance(rel: RelevanceMatrix, path) -> None:
    lines = [f"# m={rel.m} n={rel.n}"]
    for row in rel.values:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_relevance(path) -> RelevanceMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    if not lines:
        raise ParseError("empty relevance file", line=1)
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise ParseError(f"malformed header {lines[0]!r}, expected '# m=<M> n=<N>'",
                         line=1, column=1)
    m, n = int(match.group(1)), int(match.group(2))
    body = [ln.split(",") for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise DimensionError(f"header declares m={m} rows, file has {len(body)}")
    # every width is checked before the array is allocated: the header alone
    # does not bound its size
    for r, fields in enumerate(body):
        if len(fields) != n:
            raise DimensionError(
                f"header declares n={n} columns, row {r + 1} has {len(fields)}")
    values = np.empty((m, n))
    for r, fields in enumerate(body):
        col = 1
        for c, field in enumerate(fields):
            try:
                # float() also reads "1_0" as 10 and ignores surrounding
                # whitespace; neither is a CSV number
                if "_" in field or field != field.strip():
                    raise ValueError
                value = float(field)
            except ValueError:
                raise ParseError(f"invalid number {field!r}",
                                 line=r + 2, column=col) from None
            if not 0.0 <= value < math.inf:  # also false for nan
                raise ParseError(f"relevance {field!r} is not a finite "
                                 "nonnegative number", line=r + 2, column=col)
            values[r, c] = value
            col += len(field) + 1
    return RelevanceMatrix(values)


# ------------------------------------------------------------------- policy


def save_policy(path, policy: PolicyTensor, policy_type: str,
                exposure_kind: str, cutoff: int,
                diagnostics: SolveDiagnostics | None = None,
                alpha: float | None = None) -> None:
    if not isinstance(policy, PolicyTensor):
        # a PolicyTensor was checked when it was built and is written as it
        # is; anything else that carries matrices is checked here
        policy = PolicyTensor(policy.matrices)
    diag = diagnostics or SolveDiagnostics(objective_value=0.0)
    doc = {
        "schema": POLICY_SCHEMA,
        "m": policy.m,
        "n": policy.n,
        "policy_type": policy_type,
        "alpha": alpha,
        "exposure": {"kind": exposure_kind, "cutoff": cutoff},
        "matrices": _SLOT,
        "diagnostics": {
            "objective": diag.objective_value,
            "duality_gap": diag.duality_gap,
            "iterations": diag.iterations,
            "constraint_residual": diag.constraint_residual,
        },
    }
    # entries are finite (PolicyTensor checks), so repr is json's spelling
    _dump_json_streamed(doc, path, (
        _list_text(list(map(float.__repr__, mat.ravel().tolist())), 2)
        for mat in policy.matrices))


def load_policy(path) -> dict:
    """The policy document, with a ``PolicyTensor`` of the file's exact floats
    under ``"policy"`` in place of the ``"matrices"`` arrays."""
    doc = _read_json(path)
    _require_schema(doc, POLICY_SCHEMA)
    m, n = _int_field(doc, "m"), _int_field(doc, "n")
    matrices = _field(doc, "matrices")
    try:
        mats = np.asarray(matrices, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        raise ParseError("matrices must be arrays of numbers") from None
    if mats.shape != (m, n * n):
        raise DimensionError(
            f"expected {m} row-major arrays of {n * n} numbers, got {mats.shape}")
    # numpy also reads JSON strings and booleans as numbers; the shape check
    # leaves m lists of scalars, whose types one pass collects
    kinds = set()
    for row in matrices:
        kinds.update(map(type, row))
    if not kinds <= {int, float}:
        raise ParseError("matrices must be arrays of numbers, found "
                         + ", ".join(sorted(t.__name__ for t in kinds
                                            - {int, float})))
    # the parsed lists take several times the memory of the array
    del doc["matrices"], matrices
    doc["policy"] = PolicyTensor(mats.reshape(m, n, n))
    return doc


# ------------------------------------------------------------------ metrics


def save_metrics(path, report) -> None:
    ratios = [None if np.isnan(v) else float(v)
              for v in report.per_item_impact_ratio_vs_uniform]
    doc = {
        "schema": METRICS_SCHEMA,
        "user_utility": report.user_utility,
        "mean_max_envy": report.mean_max_envy,
        "pct_improved_10": report.pct_improved_10,
        "pct_decreased_10": report.pct_decreased_10,
        "per_item_impact": [float(v) for v in report.per_item_impact],
        "per_item_ratio_vs_uniform": ratios,
        "excluded_items": list(report.excluded_items),
    }
    _dump_json(doc, path)


def load_metrics(path) -> dict:
    doc = _read_json(path)
    _require_schema(doc, METRICS_SCHEMA)
    impacts = _field(doc, "per_item_impact")
    ratios = _field(doc, "per_item_ratio_vs_uniform")
    if not (isinstance(impacts, list) and isinstance(ratios, list)):
        raise ParseError("per-item impacts and ratios must be lists")
    if len(ratios) != len(impacts):
        raise DimensionError("per-item arrays disagree in length")
    return doc


# ------------------------------------------------------------ decomposition


def save_decomposition(path, dec: BvnDecomposition) -> None:
    doc = {
        "schema": DECOMPOSITION_SCHEMA,
        "m": dec.m,
        "n": dec.n,
        "epsilon": dec.epsilon,
        "users": _SLOT,
    }
    _dump_json_streamed(doc, path, (
        _list_text([_term_text(w, perm) for w, perm in user_terms], 2)
        for user_terms in dec.terms))


def _term_text(weight, items_by_rank) -> str:
    ranks = _list_text(list(map(int.__repr__, items_by_rank.tolist())), 4)
    return (f'{{\n        "weight": {_float_text(float(weight))},'
            f'\n        "items_by_rank": {ranks}\n      }}')


def load_decomposition(path) -> BvnDecomposition:
    doc = _read_json(path)
    _require_schema(doc, DECOMPOSITION_SCHEMA)
    m, n = _int_field(doc, "m"), _int_field(doc, "n")
    epsilon = _field(doc, "epsilon")
    if not _is_number(epsilon):
        raise ParseError(f"epsilon must be a number, got {epsilon!r}")
    users = _field(doc, "users")
    if not isinstance(users, list):
        raise SchemaError("users must be a list")
    if len(users) != m:
        raise DimensionError(f"expected {m} users, got {len(users)}")
    terms = []
    for u, user_terms in enumerate(users):
        try:
            weights = [term["weight"] for term in user_terms]
            perms = [term["items_by_rank"] for term in user_terms]
        except (KeyError, TypeError):
            raise SchemaError(f"user {u}: each term needs a weight and "
                              "items_by_rank") from None
        if not weights:
            raise ParseError(f"user {u} has no terms")
        if not all(_is_number(w) and 0.0 <= w < math.inf for w in weights):
            raise ParseError(f"user {u}: a weight is not a finite nonnegative number")
        try:
            perms = np.array(perms)
        except ValueError:  # ragged lists
            perms = np.array(None)
        if perms.dtype.kind != "i" or perms.shape != (len(weights), n):
            raise ParseError(
                f"user {u}: items_by_rank must be lists of {n} integers")
        # all of a user's terms at once: each sorted row must read 0..n-1
        bad = (np.sort(perms, axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            raise ParseError(f"{perms[bad.argmax()].tolist()} is not a "
                             f"permutation of 0..{n - 1}")
        perms = perms.astype(np.int64, copy=False)
        terms.append(list(zip(map(float, weights), perms)))
    try:
        return BvnDecomposition(m=m, n=n, epsilon=float(epsilon),
                                terms=tuple(terms))
    except ValueError as exc:  # weights that do not sum to 1
        raise ParseError(str(exc)) from None


# -------------------------------------------------------------------- sweep


def format_sweep_row(policy, lam, noise_c, k, n_items, seed, metrics_row) -> str:
    prefix = (f"{policy},{_fmt(lam, 10)},{_fmt(noise_c, 10)},{k},{n_items},{seed}")
    if metrics_row == "error":
        return prefix + ",error,error,error,error"
    return prefix + "," + ",".join(_fmt(v, 10) for v in metrics_row)


# ------------------------------------------------------------------ helpers


def _dump_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# Stands in for the large array of a document until it is streamed out.
_SLOT = "<streamed array>"


def _dump_json_streamed(doc, path, items) -> None:
    """Write ``json.dump(doc, fh, indent=2)`` and a newline, byte for byte.

    One top-level field of ``doc`` holds ``_SLOT`` in place of a list, and no
    string field comes after it.  ``items`` yields the texts of that list's
    elements, each rendered at nesting depth 2; they are written as they come.
    """
    head, _, tail = json.dumps(doc, indent=2).rpartition(json.dumps(_SLOT))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        sep = "[\n    "
        for item in items:
            fh.write(sep)
            fh.write(item)
            sep = ",\n    "
        fh.write("[]" if sep == "[\n    " else "\n  ]")
        fh.write(tail)
        fh.write("\n")


def _list_text(texts: list, depth: int) -> str:
    """``json.dumps(..., indent=2)`` of a list nested ``depth`` levels deep,
    from the texts of its elements."""
    if not texts:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(texts) + "\n" + "  " * depth + "]"


def _float_text(value: float) -> str:
    # json writes finite floats as repr and the rest as NaN / Infinity
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), line=exc.lineno, column=exc.colno) from None


def _require_schema(doc, expected: str) -> None:
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != expected:
        raise SchemaError(f"expected schema {expected!r}, found {found!r}")


def _field(doc: dict, key: str):
    try:
        return doc[key]
    except KeyError:
        raise SchemaError(f"missing field {key!r}") from None


def _int_field(doc: dict, key: str) -> int:
    value = _field(doc, key)
    if type(value) is not int:
        raise ParseError(f"{key} must be an integer, got {value!r}")
    return value


def _is_number(value) -> bool:
    return type(value) in (int, float)
