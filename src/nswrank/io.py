"""File formats: relevance CSV, policy/metrics/decomposition JSON, sweep CSV.

All formats are platform-independent: LF line endings, UTF-8, period decimal
separator.  Relevance CSVs serialize with 12 significant digits and sweep rows
with 10, both well below every test tolerance; JSON numbers (policy and
decomposition weights) are written at full round-trip precision, so a load
gives back the saved floats bit for bit.  Every load validates the target
type's invariants and fails loudly.

A policy file is ``policy/v2``, a ``RankingMixture``: per user, a list of
terms ``{"weight": w, "items_by_rank": prefix}`` with prefixes of any length
0..n.  It is the one policy format: ``save_policy`` refuses any other policy
and ``load_policy`` any other schema, the dense ``policy/v1`` included.  A
decomposition is a ``RankingMixture`` too, in the same ``users`` layout:
``decomposition/v1`` when every term is a full ranking,
``decomposition/v2`` otherwise; ``load_decomposition`` reads both and
checks that each user's weights sum to 1 within ``core.DECOMPOSITION_TOL``
(1e-9).  Every decomposition file records that tolerance as
``"epsilon": 1e-09``, a fixed field that nothing reads.

Policy and decomposition JSON hold one large array, their terms.  Their
writers stream that array one user at a time and produce exactly the bytes
of ``json.dump(doc, fh, indent=2)`` plus a newline.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from .core import DECOMPOSITION_TOL, RankingMixture, RelevanceMatrix, check_size
from .errors import DimensionError, NotDoublyStochastic, ParseError, SchemaError

if TYPE_CHECKING:  # imported where it is used: a command loads only what it runs
    from .solvers import SolveDiagnostics

POLICY_MIXTURE_SCHEMA = "policy/v2"
METRICS_SCHEMA = "metrics/v1"
DECOMPOSITION_SCHEMA = "decomposition/v1"
DECOMPOSITION_PREFIX_SCHEMA = "decomposition/v2"

SWEEP_HEADER = ("policy,lambda,noise_c,k,n_items,seed,"
                "user_utility,mean_max_envy,pct_improved_10,pct_decreased_10")

# counts of at most 18 digits: int() refuses digit strings past its length
# limit with a ValueError
_HEADER_RE = re.compile(r"^# m=(\d{1,18}) n=(\d{1,18})$")


# rows of a relevance file parsed by one numpy call: the fields of a block
# are held as strings only while it is parsed
_BLOCK_ROWS = 256


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


# ---------------------------------------------------------------- relevance


def save_relevance(rel: RelevanceMatrix, path) -> None:
    # '%.12g' % v is f"{v:.12g}": both are CPython's float formatter
    row_fmt = ",".join(["%.12g"] * rel.n) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# m={rel.m} n={rel.n}\n")
        for row in rel.values:
            fh.write(row_fmt % tuple(row.tolist()))


def load_relevance(path) -> RelevanceMatrix:
    # each copy of the file is dropped once the next is made: a 10^4 x 1000
    # file is 149 MB of text
    text = _read_text(path)
    lines = text.splitlines()
    del text
    if not lines:
        raise ParseError("empty relevance file", line=1)
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise ParseError(f"malformed header {lines[0]!r}, expected '# m=<M> n=<N>'",
                         line=1, column=1)
    m, n = int(match.group(1)), int(match.group(2))
    # the body's rows and the file line (1-based) of each
    body, at = [], []
    for number, line in enumerate(lines[1:], 2):
        if line.strip():
            body.append(line)
            at.append(number)
    del lines
    if len(body) != m:
        raise DimensionError(f"header declares m={m} rows, file has {len(body)}")
    # every width is checked before the array is allocated: the header alone
    # does not bound its size
    for r, line in enumerate(body):
        width = line.count(",") + 1
        if width != n:
            raise DimensionError(
                f"header declares n={n} columns, row {r + 1} has {width}")
    values = np.empty((m, n))
    for a in range(0, m, _BLOCK_ROWS):
        _parse_rows(body[a:a + _BLOCK_ROWS], at[a:a + _BLOCK_ROWS],
                    values[a:a + _BLOCK_ROWS])
    return RelevanceMatrix(values)


def _parse_rows(rows: list, at: list, out: np.ndarray) -> None:
    """Parse ``rows``, which are on lines ``at`` of the file, into ``out``.

    Every entry at once: numpy parses each string with float(), so the values
    are the same; rows that fail are parsed again entry by entry to find
    their first bad entry.
    """
    text = ",".join(rows)
    if "_" not in text and text.split() == [text]:  # no whitespace either
        try:
            out[:] = np.array(text.split(","), dtype=np.float64).reshape(out.shape)
        except ValueError:
            pass
        else:
            if np.all((out >= 0.0) & (out < math.inf)):  # false for nan
                return
    for r, (line, number) in enumerate(zip(rows, at)):
        col = 1
        for c, field in enumerate(line.split(",")):
            try:
                # float() also reads "1_0" as 10 and ignores surrounding
                # whitespace; neither is a CSV number
                if "_" in field or field != field.strip():
                    raise ValueError
                value = float(field)
            except ValueError:
                raise ParseError(f"invalid number {field!r}",
                                 line=number, column=col) from None
            if not 0.0 <= value < math.inf:  # also false for nan
                raise ParseError(f"relevance {field!r} is not a finite "
                                 "nonnegative number", line=number, column=col)
            out[r, c] = value
            col += len(field) + 1


# ------------------------------------------------------------------- policy


def save_policy(path, policy: RankingMixture, policy_type: str,
                exposure_kind: str, cutoff: int,
                diagnostics: SolveDiagnostics | None = None,
                alpha: float | None = None) -> None:
    """Write a ``RankingMixture`` as policy/v2; any other policy is a
    ``SchemaError``, raised before the file is opened."""
    if not isinstance(policy, RankingMixture):
        raise SchemaError("a policy file holds a ranking mixture (policy/v2), "
                          f"not a {type(policy).__name__}")
    from .solvers import SolveDiagnostics

    diag = diagnostics or SolveDiagnostics(objective_value=0.0)
    doc = {
        "schema": POLICY_MIXTURE_SCHEMA,
        "m": policy.m,
        "n": policy.n,
        "policy_type": policy_type,
        "alpha": alpha,
        "exposure": {"kind": exposure_kind, "cutoff": cutoff},
        "users": _SLOT,
        "diagnostics": {
            "objective": diag.objective_value,
            "duality_gap": diag.duality_gap,
            "iterations": diag.iterations,
            "constraint_residual": diag.constraint_residual,
        },
    }
    _dump_json_streamed(doc, path, _users_texts(policy))


def load_policy(path) -> dict:
    """The policy/v2 document, with its ``"users"`` replaced by the
    ``RankingMixture`` they hold, under ``"policy"``, in the file's exact
    floats."""
    doc = read_json(path)
    _require_schema(doc, POLICY_MIXTURE_SCHEMA)
    m, n = _int_field(doc, "m"), _int_field(doc, "n")
    counts, weights, lengths, items = _parse_users(doc, m, n, full=False)
    del doc["users"]
    doc["policy"] = RankingMixture.from_counts(n, counts, weights, lengths, items)
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
    doc = read_json(path)
    _require_schema(doc, METRICS_SCHEMA)
    impacts = _field(doc, "per_item_impact")
    ratios = _field(doc, "per_item_ratio_vs_uniform")
    if not (isinstance(impacts, list) and isinstance(ratios, list)):
        raise ParseError("per-item impacts and ratios must be lists")
    if len(ratios) != len(impacts):
        raise DimensionError("per-item arrays disagree in length")
    return doc


# ------------------------------------------------------------ decomposition


def save_decomposition(path, dec: RankingMixture) -> None:
    """decomposition/v1 when every term is a full ranking, else v2."""
    full = np.all(dec.lengths == dec.n)
    doc = {
        "schema": DECOMPOSITION_SCHEMA if full else DECOMPOSITION_PREFIX_SCHEMA,
        "m": dec.m,
        "n": dec.n,
        "epsilon": DECOMPOSITION_TOL,  # a fixed field: nothing reads it
        "users": _SLOT,
    }
    _dump_json_streamed(doc, path, _users_texts(dec))


def _users_texts(mix: RankingMixture):
    """The texts of a mixture's users, one list of terms per user, as json
    writes them in a decomposition or policy/v2 document."""
    items = mix.items.tolist()
    starts = (np.cumsum(mix.lengths) - mix.lengths).tolist()
    # weights are finite (RankingMixture checks), so repr is json's spelling
    terms = [_term_text(w, items[a:a + k]) for w, a, k in zip(
        mix.weights.tolist(), starts, mix.lengths.tolist())]
    indptr = mix.indptr.tolist()
    return (_list_text(terms[a:b], 2) for a, b in zip(indptr, indptr[1:]))


def _term_text(weight: float, items_by_rank: list) -> str:
    """One term of a decomposition or policy/v2 user, as json writes it."""
    ranks = _list_text(list(map(int.__repr__, items_by_rank)), 4)
    return (f'{{\n        "weight": {float.__repr__(weight)},'
            f'\n        "items_by_rank": {ranks}\n      }}')


def load_decomposition(path) -> RankingMixture:
    """A decomposition/v1 (permutations) or v2 (prefixes of length 0..n),
    whose users' weights each sum to 1 within ``DECOMPOSITION_TOL``.  Its
    ``epsilon`` must be a finite number and is discarded."""
    doc = read_json(path)
    schema = _require_schema(doc, DECOMPOSITION_SCHEMA,
                             DECOMPOSITION_PREFIX_SCHEMA)
    m, n = _int_field(doc, "m"), _int_field(doc, "n")
    if m < 1 or n < 2:
        raise DimensionError(f"need m >= 1 and n >= 2, got m={m}, n={n}")
    # a prefix file need not list the n items its rankings hold
    check_size(n)
    epsilon = _field(doc, "epsilon")
    if not _is_finite(epsilon):
        raise ParseError(f"epsilon must be a finite number, got {epsilon!r}")
    counts, weights, lengths, items = _parse_users(
        doc, m, n, full=schema == DECOMPOSITION_SCHEMA)
    try:
        mix = RankingMixture.from_counts(n, counts, weights, lengths, items)
    except NotDoublyStochastic as exc:  # a repeated item, sums that miss 1
        raise ParseError(str(exc)) from None
    sums = np.bincount(mix.term_users(), weights=mix.weights, minlength=m)
    err = np.abs(sums - 1.0)
    if err.max() > DECOMPOSITION_TOL:
        raise ParseError(f"term weights sum to {sums[err.argmax()]}, expected 1")
    return mix


def _parse_users(doc: dict, m: int, n: int, full: bool) -> tuple:
    """The ``users`` of a decomposition or policy/v2 document: each user's
    term count, and over all terms in order their weights (a list of
    floats), prefix lengths and concatenated items_by_rank (int64 arrays).

    Each user needs at least one term, each term a finite nonnegative weight
    and an items_by_rank list of integers in 0..n-1; ``full`` asks for n of
    them, otherwise a prefix of any length 0..n.  That no prefix lists an
    item twice is left to ``RankingMixture``, which checks it when built.
    """
    users = _field(doc, "users")
    if not isinstance(users, list):
        raise SchemaError("users must be a list")
    if len(users) != m:
        raise DimensionError(f"expected {m} users, got {len(users)}")
    counts, weights, ranks = [], [], []
    for u, user_terms in enumerate(users):
        try:
            user_weights = [term["weight"] for term in user_terms]
            ranks += [term["items_by_rank"] for term in user_terms]
        except (KeyError, TypeError):
            raise SchemaError(f"user {u}: each term needs a weight and "
                              "items_by_rank") from None
        if not user_weights:
            raise ParseError(f"user {u} has no terms")
        counts.append(len(user_weights))
        weights += user_weights

    def first_user(flags) -> int:  # the user of the first flagged term
        return int(np.searchsorted(np.cumsum(counts), np.argmax(flags),
                                   side="right"))

    bad = [not (_is_finite(w) and w >= 0.0) for w in weights]
    if any(bad):
        raise ParseError(f"user {first_user(bad)}: a weight is not a finite "
                         "nonnegative number")
    lengths = np.array([len(r) if type(r) is list else -1 for r in ranks],
                       dtype=np.int64)
    bad = lengths != n if full else (lengths < 0) | (lengths > n)
    if bad.any():
        raise ParseError(f"user {first_user(bad)}: items_by_rank must be "
                         f"lists of {'' if full else 'at most '}{n} integers")
    flat = [item for r in ranks for item in r]
    # numpy also reads JSON booleans as integers; one pass collects the types
    if not set(map(type, flat)) <= {int}:
        raise ParseError("items_by_rank must hold integers only")
    outside = ParseError(f"items_by_rank lists an item outside 0..{n - 1}")
    try:
        items = np.array(flat, dtype=np.int64)
    except OverflowError:  # past the int64 range
        raise outside from None
    del flat  # one pointer per item, as large as the array
    if items.size and (items.min() < 0 or items.max() >= n):
        raise outside
    return counts, [float(w) for w in weights], lengths, items


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


def _read_text(path) -> str:
    """A file's text; a byte that is not UTF-8 is a ``ParseError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def read_json(path):
    """A JSON file's value; a file that is not UTF-8 JSON is a ``ParseError``."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno, column=exc.colno) from None
    # an integer past int()'s digit limit, arrays nested past the
    # interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from None


def _require_schema(doc, *expected: str) -> str:
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found not in expected:
        raise SchemaError(f"expected schema {' or '.join(map(repr, expected))}, "
                          f"found {found!r}")
    return found


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


def _is_finite(value) -> bool:
    """Whether a JSON value is a number that a float holds finitely: not NaN
    or infinite, and not an integer too large for float()."""
    return _is_number(value) and abs(value) <= sys.float_info.max
