"""File format round trips and validation failures."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswrank import (
    BvnDecomposition,
    DimensionError,
    ExposureModel,
    NotDoublyStochastic,
    NswConfig,
    ParseError,
    PolicyTensor,
    RankingMixture,
    RelevanceMatrix,
    SchemaError,
    SizeError,
    SolveDiagnostics,
    bvn_decompose,
    item_impact,
    reconstruct,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
    solve_utility_max,
)
from nswrank import io as nio


class TestRelevanceCsv:
    def test_serializes_toy_market_exactly(self, tmp_path, toy_market):
        rel, _ = toy_market
        path = tmp_path / "rel.csv"
        nio.save_relevance(rel, path)
        assert path.read_bytes() == b"# m=2 n=2\n0.8,0.3\n0.5,0.4\n"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rel = RelevanceMatrix(rng.uniform(0, 1, (7, 5)))
        path = tmp_path / "rel.csv"
        nio.save_relevance(rel, path)
        loaded = nio.load_relevance(path)
        assert np.allclose(loaded.values, rel.values, rtol=1e-11, atol=0)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("users=2 items=2\n0.8,0.3\n0.5,0.4\n")
        with pytest.raises(ParseError) as err:
            nio.load_relevance(path)
        assert err.value.line == 1

    def test_bad_number_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# m=2 n=2\n0.8,0.3\n0.5,oops\n")
        with pytest.raises(ParseError) as err:
            nio.load_relevance(path)
        assert err.value.line == 3
        assert err.value.column == 5

    def test_bad_number_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# m=2 n=2\n\n0.8,0.3\n0.5,oops\n")
        with pytest.raises(ParseError) as err:
            nio.load_relevance(path)
        assert (err.value.line, err.value.column) == (4, 5)

    @pytest.mark.parametrize("field", ["1_0", "0_5", " 2", "2 ", "\t2",
                                       "2\u00a0"])
    def test_python_only_spellings_rejected(self, tmp_path, field):
        # float() accepts digit grouping and surrounding whitespace
        path = tmp_path / "bad.csv"
        path.write_text(f"# m=2 n=2\n0.8,0.3\n0.5,{field}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            nio.load_relevance(path)
        assert (err.value.line, err.value.column) == (3, 5)

    def test_header_body_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# m=3 n=2\n0.8,0.3\n0.5,0.4\n")
        with pytest.raises(DimensionError):
            nio.load_relevance(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# m=2 n=2\n0.8,0.3\n0.5,\xff\n")
        with pytest.raises(ParseError) as err:
            nio.load_relevance(path)
        assert err.value.line == 3


_FIELDS = st.one_of(
    st.sampled_from(["0", "0.5", "1e-300", "-0.0", "-1", "nan", "-nan", "inf",
                     "Infinity", "1e400", "", " 2", "0x1", "1_0", "abc"]),
    st.text(max_size=6))
_HEADERS = st.one_of(
    st.builds("# m={} n={}".format, st.integers(0, 4),
              st.integers(0, 4) | st.just(10**11)),
    st.sampled_from(["# m=1 n=2", "# m=" + "9" * 5000 + " n=2", "# m=1", ""]),
    st.text(max_size=12))


@st.composite
def _relevance_files(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    header = draw(_HEADERS)
    rows = draw(st.lists(st.lists(_FIELDS, min_size=1, max_size=4), max_size=4))
    text = "\n".join([header] + [",".join(row) for row in rows])
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=_relevance_files())
def test_load_relevance_fuzz_raises_only_typed_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    try:
        rel = nio.load_relevance(path)
    except (ParseError, DimensionError):
        return
    assert np.all(np.isfinite(rel.values)) and np.all(rel.values >= 0)


def reference_load_relevance(data: bytes):
    """Reference: the relevance parse entry by entry, as (values, None) or
    (None, (error type, line, column))."""
    try:
        lines = data.decode("utf-8").splitlines()
        if not lines:
            raise ParseError("empty", line=1)
        match = nio._HEADER_RE.match(lines[0])
        if not match:
            raise ParseError("header", line=1, column=1)
        m, n = int(match.group(1)), int(match.group(2))
        # each row's fields, with its line in the file
        body = [(number, ln.split(",")) for number, ln in enumerate(lines[1:], 2)
                if ln.strip()]
        if len(body) != m or any(len(fields) != n for _, fields in body):
            raise DimensionError("shape")
        values = np.empty((m, n))
        for r, (number, fields) in enumerate(body):
            col = 1
            for c, field in enumerate(fields):
                try:
                    if "_" in field or field != field.strip():
                        raise ValueError
                    values[r, c] = float(field)
                except ValueError:
                    raise ParseError("number", line=number, column=col) from None
                if not 0.0 <= values[r, c] < np.inf:
                    raise ParseError("range", line=number, column=col)
                col += len(field) + 1
        return RelevanceMatrix(values).values, None
    except UnicodeDecodeError:
        return None, (ParseError, None, None)
    except (ParseError, DimensionError) as exc:
        return None, (type(exc), getattr(exc, "line", None),
                      getattr(exc, "column", None))


@st.composite
def _mostly_valid_relevance_files(draw):
    """A well-formed file of floats at full precision, with up to two
    entries replaced by a fuzz field."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    rows = [[repr(draw(st.floats(0.0, 1e6))) for _ in range(n)]
            for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = (
            draw(_FIELDS))
    text = "\n".join([f"# m={m} n={n}"] + [",".join(row) for row in rows])
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=_relevance_files() | _mostly_valid_relevance_files())
def test_load_relevance_decides_as_the_entry_by_entry_parse(tmp_path_factory,
                                                            data):
    # the whole-file parse accepts, rejects and locates errors exactly as
    # parsing every entry on its own does, and gives the same floats
    path = tmp_path_factory.getbasetemp() / "same.csv"
    path.write_bytes(data)
    want, error = reference_load_relevance(data)
    try:
        got = nio.load_relevance(path).values
    except (ParseError, DimensionError) as exc:
        assert error is not None
        if error[1] is not None:
            assert (type(exc), exc.line, exc.column) == error
        return
    assert error is None
    assert got.tobytes() == want.tobytes()


# mantissa x 10^e over every decade a float reaches, plus signed zeros and
# subnormals
_WRITTEN_VALUES = st.one_of(
    st.builds(lambda mantissa, e: mantissa * 10.0 ** e,
              st.floats(1.0, 10.0), st.integers(-320, 300)),
    st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308]),
    st.floats(0.0, 2.2250738585072014e-308))


@st.composite
def _written_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    return [draw(st.lists(_WRITTEN_VALUES, min_size=n, max_size=n))
            for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(rows=_written_matrices())
def test_save_relevance_writes_each_entry_at_12_digits(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "written.csv"
    nio.save_relevance(RelevanceMatrix(rows), path)
    want = f"# m={len(rows)} n={len(rows[0])}\n" + "".join(
        ",".join(format(v, ".12g") for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


# sha256 of the desk market's files, 100 x 50, seed 0, lambda 0.5, noise 0.05
GOLDEN_GENERATE_SHA256 = {
    "true.csv":
        "ab2e5e5a3a877a2cdc388ecee729768821d53b46ee88e39ac4c2e1618387f5b8",
    "pred.csv":
        "dedb5fdbaf72006077bee2fe4d82f435fb5856f768971b4c64c465c8e859e6db",
}


def test_generate_golden_bytes(tmp_path):
    from nswrank.cli import main

    assert main(["generate", "--users", "100", "--items", "50", "--seed", "0",
                 "--lambda", "0.5", "--noise", "0.05",
                 "--out-true", str(tmp_path / "true.csv"),
                 "--out-pred", str(tmp_path / "pred.csv")]) == 0
    for name, digest in GOLDEN_GENERATE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == (
            digest), name


class TestRelevanceBlocks:
    """Files longer than one block of rows load as the entry-by-entry parse
    does."""

    M = 2 * nio._BLOCK_ROWS + 3
    N = 3

    def rows(self) -> list:
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1e3, (self.M, self.N)).tolist()
        return [[repr(v) for v in row] for row in values]

    def load_as_reference(self, tmp_path, rows, blank_after=None):
        lines = [",".join(row) for row in rows]
        if blank_after is not None:
            lines.insert(blank_after + 1, "")
        data = "\n".join([f"# m={self.M} n={self.N}"] + lines).encode("utf-8")
        path = tmp_path / "blocks.csv"
        path.write_bytes(data)
        want, error = reference_load_relevance(data)
        try:
            got = nio.load_relevance(path).values
        except (ParseError, DimensionError) as exc:
            assert (type(exc), getattr(exc, "line", None),
                    getattr(exc, "column", None)) == error
            return exc
        assert error is None
        assert got.tobytes() == want.tobytes()
        return got

    def test_valid(self, tmp_path):
        got = self.load_as_reference(tmp_path, self.rows())
        assert got.shape == (self.M, self.N)

    @pytest.mark.parametrize("field", ["oops", "-0.5", "1_0", " 2"])
    @pytest.mark.parametrize("blank_after", [None, nio._BLOCK_ROWS - 1])
    def test_bad_entry_in_a_later_block(self, tmp_path, field, blank_after):
        rows = self.rows()
        rows[nio._BLOCK_ROWS + 5][1] = field
        exc = self.load_as_reference(tmp_path, rows, blank_after)
        assert isinstance(exc, ParseError)
        assert exc.line - 2 >= nio._BLOCK_ROWS  # a row of the second block

    def test_blank_line_between_blocks(self, tmp_path):
        self.load_as_reference(tmp_path, self.rows(), nio._BLOCK_ROWS - 1)

    def test_short_row_in_the_last_block_allocates_nothing(self, tmp_path,
                                                           monkeypatch):
        rows = self.rows()
        rows[-1].pop()

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the row widths were checked")

        monkeypatch.setattr(nio.np, "empty", no_allocation)
        exc = self.load_as_reference(tmp_path, rows)
        assert isinstance(exc, DimensionError)


class TestPolicyJson:
    def test_round_trip_preserves_impacts(self, tmp_path, toy_market):
        rel, exp = toy_market
        policy, diag = solve_nsw(rel, exp)
        path = tmp_path / "policy.json"
        nio.save_policy(path, policy, "nsw", "inverse", 1, diagnostics=diag, alpha=0.0)
        doc = nio.load_policy(path)
        imp = item_impact(doc["policy"], rel, exp)
        assert np.allclose(imp, [0.8, 0.4], atol=1e-9)
        assert doc["policy_type"] == "nsw"
        assert doc["exposure"] == {"kind": "inverse", "cutoff": 1}
        # the parsed arrays are dropped once the tensor is built
        assert "matrices" not in doc

    def test_load_gives_back_the_saved_floats(self, tmp_path):
        # a loaded policy is measured exactly as it was saved
        rel, exp = small_market(m=30, n=12, cutoff=5)
        policies = {"max": solve_utility_max(rel, exp),
                    "uniform": solve_uniform(rel.m, rel.n),
                    "expo-fair": solve_expo_fair(rel, exp)[0],
                    "nsw": solve_nsw(rel, exp)[0]}
        changed = []
        for name, policy in policies.items():
            path = tmp_path / f"{name}.json"
            nio.save_policy(path, policy, name, "inverse", 5)
            loaded = nio.load_policy(path)["policy"]
            if not same_mixture(loaded, policy):
                changed.append(name)
        assert changed == []

    def test_unknown_schema(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"schema": "policy/v9", "m": 1, "n": 2}))
        with pytest.raises(SchemaError):
            nio.load_policy(path)

    def test_save_rejects_non_doubly_stochastic(self, tmp_path):
        class Shim:
            matrices = np.array([[[0.9, 0.0], [0.0, 0.9]]])

        with pytest.raises(NotDoublyStochastic):
            nio.save_policy(tmp_path / "bad.json", Shim(), "uniform", "inverse", 1)

    def test_load_rejects_non_doubly_stochastic(self, tmp_path):
        path = tmp_path / "policy.json"
        doc = {"schema": "policy/v1", "m": 1, "n": 2, "policy_type": "uniform",
               "alpha": None, "exposure": {"kind": "inverse", "cutoff": 1},
               "matrices": [[0.9, 0.0, 0.0, 0.9]],
               "diagnostics": {"objective": 0, "duality_gap": None,
                               "iterations": 0, "constraint_residual": None}}
        path.write_text(json.dumps(doc))
        with pytest.raises(NotDoublyStochastic):
            nio.load_policy(path)

    @pytest.mark.parametrize("field", ["matrices", "m", "n"])
    def test_rejects_missing_fields(self, tmp_path, field):
        path = tmp_path / "policy.json"
        nio.save_policy(path, UNIFORM_TENSOR, "uniform", "inverse", 1)
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=field):
            nio.load_policy(path)

    def test_rejects_non_numeric_matrices(self, tmp_path):
        path = tmp_path / "policy.json"
        nio.save_policy(path, UNIFORM_TENSOR, "uniform", "inverse", 1)
        doc = json.loads(path.read_text())
        doc["matrices"] = [[0.5, 0.5, 0.5], [0.5]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            nio.load_policy(path)

    @pytest.mark.parametrize("row", [
        ["1.0", False, 0, True],
        [True, False, False, True],
        [1.0, False, 0, 1],
        [1.0, None, 0.0, 1.0],
        [10**400, 0.0, 0.0, 1.0],
    ], ids=["string-and-booleans", "booleans", "boolean-among-numbers",
            "null", "huge-integer"])
    def test_rejects_entries_that_are_not_numbers(self, tmp_path, row):
        # numpy reads each of these rows as a 2 x 2 matrix of floats
        path = tmp_path / "policy.json"
        nio.save_policy(path, UNIFORM_TENSOR, "uniform", "inverse", 1)
        doc = json.loads(path.read_text())
        doc["matrices"] = [row]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            nio.load_policy(path)

    def test_integer_entries_are_numbers(self, tmp_path):
        path = tmp_path / "policy.json"
        nio.save_policy(path, UNIFORM_TENSOR, "uniform", "inverse", 1)
        doc = json.loads(path.read_text())
        doc["matrices"] = [[1, 0, 0.0, 1.0]]
        path.write_text(json.dumps(doc))
        assert np.array_equal(nio.load_policy(path)["policy"].matrices[0],
                              np.eye(2))


class TestMixturePolicyJson:
    def test_solvers_write_mixtures_and_tensors_stay_dense(self, tmp_path):
        rel, exp = small_market()
        nio.save_policy(tmp_path / "max.json", solve_utility_max(rel, exp),
                        "max", "inverse", 2)
        nio.save_policy(tmp_path / "dense.json", UNIFORM_TENSOR, "uniform",
                        "inverse", 1)
        assert json.loads((tmp_path / "max.json").read_text())["schema"] == (
            "policy/v2")
        assert json.loads((tmp_path / "dense.json").read_text())["schema"] == (
            "policy/v1")

    @pytest.mark.parametrize("terms, error", [
        ([{"weight": 1.0}], SchemaError),
        ([{"weight": "heavy", "items_by_rank": [0]}], ParseError),
        # RankingMixture refuses a repeated item, as it does in memory
        ([{"weight": 1.0, "items_by_rank": [0, 0]}], NotDoublyStochastic),
        ([{"weight": 1.0, "items_by_rank": [0, 2]}], ParseError),
        ([{"weight": 1.0, "items_by_rank": [-1]}], ParseError),
        ([{"weight": 1.0, "items_by_rank": [0.0]}], ParseError),
        ([{"weight": 1.0, "items_by_rank": [0, 1, 0]}], ParseError),
        ([{"weight": 1.0, "items_by_rank": 0}], ParseError),
        ([{"weight": 0.5, "items_by_rank": []}], NotDoublyStochastic),
        ([], ParseError),
        # an integer too large for float() is not a finite weight
        ([{"weight": 10**400, "items_by_rank": []}], ParseError),
        # numpy would read these booleans as the prefixes [0, 1] and [1]
        ([{"weight": 1.0, "items_by_rank": [False, 1]}], ParseError),
        ([{"weight": 1.0, "items_by_rank": [True]}], ParseError),
        ([{"weight": 1.0, "items_by_rank": [2**64]}], ParseError),
    ], ids=["no-items_by_rank", "text-weight", "repeated-item",
            "item-out-of-range", "negative-item", "float-item",
            "longer-than-n", "not-a-list", "weights-sum-0.5", "no-terms",
            "weight-past-float", "bool-and-int-items", "bool-item",
            "item-past-int64"])
    def test_rejects_malformed_terms(self, tmp_path, terms, error):
        path = tmp_path / "policy.json"
        nio.save_policy(path, solve_uniform(2, 2), "uniform", "inverse", 1)
        doc = json.loads(path.read_text())
        doc["users"][1] = terms
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            nio.load_policy(path)

    @pytest.mark.parametrize("users, error", [
        ({}, SchemaError), ([[{"weight": 1.0, "items_by_rank": []}]],
                            DimensionError)])
    def test_rejects_a_bad_user_list(self, tmp_path, users, error):
        path = tmp_path / "policy.json"
        nio.save_policy(path, solve_uniform(2, 2), "uniform", "inverse", 1)
        doc = json.loads(path.read_text())
        doc["users"] = users
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            nio.load_policy(path)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.just(10**30)
    | st.just(10**400)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["weight", "items_by_rank", "x"]), inner,
                      max_size=3),
    max_leaves=10)


def _paths(value, path=()):
    """Every place in a JSON document: the paths of its containers' items."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _edited(draw, doc: dict) -> dict:
    """``doc`` after up to three edits, each replacing or deleting one field,
    list entry or term anywhere in it."""
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_JSON_VALUES)
        else:
            del parent[path[-1]]
    return doc


@st.composite
def _policy_docs(draw):
    """A valid policy/v1 or policy/v2 document, then up to three edits."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        users = []
        for _ in range(m):
            k = draw(st.integers(1, 3))
            users.append([{"weight": 1.0 / k,
                           "items_by_rank": draw(st.permutations(range(n)))[
                               :draw(st.integers(0, n))]} for _ in range(k)])
        doc = {"schema": "policy/v2", "m": m, "n": n, "users": users}
    else:
        mats = [np.eye(n)[draw(st.permutations(range(n)))].ravel().tolist()
                for _ in range(m)]
        doc = {"schema": "policy/v1", "m": m, "n": n, "matrices": mats}
    return _edited(draw, doc)


@settings(max_examples=400, deadline=None)
@given(doc=_policy_docs() | _JSON_VALUES)
def test_load_policy_fuzz_raises_only_typed_errors(tmp_path_factory, doc):
    # both policy/v1 and policy/v2 documents, malformed in any field
    path = tmp_path_factory.getbasetemp() / "fuzz-policy.json"
    path.write_text(json.dumps(doc))
    try:
        policy = nio.load_policy(path)["policy"]
    except (ParseError, SchemaError, DimensionError, NotDoublyStochastic):
        return
    assert policy.m >= 1 and policy.n >= 2
    if policy.n < 100:
        X = policy.dense()
        assert np.abs(X.sum(axis=1) - 1.0).max() <= 1e-6


class TestMetricsJson:
    def test_round_trip_with_excluded_items(self, tmp_path):
        from nswrank import fairness_report, solve_utility_max

        rel = RelevanceMatrix([[0.6, 0.0], [0.4, 0.0]])
        exp = ExposureModel.make("inverse", 2, 1)
        report = fairness_report(solve_utility_max(rel, exp), rel, exp)
        path = tmp_path / "metrics.json"
        nio.save_metrics(path, report)
        doc = nio.load_metrics(path)
        assert doc["excluded_items"] == [1]
        assert doc["per_item_ratio_vs_uniform"][1] is None
        assert doc["user_utility"] == pytest.approx(report.user_utility)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"schema": "policy/v1"}))
        with pytest.raises(SchemaError):
            nio.load_metrics(path)

    @pytest.mark.parametrize("doc, error", [
        ({"schema": "metrics/v1"}, SchemaError),
        ({"schema": "metrics/v1", "per_item_impact": [1.0]}, SchemaError),
        ({"schema": "metrics/v1", "per_item_impact": 1.0,
          "per_item_ratio_vs_uniform": [1.0]}, ParseError),
        ({"schema": "metrics/v1", "per_item_impact": [1.0],
          "per_item_ratio_vs_uniform": "1.0"}, ParseError),
        ({"schema": "metrics/v1", "per_item_impact": [1.0],
          "per_item_ratio_vs_uniform": [1.0, None]}, DimensionError),
    ])
    def test_rejects_malformed_per_item_arrays(self, tmp_path, doc, error):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            nio.load_metrics(path)


class TestDecompositionJson:
    def test_round_trip(self, tmp_path):
        dec = bvn_decompose(solve_uniform(2, 3))
        path = tmp_path / "dec.json"
        nio.save_decomposition(path, dec)
        loaded = nio.load_decomposition(path)
        assert loaded.m == dec.m and loaded.n == dec.n
        assert np.allclose(reconstruct(loaded).matrices,
                           reconstruct(dec).matrices, atol=1e-12)

    def test_prefix_decomposition_round_trips_as_v2(self, tmp_path):
        mix = RankingMixture.from_counts(3, [2, 1], [0.25, 0.75, 1.0],
                                         [1, 0, 3], [2, 1, 0, 2])
        dec = bvn_decompose(mix)
        path = tmp_path / "dec.json"
        nio.save_decomposition(path, dec)
        text = path.read_bytes()
        doc = json.loads(text)
        assert doc["schema"] == "decomposition/v2"
        loaded = nio.load_decomposition(path)
        assert same_mixture(loaded.mixture, mix)
        nio.save_decomposition(path, loaded)
        assert path.read_bytes() == text
        # decomposition/v1 holds permutations only
        doc["schema"] = "decomposition/v1"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="lists of 3 integers"):
            nio.load_decomposition(path)

    def test_rejects_a_nan_weight(self):
        # so no decomposition file can hold one
        with pytest.raises(NotDoublyStochastic):
            BvnDecomposition(mixture=RankingMixture.from_counts(
                2, [1], [float("nan")], [2], [0, 1]), epsilon=1e-9)

    def test_rejects_non_permutation(self, tmp_path):
        path = tmp_path / "dec.json"
        doc = {"schema": "decomposition/v1", "m": 1, "n": 2, "epsilon": 1e-9,
               "users": [[{"weight": 1.0, "items_by_rank": [0, 0]}]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            nio.load_decomposition(path)

    @pytest.mark.parametrize("terms, error", [
        ([{"weight": 1.0}], SchemaError),
        ([{"weight": "heavy", "items_by_rank": [0, 1]}], ParseError),
        ([{"weight": None, "items_by_rank": [0, 1]}], ParseError),
        ([{"weight": 1.0, "items_by_rank": ["a", 1]}], ParseError),
        ([{"weight": 1.0, "items_by_rank": [0.0, 1.0]}], ParseError),
        ([{"weight": 0.5, "items_by_rank": [0, 1]},
          {"weight": 0.5, "items_by_rank": [1]}], ParseError),
        ([{"weight": 0.5, "items_by_rank": [0, 1]},
          {"weight": 0.4, "items_by_rank": [1, 0]}], ParseError),
        ([], ParseError),
        # these three pass the sum check, which compares with 1 by abs()
        ([{"weight": float("nan"), "items_by_rank": [0, 1]}], ParseError),
        ([{"weight": 1.5, "items_by_rank": [0, 1]},
          {"weight": -0.5, "items_by_rank": [1, 0]}], ParseError),
        ([{"weight": float("inf"), "items_by_rank": [0, 1]},
          {"weight": -float("inf"), "items_by_rank": [1, 0]}], ParseError),
        ([{"weight": 10**400, "items_by_rank": [0, 1]}], ParseError),
        # numpy would read this boolean as item 1
        ([{"weight": 1.0, "items_by_rank": [True, 0]}], ParseError),
    ], ids=["no-items_by_rank", "text-weight", "null-weight", "text-rank",
            "float-rank", "ragged-ranks", "weights-sum-0.9", "no-terms",
            "nan-weight", "negative-weight", "infinite-weights",
            "weight-past-float", "bool-rank"])
    def test_rejects_malformed_terms(self, tmp_path, terms, error):
        path = tmp_path / "dec.json"
        doc = {"schema": "decomposition/v1", "m": 2, "n": 2, "epsilon": 1e-9,
               "users": [[{"weight": 1.0, "items_by_rank": [1, 0]}], terms]}
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            nio.load_decomposition(path)

    @pytest.mark.parametrize("field", ["m", "n", "epsilon", "users"])
    def test_rejects_missing_fields(self, tmp_path, field):
        path = tmp_path / "dec.json"
        doc = {"schema": "decomposition/v1", "m": 1, "n": 2, "epsilon": 1e-9,
               "users": [[{"weight": 1.0, "items_by_rank": [1, 0]}]]}
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=field):
            nio.load_decomposition(path)

    @pytest.mark.parametrize("fields, error", [
        ({"n": 0, "users": [[{"weight": 1.0, "items_by_rank": []}]]},
         DimensionError),
        ({"m": 0, "users": []}, DimensionError),
        ({"epsilon": float("nan")}, ParseError),
        ({"epsilon": 10**400}, ParseError),
    ], ids=["no-items", "no-users", "nan-epsilon", "epsilon-past-float"])
    def test_rejects_bad_sizes_and_epsilon(self, tmp_path, fields, error):
        path = tmp_path / "dec.json"
        doc = {"schema": "decomposition/v1", "m": 1, "n": 2, "epsilon": 1e-9,
               "users": [[{"weight": 1.0, "items_by_rank": [1, 0]}]], **fields}
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            nio.load_decomposition(path)


@st.composite
def _metrics_docs(draw):
    """A valid metrics/v1 document, then up to three edits."""
    n = draw(st.integers(1, 4))
    doc = {"schema": "metrics/v1", "user_utility": 1.0, "mean_max_envy": 0.0,
           "pct_improved_10": 0.0, "pct_decreased_10": 0.0,
           "per_item_impact": [0.5] * n,
           "per_item_ratio_vs_uniform": [1.0] * (n - 1) + [None],
           "excluded_items": []}
    return _edited(draw, doc)


@settings(max_examples=300, deadline=None)
@given(doc=_metrics_docs() | _JSON_VALUES)
def test_load_metrics_fuzz_raises_only_typed_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz-metrics.json"
    path.write_text(json.dumps(doc))
    try:
        loaded = nio.load_metrics(path)
    except (ParseError, SchemaError, DimensionError):
        return
    assert len(loaded["per_item_impact"]) == len(
        loaded["per_item_ratio_vs_uniform"])


@st.composite
def _decomposition_docs(draw):
    """A decomposition/v1 or decomposition/v2 document, valid but for its
    sizes (down to 0) and epsilon (any float), then up to three edits."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    full = draw(st.booleans())
    users = []
    for _ in range(m):
        k = draw(st.integers(1, 3))
        users.append([{"weight": 1.0 / k,
                       "items_by_rank": draw(st.permutations(range(n)))[
                           :n if full else draw(st.integers(0, n))]}
                      for _ in range(k)])
    epsilon = draw(st.just(1e-9) | st.floats() | st.just(10**400))
    doc = {"schema": "decomposition/v1" if full else "decomposition/v2",
           "m": m, "n": n, "epsilon": epsilon, "users": users}
    return _edited(draw, doc)


@settings(max_examples=400, deadline=None)
@given(doc=_decomposition_docs() | _JSON_VALUES)
def test_load_decomposition_fuzz_raises_only_typed_errors(tmp_path_factory,
                                                          doc):
    path = tmp_path_factory.getbasetemp() / "fuzz-decomposition.json"
    path.write_text(json.dumps(doc))
    try:
        dec = nio.load_decomposition(path)
    except (ParseError, SchemaError, DimensionError, SizeError):
        return
    assert dec.m == len(dec.terms) >= 1 and dec.n >= 2
    assert np.isfinite(dec.epsilon)
    for user_terms in dec.terms:
        for _, prefix in user_terms:
            items = sorted(prefix.tolist())
            assert items == sorted(set(items)) and set(items) <= set(range(dec.n))
            if doc["schema"] == "decomposition/v1":
                assert items == list(range(dec.n))


# a policy/v1 file: a PolicyTensor is written as its matrices
UNIFORM_TENSOR = PolicyTensor(np.full((1, 2, 2), 0.5))


def same_mixture(a, b) -> bool:
    """Whether two mixtures hold the same arrays bit for bit."""
    return a.n == b.n and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("indptr", "weights", "lengths", "items"))


def mixture_users(policy) -> list:
    """The users of a policy/v2 document, term by term."""
    starts = np.cumsum(policy.lengths) - policy.lengths
    terms = [{"weight": float(w), "items_by_rank": policy.items[a:a + k].tolist()}
             for w, a, k in zip(policy.weights, starts, policy.lengths)]
    return [terms[a:b] for a, b in zip(policy.indptr[:-1], policy.indptr[1:])]


def json_dump_text(doc) -> str:
    """What ``json.dump(doc, fh, indent=2)`` and a newline write."""
    return json.dumps(doc, indent=2) + "\n"


def small_market(m=6, n=4, cutoff=2, seed=0):
    rng = np.random.default_rng(seed)
    rel = RelevanceMatrix(rng.uniform(0.1, 1.0, (m, n)))
    return rel, ExposureModel.make("inverse", n, cutoff)


def solved_policies():
    """(name, policy, diagnostics, alpha) from each of the four solvers."""
    rel, exp = small_market()
    fair, fair_diag = solve_expo_fair(rel, exp)
    nsw, nsw_diag = solve_nsw(rel, exp, NswConfig(alpha=0.5))
    return [("max", solve_utility_max(rel, exp), None, None),
            ("uniform", solve_uniform(rel.m, rel.n), None, None),
            ("expo-fair", fair, fair_diag, None),
            ("nsw", nsw, nsw_diag, 0.5)]


def awkward_policy() -> PolicyTensor:
    # one 2 x 2 user per float whose repr is easy to get wrong
    mats = [[[a, 1.0 - a], [1.0 - a, a]] for a in (5e-324, 1e-17, 0.1, 1 / 3)]
    return PolicyTensor(np.array(mats))


class TestStreamedWritersMatchJsonDump:
    @pytest.mark.parametrize("case", range(5))
    def test_save_policy(self, tmp_path, case):
        cases = solved_policies() + [("uniform", awkward_policy(), None, None)]
        name, policy, diag, alpha = cases[case]
        path = tmp_path / "policy.json"
        nio.save_policy(path, policy, name, "inverse", 2, diagnostics=diag,
                        alpha=alpha)
        diag = diag or SolveDiagnostics(objective_value=0.0)
        if isinstance(policy, RankingMixture):
            schema, field = nio.POLICY_MIXTURE_SCHEMA, "users"
            body = mixture_users(policy)
        else:
            schema, field = nio.POLICY_SCHEMA, "matrices"
            body = [mat.ravel().tolist() for mat in policy.matrices]
        expected = json_dump_text({
            "schema": schema,
            "m": policy.m,
            "n": policy.n,
            "policy_type": name,
            "alpha": alpha,
            "exposure": {"kind": "inverse", "cutoff": 2},
            field: body,
            "diagnostics": {
                "objective": diag.objective_value,
                "duality_gap": diag.duality_gap,
                "iterations": diag.iterations,
                "constraint_residual": diag.constraint_residual,
            },
        })
        assert path.read_text(encoding="utf-8") == expected
        if case == 4:
            assert "5e-324" in expected and "1e-17" in expected

    def test_save_policy_writes_a_policy_tensor_as_it_is(self, tmp_path):
        # an LP solution carries residue of about an ulp, so any rewrite of
        # the entries on save would show up here
        rel, exp = small_market(m=30, n=12, cutoff=5)
        mixture, diag = solve_expo_fair(rel, exp)
        policy = PolicyTensor(mixture.dense())
        path = tmp_path / "policy.json"
        nio.save_policy(path, policy, "expo-fair", "inverse", 5, diagnostics=diag)
        saved = np.array(json.loads(path.read_text())["matrices"])
        assert np.array_equal(saved, policy.matrices.reshape(rel.m, -1))

    @pytest.mark.parametrize("source", ["uniform", "nsw", "expo-fair", "awkward"])
    def test_save_decomposition(self, tmp_path, source):
        rel, exp = small_market()
        if source == "uniform":
            dec = bvn_decompose(solve_uniform(3, 3))
        elif source == "nsw":
            dec = bvn_decompose(solve_nsw(rel, exp)[0])
        elif source == "expo-fair":
            dec = bvn_decompose(solve_expo_fair(rel, exp)[0])
        else:
            weights = [1 / 3, 2 / 3, 0.1, 0.9, 5e-324, 1.0]
            dec = BvnDecomposition(mixture=RankingMixture.from_counts(
                2, [2, 2, 2], weights, [2] * 6, [0, 1, 1, 0] * 3), epsilon=1e-9)
        path = tmp_path / "dec.json"
        nio.save_decomposition(path, dec)
        # decomposition/v1 when every term is a full ranking
        full = all(len(p) == dec.n for user in dec.terms for _, p in user)
        expected = json_dump_text({
            "schema": (nio.DECOMPOSITION_SCHEMA if full
                       else nio.DECOMPOSITION_PREFIX_SCHEMA),
            "m": dec.m,
            "n": dec.n,
            "epsilon": dec.epsilon,
            "users": [
                [{"weight": float(w), "items_by_rank": perm.tolist()}
                 for w, perm in user_terms]
                for user_terms in dec.terms
            ],
        })
        assert path.read_text(encoding="utf-8") == expected


class TestSweepCsv:
    def test_error_marker_row(self):
        row = nio.format_sweep_row("nsw", 0.5, 0.05, 5, 50, 3, "error")
        assert row == "nsw,0.5,0.05,5,50,3,error,error,error,error"

    def test_ten_significant_digits(self):
        row = nio.format_sweep_row("max", 1 / 3, 0.05, 5, 50, 0,
                                   (1.234567891234, 0, 0, 0))
        assert "1.234567891" in row
        assert "0.3333333333" in row
