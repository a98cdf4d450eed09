"""What each entry point loads: the package resolves its public names on
first access, and each CLI command imports only the modules it runs.

Each footprint is read in a fresh interpreter, since the test process has
every module loaded already.
"""

import json
import subprocess
import sys

import pytest

import nswrank
from nswrank import PolicyTensor, cli
from nswrank import io as nio

PUBLIC = [
    "BvnDecomposition", "DS_TOL", "DegenerateMarketError", "DimensionError",
    "ExposureModel", "FairnessReport", "ImpactFunction", "InfeasibleError",
    "NotDoublyStochastic", "NswConfig", "NswrankError",
    "ParseError", "PolicyTensor", "RankingMixture", "RelevanceMatrix",
    "SchemaError", "SizeError", "SolveDiagnostics", "SolverError",
    "SyntheticConfig", "ZeroMeritError", "__version__", "adversarial_market",
    "amortized_exposure", "brute_force_oracle", "bvn_decompose",
    "envy_matrix", "exposure_profile", "exposure_targets", "fairness_report",
    "generate_market", "item_impact", "max_envy_per_item", "mean_max_envy",
    "merit", "reconstruct", "sample_ranking", "solve_expo_fair", "solve_nsw",
    "solve_uniform", "solve_utility_max", "user_utility",
    "weighted_envy_matrix",
]

# the modules that only some commands need
DEFERRED = ["nswrank.solvers", "nswrank._kernels", "nswrank.bvn",
            "nswrank.metrics", "nswrank.synth", "concurrent.futures", "scipy"]


def loaded_after(code: str, want_rc: int = 0) -> list:
    """The ``DEFERRED`` modules loaded once ``code`` has run in a fresh
    interpreter; ``code`` may set ``rc``, which must be ``want_rc``."""
    probe = (f"import json, sys\nrc = {want_rc}\n{code}\n"
             f"assert rc == {want_rc}, rc\n"
             f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestPackage:
    def test_public_names_are_unchanged(self):
        assert sorted(nswrank.__all__) == PUBLIC

    def test_every_name_resolves(self):
        for name in nswrank.__all__:
            assert getattr(nswrank, name) is not None, name
        assert set(nswrank.__all__) <= set(dir(nswrank))

    def test_submodules_resolve_as_attributes(self):
        # in a fresh interpreter, where no submodule has been imported yet
        assert loaded_after(
            "import nswrank\n"
            "for name in ('_kernels', 'bvn', 'cli', 'core', 'errors', 'io',\n"
            "             'metrics', 'solvers', 'synth'):\n"
            "    mod = getattr(nswrank, name)\n"
            "    assert mod is sys.modules['nswrank.' + name], name"
        ) == ["nswrank.solvers", "nswrank._kernels", "nswrank.bvn",
              "nswrank.metrics", "nswrank.synth"]

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from nswrank import *", namespace)
        assert set(nswrank.__all__) <= set(namespace)
        assert namespace["solve_nsw"] is nswrank.solvers.solve_nsw

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nswrank.no_such_name  # noqa: B018

    def test_import_loads_no_submodule_with_work_in_it(self):
        assert loaded_after("import nswrank") == []

    def test_a_name_loads_only_its_module(self):
        assert loaded_after("from nswrank import RankingMixture") == []
        assert loaded_after("from nswrank import fairness_report") == [
            "nswrank.metrics"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small market, its NSW policy/v2 file, that policy's decomposition
    and its dense marginals as a policy/v1 file, written in this process."""
    d = tmp_path_factory.mktemp("footprint")
    paths = {name: str(d / name) for name in
             ("true.csv", "pred.csv", "nsw.json", "dec.json", "metrics.json",
              "out.json", "dec2.json", "dense.json")}
    for argv in (["generate", "--users", "6", "--items", "5", "--seed", "0",
                  "--out-true", paths["true.csv"],
                  "--out-pred", paths["pred.csv"]],
                 ["solve", "--policy", "nsw", "--relevance", paths["pred.csv"],
                  "--cutoff", "2", "--out", paths["nsw.json"]],
                 ["decompose", "--policy", paths["nsw.json"],
                  "--out", paths["dec.json"]]):
        assert cli.main(argv) == 0
    nsw = nio.load_policy(paths["nsw.json"])["policy"]
    nio.save_policy(paths["dense.json"], PolicyTensor(nsw.dense()), "nsw",
                    "inverse", 2)
    return paths


# per command: the deferred modules it leaves unloaded
COMMANDS = {
    "generate": (["generate", "--users", "6", "--items", "5",
                  "--out-true", "{out.json}", "--out-pred", "{dec2.json}"],
                 ["nswrank.solvers", "nswrank._kernels", "nswrank.bvn",
                  "nswrank.metrics", "concurrent.futures", "scipy"]),
    "solve-nsw": (["solve", "--policy", "nsw", "--relevance", "{pred.csv}",
                   "--cutoff", "2", "--out", "{out.json}"],
                  ["concurrent.futures", "scipy"]),
    "solve-expo-fair": (["solve", "--policy", "expo-fair", "--relevance",
                         "{pred.csv}", "--cutoff", "2", "--out", "{out.json}"],
                        ["concurrent.futures", "scipy"]),
    "evaluate": (["evaluate", "--policy", "{nsw.json}", "--relevance",
                  "{true.csv}", "--cutoff", "2", "--out-json",
                  "{metrics.json}"],
                 ["nswrank.solvers", "nswrank._kernels", "nswrank.bvn",
                  "concurrent.futures"]),
    "decompose": (["decompose", "--policy", "{nsw.json}", "--out",
                   "{dec2.json}"],
                  ["nswrank.solvers", "nswrank._kernels", "nswrank.metrics",
                   "concurrent.futures", "scipy"]),
    "sample": (["sample", "--decomposition", "{dec.json}", "--user", "1",
                "--seed", "3"],
               ["nswrank.solvers", "nswrank._kernels", "nswrank.metrics",
                "concurrent.futures", "scipy"]),
    # refused with exit code 3: no matching is tried
    "decompose-policy-v1": (["decompose", "--policy", "{dense.json}", "--out",
                             "{dec2.json}"],
                            ["nswrank.solvers", "nswrank._kernels",
                             "nswrank.metrics", "concurrent.futures", "scipy"]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_leaves_modules_unloaded(files, command):
    argv, unloaded = COMMANDS[command]
    argv = [files[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
    code = f"from nswrank import cli\nrc = cli.main({argv!r})"
    if command == "solve-expo-fair":
        # the warm HiGHS master ran: its extension loads without the package
        code += ("\nassert 'scipy.optimize._highspy._core' in sys.modules"
                 "\nassert 'scipy.optimize' not in sys.modules")
    want_rc = 3 if command == "decompose-policy-v1" else 0
    assert set(loaded_after(code, want_rc)).isdisjoint(unloaded)


def test_a_patch_on_the_defining_module_does_not_outlive_it(monkeypatch):
    from nswrank import solvers

    def fake(*args, **kwargs):
        raise AssertionError("not called")

    real = solvers.solve_nsw
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "solve_nsw", fake)
        cli._load("solvers")
        assert cli.solve_nsw is fake
    cli._load("solvers")
    assert cli.solve_nsw is real
    # a name replaced on ``cli`` itself keeps its replacement
    monkeypatch.setattr(cli, "solve_nsw", fake)
    cli._load("solvers")
    assert cli.solve_nsw is fake
