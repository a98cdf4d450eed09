"""Impact-fair stochastic ranking for two-sided markets.

Computes ranking policies that treat items as agents in a fair-division
problem: the Nash-social-welfare solver (optionally merit-weighted), the
merit-proportional exposure LP baseline, utility-max and uniform references,
Birkhoff-von-Neumann sampling of concrete rankings, and a fairness audit
suite (envy, dominance over uniform) with a synthetic-market harness.
"""

import importlib

# The module that defines each public name.  ``import nswrank`` imports none
# of them: a name, or a submodule as ``nswrank.<module>``, loads its module
# on first access (``__getattr__``), so a caller, the CLI included, loads
# only the modules it uses.
_SOURCES = {
    "bvn": ("BvnDecomposition", "bvn_decompose", "reconstruct",
            "sample_ranking"),
    "core": ("DS_TOL", "ExposureModel", "ImpactFunction", "PolicyTensor",
             "RankingMixture", "RelevanceMatrix", "amortized_exposure",
             "exposure_profile", "item_impact", "merit", "user_utility"),
    "errors": ("DegenerateMarketError", "DimensionError", "InfeasibleError",
               "NotDoublyStochastic", "NswrankError", "ParseError",
               "SchemaError", "SizeError", "SolverError", "ZeroMeritError"),
    "metrics": ("FairnessReport", "envy_matrix", "fairness_report",
                "max_envy_per_item", "mean_max_envy", "weighted_envy_matrix"),
    "solvers": ("NswConfig", "SolveDiagnostics", "brute_force_oracle",
                "exposure_targets", "solve_expo_fair", "solve_nsw",
                "solve_uniform", "solve_utility_max"),
    "synth": ("SyntheticConfig", "adversarial_market", "generate_market"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}

__version__ = "0.1.0"

__all__ = [name for names in _SOURCES.values() for name in names]
__all__.append("__version__")


_SUBMODULES = {*_SOURCES, "_kernels", "cli", "io"}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
