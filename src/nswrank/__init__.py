"""Impact-fair stochastic ranking for two-sided markets.

Computes ranking policies that treat items as agents in a fair-division
problem: the Nash-social-welfare solver (optionally merit-weighted), the
merit-proportional exposure LP baseline, utility-max and uniform references,
Birkhoff-von-Neumann sampling of concrete rankings, and a fairness audit
suite (envy, dominance over uniform) with a synthetic-market harness.
"""

from .bvn import BvnDecomposition, bvn_decompose, reconstruct, sample_ranking
from .core import (
    DS_TOL,
    ExposureModel,
    ImpactFunction,
    PolicyTensor,
    RankingMixture,
    RelevanceMatrix,
    amortized_exposure,
    exposure_profile,
    item_impact,
    merit,
    user_utility,
)
from .errors import (
    DegenerateMarketError,
    DimensionError,
    InfeasibleError,
    MatchingFailure,
    NotDoublyStochastic,
    NswrankError,
    ParseError,
    SchemaError,
    SizeError,
    SolverError,
    ZeroMeritError,
)
from .metrics import (
    FairnessReport,
    envy_matrix,
    fairness_report,
    max_envy_per_item,
    mean_max_envy,
    weighted_envy_matrix,
)
from .solvers import (
    NswConfig,
    SolveDiagnostics,
    brute_force_oracle,
    exposure_targets,
    solve_expo_fair,
    solve_nsw,
    solve_uniform,
    solve_utility_max,
)
from .synth import SyntheticConfig, adversarial_market, generate_market

__version__ = "0.1.0"

__all__ = [
    "BvnDecomposition", "bvn_decompose", "reconstruct", "sample_ranking",
    "DS_TOL", "ExposureModel", "ImpactFunction", "PolicyTensor",
    "RankingMixture", "RelevanceMatrix", "amortized_exposure", "exposure_profile",
    "item_impact", "merit", "user_utility",
    "DegenerateMarketError", "DimensionError", "InfeasibleError",
    "MatchingFailure", "NotDoublyStochastic", "NswrankError", "ParseError",
    "SchemaError", "SizeError", "SolverError", "ZeroMeritError",
    "FairnessReport", "envy_matrix", "fairness_report", "max_envy_per_item",
    "mean_max_envy", "weighted_envy_matrix",
    "NswConfig", "SolveDiagnostics", "brute_force_oracle", "exposure_targets",
    "solve_expo_fair", "solve_nsw", "solve_uniform", "solve_utility_max",
    "SyntheticConfig", "adversarial_market", "generate_market",
    "__version__",
]
