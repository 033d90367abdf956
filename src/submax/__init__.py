"""Non-monotone submodular maximization over down-closed polytopes.

The solver sweeps a switch time theta: a dampened (l-inf capped) continuous
greedy stage runs until theta, a standard continuous greedy stage finishes
the clock, and a double-greedy fallback extracts a second candidate from the
uncapped oracle direction at the switch point.  Desk-scale brute-force
oracles and a property suite verify every guarantee that can be checked
exactly at small n.
"""

from .errors import (ConfigError, EstimatorError, InstanceFormatError,
                     InvalidBoxError, InvalidSubsetError, InvariantError,
                     SubmaxError)
from .setfn import (Coverage, DirectedCut, EstimatorConfig, ExplicitTable,
                    Point, SetFunction, default_config, gradient, max_singleton,
                    multilinear, multilinear_batch)
from .polytope import (CardinalityPolytope, KnapsackPolytope,
                       PartitionMatroidPolytope, Polytope)
from .dgbox import (BoxInstance, BoxRun, double_greedy_box,
                    double_greedy_box_run, guarantee_floor)
from .cgreedy import (DiagnosticRecord, RunConfig, SolveReport, ThetaResult,
                      default_theta_grid, solve)
from .verify import (CheckResult, best_bound_theta, brute_force_box_opt,
                     brute_force_opt, check_x_or_opt, compute_bound,
                     lp_brute_force, property_suite)
from .instances import (InstanceFile, ResultRecord, desk_corpus, gen,
                        mini_corpus, parse_instance, run_instance,
                        serialize_instance)

__version__ = "0.1.0"

__all__ = [
    "BoxInstance", "BoxRun", "CardinalityPolytope", "CheckResult",
    "ConfigError", "Coverage", "DiagnosticRecord", "DirectedCut",
    "EstimatorConfig", "EstimatorError", "ExplicitTable",
    "InstanceFile", "InstanceFormatError", "InvalidBoxError",
    "InvalidSubsetError", "InvariantError", "KnapsackPolytope",
    "PartitionMatroidPolytope", "Point", "Polytope", "ResultRecord", "RunConfig", "SetFunction",
    "SolveReport", "SubmaxError", "ThetaResult",
    "best_bound_theta", "brute_force_box_opt", "brute_force_opt",
    "check_x_or_opt", "compute_bound", "default_config",
    "default_theta_grid", "desk_corpus", "double_greedy_box",
    "double_greedy_box_run", "gen", "gradient", "guarantee_floor",
    "lp_brute_force", "max_singleton", "mini_corpus", "multilinear",
    "multilinear_batch", "parse_instance", "property_suite",
    "run_instance", "serialize_instance", "solve",
]
