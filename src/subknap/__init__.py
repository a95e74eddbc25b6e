"""Monotone submodular maximization under known and unknown knapsack capacities."""

from .bounds import (BoundResult, BoundTable, KAWASE_DETERMINISTIC,
                     MODULAR_OPTIMUM, alpha, bound_table, solve_x)
from .core import (ConfigurationError, Instance, Item, OracleValidationError,
                   TOL, ValidationReport, ValueOracle, curvature, evaluate,
                   instance_digest, load_instance, make_concave_modular_oracle,
                   make_coverage_oracle, make_modular_oracle, make_table_oracle,
                   normalize_instance, save_instance, validate_oracle)
from .exact import (CheckReport, GuardError, SweepReport,
                    SweepRow, breakpoints, brute_force_opt,
                    check_curvature_lemma, check_indispensable_properties,
                    check_lemma2, check_theorem6, robustness_sweep)
from .generate import GenerationError, GeneratorSpec, generate_instance
from .greedy import (GreedyRun, Solution, agreedy, agreedy_override,
                     greedy_sequence, mgreedy)
from .policy import (FitOracle, IndispensabilityInterval, IndispensabilityResult,
                     PolicyTrace, StartEntry, execute_policy, indispensability_interval,
                     is_indispensable, make_fit_oracle, start_item_list)

__version__ = "0.1.0"

__all__ = [
    "BoundResult", "BoundTable", "CheckReport",
    "ConfigurationError", "FitOracle", "GenerationError", "GeneratorSpec",
    "GreedyRun", "GuardError", "IndispensabilityInterval",
    "IndispensabilityResult", "Instance", "Item", "KAWASE_DETERMINISTIC",
    "MODULAR_OPTIMUM", "OracleValidationError", "PolicyTrace", "Solution",
    "StartEntry", "SweepReport", "SweepRow", "TOL",
    "ValidationReport", "ValueOracle", "agreedy", "agreedy_override", "alpha",
    "bound_table", "breakpoints", "brute_force_opt", "check_curvature_lemma",
    "check_indispensable_properties", "check_lemma2", "check_theorem6",
    "curvature", "evaluate", "execute_policy", "generate_instance",
    "greedy_sequence", "indispensability_interval", "instance_digest",
    "is_indispensable", "load_instance", "make_concave_modular_oracle",
    "make_coverage_oracle", "make_fit_oracle", "make_modular_oracle",
    "make_table_oracle", "mgreedy", "normalize_instance", "robustness_sweep",
    "save_instance", "solve_x", "start_item_list", "validate_oracle",
]
