"""Solvers for a dynamic model of elite persuasion under majority rule."""

# The package's one version literal: pyproject.toml and the run manifests
# read it from here. Set before the submodules import it.
__version__ = "0.1.0"

from .config import ExperimentConfig, ConfigError, load_config, parse_config
from .grids import Grid, build_grid
from .model import (
    CostSpec,
    ModelParams,
    cost_dominates,
    delta_threshold,
    evaluate_cost,
    implemented_policy,
    stage_payoff,
)
from .kernel import CandidateEvaluation
from .oracle import (
    OracleResult,
    brute_force_one_step,
    brute_force_period2,
    brute_force_stackelberg,
    brute_force_two_period_single,
)
from .runner import emit_policy_csv, emit_value_csv, read_table_csv, run_config
from .single_elite import (
    InfiniteHorizonSolution,
    Period1Solution,
    PolicyTable,
    RegionPartition,
    ValueTable,
    bellman_apply,
    compare_cost_technologies,
    expected_continuation_2,
    interior_minimizer_B,
    interior_minimizer_C,
    intervention_measure,
    period1_solve,
    period2_solve,
    region_partition,
    solve_infinite,
    verify_polarization_pull,
)
from .two_elite import (
    MpeSolution,
    StackelbergSolution,
    check_no_deviation,
    elite_b_response,
    mpe_solve,
    phi_continuation,
    stackelberg_solve,
)
