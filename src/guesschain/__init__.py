"""Sequential two-state qubit discrimination chains: optimal joint-guess
strategies, explicit measurement operators, and Monte Carlo verification."""

from .core import (
    DiscriminationInstance,
    MAX_RECEIVERS,
    Strategy,
    StrategyResult,
    SuccessPair,
    boundary_solution,
    distinguishability,
    equal_prior_jbg,
    helstrom_bound,
    helstrom_success_pair,
    individual_greedy,
    overlap_ladder,
    p2_from_p1,
    stationarity_residual,
)
from .optimize import (
    FullChainSolution,
    SweepGrid,
    find_sb,
    grid_search_oracle,
    optimize_full_chain,
    optimize_reduced,
)
from .povm import (
    DegenerateInput,
    InfeasibleStage,
    MeasurementStage,
    QubitState,
    build_chain,
    build_stage,
    make_state_pair,
)
from .simulate import (
    NumericalUnderflow,
    PRNG_NAME,
    SimConfig,
    SimReport,
    run_chain_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateInput",
    "DiscriminationInstance",
    "FullChainSolution",
    "InfeasibleStage",
    "MAX_RECEIVERS",
    "MeasurementStage",
    "NumericalUnderflow",
    "PRNG_NAME",
    "QubitState",
    "SimConfig",
    "SimReport",
    "Strategy",
    "StrategyResult",
    "SuccessPair",
    "SweepGrid",
    "boundary_solution",
    "build_chain",
    "build_stage",
    "distinguishability",
    "equal_prior_jbg",
    "find_sb",
    "grid_search_oracle",
    "helstrom_bound",
    "helstrom_success_pair",
    "individual_greedy",
    "make_state_pair",
    "optimize_full_chain",
    "optimize_reduced",
    "overlap_ladder",
    "p2_from_p1",
    "run_chain_simulation",
    "stationarity_residual",
]
