"""Quadratic-net identification lab.

Function identification for overparameterized quadratic networks, plus the
three systems built on it: an explore-then-commit bandit, a two-stage
transfer-learning estimator, and a compositional module-network simulator,
with numerical verification of the stated bounds and constants.
"""

from .errors import AssumptionViolated, Diverged, RejectedInput
from .qnn_core import (
    BoundSpec,
    CovariateSampler,
    Dataset,
    InducedForm,
    QuadNet,
    TrainConfig,
    TrainResult,
    empirical_loss,
    estimate_alpha,
    exact_alpha,
    forward,
    forward_batch,
    function_gap_bound,
    generate_dataset,
    gradient,
    induced,
    lipschitz_constant,
    nominal_alpha,
    population_loss_exact,
    population_loss_mc,
    projected_gd,
    projected_gd_stack,
    train_gd,
)
from .identify import (
    GapReport,
    IdentBound,
    covering_number_bound,
    epsilon_bound,
    frobenius_gap,
    identification_check,
    robust_shift_experiment,
    sup_function_gap,
)
from .bandit import (
    BanditProblem,
    BanditTrace,
    best_arm,
    eigengap_constant,
    exploration_length,
    regret_bound_constants,
    regret_slope,
    run_etc,
    sample_exploration_action,
    smooth_best_arm_check,
)
from .transfer import (
    AlignmentResult,
    TransferProblem,
    align,
    expanded_radius,
    gold_epsilon,
    proxy_epsilon,
    run_transfer,
    sigma_min,
)
from .module_net import (
    ModuleLibrary,
    Parser,
    ShiftSpec,
    TokenChain,
    compose,
    composition_error_experiment,
    mixture_distribution,
    mixture_shift_check,
    module_error_bound,
    module_sup_error,
    parse,
    sample_word,
    sample_words,
    sequence_error_check,
    train_parser,
    tv_distance,
    worst_case_shift,
)

__version__ = "0.1.0"
