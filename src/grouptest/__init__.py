"""Adaptive group testing: algorithms, information-theoretic bounds, and a
reproducible Monte Carlo experiment harness."""

from .bounds import (
    BoundReport,
    InputError,
    NoiseKind,
    NoiseModel,
    ProblemSize,
    binary_entropy,
    binom_log_bounds,
    bound_report,
    channel_capacity_bound,
    comp_test_count,
    converse_success_bound,
    expected_tests_floor,
    hwang_guarantee,
    log2_binom,
    rate,
    rbt_guarantee,
    variant_guarantee,
    weak_converse_bound,
)
from .model import (
    Outcome,
    TestOracle,
    derive_stream_seed,
    make_rng,
    sample_defective_set,
)
from .algorithms import (
    RunResult,
    SearchResult,
    binary_search,
    comp_run,
    hgbsa,
    hwang_variant,
    repeated_binary_testing,
)
from .harness import (
    ExperimentSpec,
    SuccessCurve,
    TrialResult,
    capacity_scan,
    defectives_for_beta,
    figure1_experiment,
    run_trial,
    run_trials,
    success_curve,
    tally,
    wilson_interval,
)

__version__ = "0.1.0"
