"""Covariance estimation from Bernoulli-masked partial observations.

Each coordinate of a sample is revealed independently with a known
probability. The package provides the unbiased reweighted estimator for that
observation model, high-probability error diagnostics, budgeted design of the
observation probabilities from a variance profile, a batch active-estimation
loop that learns the design as data arrives, synthetic and IDX-backed data
sources, and a reproducible multi-trial experiment harness with a CLI.
"""

from .active import ActiveConfig, ActiveTrace, IterationRecord, run_active, run_fixed
from .bounds import (
    BoundReport,
    bound_report,
    calibrate_gamma,
    effective_rank,
    entrywise_norm,
    error_bound,
    error_scale_matrix,
    error_scale_norm_bound,
)
from .data import (
    EmpiricalSource,
    EpochStream,
    GaussianStream,
    SyntheticModel,
    build_empirical_source,
    load_idx,
    make_spiked_model,
)
from .design import (
    DesignProblem,
    DesignSolution,
    design_probabilities,
    kkt_residual,
    project_box_simplex,
    update_design,
)
from .estimator import CovarianceEstimate, estimate_cov, merge_estimates, relative_frobenius_error
from .experiment import (
    ARMS,
    EmpiricalSourceSpec,
    ExperimentResult,
    ExperimentSpec,
    SyntheticSourceSpec,
    export_csv,
    run_experiment,
)
from .sampling import (
    MaskDistribution,
    MaskedBatch,
    child_rng,
    derive_seed,
    draw_mask,
    hadamard_inverse,
    mask_batch,
    mask_second_moment,
)

__version__ = "0.1.0"
