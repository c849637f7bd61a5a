"""Streaming principal-subspace projection and whitening.

Single-layer Hebbian/anti-Hebbian learners that track the leading
principal subspace of a data stream without recurrent dynamics: a
diagonal gain breaks rotational degeneracy, keeping the lateral weight
matrix near-diagonal so each output needs only a fixed two-step pass.
Includes exact-inverse reference learners, offline averaged dynamics
with closed-form fixed points and numerical stability certification,
Procrustes-based evaluation, and a reproducible experiment harness.
"""

from .data import (
    Constant,
    CovarianceSpec,
    InverseTime,
    PiecewiseConstant,
    ProblemPreset,
    RngStream,
    build_covariance,
    haar_orthogonal,
    large_problem,
    read_dataset,
    sample,
    sample_block,
    small_problem,
    write_dataset,
)
from .harness import (
    ExperimentConfig,
    SummaryReport,
    emit_report,
    load_config,
    parse_config,
    run_experiment,
)
from .metrics import (
    GroundTruth,
    closed_form_optimum,
    estimate_subspace,
    ground_truth,
    objective_psp,
    objective_psw,
    procrustes_error,
)
from .model import (
    ModelState,
    Task,
    Variant,
    approx_inverse,
    forward,
    neural_filter,
    online_step,
    plasticity,
    split_diag,
)
from .offline import (
    construct_fixed_point,
    fixed_point_residual,
    jacobian_spectrum,
    offline_step,
    run_offline,
)
from .checks import run_verification

__version__ = "0.1.0"

__all__ = [
    "Constant", "CovarianceSpec", "ExperimentConfig", "GroundTruth",
    "InverseTime", "ModelState", "PiecewiseConstant", "ProblemPreset",
    "RngStream", "SummaryReport", "Task", "Variant",
    "approx_inverse", "build_covariance", "closed_form_optimum",
    "construct_fixed_point", "emit_report", "estimate_subspace",
    "fixed_point_residual", "forward", "ground_truth", "haar_orthogonal",
    "jacobian_spectrum", "large_problem", "load_config", "neural_filter",
    "objective_psp", "objective_psw", "offline_step", "online_step",
    "parse_config", "plasticity", "procrustes_error", "read_dataset",
    "run_experiment", "run_offline", "run_verification", "sample",
    "sample_block", "small_problem", "split_diag", "write_dataset",
]
