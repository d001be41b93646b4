"""Heavy-tailed linear factor models: spectral-measure estimation toolkit."""

from .estimators import (
    ConvConfig,
    TwoStepConfig,
    conventional_threshold,
    direction_threshold,
    empirical_angular_measure,
    estimate_conventional,
    estimate_directions,
    estimate_two_step,
    solve_theta,
    two_step_from_directions,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    diagnostic_counts,
    emit_outputs,
    run_convergence_experiment,
)
from .measures import (
    DiscreteMeasure,
    ModelSpec,
    SampleBatch,
    make_measure,
    measure_from_json,
    measure_to_json,
    spectral_measure_of,
    validate_measure,
)
from .numerics import (
    KMeansResult,
    RngStream,
    fit_loglog_slope,
    invert_square_matrix,
    kmeans,
)
from .sampling import (
    generate_dataset,
    sample_conditional_pareto,
)
from .transport import wasserstein_p, wasserstein_pp

__version__ = "0.1.0"

__all__ = [
    "ConvConfig",
    "DiscreteMeasure",
    "ExperimentConfig",
    "ExperimentResult",
    "KMeansResult",
    "ModelSpec",
    "RngStream",
    "SampleBatch",
    "TwoStepConfig",
    "conventional_threshold",
    "diagnostic_counts",
    "direction_threshold",
    "emit_outputs",
    "empirical_angular_measure",
    "estimate_conventional",
    "estimate_directions",
    "estimate_two_step",
    "fit_loglog_slope",
    "generate_dataset",
    "invert_square_matrix",
    "kmeans",
    "make_measure",
    "measure_from_json",
    "measure_to_json",
    "run_convergence_experiment",
    "sample_conditional_pareto",
    "solve_theta",
    "spectral_measure_of",
    "two_step_from_directions",
    "validate_measure",
    "wasserstein_p",
    "wasserstein_pp",
]
