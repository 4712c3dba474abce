"""efnlab: a laboratory for the align-and-average model-bias phenomenon.

Averaging pure-noise observations that were each cyclically aligned to a
template by maximum correlation produces an estimate that resembles the
template.  This package simulates that pipeline, computes the analytic
predictions for how fast the estimator's Fourier phases and magnitudes
converge, and cross-validates simulation against theory.
"""

from .alignment import (
    correlation_oracle,
    correlation_sequence,
    fourier_correlation_sequence,
)
from .errors import (
    ExcludedBinError,
    InsufficientDataError,
    InvalidArgumentError,
    LengthMismatchError,
    RejectedTemplateError,
    UndefinedCorrelationError,
)
from .estimator import EfnEstimate, pearson_correlation
from .experiment import (
    AggregateStats,
    ExperimentConfig,
    SweepSpec,
    Telemetry,
    TrialResult,
    aggregate_trials,
    observation_rng,
    run_experiment,
    run_sweep,
    run_trial,
    sweep_configs,
)
from .signals import (
    SignalFamilySpec,
    TemplateSignal,
    circular_shift,
    dft,
    generate_template,
    idft,
    polar,
    wrap_phase,
)
from .theory import (
    AlignmentMoments,
    alignment_moments,
    build_conditional_gaussian,
    estimate_ck_profile,
    gumbel_constants,
    predict_magnitude,
    predict_phase_mse,
    sample_cyclostationary,
    softmax_expectation,
)
from .verify import ks_statistic, lemma1_check

__version__ = "0.1.0"
