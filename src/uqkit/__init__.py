"""uqkit: uncertainty quantification for predictive models.

Three entry layers, in decreasing convenience and increasing control:
conformal prediction over raw uncertainty estimates, post-hoc calibration
of model outputs, and approximate Bayesian posteriors over a built-in
multilayer perceptron, plus calibration metrics and a reproducible
benchmark CLI.
"""

from .calibration import (
    TemperatureFit,
    VarianceScaleFit,
    apply_temperature,
    fit_temperature,
    fit_variance_scale,
)
from .conformal import (
    Intervals,
    PredictionSets,
    adaptive_sets,
    baseline_sets,
    conformal_quantile,
    cqr_interval,
    cv_plus,
    jackknife_minmax,
    jackknife_plus,
    scalar_score_interval,
)
from .data import (
    Dataset,
    batches,
    load_csv,
    save_csv,
    split,
    synth_classification,
)
from .errors import ConfigError, DataError, InvalidSplitError, UqError
from .metrics import (
    Report,
    accuracy,
    brier,
    classification_report,
    ece,
    interval_metrics,
    nll_classification,
)
from .mlp import MlpConfig, init_params, mlp_forward, param_count
from .numerics import entropy, kth_smallest, log_sum_exp, softmax
from .posterior import (
    AdviState,
    EnsembleState,
    FitResult,
    LaplaceState,
    MapState,
    OptimConfig,
    SwagState,
    advi_fit,
    ensemble_fit,
    laplace_fit,
    load_state,
    map_fit,
    posterior_sample,
    save_state,
    swag_fit,
    swag_sample,
)
from .predictive import (
    RegressionMoments,
    credible_interval_regression,
    predictive_mean_classification,
    predictive_moments_regression,
    sample_weights,
)
from .rng import Rng, child_seed

__version__ = "0.1.0"
