"""Feature-space OOD detection via an energy-corrected Gaussian mixture.

Fits a mixture of class-conditional Gaussians (tied covariance) to
in-distribution features, trains a small MLP energy correction on top with
Langevin-sampled negatives, and scores OOD-ness with that or with the
baseline detectors (Mahalanobis, KNN, MSP, temperature-scaled MSP,
energy-from-logits). Evaluation reports AUROC and FPR at 95% TPR.
"""

from .featurestore import (
    DegenerateFeatureError,
    FeatureSet,
    load_feature_set,
    normalize_features,
    normalize_rows,
    save_feature_set,
)
from .mog import (
    GaussianMixture,
    MixtureFitError,
    NotPositiveDefiniteError,
    fit_mog,
    gaussian_energy,
    gaussian_energy_grad,
    load_mixture,
    log_density,
    mahalanobis_ood_score,
    sample_mog,
    save_mixture,
)
from .energy_net import (
    EnergyMlp,
    ParamGradient,
    mlp_energy,
    mlp_grad_input,
    mlp_grad_params,
    mlp_init,
)
from .sgld import SgldDivergenceError, SgldSchedule, schedule_at, sgld_init, sgld_sample
from .trainer import (
    AdamState,
    CorrectionModel,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    correction_defaults,
    ebm_defaults,
    l2_reg,
    load_model,
    mle_loss,
    save_model,
    train_correction,
    train_ebm,
)
from .detectors import (
    score_correction,
    score_energy_logits,
    score_knn,
    score_msp,
    score_odin_temperature,
)
from .metrics import EvalReport, auroc, evaluate, fpr_at_tpr, threshold_gamma_id
from .toy import EnergyGrid, GridEvaluationError, ToySpec, energy_grid, gen_toy
from .tensorio import (
    BadMagicError,
    TensorFormatError,
    TruncatedPayloadError,
    UnknownDtypeError,
    UnknownRankError,
    load_tensor,
    read_archive,
    write_archive,
    write_tensor,
)

__version__ = "0.1.0"
