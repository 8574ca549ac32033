"""Self-distillation for Gaussian process regression and classification."""

from .kernels import (
    DEFAULT_JITTER,
    GramMatrix,
    IndefiniteKernelError,
    KernelParams,
    SingularSystemError,
    SpectralDecomp,
    gram,
    kernel_matrix,
    rbf_kernel,
    spectral_decompose,
)
from .gpr import Dataset, GprModel, PosteriorGP, fit_gpr, posterior_gp, predict_gpr
from .gpr_distill import (
    DistillSchedule,
    EffectiveNoise,
    ReplicatedGprFit,
    data_centric_predict,
    data_centric_targets_fast,
    data_centric_targets_naive,
    data_centric_train_cov,
    distribution_centric_closed_form,
    distribution_centric_recursive,
    effective_noise,
    fit_replicated,
)
from .cont_bernoulli import CbTerms, cb_log_density, cb_normalizer, cb_terms
from .laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    BinaryDataset,
    HessianNotPositiveDefinite,
    LaplaceFit,
    NewtonDidNotConverge,
    gpc_predict_latent,
    gpc_predict_proba,
    laplace_marginal_loglik,
    laplace_mode,
    sigmoid_gaussian_mean,
)
from .gpc_distill import (
    DataCentricGpcStep,
    GpcDistillConfig,
    GpcDistillStep,
    ScaledGpcFit,
    approximation_error,
    cb_marginal_loglik,
    data_centric_gpc,
    distribution_centric_gpc_iterated,
    distribution_centric_gpc_scaled,
    fit_replicated_gpc,
    posterior_proba,
)
from .gridsearch import GridSearchResult, GridSpec, gpr_marginal_nll, grid_search

__version__ = "0.1.0"
