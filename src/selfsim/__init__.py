"""Simulation of self-similar Gaussian processes.

Samplers for Brownian motion, fractional Brownian motion, and
sub-fractional Brownian motion (cumulative sum, exact Cholesky,
Davies-Harte FFT, Wood-Chan circulant embedding, truncated moving
average, and the inverse-Lamperti rescaling method), together with a
statistical verification harness and a CLI.
"""

__version__ = "0.1.0"

from .core import (
    DEFAULT_SEED,
    GridSpec,
    ParameterError,
    ReplicateBatch,
    RngStream,
    SamplePath,
    generate_batch,
)
from .covmodels import (
    CovarianceKernel,
    fbm_cov,
    fbm_kernel,
    fgn_acf,
    lamperti_acf_fbm,
    lamperti_acf_sfbm,
    make_kernel,
    sfbm_cov,
    sfbm_kernel,
)
from .lamperti import (
    LampertiGridMap,
    error_bound_diagnostics,
    grid_map,
    marginal_variance_profile,
    simulate_lamperti,
)
from .samplers import (
    CholeskyFactor,
    CirculantSpectrum,
    EmbeddingError,
    NotPositiveDefiniteError,
    cholesky_factor,
    cholesky_sample,
    circulant_sample,
    circulant_spectrum,
    davies_harte_fbm,
    ma_truncated_fbm,
    normalizing_constant_CH,
    sample_bm,
    wood_chan_fbm,
)
from .verify import (
    VerificationReport,
    covariance_match,
    empirical_covariance,
    method_equivalence,
    normality_check,
    quantile_scaling_check,
)
