"""Simulation of self-similar Gaussian processes.

Samplers for Brownian motion, fractional Brownian motion, and
sub-fractional Brownian motion (cumulative sum, exact Cholesky,
Davies-Harte FFT, truncated moving average, and the inverse-Lamperti
rescaling method), together with a statistical verification harness and
a CLI.
"""

__version__ = "0.1.0"

from .core import (
    DEFAULT_SEED,
    GridSpec,
    LinearSampler,
    ParameterError,
    ReplicateBatch,
    RngStream,
    SamplePath,
    generate_batch,
)
from .covmodels import (
    fbm_cov,
    fgn_acf,
    lamperti_acf,
    sfbm_cov,
)
from .lamperti import (
    LampertiGridMap,
    error_bound_diagnostics,
    grid_map,
    lamperti_sampler,
    simulate_lamperti,
)
from .samplers import (
    CirculantSpectrum,
    NotPositiveDefiniteError,
    bm_sampler,
    cholesky_factor,
    cholesky_sampler,
    circulant_spectrum,
    davies_harte_fbm,
    davies_harte_sampler,
    ma_sampler,
    ma_truncated_fbm,
    normalizing_constant_CH,
)
from .verify import (
    VerificationReport,
    covariance_match,
    empirical_covariance,
    error_bound_check,
    marginal_variance_profile,
    method_equivalence,
    normality_check,
    quantile_scaling_check,
)
