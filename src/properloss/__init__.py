"""Sample-only proper losses for evaluating black-box generative models.

Build losses over i.i.d. sample histograms whose expectation equals a chosen
divergence exactly, estimate them by Monte Carlo against files, subprocess
generators, or known vectors, and verify the constructions with exact
rational enumeration oracles.
"""

from .compiler import (
    CompiledLoss,
    bregman_known_target,
    compile_known_target,
    compile_two_sample,
    cross_entropy_poisson,
    cross_entropy_poisson_fixed_target,
    entropy_poisson,
    kl_poisson,
)
from .continuous import (
    RealSample,
    VectorSample,
    cramer_distance_oracle,
    cramer_loss,
    crps,
    ecdf,
    energy_loss,
    load_real_sample,
    load_vector_sample,
    projected_cramer_loss,
)
from .divergences import (
    Monomial,
    PolyDivergence,
    Separable,
    SeriesDivergence,
    SeriesKind,
    bregman_divergence,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    simplex_grid,
    squared_norm_gradient,
    squared_norm_polynomial,
)
from .domain import (
    CountRows,
    Distribution,
    Domain,
    FixedSize,
    Histogram,
    Mode,
    Poisson,
    SamplingScheme,
    compositions,
    empirical,
    indicator,
)
from .errors import (
    DegreeExceedsSampleError,
    DegreeGateError,
    DimensionMismatchError,
    DomainTooLargeError,
    EmptyHistogramError,
    EnumerationTooLargeError,
    IndexOutOfRangeError,
    OddExponentError,
    ProperLossError,
    SampleTooSmallError,
    SourceExhaustedError,
    SubprocessFailureError,
    TokenUnknownError,
    TotalMismatchError,
)
from .estimators import (
    ExponentVector,
    binom_mvue,
    falling_factorial,
    multinomial_monomial_mvue,
    poisson_factorial,
    poisson_power_series,
    variance_mvue,
)
from .sampling import (
    EstimateReport,
    FileSource,
    InternalSource,
    SampleSource,
    SubprocessSource,
    block_average,
    draw_fixed,
    estimate_loss,
    stream_rng,
)
from .verify import (
    NaivePluginBias,
    PoissonExpectation,
    VerificationReport,
    check_implements,
    degree_gate_bypass_exists,
    enumerate_histograms,
    exact_expected_known_target,
    exact_expected_two_sample,
    expected_losses,
    multinomial_pmf,
    naive_plugin_bias_demo,
    naive_plugin_loss,
    poisson_expected_loss,
)

__version__ = "0.1.0"
