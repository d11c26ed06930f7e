"""Monotone Riemannian metrics on Gibbs thermal states.

Computes the full family of monotone metrics (quantum Fisher informations)
of finite-dimensional Gibbs states by exact diagonalization, through four
mutually cross-checking routes, together with structure-factor moments,
skew informations and a verifier suite for the metric inequalities.
"""

from .families import (
    BKM,
    BURES,
    GEOMETRIC,
    HAR,
    MC,
    WY,
    MonotoneFamily,
    eval_c,
    eval_f,
    eval_f_at_zero,
    eval_g,
    eval_g_hat,
    half_pair,
    parse_family,
    power_difference,
    taylor_coeffs,
    verify_standard,
    wyd,
)
from .hilbert import (
    GibbsState,
    HermitianOperator,
    ObservableInEigenbasis,
    SpectralDecomposition,
    eigendecompose,
    gibbs_state,
    nested_commutator,
    read_operator_json,
    solve_xst,
    thermal_average,
    write_operator_json,
)
from .dsf import (
    LineSpectrum,
    bogoliubov_duhamel,
    bogoliubov_duhamel_quadrature,
    build_cross_dsf,
    build_dsf,
    chi_lines,
    commutator_moments,
    functional_F,
    moment,
    sum_rule_report,
    write_spectrum_csv,
)
from .metrics import (
    MetricResult,
    cross_metric,
    fidelity_susceptibility,
    metric_difference_to_bkm,
    metric_from_dsf,
    metric_mc_oracle,
    metric_series_A,
    metric_series_B,
    metric_spectral,
)
from .skew import (
    SkewResult,
    integrated_wyd,
    metric_adjusted_skew,
    tilde_metric,
    wyd_skew,
)
from .inequalities import (
    GEOMETRIC_MC_CROSSOVER,
    InequalityReport,
    cauchy_schwarz_cross,
    chain_check,
    commutator_bounds,
    geometric_mean_checks,
    random_instance,
    run_verification_suite,
)
from .models import (
    BosonModel,
    SpinModel,
    boson_build,
    boson_closed_forms,
    boson_constant_report,
    boson_correlators,
    spin_build,
    spin_matrices,
    spin_ratio_property,
)

__version__ = "0.1.0"
