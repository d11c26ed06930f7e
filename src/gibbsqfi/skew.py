"""Skew informations and the metric of the commutator-perturbed model.

The Wigner-Yanase-Dyson skew information and its metric-adjusted
generalization are evaluated in the eigenbasis of the generator; the tilde
metric is the monotone metric of the statistical model perturbed along
R_1 = [T, S], which folds into a (ln rho_n/rho_m)^2 weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families as fam
from .dsf import _dot, _dot_exp, _Frame
from .hilbert import GibbsState
from .metrics import MetricDiagnostics, MetricResult, _nonnegative

__all__ = [
    "SkewResult",
    "wyd_skew",
    "metric_adjusted_skew",
    "tilde_metric",
    "integrated_wyd",
    "variance_minus_duhamel",
]


@dataclass
class SkewResult:
    value: float
    family: fam.MonotoneFamily
    alpha: float | None = None


def _wyd_value(frame: _Frame, alpha: float) -> float:
    """sum |S_nm|^2 (rho_n - rho_n^a rho_m^{1-a}) over the pairs, both ways; the diagonal adds 0."""
    (w_rows, w_cols), (lw_rows, lw_cols) = frame.pair_weights, frame.pair_log_weights
    t = frame.table
    gross = float(np.sum(t.down * (w_rows - np.exp(alpha * lw_rows + (1.0 - alpha) * lw_cols))
                         + t.up * (w_cols - np.exp(alpha * lw_cols + (1.0 - alpha) * lw_rows))))
    return _nonnegative(gross, float(frame.second_moment), "wyd_skew")


def wyd_skew(state: GibbsState, S, alpha: float) -> SkewResult:
    """Skew information Tr(rho S^2) - Tr(rho^a S rho^{1-a} S), a in (0, 1).

    Computed as sum_{mn} |S_mn|^2 (rho_m - rho_m^a rho_n^{1-a}); zero when
    S commutes with the generator, symmetric under a <-> 1-a.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return SkewResult(_wyd_value(_Frame(state, S), alpha), fam.wyd(alpha), alpha)


def metric_adjusted_skew(state: GibbsState, S, family: fam.MonotoneFamily) -> SkewResult:
    """Metric-adjusted skew information for a regular family (f(0) > 0).

    (f(0)/2) sum_{mn} (rho_m - rho_n)^2 / (rho_n f(rho_m/rho_n)) |S_mn|^2.
    Families with f(0) = 0 (BKM, MC, harmonic, geometric, power-difference
    with p <= 1) are rejected rather than silently returning zero.
    """
    f0 = fam.eval_f_at_zero(family)
    if f0 <= 0.0:
        raise ValueError(
            f"family {family.label!r} has f(0) = 0 and admits no "
            "metric-adjusted skew information"
        )
    frame = _Frame(state, S)
    # each term rho_m (e^u - 1)^2 / f(e^u), u = ln rho_n - ln rho_m, is >= 0 and symmetric in (n, m)
    u = frame.f_columns
    value = 0.5 * f0 * float(_dot_exp(frame.pair_log_weights[1] - fam._log_f(family, u), np.expm1(u.v) ** 2 * frame.table.abs2))
    alpha = family.param if family.kind == "wyd" else None
    return SkewResult(value, family, alpha)


def tilde_metric(state: GibbsState, S, family: fam.MonotoneFamily) -> MetricResult:
    """Metric of the model perturbed along R_1 = [T, S].

    d~^2_f(S,S) = d^2_f(R_1, R_1)
                = (1/4) sum g_f(x) W (ln rho_n/rho_m)^2 |S_mn|^2,
    evaluated directly from the S matrix elements (R_1 itself, being
    anti-Hermitian, is never materialized).
    """
    frame = _Frame(state, S)
    gross = float(_dot_exp(fam._log_g(family, frame.g_columns) + frame.log_kernel, (2.0 * frame.x) ** 2 * frame.table.abs2))
    return MetricResult(0.25 * gross, "spectral", MetricDiagnostics())


def integrated_wyd(state: GibbsState, S) -> float:
    """Integral of the WYD skew information over alpha in (0, 1).

    Equals Var(S) - F_0(dS; dS), i.e. 4 (d^2_MC - d^2_BKM); evaluated by
    adaptive quadrature over cached eigen-data.
    """
    from scipy import integrate
    frame = _Frame(state, S)
    value, _ = integrate.quad(
        lambda a: _wyd_value(frame, a), 0.0, 1.0, epsabs=1e-9, epsrel=1e-10
    )
    return value


def variance_minus_duhamel(state: GibbsState, S) -> float:
    """Var(S) - F_0(dS; dS) = <S^2> - sum W |S_mn|^2, matched by integrated_wyd."""
    frame = _Frame(state, S)
    return float(frame.second_moment) - float(frame.filtered)
