"""Monotone Riemannian metrics d^2_f(S, S) on Gibbs states by four routes.

The routes are mutually cross-checking:

  * ``metric_mc_oracle``   -- Morozova-Cencov double sum over eigenpairs,
                              the brute-force reference;
  * ``metric_spectral``    -- filter-function form with the stable
                              log-mean kernel;
  * ``metric_from_dsf``    -- line sum over a structure-factor comb;
  * ``metric_series_A/B``  -- one truncated moment expansion, around the
                              BKM point in the odd moments (A) or the MC
                              point in the even moments (B), with moments
                              from iterated commutators.

The family enters only through its filter or series coefficients, so
every route reads one frame per (state, S) (``dsf._Frame``), whose
commutator chain stays in the original basis: the series still
cross-check the eigenbasis routes.

All metrics carry the 1/4 normalization that makes the Bures member one
quarter of the fidelity susceptibility (see fidelity_susceptibility).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import families as fam
from .dsf import LineSpectrum, _dot, _dot_exp, _Frame, _frame_pair, _pair_products, build_dsf
from .hilbert import GibbsState

__all__ = [
    "MetricDiagnostics",
    "MetricResult",
    "metric_mc_oracle",
    "metric_spectral",
    "metric_from_dsf",
    "metric_series_A",
    "metric_series_B",
    "metric_difference_to_bkm",
    "cross_metric",
    "fidelity_susceptibility",
    "METHODS",
]

METHODS = ("oracle", "spectral", "dsf", "seriesA", "seriesB")


@dataclass
class MetricDiagnostics:
    """Method metadata attached to every metric value."""

    truncation: int | None = None
    convergence_radius_ok: bool = True
    degenerate_pairs_handled: int = 0
    last_term: float | None = None


@dataclass
class MetricResult:
    value: float
    method: str
    diagnostics: MetricDiagnostics = field(default_factory=MetricDiagnostics)


def _nonnegative(raw, scale, method: str):
    """raw with roundoff-negative values set to 0; a truly negative value raises.

    Works value by value on arrays over a frame's stack.
    """
    negative = raw < -1e-11 * np.maximum(scale, 1e-300)
    if np.any(negative):
        raise ArithmeticError(f"{method} produced a negative metric: {float(raw[negative][0])!r}")
    return np.where(raw < 0.0, 0.0, raw)[()]


def _spectral_value(frame: _Frame, log_g: np.ndarray):
    """(1/4)[sum g W |S_mn|^2 - <S>^2] for the filter g = e^{log_g} at the frame's pairs.

    The diagonal adds sum_n rho_n (S_nn - <S>)^2, so no term cancels <S>^2.
    """
    gross = _dot_exp(log_g + frame.log_kernel, frame.table.abs2) + frame.classical
    return _nonnegative(0.25 * gross, 0.25 * gross, "spectral")


def _oracle_value(frame: _Frame, family):
    """The Morozova-Cencov double sum over the frame's pairs.

    c_f is symmetric, so each pair (n, m) reads c_f(rho_m, rho_n) W^2 =
    rho_m _exprel_neg(u)^2 / f(e^{-u}), u = ln rho_m - ln rho_n, once, from
    its log; it is rho_m at u = 0.  ``family`` is one family for the
    frame, or a _Stacked one with one family per matrix of its stack.
    """
    log_c_w2 = 2.0 * frame.log_kernel - frame.pair_log_weights[1] - fam._log_f(family, frame.f_columns)
    gross = frame.classical + _dot_exp(log_c_w2, frame.table.abs2)
    return _nonnegative(0.25 * gross, 0.25 * gross, "oracle")


def _evaluate(frame: _Frame, family: fam.MonotoneFamily, method: str, L: int | None = None) -> list[MetricResult]:
    """The metric by one of METHODS on a prepared frame (L for the series), one result per member of its stack."""
    if method in ("seriesA", "seriesB"):
        return _series(frame, family, method, L)
    pairs = frame.degenerate_pairs
    if method == "spectral":
        value = _spectral_value(frame, fam._log_g(family, frame.g_columns))
    elif method == "oracle":
        value = _oracle_value(frame, family)
    elif method == "dsf":  # the structure factor merges degenerate lines: no pair is handled apart
        value, pairs = np.empty(np.shape(frame.mean)), np.zeros_like(pairs)
        for members, Q in frame.centered_dsfs:
            value[members] = _dsf_value(Q, family)
    else:
        raise ValueError(f"unknown method {method!r}")
    return [MetricResult(float(v), method, MetricDiagnostics(degenerate_pairs_handled=int(p))) for v, p in zip(np.ravel(value), np.ravel(pairs))]


def metric_spectral(state: GibbsState, S, family: fam.MonotoneFamily) -> MetricResult:
    """Metric via the filter function: (1/4)[sum g_f(x) W |S_mn|^2 - <S>^2].

    x = (1/2) ln(rho_n/rho_m) and W is the log-mean kernel, so degenerate
    eigenvalue pairs take their finite limit automatically.
    """
    return _evaluate(_Frame(state, S), family, "spectral")[0]


def metric_mc_oracle(state: GibbsState, S, family: fam.MonotoneFamily) -> MetricResult:
    """Brute-force metric from the Morozova-Cencov kernel c_f(rho_m, rho_n).

    (1/4)[ Var(S^d) + sum_{m != n} c_f(rho_m, rho_n) q_mn^2 |S_mn|^2 ] with
    q the ratio (rho_n - rho_m)/(ln rho_n - ln rho_m).  Each term is formed
    from the log weights, so a degenerate pair takes the analytic limit
    rho_m of the general formula.  Serves as the reference for every
    other route.
    """
    return _evaluate(_Frame(state, S), family, "oracle")[0]


def metric_from_dsf(Q: LineSpectrum, family: fam.MonotoneFamily) -> MetricResult:
    """Metric as the structure-factor line sum.

    (1/4)[ sum_j g_f(w_j/2) (1 - e^{-w_j})/w_j  w_j_weight - <S>^2 ], the
    elastic line entering with the limit factor 1; the dsf method reads
    the centered spectrum, whose <S> is 0.

    The uncentered spectrum (``build_dsf``'s default) cancels in a nearly pure state, its line sum near <S>^2
    (Bures reads 6.8e-9 off the oracle on a dim-2 GUE pair at spread 8142); ``centered=True`` does not.
    """
    if Q.kind != "diagonal":
        raise ValueError("metric_from_dsf expects a diagonal spectrum")
    return MetricResult(float(_dsf_value(Q, family)), "dsf", MetricDiagnostics())


def _dsf_value(Q: LineSpectrum, family: fam.MonotoneFamily):
    """metric_from_dsf's value, or one per row of a stack of spectra: one filter evaluation and one line sum."""
    gross = _dot_exp(fam._log_g(family, Q.g_columns) + Q.log_kernel, 1.0)
    return _nonnegative(0.25 * (gross - Q.mean_s ** 2), 0.25 * gross, "dsf")


def _series(frame: _Frame, family: fam.MonotoneFamily, method: str, L: int) -> list[MetricResult]:
    """Truncated moment expansion around a base metric, on a frame: one result per member of its stack.

    seriesA: base d^2_BKM = (1/4)[sum W |S_mn|^2 - <S>^2], moments
    M_{2l-1} and g-series coefficients.  seriesB: base d^2_MC =
    (1/4)[<S^2> - <S>^2], moments M_{2l} and ghat-series coefficients.
    The value is base + (1/4) sum_{l=1}^{L} (1/2)^q a_l(f) M_q; one
    below zero by more than rounding raises ArithmeticError, as on every route.
    The frame's chain runs on to the highest M_q first, so one past double
    range raises before the exact coefficients, slow at large L, are formed.
    """
    if not isinstance(L, numbers.Integral) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    odd = method == "seriesA"
    frame.moment(2 * L - odd)
    base = frame.filtered if odd else frame.second_moment
    coeffs = fam.taylor_coeffs(family, "g" if odd else "g_hat", L)
    radius = (fam.g_series_radius if odd else fam.g_hat_series_radius)(family)
    total = 0.25 * (base - frame.mean ** 2)
    for l in range(1, L + 1):
        q = 2 * l - odd
        term = 0.25 * 0.5 ** q * coeffs[l - 1] * frame.moment(q)
        total = total + term
    ok = 0.5 * frame.max_omega < radius
    value = _nonnegative(total, 0.25 * base, method)
    return [
        MetricResult(float(v), method, MetricDiagnostics(truncation=L, convergence_radius_ok=bool(o), last_term=float(abs(t))))
        for v, o, t in zip(np.ravel(value), np.ravel(ok), np.ravel(term))
    ]


def metric_series_A(state: GibbsState, S, family: fam.MonotoneFamily, L: int) -> MetricResult:
    """Truncated odd-moment expansion around the BKM metric.

    d^2_f ~ d^2_BKM + (1/4) sum_{l=1}^{L} (1/2)^{2l-1} a_{2l-1}(f) M_{2l-1}
    with the g-series coefficients a and moments from iterated commutators.
    The radius flag reports whether max|w|/2 lies inside the convergence
    radius of the g-series; outside it the value is reported but suspect.
    """
    return _evaluate(_Frame(state, S), family, "seriesA", L)[0]


def metric_series_B(state: GibbsState, S, family: fam.MonotoneFamily, L: int) -> MetricResult:
    """Truncated even-moment expansion around the MC metric (the variance).

    d^2_f ~ d^2_MC + (1/4) sum_{l=1}^{L} (1/2)^{2l} a_{2l}(f) M_{2l} with
    the ghat-series coefficients; radius diagnostics as in series A.
    """
    return _evaluate(_Frame(state, S), family, "seriesB", L)[0]


def metric_difference_to_bkm(state: GibbsState, S, family: fam.MonotoneFamily) -> float:
    """d^2_f - d^2_BKM as a single line sum over the dissipative weights.

    (1/4) sum_j [g_f(w_j/2) - 1] (1 - e^{-w_j})/w_j w_j_weight; identically
    zero for the BKM family.
    """
    Q = build_dsf(state, S)
    with np.errstate(over="ignore"):
        return 0.25 * float(_dot(np.expm1(fam._log_g(family, Q.g_columns)), np.exp(Q.log_kernel)))


def _cross_value(frame_a: _Frame, frame_b: _Frame, log_g: np.ndarray):
    """(1/4) sum g W dA_nm dB_mn over two frames of one state and pairs, for the filter g = e^{log_g}."""
    diagonal = (frame_a.table.diagonal - frame_a.mean[..., None]) * (frame_b.table.diagonal - frame_b.mean[..., None])
    return 0.25 * (_dot_exp(log_g + frame_a.log_kernel, _pair_products(frame_a, frame_b)) + _dot(frame_a.state.weights, diagonal))


def cross_metric(state: GibbsState, A, B, family: fam.MonotoneFamily) -> complex:
    """Cross metric d^2_f(dA, dB): (1/4) sum g_f(x_mn) W_mn dA_mn dB_nm.

    The pair-spectrum sum (1/8) sum_j (w/2)^{-1} tanh(w/2) g_f(w/2)
    (1 + e^{-w}) q_j over the cross lines q_j = dA_mn dB_nm rho_m, line by
    line: the tanh/cotanh factors collapse to (1 - e^{-w})/w, which turns
    the line weight into the log-mean kernel W_mn times dA_mn dB_nm.
    Real for A = B; cross_metric(A, B) = conj(cross_metric(B, A)).  A
    term past double range raises OverflowError: the sum is then inf or nan.
    """
    frame_a, frame_b = _frame_pair(state, A, B)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf; the value is checked below
        value = complex(_cross_value(frame_a, frame_b, fam._log_g(family, frame_a.x)))
    if not np.isfinite(value):
        raise OverflowError(f"cross metric of {family.label}: a term is past double range, giving {value!r}")
    return value


def fidelity_susceptibility(state: GibbsState, S) -> float:
    """chi_F = 4 d^2_Bures, the conventional fidelity-susceptibility scale."""
    return 4.0 * metric_spectral(state, S, fam.BURES).value
