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
every route reads one frame per (state, S) (``_Frame``).  Its commutator
chain (``dsf.commutator_moments``, shared with functional_F and the sum
rules) stays in the original basis, so the series still cross-check the
eigenbasis routes.  The one kernel is ``scipy.special.exprel``.

All metrics carry the 1/4 normalization that makes the Bures member one
quarter of the fidelity susceptibility (see fidelity_susceptibility).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import exprel

from . import families as fam
from .dsf import LineSpectrum, build_cross_dsf, build_dsf, commutator_moments
from .hilbert import GibbsState, ObservableInEigenbasis, duhamel_weight_matrix, to_eigenbasis

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

METHODS = ("mc_oracle", "spectral", "dsf_sum", "series_A", "series_B")

# pairs closer than this in log weight are reported as degenerate
_DEGENERATE_WINDOW = 2e-4


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


def _nonnegative(raw: float, scale: float, method: str) -> float:
    if raw < 0.0:
        if raw < -1e-11 * max(scale, 1e-300):
            raise ArithmeticError(f"{method} produced a negative metric: {raw!r}")
        return 0.0
    return raw


class _Frame:
    """Family-independent data of one (state, S), shared by every route.

    The attributes are what the closed-sum routes need; ``dsf``,
    ``max_omega`` and ``moments`` are computed on first use and kept.
    chain_order is the highest commutator moment the frame provides.
    """

    def __init__(self, state: GibbsState, S, chain_order: int = 0):
        self.state = state
        self.S = S  # as given; the commutator chain reads it in the original basis
        self.chain_order = chain_order
        self.rotated = to_eigenbasis(state, S)
        self.s_eig = self.rotated.elements
        lam = state.decomposition.eigenvalues
        self.x = 0.5 * (lam[:, None] - lam[None, :])  # (1/2) ln(rho_n / rho_m)
        self.kernel = duhamel_weight_matrix(state)
        self.abs2 = np.abs(self.s_eig) ** 2
        self.mean = float(np.dot(state.weights, np.diag(self.s_eig).real))
        off = ~np.eye(state.dim, dtype=bool)
        window = (np.abs(2.0 * self.x) < _DEGENERATE_WINDOW) & off
        self.degenerate_pairs = int(np.sum(window))

    @cached_property
    def dsf(self) -> LineSpectrum:
        return build_dsf(self.state, self.rotated)

    @cached_property
    def max_omega(self) -> float:
        """Largest Bohr frequency carrying weight of S."""
        return _max_coupled_omega(self.rotated)

    @cached_property
    def moments(self) -> list[float]:
        """M_0..M_chain_order from one commutator chain."""
        return commutator_moments(self.state, self.S, self.chain_order)


def _max_coupled_omega(rotated: ObservableInEigenbasis) -> float:
    """Largest |T_n - T_m| over the pairs where S has a nonzero element."""
    lam = rotated.basis.eigenvalues
    mags = np.abs(rotated.elements)
    coupled = mags > 1e-14 * max(float(mags.max()), 1e-300)
    gaps = np.abs(lam[:, None] - lam[None, :])
    return float(np.max(np.where(coupled, gaps, 0.0)))


def _spectral_value(frame: _Frame, family: fam.MonotoneFamily) -> float:
    g = fam.eval_g(family, frame.x)
    gross = float(np.sum(g * frame.kernel * frame.abs2))
    return _nonnegative(
        0.25 * (gross - frame.mean ** 2), 0.25 * gross, "spectral"
    )


def _oracle_value(frame: _Frame, family: fam.MonotoneFamily) -> float:
    w = frame.state.weights
    lw = frame.state.log_weights
    delta = lw[None, :] - lw[:, None]
    c = fam.eval_c(family, w[:, None], w[None, :])
    summand = c * frame.kernel ** 2 * frame.abs2
    # analytic degenerate limit of c_f(rho, rho) q^2 is rho itself
    deg = np.abs(delta) < 1e-10
    rho_m = np.broadcast_to(w[:, None], summand.shape)
    summand = np.where(deg, rho_m * frame.abs2, summand)
    np.fill_diagonal(summand, 0.0)
    diag = np.diag(frame.s_eig).real
    classical = float(np.dot(w, (diag - frame.mean) ** 2))
    gross = classical + float(np.sum(summand))
    return _nonnegative(0.25 * gross, 0.25 * gross, "mc_oracle")


def _evaluate(
    frame: _Frame, family: fam.MonotoneFamily, method: str, L: int | None = None
) -> MetricResult:
    """The metric by one of METHODS on a prepared frame (L for the series)."""
    if method == "dsf_sum":
        return metric_from_dsf(frame.dsf, family)
    if method in ("series_A", "series_B"):
        return _series(frame, family, method, L)
    route = {"spectral": _spectral_value, "mc_oracle": _oracle_value}[method]
    return MetricResult(
        route(frame, family),
        method,
        MetricDiagnostics(degenerate_pairs_handled=frame.degenerate_pairs),
    )


def metric_spectral(state: GibbsState, S, family: fam.MonotoneFamily) -> MetricResult:
    """Metric via the filter function: (1/4)[sum g_f(x) W |S_mn|^2 - <S>^2].

    x = (1/2) ln(rho_n/rho_m) and W is the log-mean kernel, so degenerate
    eigenvalue pairs take their finite limit automatically.
    """
    return _evaluate(_Frame(state, S), family, "spectral")


def metric_mc_oracle(state: GibbsState, S, family: fam.MonotoneFamily) -> MetricResult:
    """Brute-force metric from the Morozova-Cencov kernel c_f(rho_m, rho_n).

    (1/4)[ Var(S^d) + sum_{m != n} c_f(rho_m, rho_n) q_mn^2 |S_mn|^2 ] with
    q the ratio (rho_n - rho_m)/(ln rho_n - ln rho_m); pairs closer than
    1e-10 in log weight use the analytic limit rho_m.  Serves as the
    reference for every other route.
    """
    return _evaluate(_Frame(state, S), family, "mc_oracle")


def _line_kernel(omegas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log-mean of each line weight q and its balance partner q e^{-w}.

    Equals q (1 - e^{-w})/w (q at the elastic line): q exprel(-w) for
    w >= 0 and exp(log q - w) exprel(w) for w < 0, which stays finite where
    e^{-w} overflows.  Unbalanced inputs may still overflow to inf.
    """
    with np.errstate(divide="ignore", over="ignore"):
        larger = np.where(omegas < 0.0, np.exp(np.log(weights) - omegas), weights)
    return larger * exprel(-np.abs(omegas))


def metric_from_dsf(Q: LineSpectrum, family: fam.MonotoneFamily) -> MetricResult:
    """Metric as the structure-factor line sum.

    (1/4)[ sum_j g_f(w_j/2) (1 - e^{-w_j})/w_j  w_j_weight - <S>^2 ], the
    elastic line entering with the limit factor 1.
    """
    if Q.kind != "diagonal":
        raise ValueError("metric_from_dsf expects a diagonal spectrum")
    g = fam.eval_g(family, 0.5 * Q.omegas)
    gross = float(np.sum(g * _line_kernel(Q.omegas, Q.weights)))
    value = _nonnegative(0.25 * (gross - Q.mean_s ** 2), 0.25 * gross, "dsf_sum")
    return MetricResult(value, "dsf_sum", MetricDiagnostics())


def _moment_order(method: str, L: int) -> int:
    """Highest commutator moment series_A or series_B reads at truncation L."""
    return 2 * L - (method == "series_A")


def _series(frame: _Frame, family: fam.MonotoneFamily, method: str, L: int) -> MetricResult:
    """Truncated moment expansion around a base metric, on a frame.

    series_A: base d^2_BKM = (1/4)[sum W |S_mn|^2 - <S>^2], moments
    M_{2l-1} and g-series coefficients.  series_B: base d^2_MC =
    (1/4)[<S^2> - <S>^2], moments M_{2l} and ghat-series coefficients.
    The value is base + (1/4) sum_{l=1}^{L} (1/2)^q a_l(f) M_q.
    """
    if L < 1:
        raise ValueError("L must be a positive integer")
    odd = method == "series_A"
    if odd:
        base = float(np.sum(frame.kernel * frame.abs2))
    else:
        base = float(np.dot(frame.state.weights, frame.abs2.sum(axis=0)))
    coeffs = fam.taylor_coeffs(family, "g" if odd else "g_hat", L)
    radius = (fam.g_series_radius if odd else fam.g_hat_series_radius)(family)
    total = 0.25 * (base - frame.mean ** 2)
    term = 0.0
    for l in range(1, L + 1):
        q = 2 * l - odd
        term = 0.25 * 0.5 ** q * coeffs[l - 1] * frame.moments[q]
        total += term
    ok = 0.5 * frame.max_omega < radius
    return MetricResult(
        total,
        method,
        MetricDiagnostics(truncation=L, convergence_radius_ok=ok, last_term=abs(term)),
    )


def metric_series_A(
    state: GibbsState, S, family: fam.MonotoneFamily, L: int
) -> MetricResult:
    """Truncated odd-moment expansion around the BKM metric.

    d^2_f ~ d^2_BKM + (1/4) sum_{l=1}^{L} (1/2)^{2l-1} a_{2l-1}(f) M_{2l-1}
    with the g-series coefficients a and moments from iterated commutators.
    The radius flag reports whether max|w|/2 lies inside the convergence
    radius of the g-series; outside it the value is reported but suspect.
    """
    return _evaluate(_Frame(state, S, _moment_order("series_A", L)), family, "series_A", L)


def metric_series_B(
    state: GibbsState, S, family: fam.MonotoneFamily, L: int
) -> MetricResult:
    """Truncated even-moment expansion around the MC metric (the variance).

    d^2_f ~ d^2_MC + (1/4) sum_{l=1}^{L} (1/2)^{2l} a_{2l}(f) M_{2l} with
    the ghat-series coefficients; radius diagnostics as in series A.
    """
    return _evaluate(_Frame(state, S, _moment_order("series_B", L)), family, "series_B", L)


def metric_difference_to_bkm(state: GibbsState, S, family: fam.MonotoneFamily) -> float:
    """d^2_f - d^2_BKM as a single line sum over the dissipative weights.

    (1/4) sum_j [g_f(w_j/2) - 1] (1 - e^{-w_j})/w_j w_j_weight; identically
    zero for the BKM family.
    """
    Q = build_dsf(state, S)
    g = fam.eval_g(family, 0.5 * Q.omegas)
    return 0.25 * float(np.sum((g - 1.0) * _line_kernel(Q.omegas, Q.weights)))


def cross_metric(state: GibbsState, A, B, family: fam.MonotoneFamily) -> complex:
    """Cross metric d^2_f(dA, dB) over the complex pair spectrum.

    (1/8) sum_j (w/2)^{-1} tanh(w/2) g_f(w/2) (1 + e^{-w}) q_j; the
    tanh/cotanh factors collapse to (1 - e^{-w})/w, giving the same kernel
    as the diagonal line sum.  Real for A = B; satisfies
    cross_metric(A, B) = conj(cross_metric(B, A)).
    """
    Q = build_cross_dsf(state, A, B)
    g = fam.eval_g(family, 0.5 * Q.omegas)
    return complex(0.25 * np.sum(g * _line_kernel(Q.omegas, Q.weights)))


def fidelity_susceptibility(state: GibbsState, S) -> float:
    """chi_F = 4 d^2_Bures, the conventional fidelity-susceptibility scale."""
    return 4.0 * metric_spectral(state, S, fam.BURES).value
