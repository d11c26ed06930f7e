"""Analytic benchmark models: spin in a field and k-photon bosonic modes.

Both models have single-frequency structure factors, which makes every
monotone metric a closed form and turns them into end-to-end oracles for
the numeric routes.  Printed literature constants are compared against the
truncated-trace evaluation in reports rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import families as fam
from .dsf import _assemble, _Frame
from .hilbert import HermitianOperator, gibbs_state
from .metrics import _evaluate

__all__ = [
    "SpinModel",
    "BosonModel",
    "build_model",
    "spin_matrices",
    "SpinRatioReport",
    "spin_ratio_property",
    "boson_correlators",
    "BosonConstantsReport",
    "boson_constant_report",
    "BosonClosedForms",
    "boson_closed_forms",
]


@dataclass(frozen=True)
class SpinModel:
    """Single spin s >= 1/2 with generator omega0 * S_z (beta absorbed)."""

    s: float
    omega0: float

    def __post_init__(self):
        doubled = 2.0 * self.s
        if not 1.0 <= doubled < math.inf or abs(doubled - round(doubled)) > 1e-12:
            raise ValueError("s must be a half-integer >= 1/2")
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError("omega0 must be positive and finite")

    @property
    def dim(self) -> int:
        return int(round(2.0 * self.s)) + 1

    @property
    def frequency(self) -> float:
        """The factor omega0 of the unit-frequency generator."""
        return self.omega0

    def unit_matrices(self):
        """Unit-frequency generator S_z and observable S_x as operators, each with its pattern."""
        m = self.s - np.arange(self.dim)  # S_z eigenvalues, descending
        # S_x has half of <m+1|S_+|m> = sqrt(s(s+1) - m(m+1)) on each side of the diagonal
        half = 0.5 * np.sqrt(self.s * (self.s + 1.0) - m[1:] * (m[1:] + 1.0))
        return _band_operator(m, 0), _band_operator(half, 1)


def spin_matrices(s: float):
    """Standard spin matrices (S_x, S_y, S_z) with [S_x, S_y] = i S_z, each equal to its conjugate transpose."""
    sz, sx = (op.matrix for op in SpinModel(s, 1.0).unit_matrices())
    half, n = np.diagonal(sx, 1).real, np.arange(sx.shape[-1] - 1)
    sy = np.zeros_like(sx)
    sy[n, n + 1], sy[n + 1, n] = -1j * half, 1j * half
    return sx, sy, sz


def _band_operator(values: np.ndarray, k: int) -> HermitianOperator:
    """The real symmetric operator with ``values`` at (n, n + k) and (n + k, n), k >= 0, held as its band: no n x n array."""
    dim = values.size + k
    n = np.arange(dim - k)
    keys = np.sort(np.concatenate((n * dim + n + k, (n + k) * dim + n)))  # distinct for k >= 1, each twice for k = 0
    rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) > 0], dim)  # row-major
    entries = values.astype(complex)[np.minimum(rows, cols)]
    nonzero = entries != 0.0
    pattern = rows[nonzero], cols[nonzero], entries[nonzero], entries[nonzero]
    return HermitianOperator._held(dim, pattern, entries if k == 0 else np.zeros(dim, dtype=complex))


def _ladder_power(v: np.ndarray, k: int) -> np.ndarray:
    """The entries (n, n + k) of b^k, for b whose only nonzero entries are v at (n, n + 1).

    The products are grouped as np.linalg.matrix_power groups its matrix
    products, (b^p b^q)[n, n + p + q] = v_p[n] v_q[n + p], so they hold its bits.
    """
    def times(x, y):  # entries and power of the product of two powers
        return x[0][: x[0].size - y[1]] * y[0][x[1]:], x[1] + y[1]

    if k <= 3:  # matrix_power's short-cuts multiply left to right
        return reduce(times, [(v, 1)] * k)[0]
    squares = [(v, 1)]  # b^(2^i), then the product of those of k's set bits, least significant first
    while 2 ** len(squares) <= k:
        squares.append(times(squares[-1], squares[-1]))
    return reduce(times, [z for i, z in enumerate(squares) if k >> i & 1])[0]


def _brillouin_sz(s: float, x: float) -> float:
    """((2s+1) coth((2s+1) x) - coth(x)) / 2, the Brillouin closed form."""
    return 0.5 * ((2 * s + 1) / math.tanh((2 * s + 1) * x) - 1.0 / math.tanh(x))


@dataclass
class SpinRatioReport:
    """Single-frequency ratio check for one spin model and family."""

    s: float
    omega0: float
    family: str
    support_ok: bool
    ratio: float
    expected_g: float
    ratio_error: float
    brute_value: float
    closed_form_value: float
    closed_over_brute: float


def spin_ratio_property(model: SpinModel, family: fam.MonotoneFamily) -> SpinRatioReport:
    """Verify d^2_f / d^2_BKM = g_f(omega0/2) for the spin model.

    The S_x spectrum is supported only at +-omega0 (ladder selection
    rule), which forces the ratio property.  The report also evaluates the
    Brillouin-function closed form S B_s(omega0/2) (omega0/2)^{-1}
    g_f(omega0/2) quoted for this model.  closed_over_brute is 8 for every
    s, omega0 and family, a normalization: d^2_f = F_0 g_f / 4, the quoted
    form is 2 F_0 g_f, and F_0(S_x; S_x) = |<S_z>| / omega0.
    """
    T, S = build_model(model)
    frame = _Frame(gibbs_state(T), S)
    [(_, spectrum)] = _assemble(frame, False)
    omegas = spectrum.omegas
    off = np.minimum(np.abs(np.abs(omegas) - model.omega0), np.abs(omegas))
    support_ok = bool(np.all(off < 1e-9))
    brute = _evaluate(frame, family, "spectral")[0].value
    base = _evaluate(frame, fam.BKM, "spectral")[0].value
    ratio = brute / base
    expected = fam.eval_g(family, 0.5 * model.omega0)
    half = 0.5 * model.omega0
    closed = _brillouin_sz(model.s, half) / half * expected
    return SpinRatioReport(
        s=model.s,
        omega0=model.omega0,
        family=family.label,
        support_ok=support_ok,
        ratio=ratio,
        expected_g=expected,
        ratio_error=abs(ratio - expected) / max(abs(expected), 1e-300),
        brute_value=brute,
        closed_form_value=closed,
        closed_over_brute=closed / brute if brute else math.inf,
    )


@dataclass(frozen=True)
class BosonModel:
    """Truncated k-photon mode: T = omega b^dag b, S = (b^dag)^k + b^k.

    The Fock space keeps occupation numbers 0..cutoff; construction fails
    unless the Gibbs tail exp(-omega*cutoff)/Z stays below 1e-12.
    """

    k: int
    omega: float
    cutoff: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if self.cutoff < self.k:
            raise ValueError("cutoff must be at least k")
        n = np.arange(self.cutoff + 1)
        with np.errstate(over="ignore"):  # omega n past double range is inf, and its weight the exact 0
            Z = float(np.sum(np.exp(-self.omega * n)))
        tail = math.exp(-self.omega * self.cutoff) / Z
        if tail >= 1e-12:
            raise ValueError(f"cutoff {self.cutoff} too small: Gibbs tail {tail:.3e} >= 1e-12")

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    @property
    def nbar(self) -> float:
        """Untruncated occupation 1/(e^omega - 1)."""
        return 1.0 / math.expm1(self.omega)

    @property
    def frequency(self) -> float:
        """The factor omega of the unit-frequency generator."""
        return self.omega

    def unit_matrices(self):
        """Truncated Fock matrices of the unit-frequency generator b^dag b and the k-photon drive, each with its pattern."""
        n = np.arange(self.dim)
        return _band_operator(n, 0), _band_operator(_ladder_power(np.sqrt(n[1:]), self.k), self.k)


def build_model(model: SpinModel | BosonModel):
    """Generator frequency * T and observable S as operators, from the model's unit_matrices()."""
    unit, S = model.unit_matrices()
    return _band_operator(model.frequency * unit.diagonal, 0), S


def _correlators(frame: _Frame) -> tuple[float, float]:
    """K = sum_j v_j^2 (rho_{j+k} - rho_j) and L = sum_j v_j^2 (rho_{j+k} + rho_j) at a boson frame's pairs (j + k, j),
    v_j = S_{j,j+k} the band of b^k (b has sqrt(n) at (n - 1, n)): O(n), with no n x n matrix."""
    (w_rows, w_cols), v2 = frame.pair_weights, frame.table.down
    return float(np.dot(v2, w_rows - w_cols)), float(np.dot(v2, w_rows + w_cols))


def boson_correlators(model: BosonModel) -> tuple[float, float]:
    """Truncated-trace correlators K(k) and L(k).

    K = <((b+)^k - b^k)((b+)^k + b^k)>, L = <((b+)^k + b^k)^2>; these feed
    the closed forms of boson_closed_forms.
    """
    T, S = build_model(model)
    return _correlators(_Frame(gibbs_state(T), S))


@dataclass
class BosonConstantsReport:
    """Numeric correlators against the quoted closed-form constants."""

    k: int
    omega: float
    nbar: float
    K_numeric: float
    L_numeric: float
    K_reference: float | None
    L_reference: float | None
    K_deviation: float | None
    L_deviation: float | None


def boson_constant_report(model: BosonModel) -> BosonConstantsReport:
    """Compare K(k), L(k) against the quoted k = 1, 2 closed forms.

    References: K(1) = -1, L(1) = 2 nbar + 1, K(2) = -2(2 nbar + 1) and
    the literature value L(2) = 4 nbar^2.  The last disagrees with the
    truncated-trace evaluation (which gives 4 nbar^2 + 4 nbar + 2); the
    deviation is reported, not patched.
    """
    K, L = boson_correlators(model)
    nbar = model.nbar
    refs = {
        1: (-1.0, 2.0 * nbar + 1.0),
        2: (-2.0 * (2.0 * nbar + 1.0), 4.0 * nbar ** 2),
    }
    K_ref, L_ref = refs.get(model.k, (None, None))
    def dev(num, ref):
        return None if ref is None else abs(num - ref) / max(abs(ref), 1e-300)
    return BosonConstantsReport(
        k=model.k,
        omega=model.omega,
        nbar=nbar,
        K_numeric=K,
        L_numeric=L,
        K_reference=K_ref,
        L_reference=L_ref,
        K_deviation=dev(K, K_ref),
        L_deviation=dev(L, L_ref),
    )


@dataclass
class BosonClosedForms:
    """The two closed forms and the brute-force value of one metric."""

    via_nu1: float
    via_nu2: float
    brute: float


def boson_closed_forms(model: BosonModel, family: fam.MonotoneFamily) -> BosonClosedForms:
    """Closed forms of d^2_f from the numerically evaluated K(k), L(k).

        via_nu1 = d^2_BKM + (1/4) (k w/2)^{-1} [1 - g_f(k w/2)] K(k)
        via_nu2 = d^2_MC  - (1/4) [1 - ghat_f(k w/2)] L(k)

    with d^2_BKM from the Duhamel product and d^2_MC from the variance;
    brute is the spectral-route metric on the truncated model.  All three
    agree at converged cutoff.
    """
    T, S = build_model(model)
    frame = _Frame(gibbs_state(T), S)
    K, L = _correlators(frame)
    half = 0.5 * model.k * model.omega
    d2_bkm = 0.25 * float(frame.filtered)
    d2_mc = 0.25 * (float(frame.second_moment) - float(frame.mean) ** 2)
    via_nu1 = d2_bkm + 0.25 / half * (1.0 - fam.eval_g(family, half)) * K
    via_nu2 = d2_mc - 0.25 * (1.0 - fam.eval_g_hat(family, half)) * L
    brute = _evaluate(frame, family, "spectral")[0].value
    return BosonClosedForms(via_nu1, via_nu2, brute)
