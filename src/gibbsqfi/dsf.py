"""Dynamical structure factor of finite systems as an exact line spectrum.

For a dense generator the structure factor is a finite comb of delta lines
at the Bohr frequencies omega_{nm} = T_n - T_m, so all frequency integrals
collapse to line sums with no quadrature error.  The module also provides
the moments of the comb, the nested-commutator functionals that generate
them algebraically, and the Bogoliubov-Duhamel inner product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    GibbsState,
    ObservableInEigenbasis,
    as_operator,
    duhamel_weight_matrix,
    to_eigenbasis,
)

__all__ = [
    "LineSpectrum",
    "build_dsf",
    "build_cross_dsf",
    "moment",
    "commutator_moments",
    "functional_F",
    "bogoliubov_duhamel",
    "bogoliubov_duhamel_quadrature",
    "chi_lines",
    "SumRuleRow",
    "sum_rule_report",
    "write_spectrum_csv",
]

_MERGE_TOL = 1e-12  # frequencies closer than this are physically identical
_PRUNE_REL = 1e-16  # weights this far below the peak are numerical noise


@dataclass
class LineSpectrum:
    """Finite list of (Bohr frequency, weight) lines, sorted by frequency.

    kind "diagonal" holds Q_S with nonnegative real weights obeying
    detailed balance Q(-w) = exp(-w) Q(w); kind "cross" holds the complex
    pair spectrum of (delta A, delta B); kind "chi" holds the odd line
    representation of the dissipative response chi''/pi.
    """

    omegas: np.ndarray
    weights: np.ndarray
    kind: str
    dim: int
    mean_s: float = 0.0

    @property
    def elastic_weight(self):
        mask = np.abs(self.omegas) <= _MERGE_TOL
        if not np.any(mask):
            return 0.0
        total = self.weights[mask].sum()
        return float(total.real) if self.kind != "cross" else complex(total)

    def total_weight(self):
        total = self.weights.sum()
        return float(total.real) if self.kind != "cross" else complex(total)


def _merge_lines(omegas, weights):
    order = np.argsort(omegas, kind="stable")
    om = omegas[order]
    wt = weights[order]
    if om.size == 0:
        return om, wt
    starts = np.concatenate(([0], np.nonzero(np.diff(om) > _MERGE_TOL)[0] + 1))
    counts = np.diff(np.concatenate((starts, [om.size])))
    merged_om = np.add.reduceat(om, starts) / counts
    merged_wt = np.add.reduceat(wt, starts)
    return merged_om, merged_wt


def _check_detailed_balance(omegas, weights, kind, noise_floor):
    if not weights.size or not np.any(np.abs(weights)):
        return
    pos = np.nonzero(omegas > _MERGE_TOL)[0]
    if not pos.size:
        return
    targets = -omegas[pos]
    anchors = np.searchsorted(omegas, targets)
    w_minus = np.zeros(pos.size, dtype=weights.dtype)
    found = np.zeros(pos.size, dtype=bool)
    for offset in (-1, 0, 1):
        cand = anchors + offset
        valid = (cand >= 0) & (cand < omegas.size) & ~found
        if not np.any(valid):
            continue
        hit = np.zeros(pos.size, dtype=bool)
        hit[valid] = np.abs(omegas[cand[valid]] - targets[valid]) <= 2 * _MERGE_TOL
        w_minus[hit] = weights[cand[hit]]
        found |= hit
    w_plus = weights[pos]
    expected = np.exp(-omegas[pos]) * (np.conj(w_plus) if kind == "cross" else w_plus)
    # the floor covers lines at the rounding scale of the weights, which
    # carry no relative accuracy
    tolerance = 1e-12 * np.abs(w_plus) + noise_floor
    bad = np.nonzero(np.abs(w_minus - expected) > tolerance)[0]
    if bad.size:
        k = bad[0]
        raise ArithmeticError(
            f"detailed balance violated at omega = {omegas[pos[k]]:g}: "
            f"{w_minus[k]!r} vs {expected[k]!r}"
        )


def _assemble(omegas, weights, kind, dim, mean_s, noise_floor=0.0) -> LineSpectrum:
    om, wt = _merge_lines(np.asarray(omegas, float).ravel(), np.asarray(weights).ravel())
    if kind == "diagonal":
        imag = float(np.max(np.abs(wt.imag))) if np.iscomplexobj(wt) else 0.0
        scale = float(np.max(np.abs(wt))) if wt.size else 0.0
        if imag > 1e-12 * max(scale, 1e-300):
            raise ArithmeticError(f"diagonal spectrum has complex weights ({imag:.3e})")
        wt = wt.real if np.iscomplexobj(wt) else wt
        if wt.size and float(np.min(wt)) < -1e-12 * max(scale, 1e-300):
            raise ArithmeticError("diagonal spectrum has a negative weight")
        wt = np.maximum(wt, 0.0)
    if kind in ("diagonal", "cross"):
        _check_detailed_balance(om, wt, kind, noise_floor)
    if wt.size:
        magnitudes = np.abs(wt)
        positive = magnitudes > 0.0
        if not positive.any():
            om, wt = om[:0], wt[:0]
        else:
            # prune by balance-aware importance: a line at -w of weight
            # q e^{-w} carries the same metric content as its +w partner
            # of weight q, so plain weight thresholds would discard it
            log_importance = np.full(om.shape, -np.inf)
            log_importance[positive] = np.log(magnitudes[positive]) + np.maximum(
                0.0, -om[positive]
            )
            keep = log_importance >= log_importance.max() + np.log(_PRUNE_REL)
            om, wt = om[keep], wt[keep]
    return LineSpectrum(om, wt, kind, dim, float(mean_s))


def build_dsf(state: GibbsState, S, centered: bool = False) -> LineSpectrum:
    """Line spectrum of Q_S: weight rho_m |<n|S|m>|^2 at omega = T_n - T_m.

    The elastic omega = 0 line collects the diagonal matrix elements; with
    ``centered`` the observable is replaced by S - <S> first (which only
    changes the elastic weight).  S may also be ``to_eigenbasis(state, S)``.
    """
    rotated = S if isinstance(S, ObservableInEigenbasis) else to_eigenbasis(state, S)
    if rotated.basis is not state.decomposition:
        raise ValueError("S is rotated into the eigenbasis of another state")
    S_eig = rotated.elements
    lam = state.decomposition.eigenvalues
    mean = float(np.dot(state.weights, np.diag(S_eig).real))
    if centered:
        S_eig = S_eig - mean * np.eye(state.dim)
    omegas = lam[:, None] - lam[None, :]  # omega_{nm} at position [n, m]
    weights = np.abs(S_eig) ** 2 * state.weights[None, :]
    floor = 16 * np.finfo(float).eps * float(np.max(np.abs(S_eig)) ** 2)
    return _assemble(
        omegas, weights, "diagonal", state.dim, 0.0 if centered else mean, floor
    )


def build_cross_dsf(state: GibbsState, A, B) -> LineSpectrum:
    """Cross spectrum with weights <n|dA|m><m|dB|n> rho_m for Hermitian A, B."""
    A_eig = to_eigenbasis(state, A).elements
    B_eig = to_eigenbasis(state, B).elements
    lam = state.decomposition.eigenvalues
    mean_a = float(np.dot(state.weights, np.diag(A_eig).real))
    mean_b = float(np.dot(state.weights, np.diag(B_eig).real))
    dA = A_eig - mean_a * np.eye(state.dim)
    dB = B_eig - mean_b * np.eye(state.dim)
    omegas = lam[:, None] - lam[None, :]
    # [n, m] entry: <n|dA|m> <m|dB|n> rho_m
    weights = dA * dB.T * state.weights[None, :]
    floor = 16 * np.finfo(float).eps * float(np.max(np.abs(dA)) * np.max(np.abs(dB)))
    return _assemble(omegas, weights, "cross", state.dim, 0.0, floor)


def moment(Q: LineSpectrum, p: int) -> float:
    """Moment M_p = sum_j omega_j^p w_j of a diagonal spectrum (0^0 = 1).

    p = -1 requires a vanishing elastic line, otherwise the moment
    diverges and an error is raised.
    """
    if Q.kind != "diagonal":
        raise ValueError("moments are defined for diagonal spectra")
    if p < -1:
        raise ValueError("moments are defined for p >= -1")
    if p == -1:
        elastic = np.abs(Q.omegas) <= _MERGE_TOL
        if np.any(elastic) and np.any(Q.weights[elastic] > 0.0):
            raise ZeroDivisionError(
                "M_{-1} diverges: the spectrum has a nonzero elastic line"
            )
        mask = ~elastic
        return float(np.sum(Q.weights[mask] / Q.omegas[mask]))
    if p == 0:
        return float(np.sum(Q.weights))
    return float(np.sum(Q.omegas ** p * Q.weights))


def commutator_moments(state: GibbsState, S, order: int) -> list[float]:
    """Moments M_q = (-1)^q <R_q(S) S>, q = 0..order, from iterated commutators.

    R_q = [T, R_{q-1}] stays in the original basis, independent of the
    eigenvectors behind ``moment``.  <R_q S> = tr(R_q P) with P = S rho.
    This is the one commutator chain: functional_F, sum_rule_report and
    the metric series all read it.
    """
    S_matrix = as_operator(S).matrix
    T_matrix = state.generator_matrix()
    P_transposed = (S_matrix @ state.rho_matrix()).T
    R = S_matrix
    out = []
    for q in range(order + 1):
        if q > 0:
            R = T_matrix @ R - R @ T_matrix
        value = complex(np.sum(R * P_transposed))
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            warnings.warn(
                f"commutator moment M_{q} has imaginary residue {value.imag:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )
        out.append((-1.0) ** q * value.real)
    return out


def bogoliubov_duhamel(state: GibbsState, A, B) -> float:
    """Bogoliubov-Duhamel inner product F_0(A; B) for Hermitian A and B.

    Evaluated as the eigenbasis sum of A_mn B_nm against the stable kernel
    (rho_n - rho_m)/(ln rho_n - ln rho_m), whose degenerate limit is rho_m;
    the diagonal contributes rho_n A_nn B_nn.
    """
    A_eig = to_eigenbasis(state, A).elements
    B_eig = to_eigenbasis(state, B).elements
    W = duhamel_weight_matrix(state)
    value = complex(np.sum(A_eig * B_eig.T * W))
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        warnings.warn(
            f"Duhamel product has imaginary residue {value.imag:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return value.real


def bogoliubov_duhamel_quadrature(state: GibbsState, A, B, nodes: int = 32) -> float:
    """Slow route for F_0: Gauss-Legendre quadrature of the tau integral.

    Integrates <exp(tau T) A exp(-tau T) B> over tau in [0, 1] without the
    closed-form kernel, as an independent check of bogoliubov_duhamel.
    Accurate to ~1e-10 for spectral ranges up to a few tens.
    """
    A_eig = to_eigenbasis(state, A).elements
    B_eig = to_eigenbasis(state, B).elements
    lw = state.log_weights
    x, w = np.polynomial.legendre.leggauss(nodes)
    taus = 0.5 * (x + 1.0)
    total = 0.0
    pair = A_eig * B_eig.T
    for tau, wq in zip(taus, w):
        kernel = np.exp((1.0 - tau) * lw[:, None] + tau * lw[None, :])
        total += 0.5 * wq * float(np.sum(pair * kernel).real)
    return total


def functional_F(state: GibbsState, S, p: int) -> float:
    """Functional F_p(S; S) = 2 (-1)^{p+1} <R_{p-1} R_0>, F_0 by Duhamel.

    For p >= 1 this is 2 M_{p-1} read off the shared commutator chain
    (commutator_moments), an algebraic route independent of the line
    spectrum; the sum rule F_p = 2 M_{p-1} connects the two (see
    sum_rule_report).
    """
    if p < 0:
        raise ValueError("functional_F requires p >= 0")
    S_op = as_operator(S)
    if S_op.dim != state.dim:
        raise ValueError(f"dimension mismatch: {S_op.dim} vs {state.dim}")
    if p == 0:
        return bogoliubov_duhamel(state, S_op, S_op)
    return 2.0 * commutator_moments(state, S_op, p - 1)[p - 1]


def chi_lines(Q: LineSpectrum) -> LineSpectrum:
    """Line representation of chi''_S(omega)/pi: weight (1 - e^{-w}) Q(w).

    Input must be a diagonal spectrum (of the centered observable); the
    elastic line is annihilated by the (1 - e^{-w}) factor, and the result
    is an odd function of omega.
    """
    if Q.kind != "diagonal":
        raise ValueError("chi_lines expects a diagonal spectrum")
    factors = -np.expm1(-Q.omegas)
    weights = factors * Q.weights
    magnitudes = np.abs(weights)
    scale = float(magnitudes.max()) if magnitudes.size else 0.0
    if scale > 0.0:
        keep = magnitudes >= _PRUNE_REL * scale
    else:
        keep = np.zeros(magnitudes.shape, dtype=bool)
    return LineSpectrum(Q.omegas[keep], weights[keep], "chi", Q.dim, 0.0)


@dataclass
class SumRuleRow:
    """One checked instance of the moment sum rule M_{p-1} = F_p / 2."""

    p: int
    functional: float
    moment_doubled: float
    rel_error: float


def sum_rule_report(state: GibbsState, S, p_max: int = 6) -> list[SumRuleRow]:
    """Check F_p = 2 M_{p-1} for p = 0..p_max on one (state, S) instance.

    The p = 0 rule needs a vanishing elastic line, so that row is
    evaluated on the off-diagonal part of S in the eigenbasis of the
    generator, where F_0 = sum W |S_mn|^2; the rows with p >= 1 use S
    unchanged and read one commutator chain for every p.
    """
    rotated = to_eigenbasis(state, S)
    off = rotated.elements - np.diag(np.diag(rotated.elements))
    Q = build_dsf(state, rotated)
    Q_off = build_dsf(state, ObservableInEigenbasis(off, state.decomposition))
    chain = commutator_moments(state, S, p_max - 1)
    rows = []
    for p in range(p_max + 1):
        if p == 0:
            f_val = float(np.sum(duhamel_weight_matrix(state) * np.abs(off) ** 2))
            m_val = 2.0 * moment(Q_off, -1)
        else:
            f_val = 2.0 * chain[p - 1]
            m_val = 2.0 * moment(Q, p - 1)
        scale = max(abs(f_val), abs(m_val), 1e-300)
        rows.append(SumRuleRow(p, f_val, m_val, abs(f_val - m_val) / scale))
    return rows


def write_spectrum_csv(Q: LineSpectrum, path):
    """Export a line spectrum as CSV with metadata header comments."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dim={Q.dim}\n")
        fh.write(f"# mean_S={Q.mean_s!r}\n")
        fh.write(f"# kind={Q.kind}\n")
        fh.write("omega,weight_re,weight_im\n")
        for om, wt in zip(Q.omegas, Q.weights):
            z = complex(wt)
            fh.write(f"{float(om)!r},{z.real!r},{z.imag!r}\n")
