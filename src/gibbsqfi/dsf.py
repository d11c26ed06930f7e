"""Dynamical structure factor of finite systems as an exact line spectrum.

For a dense generator the structure factor is a finite comb of delta lines
at the Bohr frequencies omega_{nm} = T_n - T_m, so all frequency integrals
collapse to line sums with no quadrature error.  The module also provides
the moments of the comb, the nested-commutator functionals that generate
them algebraically, and the Bogoliubov-Duhamel inner product.  Every
(state, S) consumer reads one ``_Frame``, the only place that rotates an
observable into the eigenbasis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hilbert import GibbsState, as_operator, duhamel_weight_matrix, to_eigenbasis

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
# pairs closer than this in log weight are reported as degenerate
_DEGENERATE_WINDOW = 2e-4
# the commutator chain runs on sparse matrices while at most this share of
# the entries of T and R_q is nonzero, and on dense arrays after
_SPARSE_DENSITY = 0.1


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


class _lazy:
    """A member computed on first read and then stored on the instance.

    Like functools.cached_property, but without its lock: before Python
    3.12 that lock is shared by every instance, which serializes frames
    that threads build at the same time.  A frame belongs to one thread.
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, frame, owner=None):
        if frame is None:
            return self
        value = frame.__dict__[self.name] = self.compute(frame)
        return value


class _Frame:
    """Family-independent data of one (state, S), shared by every consumer.

    Lazy members are computed on first read, once per frame; chain_order
    is the highest commutator moment the frame provides.
    """

    def __init__(self, state: GibbsState, S, chain_order: int = 0):
        self.state = state
        self.S = S  # as given; the commutator chain reads it in the original basis
        self.chain_order = chain_order
        self.s_eig = to_eigenbasis(state, S).elements
        lam = state.decomposition.eigenvalues
        self.x = 0.5 * (lam[:, None] - lam[None, :])  # omega_{nm}/2 at position [n, m]
        self.abs2 = np.abs(self.s_eig) ** 2
        self.mean = float(np.dot(state.weights, np.diag(self.s_eig).real))
        # the diagonal always lies in the window and is not a pair
        self.degenerate_pairs = int(np.sum(np.abs(2.0 * self.x) < _DEGENERATE_WINDOW)) - state.dim

    @_lazy
    def kernel(self) -> np.ndarray:
        """The Duhamel kernel W of the state."""
        return duhamel_weight_matrix(self.state)

    @_lazy
    def centered(self) -> np.ndarray:
        """Elements of S - <S> in the eigenbasis."""
        return self.s_eig - self.mean * np.eye(self.state.dim)

    @_lazy
    def dsf(self) -> LineSpectrum:
        return _line_spectrum(self, self.abs2, self.mean)

    @_lazy
    def max_omega(self) -> float:
        """Largest |T_n - T_m| over the pairs where S has a nonzero element."""
        mags = np.abs(self.s_eig)
        coupled = mags > 1e-14 * max(float(mags.max()), 1e-300)
        return float(np.max(np.where(coupled, np.abs(2.0 * self.x), 0.0)))

    @_lazy
    def moments(self) -> list[float]:
        """M_0..M_chain_order from one commutator chain."""
        return commutator_moments(self.state, self.S, self.chain_order)


def _frame_pair(state: GibbsState, A, B) -> tuple[_Frame, _Frame]:
    """Frames of A and B, rotating once when B is A."""
    frame_a = _Frame(state, A)
    return frame_a, (frame_a if B is A else _Frame(state, B))


def _line_spectrum(frame: _Frame, abs2: np.ndarray, mean_s: float) -> LineSpectrum:
    """Diagonal spectrum of eigenbasis elements |S_nm|^2: rho_m |S_nm|^2 at omega_nm."""
    floor = 16 * np.finfo(float).eps * float(np.max(abs2))
    weights = abs2 * frame.state.weights[None, :]
    return _assemble(2.0 * frame.x, weights, "diagonal", frame.state.dim, mean_s, floor)


def build_dsf(state: GibbsState, S, centered: bool = False) -> LineSpectrum:
    """Line spectrum of Q_S: weight rho_m |<n|S|m>|^2 at omega = T_n - T_m.

    The elastic omega = 0 line collects the diagonal matrix elements; with
    ``centered`` the observable is replaced by S - <S> first (which only
    changes the elastic weight).
    """
    frame = _Frame(state, S)
    if centered:
        return _line_spectrum(frame, np.abs(frame.centered) ** 2, 0.0)
    return frame.dsf


def build_cross_dsf(state: GibbsState, A, B) -> LineSpectrum:
    """Cross spectrum with weights <n|dA|m><m|dB|n> rho_m for Hermitian A, B."""
    frame_a, frame_b = _frame_pair(state, A, B)
    dA, dB = frame_a.centered, frame_b.centered
    # [n, m] entry: <n|dA|m> <m|dB|n> rho_m
    weights = dA * dB.T * state.weights[None, :]
    floor = 16 * np.finfo(float).eps * float(np.max(np.abs(dA)) * np.max(np.abs(dB)))
    return _assemble(2.0 * frame_a.x, weights, "cross", state.dim, 0.0, floor)


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

    R_q = [T, R_{q-1}] stays in the original basis and reads the generator
    as given, independent of the eigenvectors behind ``moment``.
    <R_q S> = tr(R_q P) with P = S rho.  While T and R_q have at most a
    share _SPARSE_DENSITY of nonzero entries the chain runs on CSR
    matrices (a diagonal T keeps R_q as sparse as S; a banded T widens the
    band each order), and from the first denser R_q on dense arrays.  A
    moment that is not finite raises OverflowError naming its order.
    This is the one commutator chain: functional_F, sum_rule_report and
    the metric series all read it.
    """
    S_matrix = as_operator(S).matrix
    T_matrix = state.generator_matrix()
    limit = _SPARSE_DENSITY * S_matrix.size
    sparse_chain = max(np.count_nonzero(T_matrix), np.count_nonzero(S_matrix)) <= limit
    T = sparse.csr_array(T_matrix) if sparse_chain else T_matrix
    R = sparse.csr_array(S_matrix) if sparse_chain else S_matrix
    P_transposed = (R @ state.rho_matrix()).T
    out = []
    for q in range(order + 1):
        if q > 0:
            R = T @ R - R @ T
            if sparse_chain and R.nnz > limit:
                sparse_chain = False
                T, R = T_matrix, R.toarray()
        value = complex(R.multiply(P_transposed).sum() if sparse_chain else np.sum(R * P_transposed))
        if not np.isfinite(value):
            raise OverflowError(f"commutator moment M_{q} is not finite ({value.real!r})")
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
    frame_a, frame_b = _frame_pair(state, A, B)
    value = complex(np.sum(frame_a.s_eig * frame_b.s_eig.T * frame_a.kernel))
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
    frame_a, frame_b = _frame_pair(state, A, B)
    lw = state.log_weights
    x, w = np.polynomial.legendre.leggauss(nodes)
    taus = 0.5 * (x + 1.0)
    total = 0.0
    pair = frame_a.s_eig * frame_b.s_eig.T
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


def _sum_rule_rows(frame: _Frame, p_max: int) -> list[SumRuleRow]:
    """Sum-rule rows p = 0..p_max on a frame whose chain reaches p_max - 1."""
    off = np.where(np.eye(frame.state.dim, dtype=bool), 0.0, frame.abs2)
    rows = []
    for p in range(p_max + 1):
        if p == 0:
            f_val = float(np.sum(frame.kernel * off))
            m_val = 2.0 * moment(_line_spectrum(frame, off, 0.0), -1)
        else:
            f_val = 2.0 * frame.moments[p - 1]
            m_val = 2.0 * moment(frame.dsf, p - 1)
        scale = max(abs(f_val), abs(m_val), 1e-300)
        rows.append(SumRuleRow(p, f_val, m_val, abs(f_val - m_val) / scale))
    return rows


def sum_rule_report(state: GibbsState, S, p_max: int = 6) -> list[SumRuleRow]:
    """Check F_p = 2 M_{p-1} for p = 0..p_max on one (state, S) instance.

    The p = 0 rule needs a vanishing elastic line, so that row is
    evaluated on the off-diagonal part of S in the eigenbasis of the
    generator, where F_0 = sum W |S_mn|^2, and raises ZeroDivisionError
    when S couples a degenerate pair; the rows with p >= 1 use S
    unchanged and read one commutator chain for every p.
    """
    return _sum_rule_rows(_Frame(state, S, p_max - 1), p_max)


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
