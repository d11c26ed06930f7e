"""Dynamical structure factor of finite systems as an exact line spectrum.

For a dense generator the structure factor is a finite comb of delta lines
at the Bohr frequencies omega_{nm} = T_n - T_m, so all frequency integrals
collapse to line sums with no quadrature error.  The module also provides
the moments of the comb, the nested-commutator functionals that generate
them algebraically, and the Bogoliubov-Duhamel inner product.  Every
(state, S) consumer reads one ``_Frame``, which rotates the observable
into the eigenbasis, or takes the rotated elements that the states of
every c * T share (one rotation per sweep job).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hilbert import GibbsState, _exprel_neg, as_operator, duhamel_weight_matrix, to_eigenbasis

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


class _lazy:
    """A member computed on first read and then stored on the instance.

    Like functools.cached_property, but without its lock: before Python
    3.12 that lock is shared by every instance, which serializes frames
    that threads build at the same time.  A frame, and the structure
    factor it builds, belong to one thread.
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


def _line_kernel(omegas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log-mean of each line weight q and its balance partner q e^{-w}.

    Equals q (1 - e^{-w})/w (q at the elastic line): max(q, q e^{-w}), as
    exp(log q - w) for w < 0, times _exprel_neg(|w|), which stays finite
    where e^{-w} overflows.  Unbalanced inputs may still overflow to inf.
    """
    with np.errstate(divide="ignore", over="ignore"):
        larger = np.where(omegas < 0.0, np.exp(np.log(weights) - omegas), weights)
    return larger * _exprel_neg(np.abs(omegas))


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

    @_lazy
    def kernel(self) -> np.ndarray:
        """The _line_kernel of the lines, which every family's line sum reads."""
        return _line_kernel(self.omegas, self.weights)


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


def _assemble(omegas, weights, kind, dim, mean_s) -> LineSpectrum:
    om, wt = _merge_lines(np.asarray(omegas, float).ravel(), np.asarray(weights).ravel())
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


def _dot(a: np.ndarray, b: np.ndarray):
    """Sum of a * b over the last axis, for each pair of a stack, summed as np.dot sums."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]


class _Frame:
    """Family-independent data of one (state, S), shared by every consumer.

    Lazy members are computed on first read, once per frame; chain_order
    is the highest commutator moment the frame provides.  The frame of the
    state of a stack of generators and a stack of observables of the same
    shape holds every array with the stack's leading axes, and its scalar
    members (mean, max_omega, moments) become arrays over the stack; the
    structure factor (``dsf``) is single-instance.  ``s_eig`` takes
    elements of S already rotated into the state's eigenbasis, which the
    states of every c * T share; S is rotated here when it is omitted.
    """

    def __init__(self, state: GibbsState, S, chain_order: int = 0, s_eig: np.ndarray | None = None):
        self.state = state
        self.S = S  # as given; the commutator chain reads it in the original basis
        self.chain_order = chain_order
        self.s_eig = to_eigenbasis(state, S) if s_eig is None else s_eig
        lam = state.decomposition.eigenvalues
        self.x = 0.5 * (lam[..., :, None] - lam[..., None, :])  # omega_{nm}/2 at position [n, m]
        self.abs2 = np.abs(self.s_eig) ** 2
        self.mean = _dot(state.weights, self.diagonal)
        # the diagonal always lies in the window and is not a pair
        self.degenerate_pairs = np.sum(np.abs(2.0 * self.x) < _DEGENERATE_WINDOW, axis=(-2, -1)) - state.dim

    @property
    def diagonal(self) -> np.ndarray:
        """Real diagonal S_nn of the eigenbasis elements."""
        return np.diagonal(self.s_eig, axis1=-2, axis2=-1).real

    @_lazy
    def kernel(self) -> np.ndarray:
        """The Duhamel kernel W of the state."""
        return duhamel_weight_matrix(self.state)

    @_lazy
    def centered(self) -> np.ndarray:
        """Elements of S - <S> in the eigenbasis."""
        return self.s_eig - np.multiply.outer(self.mean, np.eye(self.state.dim))

    @_lazy
    def dsf(self) -> LineSpectrum:
        return _line_spectrum(self, self.abs2, self.mean)

    @_lazy
    def max_omega(self):
        """Largest |T_n - T_m| over the pairs where S has a nonzero element."""
        mags = np.abs(self.s_eig)
        peak = np.max(mags, axis=(-2, -1), keepdims=True)
        coupled = mags > 1e-14 * np.maximum(peak, 1e-300)
        return np.max(np.where(coupled, np.abs(2.0 * self.x), 0.0), axis=(-2, -1))

    @_lazy
    def moments(self) -> list:
        """M_0..M_chain_order from one commutator chain."""
        return commutator_moments(self.state, self.S, self.chain_order)


def _frame_pair(state: GibbsState, A, B) -> tuple[_Frame, _Frame]:
    """Frames of A and B, rotating once when B is A."""
    frame_a = _Frame(state, A)
    return frame_a, (frame_a if B is A else _Frame(state, B))


def _check_pair_balance(omegas: np.ndarray, lines: np.ndarray, floor, kind: str = "diagonal"):
    """Detailed balance pair by pair: the line at -w weighs e^{-w} times the one at w.

    ``lines[..., n, m]`` is the weight at ``omegas[..., n, m]``, so the
    partner of each line is its transposed entry; a "cross" partner is
    e^{-w} times the conjugate.  ``floor`` covers lines at the rounding
    scale of the weights, which carry no relative accuracy.  Checked
    before lines are merged, so nearly equal frequencies cannot pair up
    differently at w and -w.
    """
    partner = np.swapaxes(lines, -1, -2)
    expected = np.exp(-np.abs(omegas)) * (np.conj(lines) if kind == "cross" else lines)
    bad = (omegas > _MERGE_TOL) & (np.abs(partner - expected) > 1e-12 * np.abs(lines) + floor)
    if np.any(bad):
        raise ArithmeticError(
            f"detailed balance violated at omega = {omegas[bad][0]:g}: "
            f"{partner[bad][0].item()!r} vs {expected[bad][0].item()!r}"
        )


def _line_spectrum(frame: _Frame, abs2: np.ndarray, mean_s: float) -> LineSpectrum:
    """Diagonal spectrum of eigenbasis elements |S_nm|^2: rho_m |S_nm|^2 at omega_nm."""
    floor = 16 * np.finfo(float).eps * float(np.max(abs2))
    weights = abs2 * frame.state.weights[None, :]
    _check_pair_balance(2.0 * frame.x, weights, floor)
    return _assemble(2.0 * frame.x, weights, "diagonal", frame.state.dim, mean_s)


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
    _check_pair_balance(2.0 * frame_a.x, weights, floor, "cross")
    return _assemble(2.0 * frame_a.x, weights, "cross", state.dim, 0.0)


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


def commutator_moments(state: GibbsState, S, order: int) -> list:
    """Moments M_q = (-1)^q <R_q(S) S>, q = 0..order, from iterated commutators.

    R_q = [T, R_{q-1}] stays in the original basis and reads the generator
    as given, independent of the eigenvectors behind ``moment``.
    <R_q S> = tr(R_q P) with P = S rho.  While T and R_q have at most a
    share _SPARSE_DENSITY of nonzero entries the chain runs on CSR
    matrices (a diagonal T keeps R_q as sparse as S; a banded T widens the
    band each order), and from the first denser R_q on dense arrays.  The
    state of a stack runs one dense chain for the whole stack, and each
    moment is an array over it.  A moment that is not finite raises
    OverflowError naming its order.  This is the one commutator chain:
    functional_F, sum_rule_report and the metric series all read it.
    """
    S_matrix = as_operator(S).matrix
    T_matrix = state.generator
    limit = _SPARSE_DENSITY * S_matrix.shape[-1] ** 2
    sparse_chain = S_matrix.ndim == 2 and max(np.count_nonzero(T_matrix), np.count_nonzero(S_matrix)) <= limit
    T = sparse.csr_array(T_matrix) if sparse_chain else T_matrix
    R = sparse.csr_array(S_matrix) if sparse_chain else S_matrix
    P_transposed = np.swapaxes(R @ state.rho_matrix(), -1, -2)
    out = []
    for q in range(order + 1):
        if q > 0:
            R = T @ R - R @ T
            if sparse_chain and R.nnz > limit:
                sparse_chain = False
                T, R = T_matrix, R.toarray()
        value = np.asarray(
            R.multiply(P_transposed).sum() if sparse_chain else np.sum(R * P_transposed, axis=(-2, -1)),
            dtype=complex,
        )
        bad = ~np.isfinite(value)
        if np.any(bad):
            raise OverflowError(f"commutator moment M_{q} is not finite ({float(value.real[bad][0])!r})")
        residue = np.abs(value.imag) > 1e-10 * np.maximum(1.0, np.abs(value.real))
        if np.any(residue):
            warnings.warn(
                f"commutator moment M_{q} has imaginary residue {value.imag[residue][0]:.3e}",
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
    return float(2.0 * commutator_moments(state, S_op, p - 1)[p - 1])


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
    keep = (magnitudes > 0.0) & (magnitudes >= _PRUNE_REL * scale)
    return LineSpectrum(Q.omegas[keep], weights[keep], "chi", Q.dim, 0.0)


@dataclass
class SumRuleRow:
    """One checked instance of the moment sum rule M_{p-1} = F_p / 2."""

    p: int
    functional: float
    moment_doubled: float
    rel_error: float


def _sum_rule_values(frame: _Frame, p_max: int) -> list[tuple]:
    """(F_p, 2 M_{p-1}, relative error) for p = 0..p_max; the chain must reach p_max - 1.

    The moments are sums over the eigenbasis pairs, whose lines (weight
    rho_m |S_nm|^2 at omega_nm) are checked for detailed balance first.
    M_{-1} leaves out the elastic pairs (|omega| <= _MERGE_TOL) and the
    diagonal, and diverges (ZeroDivisionError) when the elastic pairs
    weigh more than _PRUNE_REL of the heaviest line.  Each value is an
    array over the frame's stack.
    """
    omegas = 2.0 * frame.x
    lines = frame.abs2 * frame.state.weights[..., None, :]
    floor = 16 * np.finfo(float).eps * np.max(frame.abs2, axis=(-2, -1), keepdims=True)
    _check_pair_balance(omegas, lines, floor)
    off_diagonal = ~np.eye(frame.state.dim, dtype=bool)
    off = np.where(off_diagonal, lines, 0.0)
    elastic = np.abs(omegas) <= _MERGE_TOL
    heaviest = np.max(off, axis=(-2, -1))
    if np.any(np.sum(np.where(elastic, off, 0.0), axis=(-2, -1)) > _PRUNE_REL * heaviest):
        raise ZeroDivisionError("M_{-1} diverges: the spectrum has a nonzero elastic line")
    inverse = np.divide(off, omegas, out=np.zeros_like(off), where=~elastic)
    pairs = [(np.sum(frame.kernel * np.where(off_diagonal, frame.abs2, 0.0), axis=(-2, -1)),
              2.0 * np.sum(inverse, axis=(-2, -1)))]
    for p in range(1, p_max + 1):
        weighted = lines if p == 1 else omegas ** (p - 1) * lines
        pairs.append((2.0 * frame.moments[p - 1], 2.0 * np.sum(weighted, axis=(-2, -1))))
    return [
        (f_val, m_val, np.abs(f_val - m_val) / np.maximum(np.maximum(np.abs(f_val), np.abs(m_val)), 1e-300))
        for f_val, m_val in pairs
    ]


def sum_rule_report(state: GibbsState, S, p_max: int = 6) -> list[SumRuleRow]:
    """Check F_p = 2 M_{p-1} for p = 0..p_max on one (state, S) instance.

    The p = 0 rule needs a vanishing elastic line, so that row is
    evaluated on the off-diagonal part of S in the eigenbasis of the
    generator, where F_0 = sum W |S_mn|^2, and raises ZeroDivisionError
    when S couples a degenerate pair; the rows with p >= 1 use S
    unchanged and read one commutator chain for every p.
    """
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    values = _sum_rule_values(_Frame(state, S, p_max - 1), p_max)
    return [SumRuleRow(p, *map(float, row)) for p, row in enumerate(values)]


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
