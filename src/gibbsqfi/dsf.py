"""Dynamical structure factor of finite systems as an exact line spectrum.

For a dense generator the structure factor is a finite comb of delta lines
at the Bohr frequencies omega_{nm} = T_n - T_m, so all frequency integrals
collapse to line sums with no quadrature error.  The module also provides
the moments of the comb, the nested-commutator functionals that generate
them algebraically, and the Bogoliubov-Duhamel inner product.  Every
(state, S) consumer reads one ``_Frame``, which sums over the eigenbasis
pairs that S couples (its ``_PairTable``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import families as fam
from .hilbert import GibbsState, HermitianOperator, SpectralDecomposition, _exprel_neg, _is_diagonal, as_operator, to_eigenbasis

__all__ = [
    "LineSpectrum",
    "build_dsf",
    "moment",
    "commutator_moments",
    "functional_F",
    "bogoliubov_duhamel",
    "bogoliubov_duhamel_quadrature",
    "chi_lines",
    "SumRuleRow",
    "sum_rule_report",
]

_MERGE_TOL = 1e-12  # frequencies closer than this are physically identical
_PRUNE_REL = 1e-16  # weights this far below the peak are numerical noise
# pairs closer than this in log weight are reported as degenerate
_DEGENERATE_WINDOW = 2e-4


@dataclass
class LineSpectrum:
    """Finite list of (Bohr frequency, weight) lines, sorted by frequency.

    kind "diagonal" holds Q_S, whose weights q obey detailed balance
    Q(-w) = exp(-w) Q(w), with ``log_heavier``, the log of the heavier side
    max(q, q e^{-w}) of each line's pair; ``weights`` is its exp times
    e^{min(w, 0)}, and may underflow to 0.  kind "chi" holds the odd line
    representation of chi''/pi: signed weights and no logs.  The spectra of
    a stack (``_assemble``) hold one member's lines in each row.
    """

    omegas: np.ndarray
    weights: np.ndarray
    kind: str
    dim: int
    mean_s: float = 0.0
    log_heavier: np.ndarray | None = None

    def __post_init__(self):
        if (self.kind == "diagonal") != (self.log_heavier is not None):
            raise ValueError("log_heavier is given for a diagonal spectrum, and only for one")

    @cached_property
    def log_kernel(self) -> np.ndarray:
        """log of each line's kernel q (1 - e^{-w})/w, which every family's line sum reads.

        The kernel is the log-mean of q and its balance partner q e^{-w}:
        the heavier of the two times _exprel_neg(|w|), so it stays finite
        where e^{-w} or q alone is past double range.
        """
        return self.log_heavier + np.log(_exprel_neg(np.abs(self.omegas)))

    @cached_property
    def g_columns(self) -> fam._Columns:
        """The filter columns at w/2, shared by every family's line sum."""
        return fam._g_columns(0.5 * self.omegas)


def _assemble(frame: _Frame, centered: bool) -> list[tuple]:
    """The structure factor of S, or of S - <S> when centered, of every member of a frame's stack, merged and pruned in log form.

    A pair (n, m) has lines rho_m |S_nm|^2 at omega_nm and rho_n |S_mn|^2
    at -omega_nm, of heavier sides rho_m |S_nm|^2 and rho_m |S_mn|^2; the
    elastic lines rho_n |S_nn - shift|^2 sit at 0.  Lines closer than
    _MERGE_TOL merge at their mean frequency, their heavier sides summed
    by logaddexp, and a line whose heavier side is below _PRUNE_REL of the
    largest goes.  Detailed balance is checked on the pairs first.  Returns
    (members, spectrum) for the members that keep each number of lines, the
    arrays over them: a row holds one member's lines, summed as alone.  One
    (state, S) gives [((), spectrum)].
    """
    frame.lines  # raises unless the pairs keep detailed balance
    t, (_, lw_cols), lw, mean = frame.table, frame.pair_log_weights, frame.state.log_weights, frame.mean
    pairs = t.rows.size
    with np.errstate(divide="ignore"):  # a zero element is an empty line
        log_diagonal = np.log(np.abs(t.diagonal - (mean[..., None] if centered else 0.0)) ** 2)
    heavier = np.concatenate((lw_cols + t.log_abs2[..., :pairs], lw_cols + t.log_abs2[..., pairs:], lw + log_diagonal), axis=-1)
    om = np.concatenate((2.0 * frame.x, -2.0 * frame.x, np.zeros_like(lw)), axis=-1)
    om, heavier = np.take(om, t.order, axis=-1).reshape(-1, t.order.size), np.take(heavier, t.order, axis=-1).ravel()
    head = np.concatenate((np.ones((len(om), 1), bool), np.diff(om, axis=-1) > _MERGE_TOL), axis=-1)  # each row starts a group
    starts, groups = np.flatnonzero(head), np.sum(head, axis=-1)
    first = np.cumsum(groups) - groups  # each member's first group
    om = np.add.reduceat(om.ravel(), starts) / np.diff(np.append(starts, om.size))
    heavier = np.logaddexp.reduceat(heavier, starts)
    with np.errstate(invalid="ignore"):  # -inf - -inf when every line is empty
        keep = heavier - np.repeat(np.maximum.reduceat(heavier, first), groups) >= np.log(_PRUNE_REL)
    om, heavier, counts = om[keep], heavier[keep], np.add.reduceat(keep, first, dtype=np.intp)
    weights, stacked, distinct = np.exp(heavier + np.minimum(om, 0.0)), np.ndim(mean) > 0, sorted(set(counts.tolist()))
    blocks = []
    for count in distinct:  # a model's stack keeps one number of lines in every member
        members = np.flatnonzero(counts == count) if stacked else ()
        lines = np.repeat(counts == count, counts) if len(distinct) > 1 else slice(None)  # one block is the arrays themselves
        shape, mean_s = np.shape(mean[members]) + (count,), 0.0 if centered else mean[members] if stacked else float(mean)
        spectrum = LineSpectrum(om[lines].reshape(shape), weights[lines].reshape(shape), "diagonal", frame.state.dim, mean_s, heavier[lines].reshape(shape))
        blocks.append((members, spectrum))
    return blocks


def _dot(a, b):
    """Sum of a * b over the last axis, for each matrix of a stack.

    On C-ordered arrays (the frames gather with np.take) every row is
    summed as it would be alone, so a stack gives its matrices' values.
    """
    return np.sum(a * b, axis=-1)[()]


def _dot_exp(log_a, b):
    """_dot(e^{log_a}, b): each term is exponentiated once, and a value past double range is inf without a warning."""
    with np.errstate(over="ignore"):
        return _dot(np.exp(log_a), b)


@dataclass(eq=False)
class _PairTable:
    """One operator S at the eigenbasis pairs (n, m), n > m, ``rows`` and ``cols`` (T_n >= T_m), built by _pair_tables.

    ``elements`` holds (S_nm, S_mn) at the pairs, ``down`` and ``up`` their squares (``abs2`` the sum),
    ``diagonal`` the S_nn and ``peak`` the largest |S_nm|^2; a stack's arrays carry its leading axes.
    """

    eigenvalues: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    elements: tuple
    down: np.ndarray
    up: np.ndarray
    abs2: np.ndarray
    diagonal: np.ndarray
    peak: np.ndarray

    @cached_property
    def log_abs2(self) -> np.ndarray:
        """log |S_nm|^2 then log |S_mn|^2 at the pairs, for every structure factor; -inf at a zero."""
        with np.errstate(divide="ignore"):
            return np.log(np.concatenate((self.down, self.up)))

    @cached_property
    def order(self) -> np.ndarray:
        """Order of T's lines (pairs at +omega, at -omega, the diagonal), which c * T keeps for c > 0.

        Ties keep the row-major order of the lines' positions.  Single-instance.
        """
        lam, n = self.eigenvalues, self.eigenvalues.size
        omega = lam[self.rows] - lam[self.cols]
        position = np.concatenate((self.rows * n + self.cols, self.cols * n + self.rows, np.arange(n) * (n + 1)))
        return np.lexsort((position, np.concatenate((omega, -omega, np.zeros(n)))))


def _pair_tables(basis: SpectralDecomposition, *ops: HermitianOperator) -> list[_PairTable]:
    """One table of each operator, all over the pairs, row-major, where any of them has |S_nm|^2 + |S_mn|^2 > 0: a sort
    reads each pattern entry (r, c) as the element (i[r], i[c]), i = order^-1; an eigh basis scans the rotated squares.
    """
    n = basis.dim
    if basis.order is not None:
        index, inverse, keys = basis.order, np.empty_like(basis.order), []
        inverse[index] = np.arange(n)
        for S in ops:
            if S.shape != (n, n):
                raise ValueError(f"dimension mismatch: {S.shape} vs {(n, n)}")
            rows, cols, S_rc, S_cr = S.pattern
            rows, cols = inverse[rows], inverse[cols]
            keys.append((rows * n + cols)[(rows > cols) & (np.abs(S_rc) ** 2 + np.abs(S_cr) ** 2 > 0.0)])
        keys = np.concatenate(keys)
        keys = keys[np.argsort(keys)]
        rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)  # the union, once each
        columns = [((S._entries_at(index[rows], index[cols]), S._entries_at(index[cols], index[rows])), S.diagonal[index]) for S in ops]
    else:
        rotated = [to_eigenbasis(basis, S) for S in ops]
        either = np.any([(np.abs(s) ** 2 > 0.0).reshape(-1, n, n).any(axis=0) for s in rotated], axis=0)
        rows, cols = np.nonzero(np.tril(either | either.T, -1))
        flats = [s.reshape(*s.shape[:-2], -1) for s in rotated]
        columns = [((np.take(f, rows * n + cols, axis=-1), np.take(f, cols * n + rows, axis=-1)), np.take(f, np.arange(n) * (n + 1), axis=-1)) for f in flats]
    tables = []
    for elements, diagonal in columns:
        down, up = np.abs(elements[0]) ** 2, np.abs(elements[1]) ** 2
        peak = np.max(np.concatenate((down, up, np.abs(diagonal) ** 2), axis=-1), axis=-1)
        tables.append(_PairTable(basis.eigenvalues, rows, cols, elements, down, up, down + up, diagonal, peak))
    return tables


class _Frame:
    """Family-independent data of one (state, S), shared by every consumer.

    Every sum runs over the pairs of the ``table`` (S's own when omitted) and
    the diagonal; lazy members are computed on first read, and chain_order is
    the highest commutator moment the frame provides.  The frame of a stack of
    states, with one S or a stack of S, holds every array with the stack's
    leading axes, and its scalar members become arrays over the stack.
    """

    def __init__(self, state: GibbsState, S, chain_order: int = 0, table: _PairTable | None = None):
        self.state = state
        self.S = S = as_operator(S)  # checked once; the commutator chain reads it in the original basis
        self.chain_order = chain_order
        lam = state.decomposition.eigenvalues
        self.table = t = _pair_tables(state.decomposition, S)[0] if table is None else table
        self.x = 0.5 * (np.take(lam, t.rows, axis=-1) - np.take(lam, t.cols, axis=-1))  # omega_nm/2 >= 0 at each pair
        self.mean = _dot(state.weights, self.diagonal)
        # both (n, m) and (m, n) of each coupled pair closer than the window
        self.degenerate_pairs = 2 * np.sum(2.0 * self.x < _DEGENERATE_WINDOW, axis=-1)

    @property
    def diagonal(self) -> np.ndarray:
        """Real diagonal S_nn of the eigenbasis elements."""
        return self.table.diagonal.real

    @cached_property
    def pair_weights(self) -> tuple:
        """Gibbs weights (rho_n, rho_m) at the pairs (n, m)."""
        w = self.state.weights
        return np.take(w, self.table.rows, axis=-1), np.take(w, self.table.cols, axis=-1)

    @cached_property
    def pair_log_weights(self) -> tuple:
        """Log weights (ln rho_n, ln rho_m) at the pairs (n, m)."""
        lw = self.state.log_weights
        return np.take(lw, self.table.rows, axis=-1), np.take(lw, self.table.cols, axis=-1)

    @cached_property
    def log_kernel(self) -> np.ndarray:
        """log W of the state's Duhamel kernel at the pairs: the larger log weight plus the oracle's scale-1 column."""
        return np.maximum(*self.pair_log_weights) + self.f_columns[1.0]

    @cached_property
    def g_columns(self) -> fam._Columns:
        """The filter columns at x, shared by every family's filter."""
        return fam._g_columns(self.x)

    @cached_property
    def f_columns(self) -> fam._Columns:
        """The columns of log f(e^u), u = ln rho_n - ln rho_m, shared by every family's oracle."""
        return fam._Columns(np.subtract(*self.pair_log_weights))

    @cached_property
    def on_diagonal(self):
        """sum_n rho_n |S_nn|^2: the diagonal, where every filter is 1 and W_nn = rho_n."""
        return _dot(self.state.weights, np.abs(self.table.diagonal) ** 2)

    @cached_property
    def classical(self):
        """sum_n rho_n (S_nn - <S>)^2: the diagonal's share of every metric, where each filter is 1."""
        return _dot(self.state.weights, (self.diagonal - self.mean[..., None]) ** 2)

    @cached_property
    def filtered(self):
        """F_0(S; S) = sum W |S_nm|^2 over every (n, m)."""
        return _dot_exp(self.log_kernel, self.table.abs2) + self.on_diagonal

    @cached_property
    def second_moment(self):
        """<S^2> = sum rho_m |S_nm|^2."""
        w_rows, w_cols = self.pair_weights
        return _dot(w_cols, self.table.down) + _dot(w_rows, self.table.up) + self.on_diagonal

    @cached_property
    def lines(self) -> tuple:
        """Line weights rho_m |S_nm|^2 at omega_nm and rho_n |S_mn|^2 at -omega_nm, balance checked.

        The floor covers lines at the rounding scale of the weights.
        """
        w_rows, w_cols = self.pair_weights
        positive, negative = self.table.down * w_cols, self.table.up * w_rows
        _check_pair_balance(2.0 * self.x, positive, negative, 16 * np.finfo(float).eps * self.table.peak[..., None])
        return positive, negative

    @cached_property
    def centered_dsfs(self) -> list[tuple]:
        """The structure factors of S - <S> over the stack, which the dsf route reads (_assemble): no line sum cancels <S>^2."""
        return _assemble(self, True)

    @cached_property
    def max_omega(self):
        """Largest |T_n - T_m| over the pairs where S has an element above 1e-14 of its largest."""
        t = self.table
        coupled = np.maximum(t.down, t.up) > 1e-28 * t.peak[..., None]
        return np.max(np.where(coupled, 2.0 * self.x, 0.0), axis=-1, initial=0.0)

    @cached_property
    def moments(self) -> list:
        """M_0..M_chain_order from one commutator chain."""
        return commutator_moments(self.state, self.S, self.chain_order)


def _frame_pair(state: GibbsState, A, B, chain_order: int = 0) -> tuple[_Frame, _Frame]:
    """Frames of A (to chain_order) and B over the pairs either couples; one frame when B is A."""
    if B is A:
        frame = _Frame(state, A, chain_order)
        return frame, frame
    A, B = as_operator(A), as_operator(B)
    table_a, table_b = _pair_tables(state.decomposition, A, B)
    return _Frame(state, A, chain_order, table_a), _Frame(state, B, 0, table_b)


def _pair_products(frame_a: _Frame, frame_b: _Frame) -> np.ndarray:
    """A_nm B_mn + A_mn B_nm at the pairs of two frames over the same pairs."""
    (a_nm, a_mn), (b_nm, b_mn) = frame_a.table.elements, frame_b.table.elements
    return a_nm * b_mn + a_mn * b_nm


def _check_pair_balance(omega, positive, negative, floor):
    """Detailed balance pair by pair: the line at -w weighs e^{-w} times the one at w.

    ``positive`` is the weight at each pair's ``omega`` >= 0 and
    ``negative`` its partner's at -omega; ``floor`` is the absolute slack.
    Checked before lines are merged, so nearly equal frequencies cannot
    pair up differently at w and -w.
    """
    expected = np.exp(-omega) * positive
    bad = (omega > _MERGE_TOL) & (np.abs(negative - expected) > 1e-12 * np.abs(positive) + floor)
    if np.any(bad):
        raise ArithmeticError(
            f"detailed balance violated at omega = {omega[bad][0]:g}: "
            f"{negative[bad][0].item()!r} vs {expected[bad][0].item()!r}"
        )


def build_dsf(state: GibbsState, S, centered: bool = False) -> LineSpectrum:
    """Line spectrum of Q_S: weight rho_m |<n|S|m>|^2 at omega = T_n - T_m.

    The elastic omega = 0 line collects the diagonal matrix elements; with
    ``centered`` the observable is replaced by S - <S> first (which only
    changes the elastic weight).
    """
    [(_, spectrum)] = _assemble(_Frame(state, S), centered)
    return spectrum


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
            raise ZeroDivisionError("M_{-1} diverges: the spectrum has a nonzero elastic line")
        return float(np.sum(Q.weights[~elastic] / Q.omegas[~elastic]))
    return float(np.sum(Q.omegas ** p * Q.weights))


def _chain_traces(state: GibbsState, S: HermitianOperator):
    """tr(R_q P), q = 0, 1, ...: a diagonal T keeps R_q = t_i R - R t_j at S.pattern, and P = S rho reads
    rho_ii = exp(-c T_ii - logZ); another T's chain runs on dense arrays of c * T and the density matrix.
    """
    if state.decomposition.order is not None or _is_diagonal(state.generator):
        diagonal = state.c * state.T.diagonal
        rows, cols, R, S_transposed = S.pattern
        rho = np.exp(-diagonal.real - np.asarray(state.logZ)[..., None])
        P_transposed = S_transposed * np.take(rho, rows, axis=-1)
        t_rows, t_cols = np.take(diagonal, rows, axis=-1), np.take(diagonal, cols, axis=-1)
        while True:
            yield np.sum(R * P_transposed, axis=-1)
            R = t_rows * R - R * t_cols
    T_matrix, P_transposed, R = state.generator, np.swapaxes(S.matrix @ state.rho_matrix(), -1, -2), S.matrix
    while True:
        yield np.sum(R * P_transposed, axis=(-2, -1))
        R = T_matrix @ R - R @ T_matrix


def commutator_moments(state: GibbsState, S, order: int) -> list:
    """Moments M_q = (-1)^q <R_q(S) S>, q = 0..order, from iterated commutators.

    R_q = [T, R_{q-1}] stays in the original basis and reads the generator
    as given, independent of the eigenvectors behind ``moment``.
    <R_q S> = tr(R_q P) with P = S rho (_chain_traces).  The state of a
    stack runs one chain for the whole stack, and each moment is an array
    over it.  A moment that is not finite raises OverflowError naming its
    order; a zero one is +0.0.  This is the one commutator chain:
    functional_F, sum_rule_report and the metric series all read it.
    """
    out, traces = [], _chain_traces(state, as_operator(S))
    for q in range(order + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment raises below
            value = np.asarray(next(traces), dtype=complex)
        bad = ~np.isfinite(value)
        if np.any(bad):
            raise OverflowError(f"commutator moment M_{q} is not finite ({float(value.real[bad][0])!r})")
        residue = np.abs(value.imag) > 1e-10 * np.maximum(1.0, np.abs(value.real))
        for imag in value.imag[residue]:  # one warning per member of a stack
            warnings.warn(f"commutator moment M_{q} has imaginary residue {imag:.3e}", RuntimeWarning, stacklevel=2)
        out.append((-1.0) ** q * value.real + 0.0)
    return out


def bogoliubov_duhamel(state: GibbsState, A, B) -> float:
    """Bogoliubov-Duhamel inner product F_0(A; B) for Hermitian A and B.

    Evaluated as the eigenbasis sum of A_mn B_nm against the stable kernel
    (rho_n - rho_m)/(ln rho_n - ln rho_m), whose degenerate limit is rho_m;
    the diagonal contributes rho_n A_nn B_nn.
    """
    frame_a, frame_b = _frame_pair(state, A, B)
    diagonal = frame_a.table.diagonal * frame_b.table.diagonal
    value = complex(_dot_exp(frame_a.log_kernel, _pair_products(frame_a, frame_b)) + _dot(state.weights, diagonal))
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        warnings.warn(f"Duhamel product has imaginary residue {value.imag:.3e}", RuntimeWarning, stacklevel=2)
    return value.real


def _gauss_legendre(frame: _Frame, integrand) -> float:
    """Integral of integrand(tau) over [0, 1]: 32 Gauss-Legendre nodes on each of max(1, ceil(gap / 25)) equal panels,
    gap the largest |ln rho_n - ln rho_m| over the pairs S couples; one integrand call per node."""
    # 32 nodes hold rounding while the exponent changes by at most 25 across a panel
    panels = max(1, int(np.ceil(np.max(np.abs(frame.f_columns.v), initial=0.0) / 25.0)))
    x, w = np.polynomial.legendre.leggauss(32)
    nodes = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)).ravel() / panels
    return float(np.dot(np.tile(w, panels), [integrand(tau) for tau in nodes])) / (2 * panels)


def bogoliubov_duhamel_quadrature(state: GibbsState, A, B) -> float:
    """Slow route for F_0, an independent check of bogoliubov_duhamel that never reads its closed-form kernel.

    The tau integral over [0, 1] of <exp(tau T) A exp(-tau T) B> = sum A_nm B_mn rho_n^{1-tau} rho_m^tau at the pairs,
    both ways, plus sum rho_n A_nn B_nn; 32 Gauss-Legendre nodes on each of max(1, ceil(gap / 25)) panels, gap the
    largest log-weight gap, hold rounding at any spectral range.
    """
    frame_a, frame_b = _frame_pair(state, A, B)
    (a_nm, a_mn), (b_nm, b_mn), (lw_rows, lw_cols) = frame_a.table.elements, frame_b.table.elements, frame_a.pair_log_weights
    down, up, diagonal = a_nm * b_mn, a_mn * b_nm, _dot(state.weights, frame_a.table.diagonal * frame_b.table.diagonal)
    def at(tau):  # each pair both ways
        return np.sum(down * np.exp((1.0 - tau) * lw_rows + tau * lw_cols) + up * np.exp((1.0 - tau) * lw_cols + tau * lw_rows)).real

    return _gauss_legendre(frame_a, at) + float(diagonal.real)


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
    # (1 - e^{-w}) q is w times the line kernel q (1 - e^{-w})/w
    with np.errstate(over="ignore"):
        weights = Q.omegas * np.exp(Q.log_kernel)
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
    omega = 2.0 * frame.x
    positive, negative = frame.lines
    elastic = omega <= _MERGE_TOL
    heaviest = np.max(np.maximum(positive, negative), axis=-1, initial=0.0)
    if np.any(np.sum(np.where(elastic, positive + negative, 0.0), axis=-1) > _PRUNE_REL * heaviest):
        raise ZeroDivisionError("M_{-1} diverges: the spectrum has a nonzero elastic line")
    inverse = np.divide(positive - negative, omega, out=np.zeros_like(omega), where=~elastic)
    pairs = [(_dot_exp(frame.log_kernel, frame.table.abs2), 2.0 * np.sum(inverse, axis=-1))]
    for p in range(1, p_max + 1):
        # the diagonal's lines sit at omega = 0 and count only in M_0
        moment = _dot(omega ** (p - 1), positive + (-1.0) ** (p - 1) * negative)
        pairs.append((2.0 * frame.moments[p - 1], 2.0 * (moment + frame.on_diagonal if p == 1 else moment)))
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
