"""Dense Hermitian operators, Gibbs states and thermal averages.

Everything is exact diagonalization at desk scale (dims up to a few
thousand): operators, eigenvectors and the density matrix are stored
dense.  The inverse temperature is absorbed into the generator: a Gibbs
state is rho = exp(-T)/Z for a Hermitian T, so callers that think in
(H, beta) should pass beta*H.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "GibbsState",
    "as_operator",
    "eigendecompose",
    "gibbs_state",
    "thermal_average",
    "to_eigenbasis",
    "solve_xst",
    "read_operator_json",
    "write_operator_json",
]


class HermitianOperator:
    """A dense complex square matrix asserted Hermitian at construction.

    The stored matrix is the Hermitian part (H + H^dagger)/2; construction
    fails on a non-finite entry or if the ``asymmetry`` max|H - H^dagger|
    exceeds ``atol`` (1e-12 by default).  A stack of equal-size matrices
    along leading axes, shape (..., n, n), is one operator per matrix.
    Matrices from outside are checked here, by ``as_operator`` on an array
    and by ``read_operator_json``; those the program builds exactly
    Hermitian are wrapped by ``_trusted`` (GUE draws) or, as their nonzero
    entries alone, by ``_held`` (the models' band matrices).
    """

    def __init__(self, entries, atol: float = 1e-12):
        m = np.array(entries, dtype=complex)
        self.shape = m.shape
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
            raise ValueError("expected a square matrix of dimension >= 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        m_dagger = _dagger(m)
        with np.errstate(over="ignore"):
            self.asymmetry = asym = float(np.max(np.abs(m - m_dagger))) if m.size else 0.0
        if asym > atol:
            raise ValueError(f"matrix is not Hermitian: max|H - H^dagger| = {asym:.3e} > {atol:.1e}")
        with np.errstate(over="ignore", invalid="ignore"):
            self.matrix = 0.5 * (m + m_dagger)
        # H + H^dagger overflows for entries above about 9e307
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("Hermitian part (H + H^dagger)/2 has non-finite entries")

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "HermitianOperator":
        """Wrap, uncopied, a complex matrix or stack equal to its conjugate transpose, skipping the check
        unless an entry is non-finite or past half the double range, where the check rejects it.
        """
        op = cls.__new__(cls)
        op.matrix, op.shape, op.asymmetry = matrix, matrix.shape, 0.0
        return op._in_range(matrix)

    @classmethod
    def _held(cls, dim: int, pattern: tuple, diagonal: np.ndarray) -> "HermitianOperator":
        """An operator that holds only its ``pattern`` (rows, cols, A_rc, A_cr: row-major, nonzero, exactly Hermitian) and
        its ``diagonal``; ``matrix`` is formed on first read.  The range is checked as by ``_trusted``, on the pattern's entries.
        """
        op = cls.__new__(cls)
        op.shape, op.asymmetry, op.pattern, op.diagonal = (dim, dim), 0.0, pattern, diagonal
        return op._in_range(pattern[2])

    def _in_range(self, entries: np.ndarray) -> "HermitianOperator":
        """self if no entry is non-finite or past half the double range, else the checked operator, which rejects it."""
        return self if (np.abs(entries.view(float)) <= np.finfo(float).max / 2).all() else type(self)(self.matrix)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix: given at construction, or formed on first read from the pattern and the diagonal."""
        rows, cols, A_rc, _ = self.pattern
        matrix = np.zeros(self.shape, dtype=complex)
        matrix[rows, cols] = A_rc
        np.fill_diagonal(matrix, self.diagonal)  # a zero on it keeps its sign
        return matrix

    @property
    def dim(self) -> int:
        return self.shape[-1]

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The diagonal of the matrix, or of each matrix of the stack."""
        return np.diagonal(self.matrix, axis1=-2, axis2=-1)

    @cached_property
    def pattern(self) -> tuple:
        """(rows, cols, A_rc, A_cr) at the entries (r, c), row-major, where the matrix, or a matrix of the stack, is nonzero.

        Gathered with np.take, in C order, so a stack sums as its matrices do; set at construction, or scanned on first read.
        """
        n, flat = self.dim, self.matrix.reshape(*self.shape[:-2], -1)
        rows, cols = np.nonzero(np.any(self.matrix.reshape(-1, n, n) != 0.0, axis=0))
        return rows, cols, np.take(flat, rows * n + cols, axis=-1), np.take(flat, cols * n + rows, axis=-1)

    def _entries_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The entries of one matrix at (rows, cols): gathered from it when it is formed, else read off the pattern, 0 outside it."""
        n = self.dim
        if "matrix" in vars(self):
            return np.take(self.matrix, rows * n + cols)
        pattern_rows, pattern_cols, A_rc, _ = self.pattern
        keys, wanted = pattern_rows * n + pattern_cols, rows * n + cols
        at = np.searchsorted(keys, wanted)
        at[np.append(keys, -1)[at] != wanted] = keys.size  # a position outside the pattern reads the appended 0
        return np.append(A_rc, 0.0)[at]

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def _check_each(ok, values, message: str):
    """Raise ArithmeticError unless every matrix passes a check.

    ``ok`` holds the comparison that passes, so a nan value fails it.
    ``message`` formats the first failing matrix's entry of ``values``; a
    stack also names that matrix's index.
    """
    if not np.all(ok):
        i = int(np.flatnonzero(~np.asarray(ok))[0])
        where = f" (matrix {i} of the stack)" if np.ndim(ok) else ""
        raise ArithmeticError(message.format(float(np.ravel(values)[i])) + where)


def as_operator(value) -> HermitianOperator:
    """Coerce an array or HermitianOperator to a HermitianOperator."""
    if isinstance(value, HermitianOperator):
        return value
    return HermitianOperator(value)


class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector columns of T; a diagonal T's sort ``order`` (U = I[:, order], formed on first read), None from eigh."""

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray | None = None, order: np.ndarray | None = None):
        self.eigenvalues, self.order = eigenvalues, order
        if eigenvectors is not None:
            self.eigenvectors = eigenvectors

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        U = np.zeros((self.dim, self.dim), dtype=complex)
        U[self.order, np.arange(self.dim)] = 1.0
        return U


def _is_diagonal(m: np.ndarray) -> bool:
    """Whether every nonzero entry of a matrix, or of a stack, is on a diagonal."""
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m, axis1=-2, axis2=-1))


def eigendecompose(H) -> SpectralDecomposition:
    """Full eigendecomposition with residual and unitarity checks.

    One diagonal matrix is sorted instead: a stable argsort orders its levels,
    ties by index, and the identity's columns, which pass both checks exactly.
    Any other matrix or stack takes one eigh call, checked matrix by matrix.
    """
    op = as_operator(H)
    pattern = vars(op).get("pattern")  # a known pattern says whether the matrix is diagonal in O(nonzeros)
    if len(op.shape) == 2 and (_is_diagonal(op.matrix) if pattern is None else np.array_equal(pattern[0], pattern[1])):
        order = np.argsort(op.diagonal.real, kind="stable")
        return SpectralDecomposition(op.diagonal.real[order], order=order)
    vals, vecs = np.linalg.eigh(op.matrix)
    scale = np.maximum(np.max(np.abs(op.matrix), axis=(-2, -1)), 1e-300)
    recon = (vecs * vals[..., None, :]) @ _dagger(vecs)
    recon_err = np.max(np.abs(recon - op.matrix), axis=(-2, -1))
    _check_each(
        recon_err <= 1e-10 * scale, recon_err,
        "eigendecomposition residual {:.3e} exceeds 1e-10 * |H|",
    )
    unit_err = np.max(np.abs(_dagger(vecs) @ vecs - np.eye(op.dim)), axis=(-2, -1))
    _check_each(unit_err <= 1e-12, unit_err, "eigenvector unitarity defect {:.3e}")
    return SpectralDecomposition(vals, vecs)


@dataclass
class GibbsState:
    """Gibbs weights rho_m = exp(-T_m - logZ) over a spectral decomposition.

    ``log_weights`` = -T_m - logZ is the state: every weight ratio, kernel
    and filter term is formed from it.  ``weights`` is its exp, summing to
    one, and 0 for levels more than about 745 above the ground level.  A
    stack of generators, or a (k, 1) column ``c``, gives one state per matrix.
    """

    decomposition: SpectralDecomposition
    log_weights: np.ndarray
    logZ: float
    T: HermitianOperator = field(repr=False)  # the generator is c * T, T in the original basis as given
    c: float | np.ndarray = 1.0
    weights: np.ndarray = field(init=False)
    _rho_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.weights = np.exp(self.log_weights)

    @cached_property
    def generator(self) -> np.ndarray:
        """c * T, formed on first read: only the dense commutator chain reads it."""
        return np.expand_dims(self.c, -1) * self.T.matrix

    @property
    def dim(self) -> int:
        return self.decomposition.dim

    def rho_matrix(self) -> np.ndarray:
        """The density matrix in the original basis (cached)."""
        if self._rho_matrix is None:
            U = self.decomposition.eigenvectors
            self._rho_matrix = (U * self.weights[..., None, :]) @ _dagger(U)
        return self._rho_matrix


def gibbs_state(T) -> GibbsState:
    """Construct the Gibbs state of a Hermitian generator (beta absorbed).

    Weights are computed with a max-shift log-sum-exp, so arbitrarily
    large spectral ranges neither overflow nor underflow the partition sum.
    T is one matrix: the public routes that read a state are single-instance,
    so a stack raises ValueError.
    """
    op = as_operator(T)
    if len(op.shape) != 2:
        raise ValueError(f"gibbs_state takes one generator, not a stack of shape {op.shape}")
    return _scaled_state(eigendecompose(op), op, 1.0)


def _scaled_state(decomposition: SpectralDecomposition, T, c: float) -> GibbsState:
    """The Gibbs state of c * T for c > 0 (T's eigenvectors, c times its eigenvalues), from T's checked decomposition.

    A scaled range past half the double range (the filters read gaps up to
    twice it) raises ArithmeticError.  The decomposition of a stack, or an
    array of k numbers c, gives a stack of states, each normalized and checked on its own.
    """
    c = c if np.ndim(c) == 0 else np.asarray(c, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        lam = c * decomposition.eigenvalues
        spread = lam[..., -1] - lam[..., 0]
        _check_each(np.isfinite(2.0 * spread), spread, "twice the spectral range {!r} of c * T is non-finite")
    shift = np.min(lam, axis=-1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(-(lam - shift)), axis=-1, keepdims=True))
    log_w = -(lam - shift) - log_norm
    # one renormalization pass keeps sum(weights) at 1 to machine precision
    log_w -= np.log(np.sum(np.exp(log_w), axis=-1, keepdims=True))
    state = GibbsState(
        decomposition=SpectralDecomposition(lam, vars(decomposition).get("eigenvectors"), decomposition.order),
        log_weights=log_w,
        logZ=(log_norm - shift)[..., 0],
        T=as_operator(T),
        c=c,
    )
    total = np.sum(state.weights, axis=-1)
    _check_each(np.abs(total - 1.0) <= 1e-13, total, "Gibbs weights sum to {!r}, not 1")
    return state


def to_eigenbasis(state: GibbsState | SpectralDecomposition, A) -> np.ndarray:
    """Matrix elements of a Hermitian operator in the eigenbasis of a state or a decomposition.

    For the state of a stack, A is a stack of the same shape and each
    matrix is rotated into the eigenbasis of its own generator.  The
    states of every c * T share the eigenbasis of T's decomposition.
    A diagonal T's permutation U rotates by the O(n^2) gather A[order][:, order], exactly U^dagger A U.
    """
    op = as_operator(A)
    basis = state.decomposition if isinstance(state, GibbsState) else state
    shape = (basis.dim, basis.dim) if basis.order is not None else basis.eigenvectors.shape
    if op.shape != shape:
        raise ValueError(f"dimension mismatch: {op.shape} vs {shape}")
    if basis.order is not None:
        return op.matrix[np.ix_(basis.order, basis.order)]
    return _dagger(basis.eigenvectors) @ op.matrix @ basis.eigenvectors


def thermal_average(state: GibbsState, A) -> float:
    """Thermal expectation <A> = sum_m rho_m <m|A|m> for Hermitian A; a sorted basis reads A's diagonal in its order."""
    op, order = as_operator(A), state.decomposition.order
    sorted_diagonal = order is not None and op.shape == (order.size, order.size)
    return float(np.dot(state.weights, (op.diagonal[order] if sorted_diagonal else np.diag(to_eigenbasis(state, op))).real))


def solve_xst(T, S) -> tuple[np.ndarray, SpectralDecomposition]:
    """Solve S = [T, X] for X with zero diagonal in the T-eigenbasis.

    Requires S to have (numerically) zero diagonal there, and no nonzero
    element across a degenerate eigenvalue pair of T.  Returns the elements
    of X in that eigenbasis and T's decomposition, which fixes the basis.
    X is anti-Hermitian for Hermitian S.
    """
    T_op, S_op = as_operator(T), as_operator(S)
    if T_op.dim != S_op.dim:
        raise ValueError(f"dimension mismatch: {T_op.dim} vs {S_op.dim}")
    decomposition = eigendecompose(T_op)
    S_eig = to_eigenbasis(decomposition, S_op)
    diag = np.abs(np.diag(S_eig))
    bad = np.nonzero(diag > 1e-12)[0]
    if bad.size:
        raise ValueError(f"S has nonzero diagonal in the T-eigenbasis at indices {bad.tolist()}")
    lam = decomposition.eigenvalues
    gaps = lam[:, None] - lam[None, :]
    scale = max(float(np.max(np.abs(S_eig))), 1e-300)
    degenerate = (np.abs(gaps) < 1e-10) & (np.abs(S_eig) > 1e-14 * scale)
    np.fill_diagonal(degenerate, False)
    if np.any(degenerate):
        m, n = np.argwhere(degenerate)[0]
        raise ZeroDivisionError(f"degenerate eigenvalue pair ({int(m)}, {int(n)}) carries a nonzero S element; X is singular there")
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.where(np.abs(gaps) < 1e-10, 0.0, S_eig / np.where(gaps == 0.0, 1.0, gaps))
    np.fill_diagonal(X, 0.0)
    return X, decomposition


def _exprel_neg(z: np.ndarray) -> np.ndarray:
    """(1 - e^{-z})/z elementwise for z >= 0, in (0, 1] and exactly 1 at z = 0."""
    return np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z != 0.0)


_UNTIL_ARRAY = re.compile(rb'(?:"(?:[^"\\]|\\.)*"|[^"\[])*', re.DOTALL)  # up to a '[' outside strings
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_INTEGER = re.compile(rb"(?<![\d.eE+-])-?\d+(?![\d.eE])")  # an integer literal among JSON numbers


def read_operator_json(path) -> tuple[HermitianOperator, float]:
    """Load the {"dim": n, "entries": [[[re, im], ...], ...]} matrix format.

    The matrix is symmetrized; the asymmetry norm max|H - H^dagger| of the
    raw entries is returned alongside the operator.  Any layout and key
    order is read; entries are JSON numbers, and the other members may be
    anything but arrays.  The numbers are parsed as one flat list, by orjson.
    """
    raw = Path(path).read_bytes()
    # entries, the only array, starts at the first '[' outside a string
    # and, holding no string, ends at the last ']' before the next '"'
    start = _UNTIL_ARRAY.match(raw).end()
    quote = raw.find(b'"', start)
    stop = raw.rfind(b"]", start, len(raw) if quote < 0 else quote) + 1
    if not stop or not _UNTIL_ARRAY.fullmatch(raw, stop):
        raise ValueError(f"{path} is not an object whose only array is entries")
    # the rest, read with [] for that span, gives entries == [] only if the
    # span was the value of entries
    rest = json.loads((raw[:start] + b"[]" + raw[stop:]).decode("utf-8"))
    if not isinstance(rest, dict) or type(rest.get("dim")) is not int:
        raise ValueError(f"{path} is not an object with an integer dim")
    dim, span = rest["dim"], raw[start:stop]
    bad = ValueError(f"entries of {path} do not form a {dim}x{dim} matrix of [re, im] numbers")
    # the brackets and commas must be those of a dim x dim array of pairs;
    # the lengths are compared first, so a huge dim allocates nothing
    skeleton = span.translate(None, b"0123456789.eE+- \t\n\r")
    if rest.get("entries") != [] or dim < 1 or len(skeleton) != 4 * dim * dim + 2 * dim + 1:
        raise bad
    if skeleton != b"[" + b",".join([b"[" + b"[,]," * (dim - 1) + b"[,]]"] * dim) + b"]":
        raise bad
    import orjson  # loaded for a matrix file only

    numbers = b"[" + span.translate(_BRACKETS_TO_SPACES) + b"]"
    del raw, span  # orjson holds a copy of the numbers and a document of them while it parses
    values = np.array(orjson.loads(numbers))
    # orjson reads an integer outside [-2^63, 2^64) as a float, of size >= 2^63; such integers are rejected
    if np.any(np.abs(values) >= 2.0**63) and any(not -(2**63) <= int(i) < 2**64 for i in _INTEGER.findall(numbers)):
        raise bad
    op = HermitianOperator(values.astype(float, copy=False).view(complex).reshape(dim, dim), atol=np.inf)
    return op, op.asymmetry


def write_operator_json(op, path):
    """Write an operator in the JSON matrix exchange format."""
    matrix = as_operator(op).matrix
    entries = np.stack((matrix.real, matrix.imag), -1).tolist()
    Path(path).write_text(json.dumps({"dim": matrix.shape[0], "entries": entries}) + "\n", encoding="utf-8")
