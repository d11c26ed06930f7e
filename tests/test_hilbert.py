"""Dense operator, Gibbs state and commutator machinery tests."""

import json
import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gibbsqfi import hilbert as hb, inequalities as ineq, models
from gibbsqfi.cli import main

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

RHO1 = 0.7310585786300049  # 1/(1 + e^{-1})
RHO2 = 0.2689414213699951


def duhamel_kernel(state):
    """The Duhamel kernel W[m, n] = (rho_n - rho_m)/(ln rho_n - ln rho_m) of a state on the full grid.

    The larger weight times _exprel_neg of the log-weight gap: finite for
    any weights, with the exact degenerate limit W[m, m] = rho_m.  The
    reference for the frames' log_kernel, which sums only the pairs S couples.
    """
    lw_m, lw_n = state.log_weights[..., :, None], state.log_weights[..., None, :]
    return np.exp(np.maximum(lw_m, lw_n) + np.log(hb._exprel_neg(np.abs(lw_m - lw_n))))


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


class TestHermitianOperator:
    def test_accepts_and_symmetrizes(self):
        op = hb.HermitianOperator([[1.0, 0.5j], [-0.5j, 2.0]])
        assert op.dim == 2
        assert np.allclose(op.matrix, op.matrix.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hb.HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite(self, bad):
        # nan - nan compares False against any tolerance, so the asymmetry
        # check alone would pass such a matrix
        with pytest.raises(ValueError, match="non-finite"):
            hb.HermitianOperator([[bad]])
        with pytest.raises(ValueError, match="non-finite"):
            hb.HermitianOperator([[0.0, bad], [bad, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hb.HermitianOperator(np.zeros((2, 3)))

    def test_rejects_overflowing_hermitian_part(self):
        # every entry is finite, but H + H^dagger overflows past 9e307
        with pytest.raises(ValueError, match="Hermitian part .* non-finite"):
            hb.HermitianOperator(1e308 * SX)

    def test_as_operator_passthrough(self):
        op = hb.HermitianOperator(SX)
        assert hb.as_operator(op) is op
        assert np.allclose(hb.as_operator(SX).matrix, SX)


def _assert_exact(matrix):
    """matrix equals its conjugate transpose and is finite, so the check passes it unchanged."""
    assert np.array_equal(matrix, np.conj(np.swapaxes(matrix, -1, -2)))
    assert np.all(np.isfinite(matrix))
    checked = hb.HermitianOperator(matrix)
    assert checked.asymmetry == 0.0 and np.array_equal(checked.matrix, matrix)


class TestTrustedSources:
    """Every matrix the program wraps unchecked is exactly Hermitian and finite."""

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.5, 20.0, 200.0])
    def test_spin(self, s):
        model = models.SpinModel(s, 1.7)
        for matrix in models.spin_matrices(s):
            _assert_exact(matrix)
        for op in (*model.unit_matrices(), *models.build_model(model)):
            _assert_exact(op.matrix)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [40, 90])
    def test_boson(self, k, cutoff):
        model = models.BosonModel(k, 0.9, cutoff)
        for op in (*model.unit_matrices(), *models.build_model(model)):
            _assert_exact(op.matrix)

    def test_random_instances(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            spread = None if seed % 2 else 10.0 ** (seed - 10)
            for op in ineq.random_instance(rng, 2 + seed % 11, spread):
                _assert_exact(op.matrix)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: models.build_model(models.SpinModel(200, 1e307)), "matrix has non-finite entries"),
            (lambda: models.build_model(models.SpinModel(200, 5e305)), r"Hermitian part .* non-finite"),
            (lambda: ineq.random_instance(np.random.default_rng(0), 4, spread=math.inf), "matrix has non-finite entries"),
        ],
    )
    def test_scaled_sources_keep_the_check_past_half_the_double_range(self, build, message):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
            build()

    def test_pattern_entry_past_half_the_double_range_keeps_the_check(self):
        # a known pattern is where the range is read; an entry past half the range still fails the check
        rows, cols, entries = np.array([0, 2]), np.array([2, 0]), np.array([1e308, 1e308], dtype=complex)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"Hermitian part .* non-finite"):
            hb.HermitianOperator._held(3, (rows, cols, entries, entries), np.zeros(3, dtype=complex))

    def test_verify_draws(self):
        # verify wraps the stacks of these matrices
        for group in ineq._draw_groups(np.random.SeedSequence(11).spawn(500), (2, 3, 4, 5, 6, 7, 8)):
            for stack in (group.T, group.S, group.B):
                for matrix in stack.matrix:
                    _assert_exact(matrix)


class TestEigendecompose:
    def test_diagonal(self):
        dec = hb.eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        assert np.allclose(dec.eigenvalues, [0.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_sigma_x(self):
        dec = hb.eigendecompose(SX)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 6)
        dec = hb.eigendecompose(h)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(recon - 0.5 * (h + h.conj().T))) <= 1e-10 * np.max(np.abs(h))


    @pytest.mark.parametrize("field", ["eigenvalues", "eigenvectors"])
    def test_nan_fails_the_checks(self, monkeypatch, field):
        # nan > tolerance is False, so a check must test that the error is small
        eigh = np.linalg.eigh

        def poisoned(a, *args, **kwargs):
            vals, vecs = eigh(a, *args, **kwargs)
            vals, vecs = vals.copy(), vecs.copy()
            (vals if field == "eigenvalues" else vecs)[..., 0] = np.nan
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        # SX is not diagonal, so it reaches eigh
        with pytest.raises(ArithmeticError, match="residual nan"):
            hb.eigendecompose(SX)

    def test_diagonal_is_sorted_not_decomposed(self, monkeypatch):
        # ties, negative levels and -0.0 off the diagonal: no eigh, and U is
        # the identity's columns in the stable order of the levels
        levels = np.array([0.5, -1.25, 0.5, 3.0, -1.25, 0.0, 0.5])
        m = np.diag(levels).astype(complex)
        m[0, 3] = m[3, 0] = m[5, 6] = m[6, 5] = -0.0
        monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: pytest.fail("a diagonal T reached eigh"))
        dec = hb.eigendecompose(m)
        assert dec.eigenvalues.tolist() == [-1.25, -1.25, 0.0, 0.5, 0.5, 0.5, 3.0]
        assert dec.order.tolist() == [1, 4, 5, 0, 2, 6, 3]
        u = dec.eigenvectors
        assert np.array_equal(u, np.eye(7)[:, dec.order]) and set(np.unique(u).tolist()) == {0, 1}

        def bits(a):  # the bits of each entry, with -0.0 read as +0.0
            return (a + 0.0).view(np.uint64)

        matrix = hb.as_operator(m).matrix
        assert np.array_equal(bits((u * dec.eigenvalues) @ u.conj().T), bits(matrix))
        a = hb.as_operator(random_hermitian(np.random.default_rng(14), 7)).matrix
        assert np.array_equal(bits(hb.to_eigenbasis(dec, a)), bits(u.conj().T @ a @ u))
        state = hb._scaled_state(dec, matrix, 2.0)
        assert state.decomposition.order is dec.order
        assert np.array_equal(bits(hb.to_eigenbasis(state, a)), bits(hb.to_eigenbasis(dec, a)))

    def test_tiny_off_diagonal_entry_goes_through_eigh(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        m = np.diag([2.0, -1.0, 0.5]).astype(complex)
        m[0, 2] = m[2, 0] = 1e-300
        dec = hb.eigendecompose(m)
        assert len(calls) == 1 and dec.order is None
        assert dec.eigenvalues == pytest.approx([-1.0, 0.5, 2.0], rel=1e-15)


class TestScaledState:
    """The state of c * T made from T's decomposition."""

    def test_matches_own_eigh(self):
        h = random_hermitian(np.random.default_rng(12), 7)
        dec = hb.eigendecompose(h)
        for c in (0.3, 0.7, 3.0, 17.0):
            state = hb._scaled_state(dec, hb.as_operator(h).matrix, c)
            reference = hb.gibbs_state(hb.HermitianOperator(c * h))
            assert state.weights == pytest.approx(reference.weights, rel=1e-13, abs=0.0)
            assert state.logZ == pytest.approx(reference.logZ, rel=1e-13)
            assert state.decomposition.eigenvalues == pytest.approx(reference.decomposition.eigenvalues, rel=1e-13)
            assert state.decomposition.eigenvectors is dec.eigenvectors
            assert np.array_equal(state.generator, c * hb.as_operator(h).matrix)
            assert np.allclose(state.rho_matrix(), reference.rho_matrix(), rtol=0.0, atol=1e-14)

    def test_gibbs_state_is_c_1(self):
        h = random_hermitian(np.random.default_rng(13), 5)
        state = hb.gibbs_state(h)
        scaled = hb._scaled_state(hb.eigendecompose(h), hb.as_operator(h).matrix, 1.0)
        assert np.array_equal(state.weights, scaled.weights)
        assert np.array_equal(state.decomposition.eigenvalues, scaled.decomposition.eigenvalues)

    def test_non_finite_range_raises(self):
        dec = hb.eigendecompose(SZ)
        with pytest.raises(ArithmeticError, match="non-finite"):
            hb._scaled_state(dec, SZ, 1e308)

    def test_range_past_half_the_double_range_raises(self):
        # the range 1.2e308 is finite, but the filters read gaps up to twice it
        dec = hb.eigendecompose(SZ)
        with pytest.raises(ArithmeticError, match="twice the spectral range 1.2e"):
            hb._scaled_state(dec, SZ, 6e307)
        assert np.isfinite(hb._scaled_state(dec, SZ, 4e307).log_weights).all()

    def test_normalization_checked_per_state(self, monkeypatch):
        dec = hb.eigendecompose(np.diag([0.0, 1.0]).astype(complex))
        monkeypatch.setattr(np, "exp", lambda x: np.full(np.shape(x), np.nan))
        with pytest.raises(ArithmeticError, match="sum to nan"):
            hb._scaled_state(dec, np.diag([0.0, 1.0]).astype(complex), 2.0)


class TestGibbsState:
    def test_qubit_weights(self):
        state = hb.gibbs_state(np.diag([0.0, 1.0]).astype(complex))
        assert state.weights == pytest.approx([RHO1, RHO2], rel=1e-14)
        assert state.logZ == pytest.approx(math.log(1 + math.exp(-1.0)), rel=1e-14)

    def test_maximally_mixed(self):
        state = hb.gibbs_state(np.zeros((5, 5), dtype=complex))
        assert state.weights == pytest.approx([0.2] * 5, abs=1e-15)

    def test_large_gaps_no_overflow(self):
        state = hb.gibbs_state(np.diag([0.0, 50.0, 100.0]).astype(complex))
        assert math.isfinite(state.logZ)
        assert np.sum(state.weights) == pytest.approx(1.0, abs=1e-13)
        with mpmath.workdps(50):
            z = 1 + mpmath.exp(-50) + mpmath.exp(-100)
            expected = [float(mpmath.exp(-t) / z) for t in (0, 50, 100)]
        assert state.weights == pytest.approx(expected, rel=1e-13)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        base = hb.gibbs_state(h)
        for c in (7.3, -120.0, 500.0):
            shifted = hb.gibbs_state(h + c * np.eye(5))
            assert shifted.weights == pytest.approx(base.weights, rel=1e-13)

    def test_underflow_is_exp_of_the_log_weights(self):
        # no floor: a weight past double range underflows to 0, silently,
        # and the log weight keeps the level
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = hb.gibbs_state(np.diag([0.0, 800.0]).astype(complex))
        assert np.array_equal(state.weights, np.exp(state.log_weights))
        assert state.weights[1] == 0.0
        assert state.log_weights[1] == pytest.approx(-800.0, rel=1e-15)
        assert not hasattr(state, "clamped")

    def test_stack_rejected(self):
        # the public routes that read a state are single-instance: given the
        # state of a stack they summed across it and returned one number
        stack = np.stack([SZ, SX])
        with pytest.raises(ValueError, match="not a stack"):
            hb.gibbs_state(stack)
        with pytest.raises(ValueError, match="not a stack"):
            hb.gibbs_state(hb.HermitianOperator(np.stack([SZ, SX, SZ])))

    @pytest.mark.parametrize("banded", [True, False])
    def test_generator_is_the_input(self, banded):
        # a rebuild U diag(lambda) U^dagger fills the zeros of a banded T
        # with roundoff and moves the dense entries in their last bits
        h = random_hermitian(np.random.default_rng(9), 40)
        if banded:
            h = np.triu(np.tril(h, 1), -1)
        state = hb.gibbs_state(h)
        assert np.array_equal(state.generator, hb.as_operator(h).matrix)

    def test_rho_matrix(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 4)
        state = hb.gibbs_state(h)
        rho = state.rho_matrix()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(rho, rho.conj().T)


class TestThermalAverage:
    def setup_method(self):
        self.state = hb.gibbs_state(np.diag([0.0, 1.0]).astype(complex))

    def test_identity(self):
        assert hb.thermal_average(self.state, np.eye(2, dtype=complex)) == pytest.approx(1.0)

    def test_sigma_x_vanishes(self):
        assert hb.thermal_average(self.state, SX) == pytest.approx(0.0, abs=1e-15)

    def test_sigma_z(self):
        assert hb.thermal_average(self.state, SZ) == pytest.approx(RHO1 - RHO2, rel=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hb.thermal_average(self.state, np.eye(3, dtype=complex))

    def test_sorted_basis_reads_the_diagonal(self):
        # S = 1000 (dim 2001): the rotated matrix and its permuted copy took two 64 MB complex matrices
        T, S = models.build_model(models.SpinModel(1000, 1.0))
        state = hb.gibbs_state(T)
        tracemalloc.start()
        try:
            value = hb.thermal_average(state, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.dim**2 * np.dtype(complex).itemsize
        assert value == float(np.dot(state.weights, np.diag(hb.to_eigenbasis(state, T)).real))
        assert hb.thermal_average(state, S) == float(np.dot(state.weights, np.diag(hb.to_eigenbasis(state, S)).real))

    def test_commutator_average_vanishes(self):
        # <[T, A]> = 0 by cyclicity, for any Hermitian A
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            t = random_hermitian(rng, dim)
            a = random_hermitian(rng, dim)
            state = hb.gibbs_state(t)
            comm = t @ a - a @ t
            value = complex(np.trace(state.rho_matrix() @ comm))
            assert abs(value) < 1e-11


class TestSolveXst:
    def test_qubit(self):
        x, _ = hb.solve_xst(np.diag([0.0, 1.0]).astype(complex), SX)
        assert x[0, 1] == pytest.approx(-1.0)
        assert x[1, 0] == pytest.approx(1.0)
        assert x[0, 0] == 0.0

    def test_recovers_s(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            t = random_hermitian(rng, dim)
            dec = hb.eigendecompose(t)
            s_eig = random_hermitian(rng, dim)
            np.fill_diagonal(s_eig, 0.0)
            u = dec.eigenvectors
            s = u @ s_eig @ u.conj().T
            x, basis = hb.solve_xst(t, s)
            lam = basis.eigenvalues
            comm = (lam[:, None] - lam[None, :]) * x
            target = basis.eigenvectors.conj().T @ hb.as_operator(s).matrix @ basis.eigenvectors
            scale = np.max(np.abs(target))
            assert np.max(np.abs(comm - target)) <= 1e-10 * max(scale, 1.0)

    def test_zero_s(self):
        x, _ = hb.solve_xst(np.diag([0.0, 1.0]).astype(complex), np.zeros((2, 2), dtype=complex))
        assert np.allclose(x, 0.0)

    def test_degenerate_error(self):
        with pytest.raises(ZeroDivisionError, match="degenerate"):
            hb.solve_xst(np.eye(2, dtype=complex), SX)

    def test_nonzero_diagonal_error(self):
        with pytest.raises(ValueError, match="diagonal"):
            hb.solve_xst(np.diag([0.0, 1.0]).astype(complex), SZ)


class TestDuhamelWeights:
    def test_qubit_values(self):
        state = hb.gibbs_state(np.diag([0.0, 1.0]).astype(complex))
        w = duhamel_kernel(state)
        assert w[0, 0] == pytest.approx(RHO1, rel=1e-14)
        assert w[1, 1] == pytest.approx(RHO2, rel=1e-14)
        # (rho2 - rho1)/(ln rho2 - ln rho1) = tanh(1/2)
        assert w[0, 1] == pytest.approx(math.tanh(0.5), rel=1e-13)
        assert w[0, 1] == w[1, 0]

    def test_near_degenerate_matches_highprec(self):
        state = hb.gibbs_state(np.diag([0.0, 1e-6]).astype(complex))
        w = duhamel_kernel(state)
        with mpmath.workdps(50):
            z = 1 + mpmath.exp(mpmath.mpf("-1e-6"))
            r1 = 1 / z
            r2 = mpmath.exp(mpmath.mpf("-1e-6")) / z
            expected = float((r2 - r1) / (mpmath.log(r2) - mpmath.log(r1)))
        assert w[0, 1] == pytest.approx(expected, rel=1e-14)

    def test_wide_spread_finite(self):
        state = hb.gibbs_state(np.diag([0.0, 200.0, 400.0]).astype(complex))
        w = duhamel_kernel(state)
        assert np.all(np.isfinite(w))
        assert np.all(w > 0.0)
        assert w[0, 2] == pytest.approx((state.weights[2] - state.weights[0]) / (-400.0), rel=1e-12)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        h = hb.HermitianOperator(random_hermitian(rng, 4))
        path = tmp_path / "op.json"
        hb.write_operator_json(h, path)
        loaded, asym = hb.read_operator_json(path)
        assert asym < 1e-15
        assert np.allclose(loaded.matrix, h.matrix, atol=1e-15)

    def test_reader_symmetrizes_and_records(self, tmp_path):
        path = tmp_path / "asym.json"
        payload = {
            "dim": 2,
            "entries": [[[1.0, 0.0], [0.5, 0.0]], [[0.3, 0.0], [2.0, 0.0]]],
        }
        path.write_text(json.dumps(payload))
        op, asym = hb.read_operator_json(path)
        assert asym == pytest.approx(0.2, rel=1e-12)
        assert op.matrix[0, 1] == pytest.approx(0.4)

    def test_bad_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[[1.0, 0.0]]]}))
        with pytest.raises(ValueError):
            hb.read_operator_json(path)

    @pytest.mark.parametrize("cell", [[0.0], [0.0, 0.0, 5.0], ["0", "0"]])
    def test_malformed_cell(self, tmp_path, cell):
        path = tmp_path / "bad.json"
        entries = [[[1.0, 0.0], cell], [[0.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        with pytest.raises(ValueError):
            hb.read_operator_json(path)


def reference_read(path):
    """The nested-list reader: json.load, np.array on the nesting, symmetrize."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or type(payload.get("dim")) is not int:
        raise ValueError("not an object with an integer dim")
    dim = payload["dim"]
    cells = np.array(payload["entries"])
    if cells.dtype.kind not in "biuf" or cells.shape != (dim, dim, 2):
        raise ValueError("entries do not form a matrix")
    m = np.empty((dim, dim), dtype=complex)
    m.real = cells[..., 0]
    m.imag = cells[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = float(np.max(np.abs(m - m.conj().T)))
        hermitian = 0.5 * (m + m.conj().T)
    if not np.all(np.isfinite(hermitian)):
        raise ValueError("non-finite entries")
    return hermitian, asymmetry


def write_per_element(matrix, path):
    """The writer's byte format, one Python float per number through json.dump."""
    payload = {
        "dim": matrix.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in matrix],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


PAIR = [[[1.0, 0.0], [0.5, -0.25]], [[0.5, 0.25], [-2.0, 0.0]]]

# files both readers accept; each must read bit for bit the same
ACCEPTED = {
    "compact": json.dumps({"dim": 2, "entries": PAIR}),
    "indent": json.dumps({"dim": 2, "entries": PAIR}, indent=2),
    "keys reversed": json.dumps({"entries": PAIR, "dim": 2}),
    "extra scalar members": json.dumps(
        {"name": "T", "dim": 2, "scale": 1.5, "meta": {"ok": True, "n": None}, "entries": PAIR, "z": "end"}
    ),
    "brackets and quotes in strings": json.dumps(
        {"note": 'a[0]"[', "dim": 2, "entries": PAIR, "tail": "]]\\["}
    ),
    "integer entries": '{"dim": 2, "entries": [[[1, 0], [2, -3]], [[2, 3], [4, 0]]]}',
    "exponents": '{"dim": 1, "entries": [[[1E+5, 2.5e-3]]]}',
    "signed zeros": '{"dim": 2, "entries": [[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, 0.0], [0.0, -0.0]]]}',
    "subnormal": '{"dim": 2, "entries": [[[5e-324, 0], [5e-324, -5e-324]], [[0, 1e-310], [-5e-324, 0]]]}',
    "asymmetric": '{"dim": 2, "entries": [[[1.0, 0.0], [0.5, 0.0]], [[0.3, 0.0], [2.0, 0.0]]]}',
    "uint64 entries": '{"dim": 1, "entries": [[[9223372036854775808, 0]]]}',
    "overflowing asymmetry": '{"dim": 2, "entries": [[[0, 0], [1e308, 0]], [[-1e308, 0], [0, 0]]]}',
    "whitespace in cells": '{"dim":1,"entries":[ [\t[ 1.0 ,\r\n2.0 ] ] ]}\n\n',
    "duplicate entries, the last wins": '{"dim": 1, "entries": 0, "entries": [[[3.0, 0.0]]]}',
    # an integer literal outside [-2^63, 2^64) is rejected; these are the bounds and floats past them
    **{
        f"{number}{alone}": f'{{"dim": 1, "entries": [[[{number}, {imag}]]]}}'
        for number in ("9223372036854775807", "18446744073709551615", "-9223372036854775808", "1e19", "18446744073709551616.0")
        for alone, imag in (("", "0"), (" with a float", "0.5"))
    },
}

# files both readers reject
REJECTED = {
    "ragged rows": '{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}',
    "one-number cell": '{"dim": 2, "entries": [[[1, 0], [0]], [[0, 0], [1, 0]]]}',
    "three-number cell": '{"dim": 2, "entries": [[[1, 0], [0, 0, 5]], [[0, 0], [1, 0]]]}',
    "flat entries": '{"dim": 1, "entries": [1, 0]}',
    "scalar entries": '{"dim": 1, "entries": 5}',
    "no entries": '{"dim": 1}',
    "string": '{"dim": 1, "entries": [[["1", 0]]]}',
    "null": '{"dim": 1, "entries": [[[null, 0]]]}',
    "NaN": '{"dim": 1, "entries": [[[NaN, 0]]]}',
    "Infinity": '{"dim": 1, "entries": [[[Infinity, 0]]]}',
    "-Infinity": '{"dim": 1, "entries": [[[-Infinity, 0]]]}',
    "plus sign": '{"dim": 1, "entries": [[[+1, 0]]]}',
    "leading zero": '{"dim": 1, "entries": [[[01, 0]]]}',
    "trailing dot": '{"dim": 1, "entries": [[[1., 0]]]}',
    "leading dot": '{"dim": 1, "entries": [[[.5, 0]]]}',
    "two numbers in one slot": '{"dim": 1, "entries": [[[1 2, 0]]]}',
    "number beside a bracket": '{"dim": 1, "entries": [[[1, 0]5]]}',
    "BOM": "﻿" + json.dumps({"dim": 2, "entries": PAIR}),
    "trailing data": json.dumps({"dim": 2, "entries": PAIR}) + " 7",
    "trailing array": json.dumps({"dim": 2, "entries": PAIR}) + "[]",
    "dim 0": '{"dim": 0, "entries": []}',
    "dim negative": '{"dim": -1, "entries": [[[1, 0]]]}',
    "dim wrong": json.dumps({"dim": 3, "entries": PAIR}),
    "dim huge": '{"dim": 1000000000, "entries": [[[1, 0]]]}',
    "dim float": json.dumps({"dim": 2.0, "entries": PAIR}),
    "dim string": json.dumps({"dim": "2", "entries": PAIR}),
    "dim missing": json.dumps({"entries": PAIR}),
    "dim boolean": '{"dim": true, "entries": [[[1, 0]]]}',
    "integer past int64": '{"dim": 1, "entries": [[[18446744073709551616, 0]]]}',
    "negative integer past int64": '{"dim": 1, "entries": [[[-9223372036854775809, 0]]]}',
    **{
        f"{name} among floats": f'{{"dim": 2, "entries": [[[0.5, 0], [{number}, 1.5]], [[-2.5, 0.0], [1e19, 0]]]}}'
        for name, number in (("integer past uint64", "18446744073709551616"), ("integer past int64", "-9223372036854775809"))
    },
    "not an object": "[[[1, 0]]]",
    "empty file": "",
    "minus before entries": '{"dim": 1, "entries": -[[[1, 0]]]}',
    "duplicate entries, a scalar last": '{"dim": 1, "entries": [[[1, 0]]], "entries": 0}',
    "matrix in a string": '{"dim": 1, "x": "[[[1, 0]]]", "entries": 0}',
    "matrix in a string, empty entries": '{"dim": 1, "x": "[[[1, 0]]]", "entries": []}',
    "unterminated": '{"dim": 1, "entries": [[[1, 0]]]',
    "not UTF-8": b'{"name": "\xff", "dim": 1, "entries": [[[1, 0]]]}',
}

# files the nested-list reader accepted and the flat reader rejects
NEWLY_REJECTED = {
    "boolean imaginary part": '{"dim": 1, "entries": [[[1.0, true]]]}',
    "boolean cell": '{"dim": 1, "entries": [[[true, false]]]}',
    "array-valued member first": json.dumps({"tags": [1, 2], "dim": 2, "entries": PAIR}),
    "array-valued member last": json.dumps({"dim": 2, "entries": PAIR, "tags": ["a"]}),
    "empty array member": json.dumps({"dim": 2, "entries": PAIR, "tags": []}),
    "second matrix member": '{"dim": 1, "entries": [[[1, 0]]], "other": [[[1, 0]]]}',
}


def _exact_decimal(q: Fraction) -> str:
    """The finite decimal expansion of a dyadic rational q >= 0, in exponent form."""
    k = q.denominator.bit_length() - 1  # q = n / 2^k = n 5^k / 10^k
    digits = str(q.numerator * 5**k)
    return f"{digits[0]}.{digits[1:] or '0'}e{len(digits) - 1 - k}"


def hard_rounding_numbers(rng, count):
    """Decimal strings that round hard to doubles, with random signs.

    Each is a double's shortest repr, the exact halfway point to the next
    double up (ties go to even), or that point cut to 17-25 significant
    digits, which lands just above or below it.  The doubles are normal,
    subnormal, or near the ends of the exponent range, at most half the
    double range so that symmetrizing H + H^dagger stays finite.
    """
    doubles = [0.0, 5e-324, 2.2250738585072014e-308, 8.98846567431158e307 / 1.01]
    for regime in rng.integers(0, 4, count):
        if regime == 0:  # a subnormal: k times the smallest
            doubles.append(5e-324 * float(rng.integers(1, 2**52)))
        else:  # anywhere, near the smallest normal, or near half the double range
            exponent = (int(rng.integers(-1022, 1023)), -1022 + int(rng.integers(8)), 1015 + int(rng.integers(8)))[regime - 1]
            doubles.append(math.ldexp(rng.uniform(1.0, 1.99), exponent))
    numbers = []
    for d in doubles:
        halfway = _exact_decimal((Fraction(d) + Fraction(math.nextafter(d, math.inf))) / 2)
        numbers += [repr(d), halfway, format(Decimal(halfway), f".{rng.integers(16, 25)}e")]
    rng.shuffle(numbers)
    return [number if rng.random() < 0.5 else "-" + number for number in numbers[:count]]


def hard_rounding_file(rng, dim):
    """A dim x dim matrix file of hard_rounding_numbers, each entry's number also in its transpose entry.

    The Hermitian part (H + H^dagger)/2 of such entries is exactly the parsed numbers.
    """
    numbers = iter(hard_rounding_numbers(rng, dim * dim))
    cells = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        cells[i][i] = f"[{next(numbers)}, 0]"
        for j in range(i):
            re, im = next(numbers), next(numbers)
            cells[i][j], cells[j][i] = f"[{re}, {im}]", f"[{re}, {im[1:] if im[0] == '-' else '-' + im}]"
    return '{"dim": %d, "entries": [%s]}' % (dim, ", ".join("[" + ", ".join(row) + "]" for row in cells))


def _write(tmp_path, text):
    path = tmp_path / "m.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


class TestReaderCorpus:
    @pytest.mark.parametrize("text", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_accepted_layouts_read_bit_identically(self, tmp_path, text):
        path = _write(tmp_path, text)
        expected, expected_asym = reference_read(path)
        op, asym = hb.read_operator_json(path)
        assert op.matrix.tobytes() == expected.tobytes()
        assert asym == expected_asym

    @pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected_inputs_stay_rejected(self, tmp_path, text):
        path = _write(tmp_path, text)
        with pytest.raises((KeyError, ValueError)):  # KeyError: no entries member
            reference_read(path)
        with pytest.raises(ValueError):
            hb.read_operator_json(path)

    @pytest.mark.parametrize("text", NEWLY_REJECTED.values(), ids=NEWLY_REJECTED.keys())
    def test_booleans_and_array_members_are_rejected(self, tmp_path, text):
        # json.load turns true into 1.0 and np.array accepted it as a number;
        # the entries array is the only array the format has
        path = _write(tmp_path, text)
        reference_read(path)
        with pytest.raises(ValueError):
            hb.read_operator_json(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        [*REJECTED.values(), *NEWLY_REJECTED.values(), '{"dim": 1, "entries": [[[1e400, 0]]]}'],
        ids=[*REJECTED, *NEWLY_REJECTED, "overflowing number"],
    )
    def test_rejected_inputs_exit_2_in_the_cli(self, tmp_path, capsys, text):
        model = {"T": str(_write(tmp_path, text)), "S": str(tmp_path / "S.json")}
        hb.write_operator_json(np.eye(1), model["S"])
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"model": model, "families": ["bkm"]}))
        assert main(["metric", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad matrix file: ")

    def test_hard_rounding_numbers_read_bit_identically(self, tmp_path):
        # halfway points, subnormals, 17-25-digit mantissas and exponents near
        # +-308: the flat parser must round each as json.load does
        text = hard_rounding_file(np.random.default_rng(11), 40)
        expected, expected_asym = reference_read(_write(tmp_path, text))
        parts = np.abs(expected.view(float))
        assert np.sum((parts > 0.0) & (parts < 2.2250738585072014e-308)) > 400 and np.max(parts) > 1e307
        op, asym = hb.read_operator_json(tmp_path / "m.json")
        assert op.matrix.tobytes() == expected.tobytes()
        assert asym == expected_asym

    def test_huge_dim_fails_without_allocating(self, tmp_path):
        path = _write(tmp_path, '{"dim": 1000000000000, "entries": [[[1, 0]]]}')
        with pytest.raises(ValueError, match="1000000000000x1000000000000"):
            hb.read_operator_json(path)

    def test_random_matrix_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 30)
        path = tmp_path / "h.json"
        hb.write_operator_json(h, path)
        expected, expected_asym = reference_read(path)
        op, asym = hb.read_operator_json(path)
        assert op.matrix.tobytes() == expected.tobytes()
        assert asym == expected_asym == 0.0
        assert op.matrix.tobytes() == hb.HermitianOperator(h).matrix.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("number", ["1e400", "-1e400", "NaN"])
    def test_non_finite_entries_raise_without_warnings(self, tmp_path, number):
        path = _write(tmp_path, f'{{"dim": 2, "entries": [[[1, 0], [{number}, 0]], [[0, 0], [1, 0]]]}}')
        with pytest.raises(ValueError):
            hb.read_operator_json(path)


class TestWriter:
    def test_bytes_match_the_per_element_format(self, tmp_path):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 6)
        m[0, 0] = -0.0
        m[1, 2], m[2, 1] = complex(-0.0, -0.0), complex(-0.0, 0.0)
        m[3, 4], m[4, 3] = complex(5e-324, -5e-324), complex(5e-324, 5e-324)
        m[5, 5] = 1e-310
        m[0, 5], m[5, 0] = complex(1e300, 1.5), complex(1e300, -1.5)
        matrix = hb.HermitianOperator(m).matrix
        write_per_element(matrix, tmp_path / "old.json")
        hb.write_operator_json(m, tmp_path / "new.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert b"-0.0" in (tmp_path / "new.json").read_bytes()
        assert b"5e-324" in (tmp_path / "new.json").read_bytes()
