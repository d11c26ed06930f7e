"""Dense operator, Gibbs state and commutator machinery tests."""

import json
import math

import mpmath
import numpy as np
import pytest

from gibbsqfi import hilbert as hb

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

RHO1 = 0.7310585786300049  # 1/(1 + e^{-1})
RHO2 = 0.2689414213699951


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
        with pytest.raises(ArithmeticError, match="residual nan"):
            hb.eigendecompose(SZ)


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

    def test_underflow_clamp_flagged(self):
        with pytest.warns(RuntimeWarning, match="clamped"):
            state = hb.gibbs_state(np.diag([0.0, 800.0]).astype(complex))
        assert state.clamped == 1
        assert state.weights[1] == 1e-300

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
        w = hb.duhamel_weight_matrix(state)
        assert w[0, 0] == pytest.approx(RHO1, rel=1e-14)
        assert w[1, 1] == pytest.approx(RHO2, rel=1e-14)
        # (rho2 - rho1)/(ln rho2 - ln rho1) = tanh(1/2)
        assert w[0, 1] == pytest.approx(math.tanh(0.5), rel=1e-13)
        assert w[0, 1] == w[1, 0]

    def test_near_degenerate_matches_highprec(self):
        state = hb.gibbs_state(np.diag([0.0, 1e-6]).astype(complex))
        w = hb.duhamel_weight_matrix(state)
        with mpmath.workdps(50):
            z = 1 + mpmath.exp(mpmath.mpf("-1e-6"))
            r1 = 1 / z
            r2 = mpmath.exp(mpmath.mpf("-1e-6")) / z
            expected = float((r2 - r1) / (mpmath.log(r2) - mpmath.log(r1)))
        assert w[0, 1] == pytest.approx(expected, rel=1e-14)

    def test_wide_spread_finite(self):
        state = hb.gibbs_state(np.diag([0.0, 200.0, 400.0]).astype(complex))
        w = hb.duhamel_weight_matrix(state)
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
