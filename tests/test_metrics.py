"""Metric route tests: fixtures, cross-route agreement, series, identities."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from gibbsqfi import dsf, families as fam, hilbert as hb, inequalities as ineq, metrics
from gibbsqfi.models import SpinModel, build_model
from test_dsf import build_cross_dsf

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

# closed forms for T = diag(0, 1), S = sigma_x, frozen from 40-digit math
D2_BKM = 0.23105857863000487  # tanh(1/2)/2
D2_BURES = 0.21355226703407259  # tanh(1/2)^2
D2_MC = 0.25
D2_GEO = 0.24080708123630688
D2_HAR = 0.27154031740762189
D2_WY = 0.22636223205985218

FAMILIES = [
    fam.HAR,
    fam.BURES,
    fam.BKM,
    fam.MC,
    fam.GEOMETRIC,
    fam.WY,
    fam.wyd(0.35),
    fam.power_difference(0.75),
]


@pytest.fixture
def qubit():
    return hb.gibbs_state(np.diag([0.0, 1.0]).astype(complex))


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_instance(seed, dim, spread=None):
    rng = np.random.default_rng(seed)
    t = random_hermitian(rng, dim)
    if spread is not None:
        eigs = np.linalg.eigvalsh(t)
        t *= spread / (eigs[-1] - eigs[0])
    return hb.gibbs_state(t), hb.HermitianOperator(random_hermitian(rng, dim))


class TestQubitFixture:
    def test_method_names_are_the_command_line_names(self, qubit):
        assert metrics.METHODS == ("oracle", "spectral", "dsf", "seriesA", "seriesB")
        results = [
            metrics.metric_mc_oracle(qubit, SX, fam.BKM),
            metrics.metric_spectral(qubit, SX, fam.BKM),
            metrics.metric_from_dsf(dsf.build_dsf(qubit, SX), fam.BKM),
            metrics.metric_series_A(qubit, SX, fam.BKM, 2),
            metrics.metric_series_B(qubit, SX, fam.BKM, 2),
        ]
        assert tuple(r.method for r in results) == metrics.METHODS

    def test_three_routes_three_families(self, qubit):
        expected = {"bkm": D2_BKM, "bures": D2_BURES, "mc": D2_MC}
        spectrum = dsf.build_dsf(qubit, SX)
        for label, value in expected.items():
            family = fam.parse_family(label)
            assert metrics.metric_mc_oracle(qubit, SX, family).value == pytest.approx(
                value, abs=1e-12
            )
            assert metrics.metric_spectral(qubit, SX, family).value == pytest.approx(
                value, abs=1e-12
            )
            assert metrics.metric_from_dsf(spectrum, family).value == pytest.approx(
                value, abs=1e-12
            )

    def test_remaining_named_families(self, qubit):
        for family, value in [
            (fam.GEOMETRIC, D2_GEO),
            (fam.HAR, D2_HAR),
            (fam.WY, D2_WY),
        ]:
            assert metrics.metric_spectral(qubit, SX, family).value == pytest.approx(
                value, abs=1e-12
            )


class TestSpectralRoute:
    def test_maximally_mixed_gives_quarter_variance(self):
        rng = np.random.default_rng(2)
        s = random_hermitian(rng, 4)
        state = hb.gibbs_state(np.zeros((4, 4), dtype=complex))
        var = (np.trace(s @ s).real / 4.0) - (np.trace(s).real / 4.0) ** 2
        for family in FAMILIES:
            assert metrics.metric_spectral(state, s, family).value == pytest.approx(
                var / 4.0, rel=1e-12
            )

    def test_shift_invariance(self):
        state, s = random_instance(5, 5)
        for family in (fam.BURES, fam.MC, fam.wyd(0.35)):
            base = metrics.metric_spectral(state, s, family).value
            for c in (3.7, -11.0):
                shifted = hb.HermitianOperator(s.matrix + c * np.eye(5))
                assert metrics.metric_spectral(state, shifted, family).value == pytest.approx(
                    base, rel=1e-10
                )

    def test_classical_collapse(self):
        # commuting T and S: every family returns Var(S)/4
        rng = np.random.default_rng(7)
        lam = rng.normal(size=5)
        diag_s = rng.normal(size=5)
        state = hb.gibbs_state(np.diag(lam).astype(complex))
        s = np.diag(diag_s).astype(complex)
        w = np.exp(-lam) / np.sum(np.exp(-lam))
        var = float(np.dot(w, diag_s ** 2) - np.dot(w, diag_s) ** 2)
        for family in FAMILIES:
            assert metrics.metric_spectral(state, s, family).value == pytest.approx(
                var / 4.0, rel=1e-12
            )


class TestFourRouteAgreement:
    def test_random_instances(self):
        for seed in range(8):
            dim = 2 + seed % 7
            state, s = random_instance(seed, dim)
            spectrum = dsf.build_dsf(state, s)
            for family in FAMILIES:
                a = metrics.metric_mc_oracle(state, s, family).value
                b = metrics.metric_spectral(state, s, family).value
                c = metrics.metric_from_dsf(spectrum, family).value
                scale = max(abs(a), abs(b), abs(c))
                assert abs(a - b) <= 1e-10 * scale
                assert abs(a - c) <= 1e-10 * scale
                assert abs(b - c) <= 1e-10 * scale

    def test_wide_spectrum_line_sum(self):
        # spectral range ~40 once made the line route lose its small-weight
        # negative-frequency lines to pruning; guards the balance-aware cut
        state, s = random_instance(42, 40)
        spread = (
            state.decomposition.eigenvalues[-1] - state.decomposition.eigenvalues[0]
        )
        assert spread > 20.0
        spectrum = dsf.build_dsf(state, s)
        for family in FAMILIES:
            b = metrics.metric_spectral(state, s, family).value
            c = metrics.metric_from_dsf(spectrum, family).value
            assert abs(b - c) <= 1e-11 * max(abs(b), abs(c))


class TestSeriesRoutes:
    def test_series_a_bkm_is_exact(self, qubit):
        for L in (1, 5):
            assert metrics.metric_series_A(qubit, SX, fam.BKM, L).value == pytest.approx(
                D2_BKM, abs=1e-13
            )

    @pytest.mark.parametrize("route", [metrics.metric_series_A, metrics.metric_series_B])
    def test_non_integer_truncation_rejected(self, qubit, route):
        with pytest.raises(ValueError, match="L must be a positive integer"):
            route(qubit, SX, fam.MC, 2.5)

    def test_series_a_qubit_resummation(self, qubit):
        assert metrics.metric_series_A(qubit, SX, fam.MC, 12).value == pytest.approx(
            D2_MC, abs=1e-8
        )
        assert metrics.metric_series_A(qubit, SX, fam.BURES, 12).value == pytest.approx(
            D2_BURES, abs=1e-8
        )

    def test_series_b_mc_is_exact(self, qubit):
        for L in (1, 7):
            assert metrics.metric_series_B(qubit, SX, fam.MC, L).value == pytest.approx(
                D2_MC, abs=1e-13
            )

    def test_series_b_qubit_resummation(self, qubit):
        assert metrics.metric_series_B(qubit, SX, fam.BKM, 12).value == pytest.approx(
            D2_BKM, abs=1e-8
        )

    def test_series_b_commuting_any_family(self, qubit):
        # even moments beyond the elastic line vanish, so the series stays
        # at the variance point for every family
        mean = hb.thermal_average(qubit, SZ)
        var = 1.0 - mean ** 2
        for family in (fam.BURES, fam.HAR, fam.wyd(0.35)):
            assert metrics.metric_series_B(qubit, SZ, family, 6).value == pytest.approx(
                var / 4.0, rel=1e-12
            )

    def test_radius_flag(self):
        state, s = random_instance(3, 4, spread=0.9)
        ok = metrics.metric_series_A(state, s, fam.BURES, 6)
        assert ok.diagnostics.convergence_radius_ok
        assert ok.diagnostics.truncation == 6
        wide, s_wide = random_instance(3, 4, spread=8.0)
        flagged = metrics.metric_series_A(wide, s_wide, fam.BURES, 6)
        assert not flagged.diagnostics.convergence_radius_ok

    def test_negative_value_raises(self):
        # inside Bures' radius, but seriesB:3 undershoots the spectral 5.026 to below zero
        T, S = build_model(SpinModel(100, 3.0))
        state = hb.gibbs_state(T)
        assert metrics.metric_spectral(state, S, fam.BURES).value == pytest.approx(5.02597, rel=1e-5)
        with pytest.raises(ArithmeticError, match="seriesB produced a negative metric: -11.4488"):
            metrics.metric_series_B(state, S, fam.BURES, 3)

    def test_truncation_argument(self, qubit):
        with pytest.raises(ValueError):
            metrics.metric_series_A(qubit, SX, fam.MC, 0)
        with pytest.raises(ValueError):
            metrics.metric_series_B(qubit, SX, fam.MC, 0)

    def test_scaled_spread_matches_spectral(self):
        # max |omega| <= 1 puts every family inside its radius at L = 12
        for seed in (11, 12):
            state, s = random_instance(seed, 5, spread=1.0)
            for family in FAMILIES:
                ref = metrics.metric_spectral(state, s, family).value
                res_a = metrics.metric_series_A(state, s, family, 12)
                res_b = metrics.metric_series_B(state, s, family, 12)
                assert res_a.diagnostics.convergence_radius_ok
                assert res_b.diagnostics.convergence_radius_ok
                assert res_a.value == pytest.approx(ref, rel=1e-7)
                assert res_b.value == pytest.approx(ref, rel=1e-7)


class TestMetricDifference:
    def test_bkm_is_zero(self, qubit):
        assert metrics.metric_difference_to_bkm(qubit, SX, fam.BKM) == 0.0

    def test_qubit_values(self, qubit):
        assert metrics.metric_difference_to_bkm(qubit, SX, fam.MC) == pytest.approx(
            D2_MC - D2_BKM, rel=1e-11
        )
        assert metrics.metric_difference_to_bkm(qubit, SX, fam.BURES) == pytest.approx(
            D2_BURES - D2_BKM, rel=1e-11
        )

    def test_matches_spectral_difference(self):
        state, s = random_instance(9, 6)
        bkm = metrics.metric_spectral(state, s, fam.BKM).value
        for family in FAMILIES:
            direct = metrics.metric_spectral(state, s, family).value - bkm
            line = metrics.metric_difference_to_bkm(state, s, family)
            assert line == pytest.approx(direct, rel=1e-11, abs=1e-14)


class TestCrossMetric:
    def test_collapses_for_equal_arguments(self, qubit):
        value = metrics.cross_metric(qubit, SX, SX, fam.BURES)
        assert value.imag == pytest.approx(0.0, abs=1e-15)
        assert value.real == pytest.approx(D2_BURES, rel=1e-12)

    def test_identity_gives_zero(self, qubit):
        assert metrics.cross_metric(qubit, SX, np.eye(2, dtype=complex), fam.MC) == 0

    def test_qubit_sigma_x_sigma_z(self, qubit):
        for family in (fam.BKM, fam.BURES, fam.HAR):
            value = metrics.cross_metric(qubit, SX, SZ, family)
            assert abs(value) < 1e-14

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(31)
        state, a = random_instance(31, 4)
        b = hb.HermitianOperator(random_hermitian(rng, 4))
        for family in (fam.BKM, fam.wyd(0.35)):
            ab = metrics.cross_metric(state, a, b, family)
            ba = metrics.cross_metric(state, b, a, family)
            assert ab == pytest.approx(np.conj(ba), rel=1e-12)

    def test_terms_past_double_range_raise_not_nan(self):
        # HAR terms past double range with both signs would sum to nan
        T, A = ineq.random_instance(np.random.default_rng(1), 6, spread=1000.0)
        _, B = ineq.random_instance(np.random.default_rng(2), 6, spread=1.0)
        state = hb.gibbs_state(T)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for b in (A, B):
                with pytest.raises(OverflowError, match="cross metric of har"):
                    metrics.cross_metric(state, A, b, fam.HAR)
            assert np.isfinite(metrics.cross_metric(state, A, B, fam.MC))

    def test_literal_tanh_kernel_oracle(self):
        # (1/8) sum (w/2)^{-1} tanh(w/2) g(w/2) (1 + e^{-w}) q evaluated
        # verbatim on the cross lines of build_cross_dsf (test_dsf) must match the matrix form
        # used internally: GUE instances of dims 2-10 with spreads 0.1-100,
        # every third one with pairs of degenerate levels
        rng = np.random.default_rng(33)
        state, a = random_instance(33, 5)
        instances = [(state, a, hb.HermitianOperator(random_hermitian(rng, 5)))]
        for k in range(30):
            dim = int(rng.integers(2, 11))
            levels = 10.0 ** rng.uniform(-1.0, 2.0) * rng.uniform(size=dim)
            if k % 3 == 0:
                levels[1::2] = levels[:-1:2]
            U = np.linalg.eigh(random_hermitian(rng, dim))[1]
            t = (U * levels) @ U.conj().T
            instances.append(
                (
                    hb.gibbs_state(0.5 * (t + t.conj().T)),
                    hb.HermitianOperator(random_hermitian(rng, dim)),
                    hb.HermitianOperator(random_hermitian(rng, dim)),
                )
            )
        families = (fam.BURES, fam.MC, fam.HAR, fam.wyd(0.4), fam.power_difference(1.3))
        for state, a, b in instances:
            q = build_cross_dsf(state, a, b)
            half = 0.5 * q.omegas
            factor = np.where(
                half == 0.0, 2.0, np.tanh(half) / np.where(half == 0, 1.0, half) * (1.0 + np.exp(-q.omegas))
            )
            for family in families:
                literal = 0.125 * complex(np.sum(fam.eval_g(family, half) * factor * q.weights))
                value = metrics.cross_metric(state, a, b, family)
                scale = math.sqrt(
                    metrics.metric_spectral(state, a, family).value
                    * metrics.metric_spectral(state, b, family).value
                )
                assert abs(value - literal) <= 1e-12 * scale
                assert value == pytest.approx(literal, rel=1e-12)


class TestNamedIdentities:
    def test_bkm_is_quarter_duhamel(self):
        for seed in (1, 4):
            state, s = random_instance(seed, 5)
            mean = hb.thermal_average(state, s)
            ds = hb.HermitianOperator(s.matrix - mean * np.eye(5))
            quad = dsf.bogoliubov_duhamel_quadrature(state, ds, ds)
            assert 4.0 * metrics.metric_spectral(state, s, fam.BKM).value == pytest.approx(
                quad, rel=1e-8
            )

    def test_mc_is_quarter_variance(self):
        for seed in (2, 6):
            state, s = random_instance(seed, 6)
            s_sq = hb.HermitianOperator(s.matrix @ s.matrix)
            var = hb.thermal_average(state, s_sq) - hb.thermal_average(state, s) ** 2
            assert 4.0 * metrics.metric_spectral(state, s, fam.MC).value == pytest.approx(
                var, rel=1e-12
            )

    def test_bures_against_harmonic_kernel_oracle(self):
        # independent oracle: c_B(x, y) = 2/(x + y) summed directly
        for seed in (3, 8):
            state, s = random_instance(seed, 5)
            s_eig = hb.to_eigenbasis(state, s)
            w = state.weights
            lw = state.log_weights
            mean = float(np.dot(w, np.diag(s_eig).real))
            total = float(np.dot(w, (np.diag(s_eig).real - mean) ** 2))
            for m in range(5):
                for n in range(5):
                    if m == n:
                        continue
                    q = (w[n] - w[m]) / (lw[n] - lw[m])
                    total += 2.0 / (w[m] + w[n]) * q ** 2 * abs(s_eig[m, n]) ** 2
            assert metrics.metric_spectral(state, s, fam.BURES).value == pytest.approx(
                total / 4.0, rel=1e-10
            )

    def test_fidelity_susceptibility_accessor(self, qubit):
        assert metrics.fidelity_susceptibility(qubit, SX) == pytest.approx(
            4.0 * D2_BURES, rel=1e-12
        )


class TestBernoulliCommutatorSeries:
    def test_bkm_minus_bures_partial_sums(self):
        # d2_BKM - d2_B = sum_l 2 (2^{2l+2} - 1) B_{2l+2}/(2l+2)! <R_{2l-1} R_0>
        # (tanh-series coefficients; <R R> from genuine commutator matrices)
        state, s = random_instance(13, 5, spread=1.0)  # well inside radius pi/2
        bkm = metrics.metric_spectral(state, s, fam.BKM).value
        bures = metrics.metric_spectral(state, s, fam.BURES).value
        u = state.decomposition.eigenvectors
        t_matrix = (u * state.decomposition.eigenvalues) @ u.conj().T
        rho = state.rho_matrix()

        def comm(a):
            return t_matrix @ a - a @ t_matrix

        total = 0.0
        r = comm(s.matrix)  # R_1
        for l in range(1, 13):
            mean_rr = float(np.trace(rho @ r @ s.matrix).real)
            coeff = float(
                2 * (2 ** (2 * l + 2) - 1) * mpmath.bernoulli(2 * l + 2) / math.factorial(2 * l + 2)
            )
            total += coeff * mean_rr
            r = comm(comm(r))  # advance to R_{2l+1}
        assert total == pytest.approx(bkm - bures, rel=1e-7)


class TestAbstractDefinitionOracle:
    """End-to-end check against the operator-mean definition.

    The metric is (1/4) <drho, m_f(L, R)^{-1} drho> with the Kubo-Ando
    mean m_f(A, B) = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} of the left
    and right multiplication superoperators.  Everything here (matrix
    exponentials, finite differences, d^2-dimensional superoperators,
    direct textbook f) is independent of the package's closed forms.
    """

    @staticmethod
    def _f_direct(label, alpha=None):
        def f(x):
            t = x - 1.0
            if abs(t) < 1e-9:
                return 1.0 + 0.5 * t  # f'(1) = 1/2 for every standard f
            if label == "bkm":
                return t / np.log(x)
            if label == "bures":
                return (x + 1) / 2
            if label == "mc":
                return (t / np.log(x)) ** 2 * 2 / (1 + x)
            if label == "har":
                return 2 * x / (1 + x)
            if label == "geometric":
                return np.sqrt(x)
            return alpha * (1 - alpha) * t ** 2 / (
                (x ** alpha - 1) * (x ** (1 - alpha) - 1)
            )

        return f

    def _petz_metric(self, t, s, label, alpha=None, eps=1e-4):
        d = t.shape[0]

        def matfun(m, fn):
            vals, vecs = np.linalg.eigh(m)
            return (vecs * np.array([fn(v) for v in vals])) @ vecs.conj().T

        def rho_of(h):
            m = matfun(-(t - h * s), np.exp)
            return m / np.trace(m).real

        drho = (rho_of(eps) - rho_of(-eps)) / (2 * eps)
        rho = rho_of(0.0)
        # row-major vec: L_rho -> rho (x) I, R_rho -> I (x) rho^T
        L = np.kron(rho, np.eye(d))
        R = np.kron(np.eye(d), rho.T)

        a_half = matfun(L, np.sqrt)
        a_ihalf = matfun(L, lambda v: 1.0 / np.sqrt(v))
        c = a_ihalf @ R @ a_ihalf
        c = 0.5 * (c + c.conj().T)
        mean = a_half @ matfun(c, self._f_direct(label, alpha)) @ a_half
        if label == "bures":
            # the arithmetic mean is (L + R)/2; guards the vec convention
            assert np.max(np.abs(mean - 0.5 * (L + R))) < 1e-10
        v = drho.flatten()
        return 0.25 * float((v.conj() @ np.linalg.solve(mean, v)).real)

    def test_spectral_matches_definition(self):
        rng = np.random.default_rng(7)
        cases = [
            ("bkm", fam.BKM, None),
            ("bures", fam.BURES, None),
            ("mc", fam.MC, None),
            ("har", fam.HAR, None),
            ("geometric", fam.GEOMETRIC, None),
            ("wyd", fam.wyd(0.3), 0.3),
        ]
        for dim in (2, 3):
            t = random_hermitian(rng, dim)
            s = random_hermitian(rng, dim)
            state = hb.gibbs_state(t)
            for label, family, alpha in cases:
                ours = metrics.metric_spectral(state, s, family).value
                abstract = self._petz_metric(t, s, label, alpha)
                # limited by the finite-difference step of drho
                assert ours == pytest.approx(abstract, rel=1e-7)


class TestStability:
    def test_kernel_times_weight_extreme(self):
        # a balanced line at omega = -800 carries weight ~ e^{-800}; the
        # merged line kernel, formed from the log of its heavier balance
        # side q e^{800}, stays finite far beyond exp overflow, and so does
        # a line whose weight underflows
        with mpmath.workdps(400):
            for weight in (mpmath.mpf("1e-300"), mpmath.exp(-1100)):
                heavier = np.array([float(mpmath.log(weight) + 800)])
                line = dsf.LineSpectrum(np.array([-800.0]), np.exp(heavier - 800.0), "diagonal", 2, 0.0, heavier)
                out = np.exp(line.log_kernel)
                ref = float((1 - mpmath.exp(800)) / (-800) * weight)
                assert math.isfinite(out[0])
                assert out[0] == pytest.approx(ref, rel=1e-12)

    def test_wide_spread_metrics_finite(self):
        state = hb.gibbs_state(np.diag([0.0, 300.0]).astype(complex))
        for family in (fam.BKM, fam.BURES, fam.MC, fam.GEOMETRIC):
            value = metrics.metric_spectral(state, SX, family).value
            assert math.isfinite(value) and value >= 0.0


def _wide_corpus():
    """(label, T, S): GUE pairs of dims 2-12 at spectral spreads up to 1e4, and degenerate levels."""
    from gibbsqfi.inequalities import random_instance as gue_instance

    cases = []
    for spread in (690.0, 700.0, 720.0, 1000.0):
        T, S = gue_instance(np.random.default_rng(1), 6, spread=spread)
        cases.append((f"rng1-dim6-{spread:g}", T.matrix, S.matrix))
    rng = np.random.default_rng(16)
    for dim in range(2, 13):
        for spread in (50.0, 745.0, 3000.0, 1e4):
            T, S = gue_instance(rng, dim, spread=spread)
            cases.append((f"dim{dim}-{spread:g}", T.matrix, S.matrix))
    # degenerate levels: rotated (equal to roundoff) and diagonal (exactly equal)
    levels = np.array([0.0, 0.0, 0.0, 800.0, 800.0, 2500.0, 9000.0, 1e4])
    U = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
    S = random_hermitian(rng, 8)
    cases.append(("degenerate-rotated", (U * levels) @ U.conj().T, S))
    cases.append(("degenerate-diagonal", np.diag(levels).astype(complex), S))
    return cases


WIDE = _wide_corpus()
WIDE_FAMILIES = [
    *fam.named_families().values(),
    fam.wyd(0.3),
    *map(fam.power_difference, (-0.7, 1.5, 2.0)),
]


class TestWideSpreads:
    """Without a weight floor the routes agree past the spread where weights underflow."""

    @pytest.mark.parametrize("case", WIDE, ids=[case[0] for case in WIDE])
    def test_routes_agree_or_are_all_inf(self, case):
        # the structure factor of S - <S>, which the dsf route reads, so
        # that no line sum cancels <S>^2 in a nearly pure state
        _, T, S = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = hb.gibbs_state(0.5 * (T + T.conj().T))
            spectrum = dsf.build_dsf(state, S, centered=True)
            for family in WIDE_FAMILIES:
                values = [
                    metrics.metric_mc_oracle(state, S, family).value,
                    metrics.metric_spectral(state, S, family).value,
                    metrics.metric_from_dsf(spectrum, family).value,
                ]
                if all(v == math.inf for v in values):
                    continue
                assert all(math.isfinite(v) for v in values), (family.label, values)
                spread = max(values) - min(values)
                assert spread <= 1e-10 * max(values), (family.label, values)

    @pytest.mark.parametrize("spread", [690.0, 700.0, 720.0, 1000.0, 1e4])
    def test_mc_is_the_variance_at_every_spread(self, spread):
        # MC is Var(S)/4 for every state; the weight floor made the oracle
        # read 0.81866 at spread 700 against Var(S)/4 = 0.8224753
        from gibbsqfi.inequalities import random_instance as gue_instance

        T, S = gue_instance(np.random.default_rng(1), 6, spread=spread)
        state = hb.gibbs_state(T)
        s = S.matrix
        rho = state.rho_matrix()
        variance = float(np.trace(rho @ s @ s).real - np.trace(rho @ s).real ** 2)
        assert 0.25 * variance == pytest.approx(0.8224753195943, rel=1e-12)
        spectrum = dsf.build_dsf(state, S)
        for value in (
            metrics.metric_mc_oracle(state, S, fam.MC).value,
            metrics.metric_spectral(state, S, fam.MC).value,
            metrics.metric_from_dsf(spectrum, fam.MC).value,
        ):
            assert value == pytest.approx(0.25 * variance, rel=1e-12)


TINY = 2.2250738585072014e-308  # the smallest normal double
ADVERTISED_FAMILIES = [
    *fam.named_families().values(),
    *map(fam.wyd, (0.01, 0.1, 0.3, 0.46)),
    *map(fam.power_difference, (-1.0, -0.7, 0.0, 0.3, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.5, 2.0)),
]


@functools.cache
def _advertised_corpus():
    """300 (state, S, centered structure factor): dims 2-12 at spreads 10^U(0, 307), up to the README's range."""
    from gibbsqfi.inequalities import random_instance as gue_instance

    cases = []
    for case in range(300):
        rng = np.random.default_rng(case)
        dim, spread = int(rng.integers(2, 13)), float(10.0 ** rng.uniform(0.0, 307.0))
        T, S = gue_instance(rng, dim, spread=spread)
        state = hb.gibbs_state(T)
        cases.append((f"case {case}, dim {dim}, spread {spread:.3g}", state, S, dsf.build_dsf(state, S, centered=True)))
    return cases


@pytest.mark.parametrize("family", ADVERTISED_FAMILIES, ids=lambda f: f.kind if f.param is None else f"{f.kind}:{f.param!r}")
def test_routes_agree_at_every_advertised_spread(family):
    # a filter's linear exponent summed from rounded scales parted the routes
    # by 10% at spread 1e16 and 190 orders of magnitude at 1e20; a subnormal
    # value keeps too few bits for a relative check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label, state, S, spectrum in _advertised_corpus():
            values = [
                metrics.metric_mc_oracle(state, S, family).value,
                metrics.metric_spectral(state, S, family).value,
                metrics.metric_from_dsf(spectrum, family).value,
            ]
            if all(v == math.inf for v in values):
                continue
            assert all(math.isfinite(v) for v in values), (label, values)
            if max(values) >= TINY:
                assert max(values) - min(values) <= 1e-12 * max(values), (label, values)
