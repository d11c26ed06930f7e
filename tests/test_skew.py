"""Skew information and commutator-perturbed metric tests."""

import numpy as np
import pytest
from scipy import integrate

from gibbsqfi import dsf, families as fam, hilbert as hb, metrics, skew
from test_hilbert import duhamel_kernel

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

RHO1 = 0.7310585786300049
RHO2 = 0.2689414213699951
WYD_HALF_QUBIT = 0.1131811160299261  # 1 - 2 sqrt(rho1 rho2), 40-digit frozen
GAP_QUBIT = 0.07576568547998048  # 4 (d2_MC - d2_BKM) = 1 - 2 tanh(1/2)


@pytest.fixture
def qubit():
    return hb.gibbs_state(np.diag([0.0, 1.0]).astype(complex))


def random_instance(seed, dim):
    rng = np.random.default_rng(seed)

    def herm():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return 0.5 * (g + g.conj().T)

    return hb.gibbs_state(herm()), hb.HermitianOperator(herm())


class TestWydSkew:
    def test_commuting_vanishes(self, qubit):
        assert skew.wyd_skew(qubit, SZ, 0.5).value == pytest.approx(0.0, abs=1e-15)

    def test_qubit_half(self, qubit):
        result = skew.wyd_skew(qubit, SX, 0.5)
        assert result.value == pytest.approx(WYD_HALF_QUBIT, rel=1e-12)
        assert result.alpha == 0.5

    def test_trace_form_oracle(self, qubit):
        # Tr(rho S^2) - Tr(rho^a S rho^{1-a} S) via dense matrix products
        rho = qubit.rho_matrix()
        for alpha in (0.2, 0.5, 0.8):
            ra = np.diag(qubit.weights ** alpha).astype(complex)
            rb = np.diag(qubit.weights ** (1 - alpha)).astype(complex)
            expected = float(
                (np.trace(rho @ SX @ SX) - np.trace(ra @ SX @ rb @ SX)).real
            )
            assert skew.wyd_skew(qubit, SX, alpha).value == pytest.approx(expected, rel=1e-12)

    def test_alpha_symmetry(self):
        state, s = random_instance(1, 5)
        for alpha in (0.1, 0.25, 0.4):
            assert skew.wyd_skew(state, s, alpha).value == pytest.approx(
                skew.wyd_skew(state, s, 1.0 - alpha).value, rel=1e-12
            )

    def test_nonnegative(self):
        for seed in range(4):
            state, s = random_instance(seed, 4)
            assert skew.wyd_skew(state, s, 0.3).value >= 0.0

    def test_alpha_domain(self, qubit):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                skew.wyd_skew(qubit, SX, bad)


class TestMetricAdjustedSkew:
    def test_bures_qubit_closed_form(self, qubit):
        result = skew.metric_adjusted_skew(qubit, SX, fam.BURES)
        assert result.value == pytest.approx((RHO1 - RHO2) ** 2, rel=1e-12)

    def test_wyd_reproduces_skew(self):
        for seed, alpha in [(2, 0.3), (3, 0.5), (4, 0.62)]:
            state, s = random_instance(seed, 5)
            adjusted = skew.metric_adjusted_skew(state, s, fam.wyd(alpha)).value
            direct = skew.wyd_skew(state, s, alpha).value
            assert adjusted == pytest.approx(direct, rel=1e-11)

    def test_commuting_vanishes(self, qubit):
        assert skew.metric_adjusted_skew(qubit, SZ, fam.BURES).value == pytest.approx(
            0.0, abs=1e-15
        )

    def test_singular_families_rejected(self, qubit):
        for family in (fam.BKM, fam.MC, fam.HAR, fam.GEOMETRIC, fam.power_difference(0.7)):
            with pytest.raises(ValueError, match=family.label):
                skew.metric_adjusted_skew(qubit, SX, family)

    def test_regular_power_difference_accepted(self, qubit):
        value = skew.metric_adjusted_skew(qubit, SX, fam.power_difference(1.5)).value
        assert value > 0.0


class TestTildeMetric:
    def test_commuting_vanishes(self, qubit):
        assert skew.tilde_metric(qubit, SZ, fam.BURES).value == pytest.approx(0.0, abs=1e-15)

    def test_equals_metric_of_commutator(self):
        # d~^2_f(S, S) must equal d^2_f(R_1, R_1) with R_1 Hermitianized by
        # its own spectral content: compare against the raw double sum
        state, s = random_instance(5, 4)
        lam = state.decomposition.eigenvalues
        s_eig = hb.to_eigenbasis(state, s)
        w_kernel = duhamel_kernel(state)
        x = 0.5 * (lam[:, None] - lam[None, :])
        for family in (fam.BURES, fam.wyd(0.3), fam.MC):
            g = fam.eval_g(family, x)
            expected = 0.25 * float(
                np.sum(g * w_kernel * (2 * x) ** 2 * np.abs(s_eig) ** 2)
            )
            assert skew.tilde_metric(state, s, family).value == pytest.approx(
                expected, rel=1e-13
            )

    def test_fh_identity(self):
        # (1/4) I^f = (f(0)/2) d~^2_f for regular families
        for seed in (6, 7):
            state, s = random_instance(seed, 5)
            for family in (fam.BURES, fam.wyd(0.3), fam.wyd(0.5), fam.power_difference(1.8)):
                lhs = 0.25 * skew.metric_adjusted_skew(state, s, family).value
                rhs = 0.5 * fam.eval_f_at_zero(family) * skew.tilde_metric(state, s, family).value
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_qubit_bures_consistency(self, qubit):
        lhs = 0.25 * skew.metric_adjusted_skew(qubit, SX, fam.BURES).value
        rhs = 0.25 * skew.tilde_metric(qubit, SX, fam.BURES).value
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_line_sum_presentation(self):
        # d~^2_f = (1/4) sum_j omega_j g_f(omega_j/2) chi_weight_j over the
        # centered spectrum: the omega-weighted dissipative form
        state, s = random_instance(8, 5)
        q = dsf.build_dsf(state, s, centered=True)
        chi = dsf.chi_lines(q)
        for family in (fam.BURES, fam.wyd(0.4)):
            line_sum = 0.25 * float(
                np.sum(chi.omegas * fam.eval_g(family, 0.5 * chi.omegas) * chi.weights)
            )
            assert skew.tilde_metric(state, s, family).value == pytest.approx(
                line_sum, rel=1e-10
            )


class TestIntegratedWyd:
    def test_commuting_vanishes(self, qubit):
        assert skew.integrated_wyd(qubit, SZ) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_value(self, qubit):
        assert skew.integrated_wyd(qubit, SX) == pytest.approx(GAP_QUBIT, rel=1e-7)

    def test_equals_variance_minus_duhamel(self):
        for seed in (9, 10):
            state, s = random_instance(seed, 5)
            assert skew.integrated_wyd(state, s) == pytest.approx(
                skew.variance_minus_duhamel(state, s), rel=1e-7
            )
            gap = 4.0 * (
                metrics.metric_spectral(state, s, fam.MC).value
                - metrics.metric_spectral(state, s, fam.BKM).value
            )
            assert skew.integrated_wyd(state, s) == pytest.approx(gap, rel=1e-7)

    def test_commutator_bound(self):
        # integral of I^WYD over alpha <= (1/12) <[[S, T], S]>
        for seed in (11, 12):
            state, s = random_instance(seed, 4)
            u = state.decomposition.eigenvectors
            t_matrix = (u * state.decomposition.eigenvalues) @ u.conj().T
            r1 = t_matrix @ s.matrix - s.matrix @ t_matrix
            x = s.matrix @ r1 - r1 @ s.matrix
            bound = hb.thermal_average(state, hb.HermitianOperator(x)) / 12.0
            assert skew.integrated_wyd(state, s) <= bound + 1e-12

    def test_weighted_tilde_integral_identity(self):
        # int_0^1 2 a(1-a) d~^2_{WYD(a)} da = 4 (d2_MC - d2_BKM); the
        # f(0) weight is essential, the unweighted integral differs
        state, s = random_instance(13, 4)
        gap = 4.0 * (
            metrics.metric_spectral(state, s, fam.MC).value
            - metrics.metric_spectral(state, s, fam.BKM).value
        )
        weighted, _ = integrate.quad(
            lambda a: 2 * a * (1 - a) * skew.tilde_metric(state, s, fam.wyd(a)).value,
            0.0,
            1.0,
            epsabs=1e-10,
        )
        assert weighted == pytest.approx(gap, rel=1e-7)
        unweighted, _ = integrate.quad(
            lambda a: skew.tilde_metric(state, s, fam.wyd(a)).value, 0.0, 1.0, epsabs=1e-10
        )
        assert abs(unweighted / 8.0 - (gap / 4.0)) > 1e-3 * abs(gap)
