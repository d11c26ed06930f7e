"""Benchmark model tests: spin ladders and truncated bosonic modes."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gibbsqfi import dsf, families as fam, hilbert as hb, metrics, models

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


class TestSpinBuild:
    def test_half_spin_matrices(self):
        T, S = models.build_model(models.SpinModel(0.5, 1.0))
        assert np.allclose(T.matrix, np.diag([0.5, -0.5]))
        assert np.allclose(S.matrix, np.array([[0, 0.5], [0.5, 0]]))

    def test_spin_one_ladder(self):
        _, S = models.build_model(models.SpinModel(1.0, 1.0))
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = expected[1, 2] = expected[2, 1] = 1 / math.sqrt(2)
        assert np.allclose(S.matrix, expected)

    def test_commutation_relations(self):
        for s in (0.5, 1.0, 1.5, 2.0):
            sx, sy, sz = models.spin_matrices(s)
            assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-13
            casimir = sx @ sx + sy @ sy + sz @ sz
            assert np.allclose(casimir, s * (s + 1) * np.eye(sx.shape[0]), atol=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.5, 20.0, 200.0])
    def test_matches_the_dense_ladder_construction(self, s):
        # (S_+ + S_-)/2 and (S_+ - S_-)/2i from a dense raising operator S_+
        dim = int(round(2 * s)) + 1
        m = s - np.arange(dim)
        sp = np.zeros((dim, dim), dtype=complex)
        sp[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0))
        sm = sp.conj().T
        expected = (0.5 * (sp + sm), -0.5j * (sp - sm), np.diag(m).astype(complex))
        for matrix, reference in zip(models.spin_matrices(s), expected):
            assert np.array_equal(matrix, reference)

    def test_validation(self):
        with pytest.raises(ValueError):
            models.SpinModel(0.3, 1.0)
        with pytest.raises(ValueError):
            models.SpinModel(0.5, -1.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="omega0 must be positive and finite"):
                models.SpinModel(0.5, value)
            with pytest.raises(ValueError, match="half-integer"):
                models.SpinModel(value, 1.0)


class TestSpinRatioProperty:
    def test_half_spin_bures(self):
        report = models.spin_ratio_property(models.SpinModel(0.5, 1.0), fam.BURES)
        assert report.support_ok
        assert report.ratio == pytest.approx(0.9242343145200195, rel=1e-12)
        assert report.ratio_error < 1e-10

    def test_bkm_ratio_is_one(self):
        for s in (0.5, 1.5):
            report = models.spin_ratio_property(models.SpinModel(s, 0.7), fam.BKM)
            assert report.ratio == pytest.approx(1.0, rel=1e-12)

    def test_three_halves_mc(self):
        report = models.spin_ratio_property(models.SpinModel(1.5, 2.0), fam.MC)
        assert report.ratio == pytest.approx(1.3130352854993313, rel=1e-11)

    def test_all_families_all_spins(self):
        for s in (0.5, 1.0, 1.5, 2.0, 3.0):
            for family in FAMILIES:
                report = models.spin_ratio_property(models.SpinModel(s, 1.3), family)
                assert report.support_ok
                assert report.ratio_error < 1e-10

    def test_closed_form_discrepancy_reported(self):
        # the Brillouin closed form overshoots brute force; the report
        # carries the factor rather than asserting agreement
        report = models.spin_ratio_property(models.SpinModel(0.5, 1.0), fam.BKM)
        assert report.closed_over_brute == pytest.approx(8.0, rel=1e-10)


class TestBosonBuild:
    def test_ladder_pattern(self):
        # large omega keeps the Gibbs tail inside the invariant at cutoff 3
        T, S = models.build_model(models.BosonModel(1, 10.0, 3))
        assert S.matrix.shape == (4, 4)
        sub = np.array([S.matrix[n, n + 1] for n in range(3)])
        assert sub == pytest.approx([1.0, math.sqrt(2.0), math.sqrt(3.0)])
        assert np.allclose(T.matrix, np.diag([0.0, 10.0, 20.0, 30.0]))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_drive_holds_the_bits_of_matrix_power(self, k):
        # the drive's one band is multiplied as matrix_power groups its products
        dim = 300
        bk = np.linalg.matrix_power(np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex), k)
        _, S = models.BosonModel(k, 1.0, dim - 1).unit_matrices()
        assert S.matrix.tobytes() == (bk + bk.conj().T).tobytes()

    def test_two_photon_selection_rule(self):
        _, S = models.build_model(models.BosonModel(2, 10.0, 4))
        nz = np.argwhere(np.abs(S.matrix) > 0)
        assert nz.size > 0
        assert np.all(np.abs(nz[:, 0] - nz[:, 1]) == 2)

    def test_tail_invariant(self):
        with pytest.raises(ValueError, match="tail"):
            models.BosonModel(1, 1.0, 20)
        models.BosonModel(1, 1.0, 30)  # just enough at omega = 1

    def test_validation(self):
        with pytest.raises(ValueError):
            models.BosonModel(0, 1.0, 60)
        with pytest.raises(ValueError):
            models.BosonModel(1, -1.0, 60)
        # checked before the Gibbs tail, whose exp(-omega * n) is nan at omega = inf, n = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match="omega must be positive and finite"):
                    models.BosonModel(1, value, 60)


def _dense_band(values, k):
    """The n x n build that the band operators replace: a zero matrix with values written at (n, n + k) and (n + k, n)."""
    dim = values.size + k
    matrix, n = np.zeros((dim, dim), dtype=complex), np.arange(dim - k)
    matrix[n, n + k] = matrix[n + k, n] = values
    return matrix


def _dense_units(model):
    """The unit generator and the observable of a model as dense matrices, by the dense build."""
    if isinstance(model, models.SpinModel):
        m = model.s - np.arange(model.dim)
        return _dense_band(m, 0), _dense_band(0.5 * np.sqrt(model.s * (model.s + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
    n = np.arange(model.dim)
    bk = np.linalg.matrix_power(np.diag(np.sqrt(n[1:]), 1).astype(complex), model.k)
    return _dense_band(n, 0), bk + bk.conj().T


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


BAND_MODELS = [models.SpinModel(s, 0.7) for s in (0.5, 1.0, 3.5, 20.0, 200.0)] + [models.BosonModel(k, 0.9, 60) for k in (1, 2, 3)]


class TestBandOperators:
    """The models' operators hold their band; the pattern, the diagonal and the matrix formed on first read have the bits of the dense build."""

    @staticmethod
    def _assert_holds_the_bits(op, dense):
        rows, cols = np.nonzero(dense)
        flat, n = dense.reshape(-1), dense.shape[0]
        scanned = rows, cols, flat[rows * n + cols], flat[cols * n + rows]
        assert "matrix" not in vars(op) and op.dim == n
        for got, want in zip(op.pattern, scanned, strict=True):
            assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(op.diagonal), _bits(np.diagonal(dense)))
        assert "matrix" not in vars(op) and op.matrix.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("model", BAND_MODELS, ids=lambda m: repr(m))
    def test_unit_matrices(self, model):
        for op, dense in zip(model.unit_matrices(), _dense_units(model), strict=True):
            self._assert_holds_the_bits(op, dense)

    @pytest.mark.parametrize("model", BAND_MODELS, ids=lambda m: repr(m))
    def test_scaled_generator(self, model):
        T, S = models.build_model(model)
        unit, drive = _dense_units(model)
        self._assert_holds_the_bits(T, model.frequency * unit)
        self._assert_holds_the_bits(S, drive)

    def test_scaled_entry_that_underflows_leaves_the_pattern(self):
        # 0.5 * 5e-324 rounds to 0: the dense build holds 0 there, and the pattern drops it
        T, _ = models.build_model(models.SpinModel(1.5, 5e-324))
        self._assert_holds_the_bits(T, 5e-324 * _dense_units(models.SpinModel(1.5, 1.0))[0])
        assert T.pattern[0].tolist() == [0, 3]

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.5, 20.0, 200.0])
    def test_spin_matrices_hold_the_dense_bits(self, s):
        sz, sx = _dense_units(models.SpinModel(s, 1.0))
        half, n = np.diagonal(sx, 1).real, np.arange(sx.shape[-1] - 1)
        sy = np.zeros_like(sx)
        sy[n, n + 1], sy[n + 1, n] = -1j * half, 1j * half
        for got, want in zip(models.spin_matrices(s), (sx, sy, sz), strict=True):
            assert got.tobytes() == want.tobytes()


class TestBosonCorrelators:
    def test_k1_reference_constants(self):
        model = models.BosonModel(1, 1.0, 60)
        K, L = models.boson_correlators(model)
        nbar = 1.0 / math.expm1(1.0)
        assert K == pytest.approx(-1.0, rel=1e-12)
        assert L == pytest.approx(2 * nbar + 1, rel=1e-12)
        assert L == pytest.approx(2.163953413738653, rel=1e-12)

    def test_k1_vacuum_limit(self):
        model = models.BosonModel(1, 30.0, 5)
        _, L = models.boson_correlators(model)
        assert L == pytest.approx(1.0, rel=1e-10)

    def test_band_sums_form_no_dense_matrix(self):
        # cutoff 1000 (dim 1001): the density matrix and the dense products took 112 MB, where one dense complex matrix is 16 MB
        model = models.BosonModel(1, 1.0, 1000)
        tracemalloc.start()
        try:
            K, L = models.boson_correlators(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.dim**2 * np.dtype(complex).itemsize
        assert K == pytest.approx(-1.0, rel=1e-12)
        assert L == pytest.approx(2 * model.nbar + 1, rel=1e-12)

    def test_k2_constants_and_reported_discrepancy(self):
        model = models.BosonModel(2, 1.0, 80)
        report = models.boson_constant_report(model)
        nbar = model.nbar
        assert report.K_numeric == pytest.approx(-2 * (2 * nbar + 1), rel=1e-11)
        assert report.K_deviation < 1e-10
        # the quoted L(2) = 4 nbar^2 disagrees with the trace evaluation
        assert report.L_numeric == pytest.approx(4 * nbar ** 2 + 4 * nbar + 2, rel=1e-11)
        assert report.L_deviation > 1.0


class TestBosonClosedForms:
    def test_k1_bkm_analytic(self):
        model = models.BosonModel(1, 1.0, 60)
        forms = models.boson_closed_forms(model, fam.BKM)
        assert forms.brute == pytest.approx(0.5, rel=1e-10)  # 1/(2 omega)
        assert forms.via_nu1 == pytest.approx(forms.brute, rel=1e-8)
        assert forms.via_nu2 == pytest.approx(forms.brute, rel=1e-8)

    def test_k1_bures_ratio(self):
        model = models.BosonModel(1, 1.0, 60)
        forms = models.boson_closed_forms(model, fam.BURES)
        assert forms.brute == pytest.approx(0.46211715726000974, rel=1e-9)
        assert forms.via_nu1 == pytest.approx(forms.brute, rel=1e-8)

    def test_k2_mc_reduces_to_variance(self):
        model = models.BosonModel(2, 1.0, 80)
        forms = models.boson_closed_forms(model, fam.MC)
        assert forms.via_nu2 == pytest.approx(forms.brute, rel=1e-12)

    def test_k2_all_families(self):
        model = models.BosonModel(2, 1.0, 80)
        for family in FAMILIES:
            forms = models.boson_closed_forms(model, family)
            assert forms.via_nu1 == pytest.approx(forms.brute, rel=1e-6)
            assert forms.via_nu2 == pytest.approx(forms.brute, rel=1e-6)

    def test_general_k_single_frequency_identities(self):
        # nu1/nu2 are exact single-frequency identities for every k even
        # though reference constants are only quoted for k = 1, 2
        model = models.BosonModel(3, 1.0, 80)
        report = models.boson_constant_report(model)
        assert report.K_reference is None and report.L_reference is None
        for family in (fam.BURES, fam.MC, fam.wyd(0.3)):
            forms = models.boson_closed_forms(model, family)
            assert forms.via_nu1 == pytest.approx(forms.brute, rel=1e-10)
            assert forms.via_nu2 == pytest.approx(forms.brute, rel=1e-10)

    def test_cutoff_doubling_stability(self):
        for k in (1, 2):
            a = models.boson_closed_forms(models.BosonModel(k, 1.0, 60), fam.BKM).brute
            b = models.boson_closed_forms(models.BosonModel(k, 1.0, 120), fam.BKM).brute
            assert abs(a - b) < 1e-10

    def test_dsf_support(self):
        for k in (1, 2):
            T, S = models.build_model(models.BosonModel(k, 1.0, 60))
            q = dsf.build_dsf(hb.gibbs_state(T), S)
            assert np.allclose(np.abs(q.omegas), k * 1.0, atol=1e-10)

    def test_single_line_ratio_through_dsf_route(self):
        # on a one-frequency spectrum with <S> = 0, the line-sum metrics
        # are proportional with ratio g_f(omega0/2)
        T, S = models.build_model(models.BosonModel(1, 1.3, 40))
        q = dsf.build_dsf(hb.gibbs_state(T), S)
        base = metrics.metric_from_dsf(q, fam.BKM).value
        for family in FAMILIES:
            ratio = metrics.metric_from_dsf(q, family).value / base
            assert ratio == pytest.approx(fam.eval_g(family, 0.65), rel=1e-11)
