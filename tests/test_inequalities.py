"""Inequality verifier tests: fixtures, random corpora, regime handling."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from gibbsqfi import dsf, families as fam, hilbert as hb, inequalities as ineq, metrics

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

D2_QUBIT = {
    "bures": 0.21355226703407259,
    "wy": 0.22636223205985218,
    "bkm": 0.23105857863000487,
    "geometric": 0.24080708123630688,
    "mc": 0.25,
    "har": 0.27154031740762189,
}


@pytest.fixture
def qubit():
    return hb.gibbs_state(np.diag([0.0, 1.0]).astype(complex))


class TestChainCheck:
    def test_qubit_values_and_passes(self, qubit):
        reports = ineq.chain_check(qubit, SX)
        assert len(reports) == 5
        order = ["bures", "wy", "bkm", "geometric", "mc", "har"]
        for report, (a, b) in zip(reports, zip(order, order[1:])):
            assert report.name == f"chain:{a}<={b}"
            assert report.lhs == pytest.approx(D2_QUBIT[a], rel=1e-11)
            assert report.rhs == pytest.approx(D2_QUBIT[b], rel=1e-11)
            assert report.passed

    def test_commuting_all_equal(self, qubit):
        reports = ineq.chain_check(qubit, SZ)
        for report in reports:
            assert report.slack == pytest.approx(0.0, abs=1e-14)
            assert report.passed

    def test_report_invariant(self, qubit):
        for report in ineq.chain_check(qubit, SX):
            assert report.passed == (report.slack >= -report.tolerance)
            assert report.slack == report.rhs - report.lhs

    def test_equal_infinite_routes_agree_without_warning(self):
        # at spread 1000 both HAR routes overflow to inf; the geometric <= MC
        # link is far outside its regime there and fails honestly
        T, S = ineq.random_instance(np.random.default_rng(1), 6, spread=1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = ineq.chain_check(hb.gibbs_state(T), S)
        assert reports[-1].name == "chain:mc<=har"
        assert reports[-1].rhs == math.inf and reports[-1].passed


class TestCommutatorBounds:
    def test_qubit_values(self, qubit):
        reports = {r.name: r for r in ineq.commutator_bounds(qubit, SX)}
        gap = reports["mc_minus_bkm:bound"]
        assert gap.lhs == pytest.approx(0.01894142136999512, rel=1e-10)
        assert gap.rhs == pytest.approx(0.019254881552500407, rel=1e-10)
        assert all(r.passed for r in reports.values())
        assert len(reports) == 6

    def test_bound_matches_double_commutator_mean(self):
        # C = <[[S, T], S]> in its first form: R_1 = [T, S], the
        # commutator with S and a thermal average
        rng = np.random.default_rng(31)
        for dim in (2, 3, 5, 8, 10):
            T, S = ineq.random_instance(rng, dim)
            state = hb.gibbs_state(T)
            r1 = T.matrix @ S.matrix - S.matrix @ T.matrix
            double = hb.HermitianOperator(S.matrix @ r1 - r1 @ S.matrix)
            reference = hb.thermal_average(state, double)
            reports = {r.name: r for r in ineq.commutator_bounds(state, S)}
            assert 48.0 * reports["mc_minus_bkm:bound"].rhs == pytest.approx(reference, rel=1e-13)
            assert 24.0 * reports["mc_minus_bures:bound"].rhs == pytest.approx(reference, rel=1e-13)

    def test_commuting_degenerates_to_zero(self, qubit):
        for report in ineq.commutator_bounds(qubit, SZ):
            assert report.lhs == pytest.approx(0.0, abs=1e-14)
            assert report.rhs == pytest.approx(0.0, abs=1e-14)
            assert report.passed


class TestGeometricMeanChecks:
    def test_qubit_tightness(self, qubit):
        reports = ineq.geometric_mean_checks(qubit, SX, 0.4)
        # single-frequency spectra make these equalities up to roundoff
        for report in reports:
            assert report.passed
            assert abs(report.slack) < 1e-12

    def test_multifrequency_strict(self):
        rng = np.random.default_rng(40)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        state = hb.gibbs_state(0.5 * (g + g.conj().T))
        s = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        s = hb.HermitianOperator(0.5 * (s + s.conj().T))
        for report in ineq.geometric_mean_checks(state, s, 0.9):
            assert report.passed
            assert report.slack > 0.0

    def test_offset_domain(self, qubit):
        with pytest.raises(ValueError):
            ineq.geometric_mean_checks(qubit, SX, 1.6)


class TestCauchySchwarzCross:
    def test_equal_arguments_reduce(self, qubit):
        reports = ineq.cauchy_schwarz_cross(qubit, SX, SX, fam.BURES, fam.MC)
        names = [r.name for r in reports]
        assert names[0] == "cs:bures,mc->bkm"
        assert "cross_bures<=cross_bkm" in names
        assert any(n.startswith("classical_bound") for n in names)
        assert all(r.passed for r in reports)

    def test_random_pairs(self):
        rng = np.random.default_rng(50)
        for _ in range(60):
            dim = int(rng.integers(3, 7))
            t, a = ineq.random_instance(rng, dim)
            _, b = ineq.random_instance(rng, dim, spread=1.0)
            state = hb.gibbs_state(t)
            for f, f_bar in [
                (fam.BURES, fam.MC),
                (fam.BURES, fam.HAR),
                (fam.power_difference(1.2), fam.power_difference(-0.2)),
            ]:
                for report in ineq.cauchy_schwarz_cross(state, a, b, f, f_bar):
                    assert report.passed, report

    def test_unsupported_pair(self, qubit):
        with pytest.raises(ValueError, match="no catalog family"):
            ineq.cauchy_schwarz_cross(qubit, SX, SX, fam.MC, fam.HAR)


class TestGeometricMcCrossover:
    def test_constant_against_root_finder(self):
        with mpmath.workdps(30):
            root = mpmath.findroot(
                lambda x: 2 * mpmath.log(mpmath.sinh(x)) - 2 * mpmath.log(x) - mpmath.log(mpmath.cosh(x)),
                2.7,
            )
        assert ineq.GEOMETRIC_MC_CROSSOVER == pytest.approx(float(root), rel=1e-13)

    def test_counterexample_beyond_crossover(self):
        # two-level splitting 10: the printed geometric <= MC link reverses
        state = hb.gibbs_state(np.diag([0.0, 10.0]).astype(complex))
        d2_g = metrics.metric_spectral(state, SX, fam.GEOMETRIC).value
        d2_mc = metrics.metric_spectral(state, SX, fam.MC).value
        assert d2_g > d2_mc
        assert d2_mc == pytest.approx(0.25, rel=1e-12)
        report = {r.name: r for r in ineq.chain_check(state, SX)}["chain:geometric<=mc"]
        assert not report.passed

    def test_holds_inside_regime(self):
        rng = np.random.default_rng(60)
        for _ in range(40):
            dim = int(rng.integers(2, 7))
            t, s = ineq.random_instance(rng, dim, spread=float(rng.uniform(0.1, 5.0)))
            state = hb.gibbs_state(t)
            report = {r.name: r for r in ineq.chain_check(state, s)}["chain:geometric<=mc"]
            assert report.passed


class TestVerificationSuite:
    def test_random_corpus_clean(self):
        summary = ineq.run_verification_suite(seed=123, trials=200)
        assert summary.passed
        assert summary.failures == []
        assert summary.trials == 200
        assert summary.checks > 200 * 20

    def test_determinism(self):
        a = ineq.run_verification_suite(seed=9, trials=25)
        b = ineq.run_verification_suite(seed=9, trials=25)
        assert a.to_dict() == b.to_dict()

    def test_one_frame_per_group(self, monkeypatch):
        # a dim group shares one stacked eigh, one rotation each for S and
        # B and one commutator chain (C and the sum rules); each fixed
        # family's filter is evaluated once for the group, each per-trial
        # power-difference family once per trial, and no structure factor,
        # cross or diagonal, is assembled
        calls = {"eigh": 0, "rotate": 0, "assemble": 0, "chain": 0}
        filters = []

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        patched = {
            "to_eigenbasis": counting("rotate", hb.to_eigenbasis),
            "_assemble": counting("assemble", dsf._assemble),
            "commutator_moments": counting("chain", dsf.commutator_moments),
        }
        for module in (hb, dsf, metrics, ineq):
            for name, wrapper in patched.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        log_g = fam._log_g

        def recording(family, x):
            filters.append(family)
            return log_g(family, x)

        monkeypatch.setattr(fam, "_log_g", recording)
        for dim, size in ((2, 1), (5, 4), (8, 3)):
            trials = [ineq._draw(stream, (dim,)) for stream in np.random.SeedSequence(dim).spawn(size)]
            calls.update(eigh=0, rotate=0, assemble=0, chain=0)
            filters.clear()
            checks, in_regime = ineq._group_checks(trials)
            assert len(checks) == 24
            assert all(check.lhs.shape == (size,) for check in checks)
            assert in_regime.shape == (size,)
            assert calls == {"eigh": 1, "rotate": 2, "assemble": 0, "chain": 1}
            named = fam.named_families().values()
            fixed = [f for f in filters if f in named]
            assert sorted(f.label for f in fixed) == sorted(f.label for f in named)
            # pair members 1/2 -+ d and the Cauchy-Schwarz pair p, 1 - p:
            # one call each, with one family per trial
            per_trial = [f for f in filters if f not in named]
            assert len(per_trial) == 4
            for families in per_trial:
                families = families if isinstance(families, tuple) else (families,)
                assert len(families) == size
                assert all(f.kind == "pdiff" for f in families)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            ineq.run_verification_suite(seed=1, trials=0)

    @pytest.mark.parametrize(
        "seed, out_of_regime, crossings", [(0, 137, 80), (42, 147, 86)]
    )
    def test_golden_reports(self, seed, out_of_regime, crossings):
        # recorded with the trial-by-trial suite that preceded the dim groups
        expected = {
            "seed": seed,
            "trials": 1000,
            "checks": 24000,
            "failures": [],
            "passed": True,
            "gm_link_out_of_regime": out_of_regime,
            "gm_link_crossings": crossings,
        }
        assert ineq.run_verification_suite(seed, 1000).to_dict() == expected

    def test_group_rows_match_public_verifiers(self):
        trials = [ineq._draw(stream, (3, 6)) for stream in np.random.SeedSequence(8).spawn(10)]
        for dim in (3, 6):
            group = [t for t in trials if len(t.T) == dim]
            assert len(group) > 1
            checks, _ = ineq._group_checks(group)
            for j, t in enumerate(group):
                rows = {row.name: row for row in (check.report(j) for check in checks)}
                state = hb.gibbs_state(t.T)
                expected = [
                    *ineq.chain_check(state, t.S),
                    *ineq.commutator_bounds(state, t.S),
                    *ineq.geometric_mean_checks(state, t.S, t.d),
                ]
                for f, f_bar in (
                    (fam.BURES, fam.MC),
                    (fam.BURES, fam.HAR),
                    (fam.power_difference(t.p), fam.power_difference(1.0 - t.p)),
                ):
                    expected += ineq.cauchy_schwarz_cross(state, t.S, t.B, f, f_bar)
                assert len(expected) == 17
                for report in expected:
                    row = rows[report.name]
                    assert row.lhs == pytest.approx(report.lhs, rel=1e-13, abs=0.0)
                    assert row.rhs == pytest.approx(report.rhs, rel=1e-13, abs=0.0)
                    assert row.passed == report.passed
                for sum_rule in dsf.sum_rule_report(state, t.S, p_max=6):
                    assert rows[f"sum_rule:p{sum_rule.p}"].lhs == pytest.approx(sum_rule.rel_error, abs=1e-15)

    def test_bad_eigendecomposition_in_a_stack_raises(self, monkeypatch):
        eigh = np.linalg.eigh

        def corrupting(a, *args, **kwargs):
            vals, vecs = eigh(a, *args, **kwargs)
            if vals.ndim == 2 and vals.shape[0] > 1:
                vals = vals.copy()
                vals[1, 0] += 1e-3
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", corrupting)
        with pytest.raises(ArithmeticError, match=r"residual .* \(matrix 1 of the stack\)"):
            ineq.run_verification_suite(seed=4, trials=30)

    def test_route_disagreement_in_one_trial_raises(self, monkeypatch):
        log_f = fam._log_f

        def skewed(family, u):
            # c_f = 1/(x f) times 1.001 in the third trial
            out = log_f(family, u)
            if family == fam.HAR and np.ndim(out) == 2 and out.shape[0] > 2:
                out = out.copy()
                out[2] -= math.log(1.001)
            return out

        monkeypatch.setattr(fam, "_log_f", skewed)
        with pytest.raises(ArithmeticError, match="metric routes disagree for har"):
            ineq.run_verification_suite(seed=4, trials=30)

    def test_infinite_route_against_a_finite_one_raises(self, monkeypatch):
        oracle_value = ineq._oracle_value

        def overflowing(frame, family):
            # the HAR oracle reads inf in the third trial, the spectral route stays finite
            out = oracle_value(frame, family)
            if family == fam.HAR and np.ndim(out) == 1 and out.shape[0] > 2:
                out = out.copy()
                out[2] = math.inf
            return out

        monkeypatch.setattr(ineq, "_oracle_value", overflowing)
        with pytest.raises(ArithmeticError, match=r"metric routes disagree for har: .* vs inf"):
            ineq.run_verification_suite(seed=4, trials=30)

    def test_failures_in_trial_then_report_order(self, monkeypatch):
        failing = {"chain:bures<=wy", "sum_rule:p3"}

        class Failing(ineq._Check):
            def __init__(self, name, lhs, rhs, tolerance=None):
                if name in failing:
                    rhs = np.asarray(lhs) - 1.0
                super().__init__(name, lhs, rhs, tolerance)

        monkeypatch.setattr(ineq, "_Check", Failing)
        monkeypatch.setattr(ineq, "_BLOCK", 5)  # three blocks
        dims = (2, 4, 7)
        summary = ineq.run_verification_suite(seed=3, trials=12, dims=dims)
        trials = [ineq._draw(stream, dims) for stream in np.random.SeedSequence(3).spawn(12)]
        assert len({len(t.T) for t in trials}) == 3
        assert not summary.passed
        assert [r.name for r in summary.failures] == ["chain:bures<=wy", "sum_rule:p3"] * 12
        for report, t in zip(summary.failures[::2], trials):
            bures = ineq.chain_check(hb.gibbs_state(t.T), t.S)[0].lhs
            assert report.lhs == pytest.approx(bures, rel=1e-13, abs=0.0)

    def test_crossings_only_out_of_regime(self):
        summary = ineq.run_verification_suite(seed=77, trials=150)
        # in-regime violations would land in failures; crossings are the
        # out-of-regime reversals of the geometric/MC link
        assert summary.passed
        assert summary.gm_link_crossings <= summary.gm_link_out_of_regime


class TestRandomInstance:
    def test_spread_control(self):
        rng = np.random.default_rng(5)
        t, s = ineq.random_instance(rng, 6, spread=3.0)
        eigs = np.linalg.eigvalsh(t.matrix)
        assert eigs[-1] - eigs[0] == pytest.approx(3.0, rel=1e-12)
        assert s.dim == 6

    def test_spread_range_when_unset(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t, _ = ineq.random_instance(rng, 4)
            eigs = np.linalg.eigvalsh(t.matrix)
            assert 0.1 - 1e-9 <= eigs[-1] - eigs[0] <= 10.0 + 1e-9
