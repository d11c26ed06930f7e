"""Inequality verifier tests: fixtures, random corpora, regime handling."""

import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from gibbsqfi import dsf, families as fam, hilbert as hb, inequalities as ineq, metrics
from gibbsqfi.models import SpinModel, build_model

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


def _gue(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def reference_draw(entropy, dims):
    """The trial (T, S, B, d, p) of one seed stream, one generator call at a time: the block draw's reference.

    The order is dim, spread, (T, S), a dropped generator, B, pair offset d
    and exponent p, with one normal call per real or imaginary part.
    """
    rng = np.random.default_rng(entropy)
    dim = int(rng.choice(dims))
    spread = float(10.0 ** rng.uniform(-1.0, 1.0))
    t = _gue(rng, dim)
    eigs = np.linalg.eigvalsh(t)
    current = float(eigs[-1] - eigs[0])
    if current > 0.0:
        t = t * (spread / current)
    s = _gue(rng, dim)
    _gue(rng, dim)
    b = _gue(rng, dim)
    return t, s, b, float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.5, 1.5))


def block_trials(streams, dims):
    """The trial (T, S, B, d, p) of each stream, in stream order, from the block draw."""
    trials = {}
    for group in ineq._draw_groups(streams, dims):
        for j, i in enumerate(group.members):
            trials[i] = (group.T.matrix[j], group.S.matrix[j], group.B.matrix[j], group.d[j], group.p[j])
    return [trials[i] for i in range(len(streams))]


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
        for d in (-0.1, 1.6, float("nan")):
            with pytest.raises(ValueError, match=re.escape("pair requires d in [0, 3/2]")):
                ineq.geometric_mean_checks(qubit, SX, d)


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

    def test_equal_operators_are_one_observable(self):
        # A = B is decided by the values of the matrices, whether they are held as bands, dense, or the same object
        T, S = build_model(SpinModel(3, 0.7))
        state = hb.gibbs_state(T)
        same = ineq.cauchy_schwarz_cross(state, S, S, fam.BURES, fam.MC)
        assert len(same) == 4
        for B in (build_model(SpinModel(3, 0.7))[1], S.matrix.copy(), hb.as_operator(S.matrix)):
            assert ineq.cauchy_schwarz_cross(state, S, B, fam.BURES, fam.MC) == same
            assert ineq.cauchy_schwarz_cross(state, hb.as_operator(S.matrix), B, fam.BURES, fam.MC) == same
        other = S.matrix.copy()
        other[0, 1] = other[1, 0] = 1.5 * other[0, 1]
        for B in (other, 2.0 * S.matrix, SpinModel(3, 0.7).unit_matrices()[0]):
            assert len(ineq.cauchy_schwarz_cross(state, S, B, fam.BURES, fam.MC)) == 1
        # the other pair routes read one frame for equal operators, with the values of two
        for route in (dsf.bogoliubov_duhamel, dsf.bogoliubov_duhamel_quadrature, lambda *a: metrics.cross_metric(*a, fam.BURES)):
            assert route(state, S, S.matrix.copy()) == route(state, S, S) == route(state, S.matrix, hb.as_operator(S.matrix))

    def test_model_operators_form_no_dense_matrix(self):
        # two held copies of S_x at dim 2001 are compared by their bands; a dense matrix would take 64 MB
        T, S = build_model(SpinModel(1000, 1.0))
        B = build_model(SpinModel(1000, 1.0))[1]
        state = hb.gibbs_state(T)
        tracemalloc.start()
        try:
            reports = ineq.cauchy_schwarz_cross(state, S, B, fam.BURES, fam.MC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 4 and all(report.passed for report in reports)
        assert peak < 4e6 and "matrix" not in vars(S) and "matrix" not in vars(B)


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
            "_chain_traces": counting("chain", dsf._chain_traces),
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
            [group] = ineq._draw_groups(np.random.SeedSequence(dim).spawn(size), (dim,))
            calls.update(eigh=0, rotate=0, assemble=0, chain=0)
            filters.clear()
            checks, in_regime = ineq._group_checks(group)
            assert len(checks) == 24
            assert all(check.lhs.shape == (size,) for check in checks)
            assert in_regime.shape == (size,)
            assert calls == {"eigh": 1, "rotate": 2, "assemble": 0, "chain": 1}
            named = fam.named_families().values()
            fixed = [f for f in filters if f in named]
            assert sorted(f.label for f in fixed) == sorted(f.label for f in named)
            # pair members 1/2 -+ d and the Cauchy-Schwarz pair p, 1 - p:
            # one call each, with one parameter per trial
            per_trial = [f for f in filters if f not in named]
            assert len(per_trial) == 4
            for families in per_trial:
                assert isinstance(families, fam._Stacked)
                assert families.param.shape == (size,)
                assert families.kind == "pdiff"

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            ineq.run_verification_suite(seed=1, trials=0)

    @pytest.mark.parametrize("dims", [(), (0,), (-3,), (2.5,)])
    def test_dims_validation(self, dims):
        with pytest.raises(ValueError, match=r"dims must be a non-empty sequence of integers >= 1"):
            ineq.run_verification_suite(seed=1, trials=3, dims=dims)

    def test_streams_spawned_block_by_block(self, monkeypatch):
        # no spawn holds more than one block of streams, and the streams
        # are those of one up-front spawn, since spawning continues the
        # parent's count
        spawned = []

        class Recording(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(super().spawn(n_children))
                return spawned[-1]

        monkeypatch.setattr(ineq, "_BLOCK", 4)
        trials = 2 * ineq._BLOCK + 3
        reference = np.random.SeedSequence(6).spawn(trials)
        monkeypatch.setattr(np.random, "SeedSequence", Recording)
        ineq.run_verification_suite(seed=6, trials=trials, dims=(2, 3))
        assert max(len(children) for children in spawned) <= ineq._BLOCK
        streams = [child for children in spawned for child in children]
        assert [(s.entropy, s.spawn_key) for s in streams] == [(s.entropy, s.spawn_key) for s in reference]

    def test_multi_block_report(self):
        # recorded by the CLI before trials were spawned block by block:
        # three blocks, the last of 3 trials
        expected = json.loads((Path(__file__).parent / "data" / "verify_seed5_trials4099.json").read_text())
        assert expected["trials"] == 2 * ineq._BLOCK + 3
        assert ineq.run_verification_suite(expected["seed"], expected["trials"]).to_dict() == expected

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
        groups = list(ineq._draw_groups(np.random.SeedSequence(8).spawn(10), (3, 6)))
        assert [group.T.dim for group in groups] == [3, 6]
        for group in groups:
            assert len(group.members) > 1
            checks, _ = ineq._group_checks(group)
            for j in range(len(group.members)):
                rows = {row.name: row for row in (check.report(j) for check in checks)}
                T, S, B, d, p = (group.T.matrix[j], group.S.matrix[j], group.B.matrix[j], group.d[j], group.p[j])
                state = hb.gibbs_state(T)
                expected = [
                    *ineq.chain_check(state, S),
                    *ineq.commutator_bounds(state, S),
                    *ineq.geometric_mean_checks(state, S, d),
                ]
                for f, f_bar in (
                    (fam.BURES, fam.MC),
                    (fam.BURES, fam.HAR),
                    (fam.power_difference(p), fam.power_difference(1.0 - p)),
                ):
                    expected += ineq.cauchy_schwarz_cross(state, S, B, f, f_bar)
                assert len(expected) == 17
                for report in expected:
                    row = rows[report.name]
                    assert row.lhs == pytest.approx(report.lhs, rel=1e-13, abs=0.0)
                    assert row.rhs == pytest.approx(report.rhs, rel=1e-13, abs=0.0)
                    assert row.passed == report.passed
                for sum_rule in dsf.sum_rule_report(state, S, p_max=6):
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
        trials = block_trials(np.random.SeedSequence(3).spawn(12), dims)
        assert len({len(t) for t, *_ in trials}) == 3
        assert not summary.passed
        assert [r.name for r in summary.failures] == ["chain:bures<=wy", "sum_rule:p3"] * 12
        for report, (t, s, *_) in zip(summary.failures[::2], trials):
            bures = ineq.chain_check(hb.gibbs_state(t), s)[0].lhs
            assert report.lhs == pytest.approx(bures, rel=1e-13, abs=0.0)

    def test_per_trial_labels_keep_their_text(self, monkeypatch):
        # every check fails, so every per-trial label is built from the
        # stacked parameters, in the text of the single-instance verifiers
        class Failing(ineq._Check):
            def __init__(self, name, lhs, rhs, tolerance=None):
                super().__init__(name, lhs, np.asarray(lhs) - 1.0, tolerance)

        monkeypatch.setattr(ineq, "_Check", Failing)
        dims = (3, 5)
        streams = np.random.SeedSequence(5).spawn(6)
        names = {r.name for r in ineq.run_verification_suite(seed=5, trials=6, dims=dims).failures}
        for _, _, _, d, p in block_trials(streams, dims):
            assert {f"geo<=geomean(pair:{d:g})", f"cs:pdiff:{p:g},pdiff:{1.0 - p:g}->geometric"} <= names
        # the labels of given parameters; the classical bounds are checked
        # only when A = B, as in cauchy_schwarz_cross(state, A, A, ...)
        [group] = ineq._draw_groups(streams[:2], (4,))
        checks, _ = ineq._group_checks(group._replace(d=np.array([0.25, 1.5]), p=np.array([0.7, 1.25])))
        labels = [{check.report(j).name for check in checks} for j in (0, 1)]
        assert {"geo<=geomean(pair:0.25)", "cs:pdiff:0.7,pdiff:0.3->geometric"} <= labels[0]
        assert {"geo<=geomean(pair:1.5)", "cs:pdiff:1.25,pdiff:-0.25->geometric"} <= labels[1]
        frame = dsf._Frame(hb._scaled_state(hb.eigendecompose(group.T), group.T.matrix, 1.0), group.S)
        p = np.array([0.7, 1.25])
        stacks = fam._Stacked("pdiff", p), fam._Stacked("pdiff", 1.0 - p)
        checks = ineq._cauchy_schwarz_checks(frame, frame, *stacks, ineq._filters(frame))
        assert [check.report(0).name for check in checks] == [
            "cs:pdiff:0.7,pdiff:0.3->geometric",
            "classical_bound:pdiff:0.7",
            "classical_bound:pdiff:0.3",
            "cross_bures<=cross_bkm",
        ]
        assert checks[2].report(1).name == "classical_bound:pdiff:-0.25"

    def test_crossings_only_out_of_regime(self):
        summary = ineq.run_verification_suite(seed=77, trials=150)
        # in-regime violations would land in failures; crossings are the
        # out-of-regime reversals of the geometric/MC link
        assert summary.passed
        assert summary.gm_link_crossings <= summary.gm_link_out_of_regime


class TestBlockDraw:
    @pytest.mark.parametrize("seed", [*range(32), 42])
    @pytest.mark.parametrize("dims", [(2, 3, 4, 5, 6, 7, 8), (5,), (2, 8)], ids=["dims2-8", "dim5", "dims2,8"])
    def test_matches_the_trial_by_trial_draw(self, seed, dims):
        streams = np.random.SeedSequence(seed).spawn(300)
        groups = list(ineq._draw_groups(streams, dims))
        assert [group.T.dim for group in groups] == sorted(set(dims))
        assert sorted(i for group in groups for i in group.members) == list(range(300))
        for trial, expected in zip(block_trials(streams, dims), (reference_draw(stream, dims) for stream in streams)):
            for got, want in zip(trial[:3], expected[:3]):
                assert np.array_equal(got, want)
            assert trial[3:] == expected[3:]


class TestRandomInstance:
    def test_spread_control(self):
        rng = np.random.default_rng(5)
        t, s = ineq.random_instance(rng, 6, spread=3.0)
        eigs = np.linalg.eigvalsh(t.matrix)
        assert eigs[-1] - eigs[0] == pytest.approx(3.0, rel=1e-12)
        assert s.dim == 6

    def test_empty_dimension_raises(self):
        with pytest.raises(ValueError, match="dim >= 1, got 0"):
            ineq.random_instance(np.random.default_rng(0), 0)

    @pytest.mark.parametrize("spread", [math.inf, math.nan])
    def test_non_finite_spread_raises_without_warning(self, spread):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                ineq.random_instance(np.random.default_rng(0), 4, spread=spread)

    def test_spread_range_when_unset(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t, _ = ineq.random_instance(rng, 4)
            eigs = np.linalg.eigvalsh(t.matrix)
            assert 0.1 - 1e-9 <= eigs[-1] - eigs[0] <= 10.0 + 1e-9
