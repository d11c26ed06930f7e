"""Line spectrum, moments, functionals and Duhamel product tests."""

import builtins
import csv
import functools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gibbsqfi import cli, dsf, inequalities, metrics, skew
from gibbsqfi import families as fam
from gibbsqfi import hilbert as hb
from gibbsqfi.cli import main
from gibbsqfi.inequalities import random_instance as gue_instance
from gibbsqfi.models import BosonModel, SpinModel, build_model

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

RHO1 = 0.7310585786300049
RHO2 = 0.2689414213699951
F0_QUBIT = 0.9242343145200195  # 2 tanh(1/2)


@pytest.fixture
def qubit():
    return hb.gibbs_state(np.diag([0.0, 1.0]).astype(complex))


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_instance(seed, dim):
    rng = np.random.default_rng(seed)
    return hb.gibbs_state(random_hermitian(rng, dim)), hb.HermitianOperator(
        random_hermitian(rng, dim)
    )


def build_cross_dsf(state, A, B):
    """Cross spectrum with weights <n|dA|m><m|dB|n> rho_m for Hermitian A, B: the lines behind cross_metric.

    Detailed balance holds pair by pair with a conjugate: the line at -w
    weighs e^{-w} times the conjugate of the one at w.
    """
    frame_a, frame_b = dsf._frame_pair(state, A, B)
    (a_down, a_up), (b_down, b_up) = frame_a.table.elements, frame_b.table.elements
    w_rows, w_cols = frame_a.pair_weights
    # pair (n, m): <n|dA|m> <m|dB|n> rho_m at omega_nm and its partner at -omega_nm
    positive, negative = a_down * b_up * w_cols, a_up * b_down * w_rows
    diagonal = (frame_a.table.diagonal - frame_a.mean) * (frame_b.table.diagonal - frame_b.mean) * state.weights
    floor = 16 * np.finfo(float).eps * float(np.sqrt(frame_a.table.peak * frame_b.table.peak))
    omega = 2.0 * frame_a.x
    slack = np.abs(negative - np.exp(-omega) * np.conj(positive)) - 1e-12 * np.abs(positive) - floor
    assert not np.any((omega > dsf._MERGE_TOL) & (slack > 0.0)), "cross lines violate detailed balance"
    # lines closer than _MERGE_TOL merge at their mean frequency; a line
    # goes when |q| e^{max(0, -w)} is 0 or below _PRUNE_REL of the largest
    om = np.concatenate((omega, -omega, np.zeros(state.dim)))[frame_a.table.order]
    wt = np.concatenate((positive, negative, diagonal))[frame_a.table.order]
    starts = np.concatenate(([0], np.nonzero(np.diff(om) > dsf._MERGE_TOL)[0] + 1))
    om = np.add.reduceat(om, starts) / np.diff(np.append(starts, om.size))
    wt = np.add.reduceat(wt, starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        importance = np.log(np.abs(wt)) + np.maximum(0.0, -om)
        keep = importance - np.max(importance) >= np.log(dsf._PRUNE_REL)
    return dsf.LineSpectrum(om[keep], wt[keep], "cross", state.dim, 0.0)


class TestBuildDsf:
    def test_qubit_lines(self, qubit):
        q = dsf.build_dsf(qubit, SX)
        assert q.omegas == pytest.approx([-1.0, 1.0])
        assert q.weights == pytest.approx([RHO2, RHO1], rel=1e-14)
        assert q.mean_s == pytest.approx(0.0, abs=1e-15)
        assert q.kind == "diagonal"

    def test_commuting_elastic_only(self, qubit):
        q = dsf.build_dsf(qubit, SZ)
        assert q.omegas == pytest.approx([0.0])
        assert q.weights == pytest.approx([1.0])  # <S^2> for sigma_z

    def test_boson_single_mode_weights(self):
        # brute-force oracle: truncated geometric weights, ladder elements
        cutoff = 60
        omega = 1.0
        n = np.arange(cutoff + 1)
        w = np.exp(-omega * n)
        w /= w.sum()
        up = float(np.sum(w * (n + 1.0)))  # nbar + 1 up to truncation
        down = float(np.sum(w[1:] * n[1:]))  # nbar
        t = np.diag(omega * n).astype(complex)
        b = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        b[n[:-1], n[1:]] = np.sqrt(n[1:])
        s = b + b.conj().T
        q = dsf.build_dsf(hb.gibbs_state(t), s)
        assert q.omegas == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert q.weights == pytest.approx([down, up], rel=1e-12)
        nbar = 1.0 / math.expm1(omega)
        assert up == pytest.approx(nbar + 1.0, rel=1e-12)
        assert down == pytest.approx(nbar, rel=1e-12)

    def test_centered_removes_mean(self, qubit):
        q = dsf.build_dsf(qubit, SZ, centered=True)
        mean = RHO1 - RHO2
        assert q.mean_s == 0.0
        assert q.weights == pytest.approx([1.0 - mean ** 2], rel=1e-12)

    def test_detailed_balance_holds(self):
        state, s = random_instance(17, 6)
        q = dsf.build_dsf(state, s)
        for i, om in enumerate(q.omegas):
            if om <= 1e-12:
                continue
            j = np.argmin(np.abs(q.omegas + om))
            assert q.weights[j] == pytest.approx(
                math.exp(-om) * q.weights[i], rel=1e-11, abs=1e-25
            )

    def test_prerotated_observable(self):
        # build_dsf is the spectrum of a frame's pre-rotated elements
        state, s = random_instance(21, 5)
        frame = dsf._Frame(state, s)
        direct, [((), given)] = dsf.build_dsf(state, s), dsf._assemble(frame, False)
        assert np.array_equal(direct.omegas, given.omegas)
        assert np.array_equal(direct.weights, given.weights)
        assert direct.mean_s == given.mean_s == frame.mean
        centered, [((), given)] = dsf.build_dsf(state, s, centered=True), frame.centered_dsfs
        assert np.array_equal(centered.omegas, given.omegas) and np.array_equal(centered.weights, given.weights)
        assert frame.centered_dsfs[0][1] is given

    def test_unbalanced_rotated_input_rejected(self, qubit):
        # |S_01| != |S_10|: elements that are not Hermitian are caught by
        # the detailed-balance check of the line-spectrum helper
        s_eig = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
        [table] = dsf._pair_tables(qubit.decomposition, hb.HermitianOperator._trusted(s_eig))
        with pytest.raises(ArithmeticError, match="detailed balance"):
            dsf._assemble(dsf._Frame(qubit, SX, table=table), False)

    def test_violating_input_rejected(self):
        # the line at omega = -1 must weigh e^{-1} times its partner at +1
        with pytest.raises(ArithmeticError, match="detailed balance"):
            dsf._check_pair_balance(np.array([1.0]), np.array([0.5]), np.array([0.5]), 0.0)

    def test_near_equal_frequencies_keep_balance(self):
        # a symmetric tridiagonal T has many Bohr frequencies within 1e-12
        # of each other, which merge into different groups at w and -w;
        # balance is checked on the pairs before they are merged
        n = 60
        t = np.diag(np.linspace(0.0, 3.0, n)) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
        s = np.eye(n, k=1) + np.eye(n, k=-1) + np.diag(np.linspace(-1.0, 1.0, n))
        state = hb.gibbs_state(t)
        spectrum = dsf.build_dsf(state, s)
        for family in (fam.BKM, fam.MC, fam.BURES):
            oracle = metrics.metric_mc_oracle(state, s, family).value
            assert metrics.metric_from_dsf(spectrum, family).value == pytest.approx(oracle, rel=1e-10)


class TestCrossDsf:
    def test_reduces_to_diagonal(self, qubit):
        q_cross = build_cross_dsf(qubit, SX, SX)
        q_diag = dsf.build_dsf(qubit, SX, centered=True)
        assert q_cross.omegas == pytest.approx(q_diag.omegas)
        assert np.allclose(q_cross.weights.real, q_diag.weights, rtol=1e-13)
        assert np.allclose(q_cross.weights.imag, 0.0, atol=1e-16)

    def test_sigma_x_sigma_y_imaginary(self, qubit):
        q = build_cross_dsf(qubit, SX, SY)
        assert q.omegas == pytest.approx([-1.0, 1.0])
        assert np.allclose(q.weights.real, 0.0, atol=1e-16)
        assert sorted(np.abs(q.weights.imag)) == pytest.approx([RHO2, RHO1], rel=1e-13)

    def test_identity_observable_empty(self, qubit):
        q = build_cross_dsf(qubit, SX, np.eye(2, dtype=complex))
        assert q.omegas.size == 0
        assert np.sum(q.weights) == 0


class TestMoments:
    def test_qubit_first_moment(self, qubit):
        q = dsf.build_dsf(qubit, SX)
        assert dsf.moment(q, 1) == pytest.approx(RHO1 - RHO2, rel=1e-13)

    def test_zeroth_is_total_weight(self, qubit):
        q = dsf.build_dsf(qubit, SX)
        assert dsf.moment(q, 0) == pytest.approx(1.0, rel=1e-13)
        # elastic line participates through 0^0 = 1
        qz = dsf.build_dsf(qubit, SZ)
        assert dsf.moment(qz, 0) == pytest.approx(1.0, rel=1e-13)

    def test_inverse_moment(self, qubit):
        q = dsf.build_dsf(qubit, SX)
        assert dsf.moment(q, -1) == pytest.approx(RHO1 - RHO2, rel=1e-13)

    def test_inverse_moment_diverges_on_elastic(self, qubit):
        q = dsf.build_dsf(qubit, SZ)
        with pytest.raises(ZeroDivisionError, match="elastic"):
            dsf.moment(q, -1)

    def test_cross_rejected(self, qubit):
        q = build_cross_dsf(qubit, SX, SY)
        with pytest.raises(ValueError):
            dsf.moment(q, 1)


    def test_commutator_moments_match_line_moments(self):
        for seed in (3, 4):
            state, s = random_instance(seed, 6)
            q = dsf.build_dsf(state, s)
            algebraic = dsf.commutator_moments(state, s, 7)
            assert len(algebraic) == 8
            for p, value in enumerate(algebraic):
                assert value == pytest.approx(dsf.moment(q, p), rel=1e-10, abs=1e-12)


class TestFunctionalF:
    def test_qubit_f2(self, qubit):
        assert dsf.functional_F(qubit, SX, 2) == pytest.approx(F0_QUBIT, rel=1e-13)

    def test_qubit_f1(self, qubit):
        assert dsf.functional_F(qubit, SX, 1) == pytest.approx(2.0, rel=1e-13)

    def test_qubit_f0(self, qubit):
        assert dsf.functional_F(qubit, SX, 0) == pytest.approx(F0_QUBIT, rel=1e-13)

    def test_commuting_vanishes(self, qubit):
        for p in (2, 3, 6):
            assert dsf.functional_F(qubit, SZ, p) == pytest.approx(0.0, abs=1e-14)

    def test_negative_p_rejected(self, qubit):
        with pytest.raises(ValueError):
            dsf.functional_F(qubit, SX, -1)


def _reference_functional(state, S, p):
    """F_p in its first form: the Duhamel product at p = 0, and
    2 M_{p-1} from the all-dense chain."""
    if p == 0:
        return dsf.bogoliubov_duhamel(state, S, S)
    return 2.0 * _dense_chain(state.generator, S, state.rho_matrix(), p - 1)[p - 1]


def _reference_rows(state, S, p_max):
    """(functional, moment_doubled) of sum_rule_report in its first form:
    the off-diagonal part rotated back to the original basis for p = 0."""
    U = state.decomposition.eigenvectors
    s_eig = hb.to_eigenbasis(state, S)
    s_off = U @ (s_eig - np.diag(np.diag(s_eig))) @ U.conj().T
    q, q_off = dsf.build_dsf(state, S), dsf.build_dsf(state, s_off)
    rows = [(_reference_functional(state, s_off, 0), 2.0 * dsf.moment(q_off, -1))]
    for p in range(1, p_max + 1):
        rows.append((_reference_functional(state, S, p), 2.0 * dsf.moment(q, p - 1)))
    return rows


def gue_corpus():
    """30 seeded GUE (state, S) pairs of dims 2-10, spreads 0.1-10."""
    rng = np.random.default_rng(2718)
    corpus = []
    for i in range(30):
        T, S = gue_instance(rng, 2 + i % 9)
        corpus.append((hb.gibbs_state(T), S))
    return corpus


class TestSharedChain:
    """functional_F and sum_rule_report read one commutator chain and
    match the first form of the functional to 1e-13 relative."""

    def test_functional_matches_first_form(self):
        for state, s in gue_corpus():
            for p in range(8):
                assert dsf.functional_F(state, s, p) == pytest.approx(
                    _reference_functional(state, s, p), rel=1e-13, abs=0.0
                )

    def test_report_rows_match_first_form(self):
        for state, s in gue_corpus():
            rows = dsf.sum_rule_report(state, s, p_max=7)
            assert [row.p for row in rows] == list(range(8))
            for row, (functional, doubled) in zip(rows, _reference_rows(state, s, 7)):
                assert row.functional == pytest.approx(functional, rel=1e-13, abs=0.0)
                assert row.moment_doubled == pytest.approx(doubled, rel=1e-13, abs=0.0)

    def test_report_rotates_s_once(self, monkeypatch):
        state, s = random_instance(8, 6)
        calls, rotate = [], hb.to_eigenbasis

        def counting(*args, **kwargs):
            calls.append(args)
            return rotate(*args, **kwargs)

        monkeypatch.setattr(dsf, "to_eigenbasis", counting)
        monkeypatch.setattr(hb, "to_eigenbasis", counting)
        assert len(dsf.sum_rule_report(state, s, p_max=6)) == 7
        assert len(calls) == 1


def _dense_chain(T, S, rho, order):
    """M_q = (-1)^q tr(R_q S rho), q = 0..order, with dense products only."""
    T, S = hb.as_operator(T).matrix, hb.as_operator(S).matrix
    R, P = S, S @ rho
    moments = []
    for q in range(order + 1):
        if q > 0:
            R = T @ R - R @ T
        moments.append((-1.0) ** q * np.einsum("ij,ji->", R, P).real)
    return moments


def _forbid_scipy(monkeypatch):
    """Make any import of scipy or of a scipy module fail from here on."""
    real_import = builtins.__import__

    def guarded(name, *args, **kwargs):
        if name.split(".")[0] == "scipy":
            raise AssertionError(f"the chain imported {name}")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", guarded)


def _tridiagonal(rng, dim):
    return np.triu(np.tril(random_hermitian(rng, dim), 1), -1)


class TestSparseChain:
    """A diagonal generator keeps the chain at the entries S couples, any
    other runs dense, neither imports scipy.sparse, and every chain gives
    the moments of the all-dense chain to 1e-13 relative."""

    def test_diagonal_generator_stays_sparse(self, monkeypatch):
        # R_q[i, j] = t_i R - R t_j at the nonzero entries of S
        T, S = build_model(SpinModel(30.0, 1.0))
        state = hb.gibbs_state(0.4 * T.matrix)
        _forbid_scipy(monkeypatch)
        moments = dsf.commutator_moments(state, S, 12)
        reference = _dense_chain(state.generator, S, state.rho_matrix(), 12)
        assert moments == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_banded_chain_from_matrix_files_crosses_to_dense(self, tmp_path, monkeypatch):
        # R_q of a tridiagonal T and S has half-bandwidth q + 1; the chain
        # of this non-diagonal generator runs on dense arrays
        rng = np.random.default_rng(60)
        T, S = _tridiagonal(rng, 60), _tridiagonal(rng, 60)
        hb.write_operator_json(T, tmp_path / "T.json")
        hb.write_operator_json(S, tmp_path / "S.json")
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "beta": 0.5,
            "families": ["bkm"],
        }))
        out = tmp_path / "moments.csv"
        _forbid_scipy(monkeypatch)
        argv = ["moments", "--config", str(config), "--pmax", "14", "--out", str(out)]
        assert main(argv) == 0
        T_read, _ = hb.read_operator_json(tmp_path / "T.json")
        S_read, _ = hb.read_operator_json(tmp_path / "S.json")
        state = hb.gibbs_state(0.5 * T_read.matrix)
        reference = _dense_chain(state.generator, S_read, state.rho_matrix(), 13)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        functionals = [float(row["functional"]) for row in rows[1:]]
        assert functionals == pytest.approx([2.0 * m for m in reference], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("build", [
        lambda: build_model(SpinModel(20.0, 0.7)),
        lambda: build_model(BosonModel(1, 0.8, 40)),
        lambda: build_model(BosonModel(2, 0.9, 40)),
    ], ids=["spin", "boson-k1", "boson-k2"])
    def test_diagonal_generator_reads_the_diagonal_density(self, monkeypatch, build):
        # rho_ii = exp(-T_ii - logZ): the chain forms no density matrix
        T, S = build()
        state = hb.gibbs_state(T)
        reference = _dense_chain(state.generator, S, state.rho_matrix(), 12)

        def no_density_matrix(self):
            raise AssertionError("the chain of a diagonal generator formed the density matrix")

        monkeypatch.setattr(hb.GibbsState, "rho_matrix", no_density_matrix)
        moments = dsf.commutator_moments(state, S, 12)
        assert moments == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_dense_generator_stays_dense(self, monkeypatch):
        T, S = gue_instance(np.random.default_rng(11), 12)
        state = hb.gibbs_state(T)
        _forbid_scipy(monkeypatch)
        moments = dsf.commutator_moments(state, S, 9)
        reference = _dense_chain(T, S, state.rho_matrix(), 9)
        assert moments == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("build", [
        lambda: build_model(SpinModel(3.0, 2.0)),
        lambda: gue_instance(np.random.default_rng(11), 7, spread=10.0),
    ], ids=["diagonal", "dense"])
    def test_overflowing_chain_raises_without_warnings(self, build):
        # R_q grows like the largest Bohr frequency to the q: M_1023 of the spin is past double range
        T, S = build()
        state = hb.gibbs_state(T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="is not finite"):
                dsf.commutator_moments(state, S, 1100)


class TestFrameMembers:
    """Each lazy member of a frame is computed once and owned by that frame."""

    def test_computed_once_per_frame(self, monkeypatch):
        calls = {"moments": 0, "kernel": 0}

        def counting(name, function):
            def wrapped(*args):
                calls[name] += 1
                return function(*args)
            return wrapped

        monkeypatch.setattr(dsf, "commutator_moments", counting("moments", dsf.commutator_moments))
        # the kernel is formed by the frame's log_kernel member, once per frame
        kernel = functools.cached_property(counting("kernel", dsf._Frame.log_kernel.func))
        kernel.__set_name__(dsf._Frame, "log_kernel")
        monkeypatch.setattr(dsf._Frame, "log_kernel", kernel)
        state, s = random_instance(5, 5)
        frames = [dsf._Frame(state, s, 3), dsf._Frame(state, s, 3)]
        for frame in frames:
            for name in ("moments", "log_kernel", "pair_weights", "second_moment", "centered_dsfs", "max_omega"):
                assert getattr(frame, name) is getattr(frame, name)
        assert calls == {"moments": 2, "kernel": 2}
        first, second = frames
        for name in ("moments", "log_kernel", "pair_weights", "centered_dsfs"):
            assert getattr(first, name) is not getattr(second, name)
        assert first.moments == second.moments

    def test_line_kernel_once_per_spectrum(self, monkeypatch):
        # the line kernel does not depend on the family, so every family's
        # line sum on one structure factor reads one kernel
        calls = []
        exprel_neg = dsf._exprel_neg
        monkeypatch.setattr(dsf, "_exprel_neg", lambda *args: calls.append(1) or exprel_neg(*args))
        state, s = random_instance(5, 6)
        spectrum = dsf.build_dsf(state, s)
        values = [metrics.metric_from_dsf(spectrum, family).value for family in fam.named_families().values()]
        assert len(calls) == 1
        assert values == [
            metrics.metric_from_dsf(dsf.build_dsf(state, s), family).value
            for family in fam.named_families().values()
        ]
        assert len(calls) == 1 + len(values)


def _scanned_chain(state, S_matrix, order):
    """The diagonal chain as each sweep point ran it on its own: c * T formed, S scanned for its pattern."""
    diagonal = np.diagonal(state.c * state.T.matrix)
    n, flat = diagonal.shape[-1], S_matrix.reshape(-1)
    rows, cols = np.nonzero(S_matrix != 0.0)
    rho = np.exp(-diagonal.real - state.logZ)
    R = np.take(flat, rows * n + cols)
    P_transposed = np.take(flat, cols * n + rows) * np.take(rho, rows)
    t_rows, t_cols = np.take(diagonal, rows), np.take(diagonal, cols)
    moments = []
    for q in range(order + 1):
        moments.append((-1.0) ** q * np.sum(R * P_transposed).real + 0.0)
        R = t_rows * R - R * t_cols
    return moments


def _tied_diagonal_pair():
    rng = np.random.default_rng(2061)
    T = np.diag(np.round(rng.uniform(0.0, 4.0, 30) * 4.0) / 4.0).astype(complex)
    S = random_hermitian(rng, 30) * (rng.random((30, 30)) < 0.15)
    return hb.HermitianOperator(T), hb.HermitianOperator(S + S.conj().T)


def _read_back(tmp_path, *operators):
    """The operators as a matrix-file job reads them."""
    for i, op in enumerate(operators):
        hb.write_operator_json(op, tmp_path / f"{i}.json")
    return tuple(hb.read_operator_json(tmp_path / f"{i}.json")[0] for i in range(len(operators)))


SWEEP_FAMILIES = ["har", "bures", "bkm", "mc", "geometric", "wyd:0.3"]


class TestPerJobFacts:
    """A sweep job has S's pattern once, set when a model builds S or else scanned on
    first read, and keeps it with S; no point forms the dense generator c * T unless a dense chain reads it."""

    @pytest.mark.parametrize("build", [
        lambda tmp_path: SpinModel(20.0, 0.7).unit_matrices(),
        lambda tmp_path: BosonModel(1, 0.8, 40).unit_matrices(),
        lambda tmp_path: BosonModel(2, 0.9, 40).unit_matrices(),
        lambda tmp_path: _read_back(tmp_path, *_tied_diagonal_pair()),
    ], ids=["spin", "boson-k1", "boson-k2", "tied-diagonal-file"])
    def test_kept_pattern_gives_the_scanned_moments(self, tmp_path, build):
        T, S = build(tmp_path)
        basis = hb.eigendecompose(T)
        [table] = dsf._pair_tables(basis, S)
        for c in (0.3, 1.0, 2.5):
            state = hb._scaled_state(basis, T.matrix, c)
            moments = dsf._Frame(state, S, 12, table).moments
            reference = _scanned_chain(state, S.matrix, 12)
            assert all(np.array_equal(got, want) for got, want in zip(moments, reference, strict=True))
        assert "generator" not in vars(state) and "pattern" in vars(S)

    def test_spin_sweep_builds_the_pattern_once(self, tmp_path, monkeypatch):
        # the model sets S_z's and S_x's patterns at construction, once per job, and nothing scans one
        scanned, build = [], hb.HermitianOperator.pattern.func
        pattern = functools.cached_property(lambda S: scanned.append(S.dim) or build(S))
        pattern.__set_name__(hb.HermitianOperator, "pattern")
        monkeypatch.setattr(hb.HermitianOperator, "pattern", pattern)
        supported, held = [], hb.HermitianOperator._held.__func__

        def counting(cls, dim, pattern, diagonal):
            supported.append(dim)
            return held(cls, dim, pattern, diagonal)

        monkeypatch.setattr(hb.HermitianOperator, "_held", classmethod(counting))
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "model": {"model": "spin", "S": 20, "omega0": 1.0},
            "families": SWEEP_FAMILIES,
            "methods": ["oracle", "spectral", "dsf", "seriesA:6"],
            "sweep": {"parameter": "omega0", "grid": [1.0, 0.25, 0.5, 1.5]},
        }))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "table.csv")]) == 0
        assert supported == [41, 41] and scanned == []

    @pytest.mark.parametrize("model, parameter", [
        ({"model": "spin", "S": 200, "omega0": 1.0}, "omega0"),
        ({"model": "boson", "k": 2, "omega": 1.0, "cutoff": 200}, "omega"),
    ], ids=["spin", "boson"])
    def test_model_sweep_makes_no_dense_pass_over_S(self, tmp_path, monkeypatch, model, parameter):
        # the diagonal generator's basis is a sort: the table reads S's pattern, set at construction
        def forbidden(*args):
            raise AssertionError("a model sweep passed over every entry of S")

        for module in (cli, dsf, hb):
            monkeypatch.setattr(module, "to_eigenbasis", forbidden, raising=False)
        pattern = functools.cached_property(forbidden)
        pattern.__set_name__(hb.HermitianOperator, "pattern")
        monkeypatch.setattr(hb.HermitianOperator, "pattern", pattern)
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "model": model,
            "families": SWEEP_FAMILIES,
            "methods": ["oracle", "spectral", "dsf", "seriesA:4"],
            "sweep": {"parameter": parameter, "grid": [1.0, 0.5, 1.5]},
        }))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "table.csv")]) == 0

    @pytest.mark.parametrize("diagonal", [False, True], ids=["gue", "diagonal"])
    def test_sweep_without_a_series_builds_neither(self, tmp_path, monkeypatch, diagonal):
        T, S = _tied_diagonal_pair() if diagonal else gue_instance(np.random.default_rng(3), 30)
        hb.write_operator_json(T, tmp_path / "T.json")
        hb.write_operator_json(S, tmp_path / "S.json")

        def forbidden(*args):
            raise AssertionError("a job without a series built a chain fact")

        monkeypatch.setattr(dsf, "_chain_traces", forbidden)
        monkeypatch.setattr(hb.GibbsState, "generator", property(forbidden))
        if not diagonal:  # a diagonal T's basis is a sort, whose pair table reads S's pattern
            monkeypatch.setattr(hb.HermitianOperator, "pattern", property(forbidden))
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": SWEEP_FAMILIES,
            "methods": ["oracle", "spectral", "dsf"],
            "sweep": {"parameter": "beta", "grid": [0.5, 1.0, 2.0]},
        }))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "table.csv")]) == 0


class TestSharedColumns:
    """Every family's filter on one frame, or structure factor, reads one
    column per distinct scale per route, with the bits of its own."""

    # wyd:0.5 has the scale 0.5 twice, which its own log form reads from one column
    FAMILIES = [fam.parse_family(text) for text in (*SWEEP_FAMILIES, "pdiff:-0.7", "wyd:0.5")]
    ROUTES = {
        "spectral": metrics.metric_spectral,
        "oracle": metrics.metric_mc_oracle,
        "dsf": lambda state, s, family: metrics.metric_from_dsf(dsf.build_dsf(state, s, centered=True), family),
    }

    def test_values_match_per_family_evaluation(self):
        state, s = random_instance(40, 40)
        frame = dsf._Frame(state, s)
        for family in self.FAMILIES:
            for route, own_frame in self.ROUTES.items():
                assert metrics._evaluate(frame, family, route)[0].value == own_frame(state, s, family).value
        xs = np.exp(frame.f_columns.v)
        f_columns = fam._Columns(np.log(xs))
        for family in self.FAMILIES:
            assert np.array_equal(fam._exp(*fam._g_parts(family, frame.g_columns)), fam.eval_g(family, frame.x))
            assert np.array_equal(fam._exp(fam._log_f(family, f_columns)), fam.eval_f(family, xs))

    def test_one_column_per_scale_and_route(self, monkeypatch):
        calls, exprel_neg = [], fam._exprel_neg
        monkeypatch.setattr(fam, "_exprel_neg", lambda z: calls.append(1) or exprel_neg(z))
        state, s = random_instance(40, 40)
        frame = dsf._Frame(state, s)
        for family in self.FAMILIES:
            for route in self.ROUTES:
                metrics._evaluate(frame, family, route)
        g_scales = {k for family in self.FAMILIES for k in sum(fam._g_scales(family), ())}
        f_scales = {k for family in self.FAMILIES for k in fam._F_FORMS[family.kind](family.param)[2]}
        assert len(calls) == 2 * len(g_scales) + len(f_scales)
        assert set(frame.g_columns) == set(frame.centered_dsfs[0][1].g_columns) == g_scales
        assert set(frame.f_columns) == f_scales

    def test_stacked_scales_are_not_kept(self):
        x = np.abs(np.random.default_rng(4).normal(size=(3, 5)))
        columns = fam._g_columns(x)
        stacked = fam._log_g(fam._Stacked("wyd", np.array([0.2, 0.5, 0.7])), columns)
        assert set(columns) == {1.0}
        for i, alpha in enumerate((0.2, 0.5, 0.7)):
            assert np.allclose(stacked[i], fam._log_g(fam.wyd(alpha), x[i]), rtol=1e-14, atol=1e-15)


class TestOneRotation:
    """Each (state, S) consumer rotates S once, through one frame."""

    CONSUMERS = {
        "bogoliubov_duhamel": lambda state, s: dsf.bogoliubov_duhamel(state, s, s),
        "duhamel_quadrature": lambda state, s: dsf.bogoliubov_duhamel_quadrature(state, s, s),
        "build_cross_dsf": lambda state, s: build_cross_dsf(state, s, s),
        "wyd_skew": lambda state, s: skew.wyd_skew(state, s, 0.3),
        "metric_adjusted_skew": lambda state, s: skew.metric_adjusted_skew(state, s, fam.BURES),
        "integrated_wyd": skew.integrated_wyd,
        "tilde_metric": lambda state, s: skew.tilde_metric(state, s, fam.BURES),
        "variance_minus_duhamel": skew.variance_minus_duhamel,
    }

    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_rotates_s_once(self, name, monkeypatch):
        state, s = random_instance(8, 6)
        calls, rotate = [], hb.to_eigenbasis

        def counting(*args, **kwargs):
            calls.append(args)
            return rotate(*args, **kwargs)

        for module in (hb, dsf, skew):
            if hasattr(module, "to_eigenbasis"):
                monkeypatch.setattr(module, "to_eigenbasis", counting)
        self.CONSUMERS[name](state, s)
        assert len(calls) == 1


class TestOneCheck:
    """An array S passed to a (state, S) consumer is checked once, by its frame, and not again by the chain."""

    CONSUMERS = {
        # bures seriesA:3 is negative on this instance and raises after the check; BKM's series is its base
        "metric_series_A": lambda state, s: metrics.metric_series_A(state, s, fam.BKM, 3),
        "sum_rule_report": lambda state, s: dsf.sum_rule_report(state, s, p_max=4),
        "commutator_bounds": inequalities.commutator_bounds,
    }

    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_array_observable_checked_once(self, name, checked_operators):
        state, s = random_instance(8, 6)
        checked_operators.clear()
        self.CONSUMERS[name](state, s.matrix)
        assert len(checked_operators) == 1


class TestSumRules:
    def test_random_instances(self):
        for seed in range(6):
            state, s = random_instance(seed, int(np.random.default_rng(seed).integers(2, 8)))
            for row in dsf.sum_rule_report(state, s, p_max=6):
                assert row.rel_error <= 1e-9, f"p={row.p}: {row}"

    @pytest.mark.parametrize("p_max", [-1, -3])
    def test_negative_p_max_rejected(self, qubit, p_max):
        with pytest.raises(ValueError, match="p_max must be >= 0"):
            dsf.sum_rule_report(qubit, SX, p_max=p_max)

    def test_qubit_values(self, qubit):
        rows = dsf.sum_rule_report(qubit, SX, p_max=3)
        assert rows[0].functional == pytest.approx(F0_QUBIT, rel=1e-12)
        assert rows[1].functional == pytest.approx(2.0, rel=1e-12)
        assert rows[2].functional == pytest.approx(F0_QUBIT, rel=1e-12)


class TestBogoliubovDuhamel:
    def test_qubit(self, qubit):
        assert dsf.bogoliubov_duhamel(qubit, SX, SX) == pytest.approx(F0_QUBIT, rel=1e-13)

    def test_identity(self, qubit):
        eye = np.eye(2, dtype=complex)
        assert dsf.bogoliubov_duhamel(qubit, eye, eye) == pytest.approx(1.0, rel=1e-14)

    def test_commuting_centered_is_variance(self, qubit):
        mean = RHO1 - RHO2
        dz = SZ - mean * np.eye(2)
        var = 1.0 - mean ** 2
        assert dsf.bogoliubov_duhamel(qubit, dz, dz) == pytest.approx(var, rel=1e-13)

    def test_quadrature_agrees(self, qubit, monkeypatch):
        _forbid_scipy(monkeypatch)
        assert dsf.bogoliubov_duhamel_quadrature(qubit, SX, SX) == pytest.approx(
            F0_QUBIT, rel=1e-12
        )
        for seed in (1, 2, 3):
            state, s = random_instance(seed, 5)
            closed = dsf.bogoliubov_duhamel(state, s, s)
            quad = dsf.bogoliubov_duhamel_quadrature(state, s, s)
            assert quad == pytest.approx(closed, rel=1e-10)
        # a single 32-node rule lost 1e-6 at spread 300 and 1e-2 at 1000; the panels follow the log-weight gap
        for spread in (100.0, 300.0, 1000.0):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                T, s = gue_instance(rng, 8, spread=spread)
                state, other = hb.gibbs_state(T), hb.HermitianOperator(random_hermitian(rng, 8))
                for a, b in ((s, s), (s, other)):
                    quad = dsf.bogoliubov_duhamel_quadrature(state, a, b)
                    assert quad == pytest.approx(dsf.bogoliubov_duhamel(state, a, b), rel=1e-10), (spread, seed)

    def test_quadrature_reads_the_frame(self):
        # S = 1000 (dim 2001): the rotated matrix and the tau kernel took 289 MB, where one dense complex matrix is 64 MB
        T, S = build_model(SpinModel(1000, 1.0))
        state = hb.gibbs_state(T)
        tracemalloc.start()
        try:
            quad = dsf.bogoliubov_duhamel_quadrature(state, S, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.dim**2 * np.dtype(complex).itemsize
        assert quad == pytest.approx(dsf.bogoliubov_duhamel(state, S, S), rel=1e-13)


class TestChiLines:
    def test_qubit(self, qubit):
        q = dsf.build_dsf(qubit, SX, centered=True)
        chi = dsf.chi_lines(q)
        assert chi.kind == "chi"
        expected_plus = (1.0 - math.exp(-1.0)) * RHO1
        expected_minus = (1.0 - math.e) * RHO2
        assert chi.omegas == pytest.approx([-1.0, 1.0])
        assert chi.weights == pytest.approx([expected_minus, expected_plus], rel=1e-13)
        # odd function: weights at +-omega are opposite
        assert chi.weights[0] == pytest.approx(-chi.weights[1], rel=1e-14)

    def test_commuting_empty(self, qubit):
        q = dsf.build_dsf(qubit, SZ, centered=True)
        chi = dsf.chi_lines(q)
        assert chi.omegas.size == 0

    def test_cross_rejected(self, qubit):
        q = build_cross_dsf(qubit, SX, SY)
        with pytest.raises(ValueError):
            dsf.chi_lines(q)

    def test_oddness_random(self):
        state, s = random_instance(23, 6)
        chi = dsf.chi_lines(dsf.build_dsf(state, s, centered=True))
        for i, om in enumerate(chi.omegas):
            if om <= 1e-12:
                continue
            j = np.argmin(np.abs(chi.omegas + om))
            assert chi.weights[j] == pytest.approx(-chi.weights[i], rel=1e-11)


class TestFluctuationIdentities:
    def test_zeroth_moment_is_second_moment_of_s(self):
        # completeness: M_0 = <S^2> including the elastic line
        for seed in (1, 2):
            state, s = random_instance(seed, 6)
            q = dsf.build_dsf(state, s)
            s_sq = hb.HermitianOperator(s.matrix @ s.matrix)
            assert dsf.moment(q, 0) == pytest.approx(
                hb.thermal_average(state, s_sq), rel=1e-12
            )

    def test_callen_welton(self):
        # (1/2) sum (1 + e^{-w}) Q_dS(w) = Var(S)
        for seed in (3, 4, 5):
            state, s = random_instance(seed, 6)
            q = dsf.build_dsf(state, s, centered=True)
            total = 0.5 * float(np.sum((1.0 + np.exp(-q.omegas)) * q.weights))
            s_sq = hb.HermitianOperator(s.matrix @ s.matrix)
            var = hb.thermal_average(state, s_sq) - hb.thermal_average(state, s) ** 2
            assert total == pytest.approx(var, rel=1e-11)

    def test_odd_moments_via_chi_weights(self):
        for seed in (6, 7):
            state, s = random_instance(seed, 5)
            q = dsf.build_dsf(state, s)
            for n in (1, 3, 5):
                direct = dsf.moment(q, n)
                halved = 0.5 * float(
                    np.sum(q.omegas ** n * (-np.expm1(-q.omegas)) * q.weights)
                )
                assert halved == pytest.approx(direct, rel=1e-10)


def write_spectrum_csv(Q: dsf.LineSpectrum, path):
    """Export a line spectrum as CSV with metadata header comments."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dim={Q.dim}\n")
        fh.write(f"# mean_S={Q.mean_s!r}\n")
        fh.write(f"# kind={Q.kind}\n")
        fh.write("omega,weight_re,weight_im\n")
        for om, wt in zip(Q.omegas, Q.weights):
            z = complex(wt)
            fh.write(f"{float(om)!r},{z.real!r},{z.imag!r}\n")


class TestCsvExport:
    def test_round_trip(self, qubit, tmp_path):
        q = dsf.build_dsf(qubit, SX)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(q, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# dim=2"
        assert lines[2] == "# kind=diagonal"
        rows = list(csv.DictReader(lines[3:]))
        assert len(rows) == 2
        back = [(float(r["omega"]), float(r["weight_re"])) for r in rows]
        assert back[0] == pytest.approx((-1.0, RHO2))
        assert back[1] == pytest.approx((1.0, RHO1))
