"""The pair table against the full eigenbasis grid.

Every route sums over the pairs (n, m), n > m, that S couples, plus the
diagonal.  The helpers below are the full-grid n^2 sums that the routes
used before the table: they are the reference, and each route must match
them to 1e-13 relative on every corpus instance.
"""

import numpy as np
import pytest

from gibbsqfi import cli, dsf, metrics
from gibbsqfi import families as fam
from gibbsqfi import hilbert as hb
from gibbsqfi.inequalities import random_instance
from gibbsqfi.models import BosonModel, SpinModel, build_model

FAMILIES = [*fam.named_families().values(), *map(fam.parse_family, ("pdiff:-0.7", "pdiff:1.3", "wyd:0.3"))]
REL = 1e-13


class Grid:
    """Full-grid data of one (state, S): x, |S_nm|^2 and W at every [n, m]."""

    def __init__(self, state, S):
        self.state = state
        self.s_eig = hb.to_eigenbasis(state, S)
        lam = state.decomposition.eigenvalues
        self.x = 0.5 * (lam[..., :, None] - lam[..., None, :])
        self.abs2 = np.abs(self.s_eig) ** 2
        self.kernel = hb._duhamel_at(state, *np.indices((state.dim, state.dim)))
        self.diagonal = np.diagonal(self.s_eig, axis1=-2, axis2=-1)
        self.mean = np.sum(state.weights * self.diagonal.real, axis=-1)
        self.centered = self.s_eig - self.mean[..., None, None] * np.eye(state.dim)


def grid_spectral(grid, family):
    gross = np.sum(fam.eval_g(family, grid.x) * grid.kernel * grid.abs2, axis=(-2, -1))
    return 0.25 * (gross - grid.mean ** 2)


def grid_oracle(grid, family):
    w, lw = grid.state.weights, grid.state.log_weights
    summand = fam.eval_c(family, w[..., :, None], w[..., None, :]) * grid.kernel ** 2 * grid.abs2
    degenerate = np.abs(lw[..., None, :] - lw[..., :, None]) < 1e-10
    summand = np.where(degenerate, w[..., :, None] * grid.abs2, summand)
    index = np.arange(grid.state.dim)
    summand[..., index, index] = 0.0
    classical = np.sum(w * (grid.diagonal.real - grid.mean[..., None]) ** 2, axis=-1)
    return 0.25 * (classical + np.sum(summand, axis=(-2, -1)))


def grid_series_bases(grid):
    """(F_0(S; S), <S^2>): the bases of seriesA and seriesB."""
    duhamel = np.sum(grid.kernel * grid.abs2, axis=(-2, -1))
    second = np.sum(grid.state.weights * grid.abs2.sum(axis=-2), axis=-1)
    return duhamel, second


def grid_cross(grid_a, grid_b, family):
    g = fam.eval_g(family, grid_a.x)
    products = grid_a.centered * np.swapaxes(grid_b.centered, -1, -2)
    return 0.25 * np.sum(g * grid_a.kernel * products, axis=(-2, -1))


def grid_lines(grid):
    """Every [n, m] line (rho_m |S_nm|^2 at omega_nm) sorted, merged and pruned."""
    omegas = (2.0 * grid.x).ravel()
    weights = (grid.abs2 * grid.state.weights[None, :]).ravel()
    order = np.argsort(omegas, kind="stable")
    om, wt = omegas[order], weights[order]
    starts = np.concatenate(([0], np.nonzero(np.diff(om) > dsf._MERGE_TOL)[0] + 1))
    om = np.add.reduceat(om, starts) / np.diff(np.concatenate((starts, [om.size])))
    wt = np.add.reduceat(wt, starts)
    nonzero = wt > 0.0
    om, wt = om[nonzero], wt[nonzero]
    importance = np.log(wt) + np.maximum(0.0, -om)
    keep = importance >= importance.max() + np.log(dsf._PRUNE_REL)
    return om[keep], wt[keep]


def close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.all(np.abs(a - b) <= REL * np.maximum(np.abs(a), np.abs(b)))


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def _gue(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def corpus():
    """(label, T, S, B): the models, random dense pairs of dims 2-12 and degenerate generators."""
    cases = []
    for label, (T, S) in (
        ("spin", build_model(SpinModel(6.0, 0.9))),
        ("boson-k1", build_model(BosonModel(1, 0.7, 50))),
        ("boson-k2", build_model(BosonModel(2, 0.6, 50))),
    ):
        cases.append((label, T.matrix, S.matrix, _gue(np.random.default_rng(len(cases)), T.dim)))
    rng = np.random.default_rng(12)
    for dim in range(2, 13):
        T, S = random_instance(rng, dim)
        cases.append((f"dense-{dim}", T.matrix, S.matrix, _gue(rng, dim)))
    # degenerate levels: rotated (equal to roundoff) and diagonal (exactly equal)
    U = _unitary(rng, 6)
    levels = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.5])
    cases.append(("degenerate-rotated", (U * levels) @ U.conj().T, _gue(rng, 6), _gue(rng, 6)))
    cases.append(("degenerate-diagonal", np.diag(levels).astype(complex), _gue(rng, 6), _gue(rng, 6)))
    return cases


CASES = corpus()


@pytest.fixture(params=CASES, ids=[case[0] for case in CASES])
def case(request):
    _, T, S, B = request.param
    state = hb.gibbs_state(T)
    return state, hb.HermitianOperator(S), hb.HermitianOperator(B)


class TestRoutesMatchTheFullGrid:
    """Each route on the pair table equals its full-grid sum to 1e-13 relative."""

    def test_spectral_oracle_and_dsf(self, case):
        state, S, _ = case
        grid, frame = Grid(state, S), dsf._Frame(state, S)
        lines = grid_lines(grid)
        assert frame.dsf.omegas.shape == lines[0].shape
        assert close(frame.dsf.omegas, lines[0]) and close(frame.dsf.weights, lines[1])
        reference = dsf.LineSpectrum(*lines, "diagonal", state.dim, float(grid.mean))
        for family in FAMILIES:
            assert close(metrics._evaluate(frame, family, "spectral").value, grid_spectral(grid, family)), family
            assert close(metrics._evaluate(frame, family, "oracle").value, grid_oracle(grid, family)), family
            dsf_value = metrics.metric_from_dsf(frame.dsf, family).value
            assert close(dsf_value, metrics.metric_from_dsf(reference, family).value), family

    def test_series_bases(self, case):
        state, S, _ = case
        duhamel, second = grid_series_bases(Grid(state, S))
        frame = dsf._Frame(state, S)
        assert close(frame.filtered(), duhamel)
        assert close(frame.second_moment, second)

    def test_cross_values(self, case):
        state, S, B = case
        grid_s, grid_b = Grid(state, S), Grid(state, B)
        for family in FAMILIES:
            assert close(metrics.cross_metric(state, S, B, family), grid_cross(grid_s, grid_b, family)), family
            assert close(metrics.cross_metric(state, S, S, family), grid_cross(grid_s, grid_s, family)), family


class TestEmptyTable:
    def test_commuting_observable_is_the_classical_variance(self):
        # S diagonal in T's eigenbasis couples no pair: every metric is Var(S)/4
        rng = np.random.default_rng(3)
        U = _unitary(rng, 7)
        T = (U * rng.normal(size=7)) @ U.conj().T
        S = (U * rng.normal(size=7)) @ U.conj().T
        state = hb.gibbs_state(T)
        # the rotation leaves the off-diagonal at roundoff; the table of its diagonal is empty
        s_eig = np.diag(np.diag(hb.to_eigenbasis(state, S)))
        frame = dsf._Frame(state, S, table=dsf._PairTable(state.decomposition.eigenvalues, s_eig))
        assert frame.table.rows.size == 0
        w, d = state.weights, frame.diagonal
        variance = float(np.dot(w, d ** 2) - np.dot(w, d) ** 2)
        for family in FAMILIES:
            for method in ("spectral", "oracle", "dsf"):
                value = metrics._evaluate(frame, family, method).value
                assert value == pytest.approx(0.25 * variance, rel=REL), (family, method)
        assert frame.max_omega == 0.0

    def test_diagonal_model_observable(self):
        # a diagonal T and diagonal S: the rotation leaves exact zeros
        state = hb.gibbs_state(np.diag([0.0, 0.4, 1.1, 2.0]).astype(complex))
        S = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
        frame = dsf._Frame(state, S)
        assert frame.table.rows.size == 0
        grid = Grid(state, S)
        for family in FAMILIES:
            assert close(metrics._evaluate(frame, family, "spectral").value, grid_spectral(grid, family))
            assert close(metrics._evaluate(frame, family, "oracle").value, grid_oracle(grid, family))


class TestStack:
    def test_three_matrix_stack_matches_each_matrix(self):
        rng = np.random.default_rng(33)
        draws = [random_instance(rng, 5) for _ in range(3)]
        T = hb.HermitianOperator(np.stack([t.matrix for t, _ in draws]))
        S = hb.HermitianOperator(np.stack([s.matrix for _, s in draws]))
        B = hb.HermitianOperator(np.stack([_gue(rng, 5) for _ in range(3)]))
        state = hb._scaled_state(hb.eigendecompose(T), T.matrix, 1.0)
        frame, frame_b = dsf._frame_pair(state, S, B)
        grid_s, grid_b = Grid(state, S.matrix), Grid(state, B.matrix)
        assert np.array_equal(frame.table.rows, frame_b.table.rows)
        for family in FAMILIES:
            g = fam.eval_g(family, frame.x)
            assert close(metrics._spectral_value(frame, g), grid_spectral(grid_s, family)), family
            assert close(metrics._oracle_value(frame, family), grid_oracle(grid_s, family)), family
            assert close(metrics._cross_value(frame, frame_b, g), grid_cross(grid_s, grid_b, family)), family
            assert close(metrics._cross_value(frame_b, frame_b, g), grid_cross(grid_b, grid_b, family)), family
        duhamel, second = grid_series_bases(grid_s)
        assert close(frame.filtered(), duhamel) and close(frame.second_moment, second)


class TestOneTablePerJob:
    def test_points_share_the_table_and_its_line_order(self, monkeypatch):
        # every point of a sweep reads one table; no point sorts its lines
        tables = []
        table_class = dsf._PairTable
        monkeypatch.setattr(cli, "_PairTable", lambda *args: tables.append(table_class(*args)) or tables[-1])
        monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: pytest.fail("a point sorted its lines"))
        config = cli.JobConfig.from_dict({
            "model": {"model": "spin", "S": 4, "omega0": 1.0},
            "families": ["bkm", "har"],
            "methods": ["oracle", "spectral", "dsf"],
            "sweep": {"parameter": "omega0", "grid": [0.5, 1.0, 2.0]},
        })
        rows, _ = cli.run_metric_job(config)
        assert len(tables) == 1 and len(rows) == 18
        # S_x couples adjacent levels only: 8 pairs of the 9 levels
        assert tables[0].rows.size == 8 and np.all(tables[0].rows - tables[0].cols == 1)


class TestOracleOrientation:
    @pytest.mark.parametrize("label", ["pdiff:1.3", "pdiff:2", "wyd:0.3", "har", "mc"])
    def test_wide_gap_oracle_matches_spectral(self, label):
        # c_f is read at the ratio rho_n/rho_m <= 1 of each pair: at a
        # log-weight gap of 600 the other side overflows f for p > 1, which
        # made the pdiff oracle drop the pair's weight without a warning
        T, S = random_instance(np.random.default_rng(1), 6, spread=600.0)
        state = hb.gibbs_state(T)
        family = fam.parse_family(label)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            oracle = metrics.metric_mc_oracle(state, S, family).value
        spectral = metrics.metric_spectral(state, S, family).value
        assert oracle == pytest.approx(spectral, rel=1e-10)
