"""The pair table against the full eigenbasis grid.

Every route sums over the pairs (n, m), n > m, that S couples, plus the
diagonal.  The helpers below are the full-grid n^2 sums that the routes
used before the table: they are the reference, and each route must match
them to 1e-13 relative on every corpus instance.
"""

import sys

import numpy as np
import pytest

from gibbsqfi import cli, dsf, inequalities, metrics
from gibbsqfi import families as fam
from gibbsqfi import hilbert as hb
from gibbsqfi.inequalities import random_instance
from gibbsqfi.models import BosonModel, SpinModel, build_model, spin_matrices
from test_dsf import _tied_diagonal_pair
from test_hilbert import duhamel_kernel

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
        self.kernel = duhamel_kernel(state)
        self.diagonal = np.diagonal(self.s_eig, axis1=-2, axis2=-1)
        self.mean = np.sum(state.weights * self.diagonal.real, axis=-1)
        self.centered = self.s_eig - self.mean[..., None, None] * np.eye(state.dim)


def full_grid_table(eigenvalues, s_eig, *also):
    """The table of rotated elements s_eig, scanned on the full grid: the pairs (n, m), n > m, where the squares
    of s_eig or of an operator in ``also`` are not all 0, with |S_nm|^2 and |S_mn|^2 gathered from the grid's squares."""
    n = s_eig.shape[-1]
    abs2 = np.abs(s_eig) ** 2
    either = (abs2 + sum(np.abs(a) ** 2 for a in also) > 0.0).reshape(-1, n, n).any(axis=0)
    rows, cols = np.nonzero(either | either.T)
    rows, cols = rows[rows > cols], cols[rows > cols]

    def gather(a):
        flat = a.reshape(*a.shape[:-2], -1)
        return np.take(flat, rows * n + cols, axis=-1), np.take(flat, cols * n + rows, axis=-1)

    down, up = gather(abs2)
    diagonal, peak = np.diagonal(s_eig, axis1=-2, axis2=-1), np.max(abs2, axis=(-2, -1))
    return dsf._PairTable(eigenvalues, rows, cols, gather(s_eig), down, up, down + up, diagonal, peak)


def full_grid_tables(basis, *ops):
    """full_grid_table of each operator, rotated by to_eigenbasis, over the pairs any of them couples."""
    rotated = [hb.to_eigenbasis(basis, op) for op in ops]
    return [full_grid_table(basis.eigenvalues, s_eig, *rotated[:i], *rotated[i + 1:]) for i, s_eig in enumerate(rotated)]


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
        lines, spectrum = grid_lines(grid), dsf._assemble(frame, (), False)
        assert spectrum.omegas.shape == lines[0].shape
        assert close(spectrum.omegas, lines[0]) and close(spectrum.weights, lines[1])
        reference = dsf.LineSpectrum(*lines, "diagonal", state.dim, float(grid.mean), np.log(lines[1]) + np.maximum(0.0, -lines[0]))
        for family in FAMILIES:
            assert close(metrics._evaluate(frame, family, "spectral")[0].value, grid_spectral(grid, family)), family
            assert close(metrics._evaluate(frame, family, "oracle")[0].value, grid_oracle(grid, family)), family
            dsf_value = metrics.metric_from_dsf(spectrum, family).value
            assert close(dsf_value, metrics.metric_from_dsf(reference, family).value), family

    def test_series_bases(self, case):
        state, S, _ = case
        duhamel, second = grid_series_bases(Grid(state, S))
        frame = dsf._Frame(state, S)
        assert close(frame.filtered, duhamel)
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
        frame = dsf._Frame(state, S, table=full_grid_table(state.decomposition.eigenvalues, s_eig))
        assert frame.table.rows.size == 0
        w, d = state.weights, frame.diagonal
        variance = float(np.dot(w, d ** 2) - np.dot(w, d) ** 2)
        for family in FAMILIES:
            for method in ("spectral", "oracle", "dsf"):
                value = metrics._evaluate(frame, family, method)[0].value
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
            assert close(metrics._evaluate(frame, family, "spectral")[0].value, grid_spectral(grid, family))
            assert close(metrics._evaluate(frame, family, "oracle")[0].value, grid_oracle(grid, family))


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
            g = fam._log_g(family, frame.x)
            assert close(metrics._spectral_value(frame, g), grid_spectral(grid_s, family)), family
            assert close(metrics._oracle_value(frame, family), grid_oracle(grid_s, family)), family
            assert close(metrics._cross_value(frame, frame_b, g), grid_cross(grid_s, grid_b, family)), family
            assert close(metrics._cross_value(frame_b, frame_b, g), grid_cross(grid_b, grid_b, family)), family
        duhamel, second = grid_series_bases(grid_s)
        assert close(frame.filtered, duhamel) and close(frame.second_moment, second)


class TestOneTablePerJob:
    def test_points_share_the_table_and_its_line_order(self, monkeypatch):
        # every point of a sweep reads one table; no point sorts its lines:
        # the job sorts the diagonal S_z in eigendecompose and the table's pairs row-major, once each
        tables, sorts = [], []
        table_builder, argsort = cli._pair_tables, np.argsort
        sorters = {hb.eigendecompose.__code__: "eigendecompose", dsf._pair_tables.__code__: "table"}

        def sort_once_per_job(*args, **kwargs):
            caller = sorters.get(sys._getframe(1).f_code)
            if caller is None:
                pytest.fail("a point sorted its lines")
            sorts.append(caller)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(cli, "_pair_tables", lambda *args: tables.extend(table_builder(*args)) or tables[-1:])
        monkeypatch.setattr(np, "argsort", sort_once_per_job)
        config = cli.JobConfig.from_dict({
            "model": {"model": "spin", "S": 4, "omega0": 1.0},
            "families": ["bkm", "har"],
            "methods": ["oracle", "spectral", "dsf"],
            "sweep": {"parameter": "omega0", "grid": [0.5, 1.0, 2.0]},
        })
        rows, _ = cli.run_metric_job(config)
        assert len(tables) == 1 and len(rows) == 18 and sorts == ["eigendecompose", "table"]
        # S_x couples adjacent levels only: 8 pairs of the 9 levels
        assert tables[0].rows.size == 8 and np.all(tables[0].rows - tables[0].cols == 1)


def _unsorted_tied_diagonal():
    """A diagonal T of shuffled, tied levels, and a sparse S with a -0.0 and entries whose |S_nm|^2 is 0 or past double range."""
    rng = np.random.default_rng(71)
    T = np.diag(rng.permutation([0.5, 0.5, 2.0, -1.0, 2.0, 2.0, 0.0, 3.5, -1.0, 0.5])).astype(complex)
    S = np.zeros((10, 10), dtype=complex)
    S[0, 3], S[1, 7], S[2, 5], S[4, 9], S[6, 8] = 1.5 - 0.5j, 2e-170, 1e-300j, 3e160, -0.0
    S[[0, 5, 9], [0, 5, 9]] = [0.25, -2.0, 1e-200]
    return hb.HermitianOperator(T), hb.HermitianOperator(S + S.conj().T)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _sparse_partner(T):
    """A Hermitian operator of T's shape, a GUE draw at about one entry in five: a pattern other than S's."""
    rng, shape = np.random.default_rng(T.dim), T.matrix.shape
    g = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.2)
    return hb.HermitianOperator(g + np.swapaxes(g.conj(), -1, -2))


def _stacked_pair():
    rng = np.random.default_rng(33)
    draws = [random_instance(rng, 5) for _ in range(3)]
    return tuple(hb.HermitianOperator(np.stack([op.matrix for op in ops])) for ops in zip(*draws))


class TestPatternTable:
    """The builder's table of each operator has every bit of the full-grid table of its rotated elements.

    A basis that is a sort reads the pairs from the operators' patterns; an eigh basis scans the rotated squares.
    """

    CASES = {
        **{f"spin-{s:g}": (lambda s=s: SpinModel(s, 0.7).unit_matrices()) for s in (0.5, 1.0, 3.5, 20.0, 200.0)},
        **{f"boson-k{k}": (lambda k=k: BosonModel(k, 0.9, 60).unit_matrices()) for k in (1, 2, 3)},
        "spin-scaled": lambda: build_model(SpinModel(3.5, 0.7)),
        "tied-diagonal": _tied_diagonal_pair,
        "unsorted-tied-diagonal": _unsorted_tied_diagonal,
    }
    EIGH_CASES = {
        **{f"dense-{dim}": (lambda dim=dim: random_instance(np.random.default_rng(dim), dim)) for dim in (2, 7)},
        "stack": _stacked_pair,
    }
    FIELDS = ("rows", "cols", "elements", "down", "up", "abs2", "diagonal", "peak", "log_abs2", "order")

    def _check_tables(self, T, S):
        """Compare S's table, and both tables of S with a partner, with the full-grid tables; return S's table."""
        basis = hb.eigendecompose(T)
        fields = self.FIELDS if basis.eigenvalues.ndim == 1 else self.FIELDS[:-1]  # the line order is single-instance
        with np.errstate(over="ignore"):  # |3e160|^2 is inf in both tables
            for ops in ((S,), (S, _sparse_partner(T))):
                for got, want in zip(dsf._pair_tables(basis, *ops), full_grid_tables(basis, *ops), strict=True):
                    for field in fields:
                        assert _same_bits(getattr(got, field), getattr(want, field)), (len(ops), field)
            [table] = dsf._pair_tables(basis, S)
        return basis, table

    @pytest.mark.parametrize("name", CASES)
    def test_equals_the_rotated_table(self, name):
        basis, table = self._check_tables(*self.CASES[name]())
        assert basis.order is not None and table.rows.size > 0

    @pytest.mark.parametrize("name", EIGH_CASES)
    def test_eigh_table_equals_the_rotated_table(self, name):
        basis, table = self._check_tables(*self.EIGH_CASES[name]())
        assert basis.order is None and table.rows.size > 0

    @pytest.mark.parametrize("name", [name for name in CASES if "diagonal" not in name])
    def test_construction_pattern_is_the_scanned_one(self, name):
        for op in self.CASES[name]():
            assert "pattern" in vars(op)
            scanned = hb.HermitianOperator.pattern.func(hb.HermitianOperator._trusted(op.matrix.copy()))
            assert all(_same_bits(got, want) for got, want in zip(op.pattern, scanned, strict=True))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (2, 3, 3)], ids=["2", "4", "stack"])
    def test_dimension_mismatch_raises(self, shape):
        # a wrong-dim S, or a stack of S against one state, on a sorted basis and on an eigh basis
        T, good = np.diag([0.0, 1.0, 2.0]).astype(complex), hb.HermitianOperator(_gue(np.random.default_rng(5), 3))
        S = np.broadcast_to(np.eye(shape[-1]), shape)
        states = [hb.gibbs_state(T), hb.gibbs_state(T + good.matrix)]
        assert [state.decomposition.order is None for state in states] == [False, True]
        routes = {
            "metric_spectral": lambda state: metrics.metric_spectral(state, S, fam.BKM),
            "cross_metric": lambda state: metrics.cross_metric(state, good, S, fam.BKM),
            "bogoliubov_duhamel": lambda state: dsf.bogoliubov_duhamel(state, S, good),
            "build_dsf": lambda state: dsf.build_dsf(state, S),
        }
        for state in states:
            for name, route in routes.items():
                with pytest.raises(ValueError, match="dimension mismatch"):
                    route(state)
                    pytest.fail(name)

    def test_selection_reads_the_squares(self):
        # 2e-170 and 1e-300j are entries of the pattern, but their squares are 0: of 4 coupled pairs, 2 stay
        T, S = _unsorted_tied_diagonal()
        with np.errstate(over="ignore"):
            [table] = dsf._pair_tables(hb.eigendecompose(T), S)
        assert S.pattern[0].size == 11 and table.rows.size == 2


class TestCrossRoutesOnASort:
    """The public cross routes on a diagonal generator read both operators' patterns: they rotate nothing,
    and their values have every bit of the values on the full-grid tables of the rotated elements."""

    CASES = {
        "spin": lambda: (build_model(SpinModel(6.0, 0.9))[0], *spin_matrices(6.0)[:2]),
        "boson-k2": lambda: (*build_model(BosonModel(2, 0.6, 50)), build_model(BosonModel(1, 0.6, 50))[1]),
    }
    ROUTES = {
        "cross_metric": lambda state, A, B: [metrics.cross_metric(state, A, B, family) for family in FAMILIES],
        "bogoliubov_duhamel": lambda state, A, B: dsf.bogoliubov_duhamel(state, A, B),
        "cauchy_schwarz_cross": lambda state, A, B: inequalities.cauchy_schwarz_cross(state, A, B, fam.BURES, fam.MC),
    }

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("name", CASES)
    def test_no_rotation_and_the_full_grid_bits(self, monkeypatch, name, route):
        T, A, B = self.CASES[name]()
        state, rotate, rotations = hb.gibbs_state(T), hb.to_eigenbasis, []
        assert state.decomposition.order is not None
        with monkeypatch.context() as patch:
            for module in (dsf, hb):
                patch.setattr(module, "to_eigenbasis", lambda *args: rotations.append(args) or rotate(*args))
            got = self.ROUTES[route](state, A, B)
        assert rotations == []
        monkeypatch.setattr(dsf, "_pair_tables", full_grid_tables)
        assert repr(got) == repr(self.ROUTES[route](state, A, B))


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
