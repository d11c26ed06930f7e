"""A sweep evaluates its points in chunks: one stacked state and one frame per chunk.

Every chunk's rows must carry the bits of the same job run one point at a
time (``cli._CHUNK`` = 1, so each chunk holds one point), and a job that
fails must stop at the same row with the same message.
"""

import functools
import json
import warnings

import numpy as np
import pytest

from gibbsqfi import cli, dsf, families as fam, hilbert as hb, metrics
from gibbsqfi.cli import main
from gibbsqfi.inequalities import random_instance
from gibbsqfi.models import BosonModel, SpinModel

FAMILIES = ["har", "bures", "bkm", "mc", "geometric", "wyd:0.3", "pdiff:-0.7"]
METHODS = ["oracle", "spectral", "dsf", "seriesA:4", "seriesB:3"]


def _run(monkeypatch, config, chunk=None):
    """(rows as JSON, warnings, points of each stack evaluated) of a job; ``chunk`` replaces cli._CHUNK."""
    sizes, stack_rows = [], cli._stack_rows

    def counting(config, routes, labels, *args):
        sizes.append(len(labels))
        return stack_rows(config, routes, labels, *args)

    with monkeypatch.context() as patch:
        if chunk is not None:
            patch.setattr(cli, "_CHUNK", chunk)
        patch.setattr(cli, "_stack_rows", counting)
        rows, notes = cli.run_metric_job(cli.JobConfig.from_dict(config))
    return json.dumps(rows), notes, sizes


def _gue(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def _files(tmp_path, T, S):
    hb.write_operator_json(T, tmp_path / "T.json")
    hb.write_operator_json(S, tmp_path / "S.json")
    return {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")}


def _gue_files(tmp_path, dim, spread=3.0):
    T, S = random_instance(np.random.default_rng(dim), dim, spread=spread)
    return _files(tmp_path, T.matrix, S.matrix)


def _tied_diagonal_files(tmp_path):
    # levels on a 0.25 grid tie; S couples about one pair in eight
    rng = np.random.default_rng(2061)
    T = np.diag(np.round(rng.uniform(0.0, 4.0, 60) * 4.0) / 4.0).astype(complex)
    S = _gue(rng, 60) * (rng.random((60, 60)) < 0.12)
    return _files(tmp_path, T, S + S.conj().T)


def _tied_rotated_files(tmp_path):
    # a non-diagonal T whose levels tie: eigh, and pairs inside each tied block
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    levels = np.array([0.0, 0.0, 0.4, 0.4, 0.4, 1.1, 1.9, 1.9, 2.6])
    return _files(tmp_path, (q * levels) @ q.conj().T, random_instance(rng, 9)[1].matrix)


BETA_GRID = [0.3, 0.7, 0.45, 1.0]
CASES = {
    "spin": ({"model": "spin", "S": 20, "omega0": 1.0}, "omega0", [0.25, 1.0, 3.0, 0.5]),
    **{f"boson-k{k}": ({"model": "boson", "k": k, "omega": 1.0, "cutoff": 80}, "omega", [0.8, 1.0, 0.7]) for k in (1, 2, 3)},
    "gue12": (functools.partial(_gue_files, dim=12), "beta", BETA_GRID),
    "gue60": (functools.partial(_gue_files, dim=60), "beta", BETA_GRID),
    "tied-diagonal60": (_tied_diagonal_files, "beta", BETA_GRID),
    "tied-rotated9": (_tied_rotated_files, "beta", BETA_GRID),
}


class TestStackMatchesOnePointAtATime:
    @pytest.mark.parametrize("name", CASES)
    def test_every_method(self, tmp_path, monkeypatch, name):
        model, parameter, grid = CASES[name]
        config = {
            "model": model if isinstance(model, dict) else model(tmp_path),
            "beta": 0.8,
            "families": FAMILIES,
            "methods": METHODS,
            "sweep": {"parameter": parameter, "grid": grid},
        }
        stacked, notes, sizes = _run(monkeypatch, config)
        assert sizes == [len(grid)]  # one chunk, which did not fall back to single points
        single, single_notes, single_sizes = _run(monkeypatch, config, chunk=1)
        assert single_sizes == [1] * len(grid)
        assert stacked == single and notes == single_notes
        assert len(json.loads(stacked)) == len(grid) * len(FAMILIES) * len(METHODS)

    def test_as_many_points_as_levels(self, tmp_path, monkeypatch):
        # k = n = 3: c * T must scale each matrix of the stack, not the rows of one matrix
        T, S = random_instance(np.random.default_rng(3), 3, spread=2.0)
        config = {
            "model": _files(tmp_path, T.matrix, S.matrix),
            "families": FAMILIES,
            "methods": ["spectral", "seriesA:2"],
            "sweep": {"parameter": "beta", "grid": [0.5, 1.0, 2.0]},
        }
        stacked, _, sizes = _run(monkeypatch, config)
        single, _, _ = _run(monkeypatch, config, chunk=1)
        assert sizes == [3] and stacked == single

    def test_partial_last_chunk(self, tmp_path, monkeypatch):
        # the dense chain of a dim-160 T holds 160^2 = 25600 entries a point: 2 points per chunk
        config = {
            "model": _gue_files(tmp_path, 160),
            "families": FAMILIES[:3],
            "methods": ["oracle", "spectral", "dsf", "seriesA:2", "seriesB:2"],
            "sweep": {"parameter": "beta", "grid": [0.2, 0.3, 0.4, 0.5, 0.6]},
        }
        stacked, _, sizes = _run(monkeypatch, config)
        single, _, _ = _run(monkeypatch, config, chunk=1)
        assert sizes == [2, 2, 1] and stacked == single

    def test_dense_table_runs_one_point_per_chunk(self, tmp_path, monkeypatch):
        # a dim-400 GUE S couples 79800 pairs, past the chunk's 2^16 entries
        config = {
            "model": _gue_files(tmp_path, 400),
            "families": ["bkm"],
            "methods": ["spectral"],
            "sweep": {"parameter": "beta", "grid": [0.5, 1.0]},
        }
        assert _run(monkeypatch, config)[2] == [1, 1]


class TestFailures:
    """A chunk that fails or warns is re-run point by point, so the job stops, and warns, as a point-by-point job does."""

    def test_first_failing_point_is_named(self, tmp_path, monkeypatch, capsys):
        # point 2 fails at the first family and point 1 at the fourth: a point-by-point job stops at point 1
        grid = [0.5, 0.75, 1.25]
        fail_at = {(0.75, "mc"), (1.25, "har")}
        evaluate = cli._evaluate

        def failing(frame, family, method, L=None):
            results = evaluate(frame, family, method, L)
            for result, c in zip(results, np.ravel(frame.state.c)):
                if (c, family.label) in fail_at:
                    result.value = float("nan")
            return results

        monkeypatch.setattr(cli, "_evaluate", failing)
        config = json.dumps({
            "model": {"model": "spin", "S": 3, "omega0": 1.0},
            "families": ["har", "bures", "bkm", "mc"],
            "methods": ["spectral"],
            "sweep": {"parameter": "beta", "grid": grid},
        })
        (tmp_path / "job.json").write_text(config)
        argv = ["sweep", "--config", str(tmp_path / "job.json"), "--out", str(tmp_path / "never.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: mc spectral beta=0.75: the metric is nan\n"
        monkeypatch.setattr(cli, "_CHUNK", 1)
        assert main(argv) == 2 and capsys.readouterr().err == err
        assert not (tmp_path / "never.csv").exists()

    def test_warnings_keep_the_order_of_single_points(self, monkeypatch):
        # point 1 warns at the first family and point 0 at the second: a point-by-point job warns for point 0 first
        warn_at = {(1.0, "har"), (0.5, "bkm")}
        evaluate = cli._evaluate

        def warning(frame, family, method, L=None):
            for c in np.ravel(frame.state.c):
                if (c, family.label) in warn_at:
                    warnings.warn(f"{family.label} at c = {c}", RuntimeWarning)
            return evaluate(frame, family, method, L)

        monkeypatch.setattr(cli, "_evaluate", warning)
        config = {
            "model": {"model": "spin", "S": 3, "omega0": 1.0},
            "families": ["har", "bkm"],
            "sweep": {"parameter": "beta", "grid": [0.5, 1.0]},
        }
        found = []
        for chunk in (cli._CHUNK, 1):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                found.append(_run(monkeypatch, config, chunk))
            found.append([str(w.message) for w in caught])
        stacked, stacked_warnings, single, single_warnings = found
        assert stacked_warnings == single_warnings == ["bkm at c = 0.5", "har at c = 1.0"]
        assert stacked[0] == single[0] and stacked[2] == [2, 1, 1]

    def test_negative_series_before_a_state_past_double_range(self, tmp_path, monkeypatch, capsys):
        # seriesB:3 is negative at point 0, and c * T is past double range at point 3
        rng = np.random.default_rng(2060)
        T = 0.1 * _gue(rng, 60)
        config = {
            "model": _files(tmp_path, T, _gue(rng, 60)),
            "families": FAMILIES,
            "methods": METHODS,
            "sweep": {"parameter": "beta", "grid": [2.5, 0.3, 1.0, 1e308]},
        }
        (tmp_path / "job.json").write_text(json.dumps(config))
        argv = ["sweep", "--config", str(tmp_path / "job.json"), "--out", str(tmp_path / "never.csv")]
        expected = "error: bures seriesB:3 beta=2.5: seriesB produced a negative metric: -230.32249447342082\n"
        for chunk in (cli._CHUNK, 1):
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            assert main(argv) == 2
            assert capsys.readouterr().err == expected
        assert not (tmp_path / "never.csv").exists()

    def test_state_past_double_range_names_its_point(self, monkeypatch):
        config = cli.JobConfig.from_dict({
            "model": {"model": "spin", "S": 2, "omega0": 1.0},
            "families": ["bkm"],
            "sweep": {"parameter": "beta", "grid": [1.0, 1e308]},
        })
        with pytest.raises(cli.UsageError) as raised:
            cli.run_metric_job(config)
        assert str(raised.value) == "beta * T at beta=1e+308: twice the spectral range inf of c * T is non-finite"


class TestStackedState:
    def test_generator_of_as_many_points_as_levels(self):
        T = hb.as_operator(random_instance(np.random.default_rng(4), 3)[0]).matrix
        state = hb._scaled_state(hb.eigendecompose(T), T, [0.5, 1.0, 2.0])
        assert state.generator.shape == (3, 3, 3)
        for c, generator in zip([0.5, 1.0, 2.0], state.generator):
            assert np.array_equal(generator, c * T)

    def test_residue_warning_names_each_member(self):
        # a non-Hermitian S gives tr(S^2 rho) the imaginary part 2 rho_0 at each scale
        T = np.diag([0.0, 1.0]).astype(complex)
        S = hb.HermitianOperator._trusted(np.array([[1.0 + 1.0j, 1.0], [1.0, 0.0]]))
        state = hb._scaled_state(hb.eigendecompose(T), T, [0.5, 2.0])
        with pytest.warns(RuntimeWarning) as caught:
            dsf.commutator_moments(state, S, 0)
        singles = []
        for c in (0.5, 2.0):
            with pytest.warns(RuntimeWarning) as single:
                dsf.commutator_moments(hb._scaled_state(hb.eigendecompose(T), T, c), S, 0)
            singles += [str(w.message) for w in single]
        assert [str(w.message) for w in caught] == singles and len(set(singles)) == 2


def test_spin_sweep_never_forms_eigenvectors(monkeypatch):
    formed, eigenvectors = [], hb.SpectralDecomposition.eigenvectors
    counting = functools.cached_property(lambda self: formed.append(self) or eigenvectors.func(self))
    counting.__set_name__(hb.SpectralDecomposition, "eigenvectors")
    monkeypatch.setattr(hb.SpectralDecomposition, "eigenvectors", counting)
    config = cli.JobConfig.from_dict({
        "model": {"model": "spin", "S": 200, "omega0": 1.0},
        "families": ["bkm", "har"],
        "methods": ["oracle", "spectral", "dsf", "seriesA:6"],
        "sweep": {"parameter": "omega0", "grid": [0.25, 0.5, 1.0, 1.5]},
    })
    rows, _ = cli.run_metric_job(config)
    assert len(rows) == 32 and formed == []
    # a reader still gets I[:, order]
    T = hb.as_operator(np.diag([0.5, -1.0, 0.5, 0.0]).astype(complex))
    basis = hb.gibbs_state(T).decomposition
    assert np.array_equal(basis.eigenvectors, np.eye(4)[:, basis.order]) and len(formed) == 1


class TestStackedStructureFactor:
    """A chunk's dsf route is one assembly of the stack and one line sum per family, with each point's bits."""

    def test_one_assembly_and_one_line_sum_per_family(self, monkeypatch):
        calls = {"assemble": 0, "line sums": 0}
        assemble, dsf_value = dsf._assemble, metrics._dsf_value

        def counting(name, function):
            return lambda *args: calls.__setitem__(name, calls[name] + 1) or function(*args)

        monkeypatch.setattr(dsf, "_assemble", counting("assemble", assemble))
        monkeypatch.setattr(metrics, "_dsf_value", counting("line sums", dsf_value))
        config = cli.JobConfig.from_dict({
            "model": {"model": "spin", "S": 200, "omega0": 1.0},
            "families": ["har", "bures", "bkm", "mc", "geometric", "wyd:0.3"],
            "methods": ["oracle", "spectral", "dsf", "seriesA:6"],
            "sweep": {"parameter": "omega0", "grid": [0.25, 0.5, 1.0, 1.5]},
        })
        rows, _ = cli.run_metric_job(config)
        assert len(rows) == 96 and calls == {"assemble": 1, "line sums": 6}

    @staticmethod
    def _stacked_and_single(T, S, cs):
        """The dsf results of every family on one frame of the stack c * T, and on the public single-spectrum route."""
        basis, S = hb.eigendecompose(T), hb.as_operator(S)
        table = dsf._pair_tables(basis, S)[0]
        frame = dsf._Frame(hb._scaled_state(basis, T, cs), S, table)
        for family in map(fam.parse_family, FAMILIES):
            stacked = [result.value for result in metrics._evaluate(frame, family, "dsf")]
            single = [metrics.metric_from_dsf(dsf.build_dsf(hb._scaled_state(basis, T, c), S, centered=True), family).value for c in cs]
            yield frame, family, stacked, single

    @pytest.mark.parametrize("model", [SpinModel(20, 1.0), BosonModel(1, 1.0, 80), BosonModel(2, 1.0, 80)], ids=["spin", "boson-k1", "boson-k2"])
    def test_model_stack_has_each_points_bits(self, model):
        for frame, family, stacked, single in self._stacked_and_single(*model.unit_matrices(), [0.25, 1.0, 3.0, 0.5]):
            assert [members.tolist() for members, _ in frame.centered_dsfs] == [[0, 1, 2, 3]]
            assert stacked == single, family.label

    def test_members_that_keep_different_numbers_of_lines(self):
        # 12 levels spread over 12: at c = 4 and 6 the lines between high levels fall below 1e-16 of the heaviest and go
        rng = np.random.default_rng(12)
        T = np.diag(np.sort(rng.uniform(0.0, 12.0, 12))).astype(complex)
        for frame, family, stacked, single in self._stacked_and_single(T, _gue(rng, 12), [0.1, 4.0, 1.0, 6.0]):
            blocks = [(members.tolist(), Q.omegas.shape) for members, Q in frame.centered_dsfs]
            assert blocks == [([3], (1, 113)), ([1], (1, 127)), ([0, 2], (2, 133))]
            assert stacked == single, family.label  # each row holds one member's lines: no padding moves a bit

    @pytest.mark.parametrize("failure, message", [
        ("nan", "the metric is nan"),
        ("negative", "dsf produced a negative metric: -1.0"),
    ])
    def test_failing_middle_point_is_named(self, tmp_path, monkeypatch, capsys, failure, message):
        dsf_value = metrics._dsf_value

        def failing(Q, family):  # the spin lines sit at +-omega0 at beta = 1
            middle = np.max(Q.omegas, axis=-1) == 1.0
            if failure == "nan":
                return np.where(middle, np.nan, dsf_value(Q, family))
            return metrics._nonnegative(np.where(middle, -1.0, dsf_value(Q, family)), 1.0, "dsf")

        monkeypatch.setattr(metrics, "_dsf_value", failing)
        sizes, stack_rows = [], cli._stack_rows
        monkeypatch.setattr(cli, "_stack_rows", lambda config, routes, labels, *args: sizes.append(len(labels)) or stack_rows(config, routes, labels, *args))
        (tmp_path / "job.json").write_text(json.dumps({
            "model": {"model": "spin", "S": 20, "omega0": 1.0},
            "families": ["bkm"],
            "methods": ["spectral", "dsf"],
            "sweep": {"parameter": "omega0", "grid": [0.5, 1.0, 2.0]},
        }))
        assert main(["sweep", "--config", str(tmp_path / "job.json"), "--out", str(tmp_path / "never.csv")]) == 2
        assert capsys.readouterr().err == f"error: bkm dsf omega0=1: {message}\n"
        assert sizes == [3, 1, 1] and not (tmp_path / "never.csv").exists()
