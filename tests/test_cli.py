"""Batch CLI tests: job configs, output contracts, determinism."""

import csv
import json

import numpy as np
import pytest

from gibbsqfi import cli, dsf, families as fam, hilbert as hb, metrics
from gibbsqfi.cli import main
from gibbsqfi.inequalities import random_instance
from gibbsqfi.models import SpinModel, spin_build


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


SPIN_SWEEP = {
    "model": {"model": "spin", "S": 0.5, "omega0": 1.0},
    "beta": 1.0,
    "families": ["bkm", "bures", "mc"],
    "methods": ["spectral"],
    "sweep": {"parameter": "omega0", "grid": [0.5, 1.0, 2.0]},
}


class TestMetricJobs:
    def test_sweep_row_count(self, tmp_path):
        config = write_config(tmp_path, SPIN_SWEEP)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 9
        assert {r["family"] for r in rows} == {"bkm", "bures", "mc"}
        assert {r["parameter"] for r in rows} == {"omega0=0.5", "omega0=1", "omega0=2"}

    def test_all_methods_agree_on_qubit(self, tmp_path):
        t_path = tmp_path / "T.json"
        s_path = tmp_path / "S.json"
        hb.write_operator_json(np.diag([0.0, 1.0]).astype(complex), t_path)
        hb.write_operator_json(np.array([[0, 1], [1, 0]], dtype=complex), s_path)
        config = write_config(
            tmp_path,
            {
                "model": {"T": str(t_path), "S": str(s_path)},
                "families": ["mc"],
                "methods": ["oracle", "spectral", "dsf", "seriesA:12", "seriesB:12"],
            },
        )
        out = tmp_path / "table.csv"
        assert main(["metric", "--config", config, "--out", str(out)]) == 0
        values = [float(r["value"]) for r in read_csv(out)]
        assert len(values) == 5
        assert max(values) - min(values) <= 1e-10 * max(values)
        assert values[0] == pytest.approx(0.25, rel=1e-10)

    def test_beta_scales_generator(self, tmp_path):
        t_path = tmp_path / "T.json"
        s_path = tmp_path / "S.json"
        hb.write_operator_json(np.diag([0.0, 1.0]).astype(complex), t_path)
        hb.write_operator_json(np.array([[0, 1], [1, 0]], dtype=complex), s_path)
        base = {
            "model": {"T": str(t_path), "S": str(s_path)},
            "families": ["bkm"],
            "methods": ["spectral"],
        }
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["metric", "--config", write_config(tmp_path, dict(base, beta=2.0), "a.json"), "--out", str(out_a)])
        hb.write_operator_json(np.diag([0.0, 2.0]).astype(complex), t_path)
        main(["metric", "--config", write_config(tmp_path, base, "b.json"), "--out", str(out_b)])
        assert read_csv(out_a)[0]["value"] == read_csv(out_b)[0]["value"]

    def test_pair_family_expands(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "model": {"model": "spin", "S": 0.5, "omega0": 1.0},
                "families": ["pair:0.25"],
                "methods": ["spectral"],
            },
        )
        out = tmp_path / "pair.csv"
        assert main(["metric", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["family"] for r in rows] == ["pdiff:0.25", "pdiff:0.75"]

    def test_missing_matrix_file_exits_2_without_output(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"model": {"T": "missing_T.json", "S": "missing_S.json"}, "families": ["bkm"]},
        )
        out = tmp_path / "never.csv"
        assert main(["metric", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()
        assert "matrix file" in capsys.readouterr().err

    def test_invalid_config_diagnostics(self, tmp_path, capsys):
        config = write_config(tmp_path, {"model": {}, "families": [], "beta": -1})
        assert main(["metric", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "beta" in err and "families" in err

    @pytest.mark.parametrize("beta", ["1e400", "-1e400", "NaN", "Infinity", "true", "false"])
    def test_non_finite_or_boolean_beta_exits_2(self, tmp_path, capsys, beta):
        # json reads 1e400 as inf and NaN as nan; true would pass as 1.0
        path = tmp_path / "job.json"
        path.write_text(
            '{"model": {"model": "spin", "S": 0.5, "omega0": 1.0},'
            f' "families": ["bkm"], "beta": {beta}}}'
        )
        assert main(["metric", "--config", str(path)]) == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("command", ["metric", "moments", "model"])
    def test_overflowing_beta_times_generator_exits_2(self, tmp_path, capsys, command):
        # beta is finite, but beta * T overflows to inf for the spin S=2 model
        config = write_config(
            tmp_path,
            {
                "model": {"model": "spin", "S": 2, "omega0": 1.0},
                "beta": 1e308,
                "families": ["bkm"],
                "methods": ["spectral"],
            },
        )
        assert main([command, "--config", config]) == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out.lower()
        assert "non-finite" in captured.err

    def test_malformed_matrix_cell_exits_2(self, tmp_path, capsys):
        t_path = tmp_path / "T.json"
        s_path = tmp_path / "S.json"
        t_path.write_text(json.dumps({"dim": 2, "entries": [[[0.0, 0.0], [1.0]], [[0.0, 0.0], [1.0, 0.0]]]}))
        hb.write_operator_json(np.array([[0, 1], [1, 0]], dtype=complex), s_path)
        config = write_config(
            tmp_path, {"model": {"T": str(t_path), "S": str(s_path)}, "families": ["bkm"]}
        )
        assert main(["metric", "--config", config]) == 2
        assert "bad matrix file" in capsys.readouterr().err

    def test_non_list_fields_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "model": {"model": "spin", "S": 0.5, "omega0": 1.0},
                "families": "bkm",
                "methods": "spectral",
            },
        )
        assert main(["metric", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "must be a list" in err

    def test_sweep_requires_sweep_section(self, tmp_path):
        config = write_config(
            tmp_path,
            {"model": {"model": "spin", "S": 0.5, "omega0": 1.0}, "families": ["bkm"]},
        )
        assert main(["sweep", "--config", config]) == 2

    def test_json_format(self, tmp_path):
        config = write_config(tmp_path, SPIN_SWEEP)
        out = tmp_path / "rows.json"
        assert main(["sweep", "--config", config, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 9
        assert payload["warnings"] == []

    def test_thread_cap_keeps_output_canonical(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, SPIN_SWEEP)
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        main(["sweep", "--config", config, "--out", str(serial)])
        monkeypatch.setenv("QFI_NUM_THREADS", "4")
        main(["sweep", "--config", config, "--out", str(threaded)])
        assert serial.read_bytes() == threaded.read_bytes()


GOLDEN_METHODS = ["oracle", "spectral", "dsf", "seriesA:3", "seriesA:6", "seriesB:4"]
GOLDEN_FAMILIES = list(fam.named_families().values())


def _per_call(state, S, family, method_spec):
    base, _, arg = method_spec.partition(":")
    if base == "oracle":
        return metrics.metric_mc_oracle(state, S, family)
    if base == "spectral":
        return metrics.metric_spectral(state, S, family)
    if base == "dsf":
        return metrics.metric_from_dsf(dsf.build_dsf(state, S), family)
    series = metrics.metric_series_A if base == "seriesA" else metrics.metric_series_B
    return series(state, S, family, int(arg))


def _reference_series(state, S, family, L, odd):
    """The series in its first form: thermal averages, the Duhamel product
    for the BKM base, and tr(rho R_q S) at every moment order."""
    s = hb.as_operator(S).matrix
    mean = hb.thermal_average(state, S)
    if odd:
        base = dsf.bogoliubov_duhamel(state, S, S) - mean ** 2
    else:
        base = hb.thermal_average(state, s @ s) - mean ** 2
    coeffs = fam.taylor_coeffs(family, "g" if odd else "g_hat", L)
    T, rho, R = state.generator_matrix(), state.rho_matrix(), s
    total = 0.25 * base
    for q in range(1, 2 * L - odd + 1):
        R = T @ R - R @ T
        if q % 2 == odd:
            moment = (-1.0) ** q * np.trace(rho @ R @ s).real
            total += 0.25 * 0.5 ** q * coeffs[(q + odd) // 2 - 1] * moment
    return total


class TestSharedFrame:
    """One frame per sweep point gives the per-call metric_* results, and
    the series match their first form to 1e-13 relative."""

    def _check_against_per_call(self, config, points):
        rows, _ = cli.run_metric_job(cli.JobConfig.from_dict(config))
        assert len(rows) == len(points) * len(GOLDEN_FAMILIES) * len(GOLDEN_METHODS)
        rows = iter(rows)
        for T, S, parameter in points:
            state = hb.gibbs_state(T)
            for family in GOLDEN_FAMILIES:
                for method in GOLDEN_METHODS:
                    row = next(rows)
                    result = _per_call(state, S, family, method)
                    assert (row["family"], row["parameter"], row["method"]) == (family.label, parameter, method)
                    assert row["value"] == pytest.approx(result.value, rel=1e-13, abs=0.0)
                    truncation = result.diagnostics.truncation
                    assert row["L"] == ("" if truncation is None else truncation)
                    assert row["radius_ok"] == result.diagnostics.convergence_radius_ok
                    base, _, arg = method.partition(":")
                    if arg:
                        odd = int(base == "seriesA")
                        reference = _reference_series(state, S, family, int(arg), odd)
                        assert row["value"] == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_spin_sweep_matches_per_call(self):
        grid = [0.25, 1.0, 3.0]
        config = {
            "model": {"model": "spin", "S": 20, "omega0": 1.0},
            "beta": 0.8,
            "families": [f.label for f in GOLDEN_FAMILIES],
            "methods": GOLDEN_METHODS,
            "sweep": {"parameter": "omega0", "grid": grid},
        }
        points = []
        for omega0 in grid:
            T, S = spin_build(SpinModel(20.0, omega0))
            points.append((hb.HermitianOperator(0.8 * T.matrix), S, f"omega0={omega0:g}"))
        self._check_against_per_call(config, points)

    def test_matrix_file_beta_sweep_matches_per_call(self, tmp_path):
        T, S = random_instance(np.random.default_rng(5), 12, spread=4.0)
        hb.write_operator_json(T, tmp_path / "T.json")
        hb.write_operator_json(S, tmp_path / "S.json")
        T, _ = hb.read_operator_json(tmp_path / "T.json")
        S, _ = hb.read_operator_json(tmp_path / "S.json")
        grid = [0.5, 2.0]
        config = {
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": [f.label for f in GOLDEN_FAMILIES],
            "methods": GOLDEN_METHODS,
            "sweep": {"parameter": "beta", "grid": grid},
        }
        points = [(hb.HermitianOperator(b * T.matrix), S, f"beta={b:g}") for b in grid]
        self._check_against_per_call(config, points)

    def test_one_rotation_per_point_and_one_read_per_job(self, tmp_path, monkeypatch):
        T, S = random_instance(np.random.default_rng(6), 6, spread=2.0)
        hb.write_operator_json(T, tmp_path / "T.json")
        hb.write_operator_json(S, tmp_path / "S.json")
        calls = {"rotate": 0, "read": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(metrics, "to_eigenbasis", counting("rotate", hb.to_eigenbasis))
        monkeypatch.setattr(dsf, "to_eigenbasis", counting("rotate", hb.to_eigenbasis))
        monkeypatch.setattr(cli, "read_operator_json", counting("read", hb.read_operator_json))
        config = {
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": [f.label for f in GOLDEN_FAMILIES],
            "methods": GOLDEN_METHODS,
            "sweep": {"parameter": "beta", "grid": [0.5, 1.0, 2.0]},
        }
        rows, _ = cli.run_metric_job(cli.JobConfig.from_dict(config))
        assert len(rows) == 3 * len(GOLDEN_FAMILIES) * len(GOLDEN_METHODS)
        assert calls == {"rotate": 3, "read": 2}


class TestVerify:
    def test_passes_and_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--seed", "42", "--trials", "40", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["failures"] == []
        assert report["trials"] == 40

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["verify", "--seed", "99", "--trials", "15", "--out", str(out_a)])
        main(["verify", "--seed", "99", "--trials", "15", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_zero_trials_usage_error(self):
        assert main(["verify", "--seed", "1", "--trials", "0"]) == 2


class TestMoments:
    def test_table(self, tmp_path):
        config = write_config(
            tmp_path,
            {"model": {"model": "spin", "S": 0.5, "omega0": 1.0}, "families": ["bkm"]},
        )
        out = tmp_path / "moments.csv"
        assert main(["moments", "--config", config, "--pmax", "4", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [int(r["p"]) for r in rows] == [0, 1, 2, 3, 4]
        assert all(float(r["rel_error"]) <= 1e-9 for r in rows)


class TestModelExport:
    def test_writes_matrices(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"model": {"model": "boson", "k": 1, "omega": 1.0, "cutoff": 40}, "families": ["bkm"]},
        )
        prefix = tmp_path / "boson"
        assert main(["model", "--config", config, "--out", str(prefix)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dim"] == 41
        loaded, asym = hb.read_operator_json(f"{prefix}_T.json")
        assert asym == 0.0
        assert loaded.dim == 41
