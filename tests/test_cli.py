"""Batch CLI tests: job configs, output contracts, determinism."""

import csv
import json
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from gibbsqfi import cli, dsf, families as fam, hilbert as hb, metrics
from gibbsqfi.cli import main
from gibbsqfi.inequalities import random_instance
from gibbsqfi.models import BosonModel, SpinModel, build_model


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

OVERFLOW_SPIN = {
    "model": {"model": "spin", "S": 3, "omega0": 2.0},
    "families": ["bkm"],
    "methods": ["seriesA:600"],
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

    @pytest.mark.parametrize("text, problem", [
        ("pair:2", "pair requires d in [0, 3/2]"),
        ("pair", "pair requires d in [0, 3/2]"),
        ("pair:x", "bad family parameter in 'pair:x'"),
        ("pair:", "bad family parameter in 'pair:'"),
    ])
    def test_malformed_pair_identifier_exits_2(self, tmp_path, capsys, text, problem):
        config = write_config(tmp_path, {"model": {"model": "spin", "S": 0.5, "omega0": 1.0}, "families": [text, "bkm"]})
        assert main(["metric", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: invalid config:\n  families: {problem}\n"

    @pytest.mark.parametrize("text", ["PAIR:0.3", " pair:0.3 "])
    def test_pair_identifier_is_read_as_parse_family_reads_one(self, tmp_path, capsys, text):
        config = write_config(tmp_path, {"model": {"model": "spin", "S": 0.5, "omega0": 1.0}, "families": [text]})
        assert main(["metric", "--config", config]) == 0
        assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["pdiff:0.2", "pdiff:0.8"]

    @pytest.mark.parametrize("command", ["metric", "sweep", "moments", "model"])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense-T", "diagonal-T"])
    def test_matrix_files_of_different_sizes_exit_2(self, tmp_path, capsys, command, dense):
        T = np.diag([0.0, 1.0, 2.0]).astype(complex)
        if dense:
            T[0, 1] = T[1, 0] = 0.5
        hb.write_operator_json(T, tmp_path / "T.json")
        hb.write_operator_json(np.ones((4, 4), complex), tmp_path / "S.json")
        payload = {
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": ["bkm"],
            "sweep": {"parameter": "beta", "grid": [0.5, 1.0]},
        }
        assert main([command, "--config", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == "error: matrix files: T is 3x3 but S is 4x4\n"

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

    @pytest.mark.parametrize(
        "command, sweep, where",
        [("metric", None, "beta=1e+308"), ("sweep", {"parameter": "beta", "grid": [1.0, 1e308]}, "beta=1e+308")],
    )
    def test_beta_past_double_range_exits_2(self, tmp_path, capsys, command, sweep, where):
        # every entry of 1e308 * S_z is finite for S=1, but its spectral
        # range 2e308 is not; this printed six nan rows with exit 0
        payload = {
            "model": {"model": "spin", "S": 1, "omega0": 1.0},
            "beta": 1e308,
            "families": ["bkm", "mc"],
            "methods": ["oracle", "spectral", "dsf"],
        }
        if sweep is not None:
            payload = {**payload, "beta": 1.0, "sweep": sweep}
        out = tmp_path / "never.csv"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: beta * T at {where}: ")
        assert "non-finite" in err

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("command", ["metric", "moments", "model"])
    def test_nan_eigendecomposition_exits_2(self, tmp_path, capsys, command):
        # the entries are finite, but the top eigenvalue 2.4e308 of this T
        # is not, so its residual is nan; this printed nan with exit 0
        hb.write_operator_json(np.full((3, 3), 8e307, dtype=complex), tmp_path / "T.json")
        hb.write_operator_json(np.eye(3, dtype=complex), tmp_path / "S.json")
        payload = {
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": ["bkm"],
            "methods": ["spectral"],
        }
        assert main([command, "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: T: eigendecomposition residual nan exceeds 1e-10 * |H|\n"

    def test_nan_metric_exits_2(self, tmp_path, capsys, monkeypatch):
        # the routes form every term from log weights, and the input that
        # made the structure-factor route read nan (beta = 1e308 for S=1/2)
        # is now rejected as a range (test_range_past_half_the_double_range_exits_2);
        # a route that reads nan still exits 2
        monkeypatch.setattr(metrics, "_dsf_value", lambda Q, family: math.nan)
        payload = {
            "model": {"model": "spin", "S": 0.5, "omega0": 1.0},
            "families": ["mc"],
            "methods": ["oracle", "spectral", "dsf"],
        }
        out = tmp_path / "never.csv"
        assert main(["metric", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: mc dsf: the metric is nan\n"

    def test_range_past_half_the_double_range_exits_2(self, tmp_path, capsys):
        # the range 1e308 of beta * T is finite for S=1/2, but the filters
        # read gaps up to twice it; this printed 0.0 for MC by the oracle
        # and the spectral route, and nan by the structure factor
        payload = {
            "model": {"model": "spin", "S": 0.5, "omega0": 1.0},
            "beta": 1e308,
            "families": ["mc"],
            "methods": ["oracle", "spectral", "dsf"],
        }
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["metric", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: beta * T at beta=1e+308: twice the spectral range 1e+308 of c * T is non-finite\n"
        )

    def test_wide_spin_routes_agree_for_every_family(self, tmp_path):
        # spectral range 600: g_{pdiff:-0.7} reaches about e^600 at x = 300,
        # where its direct sinh product used to overflow to a nan metric
        payload = {
            "model": {"model": "spin", "S": 200, "omega0": 1.5},
            "families": ["pdiff:-0.7", "pair:1.2"],
            "methods": ["spectral", "dsf"],
        }
        out = tmp_path / "table.csv"
        assert main(["metric", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["family"] for r in rows] == ["pdiff:-0.7"] * 4 + ["pdiff:1.7"] * 2
        for spectral, dsf_row in zip(rows[::2], rows[1::2]):
            assert (spectral["method"], dsf_row["method"]) == ("spectral", "dsf")
            a, b = float(spectral["value"]), float(dsf_row["value"])
            assert np.isfinite(a) and abs(a - b) <= 1e-10 * abs(a)

    def test_uncoupled_infinite_filters_keep_the_metric_finite(self, tmp_path):
        # spectral range 740: g_har is inf on far pairs, which S_x does not
        # couple; inf * 0 there used to make the spectral metric nan
        payload = {
            "model": {"model": "spin", "S": 200, "omega0": 1.85},
            "families": ["har", "bkm", "mc"],
            "methods": ["oracle", "spectral", "dsf"],
        }
        out = tmp_path / "table.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["metric", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        # weights past double range underflow silently; nothing overflows or is invalid
        assert [str(w.message) for w in caught] == []
        rows = read_csv(out)
        for family in ("har", "bkm", "mc"):
            values = [float(r["value"]) for r in rows if r["family"] == family]
            assert [r["method"] for r in rows if r["family"] == family] == ["oracle", "spectral", "dsf"]
            assert np.all(np.isfinite(values)) and max(values) - min(values) <= 1e-10 * max(values)

    @pytest.mark.parametrize("spread", [450.0, 600.0, 680.0])
    def test_negative_power_oracle_past_the_exprel_range(self, tmp_path, spread):
        # log-weight gaps past 709/(1 - p) = 417 for p = -0.7: exprel((p - 1) u)
        # alone underflows there, and the oracle used to divide by the 0
        T, S = random_instance(np.random.default_rng(1), 6, spread=spread)
        hb.write_operator_json(T, tmp_path / "T.json")
        hb.write_operator_json(S, tmp_path / "S.json")
        payload = {
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": ["pdiff:-0.7"],
            "methods": ["oracle", "spectral", "dsf"],
        }
        out = tmp_path / "table.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["metric", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["method"] for r in rows] == ["oracle", "spectral", "dsf"]
        values = [float(r["value"]) for r in rows]
        assert np.all(np.isfinite(values)) and max(values) - min(values) <= 1e-10 * max(values)

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

    @pytest.mark.parametrize(
        "model, parameter, message",
        [
            ({"model": "spin", "S": 0.5, "omega0": 1.0}, "omega", "the spin model cannot sweep 'omega'; sweep beta or omega0"),
            ({"model": "boson", "k": 1, "omega": 1.0, "cutoff": 40}, "omega0",
             "the boson model cannot sweep 'omega0'; sweep beta or omega"),
            (None, "omega0", "matrix files cannot sweep 'omega0'; sweep beta"),
            (None, "omega", "matrix files cannot sweep 'omega'; sweep beta"),
        ],
    )
    def test_parameter_the_model_lacks_exits_2(self, tmp_path, capsys, model, parameter, message):
        # such a sweep printed one value for every grid point, labelled with the swept value
        if model is None:
            model = {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")}
            hb.write_operator_json(np.diag([0.0, 1.0]).astype(complex), model["T"])
            hb.write_operator_json(np.array([[0, 1], [1, 0]], dtype=complex), model["S"])
        config = write_config(
            tmp_path,
            {"model": model, "families": ["bkm"], "sweep": {"parameter": parameter, "grid": [0.5, 1.0]}},
        )
        out = tmp_path / "never.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: sweep: {message}\n"

    def test_config_root_not_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text("[1]")
        assert main(["metric", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object, got list\n"

    @pytest.mark.parametrize("payload", ["[1, 2]", '{"dim": null, "entries": []}'])
    def test_matrix_file_not_an_object_with_integer_dim_exits_2(self, tmp_path, capsys, payload):
        t_path = tmp_path / "T.json"
        s_path = tmp_path / "S.json"
        t_path.write_text(payload)
        hb.write_operator_json(np.array([[0, 1], [1, 0]], dtype=complex), s_path)
        config = write_config(
            tmp_path, {"model": {"T": str(t_path), "S": str(s_path)}, "families": ["bkm"]}
        )
        assert main(["metric", "--config", config]) == 2
        assert "bad matrix file" in capsys.readouterr().err

    def test_empty_method_argument_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"model": {"model": "spin", "S": 0.5, "omega0": 1.0}, "families": ["bkm"], "methods": ["oracle:"]},
        )
        assert main(["metric", "--config", config]) == 2
        assert "method 'oracle' takes no argument" in capsys.readouterr().err

    def test_sweep_requires_sweep_section(self, tmp_path):
        config = write_config(
            tmp_path,
            {"model": {"model": "spin", "S": 0.5, "omega0": 1.0}, "families": ["bkm"]},
        )
        assert main(["sweep", "--config", config]) == 2

    @pytest.mark.parametrize(
        "parameter, grid, bad",
        [
            ("beta", "[1.0, -1.0, 0.0]", ["-1.0", "0.0"]),
            ("omega0", "[1.0, NaN]", ["nan"]),
            ("omega0", '[1.0, "abc"]', ["'abc'"]),
            ("omega0", "[true, 1e400]", ["True", "inf"]),
        ],
    )
    def test_bad_sweep_grid_value_exits_2(self, tmp_path, capsys, parameter, grid, bad):
        # each bad value is one problem line; none of them reaches a sweep point
        path = tmp_path / "job.json"
        path.write_text(
            '{"model": {"model": "spin", "S": 0.5, "omega0": 1.0}, "families": ["bkm"],'
            f' "sweep": {{"parameter": "{parameter}", "grid": {grid}}}}}'
        )
        out = tmp_path / "never.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        problems = [line for line in capsys.readouterr().err.splitlines() if "grid value" in line]
        assert [line.split("grid value ")[1].split(" is not")[0] for line in problems] == bad

    def test_series_past_double_range_exits_2(self, tmp_path, capsys):
        # seriesA:600 needs M_1..M_1199 and M_1023 overflows
        config = write_config(tmp_path, OVERFLOW_SPIN)
        out = tmp_path / "never.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["metric", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()
        assert "bkm seriesA:600: commutator moment M_1023 is not finite" in capsys.readouterr().err

    def test_series_error_names_the_method_that_reads_the_moment(self, tmp_path, capsys):
        # seriesB:4 reads the chain to M_8 and runs; seriesA:600 then runs it on to M_1023, past double range
        config = write_config(tmp_path, {**OVERFLOW_SPIN, "methods": ["seriesB:4", "seriesA:600"]})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["metric", "--config", config]) == 2
        assert capsys.readouterr().err == "error: bkm seriesA:600: commutator moment M_1023 is not finite (nan)\n"
        alone = write_config(tmp_path, {**OVERFLOW_SPIN, "methods": ["seriesB:4"]}, name="alone.json")
        assert main(["metric", "--config", alone]) == 0

    def test_series_reads_its_chain_before_forming_its_coefficients(self, tmp_path, capsys, monkeypatch):
        # wyd:0.3's exact coefficients take seconds at L = 160, far longer at 600; the chain overflows at M_1023 first
        def never(*args):
            raise AssertionError("series coefficients formed before the commutator chain was read")

        monkeypatch.setattr(fam, "taylor_coeffs", never)
        config = write_config(tmp_path, {**OVERFLOW_SPIN, "families": ["wyd:0.3"]})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["metric", "--config", config]) == 2
        assert "wyd:0.3 seriesA:600: commutator moment M_1023 is not finite" in capsys.readouterr().err

    def test_negative_series_value_exits_2(self, tmp_path, capsys):
        # w_max/2 = 1.5 is inside Bures' radius pi/2, but the terms shrink by
        # only about 0.91 each: seriesB:3 sums to -11.4488 (spectral: 5.02597)
        payload = {"model": {"model": "spin", "S": 100, "omega0": 3.0}, "families": ["bures"], "methods": ["seriesB:3"]}
        out = tmp_path / "never.csv"
        assert main(["metric", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: bures seriesB:3: seriesB produced a negative metric: -11.448810716728918\n"

    def test_json_format(self, tmp_path):
        config = write_config(tmp_path, SPIN_SWEEP)
        out = tmp_path / "rows.json"
        assert main(["sweep", "--config", config, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 9
        assert payload["warnings"] == []

    def test_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        # points run one after another on the calling thread; QFI_NUM_THREADS changes nothing
        config = write_config(tmp_path, {**SPIN_SWEEP, "sweep": {"parameter": "omega0", "grid": [0.5, 1.0, 2.0, 3.0]}})

        def no_thread(thread):
            raise AssertionError(f"the sweep started the thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        plain, capped = tmp_path / "plain.csv", tmp_path / "capped.csv"
        assert main(["sweep", "--config", config, "--out", str(plain)]) == 0
        monkeypatch.setenv("QFI_NUM_THREADS", "4")
        assert main(["sweep", "--config", config, "--out", str(capped)]) == 0
        assert len(read_csv(capped)) == 12
        assert capped.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "model, message",
        [
            # these ran as k = 2 and cutoff 40, as spin 1, and as the numbers 2 and 1
            ({"model": "boson", "k": 2.5, "omega": 1.0, "cutoff": 40}, "boson model: k must be an integer, got 2.5"),
            ({"model": "boson", "k": 2, "omega": 1.0, "cutoff": 40.9}, "boson model: cutoff must be an integer, got 40.9"),
            ({"model": "boson", "k": True, "omega": 1.0, "cutoff": 40}, "boson model: k must be an integer, got True"),
            ({"model": "boson", "k": 2, "omega": "1", "cutoff": 40}, "boson model: omega must be a number, got '1'"),
            ({"model": "boson", "k": 1, "omega": 1.0, "cutoff": math.nan}, "boson model: cutoff must be an integer, got nan"),
            ({"model": "spin", "S": True, "omega0": 1.0}, "spin model: S must be a number, got True"),
            ({"model": "spin", "S": "2", "omega0": 1.0}, "spin model: S must be a number, got '2'"),
            ({"model": "spin", "S": 2, "omega0": "1"}, "spin model: omega0 must be a number, got '1'"),
            ({"model": "spin", "omega0": 1.0}, "spin model: S must be a number, got None"),
        ],
        ids=[
            "boson-k-fraction", "boson-cutoff-fraction", "boson-k-bool", "boson-omega-string", "boson-cutoff-nan",
            "spin-S-bool", "spin-S-string", "spin-omega0-string", "spin-S-missing",
        ],
    )
    def test_loosely_typed_model_field_exits_2(self, tmp_path, capsys, model, message):
        config = write_config(tmp_path, {"model": model, "families": ["bkm"]})
        out = tmp_path / "never.csv"
        assert main(["metric", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integral_float_fields_are_read_as_integers(self, tmp_path):
        # 2.0 and 40.0 are the JSON numbers 2 and 40
        rows = []
        for k, cutoff in ((2, 40), (2.0, 40.0)):
            config = write_config(tmp_path, {"model": {"model": "boson", "k": k, "omega": 1.0, "cutoff": cutoff}, "families": ["bkm"]})
            out = tmp_path / "table.csv"
            assert main(["metric", "--config", config, "--out", str(out)]) == 0
            rows.append(read_csv(out))
        assert rows[0] == rows[1]

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"model": "spin", "S": 2, "omega0": math.nan}, "spin model: omega0 must be positive and finite"),
            ({"model": "spin", "S": 2, "omega0": math.inf}, "spin model: omega0 must be positive and finite"),
            ({"model": "spin", "S": math.nan, "omega0": 1.0}, "spin model: s must be a half-integer >= 1/2"),
            ({"model": "spin", "S": math.inf, "omega0": 1.0}, "spin model: s must be a half-integer >= 1/2"),
            ({"model": "boson", "k": 1, "omega": math.nan, "cutoff": 40}, "boson model: omega must be positive and finite"),
            ({"model": "boson", "k": 1, "omega": math.inf, "cutoff": 40}, "boson model: omega must be positive and finite"),
            # np.arange refuses the 2e300 + 1 levels before it allocates anything
            ({"model": "spin", "S": 1e300, "omega0": 1.0}, "spin model: Maximum allowed size exceeded"),
            # 2e15 + 1 levels of 8 bytes are past any 48-bit address space: refused before anything is allocated
            (
                {"model": "spin", "S": 1e15, "omega0": 1.0},
                "spin model: Unable to allocate 14.2 PiB for an array with shape (2000000000000001,) and data type int64",
            ),
            # and the boson's 10^15 + 1 levels, which its Gibbs tail check once allocated in the model itself
            (
                {"model": "boson", "k": 1, "omega": 1.0, "cutoff": 10**15},
                "boson model: Unable to allocate 7.11 PiB for an array with shape (1000000000000001,) and data type int64",
            ),
        ],
        ids=[
            "spin-omega0-nan", "spin-omega0-inf", "spin-S-nan", "spin-S-inf", "boson-omega-nan", "boson-omega-inf",
            "spin-S-1e300", "spin-S-1e15", "boson-cutoff-1e15",
        ],
    )
    def test_model_parameter_the_model_rejects_exits_2(self, tmp_path, capsys, model, message):
        # json writes NaN and Infinity, and reads them back as floats
        config = write_config(tmp_path, {"model": model, "families": ["bkm"]})
        out = tmp_path / "never.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["metric", "--config", config, "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"


class TestLargeModels:
    """A spin or boson job holds its operators as bands: no array of dim^2 entries is made, so dims of 10^5 run."""

    @pytest.mark.parametrize("model", [
        {"model": "spin", "S": 100000, "omega0": 1.0},
        {"model": "boson", "k": 1, "omega": 1.0, "cutoff": 100000},
    ], ids=["spin-S-100000", "boson-cutoff-100000"])
    def test_routes_agree(self, tmp_path, model):
        config = write_config(tmp_path, {
            "model": model,
            "families": ["mc", "bkm", "bures", "har", "wyd:0.3", "pdiff:-0.7"],
            "methods": ["oracle", "spectral", "dsf"],
        })
        out = tmp_path / "table.csv"
        assert main(["metric", "--config", config, "--out", str(out)]) == 0
        values = {}
        for row in read_csv(out):
            values.setdefault(row["family"], []).append(float(row["value"]))
        assert len(values) == 6
        for family, routes in values.items():
            assert len(routes) == 3 and max(routes) - min(routes) <= 1e-10 * max(routes), (family, routes)

    @pytest.mark.parametrize("model, parameter, grid", [
        ({"model": "spin", "S": 200, "omega0": 1.0}, "omega0", [0.25, 0.5, 1.0, 1.5]),
        ({"model": "boson", "k": 2, "omega": 1.0, "cutoff": 200}, "omega", [1.0, 0.5, 1.5, 2.0]),
    ], ids=["spin-401", "boson-201"])
    def test_sweep_allocates_less_than_one_dense_matrix(self, model, parameter, grid):
        config = cli.JobConfig.from_dict({
            "model": model,
            "families": ["har", "bures", "bkm", "mc", "geometric", "wyd:0.3"],
            "methods": ["oracle", "spectral", "dsf", "seriesA:6"],
            "sweep": {"parameter": parameter, "grid": grid},
        })
        dim = cli._point_model(config.model).dim
        cli.run_metric_job(config)  # the first job fills the series coefficient cache
        tracemalloc.start()
        try:
            cli.run_metric_job(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim**2 * np.dtype(complex).itemsize


def test_sweep_labels_tell_distinct_points_apart():
    # :g keeps 6 significant digits: it printed beta=1 twice and beta=1.23457e+08 twice
    config = cli.JobConfig.from_dict({
        "model": {"model": "spin", "S": 0.5, "omega0": 1.0},
        "families": ["bkm"],
        "sweep": {"parameter": "beta", "grid": [1.0, 1.0000001, 123456789.0, 123456800.0, 0.25, 2e-07]},
    })
    rows, _ = cli.run_metric_job(config)
    assert [row["parameter"] for row in rows] == [
        "beta=1", "beta=1.0000001", "beta=123456789.0", "beta=123456800.0", "beta=0.25", "beta=2e-07",
    ]


def test_boson_with_weights_past_double_range_exits_2_without_warning(tmp_path, capsys):
    # omega n overflows for n >= 18 at omega = 1e307; the model is valid, the job's generator is not
    config = write_config(tmp_path, {"model": {"model": "boson", "k": 1, "omega": 1e307, "cutoff": 40}, "families": ["bkm"]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["metric", "--config", config, "--out", str(tmp_path / "never.csv")]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: beta * T at beta=1: twice the spectral range inf of c * T is non-finite\n"


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
    T, rho, R = state.generator, state.rho_matrix(), s
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

    def _check_against_per_call(self, config, points, methods=GOLDEN_METHODS):
        rows, _ = cli.run_metric_job(cli.JobConfig.from_dict(config))
        assert len(rows) == len(points) * len(GOLDEN_FAMILIES) * len(methods)
        rows = iter(rows)
        for T, S, parameter in points:
            state = hb.gibbs_state(T)
            for family in GOLDEN_FAMILIES:
                for method in methods:
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
            T, S = build_model(SpinModel(20.0, omega0))
            points.append((hb.HermitianOperator(0.8 * T.matrix), S, f"omega0={omega0:g}"))
        self._check_against_per_call(config, points)

    def test_matrix_file_beta_sweep_matches_per_call(self, tmp_path):
        T, S = random_instance(np.random.default_rng(5), 12, spread=4.0)
        hb.write_operator_json(T, tmp_path / "T.json")
        hb.write_operator_json(S, tmp_path / "S.json")
        T, _ = hb.read_operator_json(tmp_path / "T.json")
        S, _ = hb.read_operator_json(tmp_path / "S.json")
        grid = [0.5, 1.0]  # bures seriesA:3 is negative from beta 1.5
        config = {
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": [f.label for f in GOLDEN_FAMILIES],
            "methods": GOLDEN_METHODS,
            "sweep": {"parameter": "beta", "grid": grid},
        }
        points = [(hb.HermitianOperator(b * T.matrix), S, f"beta={b:g}") for b in grid]
        self._check_against_per_call(config, points)

    def test_degenerate_matrix_file_beta_sweep_matches_per_point(self, tmp_path):
        # a beta grid that is not a power of two, on a T with degenerate levels:
        # the job's c * eigh(T) must match each point's own eigh(c T)
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        levels = np.array([0.0, 0.0, 0.4, 0.4, 0.4, 1.1, 1.9, 1.9, 2.6])
        hb.write_operator_json((q * levels) @ q.conj().T, tmp_path / "T.json")
        hb.write_operator_json(random_instance(rng, 9)[1], tmp_path / "S.json")
        T, _ = hb.read_operator_json(tmp_path / "T.json")
        S, _ = hb.read_operator_json(tmp_path / "S.json")
        assert np.sum(np.abs(np.diff(hb.eigendecompose(T).eigenvalues)) < 1e-10) == 4
        grid = [0.3, 0.7, 1.7]  # bures seriesA:3 is negative at beta 2.3
        methods = ["oracle", "spectral", "dsf", "seriesA:3", "seriesB:4"]
        config = {
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": [f.label for f in GOLDEN_FAMILIES],
            "methods": methods,
            "sweep": {"parameter": "beta", "grid": grid},
        }
        points = [(hb.HermitianOperator(b * T.matrix), S, f"beta={b:g}") for b in grid]
        self._check_against_per_call(config, points, methods)

    def _counted_job(self, monkeypatch, config, checked):
        """Run a job and count its decompositions, rotations, matrix reads and checked operators."""
        calls = {"eigendecompose": 0, "rotate": 0, "read": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, hb):
            monkeypatch.setattr(module, "eigendecompose", counting("eigendecompose", hb.eigendecompose))
        monkeypatch.setattr(dsf, "to_eigenbasis", counting("rotate", hb.to_eigenbasis))
        monkeypatch.setattr(cli, "read_operator_json", counting("read", hb.read_operator_json))
        checked.clear()
        rows, _ = cli.run_metric_job(cli.JobConfig.from_dict(config))
        assert len(rows) == 3 * len(GOLDEN_FAMILIES) * len(GOLDEN_METHODS)
        return {**calls, "checked": len(checked)}

    def test_one_eigh_one_rotation_and_one_read_per_job(self, tmp_path, monkeypatch, checked_operators):
        T, S = random_instance(np.random.default_rng(6), 6, spread=2.0)
        hb.write_operator_json(T, tmp_path / "T.json")
        hb.write_operator_json(S, tmp_path / "S.json")
        config = {
            "model": {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")},
            "families": [f.label for f in GOLDEN_FAMILIES],
            "methods": GOLDEN_METHODS,
            "sweep": {"parameter": "beta", "grid": [0.5, 1.0, 2.0]},
        }
        # the reader checks each file's matrix, and nothing checks it again
        assert self._counted_job(monkeypatch, config, checked_operators) == {
            "eigendecompose": 1, "rotate": 1, "read": 2, "checked": 2,
        }

    @pytest.mark.parametrize(
        "model, parameter",
        [
            ({"model": "spin", "S": 6, "omega0": 1.0}, "omega0"),
            ({"model": "boson", "k": 2, "omega": 1.0, "cutoff": 50}, "omega"),
        ],
    )
    def test_model_sweep_builds_matrices_once(self, monkeypatch, checked_operators, model, parameter):
        built = []
        for cls in (SpinModel, BosonModel):
            unit_matrices = cls.unit_matrices
            monkeypatch.setattr(cls, "unit_matrices", lambda self, f=unit_matrices: built.append(self) or f(self))
        config = {
            "model": model,
            "beta": 0.7,
            "families": [f.label for f in GOLDEN_FAMILIES],
            "methods": GOLDEN_METHODS,
            # the boson's bures seriesA:3 is negative at omega 2.9
            "sweep": {"parameter": parameter, "grid": [0.8, 1.3, 2.3]},
        }
        # the model matrices are exactly Hermitian, so none is checked; the
        # generator is diagonal, so its basis is a sort and S is not rotated
        assert self._counted_job(monkeypatch, config, checked_operators) == {
            "eigendecompose": 1, "rotate": 0, "read": 0, "checked": 0,
        }
        assert len(built) == 1

    @pytest.mark.parametrize(
        "model, parameter, grid, message",
        [
            ({"model": "spin", "S": 2, "omega0": 1.0}, "omega0", [1.0, -1.0], "spin model: omega0 must be positive"),
            # the Gibbs tail exp(-omega * 30)/Z is 5e-8 at omega = 0.56
            ({"model": "boson", "k": 1, "omega": 1.0, "cutoff": 30}, "omega", [1.0, 0.56],
             "boson model: cutoff 30 too small: Gibbs tail"),
        ],
    )
    def test_grid_value_the_model_rejects_exits_2(self, tmp_path, capsys, model, parameter, grid, message):
        config = write_config(
            tmp_path,
            {"model": model, "families": ["bkm"], "sweep": {"parameter": parameter, "grid": grid}},
        )
        out = tmp_path / "never.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {message}")


def _eigh_decomposition(T):
    """T's decomposition by eigh, the path every generator took before a diagonal one was sorted."""
    return hb.SpectralDecomposition(*np.linalg.eigh(hb.as_operator(T).matrix))


def _diagonal_matrix_files(tmp_path, levels):
    """A diagonal T of the given levels, in a shuffled order with -0.0 off the diagonal, and a dense S."""
    rng = np.random.default_rng(22)
    t = np.diag(rng.permutation(levels)).astype(complex)
    t[0, 4] = t[4, 0] = -0.0
    hb.write_operator_json(t, tmp_path / "T.json")
    hb.write_operator_json(random_instance(rng, 9)[1], tmp_path / "S.json")
    return {"T": str(tmp_path / "T.json"), "S": str(tmp_path / "S.json")}


class TestDiagonalGenerator:
    """A diagonal T is sorted, never passed to eigh, and writes the bytes of the eigh path."""

    @pytest.mark.parametrize(
        "model, parameter, methods",
        [
            ({"model": "spin", "S": 200, "omega0": 1.0}, "omega0", ["oracle", "spectral", "dsf", "seriesA:6"]),
            ({"model": "boson", "k": 1, "omega": 1.0, "cutoff": 40}, "beta", ["oracle", "spectral", "dsf", "seriesB:4"]),
            ({"model": "boson", "k": 2, "omega": 1.0, "cutoff": 40}, "beta", ["oracle", "spectral", "dsf", "seriesB:4"]),
            ("matrix-files", "beta", ["oracle", "spectral", "dsf", "seriesA:3"]),
        ],
        ids=["spin-S200", "boson-k1", "boson-k2", "matrix-files"],
    )
    def test_sweep_runs_no_eigh(self, tmp_path, monkeypatch, model, parameter, methods):
        if model == "matrix-files":
            model = _diagonal_matrix_files(tmp_path, [0.0, 0.25, 0.4, 0.7, -1.1, 1.9, 2.6, 3.1, -0.3])
        reference, sorted_ = self._eigh_and_sorted(tmp_path, monkeypatch, model, parameter, methods)
        assert len(read_csv(sorted_)) == 3 * 7 * len(methods)
        assert sorted_.read_bytes() == reference.read_bytes()

    def test_tied_levels_match_eigh_to_1e13(self, tmp_path, monkeypatch):
        # eigh orders tied levels as LAPACK does, the sort by index, so the
        # pairs are summed in another order and the rows move by rounding
        model = _diagonal_matrix_files(tmp_path, [0.0, 0.0, 0.4, 0.4, 0.4, -1.1, 1.9, 1.9, 2.6])
        methods = ["oracle", "spectral", "dsf", "seriesA:3"]
        reference, sorted_ = self._eigh_and_sorted(tmp_path, monkeypatch, model, "beta", methods)
        expected, rows = read_csv(reference), read_csv(sorted_)
        assert [r["method"] for r in rows] == [r["method"] for r in expected] and len(rows) == 3 * 7 * len(methods)
        for row, want in zip(rows, expected):
            assert float(row["value"]) == pytest.approx(float(want["value"]), rel=1e-13, abs=0.0)

    @staticmethod
    def _eigh_and_sorted(tmp_path, monkeypatch, model, parameter, methods):
        """The tables of one sweep by eigh and then with eigh forbidden."""
        config = write_config(tmp_path, {
            "model": model,
            "families": ["har", "bures", "bkm", "mc", "geometric", "wyd:0.3", "pdiff:1.3"],
            "methods": methods,
            # bures seriesA:3 on the matrix files is negative at beta 1.5
            "sweep": {"parameter": parameter, "grid": [0.5, 1.0, 1.25]},
        })
        reference, sorted_ = tmp_path / "eigh.csv", tmp_path / "sorted.csv"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "eigendecompose", _eigh_decomposition)
            assert main(["sweep", "--config", config, "--out", str(reference)]) == 0
        monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: pytest.fail("a diagonal T reached eigh"))
        assert main(["sweep", "--config", config, "--out", str(sorted_)]) == 0
        return reference, sorted_


def _must_not_run(*args, **kwargs):
    raise AssertionError("the job ran although its settings are invalid")


class TestOutputSettings:
    @pytest.mark.parametrize(
        "output, problem",
        [
            ("x.csv", "output: must be an object"),
            (["x.csv"], "output: must be an object"),
            ({"format": "xml"}, "output: format must be csv or json"),
            ({"path": 3}, "output: path must be a string"),
        ],
    )
    @pytest.mark.parametrize("command", ["metric", "moments"])
    def test_bad_output_exits_2_before_running(self, tmp_path, capsys, monkeypatch, output, problem, command):
        for name in ("run_metric_job", "sum_rule_report", "_resolve_model"):
            monkeypatch.setattr(cli, name, _must_not_run)
        config = write_config(tmp_path, {**SPIN_SWEEP, "output": output})
        assert main([command, "--config", config]) == 2
        assert problem in capsys.readouterr().err

    def test_unwritable_config_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rows.csv"
        config = write_config(tmp_path, {**SPIN_SWEEP, "output": {"path": str(out)}})
        assert main(["sweep", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    def test_config_output_is_used(self, tmp_path):
        out = tmp_path / "rows.json"
        config = write_config(tmp_path, {**SPIN_SWEEP, "output": {"path": str(out), "format": "json"}})
        assert main(["sweep", "--config", config]) == 0
        assert len(json.loads(out.read_text())["rows"]) == 9


class TestVerify:
    def test_passes_and_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--seed", "42", "--trials", "40", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["failures"] == []
        assert report["trials"] == 40

    def test_checks_no_operator(self, tmp_path, checked_operators):
        # the drawn matrices are exactly Hermitian, so no trial checks them
        assert main(["verify", "--seed", "5", "--trials", "40", "--out", str(tmp_path / "r.json")]) == 0
        assert checked_operators == []

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["verify", "--seed", "99", "--trials", "15", "--out", str(out_a)])
        main(["verify", "--seed", "99", "--trials", "15", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # exit 1 means a failed check, so an output error must not read as one
        out = tmp_path / "missing" / "r.json"
        assert main(["verify", "--trials", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    def test_zero_trials_usage_error(self):
        assert main(["verify", "--seed", "1", "--trials", "0"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--seed", "-1", "--trials", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: --seed")

    def test_csv_format_rejected_before_running(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verification_suite", _must_not_run)
        out = tmp_path / "report.csv"
        assert main(["verify", "--trials", "300", "--format", "csv", "--out", str(out)]) == 2
        assert "JSON only" in capsys.readouterr().err
        assert not out.exists()


SPIN_JOB = {"model": {"model": "spin", "S": 1, "omega0": 1.0}, "families": ["bkm"]}


class TestUsageErrors:
    """Each usage error exits 2 with its one error message and writes nothing."""

    @pytest.mark.parametrize("changes, problem", [
        ({"methods": ["nosuch"]}, "methods: unknown method 'nosuch'"),
        ({"methods": ["seriesA:x"]}, "methods: method 'seriesA:x': truncation L must be an integer"),
        ({"methods": ["seriesA:0"]}, "methods: method 'seriesA:0': truncation L must be >= 1"),
        ({"model": "spin"}, "model: required object (model spec or matrix paths)"),
        ({"model": ["spin", 1, 1.0]}, "model: required object (model spec or matrix paths)"),
        ({"sweep": {"parameter": "beta"}}, "sweep: needs {'parameter': name, 'grid': [values...]}"),
        ({"sweep": {"grid": [1.0]}}, "sweep: needs {'parameter': name, 'grid': [values...]}"),
        ({"sweep": {"parameter": "beta", "grid": []}}, "sweep: needs {'parameter': name, 'grid': [values...]}"),
        ({"sweep": [0.5, 1.0]}, "sweep: needs {'parameter': name, 'grid': [values...]}"),
    ], ids=["method-nosuch", "series-L-x", "series-L-0", "model-string", "model-list", "sweep-no-grid", "sweep-no-parameter",
            "sweep-empty-grid", "sweep-list"])
    def test_invalid_config_field(self, tmp_path, capsys, changes, problem):
        config = write_config(tmp_path, {**SPIN_JOB, **changes})
        out = tmp_path / "never.csv"
        assert main(["metric", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: invalid config:\n  {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metric", "sweep", "moments", "model"])
    def test_command_without_config(self, tmp_path, capsys, command):
        out = tmp_path / "never.csv"
        assert main([command, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --config is required for this subcommand\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["metric", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: config file not found: {path}\n"

    @pytest.mark.parametrize("text", ["{not json", "", '{"model": {"model": "spin"},}', "[1, 2"])
    def test_config_that_is_not_json(self, tmp_path, capsys, text):
        path = tmp_path / "job.json"
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as raised:
            json.loads(text)
        assert main(["metric", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: config is not valid JSON: {raised.value}\n"


class TestMoments:
    def test_json_rows_are_the_csv_rows(self, tmp_path):
        config = write_config(tmp_path, SPIN_JOB)
        csv_out, json_out = tmp_path / "moments.csv", tmp_path / "moments.json"
        assert main(["moments", "--config", config, "--pmax", "5", "--out", str(csv_out)]) == 0
        assert main(["moments", "--config", config, "--pmax", "5", "--format", "json", "--out", str(json_out)]) == 0
        rows = json.loads(json_out.read_text())["rows"]
        assert [row["p"] for row in rows] == list(range(6))
        # csv writes each number as its repr, which json reads back to the same float
        assert [{key: str(value) for key, value in row.items()} for row in rows] == read_csv(csv_out)

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

    def test_negative_pmax_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"model": {"model": "spin", "S": 0.5, "omega0": 1.0}, "families": ["bkm"]},
        )
        out = tmp_path / "never.csv"
        assert main(["moments", "--config", config, "--pmax", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "--pmax" in capsys.readouterr().err

    def test_degenerate_coupled_pair_exits_2(self, tmp_path, capsys):
        # S couples the degenerate levels 0 and 1 of T, so M_{-1} diverges
        t_path = tmp_path / "T.json"
        s_path = tmp_path / "S.json"
        hb.write_operator_json(np.diag([0.0, 0.0, 1.0]).astype(complex), t_path)
        s = np.zeros((3, 3), dtype=complex)
        s[0, 1] = s[1, 0] = s[1, 2] = s[2, 1] = 1.0
        hb.write_operator_json(s, s_path)
        config = write_config(
            tmp_path, {"model": {"T": str(t_path), "S": str(s_path)}, "families": ["bkm"]}
        )
        out = tmp_path / "never.csv"
        assert main(["moments", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()
        assert "p = 0 sum rule" in capsys.readouterr().err

    def test_vanishing_odd_moments_print_as_zero(self, tmp_path):
        # S = e_00 commutes with a diagonal T: every M_q, q >= 1, is zero, and (-1)^q 0.0 was -0.0
        t_path, s_path = tmp_path / "T.json", tmp_path / "S.json"
        hb.write_operator_json(np.diag([0.0, 1.0, 2.5, 3.0]).astype(complex), t_path)
        s = np.zeros((4, 4), dtype=complex)
        s[0, 0] = 1.0
        hb.write_operator_json(s, s_path)
        config = write_config(tmp_path, {"model": {"T": str(t_path), "S": str(s_path)}, "families": ["bkm"]})
        out = tmp_path / "moments.csv"
        assert main(["moments", "--config", config, "--pmax", "4", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[3:] == ["2,0.0,0.0,0.0", "3,0.0,0.0,0.0", "4,0.0,0.0,0.0"]

    def test_moment_past_double_range_exits_2(self, tmp_path, capsys):
        # |omega| = 2 on every line, so M_1023 ~ 2^1023 |S|^2 overflows
        config = write_config(tmp_path, OVERFLOW_SPIN)
        out = tmp_path / "never.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["moments", "--config", config, "--pmax", "1100", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "M_1023 is not finite" in capsys.readouterr().err


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

    def test_unwritable_prefix_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"model": {"model": "spin", "S": 1, "omega0": 1.0}, "families": ["bkm"]})
        prefix = tmp_path / "missing" / "spin"
        assert main(["model", "--config", config, "--out", str(prefix)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {prefix}_T.json: No such file or directory\n"

    @pytest.mark.parametrize(
        "flag, output",
        [(["--format", "csv"], None), ([], {"path": "m_out", "format": "csv"}), (["--format", "csv"], {"path": "m_out"})],
    )
    def test_csv_format_rejected_before_building(self, tmp_path, capsys, monkeypatch, flag, output):
        for name in ("_point_model", "_resolve_model", "build_dsf"):
            monkeypatch.setattr(cli, name, _must_not_run)
        payload = {"model": {"model": "spin", "S": 1, "omega0": 1.0}, "families": ["bkm"]}
        if output is not None:
            payload["output"] = {**output, "path": str(tmp_path / output["path"])}
        assert main(["model", "--config", write_config(tmp_path, payload), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "JSON only" in captured.err
        assert not (tmp_path / "m_out").exists()

    @pytest.mark.parametrize("output_format", [None, "json"])
    def test_summary_goes_to_config_path(self, tmp_path, capsys, output_format):
        path = tmp_path / "summary.json"
        output = {"path": str(path)} if output_format is None else {"path": str(path), "format": output_format}
        payload = {"model": {"model": "spin", "S": 1, "omega0": 1.0}, "families": ["bkm"], "output": output}
        prefix = tmp_path / "spin"
        assert main(["model", "--config", write_config(tmp_path, payload), "--out", str(prefix)]) == 0
        assert capsys.readouterr().out == ""
        summary = json.loads(path.read_text())
        assert summary["dim"] == 3
        assert summary["written"] == [f"{prefix}_T.json", f"{prefix}_S.json"]


def test_parser_is_built_once_and_keeps_no_options(tmp_path, monkeypatch):
    built, build_parser = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        config = write_config(tmp_path, {"model": {"model": "spin", "S": 1, "omega0": 1.0}, "families": ["bkm"]})
        assert main(["metric", "--config", config, "--format", "json", "--out", str(tmp_path / "a")]) == 0
        assert main(["metric", "--config", config, "--out", str(tmp_path / "b")]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert json.loads((tmp_path / "a").read_text())["rows"][0]["family"] == "bkm"
    assert (tmp_path / "b").read_text().startswith("family,parameter,method,value,L,radius_ok\nbkm,,spectral,")
