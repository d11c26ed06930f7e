"""Golden sweep tables: the CLI's bytes for fixed jobs, recorded before the sweep's per-job caching.

Each job below writes its inputs and config into a directory; its CSV is
compared byte for byte with the one committed under ``tests/data``.  The
spin job is the benchmark's sweep-spin401 job at seed 0; the boson job
sweeps the k = 2 boson's omega over 5 points by every route, with the
radius warnings of omega = 2 (recorded one point at a time, before the
sweep evaluated its points as one stack); the matrix-file
jobs take a dim-60 GUE ``T`` (one ``eigh`` and the dense commutator chain)
and a diagonal ``T`` with tied levels (a sort and the chain at S's nonzero
entries), over a 2-point beta grid by every route.  At beta 2.5 seriesB:3
is negative on both, and the job exits 2 there; until then the tables also
held the rows of that point, with the negative values.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gibbsqfi import hilbert as hb
from gibbsqfi.cli import main

DATA = Path(__file__).resolve().parent / "data"
FAMILIES = ["har", "bures", "bkm", "mc", "geometric", "wyd:0.3", "pdiff:-0.7"]


def _write(workdir: Path, config: dict) -> list[str]:
    (workdir / "job.json").write_text(json.dumps(config, indent=2) + "\n")
    return ["sweep", "--config", str(workdir / "job.json"), "--out", str(workdir / "table.csv")]


def spin401(workdir: Path) -> list[str]:
    return _write(workdir, {
        "model": {"model": "spin", "S": 200, "omega0": 1.0},
        "beta": 1.0,
        "families": FAMILIES[:6],
        "methods": ["oracle", "spectral", "dsf", "seriesA:6"],
        "sweep": {"parameter": "omega0", "grid": [1.0, 0.25, 0.5, 1.5]},
    })


def boson60(workdir: Path) -> list[str]:
    return _write(workdir, {
        "model": {"model": "boson", "k": 2, "omega": 1.0, "cutoff": 60},
        "beta": 1.0,
        "families": FAMILIES[:6],
        "methods": ["oracle", "spectral", "dsf", "seriesA:4", "seriesB:4"],
        "sweep": {"parameter": "omega", "grid": [1.0, 0.5, 2.0, 0.75, 1.5]},
    })


def _matrix_job(workdir: Path, T: np.ndarray, S: np.ndarray, grid: list) -> list[str]:
    hb.write_operator_json(T, workdir / "T.json")
    hb.write_operator_json(S, workdir / "S.json")
    return _write(workdir, {
        "model": {"T": str(workdir / "T.json"), "S": str(workdir / "S.json")},
        "families": FAMILIES,
        "methods": ["oracle", "spectral", "dsf", "seriesA:4", "seriesB:3"],
        "sweep": {"parameter": "beta", "grid": grid},
    })


def _gue(rng, dim=60):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def gue60(workdir: Path, grid=(0.3, 1.0)) -> list[str]:
    rng = np.random.default_rng(2060)
    return _matrix_job(workdir, 0.1 * _gue(rng), _gue(rng), list(grid))


def diagonal60(workdir: Path, grid=(0.3, 1.0)) -> list[str]:
    # levels on a 0.25 grid tie; S couples about one pair in eight
    rng = np.random.default_rng(2061)
    T = np.diag(np.round(rng.uniform(0.0, 4.0, 60) * 4.0) / 4.0).astype(complex)
    S = _gue(rng) * (rng.random((60, 60)) < 0.12)
    return _matrix_job(workdir, T, S + S.conj().T, list(grid))


JOBS = {
    "sweep_spin401.csv": spin401,
    "sweep_boson60.csv": boson60,
    "sweep_gue60.csv": gue60,
    "sweep_diagonal60.csv": diagonal60,
}


@pytest.mark.parametrize("name", JOBS)
def test_sweep_bytes_match_golden(tmp_path, name):
    assert main(JOBS[name](tmp_path)) == 0
    assert (tmp_path / "table.csv").read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize(
    "job, value",
    [(gue60, "-230.32249447342082"), (diagonal60, "-438.1267761943417")],
    ids=["gue60", "diagonal60"],
)
def test_negative_series_value_exits_2(tmp_path, capsys, job, value):
    # the value the tables printed at beta 2.5 with exit 0
    assert main(job(tmp_path, grid=(0.3, 1.0, 2.5))) == 2
    assert capsys.readouterr().err == f"error: bures seriesB:3 beta=2.5: seriesB produced a negative metric: {value}\n"
    assert not (tmp_path / "table.csv").exists()
