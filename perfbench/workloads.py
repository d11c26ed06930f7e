"""The benchmark's three command line jobs: inputs, arguments and checks.

Each workload turns the benchmark seed into the files and arguments of one
``gibbsqfi`` batch job, and checks that job's output against the reference
recorded in ``reference.json``.  Reference values exist for a pool of
instances; the seed picks the instance by ``seed % REFERENCE_POOL``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_POOL = 16

FAMILIES = ["har", "bures", "bkm", "mc", "geometric", "wyd:0.3"]
SPIN_GRID = [0.25, 0.5, 1.0, 1.5]
BETA_GRID = [0.5, 1.0, 2.0, 4.0]
DENSE_DIM = 400
DENSE_SPREAD = 10.0
VERIFY_TRIALS = 1000
TABLE = "table.csv"
REPORT = "report.json"


def _gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def dense_pair(seed: int):
    """GUE pair (T, S) of dimension DENSE_DIM, T rescaled to DENSE_SPREAD.

    Makes the same draws as ``gibbsqfi.random_instance(default_rng(seed),
    DENSE_DIM, DENSE_SPREAD)``, but lives here so that the benchmark inputs
    stay fixed when the program changes.
    """
    rng = np.random.default_rng(seed)
    t = _gue(rng, DENSE_DIM)
    eigs = np.linalg.eigvalsh(t)
    t = t * (DENSE_SPREAD / float(eigs[-1] - eigs[0]))
    return t, _gue(rng, DENSE_DIM)


def write_matrix(matrix: np.ndarray, path: Path):
    """The ``{"dim": n, "entries": [[[re, im], ...], ...]}`` matrix format."""
    entries = np.stack((matrix.real, matrix.imag), axis=-1).tolist()
    path.write_text(json.dumps({"dim": matrix.shape[0], "entries": entries}) + "\n")


def _write_config(workdir: Path, config: dict) -> list[str]:
    path = workdir / "job.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return ["sweep", "--config", str(path), "--out", str(workdir / TABLE)]


def _prepare_spin(seed: int, workdir: Path) -> list[str]:
    # The model is fixed; the seed only sets the order of the sweep grid.
    grid = [float(x) for x in np.random.default_rng(seed).permutation(SPIN_GRID)]
    return _write_config(workdir, {
        "model": {"model": "spin", "S": 200, "omega0": grid[0]},
        "beta": 1.0,
        "families": FAMILIES,
        "methods": ["oracle", "spectral", "dsf", "seriesA:6"],
        "sweep": {"parameter": "omega0", "grid": grid},
    })


def _prepare_dense(seed: int, workdir: Path) -> list[str]:
    t, s = dense_pair(seed % REFERENCE_POOL)
    write_matrix(t, workdir / "T.json")
    write_matrix(s, workdir / "S.json")
    return _write_config(workdir, {
        "model": {"T": str(workdir / "T.json"), "S": str(workdir / "S.json")},
        "beta": 1.0,
        "families": FAMILIES,
        "methods": ["oracle", "spectral", "dsf"],
        "sweep": {"parameter": "beta", "grid": BETA_GRID},
    })


def _prepare_verify(seed: int, workdir: Path) -> list[str]:
    return [
        "verify",
        "--seed", str(seed % REFERENCE_POOL),
        "--trials", str(VERIFY_TRIALS),
        "--out", str(workdir / REPORT),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int  # QFI_NUM_THREADS for the job
    units_per_job: int  # sweep points or trials, the base of per-unit ratios
    prepare: Callable[[int, Path], list[str]]  # writes inputs, returns CLI argv
    output: str  # file the job writes in the work directory
    read: Callable[[Path], dict]
    check: Callable[[int, dict, dict], list[str]]  # exit code, output, reference
    instance: Callable[[int], int]  # seed -> key of the reference entry


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-spin401",
            "dim-401 spin sweep: the commutator-moment series dominates, the structure factor has 2 lines, and it is the only job on the 2-thread sweep pool",
            threads=2,
            units_per_job=len(SPIN_GRID),
            prepare=_prepare_spin,
            output=TABLE,
            read=gate.read_table,
            check=gate.check_table,
            instance=lambda seed: 0,
        ),
        Workload(
            "sweep-dense400",
            "dense dim-400 GUE pair read from matrix files: about 160k structure-factor lines per point and no series route",
            threads=1,
            units_per_job=len(BETA_GRID),
            prepare=_prepare_dense,
            output=TABLE,
            read=gate.read_table,
            check=gate.check_table,
            instance=lambda seed: seed % REFERENCE_POOL,
        ),
        Workload(
            "verify-1000",
            "1000 random problems of dims 2-8: per-call Python and numpy overhead dominates, cross metrics and sum rules run",
            threads=1,
            units_per_job=VERIFY_TRIALS,
            prepare=_prepare_verify,
            output=REPORT,
            read=gate.read_report,
            check=gate.check_verify,
            instance=lambda seed: seed % REFERENCE_POOL,
        ),
    )
}


def load_reference(workload: Workload, seed: int) -> dict:
    reference = json.loads(REFERENCE_PATH.read_text())
    return reference[workload.name][str(workload.instance(seed))]
