"""Package surface: the README quick start runs, every exported name resolves, and the quadrature checks and CLI jobs load no scipy, mpmath or numpy.ma."""

import importlib
import json
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gibbsqfi
from gibbsqfi import dsf, hilbert as hb

README = Path(__file__).resolve().parent.parent / "README.md"

# closed forms quoted in the quick start's comments, by their text
CLOSED_FORMS = {
    "tanh(1/2)/2": math.tanh(0.5) / 2.0,
    "tanh(1/2)^2": math.tanh(0.5) ** 2,
    "Var(S)/4": 0.25,
}

REMOVED = (
    "NestedCommutator", "nested_commutator", "ObservableInEigenbasis", "write_spectrum_csv",
    "verify_standard", "StandardFunctionReport", "build_cross_dsf", "duhamel_weight_matrix",
    "spin_build", "boson_build",
)


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_and_matches_closed_forms():
    block = _quick_start()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    for form, expected in CLOSED_FORMS.items():
        lines = [line for line in block.splitlines() if line.rstrip().endswith(f"= {form}")]
        assert len(lines) == 1, form
        code = lines[0].split("#", 1)[0]
        assert eval(code, namespace) == pytest.approx(expected, rel=1e-12, abs=0.0)


def _modules():
    return [importlib.import_module(f"gibbsqfi.{m.name}") for m in pkgutil.iter_modules(gibbsqfi.__path__)]


def test_every_all_entry_resolves():
    # a stale __all__ entry would crash the span recorder, which reads each name
    modules = _modules()
    assert {m.__name__.rsplit(".", 1)[1] for m in modules} >= {
        "cli", "dsf", "families", "hilbert", "inequalities", "metrics", "models", "skew",
    }
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(gibbsqfi, name)
        assert all(name not in module.__all__ and not hasattr(module, name) for module in _modules())
    assert not hasattr(hb.GibbsState, "generator_matrix")
    assert not hasattr(dsf.LineSpectrum, "elastic_weight")
    assert not hasattr(dsf.LineSpectrum, "total_weight")


# the library's two quadrature checks and the CLI's jobs, run in a fresh interpreter, which lists the scipy, mpmath
# and numpy.ma modules they loaded
COLD_START = """
import json, sys
from pathlib import Path
import numpy as np
import gibbsqfi
from gibbsqfi import cli, dsf, hilbert as hb, skew
from gibbsqfi.inequalities import random_instance

work = Path(sys.argv[1])
T, S = random_instance(np.random.default_rng(0), 12)
state = hb.gibbs_state(T)
skew.integrated_wyd(state, S), dsf.bogoliubov_duhamel_quadrature(state, S, S)
hb.write_operator_json(T, work / "T.json")
hb.write_operator_json(S, work / "S.json")
jobs = [
    ("sweep", {"model": {"T": str(work / "T.json"), "S": str(work / "S.json")}, "families": ["bkm", "mc"],
               "methods": ["oracle", "spectral", "dsf"], "sweep": {"parameter": "beta", "grid": [0.5, 1.0]}}),
    ("sweep", {"model": {"model": "spin", "S": 20, "omega0": 1.0}, "families": ["bkm", "wyd:0.3"],
               "methods": ["oracle", "spectral", "dsf", "seriesA:6"],
               "sweep": {"parameter": "omega0", "grid": [0.5, 1.0]}}),
    ("metric", {"model": {"model": "boson", "k": 1, "omega": 1.0, "cutoff": 40}, "families": ["bkm", "mc"],
                "methods": ["oracle", "spectral", "dsf", "seriesA:6"]}),
]
codes = [cli.main(["verify", "--trials", "20", "--out", str(work / "verify.json")])]
for i, (command, config) in enumerate(jobs):
    (work / f"job{i}.json").write_text(json.dumps(config))
    codes.append(cli.main([command, "--config", str(work / f"job{i}.json"), "--out", str(work / f"out{i}.csv")]))
print(json.dumps({
    "codes": codes,
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath") or m.split(".")[:2] == ["numpy", "ma"]),
}))
"""


def test_cli_jobs_load_no_scipy(tmp_path):
    # integrated_wyd and the Duhamel quadrature, then verify, a matrix-file sweep, a spin sweep with every route and a
    # boson metric; both quadratures run one Gauss-Legendre rule, the series coefficients are exact rationals, and no
    # np.unique pulls in numpy.ma
    run = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0], "loaded": []}
