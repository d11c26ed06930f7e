"""Package surface: the README quick start runs, and every exported name resolves."""

import importlib
import math
import pkgutil
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
    "verify_standard", "StandardFunctionReport",
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
