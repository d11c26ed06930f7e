"""Fixtures shared by the test modules."""

import pytest

from gibbsqfi import hilbert as hb


@pytest.fixture
def checked_operators(monkeypatch):
    """Every HermitianOperator the checking constructor builds during the test, in order."""
    built, init = [], hb.HermitianOperator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hb.HermitianOperator, "__init__", counting)
    return built
