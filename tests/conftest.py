import sys
from pathlib import Path

import pytest

from multida import estimator

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def no_gamma(monkeypatch):
    """Make deriving an array a model reads on demand an error, for code
    that must read none: ``FittedModel._derived`` (``gamma``, ``lam``,
    ``mu``, ``sigma2``, ``variance_floor``) and the whole-p ``lrt`` and
    ``gamma_weights``."""
    def refuse(*args, **kwargs):
        raise AssertionError("derived a p x M lrt or gamma")

    monkeypatch.setattr(estimator.FittedModel, "_derived", refuse)
    monkeypatch.setattr(estimator, "gamma_weights", refuse)
    monkeypatch.setattr(estimator, "lrt", refuse)
