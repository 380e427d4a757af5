import sys
from pathlib import Path

import pytest

from multida import estimator

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def no_gamma(monkeypatch):
    """Make deriving the p x M statistics ``lrt`` or weights
    ``gamma_weights`` an error, for code that must read neither."""
    def refuse(*args, **kwargs):
        raise AssertionError("derived a p x M lrt or gamma")

    monkeypatch.setattr(estimator, "gamma_weights", refuse)
    monkeypatch.setattr(estimator, "lrt", refuse)
