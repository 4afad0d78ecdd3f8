"""Fixtures shared by the test modules."""
from functools import lru_cache

import pytest

from qsprep import alias_prepare


@pytest.fixture
def vose_passes(monkeypatch):
    """The keys of the alias-table Vose passes run during the test: the
    pass's cache is swapped for an empty one that records each miss."""
    passes = []
    vose = alias_prepare._vose.__wrapped__
    monkeypatch.setattr(alias_prepare, "_vose", lru_cache(maxsize=1)(
        lambda key: passes.append(key) or vose(key)))
    return passes
