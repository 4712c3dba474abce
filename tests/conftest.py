"""Fixtures shared across the test modules."""

import pytest

from efnlab import alignment


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.fixture
def no_pool(monkeypatch):
    """Starting a process pool fails the test: ProcessPoolExecutor is the :class:`_NoPool` stand-in."""
    monkeypatch.setattr(alignment, "ProcessPoolExecutor", _NoPool)
