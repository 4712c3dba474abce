"""Fixtures shared across the test modules."""

import pytest

from efnlab import alignment, verify


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.fixture
def no_pool(monkeypatch):
    """Starting a process pool fails the test: ProcessPoolExecutor is the :class:`_NoPool` stand-in."""
    monkeypatch.setattr(alignment, "ProcessPoolExecutor", _NoPool)


@pytest.fixture
def few_lemma1_draws(monkeypatch):
    """lemma1 takes any draw count: its floor in :data:`verify.COUNTS`, which lemma1_check reads too, is 1."""
    key, _, count, seed = verify.COUNTS["lemma1"]
    monkeypatch.setitem(verify.COUNTS, "lemma1", (key, 1, count, seed))
