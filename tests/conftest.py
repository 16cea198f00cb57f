"""Shared fixtures."""

import multiprocessing

import pytest

from quantum3 import statesum


@pytest.fixture
def pool_calls(monkeypatch) -> list:
    """Every multiprocessing.Pool the state sum creates during the test."""
    calls = []
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        calls.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(statesum.multiprocessing, "Pool", counting_pool)
    return calls
