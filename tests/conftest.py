"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # CI jobs that run no generated tests lack hypothesis
    pass
else:
    # ``make test-crash`` passes ``--hypothesis-profile=deep``: the model
    # suites that read it (tests/test_node_store_model.py) run a larger
    # budget there than in tier-1.
    settings.register_profile("deep", deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test data."""
    return np.random.default_rng(20250706)


@pytest.fixture
def small_cloud(rng) -> np.ndarray:
    """300 points, 8-dimensional, in the unit cube."""
    return rng.random((300, 8))


@pytest.fixture
def tiny_cloud(rng) -> np.ndarray:
    """40 points, 4-dimensional — small enough for exhaustive checks."""
    return rng.random((40, 4))


@pytest.fixture(params=["thread", "process"])
def pool_backend(request) -> dict:
    """``ServingPool`` keywords selecting each backend in turn.

    Worker processes start by ``fork`` (fast) unless
    ``REPRO_MP_START_METHOD`` names another method: ``make test-mp``
    sets it to ``spawn`` so the same contract runs under both.
    """
    if request.param == "thread":
        return {"backend": "thread"}
    return {"backend": "process",
            "start_method": os.environ.get("REPRO_MP_START_METHOD", "fork")}
