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


@pytest.fixture(scope="session")
def serving_pool():
    """Build a ``ServingPool``: ``serving_pool(path, workers=2, ...)``.

    Every pool a test builds comes from here, so its workers start by
    ``fork`` (fast) unless ``REPRO_MP_START_METHOD`` names another
    method: ``make test-mp`` sets it to ``spawn``, the portable default.
    """
    from repro.exec import ServingPool

    method = os.environ.get("REPRO_MP_START_METHOD", "fork")

    def build(source, **kwargs):
        return ServingPool(source, start_method=method, **kwargs)

    return build
