"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.ring import Ring, RingGeometry

# Every property suite replays one pinned example sequence and never
# reads or writes the example database, so a run's outcome does not
# depend on what earlier runs left in ``.hypothesis/``.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def ring8() -> Ring:
    """The paper's prototyped Ring-8 (4 layers x 2)."""
    return Ring(RingGeometry.ring(8))


@pytest.fixture
def ring16() -> Ring:
    """The Ring-16 used for the application benchmarks."""
    return Ring(RingGeometry.ring(16))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for data-driven tests."""
    return np.random.default_rng(0xD5B)
