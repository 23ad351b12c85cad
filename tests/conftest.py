"""Fixtures shared by the fast-engine differential suites."""

import sys
from contextlib import contextmanager

import pytest

from repro.routing import fast_scalar

#: ``SCALAR_RUN_MAX`` values that send every fast run the configuration
#: allows through one lane: Python lists, or numpy tables
RUN_LANES = {"scalar": sys.maxsize, "vector": 0}


@contextmanager
def forced_run_lane(lane: str):
    """Send every fast run of the block through *lane*."""
    saved = fast_scalar.SCALAR_RUN_MAX
    fast_scalar.SCALAR_RUN_MAX = RUN_LANES[lane]
    try:
        yield
    finally:
        fast_scalar.SCALAR_RUN_MAX = saved


@pytest.fixture
def run_lane(request):
    """Force the test's fast runs through one lane: its class's or its
    module's ``RUN_LANE``, ``"scalar"`` unless set.  A suite runs on both
    lanes by being collected twice — again by a subclass, or a companion
    module, that sets ``RUN_LANE = "vector"`` — so the first collection
    keeps its test ids."""
    lane = getattr(request.cls, "RUN_LANE", None) or getattr(
        request.module, "RUN_LANE", "scalar"
    )
    with forced_run_lane(lane):
        yield lane
