"""Test-suite settings and fixtures shared by every module."""

import pytest
from hypothesis import settings

from exitflow import kernels, lq_benchmark

# Property tests draw the same examples on every run, and no example
# database carries state from one run to the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="module")
def lq():
    """The discrete LQ benchmark problem, built once per test module."""
    return lq_benchmark("discrete")


# SCALAR_PATHS per walk of ``kernels.simulate_chunk``: the numpy step over
# all live paths, the per-path walk on Python floats, and a limit below
# the tests' batch sizes, so that a chunk starts in numpy and hands its
# last few paths to the walk once enough of them have exited
CHUNK_WALKS = {"vector": 0, "scalar": 1_000_000, "handoff": 4}


@pytest.fixture(params=list(CHUNK_WALKS))
def chunk_walk(request, monkeypatch):
    """Run the test once per walk of ``kernels.simulate_chunk``."""
    monkeypatch.setattr(kernels, "SCALAR_PATHS", CHUNK_WALKS[request.param])
    return request.param
