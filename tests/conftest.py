"""Test-suite settings and fixtures shared by every module."""

import pytest
from hypothesis import settings

from exitflow import kernels

# Property tests draw the same examples on every run, and no example
# database carries state from one run to the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(params=["vector", "scalar"])
def chunk_walk(request, monkeypatch):
    """Run the test once per walk of ``kernels.simulate_chunk``: the numpy
    step over all live paths, then the per-path walk on Python floats."""
    monkeypatch.setattr(kernels, "SCALAR_PATHS",
                        0 if request.param == "vector" else 1_000_000)
    return request.param
