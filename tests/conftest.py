"""Shared fixtures."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def fft_count(monkeypatch):
    """Counts the calls ("calls", and per entry point under its name) and the
    input points transformed by the numpy.fft entry points fracheat uses:
    `rfftn`/`irfftn` behind `fracheat.grid._dft` (`Field` transforms
    included), `fftn`/`ifftn` behind the synthesis recipes and the
    `complex_dft` test oracle, during a test."""
    count = Counter()
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            count["calls"] += 1
            count[_name] += 1
            count["points"] += np.asarray(a).size
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return count


@pytest.fixture
def call_count(monkeypatch):
    """call_count(module, name) counts the calls made through the attribute
    `name` of `module` during the test; returns a Counter keyed by name."""
    count = Counter()

    def wrap(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            count[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return count

    return wrap


@pytest.fixture
def traced_peak():
    """traced_peak(call) runs call() under tracemalloc and returns, in bytes,
    the peak of the traced memory above what was live when it started.
    tracemalloc traces numpy's array allocations, so the peak repeats
    exactly from run to run."""

    def peak(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    return peak
