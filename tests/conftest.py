"""Shared fixtures."""

from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def fft_count(monkeypatch):
    """Counts the calls and the points transformed by the numpy.fft entry
    points behind `fracheat.grid._dft` (`fftn`, `ifftn`) during a test."""
    count = Counter()
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, **kwargs):
            count["calls"] += 1
            count["points"] += np.asarray(a).size
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return count
