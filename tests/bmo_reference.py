"""The BMO kernel as it stood before the blocked, shift-add version: whole
sample chunks, `np.roll` doubling and every level measured.  Kept verbatim
as a bit-for-bit oracle for `norms._bmo_norms` on data whose squares
neither over- nor underflow.
"""

import math

import numpy as np


def bmo_norms_reference(phys, grid):
    sums = phys - phys.mean(axis=tuple(range(-grid.n, 0)), keepdims=True)
    sq_sums = sums**2
    best = np.zeros(len(phys))
    for m in range(int(math.log2(grid.N)) + 1):
        if m:
            for ax in range(-grid.n, 0):
                sums = sums + np.roll(sums, -(2 ** (m - 1)), axis=ax)
                sq_sums = sq_sums + np.roll(sq_sums, -(2 ** (m - 1)), axis=ax)
        cells = float((2**m) ** grid.n)
        osc2 = np.maximum(sq_sums / cells - (sums / cells) ** 2, 0.0)
        if osc2.ndim > grid.n + 1:  # the parts and components of a sample
            osc2 = osc2.reshape(len(phys), -1, *grid.shape).sum(axis=1)
        best = np.maximum(best, osc2.reshape(len(phys), -1).max(axis=1))  # NaN propagates
    return np.sqrt(best)
