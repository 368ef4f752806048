"""The complex DFT on the full lattice: numpy's `fftn`/`ifftn` with the
package's unitary scaling.  Tests check the real-to-complex transforms
against it; it does not go through `fracheat.grid._dft`."""

import numpy as np


def _scale(grid):
    return grid.cell_volume / (2 * np.pi) ** (grid.n / 2)


def forward(data, grid):
    """fhat = fftn(f) * h^n / (2*pi)^(n/2) over the trailing grid.n axes."""
    return np.fft.fftn(data, axes=tuple(range(-grid.n, 0))) * _scale(grid)


def inverse(data, grid):
    """f = ifftn(fhat) * (2*pi)^(n/2) / h^n over the trailing grid.n axes."""
    return np.fft.ifftn(data, axes=tuple(range(-grid.n, 0))) / _scale(grid)
