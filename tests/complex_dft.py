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


def derivative(data, grid, axis, order=1):
    """Physical samples of (d/dx_axis)^order f: the symbol (i xi_axis)^order
    with the k = -N/2 entry of xi zeroed, applied on the full lattice."""
    xi = 2 * np.pi * np.fft.fftfreq(grid.N, d=grid.L / grid.N)
    xi[grid.N // 2] = 0.0
    shape = [1] * grid.n
    shape[axis] = grid.N
    return inverse(forward(data, grid) * (1j * xi.reshape(shape)) ** order, grid)
