"""Function-space norms: L^p, mixed L^q_t L^p_x, Sobolev, Besov, and BMO.

Spatial integrals are cell-volume-weighted Riemann sums; time integrals
are composite trapezoid sums on the (possibly geometric) sample grid;
p = infinity means the max over grid points / time samples.

The dyadic machinery follows the smooth-cutoff construction: eta equals 1
on |xi| <= 1 and 0 on |xi| >= 2, and the band symbols are
psi_j(xi) = eta(xi/2^j) - eta(xi/2^(j-1)), supported in
2^(j-1) <= |xi| <= 2^(j+1).  Band indices are truncated to the
grid-representable window 2^(j_min - 1) >= 2*pi/L, 2^(j_max + 1) <= pi*N/L,
and the partition sums exactly to 1 on 2^j_min <= |xi| <= 2^j_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .grid import Field, GridSpec, TimeSeries, require_zero_mean
from .semigroup import apply_symbol, fractional_derivative

INF = float("inf")


@dataclass(frozen=True)
class NormSpec:
    """Norm selector: lebesgue(p) | sobolev(s, p) | besov(s, p, q) | bmo."""

    kind: str
    p: float = 2.0
    s: float = 0.0
    q: float = 2.0
    homogeneous: bool = True

    def __post_init__(self):
        if self.kind not in ("lebesgue", "sobolev", "besov", "bmo"):
            raise PreconditionError(f"unknown norm kind {self.kind!r}")
        for e in (self.p, self.q):
            if not (e >= 1):
                raise PreconditionError(f"exponent {e} must lie in [1, inf]")

    def compute(self, f: Field, partition: "DyadicPartition | None" = None) -> float:
        if self.kind == "lebesgue":
            return lp_norm(f, self.p)
        if self.kind == "sobolev":
            return sobolev_norm(f, self.s, self.p, self.homogeneous)
        if self.kind == "besov":
            return besov_norm(f, self.s, self.p, self.q, self.homogeneous, partition)
        return bmo_norm(f)


def _lp(phys: np.ndarray, grid: GridSpec, p: float) -> np.ndarray:
    """L^p norms of a stack of physical samples, shape (m, *grid.shape) or
    (m, c, *grid.shape); c components are measured by their pointwise
    Euclidean magnitude.  Returns the m norms."""
    if not p >= 1:
        raise PreconditionError(f"Lebesgue exponent p={p} must be >= 1")
    if phys.ndim == grid.n + 1:
        mag = np.abs(phys)
    else:
        mag = np.sqrt(sum(np.abs(phys[:, c]) ** 2 for c in range(phys.shape[1])))
    mag = mag.reshape(len(mag), -1)
    if p == INF:
        return mag.max(axis=1)
    sums = np.sum(mag**p, axis=1) * grid.cell_volume
    # the root is taken sample by sample: numpy's vectorised pow can differ
    # from the scalar one in the last bit, which would move reported norms
    return np.array([s ** (1.0 / p) for s in sums])


def lp_norm(f, p: float) -> float:
    """Cell-volume-weighted L^p norm of a scalar or vector Field (a vector by
    its pointwise Euclidean magnitude); p = inf is the max over grid points."""
    return float(_lp(f.to_physical().data[None], f.grid, p)[0])


def lp_norms(u: TimeSeries, p: float) -> np.ndarray:
    """L^p norm of every sample of a series, one chunk of samples at a time."""
    return np.concatenate([_lp(d, u.grid, p) for d in u.physical_chunks()])


def mixed_norm(
    u: TimeSeries,
    q: float,
    p: "float | NormSpec",
    partition: "DyadicPartition | None" = None,
) -> float:
    """L^q in time over the sample grid of a spatial norm: L^p for a number
    p, or the norm a NormSpec selects (its Lebesgue kind reduces chunks of
    samples; the others are computed sample by sample)."""
    if len(u) < 2:
        raise PreconditionError("mixed norm needs at least two time samples")
    if not q >= 1:
        raise PreconditionError(f"time exponent q={q} must be >= 1")
    if not isinstance(p, NormSpec):
        vals = lp_norms(u, p)
    elif p.kind == "lebesgue":
        vals = lp_norms(u, p.p)
    else:
        vals = np.array([p.compute(s, partition) for s in u.snapshots])
    if q == INF:
        return float(vals.max())
    return float(np.trapezoid(vals**q, u.times) ** (1.0 / q))


def sobolev_norm(f: Field, s: float, p: float, homogeneous: bool = True) -> float:
    """L^p norm of the fractional derivative of order s."""
    kind = "homogeneous" if homogeneous else "inhomogeneous"
    return lp_norm(fractional_derivative(f, s, kind), p)


# ---------------------------------------------------------------------------
# dyadic partition and Besov norms
# ---------------------------------------------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def eta_profile(r: np.ndarray) -> np.ndarray:
    """Smooth cutoff: 1 for r <= 1, 0 for r >= 2."""
    r = np.asarray(r, dtype=float)
    a = _bump(2.0 - r)
    b = _bump(r - 1.0)
    return a / (a + b + 1e-300)


class DyadicPartition:
    """Band symbols psi_j on the frequency lattice of one grid."""

    def __init__(self, grid: GridSpec, j_min: int, j_max: int):
        if j_min > j_max:
            raise PreconditionError("j_min must not exceed j_max")
        if 2.0 ** (j_min - 1) < 2 * np.pi / grid.L * (1 - 1e-12):
            raise PreconditionError(
                f"2^(j_min-1) must be >= 2*pi/L = {2 * np.pi / grid.L}"
            )
        if 2.0 ** (j_max + 1) > grid.nyquist * (1 + 1e-12):
            raise PreconditionError(
                f"2^(j_max+1) must be <= pi*N/L = {grid.nyquist}"
            )
        self.grid = grid
        self.j_min = j_min
        self.j_max = j_max
        self._absxi = grid.abs_freq
        self._cache: dict[int, np.ndarray] = {}

    @property
    def bands(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def eta_at_scale(self, j: int) -> np.ndarray:
        """eta(xi / 2^j) on the lattice."""
        return eta_profile(self._absxi / 2.0**j)

    def psi(self, j: int) -> np.ndarray:
        if j not in self._cache:
            self._cache[j] = self.eta_at_scale(j) - self.eta_at_scale(j - 1)
        return self._cache[j]

    def partition_sum(self) -> np.ndarray:
        return sum(self.psi(j) for j in self.bands)

    def covered(self) -> np.ndarray:
        """Mask of lattice points where the partition sums to one."""
        lo, hi = 2.0**self.j_min, 2.0**self.j_max
        return (self._absxi >= lo) & (self._absxi <= hi)


def default_partition(grid: GridSpec) -> DyadicPartition:
    """Widest partition representable on the grid."""
    j_min = math.ceil(math.log2(2 * np.pi / grid.L) + 1 - 1e-9)
    j_max = math.floor(math.log2(grid.nyquist) - 1 + 1e-9)
    return DyadicPartition(grid, j_min, j_max)


def lp_block(f: Field, j: int, partition: DyadicPartition) -> Field:
    """Frequency-localized piece of f in the dyadic band j."""
    if j not in partition.bands:
        raise PreconditionError(
            f"band {j} outside partition [{partition.j_min}, {partition.j_max}]"
        )
    return apply_symbol(f, partition.psi(j))


def low_block(f: Field, partition: DyadicPartition) -> Field:
    """Low-frequency complement eta(xi / 2^(j_min - 1)) f, for the
    inhomogeneous Besov norm."""
    return apply_symbol(f, partition.eta_at_scale(partition.j_min - 1))


def besov_norm(
    f: Field,
    s: float,
    p: float,
    q: float,
    homogeneous: bool = True,
    partition: DyadicPartition | None = None,
) -> float:
    """l^q over bands of 2^(j s) ||block_j f||_p, truncated to the partition.

    The homogeneous variant requires zero-mean data (grid analogue of
    working modulo polynomials); the inhomogeneous variant adds the
    low-frequency block at scale 2^(j_min - 1).
    """
    if partition is None:
        partition = default_partition(f.grid)
    if homogeneous:
        require_zero_mean(f, "homogeneous Besov norm")
    terms = np.array(
        [2.0 ** (j * s) * lp_norm(lp_block(f, j, partition), p) for j in partition.bands]
    )
    if q == INF:
        band_part = float(terms.max()) if len(terms) else 0.0
    else:
        band_part = float(np.sum(terms**q) ** (1.0 / q))
    if homogeneous:
        return band_part
    low = lp_norm(low_block(f, partition), p)
    return low + band_part


# ---------------------------------------------------------------------------
# BMO over grid-aligned cubes of dyadic sidelength
# ---------------------------------------------------------------------------


def _box_sums(data: np.ndarray, m: int) -> np.ndarray:
    """Periodic sums of data over cubes of side 2^m cells, all offsets.

    Binary roll-doubling: entry [i] is the sum over the cube anchored at i.
    """
    out = data
    for level in range(m):
        step = 2**level
        for ax in range(data.ndim):
            out = out + np.roll(out, -step, axis=ax)
        # note: rolling all axes at one level keeps the doubling separable
    return out


def bmo_norm(f: Field) -> float:
    """Sup over all grid-aligned cubes of dyadic sidelength (2^m cells,
    m = 0 .. log2(N), every lattice offset, periodic) of the RMS
    oscillation about the cube average.

    The all-offsets family is symmetric under whole-cell translations and
    maps into itself under dyadic dilation, which keeps the norm exactly
    translation invariant and dilation-robust.  Non-finite data gives NaN.
    """
    data = f.to_physical().data
    N = f.grid.N
    best = 0.0
    m = 0
    while 2**m <= N:
        cells = float((2**m) ** f.grid.n)
        means = _box_sums(data, m) / cells
        sq = _box_sums(np.abs(data) ** 2, m) / cells
        osc2 = np.maximum(sq - np.abs(means) ** 2, 0.0)
        best = float(np.maximum(best, osc2.max()))  # NaN propagates
        m += 1
    return float(np.sqrt(best))
