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

Every spatial norm has one implementation, reached through `NormSpec.norms`:
it measures every sample of a `TimeSeries`, one chunk of samples at a time,
and the one-Field functions measure a stack of one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .grid import (
    SPECTRAL, Field, GridSpec, TimeSeries, _bump, _dft, _half, as_series, require_zero_means
)
from .semigroup import apply_symbol, derivative_symbol

INF = float("inf")
TINY = np.finfo(np.float64).tiny  # the least normal float64


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

    def norms(self, u: TimeSeries) -> np.ndarray:
        """The selected norm of every sample of `u`."""
        if self.kind == "lebesgue":
            return lp_norms(u, self.p)
        if self.kind == "sobolev":
            return _sobolev_norms(u, self.s, self.p, self.homogeneous)
        if self.kind == "besov":
            return _besov_norms(u, self.s, self.p, self.q, self.homogeneous, None)
        return np.concatenate([_bmo_norms(d, u.grid) for d in u.chunks()])

    def compute(self, f: Field) -> float:
        """The selected norm of one Field, measured as a stack of one sample."""
        return float(self.norms(as_series(f))[0])


def _lp(phys: np.ndarray, grid: GridSpec, p: float) -> np.ndarray:
    """L^p norms of a stack of real physical samples, shape (m, *grid.shape)
    or (m, ..., *grid.shape); the axes between the sample and grid axes (parts
    and components) are measured by their pointwise Euclidean magnitude.
    Returns the m norms.

    A sample whose power sum sum |f|^p h^n over- or underflows (inf, 0 or
    subnormal; large p) is measured again as max |f| * (sum (|f|/max |f|)^p
    h^n)^(1/p).  To first order that value is within (3 + (2 + log2 M)/p) eps
    relative of the exact norm of the computed |f| samples, M grid points
    and eps = 2^-53: the quotient's rounding grows p-fold in the power and
    shrinks back in the root.  An all-zero sample stays 0."""
    if not p >= 1:
        raise PreconditionError(f"Lebesgue exponent p={p} must be >= 1")
    if phys.ndim == grid.n + 1:
        mag = np.abs(phys)
    else:
        comps = phys.reshape(len(phys), -1, *grid.shape)
        mag = np.sqrt(sum(comps[:, c] ** 2 for c in range(comps.shape[1])))
    mag = mag.reshape(len(mag), -1)
    if p == INF:
        return mag.max(axis=1)
    with np.errstate(over="ignore"):
        sums = np.sum(mag**p, axis=1) * grid.cell_volume
    # the root is taken sample by sample: numpy's vectorised pow can differ
    # from the scalar one in the last bit, which would move reported norms
    norms = np.array([s ** (1.0 / p) for s in sums])
    for i in np.flatnonzero((sums < TINY) | (sums == INF)):
        peak = mag[i].max()
        if 0 < peak < INF:
            with np.errstate(under="ignore"):
                scaled = np.sum((mag[i] / peak) ** p) * grid.cell_volume
            norms[i] = peak * scaled ** (1.0 / p)
    return norms


def lp_norm(f, p: float) -> float:
    """Cell-volume-weighted L^p norm of a scalar or vector Field (a vector by
    its pointwise Euclidean magnitude); p = inf is the max over grid points."""
    return float(lp_norms(as_series(f), p)[0])


def lp_norms(u: TimeSeries, p: float) -> np.ndarray:
    """L^p norm of every sample of a series, one chunk of samples at a time."""
    return np.concatenate([_lp(d, u.grid, p) for d in u.chunks()])


def mixed_norm(u: TimeSeries, q: float, p: "float | NormSpec") -> float:
    """L^q in time over the sample grid of a spatial norm: L^p for a number
    p, or the norm a NormSpec selects."""
    if len(u) < 2:
        raise PreconditionError("mixed norm needs at least two time samples")
    if not q >= 1:
        raise PreconditionError(f"time exponent q={q} must be >= 1")
    vals = p.norms(u) if isinstance(p, NormSpec) else lp_norms(u, p)
    if q == INF:
        return float(vals.max())
    return float(np.trapezoid(vals**q, u.times) ** (1.0 / q))


def sobolev_norm(f: Field, s: float, p: float, homogeneous: bool = True) -> float:
    """L^p norm of the fractional derivative of order s."""
    return NormSpec("sobolev", p=p, s=s, homogeneous=homogeneous).compute(f)


def _sobolev_norms(u: TimeSeries, s: float, p: float, homogeneous: bool) -> np.ndarray:
    sym = derivative_symbol(u.grid, s, "homogeneous" if homogeneous else "inhomogeneous")
    what = "negative-order homogeneous derivative" if homogeneous and s < 0 else None
    return _multiplier_norms(u, [sym], p, what)[:, 0]


def _multiplier_norms(u: TimeSeries, syms: list, p: float, zero_mean_for) -> np.ndarray:
    """L^p norms of every sample of `u` under each multiplier of `syms`, shape
    (samples, multipliers): one inverse transform per chunk of (sample,
    multiplier) pairs, on the half lattice (the symbols are real and even).
    `zero_mean_for` names what needs zero-mean samples."""
    grid = u.grid
    sym = np.stack([_half(s, grid) for s in syms])
    sym = np.expand_dims(sym, tuple(range(1, u.data.ndim - grid.n)))
    out = []
    for spec in u.chunks(SPECTRAL, copies=len(syms)):
        if zero_mean_for:  # a half spectrum holds every |fhat| and the mean
            require_zero_means(spec, grid, zero_mean_for)
        blocks = _dft(spec[:, None] * sym, grid, "inverse")
        out.append(_lp(blocks.reshape(-1, *blocks.shape[2:]), grid, p).reshape(len(spec), -1))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# dyadic partition and Besov norms
# ---------------------------------------------------------------------------


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
        """eta(xi / 2^j) on the lattice: 1 for |xi| <= 2^j, 0 for |xi| >= 2^(j+1)."""
        r = self._absxi / 2.0**j
        a, b = _bump(2.0 - r), _bump(r - 1.0)
        return a / (a + b + 1e-300)

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
    low-frequency block eta(xi / 2^(j_min - 1)) f.
    """
    NormSpec("besov", p=p, s=s, q=q, homogeneous=homogeneous)  # checks p and q
    return float(_besov_norms(as_series(f), s, p, q, homogeneous, partition)[0])


def _besov_norms(u, s, p, q, homogeneous, partition) -> np.ndarray:
    """Besov norms of a stack: the bands psi_j, and the low block as one
    more multiplier, go through one inverse transform per chunk."""
    part = default_partition(u.grid) if partition is None else partition
    syms = [part.psi(j) for j in part.bands]
    if not homogeneous:
        syms.append(part.eta_at_scale(part.j_min - 1))
    norms = _multiplier_norms(u, syms, p, "homogeneous Besov norm" if homogeneous else None)
    terms = norms[:, : len(part.bands)] * np.array([2.0 ** (j * s) for j in part.bands])
    if q == INF:
        band = terms.max(axis=1)
    else:  # per-sample roots, as in `_lp`
        band = np.array([t ** (1.0 / q) for t in np.sum(terms**q, axis=1)])
    return band if homogeneous else norms[:, -1] + band


# ---------------------------------------------------------------------------
# BMO over grid-aligned cubes of dyadic sidelength
# ---------------------------------------------------------------------------


def bmo_norm(f: Field) -> float:
    """Sup over all grid-aligned cubes Q of dyadic sidelength (2^m cells,
    m = 0 .. log2(N), every lattice offset, periodic) of the RMS of |f - f_Q|,
    f_Q the cube average and |.| a vector's Euclidean length.

    The all-offsets family is symmetric under whole-cell translations and
    maps into itself under dyadic dilation, which keeps the norm exactly
    translation invariant and dilation-robust.  Non-finite data gives NaN.
    """
    return NormSpec("bmo").compute(f)


def _bmo_norms(phys: np.ndarray, grid: GridSpec) -> np.ndarray:
    """BMO norms of a real physical sample stack.  Box sums [i] over the cube
    of side 2^m anchored at i double, one grid axis at a time, into side
    2^(m+1).  BMO is invariant under constants, so each sample's
    per-component mean is subtracted first and sq_sums/cells - (sums/cells)^2
    cancels only against the sample's own variation g.  Rounding bound: the
    subtraction moves values, and so the norm, by about eps (|mean| + max|f|);
    each box's squared oscillation is off by a few (n log2 N) eps max|g|^2.
    """
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
