"""Function-space norms: L^p, mixed L^q_t L^p_x, Sobolev, Besov, and BMO.

Spatial integrals are cell-volume-weighted Riemann sums; every time integral
is a composite trapezoid sum on the (possibly geometric) sample grid, taken by
`_time_integral`; p = infinity means the max over grid points / time samples.

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

from .errors import PreconditionError, require_exponent
from .grid import (
    SPECTRAL, Field, GridSpec, TimeSeries, _bump, _dft, _half, as_series, require_zero_means,
    sample_chunks,
)
from .semigroup import apply_symbol, derivative_symbol

INF = float("inf")
TINY = np.finfo(np.float64).tiny  # the least normal float64
SMALL = math.sqrt(TINY / np.finfo(np.float64).eps)  # a square underflows by <= eps^2 SMALL^2 / 2


# norm kind -> the NormSpec fields it reads besides its kind
NORM_PARAMS = {"lebesgue": ("p",), "sobolev": ("p", "s", "homogeneous"),
               "besov": ("p", "s", "q", "homogeneous"), "bmo": ()}


@dataclass(frozen=True)
class NormSpec:
    """Norm selector: lebesgue(p) | sobolev(s, p) | besov(s, p, q) | bmo."""

    kind: str
    p: float = 2.0
    s: float = 0.0
    q: float = 2.0
    homogeneous: bool = True

    def __post_init__(self):
        if self.kind not in NORM_PARAMS:
            raise PreconditionError(f"unknown norm kind {self.kind!r}")
        if self.s != 0 and "s" not in NORM_PARAMS[self.kind]:
            raise PreconditionError(f"s={self.s}: the {self.kind} norm does not read s")
        require_exponent("p", self.p)
        require_exponent("q", self.q)

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


def _rescaled(norms_of):
    """A stack norm `norms_of(phys, grid, *args)` whose finite samples get
    finite norms: a sample whose squares or powers overflow is measured
    again as max |f| times the norm of f / max |f|; the other samples, and
    samples that hold inf or NaN, keep their values."""

    def norms(phys: np.ndarray, grid: GridSpec, *args) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = norms_of(phys, grid, *args)
        for i in np.flatnonzero(~np.isfinite(out)):
            peak = np.abs(phys[i]).max()
            if peak < INF:
                out[i] = peak * norms_of(phys[i : i + 1] / peak, grid, *args)[0]
        return out

    return norms


@_rescaled
def _lp(phys: np.ndarray, grid: GridSpec, p: float) -> np.ndarray:
    """L^p norms of a stack of real physical samples, shape (m, *grid.shape)
    or (m, ..., *grid.shape); the axes between the sample and grid axes (parts
    and components) are measured by their pointwise Euclidean magnitude.
    Returns the m norms, the p-sums of `_root_sums` with weight h^n."""
    require_exponent("Lebesgue exponent p", p)
    if phys.ndim == grid.n + 1:
        mag = np.abs(phys)
    else:
        comps = phys.reshape(len(phys), -1, *grid.shape)
        mag = np.sqrt(sum(comps[:, c] ** 2 for c in range(comps.shape[1])))
    mag = mag.reshape(len(mag), -1)
    if p == INF:
        return mag.max(axis=1)
    return _root_sums(mag, p, grid.cell_volume)


def _root_sums(values: np.ndarray, p: float, weight: float) -> np.ndarray:
    """(sum values^p * weight)^(1/p) along axis 1 of nonnegative `values`.

    A row whose power sum over- or underflows (inf, 0 or subnormal; large
    values or p) is measured again as max * (sum (values/max)^p
    weight)^(1/p).  To first order that value is within (3 + (2 + log2 M)/p)
    eps relative of the exact sum of the computed values, M per row and
    eps = 2^-53: the quotient's rounding grows p-fold in the power and
    shrinks back in the root.  An all-zero row stays 0."""
    with np.errstate(over="ignore"):
        sums = np.sum(values**p, axis=1) * weight
    # the root is taken row by row: numpy's vectorised pow can differ from
    # the scalar one in the last bit, which would move reported norms
    roots = np.array([s ** (1.0 / p) for s in sums])
    for i in np.flatnonzero((sums < TINY) | (sums == INF)):
        peak = values[i].max()
        if 0 < peak < INF:
            with np.errstate(under="ignore"):
                scaled = np.sum((values[i] / peak) ** p) * weight
            roots[i] = peak * scaled ** (1.0 / p)
    return roots


def lp_norm(f, p: float) -> float:
    """Cell-volume-weighted L^p norm of a scalar or vector Field (a vector by
    its pointwise Euclidean magnitude); p = inf is the max over grid points."""
    return float(lp_norms(as_series(f), p)[0])


def lp_norms(u: TimeSeries, p: float) -> np.ndarray:
    """L^p norm of every sample of a series, one chunk of samples at a time."""
    return np.concatenate([_lp(d, u.grid, p) for d in u.chunks()])


def mixed_norm(u: TimeSeries, q: float, p: float) -> float:
    """L^q in time over the sample grid of the spatial L^p norm."""
    return _time_norm(lp_norms(u, p), u.times, q)


def _time_norm(vals: np.ndarray, times: np.ndarray, q: float) -> float:
    """L^q over the sample grid `times` of the per-sample norms `vals`: the
    root of `_time_integral`, the max for q = inf (`_require_time_grid`)."""
    _require_time_grid(times, q)
    if q == INF:
        return float(vals.max())
    total, scale = _time_integral(vals, times, q)
    return float(scale * total ** (1.0 / q))


def _require_time_grid(times, q: float) -> None:
    """PreconditionError unless there are two or more `times` and q >= 1."""
    if len(times) < 2:
        raise PreconditionError("mixed norm needs at least two time samples")
    require_exponent("time exponent q", q)


def _time_integral(vals, times, k, weight=1.0, head=(0.0, lambda v: 0.0)):
    """The one time quadrature: (total, scale), where scale^k total is the
    trapezoid sum over `times` of weight vals^k plus a head (value, formula),
    formula(value / scale) being the head in units of scale^k.  The scale is 1
    unless the total over- or underflows; then it is the largest of vals and
    the head's value (numpy floats, so no power raises), as in `_root_sums`."""

    def total(scale):
        return head[1](head[0] / scale) + np.trapezoid(weight * (vals / scale) ** k, times)

    with np.errstate(over="ignore"):
        out = total(1.0)
    peak = max(vals.max(), head[0])
    if (out < TINY or out == INF) and 0 < peak < INF:
        with np.errstate(under="ignore"):
            return total(peak), peak
    return out, 1.0


def _sobolev_norms(u: TimeSeries, s: float, p: float, homogeneous: bool) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflow is rejected just below, by name
        sym = derivative_symbol(u.grid, s, "homogeneous" if homogeneous else "inhomogeneous")
    if not np.all(np.isfinite(sym)):
        raise PreconditionError(f"Sobolev order s={s}: the derivative symbol is not finite")
    what = "negative-order homogeneous derivative" if homogeneous and s < 0 else None
    return _multiplier_norms(u, [sym], p, what)[:, 0]


def _multiplier_norms(u: TimeSeries, syms: list, p: float, zero_mean_for) -> np.ndarray:
    """L^p norms of every sample of `u` under each multiplier of `syms`, shape
    (samples, multipliers): one inverse transform per chunk of (sample,
    multiplier) pairs, on the half lattice (each symbol maps real fields to
    real fields).  A symbol may carry leading axes, as i xi does; `_lp`
    measures them after the parts and components, by the pointwise
    Euclidean magnitude of all.  `zero_mean_for` names what needs zero-mean
    samples."""
    grid = u.grid
    sym = np.stack([_half(s, grid) for s in syms])
    lead = sym.shape[1 : -grid.n]
    sym = np.expand_dims(sym, tuple(range(1, u.data.ndim - grid.n)))
    out = []
    for spec in u.chunks(SPECTRAL, copies=len(syms) * math.prod(lead)):
        if zero_mean_for:  # a half spectrum holds every |fhat| and the mean
            require_zero_means(spec, grid, zero_mean_for)
        spec = np.expand_dims(spec[:, None], tuple(range(-grid.n - len(lead), -grid.n)))
        blocks = _dft(spec * sym, grid, "inverse")
        out.append(_lp(blocks.reshape(-1, *blocks.shape[2:]), grid, p).reshape(len(blocks), -1))
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
    with np.errstate(over="ignore"):  # an overflow is rejected just below, by name
        weights = np.array([np.float64(2.0) ** (j * s) for j in part.bands])
    if not np.all(np.isfinite(weights)):
        raise PreconditionError(f"Besov order s={s}: the band weight 2^(j s) is not finite")
    norms = _multiplier_norms(u, syms, p, "homogeneous Besov norm" if homogeneous else None)
    terms = norms[:, : len(part.bands)] * weights
    band = terms.max(axis=1) if q == INF else _root_sums(terms, q, 1.0)
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
    The levels run from the smallest cubes up and stop at the first that
    the sample's sum of squares shows cannot raise the sup, with the bits
    of running them all.
    """
    return NormSpec("bmo").compute(f)


@_rescaled
def _bmo_norms(phys: np.ndarray, grid: GridSpec) -> np.ndarray:
    """BMO norms of a real physical sample stack.  Box sums [i] over the cube
    of side 2^m anchored at i double, one grid axis at a time (-n .. -1),
    into side 2^(m+1).  BMO is invariant under constants, so each sample's
    per-component mean is subtracted first and sq_sums/cells - (sums/cells)^2
    cancels only against the sample's own variation g.  Rounding bound: the
    subtraction moves values, and so the norm, by about eps (|mean| + max|f|);
    each box's squared oscillation is off by a few (n log2 N) eps max|g|^2.

    The samples run in blocks sized by `sample_chunks` for the four
    sample-sized buffers of the kernel, allocated once per call: two stacks
    of shape (block, 2, components, *grid.shape), each holding the sums and
    the squared sums, so that one add doubles both.  A level doubles from one
    stack into the other (`_shift_add`, the rolled sum's operand pairs, so
    its bits), and osc^2 goes into the stack it left, with /cells taken as
    the exact reciprocal power of two (the same rounding).  Level 0 is
    skipped: its osc^2 is s^2 - s^2, 0 where s^2 is finite, and a square
    that is not (NaN, or inf from overflow) makes every later level
    non-finite too.  Negative osc^2 from rounding is clipped by `best`
    starting at 0 (a vector's parts are clipped before they are added).

    The doubling stops once no larger cube can raise any sample's sup in
    the block: W slack / 2^(m n) < `best`, W a sample's sum of its squares
    (all cells, parts and components).  It bounds each osc^2 of level m and
    above: osc^2 <= the box's computed mean square (fl(a - b) <= a for
    b >= 0; the clip and the component sum are monotone), whose sum of
    squares, a doubling sum of terms >= 0, is at most the top level's.
    With K = comps N^n and u = eps / 2, that sum is within (N^n - 1) u of
    its exact sum and W within (K - 1) u of theirs, the component sum adds
    (comps - 1) u, the division 2^-1075 per component (<= u W / cells, as
    d >= SMALL below gives W >= TINY / eps; a smaller d is measured again),
    the bound's product u: at most K eps to first order, as N >= 8, and
    slack = 1 + 3 K eps.  So the max, and every bit, is kept, and no
    skipped level could overflow.  A NaN or inf W compares false and W = 0
    never drops below `best` = 0: such a sample runs every level, and so
    does its block.

    Squares of values below SMALL = sqrt(TINY / eps), about 1e-146, lose
    digits to underflow, so a finite sample whose peak deviation
    d = max |g| lies in (0, SMALL) is measured as d times the norm of g / d.
    For d >= SMALL each square's underflow is at most eps TINY / 2 <=
    eps^2 d^2 / 2, inside the bound above.
    """
    shape, axes = grid.shape, tuple(range(-grid.n, 0))
    comps = math.prod(phys.shape[1 : -grid.n])
    blocks = sample_chunks(phys, grid, copies=4)
    bufs = np.empty((2, len(phys[blocks[0]]) if blocks else 0, 2, comps, *shape))
    best, dev = np.zeros(len(phys)), np.empty(len(phys))
    slack = 1 + 3 * comps * grid.N**grid.n * np.finfo(np.float64).eps
    for block in blocks:
        x = phys[block].reshape(-1, comps, *shape)
        b = len(x)
        cur, free = bufs[0, :b], bufs[1, :b]
        np.subtract(x, x.mean(axis=axes, keepdims=True), out=cur[:, 0])
        np.square(cur[:, 0], out=cur[:, 1])
        g = cur[:, 0].reshape(b, -1)
        dev[block] = np.maximum(g.max(axis=1), -g.min(axis=1))
        mass = cur[:, 1].reshape(b, -1).sum(axis=1) * slack
        for m in range(1, int(math.log2(grid.N)) + 1):
            if np.all(mass / (2**m) ** grid.n < best[block]):
                break  # no cube of side 2^m or more can raise a sample's sup
            for ax in axes:
                _shift_add(cur, free, 2 ** (m - 1), ax)
                cur, free = free, cur
            np.multiply(cur, 1.0 / float((2**m) ** grid.n), out=free)
            mean2, osc2 = free[:, 0], free[:, 1]
            np.square(mean2, out=mean2)
            np.subtract(osc2, mean2, out=osc2)
            if comps > 1:  # the parts and components of a sample
                np.maximum(osc2, 0.0, out=osc2)
                for c in range(1, comps):
                    np.add(osc2[:, 0], osc2[:, c], out=osc2[:, 0])
            level = osc2[:, 0].reshape(b, -1).max(axis=1)
            np.maximum(best[block], level, out=best[block])  # NaN propagates
    out = np.sqrt(best)
    for i in np.flatnonzero((dev > 0) & (dev < SMALL)):
        g = phys[i] - phys[i].mean(axis=axes, keepdims=True)
        out[i] = dev[i] * _bmo_norms((g / dev[i])[None], grid)[0]
    return out


def _shift_add(a: np.ndarray, out: np.ndarray, s: int, ax: int) -> None:
    """out = a + np.roll(a, -s, ax) for contiguous `a` and `out`, `ax` < 0:
    the part that does not wrap round, then the band that does.  On the last
    axis the first part is one add over the flattened stack at offset s
    (its rows of N - s are too short to add one by one) that the band then
    overwrites; on an outer axis it runs over rows of (N - s) N^(-ax-1)
    contiguous elements."""
    N, rest = a.shape[ax], (slice(None),) * (-ax - 1)
    band, wrap = (..., slice(N - s, None), *rest), (..., slice(s), *rest)
    if ax == -1:
        flat = a.reshape(-1)
        np.add(flat[:-s], flat[s:], out=out.reshape(-1)[:-s])
    else:
        lo, hi = (..., slice(N - s), *rest), (..., slice(s, None), *rest)
        np.add(a[lo], a[hi], out=out[lo])
    np.add(a[band], a[wrap], out=out[band])
