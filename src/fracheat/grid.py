"""Periodic grid, field containers, synthesis recipes, and the DFT layer.

Conventions
-----------
The domain is the box [0, L)^n sampled at N points per axis (N a power of
two).  Wavenumbers are xi = 2*pi*k/L with integer k in {-N/2, ..., N/2-1},
stored in FFT order.  The forward transform is scaled so that the discrete
Parseval identity holds with each side weighted by its own cell volume:

    sum |f|^2 * (L/N)^n  ==  sum |fhat|^2 * (2*pi/L)^n

Whole space is emulated by fields concentrated in the central half-box
[L/4, 3L/4)^n; :func:`contamination` measures the |f|-mass outside it and
every whole-space experiment passes :func:`require_whole_space`, which
keeps it below HALF_BOX_TOL = 1e-6.

The symbols with factors of xi_j (gradients and divergences, the Leray
projector, the nonlinearity and the derivatives of `regularity_check`)
are built from a Nyquist-zeroed copy of the frequency lattice so that
real fields map to real fields without asymmetric-mode artifacts.

Parts
-----
Every `TimeSeries` is real in physical space: it stores float64 physical
samples or `rfftn` half spectra (last axis N//2 + 1 wide, wavenumber index
k <= N/2; the other modes are fhat(-k) = conj(fhat(k)) and are never
stored).  Data enters once, at construction: complex input that passes
`is_real` loses its roundoff imaginary part; any other is split into its
(re, im) parts on their own axis 1, shape (m, 2, *grid.shape) for a
scalar and (m, 2, c, *grid.shape) for a c-vector, and the series records
`parts` = 2.  A vector's components are always on axis -(n+1).  Every
operator here maps real fields to real fields and every norm measures a
sample by the pointwise Euclidean magnitude of all its parts and
components, so the parts evolve and measure as the complex data would.
`.snapshots` is the one exit: it rejoins the parts and fills a spectral
half.  `Field` stays complex on the full lattice; its transforms,
operators and norms run as one-sample series (`as_series`,
`on_half_spectrum`) through `_dft`.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ContaminationError, PreconditionError, RepresentationError
from .errors import require_count, require_positive

PHYSICAL = "physical"
SPECTRAL = "spectral"

HALF_BOX_TOL = 1e-6

TINY = np.finfo(np.float64).tiny  # the least normal float64


@dataclass(frozen=True)
class GridSpec:
    """Discrete periodic box: dimension n, N points per axis, side length L."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        require_count("n", self.n)
        require_count("N", self.N)
        if self.n not in (1, 2, 3):
            raise PreconditionError(f"dimension n={self.n} not in {{1, 2, 3}}")
        if self.N < 8 or self.N & (self.N - 1):  # not a power of two
            raise PreconditionError(f"N={self.N} must be a power of two >= 8")
        require_positive("box length L", self.L)
        with np.errstate(over="ignore", under="ignore"):  # out-of-range scales are named below
            L = np.float64(self.L)
            scales = np.array([(L / self.N) ** self.n, (2 * np.pi / L) ** 2,
                               self.n * (np.pi * self.N / L) ** 2])
        if not np.all((TINY <= scales) & (scales < np.inf)):
            raise PreconditionError(
                f"box length L={self.L}: the cell volume (L/N)^n and the |xi|^2 range "
                f"(2 pi/L)^2 to n (pi N/L)^2 must be normal floats, got {scales.tolist()}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def spacing(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** self.n

    @property
    def nyquist(self) -> float:
        """Largest resolvable |xi| per axis, pi*N/L."""
        return np.pi * self.N / self.L

    def axis_frequencies(self, zero_nyquist: bool = False) -> np.ndarray:
        """1-D wavenumbers 2*pi*k/L in FFT order; optionally kill k = -N/2."""
        k = 2 * np.pi * np.fft.fftfreq(self.N, d=self.spacing)
        if zero_nyquist:
            k = k.copy()
            k[self.N // 2] = 0.0
        return k

    @cached_property
    def frequencies(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumber meshes, shape (N,)*n, FFT order."""
        axes = [self.axis_frequencies() for _ in range(self.n)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def deriv_frequencies(self) -> tuple[np.ndarray, ...]:
        """Nyquist-zeroed wavenumber meshes, used for odd symbols."""
        axes = [self.axis_frequencies(zero_nyquist=True) for _ in range(self.n)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def abs_freq(self) -> np.ndarray:
        """|xi| on the lattice."""
        return np.sqrt(sum(x**2 for x in self.frequencies))

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Physical coordinate meshes on [0, L)^n."""
        ax = np.linspace(0.0, self.L, self.N, endpoint=False)
        return tuple(np.meshgrid(*([ax] * self.n), indexing="ij"))

    @property
    def center(self) -> tuple[float, ...]:
        return (self.L / 2,) * self.n


def make_grid(n: int, N: int, L: float) -> GridSpec:
    """Build a validated grid; rejects non-power-of-two N and n outside 1..3."""
    return GridSpec(n=n, N=N, L=float(L))


@dataclass
class Field:
    """Complex data on a grid, in physical or spectral representation: a
    scalar of shape grid.shape or a c-component vector of shape
    (c, *grid.shape), exactly one sample of `TimeSeries.data`."""

    grid: GridSpec
    data: np.ndarray
    representation: str = PHYSICAL

    def __post_init__(self):
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise RepresentationError(f"unknown representation {self.representation!r}")
        self.data = np.asarray(self.data, dtype=np.complex128)
        shape, n = self.data.shape, self.grid.n
        if shape[-n:] != self.grid.shape or len(shape) not in (n, n + 1):
            raise PreconditionError(
                f"data shape {shape} does not match grid {self.grid.shape}"
            )

    @property
    def components(self) -> tuple["Field", ...]:
        """Per-component views of a vector field's data."""
        return tuple(Field(self.grid, d, self.representation) for d in self.data)

    def to_physical(self) -> "Field":
        """This field in physical space, transformed as a one-sample series."""
        if self.representation == PHYSICAL:
            return self
        return as_series(self).to_physical().snapshots[0]

    def to_spectral(self) -> "Field":
        """This field's full spectrum, transformed as a one-sample series."""
        if self.representation == SPECTRAL:
            return self
        return as_series(self).to_spectral().snapshots[0]


def _half(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The half lattice of a full-lattice array: last wavenumber index k <= N/2."""
    return a[..., : grid.N // 2 + 1]


def _dft_scale(grid: GridSpec) -> float:
    return grid.cell_volume / (2 * np.pi) ** (grid.n / 2)


def _dft(data: np.ndarray, grid: GridSpec, direction: str) -> np.ndarray:
    """Unitary real-to-complex DFT over the trailing grid.n axes of `data`.

    forward : fhat = rfftn(f) * h^n / (2*pi)^(n/2), real samples to the half spectrum
    inverse : f = irfftn(fhat) * (2*pi)^(n/2) / h^n, a half spectrum to real samples
    """
    axes = tuple(range(-grid.n, 0))
    if direction == "forward":
        out = np.fft.rfftn(data, axes=axes)
        out *= _dft_scale(grid)
    else:
        out = np.fft.irfftn(data, s=grid.shape, axes=axes)
        out /= _dft_scale(grid)
    return out


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """a at the negated wavenumbers: index k -> (-k) mod N along each of `axes`."""
    axes = tuple(axes)
    return np.roll(np.flip(a, axes), 1, axes)


def _hermitian_fill(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full spectrum from the `rfftn` half (last axis k <= N/2) of a real
    field: the missing modes are fhat(-k) = conj(fhat(k))."""
    N = grid.N
    full = np.empty((*half.shape[:-1], N), dtype=np.complex128)
    full[..., : N // 2 + 1] = half
    mirrored = _reflect(half[..., N // 2 - 1 : 0 : -1], range(-grid.n, -1))
    np.conjugate(mirrored, out=full[..., N // 2 + 1 :])
    return full


def is_real(data: np.ndarray, grid: GridSpec, representation: str) -> bool:
    """Whether a full-lattice sample stack is real in physical space: every
    value is finite and, per sample, max |imag| (physical) or the Hermitian
    defect max |fhat(k) - conj(fhat(-k))| (spectral) stays within 1e-12 of
    max |f|.  A non-finite sample is not real: dropping its imaginary part
    could drop a NaN."""
    for chunk in sample_chunks(data, grid, copies=4):
        d = data[chunk]
        if not np.all(np.isfinite(d)):
            return False
        if representation == PHYSICAL:
            defect = np.abs(d.imag)
        else:
            defect = np.abs(d - np.conj(_reflect(d, range(-grid.n, 0))))
        peak = np.abs(d).reshape(len(d), -1).max(axis=1)
        if np.any(defect.reshape(len(d), -1).max(axis=1) > 1e-12 * peak):
            return False
    return True


def require_one_part(u: "TimeSeries", what: str) -> None:
    """Reject a series that holds the (re, im) parts of complex data, naming
    non-finite values when they are the cause."""
    if u.parts != 1:
        finite = np.all(np.isfinite(u.data))
        cause = "the (re, im) parts of complex data" if finite else "non-finite values"
        raise PreconditionError(f"{what} must be a real field: it holds {cause}")


# Batched kernels work on this many bytes of input samples at a time: large
# enough to amortise the per-call cost over small grids, small enough that
# their temporaries stay near cache size and peak memory stays flat.
CHUNK_BYTES = 1 << 20


# A streamed time axis (`semigroup._evolved_chunks`) is made this many
# `sample_chunks` chunks at a time, into one buffer the stream reuses, and
# measured a chunk at a time.  Made one chunk at a time, the kernels' freed
# temporaries went back to the operating system after every step and were
# faulted in again: glibc sets its trim threshold from the largest block
# freed so far, and one-chunk steps never raised it past those temporaries
# (about 19,000 minor page faults per 128^2 homogeneous verify op, and 65%
# more time; a few hundred with steps of four chunks).
STREAM_CHUNKS = 4


def sample_chunks(data: np.ndarray, grid: GridSpec, copies: int = 1):
    """Slices of the leading sample axis of `data`, each about CHUNK_BYTES / copies.

    A sample counts at its size on the full lattice of `grid`, so half
    spectra are cut like the full spectra whose transforms they stand for.
    """
    shape = (*data.shape[1:-1], grid.N)
    sample_bytes = copies * data.itemsize * math.prod(shape)
    step = max(1, CHUNK_BYTES // max(1, sample_bytes))
    return [slice(i, i + step) for i in range(0, len(data), step)]


def VectorField(components) -> Field:
    """Stack component fields sharing one grid and representation into one
    vector `Field` of shape (c, *grid.shape)."""
    comps = list(components)
    if len({c.grid for c in comps}) != 1 or len({c.representation for c in comps}) != 1:
        raise PreconditionError("components must share grid and representation")
    return Field(comps[0].grid, np.stack([c.data for c in comps]), comps[0].representation)


def inner_product(f: Field, g: Field) -> complex:
    """L^2 pairing <f, g> = cellvol * sum f * conj(g) in physical space."""
    a, b = f.to_physical().data, g.to_physical().data
    return complex(np.sum(a * np.conj(b)) * f.grid.cell_volume)


def contamination(f: Field) -> float:
    """Fraction of the |f|-mass outside the central half-box [L/4, 3L/4)^n."""
    data = np.abs(f.to_physical().data)
    total = float(data.sum())
    if total == 0.0:
        return 0.0
    N = f.grid.N
    sl = (slice(N // 4, 3 * N // 4),) * f.grid.n
    inside = float(data[(..., *sl)].sum())
    return max((total - inside) / total, 0.0)


def require_whole_space(f: Field, what: str) -> float:
    """The `contamination` of f, the one whole-space gate: PreconditionError,
    naming `what`, when f holds inf or NaN, and ContaminationError when its
    contamination reaches HALF_BOX_TOL."""
    if not np.all(np.isfinite(f.data)):
        raise PreconditionError(f"{what} holds non-finite values")
    c = contamination(f)
    if c >= HALF_BOX_TOL:
        raise ContaminationError(
            f"{what}: contamination {c:.3e} >= {HALF_BOX_TOL:g} "
            "(|f|-mass outside the central half-box)"
        )
    return c


def require_zero_mean(f: Field, what: str) -> None:
    """`require_zero_means` of f's half spectrum, which holds the xi = 0 mode."""
    require_zero_means(as_series(f).to_spectral().data, f.grid, what)


def require_zero_means(spec: np.ndarray, grid: GridSpec, what: str) -> None:
    """Reject a spectral stack if a sample's xi = 0 mode exceeds 1e-12 of its peak."""
    peak = np.abs(spec).reshape(len(spec), -1).max(axis=1)
    mean = np.abs(spec[(..., *(0,) * grid.n)]).reshape(len(spec), -1).max(axis=1)
    if np.any(mean > 1e-12 * peak):
        raise PreconditionError(f"{what} requires a zero-mean field")


# ---------------------------------------------------------------------------
# synthesis recipes
# ---------------------------------------------------------------------------
#
# Every recipe renders deterministically from its parameters.  Recipes with a
# `scale` attribute support exact analytic dilation f(x) -> f(c + s*(x - c))
# about the box center via `dilated`; the map contracts data toward the
# center so dilated fields stay inside the half-box.


def _require_seed(seed) -> None:
    """Reject a seed that is not an integer >= 0 (numpy integers are integers)."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise PreconditionError(f"seed={seed} must be an integer >= 0")


def _require_width(width: float) -> None:
    """Reject a width that is not positive and finite, or whose square, the
    scale of a recipe's Gaussian, is not a normal float."""
    require_positive("width", width)
    if not TINY <= float(width) * float(width) < math.inf:
        raise PreconditionError(f"width={width}: its square must be a normal float")


def _require_spread(spread: float | None) -> None:
    if spread is not None and not 0 <= spread < math.inf:
        raise PreconditionError(f"spread = {spread}: must be nonnegative and finite")


def _mapped_coords(grid: GridSpec, scale: float) -> tuple[np.ndarray, ...]:
    c = grid.center
    return tuple(ci + scale * (x - ci) for x, ci in zip(grid.coordinates, c))


@dataclass(frozen=True)
class GaussianBump:
    """Real positive bump exp(-|x - c|^2 / (2 width^2)) about the box center c."""

    width: float
    scale: float = 1.0

    def __post_init__(self):
        _require_width(self.width)

    def dilated(self, lam: float) -> "GaussianBump":
        return replace(self, scale=self.scale * lam)

    def render(self, grid: GridSpec) -> np.ndarray:
        if self.width > grid.L / 4:
            raise PreconditionError(
                f"bump width {self.width} exceeds L/4 = {grid.L / 4}: "
                "boundary-contamination guard"
            )
        ys = _mapped_coords(grid, self.scale)
        r2 = sum((y - ci) ** 2 for y, ci in zip(ys, grid.center))
        return np.exp(-r2 / (2 * self.width**2))


@dataclass(frozen=True)
class PlaneWave:
    """Single Fourier mode exp(i * (2*pi*k/L) . x), k an integer vector."""

    k: tuple[int, ...]
    scale: float = 1.0

    def dilated(self, lam: float) -> "PlaneWave":
        if abs(lam - round(lam)) > 1e-12:
            raise PreconditionError("plane-wave dilation factor must be an integer")
        return replace(self, scale=self.scale * lam)

    def render(self, grid: GridSpec) -> np.ndarray:
        if len(self.k) != grid.n:
            raise PreconditionError("wavevector dimension does not match grid")
        keff = [self.scale * kj for kj in self.k]
        if any(abs(kj) >= grid.N / 2 for kj in keff):
            raise PreconditionError(f"wavevector {keff} at or beyond Nyquist N/2")
        phase = sum(
            (2 * np.pi * kj / grid.L) * x for kj, x in zip(keff, grid.coordinates)
        )
        return np.exp(1j * phase)


@dataclass(frozen=True)
class RandomBandlimited:
    """Real zero-mean field with spectral support in 2^j_min <= |xi| <= 2^(j_max+1).

    Band limits are in physical frequency units.  Global (not localized):
    intended for torus-native tests of the dyadic machinery, not for
    whole-space dilation experiments.
    """

    seed: int
    j_min: int
    j_max: int

    def __post_init__(self):
        _require_seed(self.seed)

    def render(self, grid: GridSpec) -> np.ndarray:
        lo, hi = 2.0**self.j_min, 2.0 ** (self.j_max + 1)
        if hi >= grid.nyquist:
            raise PreconditionError(
                f"band top 2^{self.j_max + 1} = {hi} reaches Nyquist {grid.nyquist}"
            )
        rng = np.random.default_rng(self.seed)
        coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        absxi = grid.abs_freq
        coef[(absxi < lo) | (absxi > hi)] = 0.0
        coef = _hermitianize(coef)
        coef[(0,) * grid.n] = 0.0
        if not np.any(coef):
            raise PreconditionError(
                f"j_min = {self.j_min}, j_max = {self.j_max}: the band "
                f"{lo} <= |xi| <= {hi} holds no nonzero mode of the grid"
            )
        data = np.fft.ifftn(coef)
        norm = np.sqrt(np.sum(np.abs(data) ** 2) * grid.cell_volume)
        return data / norm


@dataclass(frozen=True)
class RandomBumps:
    """Signed Gaussian bumps at seeded random positions near the box center.

    Amplitudes come in cancelling +/- pairs so the integral is exactly zero
    (count must be even).  `spread` bounds the max-norm distance of bump
    centers from the box center.
    """

    seed: int
    width: float
    spread: float
    count: int = 4
    scale: float = 1.0

    def __post_init__(self):
        _require_seed(self.seed)
        _require_width(self.width)
        _require_spread(self.spread)
        require_count("count", self.count)
        if self.count % 2:
            raise PreconditionError(f"count={self.count} must be even for exact cancellation")

    def dilated(self, lam: float) -> "RandomBumps":
        return replace(self, scale=self.scale * lam)

    def render(self, grid: GridSpec) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        c = np.array(grid.center)
        ys = _mapped_coords(grid, self.scale)
        data = np.zeros(grid.shape, dtype=np.complex128)
        for _ in range(self.count // 2):
            amp = rng.uniform(0.5, 1.0)
            for sign in (+1.0, -1.0):
                pos = c + rng.uniform(-self.spread, self.spread, size=grid.n)
                r2 = sum((y - pj) ** 2 for y, pj in zip(ys, pos))
                data += sign * amp * np.exp(-r2 / (2 * self.width**2))
        return data


@dataclass(frozen=True)
class WavePackets:
    """Gaussian-enveloped oscillatory packets with lattice carriers near |k| = carrier.

    Packets come in +/- pairs sharing a carrier and phase, so the integral
    cancels exactly (the integral of one packet depends only on its carrier,
    envelope, and phase, not its position) and the field stays localized.
    Spectral content concentrates in an annulus of width ~1/width around
    the carrier radius; carrier wavevectors are integer lattice vectors, so
    dilation by an integer factor is exact.
    """

    seed: int
    carrier: float
    width: float
    count: int = 3
    spread: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        _require_seed(self.seed)
        _require_width(self.width)
        require_positive("carrier", self.carrier)
        _require_spread(self.spread)
        require_count("count", self.count)

    def dilated(self, lam: float) -> "WavePackets":
        if abs(lam - round(lam)) > 1e-12:
            raise PreconditionError("wave-packet dilation factor must be an integer")
        return replace(self, scale=self.scale * lam)

    def render(self, grid: GridSpec) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        c = np.array(grid.center)
        spread = self.spread if self.spread is not None else grid.L / 16
        ys = _mapped_coords(grid, self.scale)
        data = np.zeros(grid.shape, dtype=np.complex128)
        for _ in range(self.count):
            amp = rng.uniform(0.5, 1.0)
            kvec = _lattice_vector_near(rng, self.carrier, grid.n)
            if any(abs(self.scale * kj) >= grid.N / 2 for kj in kvec):
                raise PreconditionError("dilated carrier reaches Nyquist")
            theta = rng.uniform(0, 2 * np.pi)
            for sign in (+1.0, -1.0):
                pos = c + rng.uniform(-spread, spread, size=grid.n)
                r2 = np.zeros(grid.shape)
                phase = np.full(grid.shape, theta)
                for y, pj, kj in zip(ys, pos, kvec):
                    r2 = r2 + (y - pj) ** 2
                    phase = phase + (2 * np.pi * kj / grid.L) * (y - pj)
                data += sign * amp * np.exp(-r2 / (2 * self.width**2)) * np.cos(phase)
        spec = np.fft.fftn(data)
        spec[(0,) * grid.n] = 0.0  # removes only rounding residue
        return np.fft.ifftn(spec)


@dataclass(frozen=True)
class WindowedPowerlaw:
    """Compactly supported field with ~|xi|^(-decay) spectral profile.

    Synthesized as a positive-spectrum radial profile (amplitude
    min(1, |k|^-decay) in lattice units, phases aligned at the box center)
    multiplied by a smooth plateau window (half-width 0.15 L, support
    half-width 0.25 L) supported in the central half-box, so the
    contamination is exactly zero.  Used for decay-rate experiments whose
    extremizing data is not bump-like.
    """

    decay: float

    def render(self, grid: GridSpec) -> np.ndarray:
        klat = grid.abs_freq * grid.L / (2 * np.pi)  # lattice units
        prof = np.maximum(klat, 1.0) ** -self.decay  # min(1, |k|^-decay)
        prof[(0,) * grid.n] = 0.0
        base = np.fft.ifftn(prof * _center_phase(grid)).real
        win = np.ones(grid.shape)
        for x in grid.coordinates:
            d = np.abs(x - grid.L / 2)
            win = win * _plateau_profile(d, 0.15 * grid.L, 0.25 * grid.L)
        # subtract a window-shaped mean so the field is zero-mean while
        # staying compactly supported inside the half-box
        m = np.sum(base * win) / np.sum(win)
        return ((base - m) * win).astype(np.complex128)


# the recipes with an analytic `dilated`, the ones a dilation sweep accepts
DilatableRecipe = GaussianBump | PlaneWave | RandomBumps | WavePackets

Recipe = DilatableRecipe | RandomBandlimited | WindowedPowerlaw


def synthesize_field(grid: GridSpec, recipe: Recipe) -> Field:
    """Render a recipe into a physical-representation field."""
    return Field(grid, recipe.render(grid), PHYSICAL)


def _hermitianize(coef: np.ndarray) -> np.ndarray:
    """Project onto conjugate-symmetric coefficients (real physical field)."""
    return 0.5 * (coef + np.conj(_reflect(coef, range(coef.ndim))))


def _lattice_vector_near(rng, radius: float, n: int) -> tuple[int, ...]:
    """Random integer lattice vector with |k| within ~1 of `radius`."""
    for _ in range(256):
        v = rng.standard_normal(n)
        v *= radius / np.linalg.norm(v)
        k = tuple(int(round(x)) for x in v)
        if abs(np.linalg.norm(k) - radius) <= 1.0 and any(k):
            return k
    raise PreconditionError(f"no lattice vector near radius {radius}")


def _center_phase(grid: GridSpec) -> np.ndarray:
    """exp(-i xi . c) so that aligned-phase spectra peak at the box center."""
    c = grid.center
    phase = sum(xi * ci for xi, ci in zip(grid.frequencies, c))
    return np.exp(-1j * phase)


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _plateau_profile(d: np.ndarray, r1: float, r2: float) -> np.ndarray:
    """Smooth (C-infinity) profile: 1 for d <= r1, 0 for d >= r2."""
    u = (np.asarray(d, dtype=float) - r1) / (r2 - r1)  # 0..1 across the roll
    a, b = _bump(1.0 - u), _bump(u)
    return a / (a + b + 1e-300)


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------


class TimeSeries:
    """A real scalar or vector field sampled on a strictly increasing time grid.

    `data` stacks the samples on axis 0 in one `representation`: float64
    physical samples of shape (m, *grid.shape) for a scalar and
    (m, c, *grid.shape) for a c-component series, or their `rfftn` half
    spectra, last axis N//2 + 1 wide.  `parts` is 2 when axis 1 holds the
    (re, im) parts of complex data, else 1 (see the module notes).  The
    constructor stacks `Field` snapshots (spectral if their representations
    differ); `from_data` wraps a stacked array.  Complex physical data and
    full spectra enter through `is_real`; real physical data and half
    spectra are stored as given, with a parts axis if `parts` is 2.
    """

    def __init__(self, times, snapshots):
        snaps = list(snapshots)
        if not snaps:
            raise PreconditionError("a time series needs at least one snapshot")
        if len({s.grid for s in snaps}) > 1:
            raise PreconditionError("snapshots must share one grid")
        rep = PHYSICAL if all(s.representation == PHYSICAL for s in snaps) else SPECTRAL
        datas = [(s if rep == PHYSICAL else s.to_spectral()).data for s in snaps]
        self._set(snaps[0].grid, times, np.stack(datas), rep, 1)

    @classmethod
    def from_data(
        cls, grid: GridSpec, times, data, representation=SPECTRAL, parts=1
    ) -> "TimeSeries":
        """Wrap a stacked array of shape (m, *grid.shape) or (m, c, *grid.shape),
        (m, 2, ...) for `parts` = 2, or a half-spectral one, last axis N//2 + 1."""
        series = cls.__new__(cls)
        series._set(grid, times, data, representation, parts)
        return series

    def _set(self, grid, times, data, representation, parts) -> None:
        if representation not in (PHYSICAL, SPECTRAL):
            raise RepresentationError(f"unknown representation {representation!r}")
        self.grid, self.representation = grid, representation
        self.times = np.asarray(times, dtype=float)
        data = np.asarray(data)
        shape, half = data.shape, grid.N // 2 + 1
        if parts not in (1, 2) or parts == 2 and shape[1:2] != (2,):
            raise PreconditionError(f"series data shape {shape} holds no {parts} parts")
        rank = grid.n + parts  # sample axis, parts axis if parts = 2, grid axes
        if shape[-grid.n : -1] != grid.shape[:-1] or not rank <= len(shape) <= rank + 1:
            raise PreconditionError(f"series data shape {shape} off grid {grid}")
        widths = (grid.N,) if representation == PHYSICAL else (grid.N, half)
        if shape[-1] not in widths:
            raise PreconditionError(
                f"{representation} series data has last-axis width {shape[-1]}, not "
                f"{' or '.join(map(str, widths))} (N, or N//2+1 for half spectra)"
            )
        # complex physical data or a full spectrum: bring it to the stored layout
        if np.iscomplexobj(data) if representation == PHYSICAL else shape[-1] != half:
            if parts != 1:
                raise PreconditionError("complex or full-spectral data is split at entry")
            data, parts = _stored(data, grid, representation)
        dtype = np.float64 if representation == PHYSICAL else np.complex128
        self.data, self._parts = np.ascontiguousarray(data, dtype=dtype), parts
        if len(self.times) != len(self.data) or self.times.ndim != 1:
            raise PreconditionError("times and snapshots must have equal length")
        _require_times(self.times, "times")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def parts(self) -> int:
        """2 if axis 1 holds the (re, im) parts of complex data, else 1
        (fixed at construction)."""
        return self._parts

    @cached_property
    def snapshots(self) -> list[Field]:
        """Per-sample complex `Field`s on the full lattice: the parts rejoined
        and a spectral half Hermitian-filled (once: `data` is not changed
        after construction)."""
        data = self.data
        if self.representation == SPECTRAL:
            data = _hermitian_fill(data, self.grid)
        if self.parts == 2:
            data = data[:, 0] + 1j * data[:, 1]
        return [Field(self.grid, d, self.representation) for d in data]

    def to_physical(self) -> "TimeSeries":
        return self._as(PHYSICAL)

    def to_spectral(self) -> "TimeSeries":
        return self._as(SPECTRAL)

    def _as(self, representation: str) -> "TimeSeries":
        """This series in `representation`, transformed a `sample_chunks`
        chunk at a time."""
        if self.representation == representation:
            return self
        g = self.grid
        forward = representation == SPECTRAL
        shape = (*self.data.shape[:-1], g.N // 2 + 1 if forward else g.N)
        data = np.empty(shape, dtype=np.complex128 if forward else np.float64)
        for chunk in sample_chunks(self.data, g):
            data[chunk] = _dft(self.data[chunk], g, "forward" if forward else "inverse")
        return TimeSeries.from_data(g, self.times, data, representation, parts=self.parts)

    def chunks(self, representation: str = PHYSICAL, copies: int = 1):
        """`data` in one representation, a `sample_chunks` chunk at a time
        (spectral chunks are half spectra)."""
        direction = "inverse" if representation == PHYSICAL else "forward"
        for chunk in sample_chunks(self.data, self.grid, copies):
            d = self.data[chunk]
            yield d if self.representation == representation else _dft(d, self.grid, direction)


def _require_times(times, what: str) -> np.ndarray:
    """times as floats; PreconditionError, naming `what`, unless they are
    finite, nonnegative and strictly increasing, as a series' time grid must be."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise PreconditionError(f"{what} must be finite")
    if len(times) and times[0] < 0:
        raise PreconditionError(f"{what} must be nonnegative")
    if np.any(np.diff(times) <= 0):
        raise PreconditionError(f"{what} must be strictly increasing")
    return times


def _stored(data: np.ndarray, grid: GridSpec, representation: str):
    """The stored layout of a complex physical or full spectral sample stack
    and its number of parts: its real part if it passes `is_real`, else its
    (re, im) parts on axis 1 (see the module notes)."""
    if is_real(data, grid, representation):
        parts = [data]
    elif representation == PHYSICAL:
        parts = [data.real, data.imag]
    else:  # the spectra of the real and imaginary parts
        mirror = np.conj(_reflect(data, range(-grid.n, 0)))
        parts = [(data + mirror) / 2, (data - mirror) / 2j]
    parts = [np.real(p) if representation == PHYSICAL else _half(p, grid) for p in parts]
    if len(parts) == 1:
        return parts[0], 1
    return np.stack(parts, axis=1), 2


def as_series(f: Field) -> TimeSeries:
    """f as a one-sample series at t = 0, in the stored layout."""
    return TimeSeries.from_data(f.grid, [0.0], f.data[None], f.representation)


def on_half_spectrum(f: Field, op) -> Field:
    """op applied to the half spectrum of f as a one-sample series, returned
    in f's representation.  op maps a half-spectral stack to another and must
    be linear and map real fields to real fields: complex data runs as its
    (re, im) parts."""
    u = as_series(f).to_spectral()
    out = TimeSeries.from_data(f.grid, u.times, op(u.data), parts=u.parts)
    return (out if f.representation == SPECTRAL else out.to_physical()).snapshots[0]


def uniform_times(T: float, nodes: int) -> np.ndarray:
    """nodes+1 equispaced samples on [0, T]."""
    require_positive("time horizon T", T)
    require_count("nodes", nodes)
    return np.linspace(0.0, T, nodes + 1)


def geometric_times(t_min: float, t_max: float) -> np.ndarray:
    """Geometric samples of ratio 1.25 anchored at t_min, ending exactly at t_max.

    Anchoring at the refined (singular) end means enlarging t_max only
    appends nodes, so tail-truncation studies share all interior samples.
    """
    if not 0 < t_min < t_max < math.inf:
        raise PreconditionError(
            f"geometric time grid needs 0 < t_min < t_max < inf: "
            f"t_min = {t_min}, t_max = {t_max}"
        )
    ts = [t_min]
    while ts[-1] * 1.25 < t_max * (1 - 1e-12):
        ts.append(ts[-1] * 1.25)
    ts.append(t_max)
    return np.array(ts)


# ---------------------------------------------------------------------------
# serialization: flat binary, 32-byte header + little-endian (re, im) f64 pairs
# ---------------------------------------------------------------------------

_MAGIC = b"FRSF"
_HEADER = struct.Struct("<4sIIIdB7x")  # magic, version, n, N, L, representation
_VERSION = 1
_PAYLOAD = np.dtype("<c16")  # (re, im) little-endian f64 pairs, exactly complex128


def write_field(f: Field, path) -> None:
    if f.data.shape != f.grid.shape:
        raise PreconditionError("a field file holds one scalar field")
    rep = 0 if f.representation == PHYSICAL else 1
    header = _HEADER.pack(_MAGIC, _VERSION, f.grid.n, f.grid.N, f.grid.L, rep)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(f.data, dtype=_PAYLOAD).tobytes())


def read_field(path) -> Field:
    """Load an FRSF file, rejecting a missing or unreadable file, a truncated
    payload or non-finite values."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise PreconditionError(
            f"cannot read field file {path}: {exc.strerror}"
        ) from exc
    if len(raw) < _HEADER.size:
        raise PreconditionError(f"field file {path} is shorter than its header")
    magic, version, n, N, L, rep = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise PreconditionError(f"bad magic {magic!r} in field file")
    if version != _VERSION:
        raise PreconditionError(f"unsupported field file version {version}")
    grid = GridSpec(n=n, N=N, L=L)
    payload = len(raw) - _HEADER.size
    if payload != 16 * N**n:
        raise PreconditionError(
            f"field file {path} holds {payload} payload bytes; its header grid "
            f"(n={n}, N={N}) needs {16 * N**n}"
        )
    data = np.frombuffer(raw, dtype=_PAYLOAD, offset=_HEADER.size)
    if not np.all(np.isfinite(data)):
        raise PreconditionError(f"field file {path} holds non-finite values")
    data = data.astype(np.complex128).reshape(grid.shape)  # a writeable native copy
    return Field(grid, data, PHYSICAL if rep == 0 else SPECTRAL)
