"""Fractional heat propagator and related Fourier multipliers.

The dissipation generator is the fractional Laplacian with symbol
|xi|^(2*alpha); the propagator multiplies spectral data by
exp(-t |xi|^(2*alpha)).  All operators here are diagonal in frequency,
so they are independent of the transform normalization.

The Duhamel integral int_0^t exp(-(t-s) |xi|^(2a)) F(s) ds is evaluated
per mode with an exact integrating factor under a piecewise-linear-in-s
model for F (second-order exponential time differencing); it is exact for
forcings that are constant or linear in time between snapshots.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ContaminationError, PreconditionError
from .grid import (
    Field,
    GridSpec,
    SPECTRAL,
    TimeSeries,
    _half,
    as_series,
    contamination,
    is_real,
    require_zero_mean,
)


def _alpha_value(alpha) -> float:
    """The dissipation order as a float; PreconditionError unless 0 < alpha < inf."""
    a = float(alpha)
    if not 0 < a < math.inf:
        raise PreconditionError(f"alpha={a} must be positive and finite")
    return a


def apply_symbol(f: Field, sym: np.ndarray) -> Field:
    """Multiply spectral data by `sym`, preserving the input representation.

    f runs as a one-sample series on the half lattice, so `sym` must map
    real fields to real fields: sym(-k) = conj(sym(k)) to within 1e-12 of
    max |sym|, else PreconditionError.
    """
    if not is_real(np.asarray(sym)[None], f.grid, SPECTRAL):  # the same 1e-12 rule
        raise PreconditionError("multiplier symbol must satisfy sym(-k) = conj(sym(k))")
    u = as_series(f).to_spectral()
    out = TimeSeries.from_data(f.grid, u.times, u.data * _half(sym, f.grid), parts=u.parts)
    return (out if f.representation == SPECTRAL else out.to_physical()).snapshots[0]


def dissipation_symbol(grid: GridSpec, t: float, alpha) -> np.ndarray:
    a = _alpha_value(alpha)
    return np.exp(-t * grid.abs_freq ** (2 * a))


def apply_semigroup(f: Field, t: float, alpha) -> Field:
    """Propagate f by the fractional heat semigroup for time t >= 0."""
    if t < 0:
        raise PreconditionError(f"semigroup time t={t} must be nonnegative")
    return apply_symbol(f, dissipation_symbol(f.grid, t, alpha))


def semigroup_series(f, times: Sequence[float], alpha) -> TimeSeries:
    """Free evolution of a scalar or vector Field, or of the one sample of a
    series, sampled on a time grid (spectral, in the layout of the data)."""
    u = (f if isinstance(f, TimeSeries) else as_series(f)).to_spectral()
    a = _alpha_value(alpha)
    lam = _half(u.grid.abs_freq, u.grid) ** (2 * a)
    spec = u.data[0]
    data = np.empty((len(times), *spec.shape), dtype=np.complex128)
    for out, t in zip(data, times):
        np.multiply(spec, np.exp(-t * lam), out=out)
    return TimeSeries.from_data(u.grid, times, data, SPECTRAL, u.parts)


def kernel(grid: GridSpec, t: float, alpha, check: bool = True) -> Field:
    """Unit-mass convolution kernel of the propagator at time t > 0.

    Returned in physical representation, translated so its peak sits at
    the box center (the convention for whole-space emulation); its
    cell-volume-weighted sum is 1 because the xi = 0 symbol value is 1.
    Raises ContaminationError when more than 1e-6 of the |K|-mass sits
    outside the central half-box.
    """
    if not t > 0:
        raise PreconditionError(f"kernel time t={t} must be positive")
    out = Field(grid, kernel_data(dissipation_symbol(grid, t, alpha), grid))
    if check:
        require_contained_kernel(out, t, alpha)
    return out


def kernel_data(sym: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real physical kernel data of a stack of propagator symbols (full or
    half lattice), one `irfftn` of the half symbols for the stack, each
    sample centred as in `kernel`."""
    axes = tuple(range(-grid.n, 0))
    data = np.fft.fftshift(np.fft.irfftn(_half(sym, grid), s=grid.shape, axes=axes), axes=axes)
    return data * grid.N**grid.n / grid.L**grid.n


def require_contained_kernel(k: Field, t: float, alpha) -> None:
    """Raise ContaminationError when 1e-6 or more of the kernel's |K|-mass
    sits outside the central half-box."""
    c = contamination(k)
    if c >= 1e-6:
        raise ContaminationError(
            f"kernel mass outside central half-box is {c:.3e} >= 1e-6 "
            f"(t={t}, alpha={alpha})"
        )


def derivative_symbol(grid: GridSpec, order: float, kind: str = "homogeneous") -> np.ndarray:
    """|xi|^order (homogeneous, xi=0 -> 0) or (1+|xi|^2)^(order/2) on the lattice."""
    if kind == "homogeneous":
        absxi = grid.abs_freq
        sym = np.ones(grid.shape) if order == 0 else np.zeros(grid.shape)  # |0|^0 = 1
        sym[absxi > 0] = absxi[absxi > 0] ** order
        return sym
    if kind == "inhomogeneous":
        return (1.0 + grid.abs_freq**2) ** (order / 2)
    raise PreconditionError(f"unknown derivative kind {kind!r}")


def fractional_derivative(f: Field, order: float, kind: str = "homogeneous") -> Field:
    """Multiplier with the `derivative_symbol` of this order and kind."""
    if kind == "homogeneous" and order < 0:
        require_zero_mean(f, "negative-order homogeneous derivative")
    return apply_symbol(f, derivative_symbol(f.grid, order, kind))


def riesz_transform(f: Field, axis: int) -> Field:
    """Riesz transform along `axis`: symbol i*xi_j/|xi| with Nyquist zeroed."""
    g = f.grid
    if not 0 <= axis < g.n:
        raise PreconditionError(f"axis {axis} out of range for dimension {g.n}")
    xi = g.deriv_frequencies
    mag = np.sqrt(sum(x**2 for x in xi))
    sym = np.zeros(g.shape, dtype=np.complex128)
    nz = mag > 0
    sym[nz] = 1j * xi[axis][nz] / mag[nz]
    return apply_symbol(f, sym)


def axis_derivative(f: Field, axis: int, order: int = 1) -> Field:
    """(i xi_j)^order along one axis, on the Nyquist-zeroed lattice."""
    g = f.grid
    if not 0 <= axis < g.n:
        raise PreconditionError(f"axis {axis} out of range for dimension {g.n}")
    return apply_symbol(f, (1j * g.deriv_frequencies[axis]) ** order)


# ---------------------------------------------------------------------------
# Duhamel integral
# ---------------------------------------------------------------------------


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with a series branch near 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 + zs / 2 + zs**2 / 6 + zs**3 / 24
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


# Taylor coefficients 1/(k+2)! of phi2, enough that the remainder is below
# one ulp of phi2 for |z| < 1
_PHI2_TAYLOR = [1.0 / math.factorial(k + 2) for k in range(18)]


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2: Taylor series for |z| < 1, where expm1(z) - z
    cancels (about 2 eps/|z| relative error), the closed form beyond."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1.0
    zs = z[small]
    acc = np.full_like(zs, _PHI2_TAYLOR[-1])
    for c in reversed(_PHI2_TAYLOR[:-1]):
        acc = acc * zs + c
    out[small] = acc
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / zb**2
    return out


def _etd2_coefficients(lam: np.ndarray, h: float):
    """exp(z), phi1(z) - phi2(z) and phi2(z) at z = -lam h: one ETD2 step
    I -> E I + h (F0 A + F1 B) is exact for forcing linear across it."""
    z = -lam * h
    p1, p2 = _phi1(z), _phi2(z)
    return np.exp(z), p1 - p2, p2


def duhamel(F: TimeSeries, t_eval: Sequence[float], alpha) -> TimeSeries:
    """int_0^t exp(-(t-s) (-Lap)^alpha) F(s) ds at each requested time.

    F must be sampled on a grid starting at 0 that covers max(t_eval); F is
    treated as piecewise linear in s between snapshots.  The march runs on
    the whole sample stack, so scalar and vector series share it, on F's
    half lattice and in F's parts: the propagator's symbol is real and even.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    if len(F) < 2:
        raise PreconditionError("forcing series needs at least two samples")
    if abs(F.times[0]) > 1e-14:
        raise PreconditionError("forcing series must start at t = 0")
    if t_eval.min() < -1e-14 or t_eval.max() > F.times[-1] + 1e-12:
        raise PreconditionError("t_eval outside the forcing series coverage")

    g = F.grid
    a = _alpha_value(alpha)
    lam = _half(g.abs_freq, g) ** (2 * a)
    Fhat = F.to_spectral().data
    out = np.empty((len(t_eval), *Fhat.shape[1:]), dtype=np.complex128)

    coefficients: dict[float, tuple] = {}  # step h -> ETD2 coefficients

    def step(I, h, F0, F1):
        if h not in coefficients:
            coefficients[h] = _etd2_coefficients(lam, h)
        E, A, B = coefficients[h]
        return E * I + h * (F0 * A + F1 * B)

    I = np.zeros(Fhat.shape[1:], dtype=np.complex128)
    seg = 0  # F-interval index such that F.times[seg] <= current position
    pos = 0.0
    for idx in np.argsort(t_eval):
        t = t_eval[idx]
        # advance over whole intervals ending before t
        while seg + 1 < len(F.times) and F.times[seg + 1] <= t + 1e-15:
            h = F.times[seg + 1] - F.times[seg]
            I = step(I, h, Fhat[seg], Fhat[seg + 1])
            seg += 1
            pos = F.times[seg]
        delta = t - pos
        if delta > 1e-15:
            h_full = F.times[seg + 1] - F.times[seg]
            w = (t - F.times[seg]) / h_full
            Ft = (1 - w) * Fhat[seg] + w * Fhat[seg + 1]
            out[idx] = step(I, delta, Fhat[seg], Ft)
        else:
            out[idx] = I
    return TimeSeries.from_data(g, t_eval, out, SPECTRAL, parts=F.parts)
