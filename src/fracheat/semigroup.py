"""Fractional heat propagator and related Fourier multipliers.

The dissipation generator is the fractional Laplacian with symbol
|xi|^(2*alpha), built once by `_rate`; the propagator exp(-t |xi|^(2*alpha))
is formed only by `_evolve`, the free evolution of one half spectrum
(behind `semigroup_series` and `_evolved_chunks`); kernels are the flow of
the unit half spectrum, and `apply_semigroup` and `kernel` are one-time
cases.  All operators here are diagonal in frequency, so they are
independent of the transform normalization.

The Duhamel integral int_0^t exp(-(t-s) |xi|^(2a)) F(s) ds is evaluated
per mode with an exact integrating factor under a piecewise-linear-in-s
model for F (second-order exponential time differencing); it is exact for
forcings that are constant or linear in time between snapshots.  One
forward march, `_march`, is handed the forcing a chunk of samples at a
time and overwrites each chunk with its integral.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import PreconditionError, require_positive
from .grid import (
    Field,
    GridSpec,
    SPECTRAL,
    STREAM_CHUNKS,
    TimeSeries,
    _half,
    _require_times,
    as_series,
    is_real,
    on_half_spectrum,
    require_whole_space,
    require_zero_mean,
    sample_chunks,
)


def _alpha_value(alpha) -> float:
    """The dissipation order as a float; PreconditionError unless 0 < alpha < inf."""
    a = float(alpha)
    require_positive("alpha", a)
    return a


def apply_symbol(f: Field, sym: np.ndarray) -> Field:
    """Multiply spectral data by `sym`, preserving the input representation.

    f runs as a one-sample series on the half lattice, so `sym` must map
    real fields to real fields: sym(-k) = conj(sym(k)) to within 1e-12 of
    max |sym|, else PreconditionError.
    """
    if not is_real(np.asarray(sym)[None], f.grid, SPECTRAL):  # the same 1e-12 rule
        raise PreconditionError("multiplier symbol must satisfy sym(-k) = conj(sym(k))")
    return on_half_spectrum(f, lambda spec: spec * _half(sym, f.grid))


def _rate(grid: GridSpec, alpha) -> np.ndarray:
    """|xi|^(2 alpha) on the half lattice: every propagator here is exp(-t * rate).
    PreconditionError, naming alpha, when the rate overflows: exp(-0 * inf)
    is NaN."""
    with np.errstate(over="ignore"):  # an overflow is rejected just below, by name
        rate = _half(grid.abs_freq, grid) ** (2 * _alpha_value(alpha))
    if not np.isfinite(rate.max()):
        raise PreconditionError(f"alpha={alpha}: the rate |xi|^(2 alpha) overflows on {grid}")
    return rate


def apply_semigroup(f: Field, t: float, alpha) -> Field:
    """Propagate f by the fractional heat semigroup for time t >= 0: the
    one-time `semigroup_series`, returned in f's representation."""
    if t < 0:
        raise PreconditionError(f"semigroup time t={t} must be nonnegative")
    u = semigroup_series(f, [t], alpha)
    return (u if f.representation == SPECTRAL else u.to_physical()).snapshots[0]


def semigroup_series(f, times: Sequence[float], alpha) -> TimeSeries:
    """Free evolution of a scalar or vector Field, or of the one sample of a
    series, sampled on a time grid (spectral, in the layout of the data)."""
    u = (f if isinstance(f, TimeSeries) else as_series(f)).to_spectral()
    data = _evolve(u.data[0], times, _rate(u.grid, alpha))
    return TimeSeries.from_data(u.grid, times, data, SPECTRAL, u.parts)


def _evolve(spec: np.ndarray, times, lam: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The free evolution spec * exp(-t * lam), t in `times`, of a one-sample
    half spectrum, in a new complex stack or in `out`.  A t * lam past the
    float range is -inf, so exp gives 0 there, without an overflow warning."""
    if out is None:
        out = np.empty((len(times), *spec.shape), dtype=np.complex128)
    for k, t in enumerate(times):
        with np.errstate(over="ignore"):
            z = -t * lam
        np.multiply(spec, np.exp(z), out=out[k])
    return out


def _evolved_chunks(uh: TimeSeries, times, lam: np.ndarray):
    """The free evolution at the rate lam of the one sample of a spectral
    series, on a time grid, in time order: one spectral series per
    `STREAM_CHUNKS` `sample_chunks` chunks of the whole evolution, made
    (`_evolve`, so each sample has the bits of `semigroup_series`) into one
    buffer when the next is asked for, so a consumer is done with each
    before it asks for the next."""
    times, spec = _require_times(times, "times"), uh.data[:1]
    n = STREAM_CHUNKS * sample_chunks(spec, uh.grid)[0].stop  # samples per step
    buf = np.empty((min(n, len(times)), *spec.shape[1:]), dtype=np.complex128)
    for i in range(0, len(times), n):
        step = times[i : i + n]
        out = _evolve(spec[0], step, lam, buf[: len(step)])
        yield TimeSeries.from_data(uh.grid, step, out, SPECTRAL, uh.parts)


def kernel(grid: GridSpec, t: float, alpha) -> Field:
    """Unit-mass propagator kernel at time t > 0, the one-sample `kernel_data`.

    Returned in physical representation, translated so its peak sits at
    the box center (the convention for whole-space emulation); its
    cell-volume-weighted sum is 1 because the xi = 0 symbol value is 1.
    It must pass the whole-space gate `require_whole_space`.
    """
    require_positive("kernel time t", t)
    rate = _rate(grid, alpha)
    out = Field(grid, kernel_data(_evolve(np.ones_like(rate), [t], rate), grid)[0])
    require_whole_space(out, f"kernel at t={t}, alpha={alpha}")
    return out


def kernel_data(sym: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real physical kernels of a stack of half-lattice symbols, `_evolve` of
    the unit half spectrum: one `irfftn` for the stack, centred as in `kernel`."""
    axes = tuple(range(-grid.n, 0))
    data = np.fft.fftshift(np.fft.irfftn(sym, s=grid.shape, axes=axes), axes=axes)
    data *= grid.N**grid.n
    data /= grid.L**grid.n
    return data


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


def fractional_derivative(f: Field, order: float) -> Field:
    """Multiplier with the homogeneous `derivative_symbol` |xi|^order; a
    negative order needs zero-mean f."""
    if order < 0:
        require_zero_mean(f, "negative-order homogeneous derivative")
    return apply_symbol(f, derivative_symbol(f.grid, order))


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
    cancels (about 2 eps/|z| relative error), the closed form beyond; where
    z^2 overflows (|z| above about 1.34e154), e^z is 0 and phi2 is taken as
    (-1/z - 1)/z, which is 0 at z = -inf."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1.0
    zs = z[small]
    acc = np.full_like(zs, _PHI2_TAYLOR[-1])
    for c in reversed(_PHI2_TAYLOR[:-1]):
        acc = acc * zs + c
    out[small] = acc
    zb = z[~small]
    with np.errstate(over="ignore"):  # an overflowing z^2 is not divided by
        z2 = zb**2
    wide = (-1 / zb - 1) / zb
    out[~small] = np.divide(np.expm1(zb) - zb, z2, out=wide, where=np.isfinite(z2))
    return out


def _etd2(lam: np.ndarray, h: float) -> tuple:
    """The ETD2 coefficients of a step h: E = exp(z), A = phi1(z) - phi2(z)
    and B = phi2(z) at z = -lam h, which is -inf where lam h overflows (all
    three are then 0)."""
    with np.errstate(over="ignore"):
        z = -lam * h
    p1, p2 = _phi1(z), _phi2(z)
    return np.exp(z), p1 - p2, p2


def duhamel(F: TimeSeries, t_eval: Sequence[float], alpha) -> TimeSeries:
    """int_0^t exp(-(t-s) (-Lap)^alpha) F(s) ds at each requested time.

    F, sampled from 0 on a grid covering the strictly increasing t_eval, is
    treated as piecewise linear in s between snapshots.  The march runs on
    a copy of one half-spectral sample of F at a time, so scalar and vector
    series share it, in F's parts: the propagator's symbol is real and even.
    An entry within 1e-15 of a sample takes the integral there; any other
    takes one partial step from the integral at the sample before it.  The
    integral goes into a new stack; F's data is only read.
    """
    times = F.times
    t_eval = _march_times(times, t_eval)
    lam = _rate(F.grid, alpha)
    Fhat = F.to_spectral().data
    # the sample at or before each entry, and the entries of sample s: first[s]:first[s + 1]
    at = np.maximum(np.searchsorted(times, t_eval + 1e-15, side="right") - 1, 0)
    first = np.searchsorted(at, np.arange(at[-1] + 2))
    out = np.empty((len(t_eval), *Fhat.shape[1:]), dtype=np.complex128)
    march = _march(times, lam)
    for s in range(at[-1] + 1):
        integral = Fhat[s : s + 1].copy()
        march(integral)
        for k in range(first[s], first[s + 1]):
            out[k] = integral[0]
            delta = t_eval[k] - times[s]
            if delta > 1e-15 and s + 1 < len(times):  # a partial step: its block is not kept
                w = delta / (times[s + 1] - times[s])
                F1 = (1 - w) * Fhat[s] + w * Fhat[s + 1]
                out[k] = _step(out[k], delta, Fhat[s], F1, _etd2(lam, delta))
        del integral  # released before the next sample is copied
    return TimeSeries.from_data(F.grid, t_eval, out, SPECTRAL, parts=F.parts)


def _march_times(times: np.ndarray, t_eval) -> np.ndarray:
    """t_eval as floats; PreconditionError unless a forcing sampled at
    `times` has two or more samples from t = 0 on and t_eval is a nonempty
    time grid (`_require_times`) within its coverage."""
    if len(times) < 2:
        raise PreconditionError("forcing series needs at least two samples")
    if abs(times[0]) > 1e-14:
        raise PreconditionError("forcing series must start at t = 0")
    if not len(t_eval):
        raise PreconditionError("t_eval must hold at least one time")
    t_eval = _require_times(t_eval, "t_eval")
    if t_eval[-1] > times[-1] + 1e-12:
        raise PreconditionError("t_eval outside the forcing series coverage")
    return t_eval


def _step(I, h, F0, F1, block):
    """I -> E I + h (F0 A + F1 B) for the `_etd2` block (E, A, B) of h:
    exact for forcing linear across the step."""
    E, A, B = block
    return E * I + h * (F0 * A + F1 * B)


# `_march` forms a run of equal steps at most this many bytes of samples at a
# time: whole runs of small samples (the 1-D N = 8 potential solve marches
# its 1,024 steps as one run), one sample at a time from 64^2 vectors up.
# Forming up to four 128^2 samples at once raised `verify_mix`'s peak RSS
# by 0.7 MB, with no change in the traced peak: the run-sized scratch array
# did not fit the holes the heap already had at the inhomogeneous
# estimate's peak.
RUN_BYTES = 1 << 17


def _march(times: np.ndarray, lam: np.ndarray):
    """The Duhamel march at the rate lam of a spectral forcing sampled at
    `times` (checked by `_march_times`): a function that overwrites the
    forcing's next chunk, in time order, with the integrals at its samples.
    The running integral and the last forcing sample carry over to the next
    chunk, so a chunk may be a view of a stack or an array built on the fly,
    and what the caller does to a marched chunk does not reach the march.
    The coefficients of a step size are derived once and dropped after the
    last whole step of that size.

    Each run of equal steps within a chunk, up to `RUN_BYTES` of samples,
    is formed at once, in place: c_j = h (F_(j-1) A + F_j B) over the run,
    with one scratch array of the run's size for the F_(j-1) A part, and
    then only I = E I + c_j is taken step by step, in the chunk, with the
    carried integral's array as the scratch for E I.  Every step has the
    operations, and so the bits, of `_step`."""
    steps = np.diff(times)
    last = {h: seg for seg, h in enumerate(steps)}  # step size -> its last whole step
    # the last step of the run of equal steps that holds each step
    ends = np.append(np.flatnonzero(steps[1:] != steps[:-1]), len(steps) - 1)
    run_last = ends[np.searchsorted(ends, np.arange(len(steps)))].tolist()
    cache: dict[float, tuple] = {}  # step size -> coefficients, up to its last whole step
    k, I, F0 = 0, None, None  # the chunk's first sample, I and F at the sample before it

    def march(chunk: np.ndarray) -> None:
        nonlocal k, I, F0
        j = 0  # the chunk's first sample not yet marched
        if k == 0:
            I, F0 = np.zeros_like(chunk[0]), chunk[0].copy()
            chunk[0] = I
            j = 1
        prev = I  # the integral at the sample before chunk[j]
        per_run = max(1, RUN_BYTES // (chunk.itemsize * math.prod(chunk.shape[1:])))
        while j < len(chunk):
            seg = k + j - 1  # the step that ends at chunk[j]
            stop = min(run_last[seg] + 2 - k, len(chunk), j + per_run)
            h = steps[seg]
            block = cache.pop(h, None) or _etd2(lam, h)
            if last[h] > seg + stop - j - 1:  # kept while a later step has its size
                cache[h] = block
            E, A, B = block
            run = chunk[j:stop]
            F0A = np.empty_like(run)
            np.multiply(F0, A, out=F0A[0])
            np.multiply(run[:-1], A, out=F0A[1:])
            F0[...] = run[-1]
            np.multiply(run, B, out=run)
            np.add(F0A, run, out=run)
            np.multiply(h, run, out=run)
            for c in run:
                np.multiply(E, prev, out=I)
                np.add(I, c, out=c)
                prev = c
            j = stop
        if prev is not I:
            I[...] = prev
        k += len(chunk)

    return march
