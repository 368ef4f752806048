"""Mild-solution machinery for the generalized dissipative Navier-Stokes
system and the potential-perturbed scalar equation.

The velocity system is evolved in Leray-projected mild form

    v(t) = e^(-t L) g + int_0^t e^(-(t-s) L) P [h - div(v x v)](s) ds,

with L the fractional Laplacian of order alpha in (1/2, 1/2 + n/4); the
pressure is never formed.  Quadratic products are dealiased with the 2/3
rule.  The Picard solver measures the bilinear-form bound empirically on a
seeded ensemble and enforces the smallness gate 2 * C_est * a < 1, where
`a` is the mixed norm of the data terms.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .estimates import conjugate
from .grid import (
    Field,
    GridSpec,
    PHYSICAL,
    SPECTRAL,
    RandomBandlimited,
    TimeSeries,
    VectorField,  # noqa: F401  (re-exported: callers import it from here)
    _dft,
    _half,
    _require_positive,
    as_series,
    on_half_spectrum,
    require_one_part,
    sample_chunks,
    uniform_times,
)
from .norms import lp_norm, lp_norms, mixed_norm
from .semigroup import _alpha_value, _duhamel, duhamel, semigroup_series


def taylor_green(grid: GridSpec, amplitude: float = 1.0) -> Field:
    """Classical divergence-free cellular vortex on the periodic box."""
    k0 = 2 * np.pi / grid.L
    X = grid.coordinates
    if grid.n == 2:
        u = amplitude * np.cos(k0 * X[0]) * np.sin(k0 * X[1])
        v = -amplitude * np.sin(k0 * X[0]) * np.cos(k0 * X[1])
        return Field(grid, np.stack((u, v)))
    if grid.n == 3:
        u = amplitude * np.sin(k0 * X[0]) * np.cos(k0 * X[1]) * np.cos(k0 * X[2])
        v = -amplitude * np.cos(k0 * X[0]) * np.sin(k0 * X[1]) * np.cos(k0 * X[2])
        w = np.zeros(grid.shape)
        return Field(grid, np.stack((u, v, w)))
    raise PreconditionError("Taylor-Green data needs n in {2, 3}")


def perturbed_taylor_green(grid: GridSpec, amplitude: float) -> Field:
    """Taylor-Green vortex plus a phase-shifted second-shell vortex of half
    its amplitude.

    The pure vortex is a fixed point of the projected nonlinearity in 2-D
    (its advection term is a gradient), so solver tests use this perturbed
    variant to exercise a genuine contraction.
    """
    if grid.n != 2:
        raise PreconditionError("perturbed Taylor-Green data is two-dimensional")
    k0 = 2 * np.pi / grid.L
    X, Y = grid.coordinates
    b = 0.5 * amplitude
    u = amplitude * np.cos(k0 * X) * np.sin(k0 * Y) + b * np.cos(
        2 * k0 * X + 0.7
    ) * np.sin(2 * k0 * Y + 0.3)
    v = -amplitude * np.sin(k0 * X) * np.cos(k0 * Y) - b * np.sin(
        2 * k0 * X + 0.7
    ) * np.cos(2 * k0 * Y + 0.3)
    return Field(grid, np.stack((u, v)))


def _leray(uh: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Leray projection of a spectral stack of n-vectors (components on axis
    -(n+1)), full or half lattice (last wavenumber index k <= N/2)."""
    xi = [x[..., : uh.shape[-1]] for x in grid.deriv_frequencies]
    comps = np.moveaxis(uh, -grid.n - 1, 0)
    q2 = sum(x**2 for x in xi)
    inv_q2 = np.divide(1.0, q2, out=np.zeros_like(q2), where=q2 > 0)
    factor = sum(x * c for x, c in zip(xi, comps)) * inv_q2
    return np.stack([c - x * factor for x, c in zip(xi, comps)], axis=-grid.n - 1)


def _divergence(uh: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Divergence sum_j i xi_j u_j of a spectral stack of n-vectors, as `_leray`."""
    xi = [x[..., : uh.shape[-1]] for x in grid.deriv_frequencies]
    return sum(1j * x * c for x, c in zip(xi, np.moveaxis(uh, -grid.n - 1, 0)))


def _require_vector(u: Field, what: str) -> None:
    if u.data.shape != (u.grid.n, *u.grid.shape):
        raise PreconditionError(f"{what} of shape {u.data.shape} is not a {u.grid.n}-vector")


def leray_project(u: Field) -> Field:
    """Remove the gradient part: per mode, delta_jk - xi_j xi_k / |xi|^2.

    Built on the Nyquist-zeroed lattice so the projector is exactly
    idempotent; the xi = 0 mode passes through.
    """
    _require_vector(u, "Leray projection input")
    return on_half_spectrum(u, lambda uh: _leray(uh, u.grid))


def divergence(u: Field) -> Field:
    """Spectral divergence sum_j i xi_j u_j on the Nyquist-zeroed lattice."""
    _require_vector(u, "divergence input")
    return on_half_spectrum(u, lambda uh: _divergence(uh, u.grid))


def dealias_mask(grid: GridSpec) -> np.ndarray:
    """2/3-rule mask: keep per-axis integer wavenumbers |k| < N/3."""
    kint = np.rint(np.fft.fftfreq(grid.N) * grid.N).astype(int)
    keep = np.abs(kint) < grid.N / 3.0
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.n):
        shape = [1] * grid.n
        shape[ax] = grid.N
        mask &= keep.reshape(shape)
    return mask


def _tensor_divergence(
    uh: np.ndarray, vh: np.ndarray | None, grid: GridSpec, mask: np.ndarray
) -> np.ndarray:
    """P div(u x v) of the half spectra (m, n, ..., N//2 + 1) of real fields;
    vh None means v = u.

    Component j is sum_k i xi_k (u_k v_j)^: the factors are 2/3-truncated
    and inverse-transformed in one batch, their pointwise products
    forward-transformed in one batch and re-truncated, and the divergence
    and the Leray projection are taken in spectral space.  For v = u the
    inverse transforms are shared and only the n(n+1)/2 symmetric products
    are formed: n + n(n+1)/2 transforms per sample (5 for n = 2), against
    2n + n^2 otherwise.  The result is a half spectrum too.
    """
    n = grid.n
    mask = _half(mask, grid)
    if vh is None:
        u = v = _dft(uh * mask, grid, "inverse")
        pairs = [(k, j) for k in range(n) for j in range(k, n)]
    else:
        phys = _dft(np.concatenate((uh, vh), axis=1) * mask, grid, "inverse")
        u, v = phys[:, :n], phys[:, n:]
        pairs = list(itertools.product(range(n), repeat=2))
    prods = np.stack([u[:, k] * v[:, j] for k, j in pairs], axis=1)
    prods = _dft(prods, grid, "forward")
    prods *= mask
    slot = {pair: i for i, pair in enumerate(pairs)}
    if vh is None:
        slot.update({(j, k): i for (k, j), i in list(slot.items())})
    out = np.zeros((len(uh), n, *mask.shape), dtype=np.complex128)
    for k, x in enumerate(grid.deriv_frequencies):
        ixi = 1j * _half(x, grid)
        for j in range(n):
            out[:, j] += ixi * prods[:, slot[k, j]]
    return _leray(out, grid)


def projected_tensor_divergence(u: Field, v: Field) -> Field:
    """P div(u x v): dealiased quadratic term of the mild formulation, for
    one pair of real snapshots (spectral result)."""
    g = u.grid
    if v.grid != g:
        raise PreconditionError("velocity fields live on different grids")
    us = as_series(u).to_spectral()
    vs = us if v is u else as_series(v).to_spectral()
    for w, what in ((us, "velocity u"), (vs, "velocity v")):
        require_one_part(w, what)
    out = _tensor_divergence(us.data, None if v is u else vs.data, g, dealias_mask(g))
    return TimeSeries.from_data(g, us.times, out, SPECTRAL).snapshots[0]


def bilinear_form(u: TimeSeries, v: TimeSeries, alpha: float) -> TimeSeries:
    """B(u, v): Duhamel integral of P div(u x v) at the shared sample times.

    The velocities are real.  The nonlinearity is evaluated on chunks of
    samples (`sample_chunks`) into one forcing stack, which the Duhamel
    march then overwrites with the integral, so the forcing and the result
    are never held at once; u's and v's data are only read.  Passing the
    same series twice shares its transforms.
    """
    g = u.grid
    if len(u) != len(v) or np.max(np.abs(u.times - v.times)) > 1e-12:
        raise PreconditionError("bilinear form needs matching time grids")
    for w, what in ((u, "velocity u"), (v, "velocity v")):
        require_one_part(w, f"bilinear form {what}")
        if w.grid != g or w.data.ndim != g.n + 2 or w.data.shape[1] != g.n:
            raise PreconditionError(
                "bilinear form needs n-component velocity series on one grid"
            )
    mask = dealias_mask(g)
    uh = u.to_spectral().data
    vh = None if v is u else v.to_spectral().data
    data = np.empty(uh.shape, dtype=np.complex128)
    for chunk in sample_chunks(uh, g):
        vc = None if vh is None else vh[chunk]
        data[chunk] = _tensor_divergence(uh[chunk], vc, g, mask)
    forcing = TimeSeries.from_data(g, u.times, data)
    return _duhamel(forcing, u.times, alpha, overwrite_forcing=True)


# The pairs (i, j), i <= j, of the C_est ensemble, ordered so that consecutive
# pairs share a member and at most two evolved members are alive at once;
# only member 0 is evolved twice.
_ENSEMBLE_PAIRS = ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 2))


def estimate_bilinear_constant(
    grid: GridSpec,
    alpha: float,
    T: float,
    q: float,
    p: float,
    times=None,
) -> float:
    """Measured bound max ||B(u,v)|| / (||u|| ||v||) in L^q_t L^p_x over a
    seeded ensemble of divergence-free free evolutions.

    The three members are kept as their one-sample, Leray-projected seeds
    and evolved when a pair needs them, in the pair order above, so at most
    two evolved stacks are alive; each member's norm is measured once.  An
    evolution is deterministic and B(a, b) keeps its argument order, so the
    ratios, and their maximum, have the bits of the all-members-at-once
    computation.
    """
    if times is None:
        times = uniform_times(T, 32)
    j_max = 3
    while 2.0 ** (j_max + 1) >= grid.nyquist:
        j_max -= 1
    seeds = []
    for seed in (101, 202, 303):
        comps = [
            RandomBandlimited(seed + 7 * c, 1, j_max).render(grid) for c in range(grid.n)
        ]
        w = TimeSeries.from_data(grid, [0.0], np.stack(comps)[None], PHYSICAL).to_spectral()
        seeds.append(TimeSeries.from_data(grid, w.times, _leray(w.data, grid)))
    live: dict[int, TimeSeries] = {}
    norms: dict[int, float] = {}
    best = 0.0
    for pair in _ENSEMBLE_PAIRS:
        live = {k: live[k] for k in pair if k in live}  # only this pair's members
        for k in pair:
            if k not in live:
                live[k] = semigroup_series(seeds[k], times, alpha)
                if k not in norms:
                    norms[k] = mixed_norm(live[k], q, p)
        i, j = pair
        val = mixed_norm(bilinear_form(live[i], live[j], alpha), q, p) / (norms[i] * norms[j])
        best = max(best, float(val))
    return best


def _contraction_ratios(residuals: list) -> list:
    """Ratios of consecutive fixed-point residuals (zero residuals skipped)."""
    return [b / a for a, b in zip(residuals, residuals[1:]) if a > 0]


def _factor(residuals: list) -> float:
    """Measured contraction factor: the largest ratio, 0 before there is one."""
    return max(_contraction_ratios(residuals), default=0.0)


def _fixed_point(apply_map, v0, q, p, tol, max_iter, max_factor=None, phys0=None):
    """Iterate v -> apply_map(v, phys) from v0, phys being v in physical form,
    until the relative step ||v_next - v|| / (||v_next|| or 1) in L^q_t L^p_x
    falls below tol.

    Each iterate is brought to physical space once: its norm, the step (the
    difference of the two physical stacks) and the next map evaluation all
    read the same samples; `phys0`, if given, is v0's and is handed over.
    The step is written into the previous physical stack once it is dead,
    if that stack was made here or handed over: never into v0's or an
    iterate's own data (a physical series is its own physical form).  With
    max_factor, gives up from the third iterate on once a contraction ratio
    exceeds it.  Returns the last iterate, the residuals, whether tol was
    reached and the last iterate's mixed norm.
    """
    if max_iter < 1:
        raise PreconditionError(f"max_iter={max_iter} must be >= 1")
    phys = v0.to_physical() if phys0 is None else phys0
    owned = phys0 is not None or phys is not v0
    del phys0  # the loop's `phys` is the only reference this frame keeps
    v, norm, residuals = v0, None, []
    for it in range(1, max_iter + 1):
        v = apply_map(v, phys)
        phys_next = v.to_physical()
        norm = mixed_norm(phys_next, q, p)
        step = phys_next._combine(phys, np.subtract, out=phys.data if owned else None)
        residuals.append(mixed_norm(step, q, p) / (norm or 1.0))
        del step  # the old stack is dead once `phys` moves on
        phys, owned = phys_next, phys_next is not v
        if residuals[-1] < tol:
            return v, residuals, True, norm
        if max_factor is not None and it >= 3 and _factor(residuals) > max_factor:
            break
    return v, residuals, False, norm


@dataclass
class PicardReport:
    """Convergence record of one mild-solution fixed-point solve."""

    residuals: list
    converged: bool
    iterations: int
    final_norm: float
    radius: float
    data_functional: float
    bilinear_constant: float

    @property
    def contraction_ratios(self) -> list:
        return _contraction_ratios(self.residuals)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "contraction_ratios": self.contraction_ratios}


def solve_nse_picard(
    g: Field,
    h: TimeSeries | None,
    alpha: float,
    T: float,
    q: float,
    p: float,
    tol: float = 1e-9,
    max_iter: int = 20,
    nodes: int = 64,
    c_est: float | None = None,
) -> tuple[TimeSeries, PicardReport]:
    """Picard iteration for the mild generalized Navier-Stokes system.

    Requires real divergence-free data, a forcing h (if any) that is a
    real n-component velocity series on g's grid, alpha in (1/2, 1/2 + n/4),
    the exponent relation 2a - 1 = 2a/q + n/p with p > n/(2a - 1), and the
    measured smallness gate 2 * C_est * a < 1.  g and h are only read.
    """
    grid = g.grid
    n = grid.n
    _require_positive("tol", tol)
    # the upper endpoint alpha = 1/2 + n/4 is accepted: the measured
    # smallness gate below is what certifies the contraction
    if not (0.5 < alpha <= 0.5 + n / 4):
        raise PreconditionError(
            f"alpha={alpha} outside the existence window (1/2, 1/2 + n/4) "
            f"= (0.5, {0.5 + n / 4}) for n={n}"
        )
    if not p > n / (2 * alpha - 1):
        raise PreconditionError(
            f"p={p} must exceed n/(2 alpha - 1) = {n / (2 * alpha - 1)}"
        )
    rel = (2 * alpha - 1) - (2 * alpha / q + n / p)
    if abs(rel) > 1e-9:
        raise PreconditionError(
            f"exponent relation 2a-1 = 2a/q + n/p violated by {rel:.3e} "
            f"for (q, p) = ({q}, {p})"
        )
    _require_vector(g, "initial velocity g")
    g0 = as_series(g).to_spectral()
    require_one_part(g0, "initial velocity g")
    div_norm = lp_norms(TimeSeries.from_data(grid, [0.0], _divergence(g0.data, grid)), 2)[0]
    if div_norm > 1e-10:
        raise PreconditionError(f"initial data is not divergence-free: {div_norm:.3e}")
    if h is not None:
        require_one_part(h, "forcing h")
        if h.grid != grid or h.data.ndim != n + 2 or h.data.shape[1] != n:
            raise PreconditionError(
                f"forcing h of shape {h.data.shape} is not an {n}-component "
                f"velocity series on the grid of g"
            )

    times = uniform_times(T, nodes)
    if c_est is None:  # first, so that the ensemble's memory peak holds no data term
        c_est = estimate_bilinear_constant(grid, alpha, T, q, p, times=times)
    base = free = semigroup_series(g0, times, alpha)
    if h is None:  # the physical stack that measures `a` also seeds the fixed
        # point; kept in a list so that it can be handed over with no reference here
        seed = [free.to_physical()]
        a_val = mixed_norm(seed[0], q, p)
    else:
        hP = TimeSeries.from_data(grid, h.times, _leray(h.to_spectral().data, grid))
        forced = duhamel(hP, times, alpha)
        a_val = mixed_norm(free, q, p) + mixed_norm(forced, q, p)
        base, seed = free + forced, [None]
        del hP, forced
    del free
    if not 2 * c_est * a_val < 1:
        raise PreconditionError(
            f"smallness gate failed: 2 * C_est * a = {2 * c_est * a_val:.3f} >= 1 "
            f"(a={a_val:.3e}, C_est={c_est:.3e})"
        )

    def apply_map(v: TimeSeries, _) -> TimeSeries:  # base - B(v, v), in B's stack
        B = bilinear_form(v, v, alpha)
        return base._combine(B, np.subtract, out=B.data)

    v, residuals, converged, final_norm = _fixed_point(
        apply_map, base, q, p, tol, max_iter, phys0=seed.pop()
    )
    report = PicardReport(
        residuals=residuals,
        converged=converged,
        iterations=len(residuals),
        final_norm=final_norm,
        radius=float(2 * a_val),
        data_functional=float(a_val),
        bilinear_constant=float(c_est),
    )
    if not converged:
        raise ConvergenceError(
            f"Picard iteration did not reach tol={tol} in {max_iter} iterations "
            f"(last residual {residuals[-1]:.3e})"
        )
    return v, report


# ---------------------------------------------------------------------------
# potential-perturbed scalar equation
# ---------------------------------------------------------------------------


@dataclass
class PotentialReport:
    """Per-subinterval contraction record for the potential solver."""

    subintervals: list  # (t0, t1, measured_factor, iterations)
    converged: bool
    bound_constant: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _at_nodes(series: TimeSeries, t: np.ndarray, representation: str) -> TimeSeries:
    """Linear-in-time interpolation of a series at the nodes t, formed in the
    series' stored representation and then brought to `representation`
    once; nodes at or beyond either end take the end samples as stored."""
    ts, d = series.times, series.data
    inner = (t > ts[0]) & (t < ts[-1])
    i = np.searchsorted(ts, t[inner]) - 1
    w = ((t[inner] - ts[i]) / (ts[i + 1] - ts[i])).reshape((-1,) + (1,) * (d.ndim - 1))
    out = np.empty((len(t), *d.shape[1:]), dtype=d.dtype)
    out[inner] = (1 - w) * d[i] + w * d[i + 1]
    out[t <= ts[0]] = d[0]
    out[t >= ts[-1]] = d[-1]
    nodes = TimeSeries.from_data(series.grid, t, out, series.representation, parts=series.parts)
    return nodes.to_physical() if representation == PHYSICAL else nodes.to_spectral()


def _in_parts(w: TimeSeries, parts: int) -> TimeSeries:
    """w laid out in `parts` parts: a real series gains a zero imaginary part."""
    if w.parts == parts:
        return w
    d = np.stack((w.data, np.zeros_like(w.data)), axis=1)
    return TimeSeries.from_data(w.grid, w.times, d, w.representation, parts)


def solve_potential_eq(
    f: Field,
    F: TimeSeries | None,
    V: TimeSeries | None,
    alpha: float,
    T: float,
    q: float = 4.0,
    p: float = 4.0,
    r: float | None = None,
    s: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 40,
    nodes: int = 64,
    min_fraction: float = 1.0 / 1024,
) -> tuple[TimeSeries, PotentialReport]:
    """Fixed point of v -> e^(-tL) f + Duhamel(F - V v) with auto-partitioning.

    [0, T] is split adaptively until the measured contraction factor on
    each subinterval is <= 1/2; the solution is assembled by restarting
    from the subinterval endpoint.  The integrability pair (r, s) of the
    potential is declared whole or not at all; declared, it must satisfy
    1/r + n/(2 alpha s) = 1.  V must be real; complex f or F is solved as
    its (re, im) parts, which V does not couple.
    """
    grid = f.grid
    n = grid.n
    alpha = _alpha_value(alpha)
    if (r is None) != (s is None):
        missing = "s" if s is None else "r"
        raise PreconditionError(
            f"potential integrability pair (r, s) is half-declared: "
            f"{missing} is missing"
        )
    _require_positive("time horizon T", T)
    _require_positive("tol", tol)
    if nodes < 1:
        raise PreconditionError(f"nodes={nodes} must be >= 1")
    if max_iter < 1:
        raise PreconditionError(f"max_iter={max_iter} must be >= 1")
    if r is not None:
        res = 1.0 / r + n / (2 * alpha * s) - 1.0
        if abs(res) > 1e-9:
            raise PreconditionError(
                f"potential integrability 1/r + n/(2 alpha s) = 1 violated by {res:.3e}"
            )
    if not 0 < min_fraction <= 1:
        raise PreconditionError(f"min_fraction={min_fraction} must lie in (0, 1]")
    if V is not None:
        require_one_part(V, "potential V")
        if not np.all(np.isfinite(V.data)):
            raise PreconditionError("potential V holds non-finite values")
    f0 = as_series(f)
    parts = max(f0.parts, 1 if F is None else F.parts)
    f_cur = _in_parts(f0, parts).to_spectral()
    F = None if F is None else _in_parts(F, parts)

    all_times: list[np.ndarray] = []
    all_data: list[np.ndarray] = []
    subreports = []
    t0 = 0.0
    while t0 < T - 1e-14:
        t1 = T
        while True:
            length = t1 - t0
            if length < T * min_fraction:
                raise ConvergenceError(
                    "potential solver could not find a contractive subinterval"
                )
            m = max(8, int(round(nodes * length / T)))
            loc = np.linspace(0.0, length, m + 1)
            base = semigroup_series(f_cur, loc, alpha)
            forcing = None if F is None else _at_nodes(F, t0 + loc, SPECTRAL).data
            if V is not None:  # scalar V, broadcast over the components
                V_nodes = _at_nodes(V, t0 + loc, PHYSICAL).data
                lead = (len(loc),) + (1,) * (base.data.ndim - V_nodes.ndim)
                V_nodes = V_nodes.reshape(*lead, *grid.shape)

            def step(rhs: np.ndarray) -> TimeSeries:  # base + Duhamel(rhs)
                integ = duhamel(TimeSeries.from_data(grid, loc, rhs, parts=parts), loc, alpha)
                return base + integ

            def apply_map(v: TimeSeries, phys: TimeSeries) -> TimeSeries:
                if V is None:
                    return base if F is None else step(forcing)
                Vv = _dft(V_nodes * phys.data, grid, "forward")
                return step(-Vv if F is None else forcing - Vv)

            v0 = base if F is None else step(forcing)
            v, residuals, converged, _ = _fixed_point(
                apply_map, v0, q, p, tol, max_iter, max_factor=0.5
            )
            measured = _factor(residuals)
            if converged and measured <= 0.5 + 1e-9:
                break
            t1 = t0 + length / 2  # not contractive enough: halve and retry
        subreports.append((t0, t1, float(measured), len(residuals)))
        start = 1 if all_data else 0
        all_times.extend(t0 + loc[start:])
        all_data.append(v.data[start:])
        f_cur = TimeSeries.from_data(grid, [0.0], v.data[-1:], parts=parts)
        t0 = t1

    solution = TimeSeries.from_data(grid, all_times, np.concatenate(all_data), parts=parts)
    num = mixed_norm(solution, q, p)
    data_norm = lp_norm(f, 2)
    if F is not None:
        data_norm += mixed_norm(F, conjugate(q), conjugate(p))
    report = PotentialReport(
        subintervals=subreports,
        converged=True,
        bound_constant=float(num / data_norm) if data_norm > 0 else 0.0,
    )
    return solution, report


# ---------------------------------------------------------------------------
# spatial regularity
# ---------------------------------------------------------------------------


def _multi_indices(n: int, max_order: int):
    rng = range(max_order + 1)
    for combo in itertools.product(rng, repeat=n):
        if sum(combo) <= max_order:
            yield combo


def regularity_check(
    v: TimeSeries, max_order: int, q: float, p: float
) -> dict[tuple[int, ...], float]:
    """Mixed norms of all spatial derivatives D^j with |j| <= max_order.

    max_order must be an integer in [0, 4].  Raises ConvergenceError if any
    norm is non-finite.  The derivative series are formed on v's half
    lattice and in its parts: each symbol (i xi)^j, on the
    Nyquist-zeroed lattice, maps a real field to a real field.
    """
    if not isinstance(max_order, (int, np.integer)) or not 0 <= max_order <= 4:
        raise PreconditionError(
            f"max_order={max_order!r} must be an integer in [0, 4] (derivative order cap)"
        )
    grid = v.grid
    xi = grid.deriv_frequencies
    spec = v.to_spectral().data
    out: dict[tuple[int, ...], float] = {}
    for multi in _multi_indices(grid.n, max_order):
        sym = np.ones(grid.shape, dtype=np.complex128)
        for ax, m in enumerate(multi):
            if m:
                sym = sym * (1j * xi[ax]) ** m
        series = TimeSeries.from_data(grid, v.times, spec * _half(sym, grid), parts=v.parts)
        val = mixed_norm(series, q, p)
        if not np.isfinite(val):
            raise ConvergenceError(f"derivative {multi}: non-finite mixed norm")
        out[multi] = float(val)
    return out
