"""Mild-solution machinery for the generalized dissipative Navier-Stokes
system and the potential-perturbed scalar equation.

The velocity system is evolved in Leray-projected mild form

    v(t) = e^(-t L) g + int_0^t e^(-(t-s) L) P [h - div(v x v)](s) ds,

with L the fractional Laplacian of order alpha in (1/2, 1/2 + n/4); the
pressure is never formed.  Quadratic products are dealiased with the 2/3
rule.  The Picard solver enforces the smallness gate 2 * C_est * a < 1, `a`
the L^q_t L^p_x norm of the data terms and C_est the bilinear constant
measured by `estimate_bilinear_constant`: the largest ratio
||B(u,v)|| / (||u|| ||v||) over six pairs from three band-limited free
evolutions, a lower bound of the discrete operator's norm.  The usual
fixed-point lemma (Cannone 1995; Lemarie-Rieusset 2002) puts the unique
solution of x = y + B(x, x) in the ball of radius 2 ||y|| when
4 C ||y|| < 1, C the operator's constant.  The gate is that lemma with
C_est / 2 in place of C, on the ball of radius 2a that the report records
as `radius`; it certifies no contraction by itself, and the measured
contraction ratios are the evidence of convergence.

Every Duhamel integral here is one chunked pass, `_mild_into`, of the mild
map v -> base - int_0^t e^(-(t-s) L) term(s) ds: a sample chunk at a time,
the integrand is written into the chunk of the result's stack, marched there
and replaced by base - integral.  `bilinear_form` and the C_est pairs take
the integral of P div(u x v) alone; the Picard map's term is P div(v x v),
written over its iterate's own stack, and its base, e^(-tL) g plus the
Duhamel term of P h, is regenerated a chunk at a time; the potential map's
term is V v - F, its base the window's free flow, and a window's first
iterate with F is the pass of the term -F.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .errors import require, require_count, require_exponent, require_positive, require_relation
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
    as_series,
    on_half_spectrum,
    require_one_part,
    sample_chunks,
    uniform_times,
)
from .norms import (  # noqa: F401  (lp_norm: re-exported)
    _lp, _multiplier_norms, _time_norm, lp_norm, lp_norms, mixed_norm,
)
from .semigroup import (
    _alpha_value, _evolve, _evolved_chunks, _march, _march_times, _rate, duhamel, semigroup_series,
)


def taylor_green(grid: GridSpec, amplitude: float) -> Field:
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
    out = taylor_green(grid, amplitude)
    u, v = out.data  # views: the second vortex is added in place
    u += 0.5 * amplitude * np.cos(2 * k0 * X + 0.7) * np.sin(2 * k0 * Y + 0.3)
    v -= 0.5 * amplitude * np.sin(2 * k0 * X + 0.7) * np.cos(2 * k0 * Y + 0.3)
    return out


def _sum_into(acc: np.ndarray, terms, t: np.ndarray) -> None:
    """acc = sum(a * b for a, b in terms), with the bits of that sum from 0
    (a first term of -0 counts as 0 + -0 = +0); t is scratch of acc's
    shape.  A complex sum is taken part by part, so the sums run on the
    float views of the complex128 arrays acc and t, with the same bits."""
    (a, b), *rest = terms
    np.multiply(a, b, out=acc)
    parts = acc.view(np.float64)
    np.add(0.0, parts, out=parts)
    for a, b in rest:
        np.multiply(a, b, out=t)
        np.add(parts, t.view(np.float64), out=parts)


def _project(comps, xi, inv_q2, f: np.ndarray, t: np.ndarray) -> None:
    """Leray projection in place of the n complex128 component stacks
    `comps`, per mode c_j - xi_j * (sum_k xi_k c_k) / |xi|^2, through the
    scratch arrays f and t of one component's shape."""
    _sum_into(f, zip(xi, comps), t)
    np.multiply(f, inv_q2, out=f)
    for x, c in zip(xi, comps):
        np.multiply(x, f, out=t)
        np.subtract(c.view(np.float64), t.view(np.float64), out=c.view(np.float64))


def _leray(uh: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Leray projection of a half-spectral stack of n-vectors (components on
    axis -(n+1)) into a new stack."""
    _, xi, _, inv_q2 = _factors(grid)
    out = np.array(uh, dtype=np.complex128)
    comps = np.moveaxis(out, -grid.n - 1, 0)
    f, t = np.empty((2, *comps.shape[1:]), dtype=np.complex128)
    _project(comps, xi, inv_q2, f, t)
    return out


def _divergence(uh: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Divergence sum_j i xi_j u_j of a half-spectral stack of n-vectors, as `_leray`."""
    _, _, ixi, _ = _factors(grid)
    return sum(x * c for x, c in zip(ixi, np.moveaxis(uh, -grid.n - 1, 0)))


def _require_vector(u: Field, what: str) -> None:
    if u.data.shape != (u.grid.n, *u.grid.shape):
        raise PreconditionError(f"{what} of shape {u.data.shape} is not a {u.grid.n}-vector")


def _require_velocity_series(w: TimeSeries, what: str, grid: GridSpec, owner: str) -> None:
    """The one velocity rule: reject a series, naming `what`, unless it is a
    real series of n-vectors on `grid`, the grid of `owner`."""
    require_one_part(w, what)
    if w.grid != grid or w.data.ndim != grid.n + 2 or w.data.shape[1] != grid.n:
        raise PreconditionError(
            f"{what} of shape {w.data.shape} is not a {grid.n}-vector series "
            f"on the grid of {owner}"
        )


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


@functools.lru_cache(maxsize=16)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """2/3-rule mask: keep per-axis integer wavenumbers |k| < N/3; read-only, one per grid."""
    keep = np.abs(np.rint(np.fft.fftfreq(grid.N) * grid.N)) < grid.N / 3.0
    mask = functools.reduce(np.logical_and, np.meshgrid(*[keep] * grid.n, indexing="ij"))
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=16)
def _factors(grid: GridSpec) -> tuple:
    """The spectral factors of the kernels here on the half lattice of
    `grid`, read-only and built once per grid, as `dealias_mask`: the 2/3
    mask as the complex 1 or 0 that a boolean mask multiplies by, the
    Nyquist-zeroed xi_k and i xi_k, and 1/|xi|^2 (0 at xi = 0)."""
    xi = tuple(np.ascontiguousarray(_half(x, grid)) for x in grid.deriv_frequencies)
    q2 = sum(x**2 for x in xi)
    inv_q2 = np.divide(1.0, q2, out=np.zeros_like(q2), where=q2 > 0)
    mask = _half(dealias_mask(grid), grid).astype(np.complex128)
    ixi = tuple(1j * x for x in xi)
    for a in (mask, inv_q2, *xi, *ixi):
        a.flags.writeable = False
    return mask, xi, ixi, inv_q2


def _tensor_divergence(
    uh: np.ndarray, vh: np.ndarray | None, grid: GridSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """P div(u x v) of the half spectra (m, n, ..., N//2 + 1) of real fields
    on `grid`; vh None means v = u.

    Component j is sum_k i xi_k (u_k v_j)^: the factors are 2/3-truncated
    into one stack and inverse-transformed in one batch, their pointwise
    products written into one stack, forward-transformed in one batch and
    re-truncated, and the divergence and the Leray projection are taken in
    spectral space.  For v = u the inverse transforms are shared and only
    the n(n+1)/2 symmetric products are formed: n + n(n+1)/2 transforms per
    sample (5 for n = 2), against 2n + n^2 otherwise.

    The result, a half spectrum too, goes into `out` (a new stack if None),
    which may be the memory of uh or vh: they are read once, into the
    truncated stack, before anything is written there.  Besides the
    transforms' own outputs, the only arrays made are that truncated stack,
    the product stack and one scratch array the size of one component's
    stack; the physical factors are released before the products' forward
    transform, the divergence is summed in `out` itself, and the projection
    takes the spent transformed products as its second scratch array.
    """
    n = grid.n
    mask, xi, ixi, inv_q2 = _factors(grid)
    m = len(uh)
    if vh is None:
        u = v = _dft(np.multiply(uh, mask), grid, "inverse")
        pairs = [(k, j) for k in range(n) for j in range(k, n)]
    else:
        factors = np.empty((m, 2 * n, *mask.shape), dtype=np.complex128)
        np.multiply(uh, mask, out=factors[:, :n])
        np.multiply(vh, mask, out=factors[:, n:])
        u = _dft(factors, grid, "inverse")
        del factors
        u, v = u[:, :n], u[:, n:]
        pairs = list(itertools.product(range(n), repeat=2))
    prods = np.empty((m, len(pairs), *grid.shape))
    for i, (k, j) in enumerate(pairs):
        np.multiply(u[:, k], v[:, j], out=prods[:, i])
    del u, v
    prods = _dft(prods, grid, "forward")
    np.multiply(prods, mask, out=prods)
    slot = {pair: i for i, pair in enumerate(pairs)}
    if vh is None:
        slot.update({(j, k): i for (k, j), i in list(slot.items())})
    if out is None:
        out = np.empty((m, n, *mask.shape), dtype=np.complex128)
    t = np.empty((m, *mask.shape), dtype=np.complex128)
    for j in range(n):
        _sum_into(out[:, j], [(ixi[k], prods[:, slot[k, j]]) for k in range(n)], t)
    _project(np.moveaxis(out, 1, 0), xi, inv_q2, prods[:, 0], t)
    return out


def projected_tensor_divergence(u: Field, v: Field) -> Field:
    """P div(u x v): dealiased quadratic term of the mild formulation, for
    one pair of real snapshots (spectral result)."""
    g = u.grid
    us = as_series(u).to_spectral()
    vs = us if v is u else as_series(v).to_spectral()
    for w, what in ((us, "velocity u"), (vs, "velocity v")):
        _require_velocity_series(w, what, g, "u")
    out = _tensor_divergence(us.data, None if v is u else vs.data, g)
    return TimeSeries.from_data(g, us.times, out, SPECTRAL).snapshots[0]


def _mild_into(out: TimeSeries, lam: np.ndarray, term, base=None) -> TimeSeries:
    """base - Duhamel(term) at the rate lam in the stack of `out`, a spectral
    series sampled from t = 0 (the integral alone for base None): for each
    `sample_chunks` chunk of samples in time order, term(chunk, dest) writes
    the integrand into dest = out.data[chunk], which it may read first, one
    `_march` overwrites it with the integral, and base(chunk) - integral
    takes its place before the next chunk's integrand is formed."""
    march = _march(_march_times(out.times, out.times), lam)
    for chunk in sample_chunks(out.data, out.grid):
        dest = out.data[chunk]
        term(chunk, dest)
        march(dest)
        if base is not None:
            np.subtract(base(chunk), dest, out=dest)
    return out


def bilinear_form(u: TimeSeries, v: TimeSeries, alpha: float) -> TimeSeries:
    """B(u, v): Duhamel integral of P div(u x v) at the shared sample times.

    The velocities are real.  `_mild_into` forms and marches the
    nonlinearity a chunk of samples at a time in one new stack; u's and v's
    data are only read.  Passing the same series twice shares its transforms.
    """
    times = _march_times(u.times, u.times)
    g = u.grid
    if len(u) != len(v) or np.max(np.abs(u.times - v.times)) > 1e-12:
        raise PreconditionError("bilinear form needs matching time grids")
    for w, what in ((u, "velocity u"), (v, "velocity v")):
        _require_velocity_series(w, f"bilinear form {what}", g, "u")
    uh = u.to_spectral().data
    vh = None if v is u else v.to_spectral().data
    F = TimeSeries.from_data(g, times, np.empty(uh.shape, dtype=np.complex128))

    def term(chunk, dest):
        _tensor_divergence(uh[chunk], None if vh is None else vh[chunk], g, out=dest)

    return _mild_into(F, _rate(g, alpha), term)


def estimate_bilinear_constant(
    grid: GridSpec,
    alpha: float,
    T: float,
    q: float,
    p: float,
    times,
) -> float:
    """C_est: the largest ratio ||B(u,v)|| / (||u|| ||v||) in L^q_t L^p_x over
    the six pairs (i, j), i <= j, of three seeded, band-limited,
    divergence-free free evolutions, on the time grid `times`, which must end
    at the horizon T.  A maximum over six pairs is a lower bound of the
    discrete operator's norm.

    The members are kept as their one-sample, Leray-projected seeds, and
    each member's norm is measured first, from its own flow (`_evolved_chunks`).
    Then each pair evolves its members one chunk of samples at a time
    (`_evolve`, once per member), and `_mild_into` writes
    P div(u x v) of each chunk straight into the one pair stack, made once
    for all pairs, and marches it there before the next chunk is evolved.
    So no evolved member is ever whole, one stack is alive, and a pair's
    ratio reads only its members and their norms.  An evolution is
    deterministic and B(a, b) keeps its argument order, so the ratios have
    the bits of the all-members-at-once computation.
    """
    if not len(times) or times[-1] != T:
        raise PreconditionError(f"the ensemble's times must end at the horizon T={T}")
    times = np.asarray(times, dtype=float)
    j_max = 3
    while 2.0 ** (j_max + 1) >= grid.nyquist:
        j_max -= 1
    lam = _rate(grid, alpha)
    seeds = []  # one-sample half spectra
    for seed in (101, 202, 303):
        comps = [
            RandomBandlimited(seed + 7 * c, 1, j_max).render(grid) for c in range(grid.n)
        ]
        w = TimeSeries.from_data(grid, [0.0], np.stack(comps)[None], PHYSICAL).to_spectral()
        seeds.append(_leray(w.data, grid)[0])
    sizes = []  # each member's L^q_t L^p_x norm, from its own flow
    for w in seeds:
        flow = _evolved_chunks(TimeSeries.from_data(grid, [0.0], w[None]), times, lam)
        sizes.append(_time_norm(np.concatenate([lp_norms(c, p) for c in flow]), times, q))
    F = TimeSeries.from_data(grid, times, np.empty((len(times), *seeds[0].shape), np.complex128))

    def ratio(i: int, j: int) -> float:
        def term(chunk, dest):
            uh = _evolve(seeds[i], times[chunk], lam)
            vh = None if i == j else _evolve(seeds[j], times[chunk], lam)
            _tensor_divergence(uh, vh, grid, out=dest)

        return mixed_norm(_mild_into(F, lam, term), q, p) / (sizes[i] * sizes[j])

    pairs = itertools.combinations_with_replacement(range(3), 2)
    return max(0.0, *(ratio(i, j) for i, j in pairs))


def _contraction_ratios(residuals: list) -> list:
    """Ratios of consecutive fixed-point residuals (zero residuals skipped)."""
    return [b / a for a, b in zip(residuals, residuals[1:]) if a > 0]


def _factor(residuals: list) -> float:
    """Measured contraction factor: the largest ratio, 0 before there is one."""
    return max(_contraction_ratios(residuals), default=0.0)


def _fixed_point(apply_map, v0, phys, q, p, tol, max_iter, max_factor=None):
    """Iterate v -> apply_map(v, phys) from v0, phys being v in physical form,
    until the relative step ||v_next - v|| / (||v_next|| or 1) in L^q_t L^p_x
    falls below tol (p a number).

    `phys` is the one physical stack: v0's samples in a stack of the
    caller's own, which the loop overwrites.  After each map evaluation,
    one `sample_chunks` chunk at a time, the new iterate is brought to
    physical space once, the L^p norms of its samples and of their steps
    from the samples in `phys` are taken, and the new samples are written
    over the old; the two time norms are `_time_norm`s of those per-sample
    norms.  So the norm, the step and the next map evaluation read the same
    samples.  apply_map may write into its argument's stack, never into
    phys; v0's and the iterates' stacks are only read here.  With
    max_factor, gives up from the third iterate on once a contraction ratio
    exceeds it.  Returns the last iterate, the residuals, whether tol was
    reached and the last iterate's mixed norm.  The solvers check
    max_iter >= 1 before any work.
    """
    grid, times = v0.grid, v0.times
    v, norm, residuals = v0, None, []
    norms, steps = np.empty(len(v0)), np.empty(len(v0))
    for it in range(1, max_iter + 1):
        v = apply_map(v, phys)
        for chunk, new in zip(sample_chunks(v.data, grid), v.chunks()):
            old = phys.data[chunk]
            norms[chunk] = _lp(new, grid, p)
            steps[chunk] = _lp(np.subtract(new, old, out=old), grid, p)
            old[...] = new
        norm = _time_norm(norms, times, q)
        residuals.append(_time_norm(steps, times, q) / (norm or 1.0))
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
    smallness gate 2 * C_est * a < 1 (the module notes say which lemma it
    applies), C_est measured or given (positive and finite) as c_est.  g
    and h are only read.
    """
    grid = g.grid
    n = grid.n
    require_positive("tol", tol)
    require_count("max_iter", max_iter)
    if c_est is not None:
        require_positive("c_est", c_est)
    # the upper endpoint alpha = 1/2 + n/4 is accepted: the measured
    # smallness gate below is what certifies the contraction
    require(0.5 < alpha <= 0.5 + n / 4,
            f"alpha must lie in the existence window (1/2, 1/2 + n/4] = (0.5, {0.5 + n / 4}]",
            f"alpha={alpha}, n={n}")
    require(p > n / (2 * alpha - 1),
            f"p={p} must exceed n/(2 alpha - 1) = {n / (2 * alpha - 1)}", f"n={n}, alpha={alpha}")
    require_exponent("time exponent q", q)
    require_relation(f"exponent relation 2a-1 = 2a/q + n/p for (q, p) = ({q}, {p})",
                     (2 * alpha - 1) - (2 * alpha / q + n / p))
    g0 = as_series(g).to_spectral()
    _require_velocity_series(g0, "initial velocity g", grid, "g")
    div_norm = lp_norms(TimeSeries.from_data(grid, [0.0], _divergence(g0.data, grid)), 2)[0]
    if div_norm > 1e-10:
        raise PreconditionError(f"initial data is not divergence-free: {div_norm:.3e}")
    if h is not None:
        _require_velocity_series(h, "forcing h", grid, "g")

    times = uniform_times(T, nodes)
    if c_est is None:  # first, so that the ensemble's memory peak holds no data term
        c_est = estimate_bilinear_constant(grid, alpha, T, q, p, times=times)
    lam = _rate(grid, alpha)
    # v0 = base = e^(-tL) g (+ the forced term), in the stack of the free
    # evolution; the map regenerates base a chunk at a time
    v0 = TimeSeries.from_data(grid, times, _evolve(g0.data[0], times, lam))
    forced = None
    if h is None:  # the physical stack that measures `a` is also the fixed point's
        phys = v0.to_physical()
        a_val = mixed_norm(phys, q, p)
    else:
        hP = TimeSeries.from_data(grid, h.times, _leray(h.to_spectral().data, grid))
        forced = duhamel(hP, times, alpha)
        del hP
        a_val = mixed_norm(v0, q, p) + mixed_norm(forced, q, p)
        np.add(v0.data, forced.data, out=v0.data)
        phys = v0.to_physical()
    if not 2 * c_est * a_val < 1:
        raise PreconditionError(
            f"smallness gate failed: 2 * C_est * a = {2 * c_est * a_val:.3f} >= 1 "
            f"(a={a_val:.3e}, C_est={c_est:.3e})"
        )

    def base(chunk):
        b = _evolve(g0.data[0], times[chunk], lam)
        return b if forced is None else np.add(b, forced.data[chunk], out=b)

    def apply_map(v: TimeSeries, _) -> TimeSeries:  # base - B(v, v), in v's stack
        return _mild_into(v, lam, lambda _, vh: _tensor_divergence(vh, None, grid, out=vh), base)

    v, residuals, converged, final_norm = _fixed_point(apply_map, v0, phys, q, p, tol, max_iter)
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
    r in [1, inf], s > 0 and 1/r + n/(2 alpha s) = 1.  q and p are >= 1.
    f, F and V must be finite and V real; complex f or F is solved as its
    (re, im) parts, which V does not couple.
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
    require_positive("time horizon T", T)
    require_positive("tol", tol)
    require_count("nodes", nodes)
    require_count("max_iter", max_iter)
    require_exponent("time exponent q", q)
    require_exponent("Lebesgue exponent p", p)
    if r is not None:
        require_exponent("potential exponent r", r)
        if not s > 0:
            raise PreconditionError(f"potential exponent s={s} must be positive")
        require_relation(f"potential integrability 1/r + n/(2 alpha s) = 1 for (r, s) = "
                         f"({r}, {s})", 1.0 / r + n / (2 * alpha * s) - 1.0)
    if not 0 < min_fraction <= 1:
        raise PreconditionError(f"min_fraction={min_fraction} must lie in (0, 1]")
    if V is not None:
        require_one_part(V, "potential V")
    f0 = as_series(f)
    for name, w in (("data f", f0), ("forcing F", F), ("potential V", V)):
        if w is not None and not np.all(np.isfinite(w.data)):
            raise PreconditionError(f"{name} holds non-finite values")
    data_norm = float(lp_norms(f0, 2)[0])
    parts = max(f0.parts, 1 if F is None else F.parts)
    f_cur = _in_parts(f0, parts).to_spectral()
    F = None if F is None else _in_parts(F, parts)
    lam = _rate(grid, alpha)

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

            def mild(term) -> TimeSeries:  # base - Duhamel(term), in a new stack
                out = TimeSeries.from_data(grid, loc, np.empty_like(base.data), parts=parts)
                return _mild_into(out, lam, term, lambda chunk: base.data[chunk])

            def apply_map(v: TimeSeries, phys: TimeSeries) -> TimeSeries:
                if V is None:  # a constant map: v0 is its fixed point
                    return v

                def term(chunk, dest):  # V v - F, from the iterate's physical samples
                    _dft(V_nodes[chunk] * phys.data[chunk], grid, "forward", out=dest)
                    if forcing is not None:
                        np.subtract(dest, forcing[chunk], out=dest)

                return mild(term)

            v0 = base if F is None else mild(lambda c, dest: np.negative(forcing[c], out=dest))
            v, residuals, converged, _ = _fixed_point(
                apply_map, v0, v0.to_physical(), q, p, tol, max_iter, max_factor=0.5
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


def regularity_check(
    v: TimeSeries, max_order: int, q: float, p: float
) -> dict[tuple[int, ...], float]:
    """Mixed norms of all spatial derivatives D^j with |j| <= max_order.

    max_order must be an integer in [0, 4].  Raises ConvergenceError if any
    norm is non-finite.  Every symbol (i xi)^j, on the Nyquist-zeroed half
    lattice, maps a real field to a real field, and all of them go through
    one `_multiplier_norms` call, a chunk of v's samples at a time.
    """
    if not isinstance(max_order, (int, np.integer)) or not 0 <= max_order <= 4:
        raise PreconditionError(
            f"max_order={max_order!r} must be an integer in [0, 4] (derivative order cap)"
        )
    grid = v.grid
    _, _, ixi, _ = _factors(grid)
    orders = itertools.product(range(max_order + 1), repeat=grid.n)
    multis = [multi for multi in orders if sum(multi) <= max_order]
    syms = []
    for multi in multis:
        sym = np.ones(ixi[0].shape, dtype=np.complex128)
        for x, m in zip(ixi, multi):
            if m:
                sym = sym * x**m
        syms.append(sym)
    out: dict[tuple[int, ...], float] = {}
    for multi, vals in zip(multis, _multiplier_norms(v, syms, p, None).T):
        val = _time_norm(vals, v.times, q)
        if not np.isfinite(val):
            raise ConvergenceError(f"derivative {multi}: non-finite mixed norm")
        out[multi] = float(val)
    return out
