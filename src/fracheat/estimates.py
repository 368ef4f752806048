"""Admissibility arithmetic and the mixed-norm verification harness.

Each estimate is operationalized as a computable LHS/RHS ratio.  A "holds"
verdict never asserts a constant (none is available); instead the harness
checks (i) finiteness, (ii) invariance of the ratio under the parabolic
dilation family f_lambda(x) = f(c + lambda (x - c)), t -> t / lambda^(2 alpha),
for scaling-consistent exponents, and (iii) boundedness across seeded
ensembles.  Dilations are realized by re-synthesizing recipes analytically
(never by resampling), so every dilation level has controlled band limits
and a fresh boundary-contamination diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PreconditionError, require, require_exponent, require_positive, require_relation
from .grid import (
    DilatableRecipe,
    Field,
    GaussianBump,
    GridSpec,
    PHYSICAL,
    SPECTRAL,
    TimeSeries,
    WindowedPowerlaw,
    _dft,
    _half,
    _require_times,
    as_series,
    geometric_times,
    require_whole_space,
    sample_chunks,
    synthesize_field,
)
from .norms import (
    NormSpec, _multiplier_norms, _require_time_grid, _time_integral, _time_norm, lp_norms)
from .semigroup import _alpha_value, _evolved_chunks, _march, _march_times, _rate, kernel_data
from .semigroup import duhamel  # noqa: F401  (re-exported; perfbench's tracer wraps it here)

INF = float("inf")


def _inv(x: float) -> float:
    return 0.0 if x == INF else 1.0 / x


def conjugate(p: float) -> float:
    """Hoelder conjugate p' = p / (p - 1)."""
    require_exponent("p", p)
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1)


@dataclass(frozen=True)
class Triplet:
    """Exponent bundle (q, p, r) with scaling weight sigma = n / (2 alpha)."""

    q: float
    p: float
    r: float
    sigma: float


def check_admissible(t: Triplet) -> float:
    """Signed admissibility defect 1/q - sigma (1/r - 1/p); zero means admissible."""
    require(1 < t.r <= t.p, "admissibility needs 1 < r <= p", f"r={t.r}, p={t.p}")
    require_exponent("q", t.q)
    require_positive("scaling weight sigma", t.sigma)
    return _inv(t.q) - t.sigma * (_inv(t.r) - _inv(t.p))


def check_scaling_relation(
    q: float, p: float, q1: float, p1: float, alpha: float, n: int
) -> float:
    """Signed residual of (1/q1' - 1/q) + (n/2a)(1/p1' - 1/p) - 1, for
    exponents q, p, q1, p1 in [1, inf]."""
    for name, value in (("q", q), ("p", p), ("q1", q1), ("p1", p1)):
        require_exponent(name, value)
    alpha = _alpha_value(alpha)
    inv_q1c = 1.0 - _inv(q1)
    inv_p1c = 1.0 - _inv(p1)
    return (inv_q1c - _inv(q)) + (n / (2 * alpha)) * (inv_p1c - _inv(p)) - 1.0


# ---------------------------------------------------------------------------
# ratio evaluators
# ---------------------------------------------------------------------------


def default_time_grid(T: float) -> np.ndarray:
    """[0] followed by a geometric refinement toward 0 on (0, T], densified
    uniformly to at least 40 nodes."""
    require_positive("time horizon T", T)
    ts = np.concatenate([[0.0], geometric_times(T * 1e-3, T)])
    if len(ts) < 40:  # densify uniformly if the geometric ladder is short
        extra = np.linspace(0, T, 40)
        ts = np.unique(np.concatenate([ts, extra]))
    return ts


def homogeneous_ratio(
    f: Field,
    q: float,
    p: float,
    alpha: float,
    T: float,
    times: np.ndarray | None = None,
    kind: str = "lebesgue",
    s: float = 0.0,
) -> float:
    """Free-evolution mixed norm over the data norm.

    Numerator: L^q in time on [0, T] of the `kind` spatial norm (at
    integrability p) of the propagated field.  Denominator: the matching
    data norm at integrability 2 (plain L^2 for lebesgue/bmo kinds).  `T` is
    the last of `times`, when they are given.
    """
    return _of_field(_homogeneous(f.grid, q, p, alpha, T, times, kind, s), f)


def _of_field(ratio, f) -> float:
    """A bound ratio of the data `f`, read once: as a one-sample series u and
    its spectral form uh, the pair every ratio but the inhomogeneous reads."""
    u = as_series(f)
    return ratio(u, u.to_spectral())


def _require_horizon(name: str, T: float, times) -> None:
    """Reject a `T` that is not the last of two or more `times`, naming both."""
    if times is not None and len(times) > 1 and T != times[-1]:
        raise PreconditionError(f"{name}={T} is not the last of times, {times[-1]}: "
                                "an estimate ends at its last time")


def _require_endpoint(n: int, alpha: float, estimate: str) -> None:
    """Reject n != 2 alpha for an endpoint estimate (BMO, the parabolic b-form)."""
    require(abs(n - 2 * alpha) <= 1e-12, f"{estimate} requires n = 2*alpha",
            f"n={n}, alpha={alpha}")


def _homogeneous(grid, q, p, alpha, T, times, kind, s):
    """`homogeneous_ratio` on `grid`, checked and bound as a function of the
    data as a series u and its spectral form uh.  Checked: the horizon, the
    BMO endpoint (n = 2 alpha, q = 2) for kind 'bmo', the excluded triplet
    (q, p, n / (2 alpha)) = (2, inf, 1) within a relative 1e-12, the norm
    specs and the time grid.  The Lebesgue denominator reads u, the others
    and the evolution read uh, a chunk of times at a time."""
    _require_horizon("T", T, times)
    n, alpha = grid.n, _alpha_value(alpha)
    if kind == "bmo":
        _require_endpoint(n, alpha, "bmo endpoint")
        require(q == 2, "bmo endpoint requires q = 2", f"q={q}")
    require(not (q == 2 and p == INF and abs(n / (2 * alpha) - 1.0) < 1e-12),
            "the triplet (q, p, sigma) = (2, inf, 1) is excluded from the homogeneous "
            "estimate", f"q={q}, p={p}, n={n}, alpha={alpha}")
    spec = NormSpec(kind, p=p, s=s)
    denom_spec = NormSpec("lebesgue" if kind == "bmo" else kind, p=2, s=s)
    ts = default_time_grid(T) if times is None else _require_times(times, "times")
    _require_time_grid(ts, q)

    def ratio(u, uh):
        denom = float(denom_spec.norms(u if denom_spec.kind == "lebesgue" else uh)[0])
        if denom == 0.0:
            raise PreconditionError("zero data: ratio undefined")
        vals = [spec.norms(w) for w in _evolved_chunks(uh, ts, _rate(grid, alpha))]
        return _time_norm(np.concatenate(vals), ts, q) / denom

    return ratio


def inhomogeneous_ratio(
    F: TimeSeries,
    qp: tuple[float, float],
    q1p1: tuple[float, float],
    alpha: float,
    kind: str = "lebesgue",
    s: float = 0.0,
) -> float:
    """Duhamel-term mixed norm over the forcing mixed norm.

    kind='lebesgue': L^q_t L^p_x over L^(q1')_t L^(p1')_x, requiring the
    scaling relation residual to vanish.  kind='sobolev': the smoothing
    pairing with a Lebesgue numerator and a homogeneous Sobolev (order s)
    denominator; its scale-invariant configurations have residual
    s / (2 alpha) instead of zero.  kind='besov': homogeneous Besov norms
    (microlocal q = 2) on both sides, residual zero.  F runs a
    `sample_chunks` chunk at a time, as a sweep's forcing does; its data is
    only read.
    """
    ratio = _inhomogeneous(F.grid, F.times, qp, q1p1, alpha, kind, s)
    return ratio(TimeSeries.from_data(F.grid, F.times[c], F.data[c], F.representation, F.parts)
                 for c in sample_chunks(F.data, F.grid))


def _inhomogeneous(grid, times, qp, q1p1, alpha, kind, s):
    """`inhomogeneous_ratio` on `grid` and `times`, checked and bound as a
    function of the forcing: series on consecutive pieces of `times`, in
    time order.  Checked: a `kind` it has a pairing for, q, p, q1, p1 in
    [1, inf], 1 <= p1' < p <= inf, 1 < q1' < q < inf, the scaling relation
    (residual s / (2 alpha) for the Sobolev pairing, else zero), the norm
    specs and `_march_times`.  Each chunk gives its denominator norms, is
    marched (`_march`, stateful, so one per call) into its integral in its
    half spectra, gives its numerator norms and is dropped."""
    alpha = _alpha_value(alpha)
    if kind not in ("lebesgue", "sobolev", "besov"):
        raise PreconditionError(
            f"inhomogeneous estimate kind {kind!r} is not lebesgue, sobolev or besov")
    (q, p), (q1, p1) = qp, q1p1
    target = s / (2 * alpha) if kind == "sobolev" else 0.0
    residual = check_scaling_relation(q, p, q1, p1, alpha, grid.n) - target
    q1c, p1c = conjugate(q1), conjugate(p1)
    require(1 <= p1c < p <= INF, "need 1 <= p1' < p <= inf", f"p1'={p1c}, p={p}")
    require(1 < q1c < q < INF, "need 1 < q1' < q < inf", f"q1'={q1c}, q={q}")
    require_relation(f"scaling relation (1/q1' - 1/q) + (n/2a)(1/p1' - 1/p) - 1 = {target:.3e} "
                     f"for (q,p)=({q},{p}), (q1,p1)=({q1},{p1})", residual)
    den_spec = NormSpec(kind, p=p1c, s=s)
    num_spec = NormSpec("besov", p=p, s=s) if kind == "besov" else NormSpec("lebesgue", p=p)
    t_eval = _march_times(times, times)

    def ratio(forcing):
        march = _march(t_eval, _rate(grid, alpha))
        den, num = [], []
        for Fc in forcing:
            den.append(den_spec.norms(Fc))
            data = (Fc.data.copy() if Fc.representation == SPECTRAL
                    else _dft(Fc.data, grid, "forward"))
            integral = TimeSeries.from_data(grid, Fc.times, data, SPECTRAL, Fc.parts)
            del Fc, data
            march(integral.data)
            num.append(num_spec.norms(integral))
            del integral  # released before the next chunk is built
        denom = _time_norm(np.concatenate(den), times, q1c)
        if denom == 0.0:
            raise PreconditionError("zero forcing: ratio undefined")
        return _time_norm(np.concatenate(num), times, q) / denom

    return ratio


def parabolic_ratio(
    f: Field,
    p: float,
    alpha: float,
    form: str = "b",
    s_min: float = 1e-6,
    s_max: float = 8.0,
    r: float | None = None,
    T: float | None = None,
) -> float:
    """Weighted-in-time square (or r-th power) mixed norm of the free flow.

    Both forms are one integral int s^(-e) ||e^(-s L) f||_p^k ds on a geometric
    grid refined toward s = 0, plus an analytic head below it, taken by
    `norms._time_integral`.  form='b' (n = 2*alpha, p > 2): e = 2/p, k = 2, to
    s_max; its root over ||f||_2.  form='a' (n < 2*alpha): e = n r/(2 p alpha),
    k = r, to T; over T^(1 - n/(2 alpha)) ||f||_r^r, in the integral's scale.
    The flow's norms equal lp_norm(apply_semigroup(f, s, alpha), p) bit for bit.
    """
    return _of_field(_parabolic(f.grid, p, alpha, form, s_min, s_max, r, T), f)


def _parabolic(grid, p, alpha, form, s_min, s_max, r, T):
    """`parabolic_ratio` on `grid`, checked and bound as in `_homogeneous`:
    the b-form at n = 2 alpha with 2 < p <= inf and s_min < s_max < inf; the
    a-form below it, n < 2 alpha, with r and T, a finite r and 1 <= r <= p;
    and the geometric s grid."""
    n, alpha = grid.n, _alpha_value(alpha)
    if form == "b":
        _require_endpoint(n, alpha, "b-form")
        require(p > 2, "b-form requires 2 < p <= inf", f"p={p}")
        require(s_min < s_max < INF, "b-form needs s_min < s_max < inf",
                f"s_min = {s_min}, s_max = {s_max}")
        e, k = (2.0 / p if p != INF else 0.0), 2
        ss = geometric_times(s_min, s_max)
    elif form == "a":
        require(n < 2 * alpha, "a-form requires n < 2*alpha", f"n={n}, alpha={alpha}")
        require(r is not None and T is not None, "a-form needs both r and T", f"r={r}, T={T}")
        # r = inf leaves no r-th power to take
        require(r != INF, "a-form requires a finite r", f"r={r}")
        require(1 <= r <= p, "a-form requires 1 <= r <= p", f"r={r}, p={p}")
        e, k = (n * r / (2 * p * alpha) if p != INF else 0.0), r
        ss = geometric_times(min(s_min, T * 1e-6), T)
    else:
        raise PreconditionError(f"unknown parabolic form {form!r}")

    def ratio(u, uh):
        flow = _evolved_chunks(uh, ss, _rate(grid, alpha))
        vals = np.concatenate([lp_norms(w, p) for w in flow])
        # head: ||e^{-sL}f||_p ~ ||f||_p below ss[0], integrable weight
        head = (lp_norms(u, p)[0], lambda v: ss[0] ** (1 - e) / (1 - e) * v**k)
        total, scale = _time_integral(vals, ss, k, ss ** (-e), head)
        if form == "b":
            return float(math.sqrt(total) / (lp_norms(u, 2)[0] / scale))
        return float(total / (T ** (1 - n / (2 * alpha)) * (lp_norms(u, r)[0] / scale) ** r))

    return ratio


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of a norm decay curve plus the predicted exponent."""

    slope: float
    predicted: float
    contamination: float
    times: np.ndarray
    norms: np.ndarray

    @property
    def relative_error(self) -> float:
        if self.predicted == 0.0:
            return abs(self.slope)
        return abs(self.slope / self.predicted - 1.0)


def decay_fit(
    f: Field,
    r: float,
    p: float,
    alpha: float,
    times: np.ndarray,
    gradient: bool = False,
) -> DecayFit:
    """Fit log ||e^(-tL) f||_p (or its gradient variant) against log t.

    The predicted exponent is -(n/2a)(1/r - 1/p), minus 1/(2a) for the
    gradient variant.  The input data must pass the whole-space gate
    `require_whole_space` for the fit to be trusted.  Like
    `parabolic_ratio`, the plain fit equals the per-time norms bit for bit;
    the flow is made and measured a chunk of times at a time.
    """
    require(1 <= r <= p, "decay fit requires 1 <= r <= p", f"r={r}, p={p}")
    times = np.asarray(times, dtype=float)
    if len(times) < 2 or not np.all(times > 0):
        raise PreconditionError("decay fit times must be two or more, all positive")
    g = f.grid
    alpha = _alpha_value(alpha)
    cont = require_whole_space(f, "decay fit data")
    # the gradient's norm is that of the vector multiplier i xi, on the half lattice
    grad = [1j * np.stack([_half(x, g) for x in g.deriv_frequencies])] if gradient else None
    flow = _evolved_chunks(as_series(f).to_spectral(), times, _rate(g, alpha))
    vals = np.concatenate([_multiplier_norms(w, grad, p, None)[:, 0] if gradient
                           else lp_norms(w, p) for w in flow])
    slope = float(np.polyfit(np.log(times), np.log(vals), 1)[0])
    predicted = -(g.n / (2 * alpha)) * (_inv(r) - _inv(p))
    if gradient:
        predicted -= 1.0 / (2 * alpha)
    return DecayFit(slope, predicted, cont, times, vals)


@dataclass(frozen=True)
class KernelNormFit:
    norm_T: float
    fitted_exponent: float
    predicted_exponent: float
    window_value: float


def _kernel_norms(grid: GridSpec, ts: np.ndarray, alpha: float, r: float) -> np.ndarray:
    """lp_norm(kernel(grid, t, alpha), r) at each t of `ts`, bit for bit: the
    symbols exp(-t * rate) are made and go through `kernel_data` a sample
    chunk at a time, each chunk dropped before the next is made.  The
    whole-space gate applies at the largest time only: small-t kernels are
    near-deltas whose ringing is harmless to L^r."""
    rate, vals = _rate(grid, alpha), []
    for chunk in sample_chunks(np.broadcast_to(rate, (len(ts), *rate.shape)), grid):
        sym = np.multiply.outer(-ts[chunk], rate)
        K = TimeSeries.from_data(grid, ts[chunk], kernel_data(np.exp(sym, out=sym), grid), PHYSICAL)
        vals.append(lp_norms(K, r))
        if chunk.stop >= len(ts):
            require_whole_space(Field(grid, K.data[-1]), f"kernel at t={ts[-1]}, alpha={alpha}")
        del sym, K  # released before the next chunk is made
    return np.concatenate(vals)


def kernel_mixed_norm_fit(
    alpha: float,
    h: float,
    r: float,
    T: float,
    n: int,
    grid: GridSpec | None = None,
    t_min: float | None = None,
) -> KernelNormFit:
    """Mixed L^h_t((0,T]; L^r_x) norm of the propagator kernel and its T-exponent.

    Requires the integrability window (n h / 2 alpha)(1 - 1/r) < 1.  The
    quadrature (`norms._time_integral`) runs on a geometric grid from t_min
    with a head that extrapolates the measured power law of ||K_t||_r below
    t_min; the exponent is fitted by evaluating at T and 2T.
    """
    alpha = _alpha_value(alpha)
    require_positive("kernel norm end time T", T)
    require_exponent("time exponent h", h)
    require_exponent("Lebesgue exponent r", r)
    w = (n * h / (2 * alpha)) * (1 - _inv(r)) if h != INF else INF
    require(w < 1, "kernel norm window (n h / 2a)(1 - 1/r) must be < 1", f"{w}")
    if grid is None:
        grid = GridSpec(n=n, N=128, L=10.0)
    if grid.n != n:
        raise PreconditionError("grid dimension does not match n")
    if t_min is None:
        t_min = T / 8.0

    def mnorm(T_end: float) -> float:
        ts = geometric_times(t_min, T_end)
        vals = _kernel_norms(grid, ts, alpha, r)
        sig = math.log(vals[1] / vals[0]) / math.log(ts[1] / ts[0])
        if 1 + h * sig <= 0:
            raise PreconditionError("kernel norm head is not integrable")
        head = (vals[0], lambda v: v**h * ts[0] / (1 + h * sig))
        total, scale = _time_integral(vals, ts, h, head=head)
        return scale * total ** (1.0 / h)

    m1, m2 = mnorm(T), mnorm(2 * T)
    fitted = math.log2(m2 / m1)
    predicted = _inv(h) - (n / (2 * alpha)) * (1 - _inv(r))
    return KernelNormFit(m1, fitted, predicted, w)


def besov_embedding_ratio(f: Field, p: float) -> float:
    """Homogeneous Besov norm at the critical order s = (2-p) n / (2p) over ||f||_2."""
    return _of_field(_besov_embedding(f.grid, p), f)


def _besov_embedding(grid, p):
    """`besov_embedding_ratio` on `grid`, checked (p > 2, the norm spec) and
    bound as in `_homogeneous`: ||f||_2 reads u, the Besov norm uh."""
    require(p > 2, "embedding requires p > 2", f"p={p}")
    spec = NormSpec("besov", p=p, s=(2 - p) * grid.n / (2 * p) if p != INF else -grid.n / 2)

    def ratio(u, uh):
        denom = float(lp_norms(u, 2)[0])
        if denom == 0.0:
            raise PreconditionError("zero data: ratio undefined")
        return float(spec.norms(uh)[0]) / denom

    return ratio


# ---------------------------------------------------------------------------
# dilation sweeps
# ---------------------------------------------------------------------------


@dataclass
class RatioReport:
    """Ratios of one estimate across a dilation family."""

    estimate_id: str
    params: dict
    lambdas: list
    ratios: list
    max_drift: float
    contamination: list
    verdict: str

    def to_json_dict(self) -> dict:
        return {**asdict(self), "params": {k: _jsonable(v) for k, v in self.params.items()}}

    def csv_rows(self) -> list[dict]:
        return [
            {
                "estimate_id": self.estimate_id,
                "lambda": lam,
                "ratio": rat,
                "contamination": con,
                "max_drift": self.max_drift,
                "verdict": self.verdict,
            }
            for lam, rat, con in zip(self.lambdas, self.ratios, self.contamination)
        ]


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if callable(v):
        return getattr(v, "__name__", "callable")
    return v


def _nyquist_tail(spec: TimeSeries) -> float:
    """Spectral energy fraction within 5% of the per-axis Nyquist edge, read
    from the half spectra of a spectral series' samples, parts and
    components: a mode with 0 < k_last < N/2 stands for itself and its
    mirror, so it counts twice."""
    g = spec.grid
    e = np.abs(spec.data.reshape(-1, *spec.data.shape[-g.n :])) ** 2
    e[..., 1 : g.N // 2] *= 2
    total = float(e.sum())
    if total == 0.0:
        return 0.0
    edge = 0.95 * g.nyquist
    mask = np.zeros(e.shape[1:], dtype=bool)
    for x in g.frequencies:
        mask |= np.abs(_half(x, g)) >= edge
    return float(e[:, mask].sum()) / total


def _separable_chunks(u: TimeSeries, profile, times):
    """profile(t) * u's one sample at each time of `times`, on u's grid and
    in its representation and parts, as a series per chunk that
    `sample_chunks` cuts from the whole series, in time order: a sweep's
    forcing, never whole."""
    stack = np.broadcast_to(u.data, (len(times), *u.data.shape[1:]))
    for c in sample_chunks(stack, u.grid):
        amp = np.array([profile(t) for t in times[c]]).reshape((-1,) + (1,) * (u.data.ndim - 1))
        yield TimeSeries.from_data(u.grid, times[c], amp * u.data[0], u.representation, u.parts)


# estimate id -> the params its sweep reads besides alpha and p, each mapped to
# whether the sweep needs it (an inhomogeneous sweep only records T)
SWEEP_PARAMS = {
    "homogeneous": {"q": True, "T": True, "times": False, "kind": False, "s": False},
    "bmo_endpoint": {"q": True, "T": True, "times": False},
    "inhomogeneous": {"q": True, "T": False, "kind": False, "s": False, "q1": True,
                      "p1": True, "times": True, "profile": True},
    "parabolic": {"s_min": True, "s_max": True},
    "besov_embedding": {},
}


def _level(estimate_id: str, grid: GridSpec, alpha: float, params: dict, tscale: float):
    """The ratio of a sweep level of time scale `tscale`, bound from `params`
    (every check of its estimate made): a function of the level's one-sample
    series and its spectral form."""
    p, kind, s = params["p"], params.get("kind", "lebesgue"), params.get("s", 0.0)
    if estimate_id == "inhomogeneous":
        times, profile = params["times"] * tscale, params["profile"]
        ratio = _inhomogeneous(grid, times, (params["q"], p), (params["q1"], params["p1"]),
                               alpha, kind, s)
        return lambda u, uh: ratio(_separable_chunks(u, lambda t: profile(t / tscale), times))
    if estimate_id == "parabolic":
        return _parabolic(grid, p, alpha, "b", params["s_min"] * tscale,
                          params["s_max"] * tscale, None, None)
    if estimate_id == "besov_embedding":
        return _besov_embedding(grid, p)
    times = params["times"] * tscale if params.get("times") is not None else None
    return _homogeneous(grid, params["q"], p, alpha, params["T"] * tscale, times,
                        "bmo" if estimate_id == "bmo_endpoint" else kind, s)


def dilation_sweep(
    recipe,
    grid: GridSpec,
    lambdas,
    estimate_id: str,
    params: dict,
    drift_tol: float | None = None,
) -> RatioReport:
    """Evaluate one estimate's ratio across parabolically matched dilations.

    Every dilation level is synthesized analytically from the recipe; it
    must pass the whole-space gate `require_whole_space` and its spectral
    content must stay clear of the Nyquist edge, otherwise the sweep aborts.
    Before any level is made, `lambdas` are ranged, `estimate_id` must be a
    key of SWEEP_PARAMS, every `params` key must be one its estimate reads
    (alpha, p and its SWEEP_PARAMS entry) and every param it needs must be
    given, or the sweep raises naming the key; a `T` given with `times`
    must be their last.  Then every level's ratio is bound (`_level`), and so
    checked: its estimate's hypotheses, exponents, norm specs (a nonzero `s`
    needs a `kind` that reads it) and time or s grid.
    max_drift is max over lambda of |ratio(lambda) / ratio(1) - 1|.
    """
    if not isinstance(recipe, DilatableRecipe):
        raise PreconditionError(
            f"recipe {type(recipe).__name__} does not support analytic dilation"
        )
    lambdas = list(lambdas)
    if not lambdas:
        raise PreconditionError("dilation sweep needs at least one level in lambdas")
    for i, lam in enumerate(lambdas):
        require_positive(f"lambdas[{i}]", lam)
    if estimate_id not in SWEEP_PARAMS:
        raise PreconditionError(f"unknown estimate id {estimate_id!r}")
    reads = {"alpha": True, "p": True, **SWEEP_PARAMS[estimate_id]}  # key -> needed
    if unread := [key for key in params if key not in reads]:
        raise PreconditionError(f"params {', '.join(unread)}: not read by the {estimate_id} "
                                f"sweep, which reads {', '.join(reads)}")
    if missing := [key for key, need in reads.items() if need and key not in params]:
        raise PreconditionError(f"params {', '.join(missing)}: needed by the {estimate_id} sweep")
    alpha = _alpha_value(params["alpha"])
    if "T" in params:
        _require_horizon("params T", params["T"], params.get("times"))
    # every level's ratio, bound and so checked before the first level is made
    bound = [_level(estimate_id, grid, alpha, params, lam ** (-2 * alpha)) for lam in lambdas]
    ratios, contams = [], []
    for lam, ratio in zip(lambdas, bound):
        f = synthesize_field(grid, recipe.dilated(lam))
        con = require_whole_space(f, f"dilation lambda={lam}")
        # the level's one series and its spectrum: the Nyquist gate and every
        # ratio read these, and the Field is released before the ratio runs
        u = as_series(f)
        del f
        uh = u.to_spectral()
        if _nyquist_tail(uh) >= 1e-3:
            raise PreconditionError(
                f"dilation lambda={lam}: spectral content at the Nyquist edge"
            )
        ratios.append(float(ratio(u, uh)))
        contams.append(float(con))
    base = ratios[lambdas.index(1) if 1 in lambdas else 0]
    max_drift = max(abs(rho / base - 1.0) for rho in ratios)
    verdict = ""
    if drift_tol is not None:
        verdict = "pass" if max_drift < drift_tol else "fail"
    return RatioReport(
        estimate_id=estimate_id,
        params={k: v for k, v in params.items() if k != "times"},
        lambdas=lambdas,
        ratios=ratios,
        max_drift=float(max_drift),
        contamination=contams,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# frozen decay battery (tuned fit windows; see tests for tolerances)
# ---------------------------------------------------------------------------

DECAY_BATTERY = {
    # (n, alpha, r, p): grid params, data recipe factory, fit windows
    (1, 1.0, 1.0, INF): dict(
        N=2048,
        L=128.0,
        recipe=lambda g: GaussianBump(width=0.35),
        window=(3.7, 12.25, 12),
        grad_window=(3.7, 12.25, 12),
    ),
    (1, 0.5, 1.0, 2.0): dict(
        N=4096,
        L=2 * np.pi,
        recipe=lambda g: GaussianBump(width=3 * g.spacing),
        window=(0.065, 0.17, 12),
        grad_window=(0.13, 0.30, 12),
    ),
    (2, 1.0, 1.0, 2.0): dict(
        N=128,
        L=2 * np.pi,
        recipe=lambda g: GaussianBump(width=2 * g.spacing),
        window=(0.34, 0.48, 10),
        grad_window=(0.34, 0.48, 10),
    ),
    (2, 0.75, 2.0, INF): dict(
        N=128,
        L=2 * np.pi,
        recipe=lambda g: WindowedPowerlaw(decay=1.0),
        window=(0.0050, 0.0095, 10),
        grad_window=(0.0050, 0.0100, 10),
    ),
}


def run_decay_case(n, alpha, r, p, gradient: bool = False) -> DecayFit:
    """Run one frozen battery configuration of the decay fit."""
    cfg = DECAY_BATTERY.get((n, alpha, r, p))
    if cfg is None:
        raise PreconditionError(
            f"(n, alpha, r, p) = {(n, alpha, r, p)} is not in the tuned decay battery; "
            f"available: {sorted(DECAY_BATTERY)}"
        )
    grid = GridSpec(n=n, N=cfg["N"], L=cfg["L"])
    f = synthesize_field(grid, cfg["recipe"](grid))
    lo, hi, m = cfg["grad_window"] if gradient else cfg["window"]
    times = np.geomspace(lo, hi, m)
    return decay_fit(f, r, p, alpha, times, gradient=gradient)
