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

from .errors import ContaminationError, PreconditionError
from .grid import (
    Field,
    GaussianBump,
    GridSpec,
    PHYSICAL,
    SPECTRAL,
    TimeSeries,
    WindowedPowerlaw,
    _half,
    as_series,
    contamination,
    geometric_times,
    sample_chunks,
    synthesize_field,
)
from .norms import (
    NormSpec,
    besov_norm,
    lp_norm,
    lp_norms,
    mixed_norm,
)
from .semigroup import (
    _alpha_value,
    duhamel,
    kernel_data,
    require_contained_kernel,
    semigroup_series,
)

INF = float("inf")


def _inv(x: float) -> float:
    return 0.0 if x == INF else 1.0 / x


def conjugate(p: float) -> float:
    """Hoelder conjugate p' = p / (p - 1)."""
    if not p >= 1:
        raise PreconditionError(f"exponent {p} must be >= 1")
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
    if not (1 < t.r <= t.p):
        raise PreconditionError(f"admissibility needs 1 < r <= p, got r={t.r}, p={t.p}")
    if not (t.q >= 1 and t.sigma > 0):
        raise PreconditionError("exponents out of range")
    return _inv(t.q) - t.sigma * (_inv(t.r) - _inv(t.p))


def check_scaling_relation(
    q: float, p: float, q1: float, p1: float, alpha: float, n: int
) -> float:
    """Signed residual of (1/q1' - 1/q) + (n/2a)(1/p1' - 1/p) - 1."""
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
    ts = geometric_times(T * 1e-3, T, include_zero=True)
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
    data norm at integrability 2 (plain L^2 for lebesgue/bmo kinds).
    """
    u = as_series(f)
    return _homogeneous_ratio(u, u.to_spectral(), q, p, alpha, T, times, kind, s)


def _homogeneous_ratio(u, uh, q, p, alpha, T, times, kind, s) -> float:
    """`homogeneous_ratio` of the data as a one-sample series `u` and its
    spectral form `uh`: the Lebesgue denominator reads u's samples, the
    Sobolev and Besov ones and the evolution read `uh` (the same bits as
    transforming u again)."""
    g = u.grid
    alpha = _alpha_value(alpha)
    if kind == "bmo":
        if abs(g.n - 2 * alpha) > 1e-12:
            raise PreconditionError(
                f"bmo endpoint requires n = 2*alpha, got n={g.n}, alpha={alpha}"
            )
        if q != 2:
            raise PreconditionError("bmo endpoint requires q = 2")
    if q == 2 and p == INF and abs(g.n / (2 * alpha) - 1.0) < 1e-12:
        raise PreconditionError(
            "the triplet (q, p, sigma) = (2, inf, 1) is excluded from the "
            "homogeneous estimate"
        )
    denom_kind = "lebesgue" if kind == "bmo" else kind
    data = u if denom_kind == "lebesgue" else uh
    denom = float(NormSpec(denom_kind, p=2, s=s).norms(data)[0])
    if denom == 0.0:
        raise PreconditionError("zero data: ratio undefined")

    ts = times if times is not None else default_time_grid(T)
    series = semigroup_series(uh, ts, alpha)
    spec = NormSpec(kind, p=p, s=s)
    num = mixed_norm(series, q, spec)
    return num / denom


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
    (microlocal q = 2) on both sides, residual zero.
    """
    q, p = qp
    q1, p1 = q1p1
    g = F.grid
    alpha = _alpha_value(alpha)
    q1c, p1c = conjugate(q1), conjugate(p1)
    if not (1 <= p1c < p <= INF):
        raise PreconditionError(f"need 1 <= p1' < p <= inf, got p1'={p1c}, p={p}")
    if not (1 < q1c < q < INF):
        raise PreconditionError(f"need 1 < q1' < q < inf, got q1'={q1c}, q={q}")
    target = s / (2 * alpha) if kind == "sobolev" else 0.0
    res = check_scaling_relation(q, p, q1, p1, alpha, g.n)
    if abs(res - target) > 1e-9:
        raise PreconditionError(
            f"scaling relation residual {res:.3e} != {target:.3e} "
            f"for exponents (q,p)=({q},{p}), (q1,p1)=({q1},{p1})"
        )
    num_kind = "lebesgue" if kind in ("lebesgue", "sobolev") else "besov"
    den_spec = NormSpec(kind, p=p1c, s=s)
    denom = mixed_norm(F, q1c, den_spec)
    if denom == 0.0:
        raise PreconditionError("zero forcing: ratio undefined")
    sol = duhamel(F, F.times, alpha)
    num_spec = NormSpec(num_kind, p=p, s=s)
    num = mixed_norm(sol, q, num_spec)
    return num / denom


def parabolic_ratio(
    f: Field,
    p: float,
    alpha: float,
    form: str = "b",
    s_min: float = 1e-6,
    s_max: float = 8.0,
    ratio: float = 1.25,
    r: float | None = None,
    T: float | None = None,
    report_truncation: bool = False,
):
    """Weighted-in-time square (or r-th power) mixed norm of the free flow.

    form='b' (n = 2*alpha, p > 2): ( int s^(-2/p) ||e^(-s L) f||_p^2 ds )^(1/2)
    over ||f||_2, integrated on a geometric grid refined toward s = 0 with an
    analytic head correction below s_min.  form='a' (n < 2*alpha, finite T):
    int_0^T s^(-n r/(2 p alpha)) ||e^(-s L) f||_p^r ds over
    T^(1 - n/(2 alpha)) ||f||_r^r.  The flow's norms equal the per-time
    norms lp_norm(apply_semigroup(f, s, alpha), p) bit for bit.
    """
    g = f.grid
    alpha = _alpha_value(alpha)
    if form == "b":
        if abs(g.n - 2 * alpha) > 1e-12:
            raise PreconditionError(
                f"b-form requires n = 2*alpha, got n={g.n}, alpha={alpha}"
            )
        if not p > 2:
            raise PreconditionError(f"b-form requires 2 < p <= inf, got p={p}")
        if not s_min < s_max < INF:
            raise PreconditionError(f"s_max = {s_max}: b-form needs s_min < s_max < inf")
        ss = geometric_times(s_min, s_max, ratio=ratio)
        vals = lp_norms(semigroup_series(f, ss, alpha), p)
        w = 2.0 / p if p != INF else 0.0
        integrand = ss ** (-w) * vals**2
        # head: ||e^{-sL}f||_p ~ ||f||_p below s_min, integrable weight
        head = s_min ** (1 - w) / (1 - w) * lp_norm(f, p) ** 2
        total = head + float(np.trapezoid(integrand, ss))
        value = math.sqrt(total) / lp_norm(f, 2)
        if report_truncation:
            head_err = s_min ** (1 - w) / (1 - w) * abs(
                lp_norm(f, p) ** 2 - vals[0] ** 2
            )
            tail_est = float(integrand[-1] * ss[-1])
            return value, head_err / max(total, 1e-300), tail_est / max(total, 1e-300)
        return value
    if form == "a":
        if not g.n < 2 * alpha:
            raise PreconditionError(
                f"a-form requires n < 2*alpha, got n={g.n}, alpha={alpha}"
            )
        if r is None or T is None:
            raise PreconditionError("a-form needs both r and T")
        if not (1 <= r <= p):
            raise PreconditionError(f"a-form requires 1 <= r <= p, got r={r}, p={p}")
        e0 = g.n * r / (2 * p * alpha) if p != INF else 0.0
        ss = geometric_times(min(s_min, T * 1e-6), T, ratio=ratio)
        vals = lp_norms(semigroup_series(f, ss, alpha), p)
        integrand = ss ** (-e0) * vals**r
        head = ss[0] ** (1 - e0) / (1 - e0) * lp_norm(f, p) ** r
        total = head + float(np.trapezoid(integrand, ss))
        denom = T ** (1 - g.n / (2 * alpha)) * lp_norm(f, r) ** r
        return total / denom
    raise PreconditionError(f"unknown parabolic form {form!r}")


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
    gradient variant.  The contamination diagnostic is evaluated on the
    input data; it must be below 1e-6 for the whole-space reading of the
    fit to be trusted.  Like `parabolic_ratio`, the plain fit equals the
    per-time norms bit for bit.
    """
    if not (1 <= r <= p):
        raise PreconditionError(f"decay fit requires 1 <= r <= p, got r={r}, p={p}")
    g = f.grid
    alpha = _alpha_value(alpha)
    cont = contamination(f)
    if cont >= 1e-6:
        raise ContaminationError(
            f"data mass outside the central half-box is {cont:.3e} >= 1e-6"
        )
    times = np.asarray(times, dtype=float)
    u = semigroup_series(f, times, alpha)
    if gradient:  # d_j u of each component, before the grid axes; its L^p is of |grad u|
        xi = [_half(x, g) for x in g.deriv_frequencies]
        grad = np.stack([u.data * (1j * x) for x in xi], axis=-g.n - 1)
        grad = grad.reshape(*grad.shape[: u.parts], -1, *grad.shape[-g.n :])  # parts stay on axis 1
        u = TimeSeries.from_data(g, times, grad, SPECTRAL, parts=u.parts)
    vals = lp_norms(u, p)
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
    symbols exp(-t lam) are stacked and inverse-transformed a sample chunk at
    a time.  The whole-space validity check applies at the largest time only:
    small-t kernels are near-deltas whose ringing is harmless to L^r."""
    lam = _half(grid.abs_freq, grid) ** (2 * alpha)
    sym = np.empty((len(ts), *lam.shape))
    for out, t in zip(sym, ts):
        np.exp(-t * lam, out=out)
    vals = []
    for chunk in sample_chunks(sym, grid):
        K = TimeSeries.from_data(grid, ts[chunk], kernel_data(sym[chunk], grid), PHYSICAL)
        vals.append(lp_norms(K, r))
    require_contained_kernel(Field(grid, K.data[-1]), ts[-1], alpha)
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
    quadrature runs on a geometric grid from t_min with a head correction
    that extrapolates the measured power law of ||K_t||_r below t_min; the
    exponent is fitted by evaluating at T and 2T.
    """
    alpha = _alpha_value(alpha)
    if not 0 < T < INF:
        raise PreconditionError(f"kernel norm end time T={T} must be positive and finite")
    w = (n * h / (2 * alpha)) * (1 - _inv(r)) if h != INF else INF
    if not w < 1:
        raise PreconditionError(
            f"kernel norm window (n h / 2a)(1 - 1/r) = {w} must be < 1"
        )
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
        head = vals[0] ** h * ts[0] / (1 + h * sig)
        return (head + float(np.trapezoid(vals**h, ts))) ** (1.0 / h)

    m1, m2 = mnorm(T), mnorm(2 * T)
    fitted = math.log2(m2 / m1)
    predicted = _inv(h) - (n / (2 * alpha)) * (1 - _inv(r))
    return KernelNormFit(m1, fitted, predicted, w)


def besov_embedding_ratio(f: Field, p: float) -> float:
    """Homogeneous Besov norm at the critical order s = (2-p) n / (2p) over ||f||_2."""
    if not p > 2:
        raise PreconditionError(f"embedding requires p > 2, got p={p}")
    g = f.grid
    s = (2 - p) * g.n / (2 * p) if p != INF else -g.n / 2
    denom = lp_norm(f, 2)
    if denom == 0.0:
        raise PreconditionError("zero data: ratio undefined")
    return besov_norm(f, s, p, 2.0, homogeneous=True) / denom


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
    verdict: str = ""

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


def _separable_series(grid, f, profile, times) -> TimeSeries:
    """profile(t) * f at each time, in the representation of f, a Field or
    a one-sample series."""
    u = f if isinstance(f, TimeSeries) else as_series(f)
    amp = np.array([profile(t) for t in times]).reshape((-1,) + (1,) * (u.data.ndim - 1))
    return TimeSeries.from_data(grid, times, amp * u.data[0], u.representation, parts=u.parts)


def dilation_sweep(
    recipe,
    grid: GridSpec,
    lambdas,
    estimate_id: str,
    params: dict,
    drift_tol: float | None = None,
) -> RatioReport:
    """Evaluate one estimate's ratio across parabolically matched dilations.

    Every dilation level is synthesized analytically from the recipe; its
    contamination must stay below 1e-6 and its spectral content must stay
    clear of the Nyquist edge, otherwise the sweep aborts.  max_drift is
    max over lambda of |ratio(lambda) / ratio(1) - 1|.
    """
    if not hasattr(recipe, "dilated"):
        raise PreconditionError(
            f"recipe {type(recipe).__name__} does not support analytic dilation"
        )
    alpha = _alpha_value(params["alpha"])
    ratios, contams = [], []
    for lam in lambdas:
        f = synthesize_field(grid, recipe.dilated(lam))
        con = contamination(f)
        if con >= 1e-6:
            raise ContaminationError(
                f"dilation lambda={lam}: contamination {con:.3e} >= 1e-6"
            )
        # the level's one series and its spectrum, shared by the Nyquist gate,
        # the ratio's denominator and the evolution
        u = as_series(f)
        uh = u.to_spectral()
        if _nyquist_tail(uh) >= 1e-3:
            raise PreconditionError(
                f"dilation lambda={lam}: spectral content at the Nyquist edge"
            )
        tscale = lam ** (-2 * alpha)
        if estimate_id in ("homogeneous", "bmo_endpoint"):
            kind = params.get("kind", "lebesgue")
            if estimate_id == "bmo_endpoint":
                kind = "bmo"
            T = params["T"] * tscale
            times = params["times"] * tscale if params.get("times") is not None else None
            val = _homogeneous_ratio(
                u, uh, params["q"], params["p"], alpha, T, times, kind, params.get("s", 0.0)
            )
        elif estimate_id == "inhomogeneous":
            times = params["times"] * tscale
            profile = params["profile"]
            F = _separable_series(grid, u, lambda t: profile(t / tscale), times)
            val = inhomogeneous_ratio(
                F,
                (params["q"], params["p"]),
                (params["q1"], params["p1"]),
                alpha,
                kind=params.get("kind", "lebesgue"),
                s=params.get("s", 0.0),
            )
        elif estimate_id == "parabolic":
            val = parabolic_ratio(
                f,
                params["p"],
                alpha,
                form="b",
                s_min=params["s_min"] * tscale,
                s_max=params["s_max"] * tscale,
            )
        elif estimate_id == "besov_embedding":
            val = besov_embedding_ratio(f, params["p"])
        else:
            raise PreconditionError(f"unknown estimate id {estimate_id!r}")
        ratios.append(float(val))
        contams.append(float(con))
    base = ratios[lambdas.index(1) if 1 in list(lambdas) else 0]
    max_drift = max(abs(rho / base - 1.0) for rho in ratios)
    verdict = ""
    if drift_tol is not None:
        verdict = "pass" if max_drift < drift_tol else "fail"
    return RatioReport(
        estimate_id=estimate_id,
        params={k: v for k, v in params.items() if k != "times"},
        lambdas=list(lambdas),
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
    cfg = DECAY_BATTERY[(n, alpha, r, p)]
    grid = GridSpec(n=n, N=cfg["N"], L=cfg["L"])
    f = synthesize_field(grid, cfg["recipe"](grid))
    lo, hi, m = cfg["grad_window"] if gradient else cfg["window"]
    times = np.geomspace(lo, hi, m)
    return decay_fit(f, r, p, alpha, times, gradient=gradient)
