"""Propagator algebra, kernel facts, fractional derivatives, Duhamel quadrature."""

import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import complex_dft

import fracheat.grid
import fracheat.semigroup
from fracheat import (
    ContaminationError,
    Field,
    GaussianBump,
    PlaneWave,
    PreconditionError,
    RandomBandlimited,
    TimeSeries,
    apply_semigroup,
    fractional_derivative,
    inner_product,
    kernel,
    lp_norm,
    make_grid,
    synthesize_field,
)
from fracheat.semigroup import (
    _etd2,
    _march,
    _phi1,
    _phi2,
    _rate,
    _step,
    apply_symbol,
    derivative_symbol,
    duhamel,
    kernel_data,
    semigroup_series,
)
from fracheat import VectorField
from fracheat.grid import uniform_times


def random_field(g, seed, j_max=2):
    return synthesize_field(g, RandomBandlimited(seed=seed, j_min=1, j_max=j_max))


def unchecked_kernel(g, t, alpha):
    """`kernel` without its whole-space gate: one sample of `kernel_data`
    of the symbol exp(-t |xi|^(2 alpha)) on the half lattice."""
    lam = g.abs_freq[..., : g.N // 2 + 1] ** (2 * alpha)
    return Field(g, kernel_data(np.exp(-t * lam)[None], g)[0])


class TestPropagator:
    def test_identity_at_zero_time(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = random_field(g, 0)
        u = apply_semigroup(f, 0.0, 1.3)
        assert np.max(np.abs(u.data - f.data)) < 1e-13

    def test_plane_wave_eigenfunction(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, PlaneWave(k=(2, 1)))
        for alpha in (0.6, 1.0, 1.4):
            u = apply_semigroup(f, 0.3, alpha)
            factor = np.exp(-0.3 * 5 ** alpha)
            assert np.max(np.abs(u.data - factor * f.data)) < 1e-12

    def test_negative_time_rejected(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(PreconditionError):
            apply_semigroup(Field(g, np.zeros(8)), -0.1, 1.0)

    def test_gaussian_closed_form(self):
        # heat flow of exp(-x^2/2) is (1+2t)^(-1/2) exp(-x^2/(2(1+2t)))
        g = make_grid(1, 2048, 40.0)
        x = g.coordinates[0] - g.L / 2
        f = Field(g, np.exp(-(x**2) / 2))
        for t in (0.1, 0.5, 1.0):
            u = apply_semigroup(f, t, 1.0).data.real
            exact = (1 + 2 * t) ** -0.5 * np.exp(-(x**2) / (2 * (1 + 2 * t)))
            sl = slice(g.N // 4, 3 * g.N // 4)
            assert np.max(np.abs(u[sl] - exact[sl])) < 1e-8

    def test_real_preserved(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = random_field(g, 5)
        u = apply_semigroup(f, 0.7, 0.8).to_physical().data
        assert np.max(np.abs(u.imag)) <= 1e-12 * np.max(np.abs(u))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_time_case_of_the_series(self, n):
        """apply_semigroup is the one-time semigroup_series in f's
        representation, with the bits of the full-lattice symbol applied by
        apply_symbol."""
        g = make_grid(n, 16, 2 * np.pi)
        a, b = random_field(g, 1, j_max=1), random_field(g, 2, j_max=1)
        fields = [a, VectorField((a, b)), Field(g, a.data.real + 1j * b.data.real),
                  a.to_spectral()]
        for f in fields:
            for alpha in (0.5, 0.75, 1.0, 1.3):
                for t in (0.0, 1e-3, 0.37, 2.0):
                    got = apply_semigroup(f, t, alpha)
                    u = semigroup_series(f, [t], alpha)
                    u = u if f.representation == "spectral" else u.to_physical()
                    full = apply_symbol(f, np.exp(-t * g.abs_freq ** (2 * alpha)))
                    assert got.representation == f.representation
                    assert np.array_equal(got.data, u.snapshots[0].data)
                    assert np.array_equal(got.data, full.data)

    def test_no_symbol_and_no_symbol_scan(self, call_count):
        g = make_grid(2, 32, 2 * np.pi)
        f = random_field(g, 5)
        count = call_count(fracheat.semigroup, "apply_symbol")
        call_count(fracheat.semigroup, "is_real")  # the symbol's Hermitian check
        apply_semigroup(f, 0.3, 0.8)
        assert count["apply_symbol"] == count["is_real"] == 0


class TestPropagatorAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        N=st.sampled_from([8, 16, 32]),
        L=st.floats(0.5, 50.0),
        s=st.floats(0.0, 2.0),
        t=st.floats(0.0, 2.0),
        seed=st.integers(0, 100),
    )
    def test_semigroup_law(self, n, N, L, s, t, seed):
        g = make_grid(n, N, L)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        two = apply_semigroup(apply_semigroup(f, s, 0.9), t, 0.9)
        one = apply_semigroup(f, s + t, 0.9)
        assert np.max(np.abs(two.data - one.data)) < 1e-12 * np.max(np.abs(f.data))

    def test_self_adjoint(self):
        g = make_grid(2, 32, 2 * np.pi)
        f, h = random_field(g, 1), random_field(g, 2)
        lhs = inner_product(apply_semigroup(f, 0.4, 1.1), h)
        rhs = inner_product(f, apply_semigroup(h, 0.4, 1.1))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_commutes_with_fractional_derivative(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = random_field(g, 3)
        a = fractional_derivative(apply_semigroup(f, 0.2, 0.75), 1.3)
        b = apply_semigroup(fractional_derivative(f, 1.3), 0.2, 0.75)
        assert np.max(np.abs(a.data - b.data)) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(t=st.floats(0.0, 5.0), seed=st.integers(0, 100))
    def test_contractivity(self, t, seed):
        g = make_grid(1, 64, 2 * np.pi)
        f = random_field(g, seed)
        assert lp_norm(apply_semigroup(f, t, 1.2), 2) <= lp_norm(f, 2) * (1 + 1e-12)


class TestKernel:
    def test_unit_mass(self):
        for n, N, alpha, t in ((1, 256, 1.0, 0.05), (2, 128, 1.0, 0.02), (2, 64, 0.75, 1e-7)):
            g = make_grid(n, N, 10.0)
            K = kernel(g, t, alpha)
            assert abs(np.sum(K.data.real) * g.cell_volume - 1.0) < 1e-10

    def test_l2_norm_closed_form(self):
        g = make_grid(2, 128, 10.0)
        t = 0.01
        K = kernel(g, t, 1.0)
        assert abs(lp_norm(K, 2) * np.sqrt(8 * np.pi * t) - 1.0) < 5e-3

    def test_scaling_identity(self):
        # K_t(x) = t^(-n/2a) K_1(t^(-1/2a) x): compare on matched lattices
        for alpha, make in ((1.0, kernel), (0.75, unchecked_kernel)):
            t = 4.0
            s = t ** (1 / (2 * alpha))
            gA = make_grid(1, 1024, 60.0)
            gB = make_grid(1, 1024, 60.0 / s)
            KA = make(gA, t, alpha)
            KB = make(gB, 1.0, alpha)
            lhs = KA.data.real
            rhs = t ** (-1 / (2 * alpha)) * KB.data.real
            assert np.max(np.abs(lhs - rhs)) < 1e-6 * np.max(np.abs(lhs))

    @pytest.mark.parametrize("n, N", [(1, 256), (2, 64), (3, 16)])
    def test_one_sample_case_of_the_stack(self, n, N):
        """kernel is the one-sample kernel_data stack: the row of a stacked
        call at its time, with the bits of the full-lattice symbol."""
        g = make_grid(n, N, 10.0)
        ts = np.array([0.02, 0.05, 0.11])
        for alpha in (0.75, 1.0):
            lam = g.abs_freq ** (2 * alpha)
            stack = kernel_data(np.stack([np.exp(-t * lam)[..., : N // 2 + 1] for t in ts]), g)
            for t, row in zip(ts, stack):
                # the whole-space gate passes for the 1-D heat kernels only
                gated = n == 1 and alpha == 1.0
                K = kernel(g, t, alpha) if gated else unchecked_kernel(g, t, alpha)
                assert np.array_equal(K.data, row)
                assert K.representation == "physical"

    def test_contamination_guard(self):
        g = make_grid(1, 64, 4.0)
        with pytest.raises(ContaminationError):
            kernel(g, 3.0, 1.0)  # kernel wider than the half-box

    def test_nonpositive_time_rejected(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(PreconditionError):
            kernel(g, 0.0, 1.0)

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_non_finite_time_rejected_by_name(self, t):
        # t = inf gave a NaN kernel, which passed the whole-space gate
        with pytest.raises(PreconditionError, match=f"kernel time t={t} must be positive"):
            kernel(make_grid(2, 32, 2 * np.pi), t, 1.0)


class TestFractionalDerivative:
    def test_plane_wave_scaling(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, PlaneWave(k=(3, 4)))  # |k| = 5
        for beta in (-0.5, 0.7, 2.0):
            out = fractional_derivative(f, beta)
            assert np.max(np.abs(out.data - 5.0**beta * f.data)) < 1e-11

    def test_zero_order_is_identity(self):
        g = make_grid(1, 32, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.5))
        out = fractional_derivative(f, 0.0)
        assert np.max(np.abs(out.data - f.data)) < 1e-13

    def test_composition(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = random_field(g, 9)
        once = fractional_derivative(f, 2.0)
        twice = fractional_derivative(fractional_derivative(f, 1.0), 1.0)
        assert np.max(np.abs(once.data - twice.data)) < 1e-12

    def test_negative_order_needs_zero_mean(self):
        g = make_grid(1, 32, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.5))  # positive mass
        with pytest.raises(PreconditionError):
            fractional_derivative(f, -1.0)

    def test_inhomogeneous_symbol(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, PlaneWave(k=(1, 2)))
        out = apply_symbol(f, derivative_symbol(g, 1.5, "inhomogeneous"))
        assert np.max(np.abs(out.data - (1 + 5) ** 0.75 * f.data)) < 1e-12


class TestDuhamel:
    def test_one_sample_forcing_rejected(self):
        g = make_grid(1, 8, 2 * np.pi)
        F = TimeSeries(np.array([0.0]), [Field(g, np.ones(8))])
        with pytest.raises(PreconditionError, match="forcing series needs at least two samples"):
            duhamel(F, [0.0], 1.0)

    def test_zero_forcing(self):
        g = make_grid(1, 16, 2 * np.pi)
        times = np.linspace(0, 1, 5)
        F = TimeSeries(times, [Field(g, np.zeros(16)) for _ in times])
        out = duhamel(F, [0.3, 1.0], 1.0)
        for s in out.snapshots:
            assert np.max(np.abs(s.data)) == 0.0

    def test_constant_mode(self):
        g = make_grid(1, 8, 2 * np.pi)
        pw = synthesize_field(g, PlaneWave(k=(2,)))
        times = np.linspace(0, 1, 9)
        F = TimeSeries(times, [pw] * len(times))
        out = duhamel(F, [0.5, 1.0], 1.0)
        mu = 2.0**2
        for i, t in enumerate((0.5, 1.0)):
            expect = (1 - np.exp(-mu * t)) / mu
            got = out.snapshots[i].to_physical().data / pw.data
            assert np.max(np.abs(got - expect)) < 1e-10

    def test_linear_forcing_is_exact(self):
        # the integrating-factor rule reproduces linear-in-s forcing exactly
        g = make_grid(1, 8, 2 * np.pi)
        pw = synthesize_field(g, PlaneWave(k=(2,)))
        mu = 4.0
        times = np.linspace(0, 1, 17)
        F = TimeSeries(times, [Field(g, s * pw.data) for s in times])
        out = duhamel(F, [1.0], 1.0)
        expect = 1.0 / mu - (1 - np.exp(-mu)) / mu**2
        got = out.snapshots[0].to_physical().data / pw.data
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_second_order_convergence(self):
        # smooth (sine) forcing: halving the step divides the error by ~4
        g = make_grid(1, 8, 2 * np.pi)
        pw = synthesize_field(g, PlaneWave(k=(2,)))
        mu = 4.0

        def err(M):
            times = np.linspace(0, 1, M + 1)
            F = TimeSeries(times, [Field(g, np.sin(3 * s) * pw.data) for s in times])
            out = duhamel(F, [1.0], 1.0).snapshots[0].to_physical().data / pw.data
            ss = np.linspace(0, 1, 20001)
            exact = np.trapezoid(np.exp(-mu * (1 - ss)) * np.sin(3 * ss), ss)
            return np.max(np.abs(out - exact))

        ratio = err(16) / err(32)
        assert 3.5 < ratio < 4.5

    def test_coverage_check(self):
        g = make_grid(1, 8, 2 * np.pi)
        times = np.linspace(0, 1, 5)
        F = TimeSeries(times, [Field(g, np.zeros(8)) for _ in times])
        with pytest.raises(PreconditionError):
            duhamel(F, [1.5], 1.0)
        shifted = TimeSeries(times + 0.5, [Field(g, np.zeros(8)) for _ in times])
        with pytest.raises(PreconditionError):
            duhamel(shifted, [0.7], 1.0)

    def test_eval_inside_intervals(self):
        g = make_grid(1, 8, 2 * np.pi)
        pw = synthesize_field(g, PlaneWave(k=(1,)))
        times = np.linspace(0, 1, 5)
        F = TimeSeries(times, [pw] * len(times))
        out = duhamel(F, [0.1, 0.3, 0.625], 0.5)
        for t, s in zip(out.times, out.snapshots):
            expect = 1 - np.exp(-t)
            got = s.to_physical().data / pw.data
            assert np.max(np.abs(got - expect)) < 1e-12


def test_alpha_must_be_positive_and_finite():
    g = make_grid(2, 32, 2 * np.pi)
    f = random_field(g, 17)
    F = semigroup_series(f, [0.0, 0.1], 1.0)
    # an alpha whose rate |xi|^(2 alpha) overflows made exp(-0 * inf) a NaN sample at t = 0
    bad = [(a, " must be positive") for a in (0.0, -1.0, float("nan"), float("inf"))]
    for alpha, named in bad + [(300.0, ": the rate"), (1e6, ": the rate")]:
        for call in (
            lambda: semigroup_series(f, [0.0, 0.1], alpha),
            lambda: duhamel(F, [0.1], alpha),
            lambda: apply_semigroup(f, 0.3, alpha),
        ):
            with pytest.raises(PreconditionError, match=f"alpha={alpha}{named}"):
                call()


def test_semigroup_series_matches_pointwise():
    g = make_grid(1, 64, 2 * np.pi)
    f = random_field(g, 21)
    ts = np.array([0.0, 0.2, 0.9])
    series = semigroup_series(f, ts, 1.1)
    for t, snap in zip(ts, series.snapshots):
        direct = apply_semigroup(f, t, 1.1)
        assert np.max(np.abs(snap.to_physical().data - direct.data)) < 1e-13


def test_vector_series_match_components_bitwise():
    g = make_grid(2, 32, 2 * np.pi)
    comps = [random_field(g, seed) for seed in (3, 4)]
    times = uniform_times(0.5, 8)
    t_eval = [0.0, 0.1, 0.26, 0.5]
    free = semigroup_series(VectorField(tuple(comps)), times, 1.0)
    duh = duhamel(free, t_eval, 1.0)
    for c, comp in enumerate(comps):
        free_c = semigroup_series(comp, times, 1.0)
        assert np.array_equal(free.data[:, c], free_c.data)
        assert np.array_equal(duh.data[:, c], duhamel(free_c, t_eval, 1.0).data)


def _phi2_exact(z: float) -> float:
    """(e^z - 1 - z)/z^2 = sum_k z^k/(k+2)! in exact rational arithmetic."""
    zf, term, total, k = Fraction(z), Fraction(1, 2), Fraction(0), 0
    while abs(term) > Fraction(1, 10**30):
        total += term
        k += 1
        term = term * zf / (k + 2)
    return float(total)


def test_phi2_matches_exact_series():
    # expm1(z) - z cancels for small |z|: the closed form alone is off by
    # about 2 eps/|z| there (1e-11 near |z| = 1e-5)
    zs = np.concatenate([-np.logspace(-7, 0, 300), [-1.0001e-5, -1e-5, -0.05]])
    got = _phi2(zs)
    ref = np.array([_phi2_exact(float(z)) for z in zs])
    assert np.max(np.abs(got - ref) / ref) <= 1e-14


def test_duhamel_reuses_coefficients_per_step():
    # uneven steps exercise several cached step sizes; the march must equal
    # the step-by-step ETD2 update
    g = make_grid(1, 16, 2 * np.pi)
    times = np.array([0.0, 0.1, 0.2, 0.35, 0.5, 0.6, 0.75])
    rng = np.random.default_rng(4)
    Fhat = rng.standard_normal((len(times), 9)) + 1j * rng.standard_normal((len(times), 9))
    F = TimeSeries.from_data(g, times, Fhat)  # half spectra, stored as given
    lam = g.abs_freq[:9] ** 2
    I = np.zeros(9, complex)
    expected = [I]
    for i in range(len(times) - 1):
        h = times[i + 1] - times[i]
        z = -lam * h
        p1, p2 = _phi1(z), _phi2(z)
        I = np.exp(z) * I + h * (Fhat[i] * (p1 - p2) + Fhat[i + 1] * p2)
        expected.append(I)
    got = duhamel(F, times, 1.0).data
    assert np.array_equal(got, np.array(expected))


@pytest.mark.parametrize("off_sample", [False, True])
def test_duhamel_derives_coefficients_once_per_step_size(call_count, off_sample):
    # np.linspace(0, 0.05, 49) has 7 distinct steps in 25 runs: a step
    # size's coefficients are kept up to its last whole step, and each
    # off-sample entry derives the coefficients of its partial step
    g = make_grid(2, 16, 2 * np.pi)
    times = np.linspace(0, 0.05, 49)
    F = TimeSeries.from_data(g, times, np.ones((49, 16, 9), complex))
    t_eval = (times[:-1] + times[1:]) / 2 if off_sample else times
    calls = call_count(fracheat.semigroup, "_etd2")
    duhamel(F, t_eval, 1.0)
    distinct = len(set(np.diff(times)))
    assert distinct == 7
    assert calls["_etd2"] == (distinct + len(t_eval) if off_sample else distinct)


@pytest.mark.parametrize(
    "times, t_eval",
    [
        (np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 59)]), None),  # 59 distinct steps
        (np.linspace(0, 1, 17), (np.arange(200) + 0.5) / 200),  # 200 partial steps
    ],
    ids=["geometric", "off_sample"],
)
def test_duhamel_holds_few_coefficient_blocks(traced_peak, times, t_eval):
    # an (E, A, B) block is 195 KiB at 128^2; with every block kept for the
    # whole march the peak sat 12.5 and 14.7 MiB above the output
    g = make_grid(2, 128, 2 * np.pi)
    F = TimeSeries.from_data(g, times, np.ones((len(times), 128, 65), complex))
    t_eval = times if t_eval is None else t_eval
    output = len(t_eval) * 128 * 65 * 16
    assert traced_peak(lambda: duhamel(F, t_eval, 1.0)) - output < 2 * 2**20


@pytest.mark.parametrize("representation", ["spectral", "physical"])
def test_duhamel_equals_step_by_step_etd2_at_every_eval_time(representation):
    # a 2-vector forcing on uneven steps, read at 0, at samples, between
    # samples, at the last sample, and twice within 1e-15 of the sample 0.2:
    # each entry must get the bits of the step-by-step ETD2 update
    g = make_grid(2, 16, 2 * np.pi)
    times = np.array([0.0, 0.1, 0.2, 0.35, 0.5, 0.6, 0.75])
    rng = np.random.default_rng(5)
    shape = (len(times), 2, g.N, g.N // 2 + 1)
    F = TimeSeries.from_data(g, times, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    F = F.to_physical() if representation == "physical" else F
    Fhat = F.to_spectral().data
    t_eval = [0.0, 0.05, 0.1, 0.2, 0.2000000000000001, 0.3, 0.5, 0.55, 0.75]
    lam = g.abs_freq[:, : g.N // 2 + 1] ** 1.6

    def step(I, h, F0, F1):
        z = -lam * h
        p1, p2 = _phi1(z), _phi2(z)
        return np.exp(z) * I + h * (F0 * (p1 - p2) + F1 * p2)

    at_samples = [np.zeros(Fhat.shape[1:], complex)]
    for i in range(len(times) - 1):
        at_samples.append(step(at_samples[-1], times[i + 1] - times[i], Fhat[i], Fhat[i + 1]))
    expected = []
    for t in t_eval:
        i = int(np.searchsorted(times, t + 1e-15, side="right")) - 1
        if t - times[i] > 1e-15:
            w = (t - times[i]) / (times[i + 1] - times[i])
            Ft = (1 - w) * Fhat[i] + w * Fhat[i + 1]
            expected.append(step(at_samples[i], t - times[i], Fhat[i], Ft))
        else:
            expected.append(at_samples[i])
    out = duhamel(F, t_eval, 0.8)
    assert np.array_equal(out.times, t_eval)
    assert np.array_equal(out.data, np.array(expected))


@pytest.mark.parametrize("t_eval", [[0.3, 0.1], [0.1, 0.1, 0.3], [0.0, float("nan")]])
def test_duhamel_eval_times_checked_before_any_step(monkeypatch, t_eval):
    # an unsorted, repeated or non-finite t_eval is rejected before the march
    # computes a single ETD2 coefficient, not by the output series after it
    g = make_grid(1, 32, 2 * np.pi)
    F = semigroup_series(random_field(g, 8), [0.0, 0.2, 0.4], 1.0)

    def no_step(z):
        raise AssertionError("ETD2 coefficient computed")

    monkeypatch.setattr(fracheat.semigroup, "_phi1", no_step)
    named = "must be finite" if np.isnan(t_eval).any() else "must be strictly increasing"
    with pytest.raises(PreconditionError, match=f"t_eval {named}"):
        duhamel(F, t_eval, 1.0)


def test_duhamel_empty_eval_times_rejected_by_name():
    # numpy's min over no entries raised ValueError in the coverage check
    g = make_grid(1, 32, 2 * np.pi)
    F = semigroup_series(random_field(g, 8), [0.0, 0.2, 0.4], 1.0)
    with pytest.raises(PreconditionError, match="t_eval must hold at least one time"):
        duhamel(F, [], 1.0)


def test_duhamel_eval_time_within_coverage_past_last_sample():
    # the coverage check admits t_eval up to 1e-12 past the last sample,
    # which gets the integral at that sample
    g = make_grid(1, 32, 2 * np.pi)
    F = semigroup_series(random_field(g, 8), [0.0, 0.2, 0.4], 1.0)
    out = duhamel(F, [0.1, 0.4 + 5e-13], 1.0)
    assert np.array_equal(out.data[1], duhamel(F, [0.4], 1.0).data[0])


class TestDuhamelBuffers:
    """The public `duhamel` writes its integral into a new stack and only
    reads the forcing; the private march `_march` handed the chunks of the
    forcing's own stack writes the integral there, with the same bits."""

    def forcing(self, g):
        times = np.array([0.0, 0.1, 0.2, 0.35, 0.5, 0.6, 0.75])  # uneven steps
        rng = np.random.default_rng(11)
        shape = (len(times), 2, g.N, g.N // 2 + 1)
        Fhat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return TimeSeries.from_data(g, times, Fhat)  # half spectra, stored as given

    @pytest.mark.parametrize("representation", ["spectral", "physical"])
    def test_public_duhamel_leaves_the_forcing(self, representation):
        g = make_grid(2, 16, 2 * np.pi)
        F = self.forcing(g)
        F = F.to_physical() if representation == "physical" else F
        before = F.data.copy()
        for t_eval in (F.times, [0.05, 0.3, 0.75]):
            out = duhamel(F, t_eval, 0.8)
            assert np.array_equal(F.data, before)
            assert not np.shares_memory(out.data, F.data)

    @pytest.mark.parametrize("per_chunk", [1, 3, 7])
    def test_in_place_march_equals_public(self, per_chunk):
        # chunks of 1 and 3 samples cross chunk boundaries; 7 is one chunk
        g = make_grid(2, 16, 2 * np.pi)
        F = self.forcing(g)
        want = duhamel(F, F.times, 0.8)
        stack = F.data.copy()
        march = _march(F.times, _rate(g, 0.8))
        for i in range(0, len(stack), per_chunk):
            march(stack[i : i + per_chunk])
        assert np.array_equal(stack, want.data)

    @pytest.mark.parametrize("representation", ["spectral", "physical"])
    def test_chunked_forcing_keeps_the_bits(self, monkeypatch, representation):
        # F's transform and the march cut into chunks of 1 and 3 samples give
        # the one-chunk integrals, at the samples and between them
        g = make_grid(2, 16, 2 * np.pi)
        F = self.forcing(g)
        F = F.to_physical() if representation == "physical" else F
        sample = F.data.itemsize * np.prod(F.data.shape[1:-1]) * g.N  # as `sample_chunks` counts
        for t_eval in (F.times, [0.0, 0.05, 0.1, 0.2, 0.2000000000000001, 0.3, 0.5, 0.55, 0.75]):
            monkeypatch.setattr(fracheat.grid, "CHUNK_BYTES", 1 << 40)
            whole = duhamel(F, t_eval, 0.8).data
            for per_chunk in (1, 3):
                monkeypatch.setattr(fracheat.grid, "CHUNK_BYTES", per_chunk * sample)
                assert np.array_equal(duhamel(F, t_eval, 0.8).data, whole)


class TestMarchOverRuns:
    """`_march` forms each run of equal steps within a chunk at once: on a
    time grid of many runs, cut into chunks that split them, it must give
    the bits of the step-by-step `_step` chain."""

    # np.linspace(0, 0.05, 49) has 7 distinct steps in 25 runs; the
    # geometric tail adds 6 steps of their own sizes
    times = np.concatenate([np.linspace(0, 0.05, 49), 0.05 * np.geomspace(1.2, 3.0, 6)])

    def forcing(self):
        g = make_grid(2, 8, 2 * np.pi)
        rng = np.random.default_rng(12)
        shape = (len(self.times), 2, g.N, g.N // 2 + 1)
        return g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def chain(self, Fhat, lam):
        """The integrals at the samples, one `_step` at a time."""
        out = [np.zeros_like(Fhat[0])]
        for i, h in enumerate(np.diff(self.times)):
            out.append(_step(out[-1], h, Fhat[i], Fhat[i + 1], _etd2(lam, h)))
        return np.array(out)

    @pytest.mark.parametrize("per_chunk", [1, 3, 7, None], ids=["1", "3", "7", "whole"])
    @pytest.mark.parametrize("per_run", [1, 3, None], ids=["1", "3", "whole"])
    def test_equals_step_by_step_chain(self, monkeypatch, per_chunk, per_run):
        # per_run: the samples `RUN_BYTES` lets a run form at once
        g, Fhat = self.forcing()
        if per_run:
            monkeypatch.setattr(fracheat.semigroup, "RUN_BYTES", per_run * Fhat[0].nbytes)
        lam = _rate(g, 0.8)
        want = self.chain(Fhat, lam)
        stack = Fhat.copy()
        march = _march(self.times, lam)
        per_chunk = per_chunk or len(stack)
        for i in range(0, len(stack), per_chunk):
            march(stack[i : i + per_chunk])
        assert np.array_equal(stack, want)

    def test_coefficients_once_per_step_size(self, call_count):
        g, Fhat = self.forcing()
        calls = call_count(fracheat.semigroup, "_etd2")
        march = _march(self.times, _rate(g, 0.8))
        for i in range(0, len(Fhat), 3):
            march(Fhat[i : i + 3])
        assert calls["_etd2"] == len(set(np.diff(self.times))) == 7 + 6

    def test_coefficients_dropped_after_their_last_step(self, monkeypatch):
        # a step size's block is not alive once the chunk that holds its
        # last step is marched, while the march itself still is
        g, Fhat = self.forcing()
        blocks = {}

        def etd2(lam, h):
            block = _etd2(lam, h)
            blocks[h] = weakref.ref(block[0])
            return block

        monkeypatch.setattr(fracheat.semigroup, "_etd2", etd2)
        steps = np.diff(self.times)
        last = {h: i for i, h in enumerate(steps)}
        march = _march(self.times, _rate(g, 0.8))
        for i in range(0, len(Fhat), 7):
            march(Fhat[i : i + 7])
            done = min(i + 7, len(Fhat)) - 1  # the steps before this sample are marched
            assert all(blocks[h]() is None for h, k in last.items() if k < done)

    def test_writing_into_a_marched_chunk_leaves_the_next(self):
        g, Fhat = self.forcing()
        lam = _rate(g, 0.8)
        want = self.chain(Fhat, lam)
        march = _march(self.times, lam)
        for i in range(0, len(Fhat), 7):
            chunk = Fhat[i : i + 7].copy()
            march(chunk)
            assert np.array_equal(chunk, want[i : i + 7])
            chunk[...] = np.nan  # the caller reuses the chunk's memory


class TestComplexDataAsParts:
    """Complex data runs as its (re, im) parts: each part evolved on its own
    and the two rejoined equal the complex evolution."""

    def data(self):
        g = make_grid(2, 32, 2 * np.pi)
        a, b = random_field(g, 3), random_field(g, 4)
        return g, a, b, Field(g, a.data.real + 1j * b.data.real)

    def test_semigroup_and_duhamel(self):
        g, a, b, f = self.data()
        times = uniform_times(0.2, 6)
        pair = [semigroup_series(w, times, 0.8) for w in (f, a, b)]
        forcing = [TimeSeries(times, [Field(g, (1 + t) * w.data) for t in times])
                   for w in (f, a, b)]
        pair2 = [duhamel(F, times, 0.8) for F in forcing]
        for u, ua, ub in (pair, pair2):
            assert (u.parts, ua.parts, ub.parts) == (2, 1, 1)
            for got, x, y in zip(u.snapshots, ua.snapshots, ub.snapshots):
                want = x.data + 1j * y.data
                assert np.max(np.abs(got.data - want)) <= 1e-15 * np.max(np.abs(want))
        # against the complex transforms on the full lattice
        lam = g.abs_freq**1.6
        for got, t in zip(pair[0].snapshots, times):
            want = complex_dft.forward(f.data, g) * np.exp(-t * lam)
            assert np.max(np.abs(got.data - want)) <= 1e-14 * np.max(np.abs(want))

    def test_field_operators(self):
        g, a, b, f = self.data()
        for op in (
            lambda w: apply_semigroup(w, 0.3, 0.7),
            lambda w: fractional_derivative(w, 0.5),
        ):
            got, x, y = (op(w) for w in (f, a, b))
            want = x.data + 1j * y.data
            assert np.max(np.abs(got.data - want)) <= 1e-15 * np.max(np.abs(want))


def test_apply_symbol_rejects_non_hermitian_symbol():
    # on the half lattice a one-sided symbol would be applied to half the
    # modes and silently mirrored onto the others
    g = make_grid(2, 32, 2 * np.pi)
    f = random_field(g, 5)
    one_sided = (g.frequencies[0] > 0).astype(float)
    with pytest.raises(PreconditionError, match=r"sym\(-k\) = conj\(sym\(k\)\)"):
        apply_symbol(f, one_sided)
    near = 1.0 + 1e-13 * one_sided  # within the 1e-12 tolerance
    assert np.max(np.abs(apply_symbol(f, near).data - f.data)) <= 1e-12
