"""Admissibility arithmetic and the ratio harness on fast unit-scale cases."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import complex_dft

from fracheat import (
    ContaminationError,
    Field,
    GaussianBump,
    PlaneWave,
    PreconditionError,
    RandomBumps,
    Triplet,
    TimeSeries,
    VectorField,
    besov_embedding_ratio,
    check_admissible,
    check_scaling_relation,
    conjugate,
    decay_fit,
    dilation_sweep,
    homogeneous_ratio,
    inhomogeneous_ratio,
    kernel_mixed_norm_fit,
    make_grid,
    parabolic_ratio,
    synthesize_field,
)
from fracheat.grid import RandomBandlimited, WavePackets, geometric_times, uniform_times
from fracheat.norms import lp_norm
import fracheat.grid
from fracheat import estimates
from fracheat.semigroup import apply_semigroup, kernel, kernel_data

INF = float("inf")


def separable_series(f, profile, times):
    """A sweep's separable forcing profile(t) * f on `times`: the series its
    chunks (`estimates._separable_chunks`) make, joined into one."""
    u = fracheat.grid.as_series(f)
    data = np.concatenate([c.data for c in estimates._separable_chunks(u, profile, times)])
    return TimeSeries.from_data(u.grid, times, data, u.representation, u.parts)


class TestAdmissibility:
    def test_conjugate_endpoints(self):
        assert conjugate(1) == INF and conjugate(1.0) == INF
        assert conjugate(INF) == 1.0

    def test_endpoint_triplet_high_dimension(self):
        # (2, 2n/(n-2a), 2) is n/2a-admissible when n > 2a
        n, alpha = 2, 0.5
        sigma = n / (2 * alpha)
        p = 2 * n / (n - 2 * alpha)
        assert abs(check_admissible(Triplet(2, p, 2, sigma))) < 1e-12

    def test_endpoint_triplet_low_dimension(self):
        # (4a/n, inf, 2) is n/2a-admissible when n < 2a
        n, alpha = 1, 1.0
        sigma = n / (2 * alpha)
        assert abs(check_admissible(Triplet(4 * alpha / n, INF, 2, sigma))) < 1e-12

    def test_trivial_triplet(self):
        assert check_admissible(Triplet(INF, 2, 2, 1.7)) == 0.0

    def test_r_above_p_rejected(self):
        with pytest.raises(PreconditionError):
            check_admissible(Triplet(2, 2, 4, 1.0))

    @pytest.mark.parametrize("sigma", [INF, float("nan")])
    @pytest.mark.parametrize("p", [4, 2])
    def test_non_finite_sigma_rejected(self, sigma, p):
        # sigma = inf would give a defect of -inf at p = 4 and nan at p = r = 2
        with pytest.raises(PreconditionError, match=f"scaling weight sigma={sigma}"):
            check_admissible(Triplet(2, p, 2, sigma))

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(0.25, 4.0),
        p=st.floats(2.0, 40.0),
        p1=st.floats(2.0, 40.0),
    )
    def test_admissible_pairs_satisfy_scaling_relation(self, sigma, p, p1):
        # algebraic identity: two sigma-admissible triplets with r = 2
        # always satisfy the inhomogeneous scaling relation exactly
        def q_of(pp):
            val = sigma * (0.5 - 1.0 / pp)
            return INF if val == 0 else 1.0 / val

        q, q1 = q_of(p), q_of(p1)
        if q < 1 or q1 <= 1:
            return
        alpha, n = 1.0, 2 * sigma  # any pair with n/2a = sigma
        res = check_scaling_relation(q, p, q1, p1, alpha, n)
        assert abs(res) < 1e-9


class TestScalingRelation:
    def test_square_symmetric_case(self):
        # n=4, alpha=1: (1/2 - 1/2) + 2(3/4 - 1/4) - 1 = 0
        assert abs(check_scaling_relation(2, 4, 2, 4, 1.0, 4)) < 1e-12

    def test_violation_value(self):
        # same exponent pattern fails when n/2a drops to 1/2
        assert np.isclose(check_scaling_relation(2, INF, 2, INF, 2.0, 2), -0.5)
        # and holds at n/2a = 1 (direct arithmetic)
        assert np.isclose(check_scaling_relation(2, INF, 2, INF, 1.0, 2), 0.0)

    @pytest.mark.parametrize("name", ["q", "p", "q1", "p1"])
    def test_exponents_below_one_rejected_by_name(self, name):
        # q1 = 0.5 gave a residual of -1.75; check_admissible names its q
        exponents = {"q": 4, "p": 4, "q1": 4, "p1": 4, name: 0.5}
        with pytest.raises(PreconditionError, match=f"^{name}=0.5 must be >= 1"):
            check_scaling_relation(**exponents, alpha=1.0, n=2)


class TestHomogeneousRatio:
    def test_plane_wave_closed_form(self):
        g = make_grid(1, 16, 2 * np.pi)
        k, alpha, q, p, T = 2, 1.0, 2.0, 4.0, 1.0
        f = synthesize_field(g, PlaneWave(k=(k,)))
        mu = float(k) ** (2 * alpha)
        times = np.linspace(0, T, 4001)
        got = homogeneous_ratio(f, q, p, alpha, T, times=times)
        expect = (
            g.L ** (1 / p)
            * ((1 - np.exp(-q * T * mu)) / (q * mu)) ** (1 / q)
            / g.L ** (1 / 2)
        )
        assert abs(got / expect - 1) < 1e-6

    def test_zero_field_rejected(self):
        g = make_grid(1, 16, 2 * np.pi)
        with pytest.raises(PreconditionError):
            homogeneous_ratio(Field(g, np.zeros(16)), 2, 4, 1.0, 1.0)

    def test_forbidden_endpoint(self):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.25))
        with pytest.raises(PreconditionError):
            homogeneous_ratio(f, 2, INF, 1.0, 1.0)  # sigma = 1: excluded triplet

    def test_besov_kind_single_shell_closed_form(self):
        # on a single dyadic shell |k| = 4 the propagator is the scalar
        # e^{-16 t} and both Besov norms collapse to single 2^{2s}-weighted
        # blocks, so the ratio reduces to the Lebesgue closed form
        g = make_grid(1, 256, 2 * np.pi)
        rng = np.random.default_rng(3)
        coef = np.zeros(256, dtype=complex)
        coef[4] = rng.standard_normal() + 1j * rng.standard_normal()
        coef[-4] = np.conj(coef[4])
        f = Field(g, np.fft.ifftn(coef), "physical")
        q, p, alpha, T, s = 4.0, 4.0, 1.0, 0.5, -0.3
        times = np.linspace(0, T, 10001)
        got = homogeneous_ratio(f, q, p, alpha, T, times=times, kind="besov", s=s)
        mu = 4.0 ** (2 * alpha)
        from fracheat import lp_norm

        expect = (
            lp_norm(f, p)
            * ((1 - np.exp(-q * T * mu)) / (q * mu)) ** (1 / q)
            / lp_norm(f, 2)
        )
        assert abs(got / expect - 1) < 1e-6

    def test_bmo_requires_matching_dimension(self):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.25))
        with pytest.raises(PreconditionError):
            homogeneous_ratio(f, 2, 2, 0.75, 1.0, kind="bmo")
        with pytest.raises(PreconditionError):
            homogeneous_ratio(f, 4, 2, 1.0, 1.0, kind="bmo")

    def test_horizon_is_the_last_time(self):
        # T was not read when times were given: T = 7.0 gave the ratio of T = 0.05
        g = make_grid(2, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.3))
        with pytest.raises(PreconditionError, match="T=7.0 is not the last of times, 0.05"):
            homogeneous_ratio(f, 4, 4, 1.0, 7.0, times=uniform_times(0.05, 16))

    @pytest.mark.parametrize("kind, q, p", [("lebesgue", 4, 4), ("bmo", 2, 2)])
    def test_s_of_a_kind_that_does_not_read_it_rejected(self, kind, q, p):
        # s = 1 gave the ratio of s = 0
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.25))
        with pytest.raises(PreconditionError, match=f"s=1.0: the {kind} norm does not read s"):
            homogeneous_ratio(f, q, p, 1.0, 0.05, kind=kind, s=1.0)


class TestInhomogeneousRatio:
    @staticmethod
    def _forcing(g, spatial, profile, T, nodes=48):
        times = np.linspace(0, T, nodes + 1)
        return TimeSeries(
            times, [Field(g, profile(t) * spatial.data) for t in times]
        )

    def test_kind_without_a_pairing_rejected_before_any_work(self, fft_count):
        # kind = bmo gave a BMO-over-Besov ratio, no estimate of the paper
        g = make_grid(2, 16, 2 * np.pi)
        F = self._forcing(g, synthesize_field(g, PlaneWave(k=(1, 1))), lambda t: 1.0, 1.0, 4)
        fft_count.clear()
        with pytest.raises(PreconditionError, match="kind 'bmo' is not lebesgue, sobolev or"):
            inhomogeneous_ratio(F, (4, 4), (4, 4), 1.0, kind="bmo")
        assert fft_count["calls"] == 0

    def test_s_of_the_lebesgue_pairing_rejected(self):
        # s = 1 gave the ratio of s = 0; the Sobolev pairing reads it
        g = make_grid(2, 16, 2 * np.pi)
        F = self._forcing(g, synthesize_field(g, PlaneWave(k=(1, 1))), lambda t: 1.0, 1.0, 4)
        with pytest.raises(PreconditionError, match="s=1.0: the lebesgue norm does not read s"):
            inhomogeneous_ratio(F, (4, 4), (4, 4), 1.0, s=1.0)

    def test_zero_forcing_rejected(self):
        g = make_grid(2, 16, 2 * np.pi)
        zero = Field(g, np.zeros(g.shape))
        F = self._forcing(g, zero, lambda t: 1.0, 1.0, nodes=4)
        with pytest.raises(PreconditionError):
            inhomogeneous_ratio(F, (4, 4), (4, 4), 1.0)

    def test_single_mode_constant_forcing(self):
        # oracle: dense scalar quadrature of the closed-form mode integrals
        g = make_grid(2, 16, 2 * np.pi)
        k = (1, 1)
        alpha, q, p = 1.0, 4.0, 4.0
        T = 1.0
        pw = synthesize_field(g, PlaneWave(k=k))
        F = self._forcing(g, pw, lambda t: 1.0, T, nodes=256)
        got = inhomogeneous_ratio(F, (q, p), (4, 4), alpha)
        mu = 2.0
        tt = np.linspace(0, T, 200001)
        duh = (1 - np.exp(-mu * tt)) / mu
        num = np.trapezoid(duh**q, tt) ** (1 / q) * g.L ** (2 / p)
        q1c, p1c = conjugate(4), conjugate(4)
        den = T ** (1 / q1c) * g.L ** (2 / p1c)
        assert abs(got / (num / den) - 1) < 1e-5

    def test_window_violations(self):
        g = make_grid(2, 16, 2 * np.pi)
        pw = synthesize_field(g, PlaneWave(k=(1, 0)))
        F = self._forcing(g, pw, lambda t: 1.0, 1.0, nodes=8)
        with pytest.raises(PreconditionError):
            inhomogeneous_ratio(F, (4, 1.2), (4, 4), 1.0)  # p <= p1'
        with pytest.raises(PreconditionError):
            inhomogeneous_ratio(F, (1.2, 4), (4, 4), 1.0)  # q <= q1'
        with pytest.raises(PreconditionError):
            inhomogeneous_ratio(F, (4, 8), (4, 4), 1.0)  # relation violated

    @pytest.mark.parametrize("q1p1, named", [((0.5, 4), "q1=0.5"), ((4, 0.5), "p1=0.5")])
    def test_forcing_exponent_below_one_rejected_by_name(self, q1p1, named):
        # its conjugate was taken first, which named either exponent p
        g = make_grid(2, 16, 2 * np.pi)
        F = self._forcing(g, synthesize_field(g, PlaneWave(k=(1, 0))), lambda t: 1.0, 1.0, 4)
        with pytest.raises(PreconditionError, match=f"^{named} must be >= 1"):
            inhomogeneous_ratio(F, (4, 4), q1p1, 1.0)

    def test_sobolev_pairing_sweep(self):
        # smoothing pairing at n=2, alpha=1/2: numerator L^2_t L^4_x,
        # denominator L^(q1')_t Hdot^(1/2, p1')_x with (q1', p1') = (1.2, 1.2);
        # the ratio is invariant under the parabolic dilation family
        g = make_grid(2, 128, 2 * np.pi)
        alpha, s_ord = 0.5, 0.5
        T = 0.2
        tau = T / 3
        recipe = RandomBumps(seed=3, width=g.L / 30, spread=g.L / 13, count=4)
        params = {
            "alpha": alpha, "q": 2.0, "p": 4.0, "q1": 6.0, "p1": 6.0,
            "kind": "sobolev", "s": s_ord,
            "T": T, "times": np.linspace(0, T, 49),
            "profile": lambda t, tau=tau: (t / tau) * np.exp(-t / tau),
        }
        rep = dilation_sweep(recipe, g, [1, 2], "inhomogeneous", params,
                             drift_tol=0.01)
        assert rep.verdict == "pass", rep.max_drift
        assert all(np.isfinite(r) and r > 0 for r in rep.ratios)

    def test_sobolev_pairing_relation(self):
        # smoothing pairing: residual must equal s / (2 alpha)
        n, alpha = 2, 0.5
        p = 2 * n / (n - 2 * alpha)
        q = 2.0
        # pick (q1', p1') = (q_th, p_th) with 1/q_th + (n/2a)(1/p_th - 1/2) = 3/2
        p_th = 1.2
        q_th = 1.0 / (1.5 - (n / (2 * alpha)) * (1 / p_th - 0.5))
        assert 1 < q_th < 2
        res = check_scaling_relation(
            q, p, conjugate(q_th), conjugate(p_th), alpha, n
        )
        assert abs(res - alpha / (2 * alpha)) < 1e-12


class TestParabolicRatio:
    @pytest.mark.parametrize("kwargs, named", [
        ({"form": "a"}, "a-form needs both r and T"),
        ({"form": "a", "r": 2.0}, "a-form needs both r and T"),
        ({"form": "a", "r": 5.0, "T": 1.0}, "a-form requires 1 <= r <= p, got r=5.0, p=4.0"),
        ({"form": "c"}, "unknown parabolic form 'c'"),
        ({"form": "a", "r": INF, "T": 1.0}, "a-form requires a finite r, got r=inf"),
    ])
    def test_form_arguments_rejected_by_name(self, kwargs, named):
        g = make_grid(1, 64, 2 * np.pi)  # n = 1 < 2 alpha: the a-form's dimension
        f = synthesize_field(g, GaussianBump(width=0.3))
        with pytest.raises(PreconditionError, match=named):
            parabolic_ratio(f, 4.0, 1.0, **kwargs)

    def test_a_form_infinite_r_rejected_at_infinite_p(self):
        # r = p = inf meets 1 <= r <= p, and the ratio read 1e-06: no r-th power
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.3))
        with pytest.raises(PreconditionError, match="a-form requires a finite r, got r=inf"):
            parabolic_ratio(f, INF, 1.0, form="a", r=INF, T=1.0)

    def test_b_form_stable_under_tail_doubling(self):
        g = make_grid(2, 64, 2 * np.pi)
        f = synthesize_field(
            g, RandomBumps(seed=1, width=g.L / 26, spread=g.L / 20, count=2)
        )
        r1 = parabolic_ratio(f, 4.0, 1.0, s_min=1e-6, s_max=6.0)
        r2 = parabolic_ratio(f, 4.0, 1.0, s_min=1e-6, s_max=12.0)
        assert np.isfinite(r1) and r1 > 0
        assert abs(r2 - r1) < 1e-6 * r1

    def test_b_form_head_error(self):
        # the head takes ||e^{-sL}f||_p as ||f||_p below the first node s_0;
        # the tail is covered by test_b_form_stable_under_tail_doubling
        g = make_grid(2, 64, 2 * np.pi)
        f = synthesize_field(
            g, RandomBumps(seed=2, width=g.L / 26, spread=g.L / 20, count=2)
        )
        val = parabolic_ratio(f, INF, 1.0, s_min=1e-6, s_max=8.0)
        assert np.isfinite(val)
        ss = geometric_times(1e-6, 8.0)
        vals = _norms_per_time(f, ss[:1], 1.0, INF)
        total = (val * lp_norm(f, 2)) ** 2  # the integral, head included
        head_err = ss[0] * abs(lp_norm(f, INF) ** 2 - vals[0] ** 2)  # weight s_0^(1-e), e = 0
        assert head_err < 1e-6 * total

    def test_b_form_rejects_p2_and_wrong_dimension(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.25))
        with pytest.raises(PreconditionError):
            parabolic_ratio(f, 2.0, 1.0)
        with pytest.raises(PreconditionError):
            parabolic_ratio(f, 4.0, 0.75)

    def test_a_form_contractivity_bound(self):
        # r = p = 2, n=1 < 2 alpha: the ratio is below 2a/(2a - n) + quadrature slack
        g = make_grid(1, 512, 40.0)
        f = synthesize_field(g, GaussianBump(width=0.5))
        alpha, T = 1.0, 1.0
        val = parabolic_ratio(f, 2.0, alpha, form="a", r=2.0, T=T)
        bound = 2 * alpha / (2 * alpha - 1)
        assert 0 < val <= bound * 1.01

    def test_a_form_needs_low_dimension(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.25))
        with pytest.raises(PreconditionError):
            parabolic_ratio(f, 2.0, 1.0, form="a", r=2.0, T=1.0)


class TestDecayFit:
    def test_flat_when_r_equals_p(self):
        # pre-asymptotic window: the norm has barely moved, slope ~ 0
        g = make_grid(1, 1024, 64.0)
        f = synthesize_field(g, GaussianBump(width=1.0))
        times = np.geomspace(1e-4, 1e-3, 8)
        fit = decay_fit(f, 2.0, 2.0, 1.0, times)
        assert fit.predicted == 0.0
        assert abs(fit.slope) < 0.02

    def test_unit_case_heat_sup(self):
        g = make_grid(1, 2048, 128.0)
        f = synthesize_field(g, GaussianBump(width=0.35))
        fit = decay_fit(f, 1.0, INF, 1.0, np.geomspace(3.7, 12.25, 12))
        assert abs(fit.slope / fit.predicted - 1) < 0.02
        assert fit.predicted == -0.5

    def test_gradient_variant(self):
        g = make_grid(1, 2048, 128.0)
        f = synthesize_field(g, GaussianBump(width=0.35))
        fit = decay_fit(f, 1.0, INF, 1.0, np.geomspace(3.7, 12.25, 12), gradient=True)
        assert fit.predicted == -1.0
        assert abs(fit.slope / fit.predicted - 1) < 0.02

    def test_contamination_guard(self):
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=g.L / 5))
        with pytest.raises(ContaminationError):
            decay_fit(f, 1.0, 2.0, 1.0, np.geomspace(0.1, 1.0, 5))

    def test_r_p_order(self):
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.2))
        with pytest.raises(PreconditionError):
            decay_fit(f, 4.0, 2.0, 1.0, np.geomspace(0.1, 1.0, 5))

    @pytest.mark.parametrize("times", [[0.1], [0.0, 0.1, 0.2], [-0.1, 0.1]])
    def test_bad_time_grid_rejected_before_the_flow(self, call_count, times):
        # one time gave a silent slope (0.045 for [0.1]); a time at 0 raised
        # numpy's LinAlgError after the whole evolution
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.2))
        calls = call_count(estimates, "_evolved_chunks")
        with pytest.raises(PreconditionError, match="decay fit times must be two or more"):
            decay_fit(f, 1.0, 2.0, 1.0, times)
        assert calls["_evolved_chunks"] == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_data_rejected_before_the_flow(self, call_count, bad):
        # one NaN made the contamination NaN, which passed the whole-space
        # gate, and the fit returned slope NaN
        g = make_grid(2, 32, 2 * np.pi)
        data = synthesize_field(g, GaussianBump(width=g.L / 21)).data.copy()
        data[16, 16] = bad
        calls = call_count(estimates, "_evolved_chunks")
        with pytest.raises(PreconditionError, match="decay fit data holds non-finite values"):
            decay_fit(Field(g, data), 1.0, 2.0, 1.0, np.geomspace(0.01, 0.1, 5))
        assert calls["_evolved_chunks"] == 0

    @pytest.mark.parametrize("case", [(3, 1.0, 1.0, 2.0), (1, 1.0, 1.0, 3.0), (2, 0.5, 1.0, 2.0)])
    def test_case_outside_the_battery_rejected_by_name(self, case):
        # a library caller got KeyError; the CLI alone named the battery
        named = rf"\(n, alpha, r, p\) = \({', '.join(map(str, case))}\) is not in the tuned"
        with pytest.raises(PreconditionError, match=named):
            estimates.run_decay_case(*case)


def _norms_per_time(f, ts, alpha, p):
    """Oracle: propagate, transform and measure one time at a time."""
    return np.array([lp_norm(apply_semigroup(f, t, alpha), p) for t in ts])


class TestOneEvolvedStack:
    """The parabolic and decay fits measure one evolved stack and match the
    per-time oracle."""

    def bumps(self, N):
        g = make_grid(2, N, 2 * np.pi)
        return synthesize_field(
            g, RandomBumps(seed=1, width=g.L / 26, spread=g.L / 20, count=2)
        )

    @pytest.mark.parametrize("p", [4.0, INF])
    def test_b_form_matches_per_time_oracle(self, p):
        f = self.bumps(32)
        ss = geometric_times(1e-6, 6.0, ratio=1.25)
        vals = _norms_per_time(f, ss, 1.0, p)
        w = 2.0 / p if p != INF else 0.0
        head = 1e-6 ** (1 - w) / (1 - w) * lp_norm(f, p) ** 2
        total = head + float(np.trapezoid(ss ** (-w) * vals**2, ss))
        expect = math.sqrt(total) / lp_norm(f, 2)
        assert parabolic_ratio(f, p, 1.0, s_min=1e-6, s_max=6.0) == expect

    def test_a_form_matches_per_time_oracle(self):
        g = make_grid(1, 256, 40.0)
        f = synthesize_field(g, GaussianBump(width=0.5))
        p, r, alpha, T = 4.0, 2.0, 1.0, 0.5
        e0 = r / (2 * p * alpha)
        ss = geometric_times(T * 1e-6, T, ratio=1.25)
        vals = _norms_per_time(f, ss, alpha, p)
        head = ss[0] ** (1 - e0) / (1 - e0) * lp_norm(f, p) ** r
        total = head + float(np.trapezoid(ss ** (-e0) * vals**r, ss))
        expect = total / (T ** (1 - 1 / (2 * alpha)) * lp_norm(f, r) ** r)
        assert parabolic_ratio(f, p, alpha, form="a", r=r, T=T) == expect

    @pytest.mark.parametrize("p", [2.0, 3.5, INF])
    def test_decay_fit_matches_per_time_oracle(self, p):
        g = make_grid(2, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=2 * g.spacing))
        times = np.geomspace(0.05, 0.5, 6)
        fit = decay_fit(f, 1.0, p, 1.0, times)
        assert np.array_equal(fit.norms, _norms_per_time(f, times, 1.0, p))

    @pytest.mark.parametrize("n, p", [(1, INF), (2, 2.0), (2, 3.5)])
    def test_gradient_decay_fit_measures_gradient_magnitude(self, n, p):
        g = make_grid(n, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=2 * g.spacing))
        times = np.geomspace(0.05, 0.5, 6)
        fit = decay_fit(f, 1.0, p, 1.0, times, gradient=True)
        for t, got in zip(times, fit.norms):
            u = apply_semigroup(f, t, 1.0)
            parts = [complex_dft.derivative(u.to_physical().data, g, j) for j in range(n)]
            mag = Field(g, np.sqrt(sum(np.abs(d) ** 2 for d in parts)))
            assert abs(got - lp_norm(mag, p)) <= 1e-12 * got

    def test_b_form_forward_transforms_do_not_grow_with_nodes(self, fft_count):
        f = self.bumps(32)
        forward = []
        for s_min in (1e-6, 1e-12):  # 71 and 133 quadrature nodes
            fft_count.clear()
            parabolic_ratio(f, 4.0, 1.0, s_min=s_min, s_max=6.0)
            forward.append(fft_count["rfftn"])
        assert forward == [1, 1]  # f itself, once


def kernel_norms_per_time(grid, ts, alpha, r):
    """lp_norm of the kernel at each time of `ts`, one at a time, with the
    whole-space gate at the last time only: `kernel` there, and before it
    the one sample of `kernel_data` that `kernel` is without its gate."""
    lam = grid.abs_freq[..., : grid.N // 2 + 1] ** (2 * alpha)
    raw = [Field(grid, kernel_data(np.exp(-t * lam)[None], grid)[0]) for t in ts[:-1]]
    return np.array([lp_norm(K, r) for K in (*raw, kernel(grid, ts[-1], alpha))])


@pytest.mark.parametrize("scale, p, named", [
    (1.0, 2.0, "embedding requires p > 2, got p=2.0"),
    (1.0, 1.5, "embedding requires p > 2"),
    (0.0, 4.0, "zero data: ratio undefined"),
])
def test_besov_embedding_rejected_by_name(scale, p, named):
    g = make_grid(2, 64, 2 * np.pi)
    f = synthesize_field(g, RandomBumps(seed=5, width=g.L / 26, spread=g.L / 20, count=2))
    with pytest.raises(PreconditionError, match=named):
        besov_embedding_ratio(Field(g, scale * f.data), p)


@pytest.mark.parametrize("ratio, args, kwargs, named", [
    (homogeneous_ratio, (0.5, 4.0, 1.0, 0.05), {}, "time exponent q=0.5 must be >= 1"),
    (parabolic_ratio, (4.0, 1.0), {"s_min": 0.0}, "geometric time grid needs 0 < t_min"),
    (besov_embedding_ratio, (2.0,), {}, "embedding requires p > 2"),
])
def test_public_ratio_rejects_before_reading_the_field(
    fft_count, call_count, ratio, args, kwargs, named
):
    # each scanned and transformed its Field before checking its arguments
    g = make_grid(2, 64, 2 * np.pi)
    f = synthesize_field(g, GaussianBump(width=g.L / 21))
    fft_count.clear()
    reads = call_count(fracheat.grid, "is_real")
    with pytest.raises(PreconditionError, match=named):
        ratio(f, *args, **kwargs)
    assert fft_count["rfftn"] == 0 and reads["is_real"] == 0


class TestKernelNormFit:
    def test_grid_of_another_dimension_rejected(self):
        with pytest.raises(PreconditionError, match="grid dimension does not match n"):
            kernel_mixed_norm_fit(1.0, 1.0, 2.0, 0.03, 2, grid=make_grid(1, 64, 10.0))

    def test_positive_kernel_r1(self):
        # r=1, alpha=1: ||K_t||_1 = 1, so the norm is T^(1/h) up to quadrature
        fit = kernel_mixed_norm_fit(
            1.0, 1.0, 1.0, 0.03, 2, grid=make_grid(2, 128, 10.0), t_min=0.004
        )
        assert abs(fit.fitted_exponent - 1.0) < 1e-3
        assert abs(fit.norm_T - 0.03) < 1e-4

    def test_window_violation(self):
        with pytest.raises(PreconditionError):
            kernel_mixed_norm_fit(1.0, 2.0, 4.0, 0.03, 2)  # window value 1.5 >= 1

    @pytest.mark.parametrize("h, r, named", [
        (0.0, 2.0, "h=0.0"), (-1.0, 2.0, "h=-1.0"), (0.5, 2.0, "h=0.5"),
        (float("nan"), 2.0, "h=nan"), (1.0, 0.5, "r=0.5"), (1.0, -2.0, "r=-2.0"),
    ])
    def test_exponents_below_one_rejected(self, h, r, named):
        # h = 0 divided by zero and h < 0 passed the window check (w < 0)
        with pytest.raises(PreconditionError, match=f"{named} must be >= 1"):
            kernel_mixed_norm_fit(1.0, h, r, 0.03, 2)

    @pytest.mark.parametrize("T", [INF, float("nan"), 0.0, -1.0])
    def test_end_time_rejected_by_name(self, T):
        with pytest.raises(PreconditionError, match=f"T={T} must be positive and finite"):
            kernel_mixed_norm_fit(1.0, 1.0, 2.0, T, 2)

    @pytest.mark.parametrize("n, N, L, alpha, r", [
        (1, 256, 10.0, 1, 1.5),
        (2, 128, 10.0, 1.0, 2.0),
        (2, 64, 8.0, 1.0, INF),
    ])
    def test_stacked_kernel_norms_equal_per_time(self, fft_count, n, N, L, alpha, r):
        g = make_grid(n, N, L)
        ts = geometric_times(0.002, 0.05, ratio=1.25)
        fft_count.clear()
        got = estimates._kernel_norms(g, ts, alpha, r)
        stacked = fft_count["irfftn"]
        want = kernel_norms_per_time(g, ts, alpha, r)
        assert got.tolist() == want.tolist()
        assert 1 <= stacked < len(ts)  # one transform per sample chunk

    def test_fit_equals_per_time_oracle(self, monkeypatch):
        args = (1.0, 1.5, 2.0, 0.03, 2)
        got = kernel_mixed_norm_fit(*args)

        monkeypatch.setattr(estimates, "_kernel_norms", kernel_norms_per_time)
        assert got == kernel_mixed_norm_fit(*args)

    def test_contamination_checked_at_largest_time(self):
        g = make_grid(2, 64, 2.0)
        ts = geometric_times(0.001, 0.5, ratio=1.25)
        with pytest.raises(ContaminationError):
            kernel(g, ts[-1], 1.0)
        with pytest.raises(ContaminationError):
            estimates._kernel_norms(g, ts, 1.0, 2.0)


class TestDilationSweep:
    def test_no_lambdas_rejected_before_any_level(self, call_count):
        # an empty family raised IndexError at ratios[0]
        g = make_grid(2, 64, 2 * np.pi)
        calls = call_count(estimates, "synthesize_field")
        with pytest.raises(PreconditionError, match="lambdas"):
            dilation_sweep(GaussianBump(width=g.L / 21), g, [], "homogeneous",
                           {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05})
        assert calls["synthesize_field"] == 0

    HOM = {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05}
    INH = {"alpha": 1.0, "q": 4.0, "p": 4.0, "q1": 4.0, "p1": 4.0,
           "times": uniform_times(0.05, 8), "profile": lambda t: 1.0 + t}

    @pytest.mark.parametrize("lambdas, estimate_id, params, named", [
        # lambda = -1 mirrored the field: drift 0 at alpha = 1, TypeError at 0.75
        ([1, -1], "homogeneous", HOM, r"lambdas\[1\]=-1 must be positive and finite"),
        ([1, -1], "homogeneous", {**HOM, "alpha": 0.75},
         r"lambdas\[1\]=-1 must be positive and finite"),
        ([0, 1], "homogeneous", HOM, r"lambdas\[0\]=0 must be positive and finite"),
        ([1, INF], "homogeneous", HOM, r"lambdas\[1\]=inf must be positive and finite"),
        ([1, float("nan")], "homogeneous", HOM, r"lambdas\[1\]=nan must be positive"),
        ([1, 2], "homogenous", HOM, "unknown estimate id 'homogenous'"),
        # a misspelt kind ran the Lebesgue ratio; q1 is the inhomogeneous estimate's
        ([1, 2], "homogeneous", {**HOM, "kindd": "bmo"},
         "params kindd: not read by the homogeneous sweep, which reads alpha, p, q, T, times, "
         "kind, s"),
        ([1, 2], "homogeneous", {**HOM, "q1": 4.0}, "params q1: not read by the homogeneous"),
        ([1, 2], "homogeneous", {**HOM, "kindd": "bmo", "q1": 4.0}, "params kindd, q1: not read"),
        # the bmo endpoint replaced a given kind by bmo
        ([1, 2], "bmo_endpoint", {**HOM, "q": 2.0, "kind": "sobolev"},
         "params kind: not read by the bmo_endpoint sweep"),
        # the Besov embedding has no time axis: s_min was ignored
        ([1, 2], "besov_embedding", {"alpha": 1.0, "p": 4.0, "s_min": 1e-6},
         "params s_min: not read by the besov_embedding sweep, which reads alpha, p$"),
        # the horizon is the end of times: T = 7.0 gave the ratios of T = 0.05
        ([1, 2], "inhomogeneous", {**INH, "T": 7.0},
         "params T=7.0 is not the last of times, 0.05"),
        ([1, 2], "homogeneous", {**HOM, "times": uniform_times(0.1, 8)},
         "params T=0.05 is not the last of times, 0.1"),
        # kind = bmo gave a BMO-over-Besov ratio drifting by 64%
        ([1, 2], "inhomogeneous", {**INH, "kind": "bmo"},
         "kind 'bmo' is not lebesgue, sobolev or besov"),
        # an s that the kind does not read, or an unknown kind, raised after
        # the first level was synthesized
        ([1, 2], "homogeneous", {**HOM, "s": 1.0}, "s=1.0: the lebesgue norm does not read s"),
        ([1, 2], "inhomogeneous", {**INH, "s": 1.0}, "s=1.0: the lebesgue norm does not read s"),
        ([1, 2], "homogeneous", {**HOM, "kind": "lebesgu"}, "unknown norm kind 'lebesgu'"),
        # a missing param raised a bare KeyError, which exits 1 from the CLI
        ([1, 2], "homogeneous", {"alpha": 1.0, "p": 4.0, "T": 0.05},
         "params q: needed by the homogeneous sweep$"),
        ([1, 2], "bmo_endpoint", {"alpha": 1.0, "p": 2.0}, "params q, T: needed"),
        ([1, 2], "inhomogeneous", {k: v for k, v in INH.items() if k != "times"},
         "params times: needed by the inhomogeneous sweep"),
        ([1, 2], "parabolic", {"alpha": 1.0, "p": 4.0, "s_min": 1e-6}, "params s_max: needed"),
        ([1, 2], "besov_embedding", {"p": 4.0}, "params alpha: needed"),
        # the estimate's hypotheses on its exponents were checked at the first level
        ([1, 2], "parabolic", {"alpha": 1.0, "p": 2.0, "s_min": 1e-6, "s_max": 6.0},
         r"b-form requires 2 < p <= inf, got p=2.0"),
        ([1, 2], "besov_embedding", {"alpha": 1.0, "p": 2.0}, "embedding requires p > 2, got p=2.0"),
        ([1, 2], "bmo_endpoint", {**HOM, "alpha": 0.75, "q": 2.0},
         r"bmo endpoint requires n = 2\*alpha, got n=2, alpha=0.75"),
        ([1, 2], "homogeneous", {**HOM, "q": 2.0, "p": INF},
         r"the triplet \(q, p, sigma\) = \(2, inf, 1\) is excluded"),
        ([1, 2], "inhomogeneous", {**INH, "p": 8.0}, "scaling relation .*got residual 1.250e-01"),
        # exponent ranges and time grids were checked after the first level was made
        ([1, 2], "homogeneous", {**HOM, "q": 0.5}, "time exponent q=0.5 must be >= 1"),
        ([1, 2], "homogeneous", {**HOM, "p": 0.5}, "p=0.5 must be >= 1"),
        ([1, 2], "homogeneous", {**HOM, "T": 0.0}, "time horizon T=0.0 must be positive"),
        ([1, 2], "bmo_endpoint", {**HOM, "q": 2.0, "T": -1.0},
         "time horizon T=-1.0 must be positive"),
        ([1, 2], "parabolic", {"alpha": 1.0, "p": 4.0, "s_min": 0.0, "s_max": 6.0},
         "geometric time grid needs 0 < t_min"),
        ([1, 2], "inhomogeneous", {**INH, "q1": 0.5}, "^q1=0.5 must be >= 1"),
    ])
    def test_bad_level_estimate_or_param_rejected_before_any_level(
        self, call_count, lambdas, estimate_id, params, named
    ):
        g = make_grid(2, 64, 2 * np.pi)
        calls = call_count(estimates, "synthesize_field")
        with pytest.raises(PreconditionError, match=named):
            dilation_sweep(GaussianBump(width=g.L / 21), g, lambdas, estimate_id, params)
        assert calls["synthesize_field"] == 0

    @pytest.mark.parametrize("lambdas", [np.array([1, 2]), (1, 2), range(1, 3)])
    def test_any_sequence_of_levels(self, lambdas):
        # an array ran every level, then raised AttributeError at lambdas.index
        g = make_grid(2, 64, 2 * np.pi)
        params = {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05}
        got = dilation_sweep(GaussianBump(width=g.L / 21), g, lambdas, "homogeneous", params)
        want = dilation_sweep(GaussianBump(width=g.L / 21), g, [1, 2], "homogeneous", params)
        assert got.ratios == want.ratios and got.to_json_dict() == want.to_json_dict()

    def test_single_lambda_is_driftless(self):
        g = make_grid(2, 64, 2 * np.pi)
        recipe = GaussianBump(width=g.L / 21)
        rep = dilation_sweep(
            recipe,
            g,
            [1],
            "homogeneous",
            {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05},
        )
        assert rep.max_drift == 0.0
        assert rep.verdict == ""

    def test_contaminated_recipe_rejected(self):
        g = make_grid(2, 64, 2 * np.pi)
        recipe = GaussianBump(width=g.L / 8)  # too wide for the half-box
        with pytest.raises(ContaminationError):
            dilation_sweep(
                recipe, g, [1, 2], "homogeneous",
                {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05},
            )

    def test_nyquist_edge_rejected(self):
        # half a grid spacing wide: inside the half-box, but its spectrum
        # reaches the Nyquist edge
        g = make_grid(2, 64, 2 * np.pi)
        with pytest.raises(PreconditionError, match="spectral content at the Nyquist edge"):
            dilation_sweep(
                GaussianBump(width=0.5 * g.spacing), g, [1], "homogeneous",
                {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05},
            )

    def test_non_dilatable_recipe_rejected(self):
        g = make_grid(2, 64, 2 * np.pi)
        recipe = RandomBandlimited(seed=0, j_min=1, j_max=2)
        with pytest.raises(PreconditionError):
            dilation_sweep(
                recipe, g, [1, 2], "homogeneous",
                {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05},
            )

    def test_besov_embedding_invariance_small(self):
        g = make_grid(2, 128, 2 * np.pi)
        recipe = RandomBumps(seed=5, width=g.L / 26, spread=g.L / 20, count=2)
        rep = dilation_sweep(
            recipe, g, [1, 2], "besov_embedding", {"alpha": 1.0, "p": 4.0},
            drift_tol=0.01,
        )
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("estimate_id", list(estimates.SWEEP_PARAMS))
    def test_level_field_is_released_before_the_ratio(self, monkeypatch, estimate_id):
        # every ratio reads the level's series and spectrum, so the level's
        # data Field is freed before the ratio runs
        g = make_grid(2, 64, 2 * np.pi)
        every = {"alpha": 1.0, "q": 2.0 if estimate_id == "bmo_endpoint" else 4.0,
                 "p": 4.0, "q1": 4.0, "p1": 4.0, "T": 0.05, "s_min": 1e-6, "s_max": 6.0,
                 "times": uniform_times(0.05, 8), "profile": lambda t: 1.0 + t}
        params = {k: every[k] for k in ("alpha", "p", *estimates.SWEEP_PARAMS[estimate_id])
                  if k in every}
        fields, alive = [], []
        synthesize, level = estimates.synthesize_field, estimates._level

        def synthesize_spy(*args):
            f = synthesize(*args)
            fields.append(weakref.ref(f))
            return f

        def level_spy(*args):
            ratio = level(*args)

            def ratio_spy(*args):
                alive.append(sum(ref() is not None for ref in fields))
                return ratio(*args)

            return ratio_spy

        monkeypatch.setattr(estimates, "synthesize_field", synthesize_spy)
        monkeypatch.setattr(estimates, "_level", level_spy)
        recipe = RandomBumps(seed=5, width=g.L / 26, spread=g.L / 20, count=2)  # zero mean
        rep = dilation_sweep(recipe, g, [1, 2], estimate_id, params)
        assert len(fields) == 2 and alive == [0, 0]
        assert all(np.isfinite(r) and r > 0 for r in rep.ratios)

    @pytest.mark.parametrize("estimate_id, params", [
        ("parabolic", {"alpha": 1.0, "p": 4.0, "s_min": 1e-6, "s_max": 6.0}),
        ("parabolic", {"alpha": 1.0, "p": INF, "s_min": 1e-6, "s_max": 6.0}),
        ("besov_embedding", {"alpha": 1.0, "p": 4.0}),
        ("homogeneous", {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05}),
        ("homogeneous", {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05, "kind": "besov",
                         "s": 0.5}),
        ("bmo_endpoint", {"alpha": 1.0, "q": 2.0, "p": 2.0, "T": 0.05}),
        ("inhomogeneous", {"alpha": 1.0, "q": 4.0, "p": 4.0, "q1": 4.0, "p1": 4.0,
                           "times": uniform_times(0.05, 48), "profile": lambda t: 1.0 + t}),
        ("inhomogeneous", {"alpha": 1.0, "q": 4.0, "p": 4.0, "q1": 4.0, "p1": 4.0,
                           "kind": "besov", "times": uniform_times(0.05, 48),
                           "profile": lambda t: 1.0 + t}),
    ])
    def test_level_ratio_is_the_standalone_ratio_of_the_level(self, estimate_id, params):
        # the sweep's ratio on (series, spectrum), its evolution and its
        # forcing streamed a chunk at a time, has the bits of the public ratio
        # on the level's Field (on the level's whole forcing series)
        g = make_grid(2, 64, 2 * np.pi)
        recipe = RandomBumps(seed=3, width=g.L / 26, spread=g.L / 20, count=2)
        rep = dilation_sweep(recipe, g, [1, 2], estimate_id, params)
        for lam, got in zip([1, 2], rep.ratios):
            f = synthesize_field(g, recipe.dilated(lam))
            tscale = lam ** -2.0
            kind, s = params.get("kind", "lebesgue"), params.get("s", 0.0)
            if estimate_id == "besov_embedding":
                want = besov_embedding_ratio(f, params["p"])
            elif estimate_id == "parabolic":
                want = parabolic_ratio(f, params["p"], 1.0, s_min=params["s_min"] * tscale,
                                       s_max=params["s_max"] * tscale)
            elif estimate_id == "inhomogeneous":
                profile = params["profile"]
                F = separable_series(f, lambda t: profile(t / tscale), params["times"] * tscale)
                assert len(fracheat.grid.sample_chunks(F.data, g)) > 1
                want = inhomogeneous_ratio(F, (4.0, 4.0), (4.0, 4.0), 1.0, kind=kind, s=s)
            else:
                kind = "bmo" if estimate_id == "bmo_endpoint" else kind
                want = homogeneous_ratio(f, params["q"], params["p"], 1.0, params["T"] * tscale,
                                         kind=kind, s=s)
            assert got == want

    @pytest.mark.parametrize("ratio, args", [
        (parabolic_ratio, (4.0, 1.0)),
        (besov_embedding_ratio, (4.0,)),
    ])
    def test_standalone_ratio_reads_its_field_once(self, fft_count, call_count, ratio, args):
        # one realness scan and one forward transform of the Field; its norms
        # and its flow read the series and spectrum they give
        g = make_grid(2, 64, 2 * np.pi)
        f = synthesize_field(g, RandomBumps(seed=5, width=g.L / 26, spread=g.L / 20, count=2))
        calls = call_count(fracheat.grid, "is_real")
        assert np.isfinite(ratio(f, *args))
        assert calls["is_real"] == 1 and fft_count["rfftn"] == 1

    def test_report_serialization(self):
        g = make_grid(2, 64, 2 * np.pi)
        recipe = GaussianBump(width=g.L / 21)
        rep = dilation_sweep(
            recipe, g, [1, 2], "homogeneous",
            {"alpha": 0.5, "q": 2.0, "p": 4.0, "T": 0.05},
            drift_tol=0.05,
        )
        d = rep.to_json_dict()
        assert d["estimate_id"] == "homogeneous"
        assert len(d["ratios"]) == 2
        rows = rep.csv_rows()
        assert rows[0]["lambda"] == 1


def _sweep_params(estimate_id: str, nodes: int) -> dict:
    """Sweep parameters of one estimate whose time axis has `nodes` samples
    (the parabolic s-grid at ratio 1.25 included): the params it reads."""
    every = {"alpha": 1.0, "q": 2.0 if estimate_id == "bmo_endpoint" else 4.0, "p": 4.0,
             "T": 0.05, "times": uniform_times(0.05, nodes - 1), "q1": 4.0, "p1": 4.0,
             "profile": lambda t: 1.0 + t, "s_min": 1e-4, "s_max": 1e-4 * 1.25 ** (nodes - 1)}
    return {k: every[k] for k in ("alpha", "p", *estimates.SWEEP_PARAMS[estimate_id])
            if k in every}


class TestChunkBoundaries:
    """Streamed estimates have the bits of their one-chunk results with
    chunks of 1 and of 3 samples (the evolution made STREAM_CHUNKS chunks at
    a time): every chunk boundary of the evolution, the forcing, the march
    and the norms reads and writes the samples it would whole."""

    g = make_grid(2, 64, 2 * np.pi)
    recipe = RandomBumps(seed=3, width=g.L / 26, spread=g.L / 20, count=2)  # zero mean
    SPECTRAL_SAMPLE = 16 * 64 * 64  # a half spectrum, counted on the full lattice
    PHYSICAL_SAMPLE = 8 * 64 * 64

    @staticmethod
    def chunked(monkeypatch, nbytes, call):
        monkeypatch.setattr(fracheat.grid, "CHUNK_BYTES", nbytes)
        try:
            return call()
        finally:
            monkeypatch.undo()

    def check(self, monkeypatch, sample_bytes, call):
        whole = self.chunked(monkeypatch, 1 << 40, call)
        for per_chunk in (1, 3):
            assert self.chunked(monkeypatch, per_chunk * sample_bytes, call) == whole

    @pytest.mark.parametrize("estimate_id, extra", [
        ("homogeneous", {}),
        ("homogeneous", {"kind": "sobolev", "s": 0.5}),
        ("homogeneous", {"kind": "besov", "s": 0.5}),
        ("bmo_endpoint", {}),
        ("parabolic", {}),
        ("inhomogeneous", {}),
        ("inhomogeneous", {"kind": "besov"}),
    ])
    def test_sweep_ratios(self, monkeypatch, estimate_id, extra):
        params = {**_sweep_params(estimate_id, 25), **extra}
        # the inhomogeneous forcing is cut like its physical samples
        sample = self.PHYSICAL_SAMPLE if estimate_id == "inhomogeneous" else self.SPECTRAL_SAMPLE
        self.check(monkeypatch, sample, lambda: dilation_sweep(
            self.recipe, self.g, [1, 2], estimate_id, params).ratios)

    def test_gradient_decay_fit(self, monkeypatch):
        f = synthesize_field(self.g, GaussianBump(width=2 * self.g.spacing))
        times = np.geomspace(0.05, 0.5, 25)
        self.check(monkeypatch, self.SPECTRAL_SAMPLE, lambda: decay_fit(
            f, 1.0, 2.0, 1.0, times, gradient=True).norms.tolist())

    def test_kernel_norms(self, monkeypatch):
        ts = np.geomspace(0.01, 0.03, 25)
        self.check(monkeypatch, self.PHYSICAL_SAMPLE, lambda: estimates._kernel_norms(
            make_grid(2, 64, 6.0), ts, 1.0, 2.0).tolist())


class TestStreamedMemory:
    """Peak live memory (`traced_peak`) of the streamed estimates at 128^2,
    in CHUNK_BYTES: each holds a few chunks of its time axis, not the whole
    stack, so doubling the nodes leaves the peak where it was.  With whole
    stacks, at 49 and 98 nodes: a homogeneous, parabolic or bmo_endpoint
    level 8.0-8.2 and 14.2-14.4, an inhomogeneous level 19.9 and 38.5, the
    gradient decay fit 31.1 and 62.2, the kernel norms 6.1 and 9.3."""

    g = make_grid(2, 128, 2 * np.pi)
    BOUND = 5  # CHUNK_BYTES; the streamed peaks are 3.6 to 4.1

    def peaks(self, traced_peak, make_call):
        """The peaks at 49 and 98 nodes, after a run that fills the grid's
        cached lattices."""
        make_call(49)()
        return [traced_peak(make_call(m)) / fracheat.grid.CHUNK_BYTES for m in (49, 98)]

    def check(self, peaks):
        assert max(peaks) < self.BOUND
        assert peaks[1] - peaks[0] < 0.1  # less than one sample, 0.125: scalars per node only

    @pytest.mark.parametrize("estimate_id", [
        "homogeneous", "bmo_endpoint", "parabolic", "inhomogeneous",
    ])
    def test_sweep_level(self, traced_peak, estimate_id):
        g = self.g
        recipe = (WavePackets(seed=1, carrier=4.0, width=0.2, count=3)
                  if estimate_id == "bmo_endpoint"
                  else RandomBumps(seed=3, width=g.L / 26, spread=g.L / 20, count=2))
        self.check(self.peaks(traced_peak, lambda m: lambda: dilation_sweep(
            recipe, g, [1], estimate_id, _sweep_params(estimate_id, m))))

    def test_gradient_decay_fit(self, traced_peak):
        f = synthesize_field(self.g, GaussianBump(width=2 * self.g.spacing))
        self.check(self.peaks(traced_peak, lambda m: lambda: decay_fit(
            f, 1.0, 2.0, 1.0, np.geomspace(0.34, 0.48, m), gradient=True)))

    def test_kernel_norms(self, traced_peak):
        g = make_grid(2, 128, 10.0)
        self.check(self.peaks(traced_peak, lambda m: lambda: estimates._kernel_norms(
            g, np.geomspace(0.004, 0.03, m), 1.0, 2.0)))


class TestRealPath:
    """Every series is real: complex data f = a + ib runs as its (re, im)
    parts, so its ratios are those of the real 2-vector (a, b), and they
    match the complex evolution measured on the full lattice."""

    def bumps(self, N=64, seed=2):
        g = make_grid(2, N, 2 * np.pi)
        recipe = RandomBumps(seed=seed, width=g.L / 26, spread=g.L / 20, count=2)
        return synthesize_field(g, recipe)

    def complex_bumps(self):
        a, b = self.bumps(seed=2), self.bumps(seed=5)
        return Field(a.grid, a.data.real + 1j * b.data.real), VectorField((a, b))

    @staticmethod
    def complex_lebesgue_ratio(f, q, p, alpha, T):
        """Oracle: the complex evolution on the full lattice, |f| by np.abs."""
        g = f.grid
        ts = estimates.default_time_grid(T)
        spec = np.fft.fftn(f.data)
        lam = g.abs_freq ** (2 * alpha)
        vals = [
            (np.sum(np.abs(np.fft.ifftn(spec * np.exp(-t * lam))) ** p) * g.cell_volume)
            ** (1 / p)
            for t in ts
        ]
        num = np.trapezoid(np.array(vals) ** q, ts) ** (1 / q)
        return num / np.sqrt(np.sum(np.abs(f.data) ** 2) * g.cell_volume)

    @pytest.mark.parametrize("kind, q, p, s", [
        ("lebesgue", 4.0, 4.0, 0.0),
        ("bmo", 2.0, 2.0, 0.0),
        ("sobolev", 4.0, 4.0, 0.5),
        ("besov", 4.0, 4.0, 0.5),
    ])
    def test_homogeneous_ratio(self, fft_count, kind, q, p, s):
        f, pair = self.complex_bumps()
        fft_count.clear()
        got = homogeneous_ratio(f, q, p, 1.0, 0.05, kind=kind, s=s)
        assert fft_count["fftn"] == fft_count["ifftn"] == 0
        assert got == homogeneous_ratio(pair, q, p, 1.0, 0.05, kind=kind, s=s)
        if kind == "lebesgue":
            want = self.complex_lebesgue_ratio(f, q, p, 1.0, 0.05)
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("kind, alpha, qp, q1p1, s", [
        ("lebesgue", 1.0, (4.0, 4.0), (4.0, 4.0), 0.0),
        ("sobolev", 0.5, (2.0, 4.0), (6.0, 6.0), 0.5),
        ("besov", 1.0, (4.0, 4.0), (4.0, 4.0), 0.0),
    ])
    def test_inhomogeneous_ratio_of_a_sweep(self, kind, alpha, qp, q1p1, s):
        # a sweep's separable forcing, built from complex data and from its parts
        f, pair = self.complex_bumps()
        times = np.linspace(0, 0.1, 17)
        profile = lambda t: (t / 0.03) * np.exp(-t / 0.03)  # noqa: E731
        F, Fpair = (separable_series(w, profile, times) for w in (f, pair))
        assert F.parts == 2 and Fpair.parts == 1
        assert np.array_equal(F.data, Fpair.data)
        got, want = (
            inhomogeneous_ratio(w, qp, q1p1, alpha, kind=kind, s=s) for w in (F, Fpair)
        )
        assert got == want

    @pytest.mark.parametrize("kind", ["lebesgue", "bmo"])
    def test_homogeneous_evolution_takes_real_transforms(self, fft_count, kind):
        f = self.bumps()
        homogeneous_ratio(f, 2.0, 2.0, 1.0, 0.05, times=np.linspace(0, 0.05, 65), kind=kind)
        # the data enters by one rfftn; no complex transform anywhere
        assert fft_count["fftn"] == fft_count["ifftn"] == 0
        assert fft_count["rfftn"] == 1 and fft_count["irfftn"] > 1

    def test_separable_forcing_is_real_and_takes_real_transforms(self, fft_count):
        f = self.bumps()
        times = np.linspace(0, 0.1, 17)
        F = separable_series(f, lambda t: 1 + t, times)
        assert F.parts == 1 and F.representation == "physical"
        assert F.data.dtype == np.float64
        fft_count.clear()
        inhomogeneous_ratio(F, (4.0, 4.0), (4.0, 4.0), 1.0)
        assert fft_count["fftn"] == fft_count["ifftn"] == 0
        assert fft_count["rfftn"] == 1 and fft_count["irfftn"] > 0

    def test_plane_wave_runs_as_its_parts(self, fft_count):
        g = make_grid(2, 32, 2 * np.pi)
        wave = synthesize_field(g, PlaneWave(k=(1, 2)))
        want = self.complex_lebesgue_ratio(wave, 4.0, 4.0, 1.0, 0.05)
        fft_count.clear()
        got = homogeneous_ratio(wave, 4.0, 4.0, 1.0, 0.05)
        assert abs(got - want) <= 1e-13 * want
        F = separable_series(wave, lambda t: 1 + t, np.linspace(0, 0.1, 9))
        assert F.parts == 2
        inhomogeneous_ratio(F, (4.0, 4.0), (4.0, 4.0), 1.0)
        assert fft_count["fftn"] == fft_count["ifftn"] == 0 < fft_count["irfftn"]
