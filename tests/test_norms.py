"""Norm oracles: Lebesgue, mixed, Sobolev, dyadic blocks, Besov, BMO."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import complex_dft
from bmo_reference import bmo_norms_reference

from fracheat import (
    DyadicPartition,
    Field,
    GaussianBump,
    NormSpec,
    PlaneWave,
    PreconditionError,
    RandomBandlimited,
    TimeSeries,
    VectorField,
    besov_norm,
    bmo_norm,
    default_partition,
    lp_block,
    lp_norm,
    lp_norms,
    make_grid,
    mixed_norm,
    semigroup_series,
    synthesize_field,
)
from fracheat import norms
from fracheat.grid import sample_chunks, uniform_times
from fracheat.semigroup import apply_symbol, derivative_symbol

INF = float("inf")


def shell_field(g, radii, seed=0):
    """Real zero-mean field supported on exact lattice shells |k| in radii."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    absk = g.abs_freq * g.L / (2 * np.pi)
    mask = np.zeros(g.shape, dtype=bool)
    for r in radii:
        mask |= np.abs(absk - r) < 1e-9
    coef[~mask] = 0.0
    rev = coef
    for ax in range(g.n):
        rev = np.roll(np.flip(rev, axis=ax), 1, axis=ax)
    coef = 0.5 * (coef + np.conj(rev))
    return Field(g, np.fft.ifftn(coef), "physical")


class TestLpNorm:
    def test_constant(self):
        g = make_grid(2, 16, 3.0)
        f = Field(g, np.full(g.shape, -2.0 + 0j))
        for p in (1, 2, 3.5):
            assert np.isclose(lp_norm(f, p), 2.0 * 3.0 ** (2 / p))
        assert np.isclose(lp_norm(f, INF), 2.0)

    def test_plane_wave(self):
        g = make_grid(2, 16, 5.0)
        f = synthesize_field(g, PlaneWave(k=(1, 1)))
        for p in (1, 2, 4, INF):
            expect = 5.0 ** (2 / p) if p != INF else 1.0
            assert np.isclose(lp_norm(f, p), expect)

    def test_gaussian_l2(self):
        # ||exp(-x^2/2)||_2 = pi^(1/4) on the line
        g = make_grid(1, 1024, 40.0)
        x = g.coordinates[0] - 20.0
        f = Field(g, np.exp(-(x**2) / 2))
        assert abs(lp_norm(f, 2) - np.pi**0.25) < 1e-6

    def test_large_p_keeps_homogeneity(self):
        """At p = 400 the power sum of 10 f overflows and that of 1e-3 f
        underflows; both are measured again from |f| / max |f|.  A sample
        whose sum is normal keeps its bits."""
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.4)).data.real
        base = lp_norm(Field(g, f), 400)
        assert abs(base - 0.992) < 1e-3
        stack = np.stack([f, 10 * f, 1e-3 * f, 0 * f])
        got = lp_norms(TimeSeries.from_data(g, [0.0, 1.0, 2.0, 3.0], stack, "physical"), 400)
        assert got[0] == base and got[3] == 0.0
        for value, c in zip(got[1:3], (10.0, 1e-3)):
            assert abs(value / (c * base) - 1) < 1e-13

    def test_rejects_p_below_one(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(PreconditionError):
            lp_norm(Field(g, np.zeros(8)), 0.5)


class TestMixedNorm:
    def test_constant_in_time(self):
        g = make_grid(1, 32, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.4))
        T = 2.5
        times = np.linspace(0, T, 41)
        u = TimeSeries(times, [f] * len(times))
        for q in (1, 2, 3):
            assert np.isclose(mixed_norm(u, q, 2), T ** (1 / q) * lp_norm(f, 2))
        assert np.isclose(mixed_norm(u, INF, 2), lp_norm(f, 2))

    def test_single_mode_decay(self):
        # || e^{-t |k|^{2a}} pw ||_{L^q_t L^p_x} has a closed form
        g = make_grid(1, 16, 2 * np.pi)
        k, alpha, q, p, T = 2, 1.0, 2.0, 3.0, 1.0
        pw = synthesize_field(g, PlaneWave(k=(k,)))
        mu = float(k) ** (2 * alpha)
        times = np.linspace(0, T, 20001)
        u = TimeSeries(times, [Field(g, np.exp(-mu * t) * pw.data) for t in times])
        got = mixed_norm(u, q, p)
        expect = g.L ** (1 / p) * ((1 - np.exp(-q * T * mu)) / (q * mu)) ** (1 / q)
        assert abs(got - expect) < 1e-6 * expect

    def series(self, N, m, vector=False):
        """Free evolution of zero-mean data; 40 samples of 64^2 span three
        sample chunks."""
        g = make_grid(2, N, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=4, j_min=1, j_max=2))
        if vector:
            g2 = synthesize_field(g, RandomBandlimited(seed=5, j_min=1, j_max=2))
            f = VectorField((f, g2))
        return semigroup_series(f, uniform_times(0.5, m), 1.0)

    @pytest.mark.parametrize("vector", [False, True])
    def test_lp_norms_equal_per_sample_lp_norm(self, vector):
        u = self.series(64, 40, vector)
        for p in (2, 3.5, INF):
            assert lp_norms(u, p).tolist() == [lp_norm(s, p) for s in u.snapshots]

    def test_lebesgue_spec_equals_exponent(self):
        u = self.series(64, 40)
        for q, p in ((4, 2), (2, 3.5), (INF, INF)):
            vals = NormSpec("lebesgue", p=p).norms(u)
            assert norms._time_norm(vals, u.times, q) == mixed_norm(u, q, p)

    SPECS = {
        "lebesgue": NormSpec("lebesgue", p=3.5),
        "sobolev": NormSpec("sobolev", p=3, s=0.7),
        "sobolev-negative": NormSpec("sobolev", p=2, s=-0.5),
        "sobolev-inhomogeneous": NormSpec("sobolev", p=4, s=-0.8, homogeneous=False),
        "besov": NormSpec("besov", p=4, s=0.5, q=2),
        "besov-qinf": NormSpec("besov", p=3, s=-0.3, q=INF),
        "besov-inhomogeneous": NormSpec("besov", p=4, s=0.5, q=2, homogeneous=False),
        "besov-inhomogeneous-qinf": NormSpec(
            "besov", p=2, s=0.2, q=INF, homogeneous=False
        ),
        "bmo": NormSpec("bmo"),
    }

    @staticmethod
    def besov_oracle(f, spec, part):
        """l^q sum of 2^(js) ||block_j f||_p over the public `lp_block`, plus
        the L^p norm of the low block for the inhomogeneous norm."""
        terms = np.array(
            [2.0 ** (j * spec.s) * lp_norm(lp_block(f, j, part), spec.p) for j in part.bands]
        )
        if spec.q == INF:
            band = float(terms.max())
        else:
            band = float(np.sum(terms**spec.q) ** (1.0 / spec.q))
        if spec.homogeneous:
            return band
        low = apply_symbol(f, part.eta_at_scale(part.j_min - 1))
        return lp_norm(low, spec.p) + band

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_stack_norms_equal_per_sample(self, name, vector):
        u = self.series(64, 40, vector)
        assert len(sample_chunks(u.data, grid=u.grid)) >= 3
        spec = self.SPECS[name]
        got = spec.norms(u)
        assert got.tolist() == [spec.compute(s) for s in u.snapshots]
        if spec.kind == "besov":
            part = default_partition(u.grid)
            assert got.tolist() == [self.besov_oracle(s, spec, part) for s in u.snapshots]
            assert norms._time_norm(got, u.times, 4) == float(
                np.trapezoid(got**4, u.times) ** 0.25)

    @pytest.mark.parametrize(
        "spec",
        [NormSpec("besov", p=4, s=0.5, q=2), NormSpec("sobolev", p=2, s=-0.5)],
        ids=["besov", "sobolev-negative"],
    )
    def test_one_nonzero_mean_sample_rejected(self, spec):
        u = self.series(64, 40)
        assert spec.norms(u).shape == (41,)
        for k, scale in ((38, 1.0), (20, 1e-12)):
            # the k-th sample, scaled, gets a mean of 1e-3 of its own peak:
            # rejected even where that mean is tiny against the other samples
            data = u.to_spectral().data.copy()
            data[k] *= scale
            data[k][0, 0] = 1e-3 * np.abs(data[k]).max()
            bad = TimeSeries.from_data(u.grid, u.times, data)
            with pytest.raises(PreconditionError, match="zero-mean"):
                spec.norms(bad)

    @pytest.mark.parametrize("q, scale", [(1, 1.0), (4, 1.0), (INF, 1.0), (4, 1e200)])
    def test_time_norm_of_chunk_collected_norms(self, q, scale):
        # the fixed-point loop's path: per-sample L^p norms collected a chunk
        # at a time, then the one time-norm helper
        u = self.series(64, 40, vector=True)
        u = TimeSeries.from_data(u.grid, u.times, scale * u.data)
        vals = np.empty(len(u))
        for chunk, phys in zip(sample_chunks(u.data, u.grid), u.chunks()):
            vals[chunk] = norms._lp(phys, u.grid, 4)
        if scale > 1:  # the q-th powers overflow: the rescaled branch
            with np.errstate(over="ignore"):
                assert np.trapezoid(vals**q, u.times) == INF
        assert norms._time_norm(vals, u.times, q) == mixed_norm(u, q, 4)

    def test_needs_two_samples(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(PreconditionError):
            mixed_norm(TimeSeries(np.array([0.0]), [Field(g, np.zeros(8))]), 2, 2)

    def test_time_exponent_below_one_rejected_by_name(self):
        # both end in the one time norm, which checks q
        from fracheat.estimates import homogeneous_ratio

        u = self.series(32, 4)
        f = u.to_physical().snapshots[0]
        with pytest.raises(PreconditionError, match="time exponent q=0.5 must be >= 1"):
            mixed_norm(u, 0.5, 4)
        with pytest.raises(PreconditionError, match="time exponent q=0.5 must be >= 1"):
            homogeneous_ratio(f, 0.5, 4, 1.0, 0.1)

    @pytest.mark.parametrize("times", [[], [0.05]])
    def test_homogeneous_ratio_needs_two_times(self, times):
        from fracheat.estimates import homogeneous_ratio

        f = self.series(32, 4).to_physical().snapshots[0]
        with pytest.raises(PreconditionError, match="needs at least two time samples"):
            homogeneous_ratio(f, 4, 4, 1.0, 0.1, times=np.array(times))


class TestSobolevNorm:
    def test_plane_wave_homogeneous(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, PlaneWave(k=(3, 4)))
        for s in (-1.0, 0.5, 2.0):
            assert np.isclose(
                NormSpec("sobolev", p=2, s=s).compute(f), 5.0**s * g.L ** (2 / 2), rtol=1e-12
            )

    def test_zero_order_equals_lp(self):
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=2, j_min=1, j_max=3))
        for p in (2, 4):
            got = NormSpec("sobolev", p=p, s=0.0).compute(f)
            assert np.isclose(got, lp_norm(f, p), rtol=1e-12)

    def test_plane_wave_inhomogeneous(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, PlaneWave(k=(1, 2)))
        s, p = 1.2, 3.0
        expect = (1 + 5) ** (s / 2) * g.L ** (2 / p)
        got = NormSpec("sobolev", p=p, s=s, homogeneous=False).compute(f)
        assert np.isclose(got, expect, rtol=1e-12)

    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_overflowing_order_rejected(self, homogeneous):
        # |xi|^s overflows to inf on the lattice: the norm was NaN
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=2, j_min=1, j_max=2))
        for s in (INF, 400.0, float("nan")):
            with pytest.raises(PreconditionError, match=f"order s={s}"):
                NormSpec("sobolev", p=2, s=s, homogeneous=homogeneous).compute(f)
        big = NormSpec("sobolev", p=2, s=200.0, homogeneous=homogeneous)
        assert np.isfinite(big.compute(f))


class TestDyadicPartition:
    def test_partition_of_unity(self):
        g = make_grid(2, 64, 2 * np.pi)
        part = default_partition(g)
        # the bands sum to one on 2^j_min <= |xi| <= 2^j_max
        total = sum(part.psi(j) for j in part.bands)
        covered = (g.abs_freq >= 2.0**part.j_min) & (g.abs_freq <= 2.0**part.j_max)
        residual = np.abs(1.0 - total)[covered]
        assert residual.max() < 1e-12

    def test_band_support(self):
        g = make_grid(1, 256, 2 * np.pi)
        part = default_partition(g)
        absxi = g.abs_freq
        for j in part.bands:
            psi = part.psi(j)
            outside = (absxi < 2.0 ** (j - 1) - 1e-12) | (absxi > 2.0 ** (j + 1) + 1e-12)
            assert np.max(np.abs(psi[outside])) == 0.0

    def test_window_validation(self):
        g = make_grid(1, 64, 2 * np.pi)
        with pytest.raises(PreconditionError):
            DyadicPartition(g, j_min=-1, j_max=3)  # 2^(j_min-1) < 2 pi / L
        with pytest.raises(PreconditionError):
            DyadicPartition(g, j_min=1, j_max=6)  # 2^(j_max+1) > Nyquist


class TestBlocks:
    def test_shell_passthrough_and_locality(self):
        g = make_grid(1, 256, 2 * np.pi)
        part = default_partition(g)
        j = 3
        f = shell_field(g, [2**j], seed=1)  # psi_j == 1 exactly on |xi| = 2^j
        block = lp_block(f, j, part)
        assert np.max(np.abs(block.data - f.data)) < 1e-12 * np.max(np.abs(f.data))
        for jj in part.bands:
            if abs(jj - j) >= 2:
                far = lp_block(f, jj, part)
                assert np.max(np.abs(far.data)) < 1e-14

    def test_reconstruction(self):
        g = make_grid(2, 64, 2 * np.pi)
        part = default_partition(g)
        f = synthesize_field(g, RandomBandlimited(seed=3, j_min=1, j_max=3))
        rec = sum(lp_block(f, j, part).data for j in part.bands)
        assert np.max(np.abs(rec - f.data)) < 1e-12 * np.max(np.abs(f.data))

    def test_plane_wave_coefficient(self):
        g = make_grid(1, 256, 2 * np.pi)
        part = default_partition(g)
        j = 3
        f = synthesize_field(g, PlaneWave(k=(2**j,)))
        block = lp_block(f, j, part)
        psi_val = part.psi(j)[2**j]
        assert np.isclose(psi_val, 1.0)
        assert np.max(np.abs(block.data - psi_val * f.data)) < 1e-12

    def test_band_outside_partition(self):
        g = make_grid(1, 64, 2 * np.pi)
        part = default_partition(g)
        f = synthesize_field(g, PlaneWave(k=(2,)))
        with pytest.raises(PreconditionError):
            lp_block(f, part.j_max + 1, part)


class TestBesov:
    def test_single_shell_value(self):
        g = make_grid(1, 256, 2 * np.pi)
        part = default_partition(g)
        j, s, p = 3, -0.7, 3.0
        f = shell_field(g, [2**j], seed=4)
        got = besov_norm(f, s, p, 2.0, partition=part)
        # oracle: direct block summation
        direct = sum(
            (2.0 ** (jj * s) * lp_norm(lp_block(f, jj, part), p)) ** 2
            for jj in part.bands
        ) ** 0.5
        assert abs(got - direct) < 1e-14
        assert abs(got - 2.0 ** (j * s) * lp_norm(f, p)) < 1e-10

    def test_l2_identity_on_shells(self):
        # s=0, p=q=2 on exact dyadic shells: the partition weight is 1
        g = make_grid(1, 256, 2 * np.pi)
        f = shell_field(g, [4, 8], seed=5)
        assert abs(besov_norm(f, 0.0, 2, 2) - lp_norm(f, 2)) < 1e-6

    def test_zero_field(self):
        g = make_grid(1, 64, 2 * np.pi)
        z = Field(g, np.zeros(64))
        assert besov_norm(z, 0.5, 2, 2) == 0.0

    def test_homogeneous_requires_zero_mean(self):
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.5))
        with pytest.raises(PreconditionError):
            besov_norm(f, 0.5, 2, 2, homogeneous=True)

    def test_inhomogeneous_includes_low_block(self):
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.5))
        part = default_partition(g)
        v = besov_norm(f, 0.5, 2, 2, homogeneous=False, partition=part)
        assert v > 0

    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_overflowing_band_weight_rejected(self, homogeneous):
        # 2^(j s) was inf (s = inf, reported as Infinity) or an OverflowError
        g = make_grid(1, 256, 2 * np.pi)
        f = shell_field(g, [4], seed=6)
        for s in (INF, 2000.0, float("nan")):
            with pytest.raises(PreconditionError, match=f"order s={s}"):
                besov_norm(f, s, 2, 2, homogeneous=homogeneous)

    def test_q_infinity(self):
        g = make_grid(1, 256, 2 * np.pi)
        f = shell_field(g, [4], seed=6)
        got = besov_norm(f, 0.3, 2, INF)
        assert abs(got - 2.0 ** (2 * 0.3) * lp_norm(f, 2)) < 1e-9

    def test_sobolev_equivalence_near_shells(self):
        # at q = p = 2 the Besov and Sobolev norms agree on shell data
        g = make_grid(1, 256, 2 * np.pi)
        for s in (-0.5, 0.0, 1.0):
            f = shell_field(g, [8], seed=7)
            b = besov_norm(f, s, 2, 2)
            w = NormSpec("sobolev", p=2, s=s).compute(f)
            assert abs(b / w - 1) < 0.05

    def test_wrap_dilation_shifts_bands(self):
        # torus remap k -> 2k (the samples i -> 2i mod N) multiplies the
        # homogeneous norm by 2^s exactly
        g = make_grid(1, 256, 2 * np.pi)
        f = shell_field(g, [4, 8], seed=8)
        s = -0.4
        remapped = Field(g, np.take(f.to_physical().data, 2 * np.arange(g.N) % g.N))
        a = besov_norm(remapped, s, 2, 2)
        b = 2.0**s * besov_norm(f, s, 2, 2)
        assert abs(a / b - 1) < 1e-10


class TestBMO:
    def test_constant_is_zero(self):
        g = make_grid(2, 32, 1.0)
        assert bmo_norm(Field(g, np.full(g.shape, 7.0))) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_bounded_by_sup(self, seed):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=seed, j_min=1, j_max=2))
        assert bmo_norm(f) <= 2 * lp_norm(f, INF) + 1e-12

    def test_brute_force_oracle_exact(self):
        # exhaustive sup over the same family: every periodic offset,
        # dyadic sidelengths
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=9, j_min=1, j_max=2))
        data = f.to_physical().data
        best = 0.0
        m = 0
        while 2**m <= g.N:
            s = 2**m
            for a in range(g.N):
                for b in range(g.N):
                    blk = np.roll(data, (-a, -b), axis=(0, 1))[:s, :s].flatten()
                    mean = blk.mean()
                    osc = np.sqrt((np.abs(blk - mean) ** 2).mean())
                    best = max(best, float(osc))
            m += 1
        assert bmo_norm(f) == best

    def test_translation_invariance(self):
        # the all-offsets family makes any whole-cell shift an exact symmetry
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=10, j_min=1, j_max=2))
        shifted = Field(g, np.roll(f.data, (5, 11), axis=(0, 1)))
        assert bmo_norm(shifted) == bmo_norm(f)

    def test_one_dimensional(self):
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=11, j_min=1, j_max=3))
        assert bmo_norm(f) > 0

    def test_vector_oscillates_by_euclidean_length(self):
        # only the grid axes are rolled; component oscillations add in square
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=9, j_min=1, j_max=2))
        zero = Field(g, np.zeros(g.shape))
        assert bmo_norm(VectorField([f, zero])) == bmo_norm(f)
        pair = bmo_norm(VectorField([f, f]))
        assert np.isclose(pair, np.sqrt(2) * bmo_norm(f), rtol=1e-14, atol=0)


def test_normspec_dispatch():
    from fracheat import NormSpec

    g = make_grid(1, 256, 2 * np.pi)
    f = shell_field(g, [8], seed=3)
    assert np.isclose(NormSpec("lebesgue", p=3).compute(f), lp_norm(f, 3))
    assert np.isclose(
        NormSpec("besov", p=2, s=0.5, q=2).compute(f), besov_norm(f, 0.5, 2, 2)
    )
    assert np.isclose(NormSpec("bmo").compute(f), bmo_norm(f))
    with pytest.raises(PreconditionError):
        NormSpec("unknown")
    with pytest.raises(PreconditionError):
        NormSpec("lebesgue", p=0.5)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    p1=st.floats(1.0, 6.0),
    dp=st.floats(0.0, 6.0),
)
def test_hoelder_monotonicity(seed, p1, dp):
    # on the probability-normalized box, p -> L^(-n/p) ||f||_p is nondecreasing
    g = make_grid(1, 64, 2 * np.pi)
    f = synthesize_field(g, RandomBandlimited(seed=seed, j_min=1, j_max=3))
    p2 = p1 + dp
    lhs = g.L ** (-1 / p1) * lp_norm(f, p1)
    rhs = g.L ** (-1 / p2) * lp_norm(f, p2)
    assert lhs <= rhs * (1 + 1e-12)
    assert rhs <= g.L ** (-0.0) * lp_norm(f, INF) * (1 + 1e-12)


def test_bmo_norm_propagates_nan():
    # Python's max() skips NaN; the norm must not report 0 for non-finite data
    g = make_grid(2, 32, 2 * np.pi)
    data = synthesize_field(g, RandomBandlimited(seed=1, j_min=1, j_max=2)).data.copy()
    data[3, 5] = np.nan
    assert np.isnan(bmo_norm(Field(g, data)))


class TestMultiplierNormsOfRealSeries:
    """Series are multiplied on their half lattice and come back through
    `irfftn`; a complex series as its (re, im) parts.  The oracle multiplies
    each snapshot's full spectrum and takes the complex inverse transform."""

    def series(self, g, components, complex_data=False):
        fields = [
            synthesize_field(g, RandomBandlimited(seed=s, j_min=1, j_max=1))
            for s in range(components + 1)
        ]
        if complex_data:
            fields = [Field(g, a.data + 0.5j * b.data) for a, b in zip(fields, fields[1:])]
        f = fields[0] if components == 1 else VectorField(fields[:components])
        return semigroup_series(f, uniform_times(0.1, 6), 1.0)

    @staticmethod
    def full_lattice_norms(u, syms, p):
        rows = []
        for s in u.snapshots:
            row = []
            for sym in syms:
                d = complex_dft.inverse(s.data * sym, u.grid)
                mag = np.abs(d) if d.shape == u.grid.shape else np.sqrt(
                    np.sum(np.abs(d) ** 2, axis=0)
                )
                row.append((np.sum(mag**p) * u.grid.cell_volume) ** (1 / p))
            rows.append(row)
        return np.array(rows)

    @pytest.mark.parametrize("n, components", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_equals_full_lattice(self, fft_count, n, components):
        g = make_grid(n, 16 if n == 3 else 32, 2 * np.pi)
        part = default_partition(g)
        syms = [part.psi(j) for j in part.bands] + [derivative_symbol(g, 0.5)]
        for parts, complex_data in ((1, False), (2, True)):
            u = self.series(g, components, complex_data)
            assert u.parts == parts
            fft_count.clear()
            got = norms._multiplier_norms(u, syms, 3.0, "zero-mean check")
            assert fft_count["ifftn"] == 0 and fft_count["irfftn"] > 0
            want = self.full_lattice_norms(u, syms, 3.0)
            assert got.shape == want.shape == (len(u), len(syms))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    def test_physical_real_series_and_zero_mean_check(self, fft_count):
        g = make_grid(2, 32, 2 * np.pi)
        u = self.series(g, 1)
        phys = u.to_physical()
        spec = NormSpec("besov", p=4.0, s=0.5)
        fft_count.clear()
        got = spec.norms(phys)
        assert fft_count["fftn"] == fft_count["ifftn"] == 0
        want = spec.norms(u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
        shifted = TimeSeries.from_data(g, phys.times, phys.data + 1.0, "physical")
        with pytest.raises(PreconditionError, match="zero-mean"):
            spec.norms(shifted)


@pytest.mark.parametrize("vector", [False, True])
def test_bmo_invariant_under_constants(vector):
    # box oscillations are taken of the centred data: a large constant
    # offset moves the norm by about its own rounding, eps (|c| + max|f|)
    g = make_grid(2, 128, 2 * np.pi)
    f = synthesize_field(g, GaussianBump(width=0.3))
    if vector:
        f = VectorField((f, Field(g, -0.5 * f.data)))
    base = bmo_norm(f)
    sup = np.max(np.abs(f.data))
    for c in (0.0, 1.0, 1e2, 1e4, 1e6, 1e8):
        shifted = Field(g, f.data + c * sup)
        err = abs(bmo_norm(shifted) / base - 1)
        assert err <= 4 * np.finfo(float).eps * (c + 1) * sup / base, c


# the blocked, shift-add BMO kernel against the rolled one, bit for bit
BMO_GRIDS = [(1, 8), (1, 128), (2, 8), (2, 32), (2, 128), (3, 8), (3, 32)]
# a scalar of two parts has the shape of a 2-vector
BMO_LAYOUTS = {"scalar": (), "2-vector or parts": (2,), "3-vector": (3,), "parts of a 3-vector": (2, 3)}


def _bmo_stack(g, lead, m, seed):
    """m samples of smooth data plus noise, of varied size; sample 0 sits
    on a 1e8 offset."""
    rng = np.random.default_rng(seed)
    x = sum(np.cos((k + 1) * c) for k, c in enumerate(g.coordinates))
    data = x + 0.1 * rng.standard_normal((m, *lead, *g.shape))
    data *= rng.uniform(0.01, 100, (m,) + (1,) * (data.ndim - 1))
    data[0] += 1e8
    return data


def _same_bits(phys, g):
    with np.errstate(invalid="ignore"):
        want = bmo_norms_reference(phys, g)
    got = norms._bmo_norms(phys, g)
    return np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("n, N", BMO_GRIDS)
@pytest.mark.parametrize("layout", BMO_LAYOUTS)
@pytest.mark.parametrize("count", ["one", "block", "block + 1"])
def test_bmo_kernel_matches_rolled_kernel(n, N, layout, count):
    g = make_grid(n, N, 2 * np.pi)
    lead = BMO_LAYOUTS[layout]
    block = sample_chunks(np.empty((1, *lead, *g.shape)), g, copies=4)[0].stop
    m = {"one": 1, "block": block, "block + 1": block + 1}[count]
    assert _same_bits(_bmo_stack(g, lead, m, seed=n * N + m), g)


@pytest.mark.parametrize("n, N", BMO_GRIDS)
@pytest.mark.parametrize("layout", BMO_LAYOUTS)
def test_bmo_kernel_keeps_nan_for_non_finite_samples(n, N, layout):
    g = make_grid(n, N, 2 * np.pi)
    data = _bmo_stack(g, BMO_LAYOUTS[layout], 4, seed=n + N)
    data[1].flat[5] = np.nan
    data[2].flat[-3] = np.inf
    assert _same_bits(data, g)
    assert np.isnan(norms._bmo_norms(data, g)[1:3]).all()


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from([(1, 8), (1, 64), (2, 8), (2, 16), (2, 64), (3, 8), (3, 16)]),
    lead=st.sampled_from(list(BMO_LAYOUTS.values())),
    m=st.integers(1, 5),
    exponent=st.floats(-140, 150),
    seed=st.integers(0, 2**16),
)
def test_bmo_kernel_bits_over_shapes_and_scales(grid, lead, m, exponent, seed):
    # overflowing samples are measured again scaled, by both kernels alike
    g = make_grid(*grid, 2 * np.pi)
    data = np.random.default_rng(seed).standard_normal((m, *lead, *g.shape)) * 10.0**exponent
    with np.errstate(invalid="ignore", over="ignore"):
        want = norms._rescaled(bmo_norms_reference)(data, g)
    assert np.array_equal(norms._bmo_norms(data, g), want)


class TestFiniteDataGivesFiniteNorms:
    """Finite data far from 1 in size: a sum of squares or powers that over-
    or underflows is measured again from the data divided by its largest
    value, so each norm scales with the data (and a scale-invariant ratio
    does not move), where before it read inf, NaN or 0."""

    def bump(self, g):
        return synthesize_field(g, GaussianBump(width=0.3)).data.real

    def test_lp_norm_of_large_complex_and_vector_data(self):
        g = make_grid(2, 32, 2 * np.pi)
        X, Y = g.coordinates
        w = np.exp(1j * (X + 2 * Y))
        for f in (Field(g, 1e160 * w), VectorField((Field(g, 1e160 * w.real),
                                                    Field(g, 1e160 * w.imag)))):
            assert abs(lp_norm(f, 2) / (1e160 * 2 * np.pi) - 1) < 1e-14
            assert abs(lp_norm(f, INF) / 1e160 - 1) < 1e-14

    def test_bmo_of_large_data(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = self.bump(g)
        assert abs(bmo_norm(Field(g, 1e160 * f)) / (1e160 * bmo_norm(Field(g, f))) - 1) < 1e-13

    def test_bmo_of_tiny_data(self):
        # squares of values below about 1e-146 underflow: such a sample is
        # measured as its peak deviation times the norm of the scaled one
        g = make_grid(2, 32, 2 * np.pi)
        f = self.bump(g)
        base = bmo_norm(Field(g, f))
        assert abs(bmo_norm(Field(g, 1e-160 * f)) / (1e-160 * base) - 1) < 1e-13
        for scale in (1.0, 1e-140):  # no rescue: the rolled kernel's bits
            assert norms._bmo_norms((scale * f)[None], g) == bmo_norms_reference((scale * f)[None], g)

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_besov_band_sum(self, scale):
        g = make_grid(2, 32, 2 * np.pi)
        f = self.bump(g)
        f = f - f.mean()
        base = besov_norm(Field(g, f), 0.5, 4, 2)
        assert abs(besov_norm(Field(g, scale * f), 0.5, 4, 2) / (scale * base) - 1) < 1e-13

    @pytest.mark.parametrize("scale", [1e80, 1e-80])
    def test_mixed_norm_and_homogeneous_ratio(self, scale):
        from fracheat.estimates import homogeneous_ratio

        g = make_grid(2, 32, 2 * np.pi)
        f = self.bump(g)
        times = uniform_times(0.1, 8)
        base = mixed_norm(semigroup_series(Field(g, f), times, 1.0), 4, 4)
        got = mixed_norm(semigroup_series(Field(g, scale * f), times, 1.0), 4, 4)
        assert abs(got / (scale * base) - 1) < 1e-13
        ratio = homogeneous_ratio(Field(g, f), 4, 4, 1.0, 0.1)
        assert abs(homogeneous_ratio(Field(g, scale * f), 4, 4, 1.0, 0.1) / ratio - 1) < 1e-13

    def test_bmo_of_non_finite_data_stays_nan(self):
        g = make_grid(2, 32, 2 * np.pi)
        data = 1e160 * self.bump(g)
        data[3, 5] = np.inf
        assert np.isnan(bmo_norm(Field(g, data)))
