"""Grid construction, synthesis recipes, transforms, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import complex_dft

from fracheat import (
    Field,
    GaussianBump,
    PlaneWave,
    PreconditionError,
    RandomBandlimited,
    RandomBumps,
    WavePackets,
    contamination,
    dilate_spectrum,
    inner_product,
    l2_spectral,
    lp_norm,
    make_grid,
    read_field,
    synthesize_field,
    uniform_times,
    write_field,
)
from fracheat.grid import (
    TimeSeries,
    geometric_times,
    is_real,
    require_one_part,
    require_zero_mean,
)

INF, NAN = float("inf"), float("nan")
from fracheat import VectorField


class TestMakeGrid:
    def test_unit_lattice(self):
        g = make_grid(1, 8, 2 * np.pi)
        # 2*pi/L = 1, so wavenumbers are the integers -4..3
        assert sorted(np.rint(g.axis_frequencies()).astype(int)) == list(range(-4, 4))

    def test_lattice_spacing(self):
        g = make_grid(2, 64, 32.0)
        freqs = g.axis_frequencies()
        assert freqs.shape == (64,)
        assert np.isclose(np.min(np.abs(freqs[freqs != 0])), 2 * np.pi / 32)
        assert g.frequencies[0].shape == (64, 64)

    def test_rejects_small_and_non_power_of_two(self):
        with pytest.raises(PreconditionError):
            make_grid(3, 4, 1.0)
        with pytest.raises(PreconditionError):
            make_grid(2, 48, 1.0)
        with pytest.raises(PreconditionError):
            make_grid(4, 16, 1.0)
        with pytest.raises(PreconditionError):
            make_grid(2, 16, -1.0)

    @pytest.mark.parametrize("L", [INF, NAN, 0.0])
    def test_rejects_non_finite_or_non_positive_length(self, L):
        with pytest.raises(PreconditionError, match=f"box length L = {L}"):
            make_grid(2, 16, L)

    def test_lattice_symmetry(self):
        g = make_grid(1, 16, 3.0)
        k = np.rint(g.axis_frequencies() / (2 * np.pi / 3.0)).astype(int)
        for kk in k:
            if kk != -8:  # Nyquist has no mirror
                assert -kk in k

    def test_cell_volume(self):
        g = make_grid(3, 8, 2.0)
        assert np.isclose(g.cell_volume, (2.0 / 8) ** 3)


class TestSynthesize:
    def test_plane_wave_is_single_mode(self):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, PlaneWave(k=(1, 0)))
        assert np.allclose(f.data, np.exp(1j * g.coordinates[0]))
        spec = f.to_spectral().data
        nonzero = np.abs(spec) > 1e-10 * np.abs(spec).max()
        assert nonzero.sum() == 1
        assert nonzero[1, 0]

    def test_gaussian_bump_mass_concentrated(self):
        # direct-summation oracle: width L/24 keeps all but <1e-8 of the
        # mass inside the central half-box (6 sigma to the boundary)
        g = make_grid(2, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=g.L / 24))
        data = f.data.real
        assert np.all(data > 0)
        sl = (slice(16, 48),) * 2
        inside = data[sl].sum()
        assert inside / data.sum() >= 1 - 1e-8
        peak = np.unravel_index(np.argmax(data), data.shape)
        assert peak == (32, 32)

    def test_bump_width_guard(self):
        g = make_grid(1, 64, 2 * np.pi)
        with pytest.raises(PreconditionError):
            synthesize_field(g, GaussianBump(width=g.L / 3))

    def test_random_bandlimited_support_and_mean(self):
        g = make_grid(2, 128, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=7, j_min=2, j_max=4))
        spec = f.to_spectral().data
        absxi = g.abs_freq
        outside = (absxi < 2**2) | (absxi > 2**5)
        # supported in the annulus by construction; outside content is
        # transform round-trip dust at machine precision
        out_energy = np.sum(np.abs(spec[outside]) ** 2)
        assert out_energy <= 1e-28 * np.sum(np.abs(spec) ** 2)
        assert abs(spec[0, 0]) < 1e-16
        assert np.max(np.abs(f.data.imag)) <= 1e-12 * np.max(np.abs(f.data))

    def test_random_bandlimited_nyquist_guard(self):
        g = make_grid(1, 16, 2 * np.pi)
        with pytest.raises(PreconditionError):
            synthesize_field(g, RandomBandlimited(seed=0, j_min=1, j_max=3))

    def test_random_bumps_zero_mean_and_localized(self):
        g = make_grid(2, 64, 2 * np.pi)
        f = synthesize_field(
            g, RandomBumps(seed=3, width=g.L / 26, spread=g.L / 20, count=4)
        )
        assert abs(f.to_spectral().data[0, 0]) < 1e-14
        assert contamination(f) < 1e-6

    def test_recipe_parameters_rejected_by_name(self):
        g = make_grid(2, 64, 2 * np.pi)
        cases = [
            (lambda: WavePackets(seed=0, carrier=INF, width=0.3), "carrier = inf"),
            (lambda: WavePackets(seed=0, carrier=5.0, width=0.3, spread=INF), "spread = inf"),
            (lambda: RandomBumps(seed=0, width=0.3, spread=INF), "spread = inf"),
            (lambda: RandomBumps(seed=0, width=0.3, spread=-1.0), "spread = -1.0"),
            # an empty band: rendered, it would be 0/0
            (lambda: synthesize_field(g, RandomBandlimited(seed=0, j_min=5, j_max=3)),
             "j_min = 5, j_max = 3"),
        ]
        for build, named in cases:
            with pytest.raises(PreconditionError, match=named):
                build()

    def test_determinism(self):
        g = make_grid(2, 32, 2 * np.pi)
        a = synthesize_field(g, RandomBandlimited(seed=12, j_min=1, j_max=2))
        b = synthesize_field(g, RandomBandlimited(seed=12, j_min=1, j_max=2))
        assert np.array_equal(a.data, b.data)


class TestTransform:
    def test_round_trip(self):
        g = make_grid(2, 32, 5.0)
        f = synthesize_field(g, GaussianBump(width=0.5))
        back = f.to_spectral().to_physical()
        assert np.max(np.abs(back.data - f.data)) < 1e-12 * np.max(np.abs(f.data))

    @pytest.mark.parametrize("imag", [0.0, 1e-14, 0.5])
    def test_field_transforms_are_series_transforms(self, fft_count, imag):
        """A Field transforms as a one-sample series: one `rfftn` and one
        `irfftn`, complex data as its (re, im) parts, and no complex
        `fftn`/`ifftn`.  Data within `is_real`'s bound comes back real."""
        g = make_grid(2, 32, 2 * np.pi)
        bump = synthesize_field(g, GaussianBump(width=0.4)).data
        f = Field(g, bump + 1j * imag * bump[::-1])
        fft_count.clear()
        spec = f.to_spectral()
        back = spec.to_physical()
        assert (fft_count["fftn"], fft_count["ifftn"]) == (0, 0)
        assert (fft_count["rfftn"], fft_count["irfftn"]) == (1, 1)
        want = complex_dft.forward(f.data, g)
        assert np.max(np.abs(spec.data - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.max(np.abs(back.data - f.data)) <= 1e-14 * np.max(np.abs(f.data))
        assert np.all(back.data.imag == 0) == (imag < 1e-12)

    def test_real_field_has_conjugate_symmetric_spectrum(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.4))
        spec = f.to_spectral().data
        # numerically check fhat(-k) == conj(fhat(k))
        rev = spec
        for ax in range(2):
            rev = np.roll(np.flip(rev, axis=ax), 1, axis=ax)
        assert np.max(np.abs(spec - np.conj(rev))) < 1e-12 * np.max(np.abs(spec))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        N=st.sampled_from([8, 16, 32]),
        L=st.floats(0.5, 50.0),
        seed=st.integers(0, 1000),
    )
    def test_parseval(self, n, N, L, seed):
        g = make_grid(n, N, L)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        assert abs(lp_norm(f, 2) / l2_spectral(f) - 1) < 1e-13

    def test_translation_covariance(self):
        g = make_grid(1, 64, 2 * np.pi)
        f = synthesize_field(g, GaussianBump(width=0.4))
        rolled = Field(g, np.roll(f.data, 1))
        # physical shift by one cell = exact permutation; spectral side
        # picks up the phase exp(-i xi h)
        spec = f.to_spectral().data
        shifted_spec = rolled.to_spectral().data
        phase = np.exp(-1j * g.axis_frequencies() * g.spacing)
        assert np.max(np.abs(shifted_spec - spec * phase)) < 1e-12 * np.max(np.abs(spec))


class TestDilation:
    def test_recipe_dilation_contracts(self):
        g = make_grid(2, 128, 2 * np.pi)
        base = GaussianBump(width=g.L / 21)
        f1 = synthesize_field(g, base)
        f2 = synthesize_field(g, base.dilated(2))
        # f2(x) = f1(c + 2(x-c)): check at a sample point
        idx = (70, 64)
        x = [g.coordinates[d][idx] for d in range(2)]
        y = [g.L / 2 + 2 * (xi - g.L / 2) for xi in x]
        iy = tuple(int(round(v / g.spacing)) % g.N for v in y)
        assert np.isclose(f2.data[idx].real, f1.data[iy].real, atol=1e-12)

    def test_spectral_remap_preserves_torus_norms(self):
        g = make_grid(2, 64, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=4, j_min=1, j_max=2))
        d = dilate_spectrum(f, 2)
        assert abs(lp_norm(d, 2) - lp_norm(f, 2)) < 1e-10
        # g(x_i) = f(2 x_i): the sample at 2i mod N, so 2^n tiled copies
        assert np.array_equal(d.data, np.tile(f.data[::2, ::2], (2, 2)))
        ds = dilate_spectrum(f.to_spectral(), 2)
        assert ds.representation == "spectral"
        assert np.max(np.abs(ds.to_physical().data - d.data)) < 1e-14
        with pytest.raises(PreconditionError):
            dilate_spectrum(f, 16)  # band would cross Nyquist


class TestTimeSeries:
    def test_validation(self):
        g = make_grid(1, 8, 1.0)
        f = Field(g, np.zeros(8))
        with pytest.raises(PreconditionError):
            TimeSeries(np.array([0.0, 0.0]), [f, f])
        with pytest.raises(PreconditionError):
            TimeSeries(np.array([-1.0, 0.0]), [f, f])

    @pytest.mark.parametrize("times", [[0.0, NAN], [NAN, 1.0], [0.0, INF]])
    def test_rejects_non_finite_times(self, times):
        g = make_grid(1, 8, 1.0)
        f = Field(g, np.zeros(8))
        with pytest.raises(PreconditionError, match="times must be finite"):
            TimeSeries(np.array(times), [f, f])
        with pytest.raises(PreconditionError, match="times must be finite"):
            TimeSeries.from_data(g, times, np.zeros((2, 8)), "physical")

    @pytest.mark.parametrize("T", [INF, NAN, 0.0, -1.0])
    def test_uniform_times_rejects_bad_horizon(self, T):
        with pytest.raises(PreconditionError, match=f"time horizon T = {T}"):
            uniform_times(T, 4)

    @pytest.mark.parametrize(
        "args, named",
        [((1e-3, INF), "t_max = inf"), ((1e-3, NAN), "t_max = nan"),
         ((0.0, 1.0), "t_min = 0.0"), ((1e-3, 1.0, NAN), "ratio = nan")],
    )
    def test_geometric_times_rejects_bad_range(self, args, named):
        with pytest.raises(PreconditionError, match=named):
            geometric_times(*args)

    def test_geometric_times_anchored(self):
        # anchored at t_min: enlarging t_max only appends samples
        a = geometric_times(1e-3, 1.0)
        b = geometric_times(1e-3, 2.0)
        assert np.allclose(a[:-1], b[: len(a) - 1])
        assert a[-1] == 1.0 and b[-1] == 2.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = make_grid(2, 16, 3.5)
        f = synthesize_field(g, GaussianBump(width=0.3))
        path = tmp_path / "f.frsf"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == g
        assert back.representation == f.representation
        assert np.array_equal(back.data, f.data)

    def test_header_layout(self, tmp_path):
        g = make_grid(1, 8, 2.0)
        f = Field(g, np.arange(8, dtype=complex))
        path = tmp_path / "f.frsf"
        write_field(f, path)
        raw = path.read_bytes()
        assert raw[:4] == b"FRSF"
        assert len(raw) == 32 + 16 * 8  # header + interleaved doubles
        import struct

        magic, version, n, N, L, rep = struct.unpack_from("<4sIIIdB", raw, 0)
        assert (version, n, N, L, rep) == (1, 1, 8, 2.0, 0)

    def test_payload_is_little_endian_re_im_pairs(self, tmp_path):
        # signed zeros and non-finite values are written as they are
        g = make_grid(2, 16, 3.5)
        rng = np.random.default_rng(0)
        data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        data[0, :4] = [complex(-0.0, -0.0), complex(np.inf, -np.inf), complex(np.nan, 1.0),
                       complex(-0.0, 2.0)]
        path = tmp_path / "f.frsf"
        write_field(Field(g, data), path)
        pairs = np.stack([data.real, data.imag], axis=-1).astype("<f8")
        assert path.read_bytes()[32:] == pairs.tobytes()

    def test_spectral_read_is_bitwise_and_writeable(self, tmp_path):
        g = make_grid(2, 16, 3.5)
        f = synthesize_field(g, GaussianBump(width=0.3)).to_spectral()
        f.data[1, 2], f.data[2, 1] = complex(-0.0, 0.5), complex(0.25, -0.0)
        path = tmp_path / "f.frsf"
        write_field(f, path)
        back = read_field(path)
        assert back.representation == "spectral" and back.data.flags.writeable
        assert back.data.tobytes() == f.data.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.frsf"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(PreconditionError):
            read_field(path)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_inner_product_matches_l2(seed):
    g = make_grid(1, 64, 2 * np.pi)
    f = synthesize_field(g, RandomBandlimited(seed=seed, j_min=1, j_max=3))
    assert np.isclose(inner_product(f, f).real, lp_norm(f, 2) ** 2, rtol=1e-12)


class TestArrayBackedSeries:
    def test_stacked_list_round_trips_snapshots(self):
        # real data comes back without its roundoff imaginary part, complex
        # data rejoined from its (re, im) parts
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=2, j_min=1, j_max=2))
        wave = synthesize_field(g, PlaneWave(k=(1, 2)))
        times = np.array([0.0, 0.1, 0.3])
        for base, parts in ((f, 1), (Field(g, f.data + 0.5j * wave.data), 2)):
            scalars = [Field(g, (k + 1.0) * base.data) for k in range(3)]
            vectors = [
                VectorField((s.to_spectral(), Field(g, -s.data).to_spectral()))
                for s in scalars
            ]
            for snaps in (scalars, vectors):
                series = TimeSeries(times, snaps)
                assert series.representation == snaps[0].representation
                assert series.parts == parts
                for got, want in zip(series.snapshots, snaps):
                    assert type(got) is type(want)
                    assert got.representation == want.representation
                    assert got.data.shape == want.data.shape
                    err = np.max(np.abs(got.data - want.data))
                    assert err <= 1e-15 * np.max(np.abs(want.data))

    def test_mixed_representations_stack_spectral(self):
        g = make_grid(1, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=5, j_min=1, j_max=2))
        series = TimeSeries(np.array([0.0, 1.0]), [f, f.to_spectral()])
        assert series.representation == "spectral"
        assert np.array_equal(series.data[0], f.to_spectral().data[: g.N // 2 + 1])


class TestRealStorage:
    """Every series stores float64 physical samples or half spectra; complex
    data is stored as its (re, im) parts."""

    def test_width_follows_realness(self):
        g = make_grid(2, 16, 2 * np.pi)
        half, full = np.zeros((2, 16, 9)), np.zeros((2, 16, 16))
        series = TimeSeries.from_data(g, [0.0, 1.0], half)
        assert series.parts == 1 and series.data.shape == (2, 16, 9)
        assert TimeSeries.from_data(g, [0.0, 1.0], full).data.shape == (2, 16, 9)
        assert TimeSeries.from_data(g, [0.0, 1.0], full, "physical").data.shape == (2, 16, 16)
        with pytest.raises(PreconditionError, match=r"width 9, not 16 \(N, or N//2\+1"):
            TimeSeries.from_data(g, [0.0, 1.0], half, "physical")
        with pytest.raises(PreconditionError, match="width 12, not 16 or 9"):
            TimeSeries.from_data(g, [0.0, 1.0], np.zeros((2, 16, 12)))
        with pytest.raises(PreconditionError, match="holds no 2 parts"):
            TimeSeries.from_data(g, [0.0, 1.0], half, parts=2)
        with pytest.raises(PreconditionError, match="split at entry"):
            TimeSeries.from_data(g, [0.0, 1.0], np.zeros((2, 2, 16, 16)), parts=2)

    def test_realness_is_fixed_at_construction(self):
        g = make_grid(1, 16, 2 * np.pi)
        series = TimeSeries.from_data(g, [0.0], np.zeros((1, 16)))
        with pytest.raises(AttributeError):
            series.parts = 2
        assert series.parts == 1

    def test_real_physical_samples_are_float64(self):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=3, j_min=1, j_max=1))
        data = np.stack([f.data, 2 * f.data])
        assert data.dtype == np.complex128 and np.max(np.abs(data.imag)) > 0
        phys = TimeSeries.from_data(g, [0.0, 1.0], data, "physical")
        assert phys.data.dtype == np.float64 and phys.parts == 1
        assert np.array_equal(phys.data, data.real)
        spec = phys.to_spectral()
        assert spec.parts == 1 and spec.data.shape == (2, 16, 9)
        assert spec.to_physical().data.dtype == np.float64

    @pytest.mark.parametrize("n, comps", [(1, ()), (2, ()), (2, (3,)), (1, (1,))])
    def test_complex_data_splits_into_parts(self, n, comps):
        # the parts get their own axis 1, so a 1-component vector keeps its shape
        g = make_grid(n, 16, 2 * np.pi)
        rng = np.random.default_rng(n + (comps or (1,))[0])
        shape = (3, *comps, *g.shape)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        phys = TimeSeries.from_data(g, [0.0, 1.0, 2.0], data, "physical")
        assert phys.parts == 2 and phys.data.shape == (3, 2, *comps, *g.shape)
        assert np.array_equal(phys.data, np.stack((data.real, data.imag), axis=1))
        spec = TimeSeries.from_data(g, phys.times, np.fft.fftn(data, axes=range(-n, 0)))
        assert spec.parts == 2
        want = np.fft.rfftn(phys.data, axes=range(-n, 0))
        assert np.max(np.abs(spec.data - want)) <= 1e-14 * np.max(np.abs(want))
        for got, d in zip(phys.snapshots, data):
            assert np.array_equal(got.data, d)
        fields = TimeSeries(phys.times, [Field(g, d) for d in data])
        assert [f.data.shape for f in fields.snapshots] == [data.shape[1:]] * 3

    def test_physical_series_combine_in_physical_form(self):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=3, j_min=1, j_max=1)).data
        a = TimeSeries.from_data(g, [0.0, 1.0], np.stack([f, 3 * f]), "physical")
        b = TimeSeries.from_data(g, [0.0, 1.0], np.stack([2 * f, f]).real, "physical")
        for x, y in ((a, a), (a, b), (b, a)):
            diff = x - y
            assert diff.representation == "physical" and diff.parts == 1
            assert np.array_equal(diff.data, x.data - y.data)
        want = (a.to_spectral() - b.to_spectral()).to_physical().data
        assert np.max(np.abs((a - b).data - want)) <= 1e-14 * np.max(np.abs(want))
        wave = np.exp(1j * g.coordinates[0])
        w = TimeSeries.from_data(g, [0.0, 1.0], np.stack([wave, wave]), "physical")
        with pytest.raises(PreconditionError, match="series of 1 and 2 parts"):
            a - w


def _series(g, stack, representation):
    times = np.arange(len(stack), dtype=float)
    return TimeSeries.from_data(g, times, stack, representation)


class TestIsReal:
    """One 1e-12 realness rule: `is_real` answers it, and data that fails it
    is stored as (re, im) parts, which `require_one_part` rejects."""

    def test_physical_and_spectral_agree(self):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=3, j_min=1, j_max=1)).data
        for eps, real in ((0.0, True), (1e-13, True), (1e-11, False)):
            stack = np.stack([f, f * (1 + 1j * eps)])
            spec = np.fft.fftn(stack, axes=(-2, -1))
            assert is_real(stack, g, "physical") is real
            assert is_real(spec, g, "spectral") is real
            if not real:
                with pytest.raises(PreconditionError, match="data x must be a real field"):
                    require_one_part(_series(g, stack, "physical"), "data x")

    def test_plane_wave_is_complex(self):
        g = make_grid(1, 8, 2 * np.pi)
        wave = synthesize_field(g, PlaneWave(k=(1,)))
        assert not is_real(wave.data[None], g, "physical")
        assert not is_real(wave.to_spectral().data[None], g, "spectral")
        assert is_real(wave.data[None].real, g, "physical")

    @pytest.mark.parametrize("bad", [complex(1, np.nan), complex(1, np.inf)])
    def test_non_finite_physical_sample_is_not_real(self, bad):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=3, j_min=1, j_max=1)).data
        stack = np.stack([f, f.copy()])
        stack[1, 3, 5] = bad
        assert not is_real(stack, g, "physical")
        named = "data x must be a real field: it holds non-finite values"
        with pytest.raises(PreconditionError, match=named):
            require_one_part(_series(g, stack, "physical"), "data x")

    def test_non_finite_spectral_sample_is_not_real(self):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=3, j_min=1, j_max=1))
        spec = f.to_spectral().data[None].copy()
        assert is_real(spec, g, "spectral")
        spec[0, 2, 1] = np.nan
        assert not is_real(spec, g, "spectral")
        with pytest.raises(PreconditionError, match="non-finite values"):
            require_one_part(_series(g, spec, "spectral"), "data x")

    def test_complex_finite_data_is_not_called_non_finite(self):
        g = make_grid(1, 8, 2 * np.pi)
        wave = synthesize_field(g, PlaneWave(k=(1,)))
        with pytest.raises(PreconditionError, match="parts of complex data$"):
            require_one_part(_series(g, wave.data[None], "physical"), "data x")


class TestVectorField:
    """A vector is one `Field` with a leading component axis."""

    def comps(self, n):
        g = make_grid(n, 16, 2 * np.pi)
        return [
            synthesize_field(g, RandomBandlimited(seed=s, j_min=1, j_max=1))
            for s in (1, 2)
        ]

    @pytest.mark.parametrize("rep", ["physical", "spectral"])
    def test_stacks_and_round_trips_components(self, rep):
        comps = [c if rep == "physical" else c.to_spectral() for c in self.comps(2)]
        v = VectorField(comps)
        assert type(v) is Field and v.representation == rep
        assert np.array_equal(v.data, np.stack([c.data for c in comps]))
        assert len(v.components) == 2
        for got, want in zip(v.components, comps):
            assert got.grid == want.grid and got.representation == rep
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transforms_equal_per_component_bitwise(self, n):
        comps = self.comps(n)
        spec = VectorField(comps).to_spectral()
        assert np.array_equal(spec.data, np.stack([c.to_spectral().data for c in comps]))
        phys = spec.to_physical()
        assert phys.representation == "physical"
        want = [c.to_spectral().to_physical().data for c in comps]
        assert np.array_equal(phys.data, np.stack(want))

    def test_mixed_grid_or_representation_rejected(self):
        a, b = self.comps(2)
        with pytest.raises(PreconditionError, match="share grid and representation"):
            VectorField([a, b.to_spectral()])
        other = synthesize_field(make_grid(2, 32, 2 * np.pi), GaussianBump(width=0.3))
        with pytest.raises(PreconditionError, match="share grid and representation"):
            VectorField([a, other])

    def test_helpers_read_the_trailing_grid_axes(self, tmp_path):
        g = make_grid(2, 32, 2 * np.pi)
        bump = synthesize_field(g, GaussianBump(width=0.6))
        assert contamination(VectorField([bump, bump])) == contamination(bump)
        zero_mean = synthesize_field(g, RandomBandlimited(seed=1, j_min=1, j_max=2))
        require_zero_mean(VectorField([zero_mean, zero_mean]), "test")
        with pytest.raises(PreconditionError, match="zero-mean"):
            require_zero_mean(VectorField([zero_mean, bump]), "test")
        with pytest.raises(PreconditionError, match="one scalar field"):
            write_field(VectorField([bump, bump]), tmp_path / "v.frsf")

    def test_shape_off_grid_rejected(self):
        g = make_grid(2, 16, 2 * np.pi)
        for shape in ((16,), (2, 8, 16), (2, 2, 16, 16)):
            with pytest.raises(PreconditionError, match="does not match grid"):
                Field(g, np.zeros(shape))


class TestFieldFileValidation:
    def test_truncated_payload_rejected(self, tmp_path):
        g = make_grid(2, 16, 3.5)
        path = tmp_path / "f.frsf"
        write_field(synthesize_field(g, GaussianBump(width=0.3)), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(PreconditionError, match="payload"):
            read_field(path)

    def test_non_finite_values_rejected(self, tmp_path):
        g = make_grid(1, 8, 2.0)
        data = np.arange(8, dtype=complex)
        data[3] = np.nan
        path = tmp_path / "f.frsf"
        write_field(Field(g, data), path)
        with pytest.raises(PreconditionError, match="non-finite"):
            read_field(path)
