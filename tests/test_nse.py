"""Leray projection, bilinear operator, Picard and potential solvers."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import complex_dft

from fracheat import (
    ConvergenceError,
    Field,
    GaussianBump,
    NormSpec,
    PlaneWave,
    PreconditionError,
    RandomBandlimited,
    TimeSeries,
    VectorField,
    bilinear_form,
    divergence,
    leray_project,
    lp_norm,
    make_grid,
    mixed_norm,
    perturbed_taylor_green,
    regularity_check,
    solve_nse_picard,
    solve_potential_eq,
    synthesize_field,
    taylor_green,
)
from fracheat.grid import (
    PHYSICAL,
    SPECTRAL,
    _dft,
    _hermitian_fill,
    sample_chunks,
    uniform_times,
)
import fracheat.grid
from fracheat import nse, norms
from fracheat.nse import _fixed_point, _leray, _tensor_divergence, dealias_mask
from fracheat.semigroup import axis_derivative, duhamel, semigroup_series


def random_vector(g, seed, j_max=2):
    comps = [
        synthesize_field(g, RandomBandlimited(seed=seed + 11 * c, j_min=1, j_max=j_max))
        for c in range(g.n)
    ]
    return VectorField(tuple(comps))


class TestLeray:
    def test_kills_gradients(self):
        g = make_grid(2, 32, 2 * np.pi)
        phi = synthesize_field(g, RandomBandlimited(seed=1, j_min=1, j_max=2))
        grad = VectorField(tuple(axis_derivative(phi, j) for j in range(2)))
        out = leray_project(grad)
        assert max(lp_norm(c, 2) for c in out.components) < 1e-12

    def test_preserves_divergence_free(self):
        g = make_grid(2, 32, 2 * np.pi)
        tg = taylor_green(g, 0.8)
        out = leray_project(tg).to_physical()
        for a, b in zip(out.components, tg.components):
            assert np.max(np.abs(a.data - b.data)) < 1e-12

    def test_idempotent(self):
        g = make_grid(2, 32, 2 * np.pi)
        u = random_vector(g, 3)
        once = leray_project(u).to_spectral()
        twice = leray_project(once).to_spectral()
        for a, b in zip(once.components, twice.components):
            assert np.max(np.abs(a.data - b.data)) < 1e-12

    def test_output_divergence_free(self):
        g = make_grid(3, 32, 2 * np.pi)
        u = random_vector(g, 4)
        out = leray_project(u)
        assert lp_norm(divergence(out), 2) < 1e-12


class TestDivergence:
    def test_taylor_green(self):
        g = make_grid(2, 32, 2 * np.pi)
        assert lp_norm(divergence(taylor_green(g, 1.0)), 2) < 1e-12

    def test_gradient_gives_laplacian(self):
        g = make_grid(2, 32, 2 * np.pi)
        phi = synthesize_field(g, RandomBandlimited(seed=5, j_min=1, j_max=2))
        grad = VectorField(tuple(axis_derivative(phi, j) for j in range(2)))
        div = divergence(grad).to_spectral()
        lap = Field(g, -g.abs_freq**2 * phi.to_spectral().data, "spectral")
        assert np.max(np.abs(div.data - lap.data)) < 1e-12

    def test_zero(self):
        g = make_grid(2, 16, 1.0)
        z = VectorField(tuple(Field(g, np.zeros(g.shape)) for _ in range(2)))
        assert lp_norm(divergence(z), 2) == 0.0


class TestComplexVectorOperators:
    """`leray_project` and `divergence` run complex vector Fields as their
    (re, im) parts on the half lattice; both are linear, so the result is
    numpy's full-lattice complex one."""

    @staticmethod
    def oracle(u, op):
        g = u.grid
        axes = tuple(range(-g.n, 0))
        uh, xi = np.fft.fftn(u.to_physical().data, axes=axes), g.deriv_frequencies
        if op == "divergence":
            out = sum(1j * x * c for x, c in zip(xi, uh))
        else:
            q2 = sum(x**2 for x in xi)
            factor = sum(x * c for x, c in zip(xi, uh)) / np.where(q2 > 0, q2, np.inf)
            out = np.stack([c - x * factor for x, c in zip(xi, uh)])
        return np.fft.ifftn(out, axes=axes)

    @pytest.mark.parametrize("n, N", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("rep", ["physical", "spectral"])
    def test_matches_full_lattice(self, n, N, rep):
        g = make_grid(n, N, 2 * np.pi)
        rng = np.random.default_rng(n)  # random data: the Nyquist planes carry energy
        shape = (n, *g.shape)
        u = Field(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        u = u if rep == "physical" else u.to_spectral()
        for op, f in (("leray", leray_project), ("divergence", divergence)):
            got = f(u)
            want = self.oracle(u, op)
            assert got.representation == rep and got.data.shape == want.shape
            err = np.max(np.abs(got.to_physical().data - want))
            assert err <= 1e-13 * np.max(np.abs(want))

    def test_other_shapes_rejected(self):
        # a vector's components are read on axis -(n+1): a scalar has none
        g = make_grid(2, 16, 2 * np.pi)
        for u in (Field(g, np.cos(g.coordinates[0])), Field(g, np.zeros((3, *g.shape)))):
            for op in (leray_project, divergence):
                with pytest.raises(PreconditionError, match="is not a 2-vector"):
                    op(u)
            with pytest.raises(PreconditionError, match="initial velocity g of shape"):
                solve_nse_picard(u, None, 1.0, 0.5, 4.0, 4.0, nodes=8, c_est=0.1)


class TestBilinear:
    @pytest.mark.parametrize("shape", [(3, 16, 16), (16, 16)], ids=["3-vector", "scalar"])
    @pytest.mark.parametrize("which", ["u", "v"])
    def test_projected_tensor_divergence_rejects_other_shapes(self, shape, which):
        # as `leray_project`: a 3-vector on a 2-D grid is not dropped to 2
        # components, and a scalar fails by name, not in numpy broadcasting
        g = make_grid(2, 16, 2 * np.pi)
        good, bad = random_vector(g, 3, j_max=1), Field(g, np.ones(shape))
        u, v = (bad, good) if which == "u" else (good, bad)
        with pytest.raises(PreconditionError, match=f"velocity {which} of shape .* not a 2-vector"):
            nse.projected_tensor_divergence(u, v)

    def test_dealias_mask_built_once_per_grid(self):
        # GridSpec is frozen, so it keys one shared, read-only mask
        g = make_grid(2, 32, 2 * np.pi)
        mask = dealias_mask(g)
        assert dealias_mask(make_grid(2, 32, 2 * np.pi)) is mask
        assert dealias_mask(make_grid(2, 32, 4.0)) is not mask
        assert not mask.flags.writeable
        k = np.abs(np.rint(np.fft.fftfreq(32) * 32))
        assert np.array_equal(mask, (k[:, None] < 32 / 3) & (k[None, :] < 32 / 3))

    @pytest.mark.parametrize("same", [True, False], ids=["B(u, u)", "B(u, v)"])
    def test_chunked_march_keeps_the_bits(self, monkeypatch, same):
        # the nonlinearity and the in-place march cut into chunks of 1 and 3
        # samples give the one-chunk B(u, v)
        g = make_grid(2, 16, 2 * np.pi)
        times = uniform_times(0.5, 12)
        u = real_series(g, 3, times, j_max=1)
        v = u if same else real_series(g, 4, times, j_max=1)
        sample = 2 * 16 * g.N * g.N  # a 2-vector half spectrum, counted on the full lattice
        monkeypatch.setattr(fracheat.grid, "CHUNK_BYTES", 1 << 40)
        whole = bilinear_form(u, v, 1.0).data
        for per_chunk in (1, 3):
            monkeypatch.setattr(fracheat.grid, "CHUNK_BYTES", per_chunk * sample)
            assert np.array_equal(bilinear_form(u, v, 1.0).data, whole)

    def test_zero_input(self):
        g = make_grid(2, 16, 2 * np.pi)
        times = uniform_times(1.0, 8)
        z = VectorField(tuple(Field(g, np.zeros(g.shape)) for _ in range(2)))
        Z = TimeSeries(times, [z.copy() for _ in times])
        out = bilinear_form(Z, Z, 1.0)
        assert mixed_norm(out, 4, 4) == 0.0

    def test_single_mode_oracle(self):
        # hand-computed interaction of the real modes cos x and cos 2y
        g = make_grid(2, 32, 2 * np.pi)
        times = uniform_times(1.0, 16)
        x, y = g.coordinates
        zero = Field(g, np.zeros(g.shape))
        u = VectorField((zero.copy(), Field(g, np.cos(x))))
        v = VectorField((Field(g, np.cos(2 * y)), zero.copy()))
        U = TimeSeries(times, [u.copy() for _ in times])
        V = TimeSeries(times, [v.copy() for _ in times])
        B = bilinear_form(U, V, 1.0)
        # w = P div(u x v) lives on the modes (+-1, +-2), |k|^2 = 5:
        # w_pre = (d_y(cos x cos 2y), 0) = (-2 cos x sin 2y, 0), projected
        # w = (-8/5 cos x sin 2y, 4/5 sin x cos 2y); constant-in-s forcing
        # integrates to the factor (1 - e^{-5t}) / 5
        t = 1.0
        fac = (1 - np.exp(-5 * t)) / 5
        got = B.snapshots[-1].to_physical()
        want = (-8 / 5 * np.cos(x) * np.sin(2 * y), 4 / 5 * np.sin(x) * np.cos(2 * y))
        for c, w in zip(got.components, want):
            assert np.max(np.abs(c.data - fac * w)) < 1e-8

    def test_output_divergence_free(self):
        g = make_grid(2, 32, 2 * np.pi)
        times = uniform_times(0.5, 8)
        u = semigroup_series(leray_project(random_vector(g, 7)), times, 1.0)
        B = bilinear_form(u, u, 1.0)
        for s in B.snapshots:
            assert lp_norm(divergence(s), 2) < 1e-12

    def test_time_grid_mismatch(self):
        g = make_grid(2, 16, 2 * np.pi)
        z = VectorField(tuple(Field(g, np.zeros(g.shape)) for _ in range(2)))
        A = TimeSeries(uniform_times(1.0, 4), [z.copy() for _ in range(5)])
        B = TimeSeries(uniform_times(2.0, 4), [z.copy() for _ in range(5)])
        with pytest.raises(PreconditionError):
            bilinear_form(A, B, 1.0)


def _tensor_divergence_oracle(u, v):
    """Per-snapshot spectral P div(u x v) by the direct physical-space
    recipe: every factor transformed separately, all n^2 products formed,
    the divergence assembled in physical space and projected per mode
    (about 20 transforms per snapshot for n = 2)."""
    g = u.grid
    mask = dealias_mask(g)
    xi = g.deriv_frequencies
    uphys = [np.fft.ifftn(np.fft.fftn(c.to_physical().data) * mask) for c in u.components]
    vphys = [np.fft.ifftn(np.fft.fftn(c.to_physical().data) * mask) for c in v.components]
    out = []
    for j in range(g.n):
        acc = np.zeros(g.shape, dtype=np.complex128)
        for k in range(g.n):
            acc += 1j * xi[k] * np.fft.fftn(uphys[k] * vphys[j]) * mask
        out.append(Field(g, np.fft.ifftn(acc), "physical").to_spectral().data)
    q2 = sum(x**2 for x in xi)
    dot = sum(x * d for x, d in zip(xi, out))
    factor = np.where(q2 > 0, dot / np.where(q2 > 0, q2, 1.0), 0.0)
    return np.stack([d - x * factor for d, x in zip(out, xi)])


class TestStackedNonlinearity:
    @pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("same", [True, False])
    def test_matches_per_snapshot_oracle(self, n, N, same):
        g = make_grid(n, N, 2 * np.pi)
        times = uniform_times(0.5, 40)
        u = semigroup_series(leray_project(random_vector(g, 3, j_max=1)), times, 1.0)
        v = u if same else semigroup_series(
            leray_project(random_vector(g, 8, j_max=1)), times, 1.0
        )
        per_chunk = sample_chunks(u.data, grid=g)[0].stop
        assert 1 < per_chunk < len(u) and len(u) % per_chunk  # a ragged last chunk
        W = TimeSeries.from_data(g, times, [
            _tensor_divergence_oracle(a, b) for a, b in zip(u.snapshots, v.snapshots)
        ])
        want = duhamel(W, times, 1.0).data
        got = bilinear_form(u, v, 1.0).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("same, budget", [(True, 5), (False, 8)])
    def test_fft_budget(self, fft_count, same, budget):
        g = make_grid(2, 32, 2 * np.pi)
        times = uniform_times(0.5, 40)
        u = semigroup_series(leray_project(random_vector(g, 3)), times, 1.0)
        v = u if same else semigroup_series(leray_project(random_vector(g, 8)), times, 1.0)
        fft_count.clear()
        bilinear_form(u, v, 1.0)
        assert 0 < fft_count["points"] <= budget * len(times) * g.N**2

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        N=st.sampled_from([8, 16]),
        m=st.integers(1, 3),
        L=st.floats(0.5, 20.0),
        seed=st.integers(0, 2**16),
    )
    def test_leray_on_stacks(self, n, N, m, L, seed):
        g = make_grid(n, N, L)
        rng = np.random.default_rng(seed)
        shape = (m, n, *g.shape)
        uh = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        once = _leray(uh, g)
        scale = np.max(np.abs(uh))
        assert np.max(np.abs(_leray(once, g) - once)) <= 1e-13 * scale
        div = sum(1j * x * once[:, k] for k, x in enumerate(g.deriv_frequencies))
        assert np.max(np.abs(div)) <= 1e-13 * scale * g.nyquist
        zero = (slice(None), slice(None)) + (0,) * n
        assert np.array_equal(once[zero], uh[zero])


def fixed_point(apply_map, v0, *args, **kwargs):
    """`_fixed_point` from v0, handed a new physical stack of v0 as a solver
    hands it the stack it made."""
    data = np.array(v0.to_physical().data)  # a copy, also of a physical v0
    phys = TimeSeries.from_data(v0.grid, v0.times, data, PHYSICAL, v0.parts)
    return _fixed_point(apply_map, v0, phys, *args, **kwargs)


def real_series(g, seed, times, j_max=2):
    """Free evolution of a projected random real velocity."""
    w = leray_project(random_vector(g, seed, j_max))
    return semigroup_series(w, times, 1.0)


def _mirror(spec, n):
    """spec at the negated wavenumbers: index k -> (-k) mod N on the last n axes."""
    neg = (-np.arange(spec.shape[-1])) % spec.shape[-1]
    for ax in range(spec.ndim - n, spec.ndim):
        spec = np.take(spec, neg, axis=ax)
    return spec


def assert_hermitian(spec, n):
    """fhat(-k) = conj(fhat(k)) to 1e-13 of the peak, Nyquist planes included."""
    defect = np.max(np.abs(spec - np.conj(_mirror(spec, n))))
    assert defect <= 1e-13 * np.max(np.abs(spec))


class TestRealPath:
    """Every series is real: velocities run on the half lattice with the
    real-to-complex transforms, complex data as its (re, im) parts, which
    the velocity operators reject."""

    def test_bilinear_takes_real_transforms(self, fft_count):
        g = make_grid(2, 32, 2 * np.pi)
        times = uniform_times(0.5, 40)
        u = real_series(g, 3, times)
        fft_count.clear()
        B = bilinear_form(u, u, 1.0)
        assert B.parts == 1 and B.data.shape == u.data.shape
        assert fft_count["fftn"] == fft_count["ifftn"] == 0
        assert fft_count["points"] <= 5 * len(times) * g.N**2
        # half spectra are chunked like the full ones: one batched inverse
        # and one batched forward transform per chunk
        chunks = len(sample_chunks(u.data, grid=g))
        assert chunks > 1 and fft_count["rfftn"] == fft_count["irfftn"] == chunks

    @pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("same", [True, False])
    def test_tensor_divergence_equals_complex(self, n, N, same):
        # the half-lattice nonlinearity against the complex per-snapshot oracle
        g = make_grid(n, N, 2 * np.pi)
        times = uniform_times(0.5, 6)
        u, v = (real_series(g, s, times, j_max=1) for s in (3, 8))
        want = np.stack([
            _tensor_divergence_oracle(a, a if same else b)
            for a, b in zip(u.snapshots, v.snapshots)
        ])
        got = _tensor_divergence(u.data, None if same else v.data, g)
        assert got.shape == (*want.shape[:-1], N // 2 + 1)
        assert np.max(np.abs(got - want[..., : N // 2 + 1])) <= 1e-13 * np.max(np.abs(want))

    def test_mixed_realness_equals_complex(self):
        # a real series meets a complex one only with a zero imaginary part
        # added; the result equals the complex sum and difference
        g = make_grid(2, 32, 2 * np.pi)
        times = uniform_times(0.5, 12)
        ur, u2 = real_series(g, 3, times), real_series(g, 8, times)
        v = TimeSeries(times, [
            Field(g, a.data + 1j * b.data, SPECTRAL) for a, b in zip(ur.snapshots, u2.snapshots)
        ])
        assert v.parts == 2
        with pytest.raises(PreconditionError, match="series of 1 and 2 parts"):
            ur + v
        ur2 = nse._in_parts(ur, 2)
        scale = np.max(np.abs(v.data))
        cases = ((ur2 + v, np.add), (ur2 - v, np.subtract), (v - ur2, lambda a, w: w - a))
        for got, op in cases:
            assert got.parts == 2
            for s, a, w in zip(got.snapshots, ur.snapshots, v.snapshots):
                assert np.max(np.abs(s.data - op(a.data, w.data))) <= 1e-14 * scale

    def test_two_part_velocity_rejected(self):
        # a complex scalar in 2-D is stored as 2 parts: the shape of a 2-vector
        g = make_grid(2, 16, 2 * np.pi)
        times = uniform_times(0.5, 8)
        wave = synthesize_field(g, PlaneWave(k=(1, 0)))
        w = TimeSeries(times, [wave] * len(times))
        assert w.parts == 2 and w.data.shape == (len(times), 2, *g.shape)
        u = real_series(g, 3, times, j_max=1)
        for a, b in ((w, u), (u, w), (w, w)):
            with pytest.raises(PreconditionError, match="bilinear form velocity . must be a real"):
                bilinear_form(a, b, 1.0)
        g0 = perturbed_taylor_green(g, 0.1)
        with pytest.raises(PreconditionError, match="forcing h must be a real field"):
            solve_nse_picard(g0, w, 1.0, 0.5, 4.0, 4.0, nodes=8, c_est=0.1)

    def test_real_snapshots_are_full_spectra(self):
        g = make_grid(2, 32, 2 * np.pi)
        times = uniform_times(0.5, 6)
        ur = real_series(g, 3, times)
        assert ur.data.shape == (len(times), 2, g.N, g.N // 2 + 1)
        phys = ur.to_physical()
        scale = np.max(np.abs(ur.data))
        for got, d in zip(ur.snapshots, phys.data):
            want = complex_dft.forward(d, g)
            assert got.representation == SPECTRAL
            assert got.data.shape == want.shape == (2, g.N, g.N)
            assert np.max(np.abs(got.data - want)) <= 1e-14 * scale

    def test_spectral_norms_of_real_series(self):
        # chunks(SPECTRAL) hands multiplier norms the half lattice as stored;
        # the oracle measures each filled snapshot as one Field
        g = make_grid(2, 32, 2 * np.pi)
        times = uniform_times(0.5, 6)
        ur = real_series(g, 3, times)
        for spec in (NormSpec("sobolev", s=1.0, p=4.0), NormSpec("besov", s=0.5, p=4.0)):
            vals = np.array([spec.compute(s) for s in ur.snapshots])
            want = float(np.trapezoid(vals**4, times) ** 0.25)
            assert abs(mixed_norm(ur, 4.0, spec) - want) <= 1e-13 * want

    def test_picard_rejects_complex_data(self):
        g = make_grid(2, 16, 2 * np.pi)
        wave = synthesize_field(g, PlaneWave(k=(0, 1)))  # e^{iy}: d_x of it is 0
        g0 = VectorField((wave, Field(g, np.zeros(g.shape))))
        assert lp_norm(divergence(g0), 2) < 1e-12
        with pytest.raises(PreconditionError, match="initial velocity g must be a real"):
            solve_nse_picard(g0, None, 1.0, 0.5, 4.0, 4.0, nodes=8, c_est=0.1)
        # a complex forcing, given in spectral form: the Hermitian-defect test
        real0 = perturbed_taylor_green(g, 0.1)
        times = uniform_times(0.5, 8)
        h = TimeSeries(times, [g0.to_spectral()] * len(times))
        with pytest.raises(PreconditionError, match="forcing h must be a real"):
            solve_nse_picard(real0, h, 1.0, 0.5, 4.0, 4.0, nodes=8, c_est=0.1)

    def test_picard_accepts_real_spectral_data(self):
        g = make_grid(2, 16, 2 * np.pi)
        g0 = perturbed_taylor_green(g, 0.3)
        times = uniform_times(0.5, 8)
        h = TimeSeries(times, [g0.to_spectral()] * len(times))
        assert h.parts == 1 and h.data.shape == (9, 2, g.N, g.N // 2 + 1)
        v, rep = solve_nse_picard(
            g0.to_spectral(), h, 1.0, 0.5, 4.0, 4.0, nodes=8, c_est=0.1
        )
        assert v.parts == 1 and rep.converged
        assert v.data.shape == (9, 2, g.N, g.N // 2 + 1)
        # the same data and forcing given in physical form
        hp = TimeSeries(times, [g0] * len(times))
        vp, _ = solve_nse_picard(g0, hp, 1.0, 0.5, 4.0, 4.0, nodes=8, c_est=0.1)
        assert np.max(np.abs(vp.data - v.data)) <= 1e-13 * np.max(np.abs(v.data))

    def test_regularity_keeps_real_path(self, fft_count):
        # against derivatives taken one snapshot and one axis at a time
        g = make_grid(2, 32, 2 * np.pi)
        times = uniform_times(0.5, 8)
        u = semigroup_series(perturbed_taylor_green(g, 1.0), times, 1.0)
        fft_count.clear()
        got = regularity_check(u, 2, 4, 4)
        assert fft_count["fftn"] == fft_count["ifftn"] == 0 and fft_count["irfftn"] > 0
        for multi in got:
            snaps = []
            for s in u.snapshots:
                comps = []
                for c in s.components:
                    for ax, m in enumerate(multi):
                        if m:
                            c = axis_derivative(c, ax, m)
                    comps.append(c)
                snaps.append(VectorField(comps))
            want = mixed_norm(TimeSeries(times, snaps), 4, 4)
            assert abs(got[multi] - want) <= 1e-13 * got[(0, 0)] + 1e-12 * want

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        N=st.sampled_from([8, 16, 32]),
        L=st.floats(0.5, 50.0),
        alpha=st.floats(0.3, 1.5),
        seed=st.integers(0, 2**16),
    )
    def test_real_fields_stay_hermitian(self, n, N, L, alpha, seed):
        g = make_grid(n, N, L)
        rng = np.random.default_rng(seed)
        phys = rng.standard_normal((2, n, *g.shape))  # Nyquist planes carry energy
        uh = complex_dft.forward(phys, g)  # full lattice
        assert_hermitian(uh, n)
        assert_hermitian(_leray(uh, g), n)
        assert_hermitian(divergence(Field(g, uh[0], SPECTRAL)).data, n)
        for ax in range(n):
            for order in (1, 2, 3):
                d = axis_derivative(Field(g, uh[0, 0], SPECTRAL), ax, order)
                assert_hermitian(d.data, n)
        times = [0.0, 0.5 * g.spacing ** (2 * alpha), g.spacing ** (2 * alpha)]
        for s in semigroup_series(Field(g, uh[0], SPECTRAL), times, alpha).snapshots:
            assert_hermitian(s.data, n)
        half = uh[..., : N // 2 + 1]
        for vh in (None, half[::-1]):
            assert_hermitian(_hermitian_fill(_tensor_divergence(half, vh, g), g), n)
        # the real transforms against the complex ones
        inverse = complex_dft.inverse(uh, g)
        real_inverse = _dft(half, g, "inverse")
        assert real_inverse.dtype == np.float64
        assert np.max(np.abs(real_inverse - inverse.real)) <= 1e-14 * np.max(np.abs(inverse))
        forward = _dft(phys, g, "forward")
        assert forward.shape[-1] == N // 2 + 1
        assert np.max(np.abs(forward - half)) <= 1e-14 * np.max(np.abs(uh))
        assert_hermitian(_hermitian_fill(forward, g), n)


class TestBilinearBound:
    def test_single_constant_bounds_fresh_samples(self):
        # the measured ensemble constant bounds out-of-sample pairs too
        from fracheat import estimate_bilinear_constant

        g = make_grid(2, 32, 2 * np.pi)
        alpha, T, q, p = 1.0, 0.5, 4.0, 4.0
        times = uniform_times(T, 16)
        c = estimate_bilinear_constant(g, alpha, T, q, p, times=times)
        assert np.isfinite(c) and c > 0
        for seed in (901, 902):
            u = semigroup_series(
                leray_project(random_vector(g, seed)), times, alpha
            )
            v = semigroup_series(
                leray_project(random_vector(g, seed + 50)), times, alpha
            )
            val = mixed_norm(bilinear_form(u, v, alpha), q, p)
            bound = c * mixed_norm(u, q, p) * mixed_norm(v, q, p)
            assert val <= 3.0 * bound


class TestFixedPoint:
    """The one fixed-point loop on the scalar affine map v -> b + c v,
    started from 0: v_k = (1 - c^k) / (1 - c) b, so the k-th residual is
    c^(k-1) (1 - c) / (1 - c^k) and each contraction ratio is
    c (1 - c^k) / (1 - c^(k+1))."""

    def affine(self, c):
        g = make_grid(1, 8, 2 * np.pi)
        times = uniform_times(1.0, 6)
        pw = synthesize_field(g, PlaneWave(k=(1,)))
        b = TimeSeries(times, [Field(g, np.exp(-t) * pw.data) for t in times])

        def apply_map(v, _phys):  # b is a plane wave: its (re, im) parts
            return b + TimeSeries.from_data(g, times, c * v.to_spectral().data, parts=2)

        return apply_map, TimeSeries.from_data(
            g, times, np.zeros_like(b.data), b.representation, parts=2
        )

    def test_ratios_approach_c(self):
        c = 0.5
        apply_map, zero = self.affine(c)
        v, residuals, converged, norm = fixed_point(apply_map, zero, 4, 4, 1e-8, 60)
        assert converged
        assert norm == mixed_norm(v, 4, 4)
        k = np.arange(1, len(residuals) + 1)
        # a step of size c^k is a difference of O(1) iterates: relative
        # rounding ~1e-16 / c^k, below 1e-7 while the residual exceeds 1e-8
        assert np.allclose(residuals, c ** (k - 1) * (1 - c) / (1 - c**k), rtol=1e-6)
        ratios = nse._contraction_ratios(residuals)
        k = k[:-1]
        assert np.allclose(ratios, c * (1 - c**k) / (1 - c ** (k + 1)), rtol=1e-6)
        assert abs(ratios[-1] - c) < 1e-6

    def test_max_factor_gives_up_at_third_iterate(self):
        apply_map, zero = self.affine(0.8)
        _, residuals, converged, _ = fixed_point(
            apply_map, zero, 4, 4, 1e-12, 40, max_factor=0.5
        )
        assert not converged
        assert len(residuals) == 3
        _, residuals, _, _ = fixed_point(apply_map, zero, 4, 4, 1e-12, 5)
        assert len(residuals) == 5  # no max_factor: runs on

    def test_zero_step_target_is_not_converged(self):
        apply_map, zero = self.affine(0.0)
        v0 = apply_map(zero, None)

        def to_zero(v, _phys):
            return TimeSeries.from_data(v.grid, v.times, np.zeros_like(v.data), parts=v.parts)

        _, residuals, converged, norm = fixed_point(to_zero, v0, 4, 4, 1e-6, 1)
        assert not converged
        assert norm == 0.0
        assert residuals == [mixed_norm(v0, 4, 4)]


class TestOnePhysicalPass:
    """`_fixed_point` brings each iterate to physical space once: its norm,
    its step and the potential map's product V v read the same samples."""

    def test_residual_is_norm_of_step(self):
        # the physical and the spectral difference agree to about eps / residual,
        # so large data keep the residuals above 1e-4
        g = make_grid(2, 16, 2 * np.pi)
        times = uniform_times(0.5, 12)
        small = real_series(g, 3, times, j_max=1)
        base = TimeSeries.from_data(g, times, 8 * small.data)
        iterates = [base]

        def apply_map(v, phys):
            iterates.append(base - bilinear_form(v, v, 1.0))
            return iterates[-1]

        _, residuals, _, norm = fixed_point(apply_map, base, 4, 4, 1e-14, 3)
        assert norm == mixed_norm(iterates[-1], 4, 4)
        for k, r in enumerate(residuals):
            step = mixed_norm(iterates[k + 1] - iterates[k], 4, 4)
            want = step / mixed_norm(iterates[k + 1], 4, 4)
            assert abs(r - want) <= 1e-12 * want

    def test_map_gets_physical_samples_of_its_argument(self):
        g = make_grid(2, 16, 2 * np.pi)
        times = uniform_times(0.5, 12)
        base = real_series(g, 3, times, j_max=1)

        def apply_map(v, phys):
            assert phys.representation == "physical" and phys.parts == 1
            assert phys.data.dtype == np.float64
            assert np.array_equal(phys.data, v.to_physical().data)
            return base - bilinear_form(v, v, 1.0)

        fixed_point(apply_map, base, 4, 4, 1e-14, 2)

    def test_potential_iteration_costs_one_transform_pair(self, fft_count):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=5, j_min=1, j_max=1))
        V = TimeSeries(np.array([0.0, 0.5]), [Field(g, np.full(g.shape, 1.0 + 0j))] * 2)
        points, iterations = [], []
        for tol in (1e-4, 1e-10):
            fft_count.clear()
            sol, rep = solve_potential_eq(f, None, V, alpha=1.0, T=0.5, nodes=16, tol=tol)
            # no complex transform anywhere in the solve
            assert sol.parts == 1 and fft_count["fftn"] == fft_count["ifftn"] == 0
            assert len(rep.subintervals) == 1
            points.append(fft_count["points"])
            iterations.append(rep.subintervals[0][3])
        assert iterations[1] > iterations[0]
        # per sample: rfftn of V v (N^2 real points), irfftn of the next
        # iterate's half spectrum (N (N/2 + 1) points)
        per_iteration = len(sol) * (g.N**2 + g.N * (g.N // 2 + 1))
        assert points[1] - points[0] == (iterations[1] - iterations[0]) * per_iteration

    def test_picard_norms_cost_one_inverse_per_sample(self, fft_count):
        g = make_grid(2, 16, 2 * np.pi)
        g0 = perturbed_taylor_green(g, 0.3)
        points, iterations = [], []
        for tol in (1e-3, 1e-8):
            fft_count.clear()
            v, rep = solve_nse_picard(g0, None, 1.0, 0.5, 4.0, 4.0, tol=tol, nodes=12, c_est=0.2)
            points.append(fft_count["points"])
            iterations.append(rep.iterations)
        assert iterations[1] > iterations[0]
        fft_count.clear()
        bilinear_form(v, v, 1.0)
        per_map = fft_count["points"]
        # one irfftn of each component's half spectrum per sample
        per_norm = g.n * len(v) * g.N * (g.N // 2 + 1)
        assert points[1] - points[0] == (iterations[1] - iterations[0]) * (per_map + per_norm)


def _picard(g, **kw):
    return solve_nse_picard(perturbed_taylor_green(g, 0.3), None, 1.0, 0.2, 4, 4, **kw)


def _picard_with(g, q, p):
    return solve_nse_picard(perturbed_taylor_green(g, 0.3), None, 1.0, 0.2, q, p,
                            nodes=8, c_est=0.1)


def _potential(g, **kw):
    return solve_potential_eq(Field(g, np.ones(g.shape)), None, None, 1.0, 0.2, **kw)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda g: uniform_times(1.0, 0), "m=0"),
        (lambda g: uniform_times(1.0, -3), "m=-3"),
        (lambda g: _picard(g, max_iter=0, nodes=8, c_est=0.1), "max_iter=0"),
        (lambda g: _picard(g, nodes=-3, c_est=0.1), "m=-3"),
        (lambda g: _potential(g, nodes=0), "nodes=0"),
        (lambda g: _potential(g, nodes=-3), "nodes=-3"),
    ],
)
def test_solver_counts_below_one_rejected(call, named):
    with pytest.raises(PreconditionError, match=named):
        call(make_grid(2, 16, 2 * np.pi))


def test_potential_max_iter_rejected_before_any_work(call_count):
    calls = call_count(nse, "duhamel")
    call_count(nse, "semigroup_series")
    with pytest.raises(PreconditionError, match="max_iter=0"):
        _potential(make_grid(2, 16, 2 * np.pi), max_iter=0)
    assert calls["duhamel"] == 0 and calls["semigroup_series"] == 0


def test_picard_max_iter_rejected_before_the_ensemble(call_count):
    calls = call_count(nse, "estimate_bilinear_constant")
    call_count(nse, "semigroup_series")
    with pytest.raises(PreconditionError, match="max_iter=0"):
        _picard(make_grid(2, 16, 2 * np.pi), max_iter=0)
    assert calls["estimate_bilinear_constant"] == calls["semigroup_series"] == 0


@pytest.mark.parametrize("name", ["data f", "forcing F"])
def test_potential_non_finite_data_rejected_before_any_work(call_count, name):
    g = make_grid(2, 16, 2 * np.pi)
    f, F = np.ones(g.shape), np.full((2, *g.shape), 0.5)
    (f if name == "data f" else F[1])[3, 5] = np.nan
    calls = call_count(nse, "semigroup_series")
    F = TimeSeries.from_data(g, [0.0, 0.2], F, "physical")
    with pytest.raises(PreconditionError, match=f"{name} holds non-finite values"):
        solve_potential_eq(Field(g, f), F, None, 1.0, 0.2)
    assert calls["semigroup_series"] == 0


def test_potential_without_forcing_marches_only_the_potential_term(call_count):
    # with F None the first iterate is the free flow itself, and each map
    # marches the Duhamel term of -V v alone; without V there is none
    calls = call_count(nse, "_march")
    g = make_grid(2, 16, 2 * np.pi)
    _potential(g)
    assert calls["_march"] == 0
    V = TimeSeries.from_data(g, [0.0, 0.2], np.full((2, *g.shape), 0.5), "physical")
    _, rep = solve_potential_eq(Field(g, np.ones(g.shape)), None, V, 1.0, 0.2)
    assert len(rep.subintervals) == 1
    assert calls["_march"] == rep.subintervals[0][3]


def test_potential_window_without_potential_marches_its_forcing_once(call_count):
    # with no V the map is constant: the first iterate, base + Duhamel(F),
    # is its fixed point, and the forcing is not marched a second time
    g = make_grid(2, 16, 2 * np.pi)
    calls = call_count(nse, "_march")
    call_count(nse, "duhamel")
    F = TimeSeries.from_data(g, [0.0, 0.2], np.full((2, *g.shape), 0.5), "physical")
    _, rep = solve_potential_eq(Field(g, np.ones(g.shape)), F, None, 1.0, 0.2)
    assert [sub[3] for sub in rep.subintervals] == [1]
    assert calls["_march"] + calls["duhamel"] == 1


@pytest.mark.parametrize("with_forcing", [False, True])
def test_potential_map_marches_in_its_right_hand_side(monkeypatch, with_forcing):
    # each map evaluation forms -V v (or F - V v) in the stack of its forward
    # transform, marches that stack, and adds the free flow into it
    g = make_grid(2, 16, 2 * np.pi)
    seen = []  # the chunks of each march
    march = nse._march

    def recording(times, lam):
        chunks, step = [], march(times, lam)
        seen.append(chunks)

        def recorded(chunk):
            chunks.append(chunk)
            step(chunk)

        return recorded

    monkeypatch.setattr(nse, "_march", recording)
    V = TimeSeries.from_data(g, [0.0, 0.2], np.full((2, *g.shape), 0.5), "physical")
    F = TimeSeries.from_data(g, [0.0, 0.2], np.full((2, *g.shape), 0.25), "physical")
    want_rep = solve_potential_eq(Field(g, np.ones(g.shape)), F if with_forcing else None, V,
                                  1.0, 0.2)[1]
    assert len(seen) == sum(sub[3] for sub in want_rep.subintervals) + with_forcing
    # each march runs over views of one stack
    assert all(c.base is not None and c.base is chunks[0].base for chunks in seen for c in chunks)


class TestPicard:
    def test_final_norm_is_last_iterate_norm(self, call_count, fft_count):
        g = make_grid(2, 16, 2 * np.pi)
        g0 = perturbed_taylor_green(g, 0.3)
        calls = call_count(nse, "_time_norm")
        call_count(norms, "_time_norm")  # mixed_norm's, in the same count
        v, rep = solve_nse_picard(
            g0, None, 1.0, 0.5, 4.0, 4.0, tol=1e-8, nodes=12, c_est=0.2
        )
        # one time norm of the data, then a step norm and an iterate norm per iteration
        assert calls["_time_norm"] == 2 * rep.iterations + 1
        # one chunk of 13 samples: the divergence check and the seed stack,
        # then the map's factors and the new iterate, each inverse-transformed once
        assert fft_count["irfftn"] == 2 + 2 * rep.iterations
        assert rep.final_norm == mixed_norm(v, 4.0, 4.0)

    def test_data_functional_reads_the_seed_stack(self, monkeypatch):
        # with no forcing, the physical stack that gives `a` is handed to the
        # fixed point as its one physical stack; the loop measures no series
        g = make_grid(2, 16, 2 * np.pi)
        g0 = perturbed_taylor_green(g, 0.3)
        measured, handed = [], []
        loop = nse._fixed_point

        def recording(u, *args):
            measured.append(u)
            return mixed_norm(u, *args)

        def handing(apply_map, v0, phys, *args, **kwargs):
            handed.append(phys)
            return loop(apply_map, v0, phys, *args, **kwargs)

        monkeypatch.setattr(nse, "mixed_norm", recording)
        monkeypatch.setattr(nse, "_fixed_point", handing)
        _, rep = solve_nse_picard(g0, None, 1.0, 0.5, 4.0, 4.0, tol=1e-8, nodes=12, c_est=0.2)
        assert len(measured) == 1 and measured[0].representation == "physical"
        assert len(handed) == 1 and handed[0] is measured[0]
        free = semigroup_series(g0, uniform_times(0.5, 12), 1.0)
        assert rep.data_functional == mixed_norm(free, 4.0, 4.0)

    def test_zero_data_zero_solution(self):
        g = make_grid(2, 16, 2 * np.pi)
        z = VectorField(tuple(Field(g, np.zeros(g.shape)) for _ in range(2)))
        v, rep = solve_nse_picard(z, None, 1.0, 1.0, 4.0, 4.0, nodes=8, c_est=0.1)
        assert rep.iterations == 1
        assert rep.final_norm == 0.0

    def test_alpha_window(self):
        g = make_grid(2, 16, 2 * np.pi)
        z = VectorField(tuple(Field(g, np.zeros(g.shape)) for _ in range(2)))
        with pytest.raises(PreconditionError):
            solve_nse_picard(z, None, 0.2, 1.0, 4.0, 4.0)
        with pytest.raises(PreconditionError):
            solve_nse_picard(z, None, 1.2, 1.0, 4.0, 4.0)

    def test_exponent_relation(self):
        g = make_grid(2, 16, 2 * np.pi)
        z = VectorField(tuple(Field(g, np.zeros(g.shape)) for _ in range(2)))
        with pytest.raises(PreconditionError):
            solve_nse_picard(z, None, 1.0, 1.0, 4.0, 8.0)

    def test_real_data_that_is_not_divergence_free_rejected(self):
        g = make_grid(2, 16, 2 * np.pi)
        phi = synthesize_field(g, RandomBandlimited(seed=1, j_min=1, j_max=1))
        grad = VectorField(tuple(axis_derivative(phi, j) for j in range(2)))
        with pytest.raises(PreconditionError, match="not divergence-free"):
            solve_nse_picard(grad, None, 1.0, 0.5, 4.0, 4.0, nodes=8, c_est=0.1)

    def test_p_at_the_lower_end_rejected(self):
        # (q, p) = (inf, 2) meets 2a - 1 = 2a/q + n/p at n = 2, a = 1, but
        # p must exceed n/(2a - 1) = 2
        g = make_grid(2, 16, 2 * np.pi)
        with pytest.raises(PreconditionError, match=r"p=2.0 must exceed n/\(2 alpha - 1\)"):
            _picard_with(g, q=float("inf"), p=2.0)

    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_q_below_one_rejected_before_the_relation(self, q):
        g = make_grid(2, 16, 2 * np.pi)
        with pytest.raises(PreconditionError, match=f"time exponent q={q} must be >= 1"):
            _picard_with(g, q=q, p=4.0)

    def test_smallness_gate(self, call_count):
        g = make_grid(2, 64, 2 * np.pi)
        calls = call_count(nse, "_fixed_point")
        named = r"smallness gate failed: 2 \* C_est \* a = 23.953"
        with pytest.raises(PreconditionError, match=named):
            solve_nse_picard(perturbed_taylor_green(g, 10.0), None, 1.0, 0.5, 4.0, 4.0,
                             nodes=16, c_est=1.0)
        assert calls["_fixed_point"] == 0

    def test_no_convergence_raises(self):
        g = make_grid(2, 16, 2 * np.pi)
        with pytest.raises(ConvergenceError, match="did not reach tol=1e-15 in 1 iterations"):
            _picard(g, max_iter=1, tol=1e-15, nodes=8, c_est=0.2)

    def test_complex_data_rejected(self):
        g = make_grid(2, 16, 2 * np.pi)
        wave = synthesize_field(g, PlaneWave(k=(1, 0)))
        bad = VectorField((wave, wave.copy()))  # complex data, stopped before its divergence
        with pytest.raises(PreconditionError, match="must be a real field"):
            solve_nse_picard(bad, None, 1.0, 1.0, 4.0, 4.0)

    def test_quadratic_first_correction(self):
        # doubling the data amplitude scales the first Picard correction ~4x
        g = make_grid(2, 32, 2 * np.pi)
        alpha, q, p, T = 1.0, 4.0, 4.0, 0.5

        def first_correction(amp):
            g0 = perturbed_taylor_green(g, amp)
            times = uniform_times(T, 16)
            base = semigroup_series(g0, times, alpha)
            B = bilinear_form(base, base, alpha)
            return mixed_norm(B, q, p)

        ratio = first_correction(0.2) / first_correction(0.1)
        assert 3.7 < ratio < 4.3

    def test_small_solve_matches_oracle(self):
        from reference_integrator import etdrk2_reference

        g = make_grid(2, 32, 2 * np.pi)
        g0 = perturbed_taylor_green(g, 1.0)
        v, rep = solve_nse_picard(g0, None, 1.0, 0.5, 4.0, 4.0, tol=1e-8, nodes=32)
        ref = etdrk2_reference(g0, 1.0, 0.5, 256)
        diffs = []
        for i, t in enumerate(v.times):
            a = v.snapshots[i].to_spectral()
            b = ref.snapshots[int(round(t / 0.5 * 256))].to_spectral()
            diffs.append(
                VectorField(
                    tuple(
                        Field(g, x.data - y.data, "spectral")
                        for x, y in zip(a.components, b.components)
                    )
                )
            )
        D = TimeSeries(v.times, diffs)
        assert mixed_norm(D, 4, 4) / mixed_norm(v, 4, 4) < 1e-4
        assert rep.converged
        assert all(r <= 0.9 for r in rep.contraction_ratios)


class TestPicardForcing:
    @pytest.mark.parametrize("m", [2, 3])
    def test_scalar_forcing_rejected(self, m):
        g = make_grid(2, 16, 2 * np.pi)
        h = TimeSeries.from_data(g, np.linspace(0, 0.5, m), np.ones((m, *g.shape)), PHYSICAL)
        with pytest.raises(PreconditionError, match="forcing h of shape"):
            solve_nse_picard(perturbed_taylor_green(g, 0.3), h, 1.0, 0.5, 4.0, 4.0,
                             nodes=8, c_est=0.2)

    def test_forcing_on_another_grid_rejected(self):
        g, other = make_grid(2, 16, 2 * np.pi), make_grid(2, 32, 2 * np.pi)
        h = real_series(other, 3, uniform_times(0.5, 8), j_max=1)
        with pytest.raises(PreconditionError, match="forcing h .* on the grid of g"):
            solve_nse_picard(perturbed_taylor_green(g, 0.3), h, 1.0, 0.5, 4.0, 4.0,
                             nodes=8, c_est=0.2)


class TestEnsemble:
    def test_chunked_members_keep_the_bits(self, fft_count):
        # the all-members-at-once oracle: three evolved members, each measured
        # once, and the six pairs
        g = make_grid(2, 16, 2 * np.pi)
        times = uniform_times(0.5, 8)
        members = []
        for seed in (101, 202, 303):
            comps = [RandomBandlimited(seed + 7 * c, 1, 1).render(g) for c in range(2)]
            w = TimeSeries.from_data(g, [0.0], np.stack(comps)[None], PHYSICAL).to_spectral()
            w0 = TimeSeries.from_data(g, w.times, _leray(w.data, g))
            members.append(semigroup_series(w0, times, 1.0))
        sizes = [mixed_norm(a, 4, 4) for a in members]
        want = max(
            mixed_norm(bilinear_form(members[i], members[j], 1.0), 4, 4) / (sizes[i] * sizes[j])
            for i, j in itertools.combinations_with_replacement(range(3), 2)
        )
        oracle = Counter(fft_count)
        fft_count.clear()
        assert nse.estimate_bilinear_constant(g, 1.0, 0.5, 4, 4, times=times) == want
        # the oracle's transforms: a member's norms come from one pair's chunks
        assert fft_count == oracle


class TestLiveStacks:
    """Peak live numpy memory (`traced_peak`) on the benchmark's Picard
    config (64^2, 65 nodes, perturbed Taylor-Green data of amplitude 1.65),
    in velocity stacks: 65 half spectra of 2 components, 4.39 MB."""

    g = make_grid(2, 64, 2 * np.pi)
    times = uniform_times(1.0, 64)
    STACK = 65 * 2 * 64 * 33 * 16

    def test_ensemble_evolves_members_into_the_pair_stack(self, traced_peak):
        # 4.3 with two evolved members held next to the pair's stack; about
        # 2.55 with the members evolved a chunk at a time into that stack
        peak = traced_peak(
            lambda: nse.estimate_bilinear_constant(self.g, 1.0, 1.0, 4, 4, times=self.times)
        )
        assert peak / self.STACK < 3.0

    def test_picard_loop_keeps_one_physical_stack(self, traced_peak):
        # 4.7 with base, B, the old iterate and two physical stacks; about
        # 2.76 with B written over its iterate and one physical stack
        g0 = perturbed_taylor_green(self.g, 1.65)
        peak = traced_peak(lambda: solve_nse_picard(
            g0, None, 1.0, 1.0, 4, 4, tol=1e-6, nodes=64, c_est=0.0173
        ))
        assert peak / self.STACK < 3.2


class TestCallerData:
    """The solvers write only into stacks they made or were handed."""

    def test_bilinear_form_reads_its_arguments(self):
        g = make_grid(2, 16, 2 * np.pi)
        times = uniform_times(0.5, 12)
        u = real_series(g, 3, times, j_max=1)
        v = real_series(g, 4, times, j_max=1).to_physical()
        before = [u.data.copy(), v.data.copy()]
        got = bilinear_form(u, v, 1.0)
        assert all(np.array_equal(w.data, b) for w, b in zip((u, v), before))
        W = _tensor_divergence(u.data, v.to_spectral().data, g)
        want = duhamel(TimeSeries.from_data(g, times, W), times, 1.0)
        assert np.array_equal(got.data, want.data)

    def test_potential_leaves_F_and_V(self):
        g = make_grid(2, 16, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=5, j_min=1, j_max=1))
        times = uniform_times(0.5, 8)
        F = semigroup_series(f, times, 1.0)
        V = TimeSeries.from_data(g, [0.0, 0.5], np.full((2, *g.shape), 0.5), PHYSICAL)
        for forcing in (F, F.to_physical()):
            before = [forcing.data.copy(), V.data.copy()]
            solve_potential_eq(f, forcing, V, alpha=1.0, T=0.5, nodes=8)
            assert np.array_equal(forcing.data, before[0])
            assert np.array_equal(V.data, before[1])

    def test_fixed_point_leaves_a_physical_start(self):
        g = make_grid(2, 16, 2 * np.pi)
        times = uniform_times(0.5, 8)
        v0 = real_series(g, 3, times, j_max=1).to_physical()
        target = real_series(g, 4, times, j_max=1).to_physical()
        before = [v0.data.copy(), target.data.copy()]
        # the map returns a caller's physical series: its own physical form;
        # the loop writes only into the physical stack it is handed
        _, residuals, converged, _ = fixed_point(lambda v, _: target, v0, 4, 4, 1e-12, 3)
        assert converged and len(residuals) == 2
        assert np.array_equal(v0.data, before[0])
        assert np.array_equal(target.data, before[1])

    @pytest.mark.parametrize("representation", [SPECTRAL, PHYSICAL])
    def test_picard_leaves_g_and_h(self, representation):
        g = make_grid(2, 16, 2 * np.pi)
        g0 = perturbed_taylor_green(g, 0.3)
        if representation == SPECTRAL:
            g0 = g0.to_spectral()
        h = real_series(g, 3, uniform_times(0.5, 8), j_max=1)
        h = h if representation == SPECTRAL else h.to_physical()
        before = [g0.data.copy(), h.data.copy()]
        for forcing in (None, h):
            solve_nse_picard(g0, forcing, 1.0, 0.5, 4.0, 4.0, tol=1e-8, nodes=8, c_est=0.2)
        assert np.array_equal(g0.data, before[0])
        assert np.array_equal(h.data, before[1])


class TestPotential:
    def test_zero_potential_reduction(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=5, j_min=1, j_max=2))
        times = uniform_times(0.5, 16)
        src = synthesize_field(g, RandomBandlimited(seed=9, j_min=1, j_max=2))
        F = TimeSeries(times, [Field(g, np.exp(-t) * src.data) for t in times])
        sol, rep = solve_potential_eq(f, F, None, alpha=1.0, T=0.5, q=4, p=4, nodes=16)
        free = semigroup_series(f, sol.times, 1.0)
        duh = duhamel(F, sol.times, 1.0)
        err = 0.0
        for i in range(len(sol.times)):
            d = (
                sol.snapshots[i].to_spectral().data
                - free.snapshots[i].data
                - duh.snapshots[i].data
            )
            err = max(err, float(np.max(np.abs(d))))
        assert err < 1e-12
        assert len(rep.subintervals) == 1

    def test_constant_potential_mode_formula(self):
        g = make_grid(1, 8, 2 * np.pi)
        pw = synthesize_field(g, PlaneWave(k=(1,)))
        c, T = 0.7, 1.0
        V = TimeSeries(
            np.array([0.0, T]),
            [Field(g, np.full(g.shape, c, dtype=complex))] * 2,
        )
        sol, rep = solve_potential_eq(
            pw, None, V, alpha=0.5, T=T, q=4, p=4, r=4, s=4 / 3,
            nodes=4096, tol=1e-12,
        )
        vT = sol.snapshots[-1].to_physical().data / pw.data
        assert np.max(np.abs(vT - np.exp(-T * (1.0 + c)))) < 1e-8

    def test_large_potential_forces_partition(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=11, j_min=1, j_max=2))
        V = TimeSeries(
            np.array([0.0, 1.0]),
            [Field(g, np.full(g.shape, 8.0, dtype=complex))] * 2,
        )
        sol, rep = solve_potential_eq(
            f, None, V, alpha=1.0, T=1.0, q=4, p=4, r=4, s=4 / 3,
            nodes=64, tol=1e-10,
        )
        assert len(rep.subintervals) >= 2
        assert all(fac <= 0.5 for _, _, fac, _ in rep.subintervals)
        # sanity: the assembled solution tracks the constant-coefficient
        # mode ODE to within the 64-node quadrature accuracy
        lam = g.abs_freq**2
        pred = f.to_spectral().data * np.exp(-1.0 * (lam + 8.0))
        got = sol.snapshots[-1].to_spectral().data
        assert np.max(np.abs(got - pred)) < 0.05 * np.max(np.abs(pred))

    def test_real_flagged_series_accepted(self):
        # forcing and potential given as half spectra or as physical samples
        g = make_grid(2, 16, 2 * np.pi)
        f, src = (
            synthesize_field(g, RandomBandlimited(seed=s, j_min=1, j_max=1)) for s in (5, 9)
        )
        times = uniform_times(0.5, 8)
        F, V = (semigroup_series(w, times, 1.0) for w in (src, f))
        assert F.data.shape[-1] == V.data.shape[-1] == g.N // 2 + 1
        Fp, Vp = (w.to_physical() for w in (F, V))
        want, _ = solve_potential_eq(f, Fp, Vp, alpha=1.0, T=0.5, nodes=8)
        got, _ = solve_potential_eq(f, F, V, alpha=1.0, T=0.5, nodes=8)
        assert np.max(np.abs(got.data - want.data)) <= 1e-13 * np.max(np.abs(want.data))

    @pytest.mark.parametrize("c, halves", [(1.0, False), (8.0, True)])
    def test_real_path_equals_complex_path(self, c, halves):
        # complex data f = a + ib and forcing run as their (re, im) parts: the
        # solve equals that of the real 2-vectors (a, b), and the parts
        # solved on their own and rejoined equal the complex solution
        g = make_grid(2, 16, 2 * np.pi)
        a, b, src, w = (
            synthesize_field(g, RandomBandlimited(seed=s, j_min=1, j_max=1))
            for s in (5, 7, 9, 13)
        )
        times = uniform_times(0.5, 8)
        bump = 0.25 * w.data.real / np.max(np.abs(w.data))
        V = TimeSeries(
            np.array([0.0, 0.5]), [Field(g, c * (1 + bump)), Field(g, c * (1 - bump))]
        )
        f = Field(g, a.data.real + 1j * b.data.real)
        pair = VectorField((a, b))
        F = TimeSeries(times, [Field(g, np.exp(-t) * (1 + 0.5j) * src.data.real) for t in times])
        Fpair = TimeSeries(times, [
            VectorField((Field(g, x.data.real), Field(g, x.data.imag))) for x in F.snapshots
        ])
        got, rep = solve_potential_eq(f, F, V, 1.0, 0.5, nodes=16)
        want, rep_v = solve_potential_eq(pair, Fpair, V, 1.0, 0.5, nodes=16)
        assert got.parts == 2 and got.data.shape[-1] == g.N // 2 + 1
        assert np.array_equal(got.data, want.data) and rep == rep_v
        assert (len(rep.subintervals) > 1) == halves
        if halves:  # the parts on their own may halve [0, T] differently
            return
        # each part on its own; V does not couple them
        Fre = TimeSeries(times, [Field(g, x.data.real) for x in F.snapshots])
        Fim = TimeSeries(times, [Field(g, x.data.imag) for x in F.snapshots])
        sre, _ = solve_potential_eq(a, Fre, V, 1.0, 0.5, nodes=16)
        sim, _ = solve_potential_eq(b, Fim, V, 1.0, 0.5, nodes=16)
        assert [s.times.tolist() for s in (sre, sim)] == [got.times.tolist()] * 2
        scale = np.max(np.abs(got.data))
        for s, x, y in zip(got.snapshots, sre.snapshots, sim.snapshots):
            assert np.max(np.abs(s.data - (x.data + 1j * y.data))) <= 1e-9 * scale

    def test_complex_data_runs_as_its_parts(self, fft_count):
        g = make_grid(1, 8, 2 * np.pi)
        wave = synthesize_field(g, PlaneWave(k=(1,)))
        bump = synthesize_field(g, GaussianBump(width=1.0))
        V = TimeSeries(np.array([0.0, 1.0]), [Field(g, np.full(g.shape, 0.7 + 0j))] * 2)
        times = uniform_times(1.0, 8)
        F = TimeSeries(times, [wave] * len(times))
        for f, F_ in ((wave, None), (bump, F)):  # complex data, or a complex forcing
            fft_count.clear()
            sol, _ = solve_potential_eq(f, F_, V, alpha=0.5, T=1.0, nodes=16)
            assert sol.parts == 2 and sol.data.shape == (len(sol), 2, g.N // 2 + 1)
            assert fft_count["fftn"] == fft_count["ifftn"] == 0 < fft_count["rfftn"]

    def test_constant_potential_is_not_transformed(self, fft_count, monkeypatch):
        # every halving attempt interpolates V where it is stored, physical
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=11, j_min=1, j_max=2))
        V = TimeSeries.from_data(g, [0.0, 1.0], np.full((2, *g.shape), 8.0), "physical")
        at_nodes, inside = nse._at_nodes, []

        def counted(series, t, representation):
            before = fft_count["calls"]
            out = at_nodes(series, t, representation)
            inside.append(fft_count["calls"] - before)
            return out

        monkeypatch.setattr(nse, "_at_nodes", counted)
        _, rep = solve_potential_eq(f, None, V, 1.0, 1.0, r=4, s=4 / 3, nodes=64, tol=1e-10)
        assert len(inside) > len(rep.subintervals) >= 2  # attempts were halved
        assert inside == [0] * len(inside)

    def test_no_contractive_subinterval(self):
        # V = 8 needs [0, T] halved, and min_fraction = 1 allows no halving
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=3, j_min=1, j_max=2))
        V = TimeSeries.from_data(g, [0.0, 0.5], np.full((2, *g.shape), 8.0), "physical")
        _, rep = solve_potential_eq(f, None, V, 1.0, 0.5)
        assert len(rep.subintervals) > 1
        with pytest.raises(ConvergenceError, match="could not find a contractive subinterval"):
            solve_potential_eq(f, None, V, 1.0, 0.5, min_fraction=1.0)

    @pytest.mark.parametrize(
        "n, alpha, kw, named",
        [
            (2, 1.0, dict(q=0.5), "time exponent q=0.5 must be >= 1"),
            (2, 1.0, dict(p=0.0), "Lebesgue exponent p=0.0 must be >= 1"),
            (2, 1.0, dict(r=0.0, s=1.0), r"r=0.0 must lie in \[1, inf\]"),
            (2, 1.0, dict(r=2.0, s=0.0), "s=0.0 must be positive"),
            # meets 1/r + n/(2 alpha s) = 1, with r outside [1, inf]
            (1, 0.5, dict(r=-1.0, s=0.5), r"r=-1.0 must lie in \[1, inf\]"),
        ],
    )
    def test_exponents_rejected_before_any_work(self, call_count, n, alpha, kw, named):
        calls = call_count(nse, "semigroup_series")
        g = make_grid(n, 16, 2 * np.pi)
        with pytest.raises(PreconditionError, match=named):
            solve_potential_eq(Field(g, np.ones(g.shape)), None, None, alpha, 0.2, **kw)
        assert calls["semigroup_series"] == 0

    def test_exponent_relation_checked(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=1, j_min=1, j_max=2))
        with pytest.raises(PreconditionError):
            solve_potential_eq(f, None, None, alpha=1.0, T=0.5, r=4, s=2)

    @pytest.mark.parametrize("r, s, missing", [(4.0, None, "s"), (None, 4 / 3, "r")])
    def test_half_declared_pair_rejected(self, r, s, missing):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=1, j_min=1, j_max=2))
        with pytest.raises(PreconditionError, match=f"{missing} is missing"):
            solve_potential_eq(f, None, None, alpha=1.0, T=0.5, r=r, s=s)

    def test_complex_potential_rejected(self):
        g = make_grid(2, 32, 2 * np.pi)
        f = synthesize_field(g, RandomBandlimited(seed=1, j_min=1, j_max=2))
        V = TimeSeries(
            np.array([0.0, 0.5]),
            [Field(g, np.full(g.shape, 1j, dtype=complex))] * 2,
        )
        with pytest.raises(PreconditionError):
            solve_potential_eq(f, None, V, alpha=1.0, T=0.5)


class TestRegularity:
    def test_constant_in_space(self):
        g = make_grid(2, 16, 2 * np.pi)
        c = VectorField(tuple(Field(g, np.full(g.shape, 2.0 + 0j)) for _ in range(2)))
        times = uniform_times(1.0, 4)
        series = TimeSeries(times, [c.copy() for _ in times])
        out = regularity_check(series, 2, 4, 4)
        for multi, val in out.items():
            if sum(multi) > 0:
                assert val < 1e-12

    def test_plane_wave_scaling(self):
        g = make_grid(2, 32, 2 * np.pi)
        k = (2, 1)
        pw = synthesize_field(g, PlaneWave(k=k))
        times = uniform_times(1.0, 4)
        series = TimeSeries(times, [pw.copy() for _ in times])
        out = regularity_check(series, 2, 4, 4)
        base = out[(0, 0)]
        for multi, val in out.items():
            expect = base * np.prod([abs(kk) ** m for kk, m in zip(k, multi)])
            assert np.isclose(val, expect, rtol=1e-10)

    def test_nan_detection(self):
        g = make_grid(1, 8, 1.0)
        bad = Field(g, np.full(8, np.nan))
        times = uniform_times(1.0, 2)
        series = TimeSeries(times, [bad.copy() for _ in times])
        with pytest.raises(ConvergenceError):
            regularity_check(series, 1, 2, 2)

    @pytest.mark.parametrize("max_order", [-1, 1.5])
    def test_max_order_must_be_integer_in_range(self, max_order):
        g = make_grid(1, 8, 1.0)
        f = Field(g, np.zeros(8))
        series = TimeSeries(uniform_times(1.0, 2), [f.copy()] * 3)
        with pytest.raises(PreconditionError, match="max_order"):
            regularity_check(series, max_order, 2, 2)

    def test_order_cap(self):
        g = make_grid(1, 8, 1.0)
        f = Field(g, np.zeros(8))
        series = TimeSeries(uniform_times(1.0, 2), [f.copy()] * 3)
        with pytest.raises(PreconditionError):
            regularity_check(series, 5, 2, 2)
