"""Command-line surface: configs, reports, exit codes, determinism."""

import json

import numpy as np
import pytest

from fracheat import (
    ConvergenceError,
    GaussianBump,
    PlaneWave,
    PreconditionError,
    __version__,
    lp_norm,
    lp_norms,
    make_grid,
    read_field,
    semigroup_series,
    synthesize_field,
    WindowedPowerlaw,
    write_field,
)
import fracheat.cli
import fracheat.grid
from fracheat.grid import sample_chunks, uniform_times
from fracheat.cli import ExperimentConfig, main, parse_exponent
from fracheat.cli import grid_from_config, recipe_from_config


BASE_CFG = """\
[grid]
n = 2
N = 64
L = 6.283185307179586

[data]
recipe = gaussian_bump
width = 0.29919930034188504

[sweep]
estimate = homogeneous
lambdas = 1,2
alpha = 1.0
q = 4
p = 4
T = 0.05
drift_tol = 0.05
"""

# BASE_CFG for the parabolic estimate, which reads no q or T
PARABOLIC_CFG = (
    BASE_CFG.replace("= homogeneous", "= parabolic").replace("q = 4\n", "").replace("T = 0.05\n", "")
)

BUMP32 = """\
[grid]
n = 2
N = 32
L = 6.283185307179586

[data]
recipe = gaussian_bump
width = 0.3

"""


class TestConfig:
    def test_malformed(self):
        with pytest.raises(Exception):
            ExperimentConfig.parse("not a config\n===")

    def test_exponent_parsing(self):
        assert parse_exponent("x", "inf") == float("inf")
        assert parse_exponent("x", "2.5") == 2.5
        for text in ("nan", "-inf", "-Infinity"):
            with pytest.raises(PreconditionError, match=f"x = {text}: expected"):
                parse_exponent("x", text)


class TestCommands:
    def test_verify_homogeneous(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BASE_CFG)
        out = tmp_path / "out"
        rc = main(["--out", str(out), "verify", "--config", str(cfg)])  # estimate = homogeneous
        assert rc == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["results"]["estimate_id"] == "homogeneous"
        assert report["results"]["max_drift"] < 0.05
        csv = (out / "verify.csv").read_text().splitlines()
        assert csv[0].startswith("estimate_id,lambda,ratio")
        assert len(csv) == 3  # header + one row per lambda

    def test_decay_fit_flags(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["--out", str(out), "decay-fit",
             "--n", "1", "--alpha", "1", "--r", "1", "--p", "inf"]
        )
        assert rc == 0
        report = json.loads((out / "decay_fit.json").read_text())
        assert abs(report["results"]["slope"] - (-0.5)) < 0.01
        assert report["results"]["predicted"] == -0.5

    def test_nse_solve_alpha_window_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "tg.cfg"
        cfg.write_text(
            "[grid]\nn = 2\nN = 16\nL = 6.283185307179586\n\n"
            "[solver]\nalpha = 0.2\nT = 1.0\nq = 4\np = 4\n\n"
            "[data]\nrecipe = perturbed_taylor_green\namplitude = 0.1\n"
        )
        rc = main(["--out", str(tmp_path / "o"), "nse-solve", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "1/2" in err and "n/4" in err  # names the violated window

    def test_nse_solve_small(self, tmp_path):
        cfg = tmp_path / "tg.cfg"
        cfg.write_text(
            "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n"
            "[solver]\nalpha = 1.0\nT = 0.5\nq = 4\np = 4\ntol = 1e-7\nnodes = 24\n\n"
            "[data]\nrecipe = perturbed_taylor_green\namplitude = 0.5\n"
        )
        out = tmp_path / "o"
        rc = main(["--out", str(out), "nse-solve", "--config", str(cfg)])
        assert rc == 0
        report = json.loads((out / "nse_solve.json").read_text())
        assert report["results"]["converged"] is True

    def test_potential_solve(self, tmp_path):
        cfg = tmp_path / "pot.cfg"
        cfg.write_text(
            "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n"
            "[solver]\nalpha = 1.0\nT = 0.5\nq = 4\np = 4\nr = 4\ns = 1.3333333333333333\n"
            "nodes = 16\ntol = 1e-9\n\n"
            "[data]\nrecipe = random_bandlimited\nseed = 3\nj_min = 1\nj_max = 2\n\n"
            "[potential]\nconstant = 2.0\n"
        )
        out = tmp_path / "o"
        rc = main(["--out", str(out), "potential-solve", "--config", str(cfg)])
        assert rc == 0
        report = json.loads((out / "potential_solve.json").read_text())
        assert report["results"]["converged"] is True
        assert all(s[2] <= 0.5 for s in report["results"]["subintervals"])

    def test_kernel_norm(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["--out", str(out), "kernel-norm",
             "--n", "2", "--alpha", "1", "--h", "1", "--r", "2", "--T", "0.03"]
        )
        assert rc == 0
        report = json.loads((out / "kernel_norm.json").read_text())
        assert abs(report["results"]["fitted_exponent"] - 0.5) < 0.01

    def test_propagate_and_norm(self, tmp_path):
        cfg = tmp_path / "prop.cfg"
        cfg.write_text(
            "[grid]\nn = 1\nN = 64\nL = 6.283185307179586\n\n"
            "[data]\nrecipe = gaussian_bump\nwidth = 0.3\n\n"
            "[solver]\nalpha = 1.0\nT = 0.2\nnodes = 8\n"
        )
        out = tmp_path / "o"
        rc = main(["--out", str(out), "propagate", "--config", str(cfg)])
        assert rc == 0
        assert (out / "final_field.frsf").exists()
        # feed the written field back through the norm command
        cfg2 = tmp_path / "norm.cfg"
        cfg2.write_text(
            "[grid]\nn = 1\nN = 64\nL = 6.283185307179586\n\n"
            f"[data]\nfield_file = {out / 'final_field.frsf'}\n\n"
            "[norm]\nkind = lebesgue\np = 2\n"
        )
        rc = main(["--out", str(out), "norm", "--config", str(cfg2)])
        assert rc == 0
        report = json.loads((out / "norm.json").read_text())
        assert report["results"]["value"] > 0
        assert "input_hash" in report

    def test_decay_fit_unknown_case_exit_2(self, tmp_path):
        rc = main(
            ["--out", str(tmp_path), "decay-fit",
             "--n", "3", "--alpha", "1", "--r", "1", "--p", "2"]
        )
        assert rc == 2

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("key = value without a section\n")
        rc = main(["--out", str(tmp_path), "norm", "--config", str(cfg)])
        assert rc == 2


class TestCommandSkeleton:
    """Every command goes through one report path in `main`."""

    TINY_GRID = "[grid]\nn = 1\nN = 16\nL = 6.283185307179586\n\n"
    CONFIGS = {
        "propagate": TINY_GRID + "[solver]\nT = 0.1\nnodes = 4\n",
        "norm": TINY_GRID + "[norm]\nkind = lebesgue\np = 4\n",
        "verify": BASE_CFG,
        "nse-solve": (
            "[grid]\nn = 2\nN = 16\nL = 6.283185307179586\n\n"
            "[solver]\nT = 0.2\nnodes = 8\n\n[data]\namplitude = 0.2\n"
        ),
        "potential-solve": TINY_GRID + "[solver]\nT = 0.2\nnodes = 16\n",
    }
    FLAGS = {
        "decay-fit": ["--n", "1", "--alpha", "1", "--r", "1", "--p", "inf"],
        "kernel-norm": ["--n", "2", "--alpha", "1", "--h", "1", "--r", "2"],
    }
    WITH_CSV = {"propagate", "verify", "decay-fit", "nse-solve", "potential-solve"}

    @pytest.mark.parametrize("command", sorted([*CONFIGS, *FLAGS]))
    def test_report_and_csv(self, tmp_path, command):
        text = self.CONFIGS.get(command)
        if text is None:
            argv = self.FLAGS[command]
        else:
            (tmp_path / "run.cfg").write_text(text)
            argv = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "o"
        assert main(["--seed", "5", "--out", str(out), command, *argv]) == 0
        stem = command.replace("-", "_")
        report = json.loads((out / f"{stem}.json").read_text())
        assert report["command"] == command
        assert report["version"] == __version__
        assert report["seed"] == 5
        assert report["deterministic"] is False
        config = ExperimentConfig.parse(text).as_dict() if text else {}
        assert report["config"] == config
        assert (out / f"{stem}.csv").exists() == (command in self.WITH_CSV)


    def test_nse_solve_golden(self, tmp_path):
        """`nse-solve` results to the last bit, recorded before NSE storage
        and transform changes: a change that moves them on purpose updates
        these digits and says so."""
        (tmp_path / "run.cfg").write_text(self.CONFIGS["nse-solve"])
        out = tmp_path / "o"
        argv = ["--config", str(tmp_path / "run.cfg")]
        assert main(["--seed", "5", "--out", str(out), "nse-solve", *argv]) == 0
        results = json.loads((out / "nse_solve.json").read_text())["results"]
        assert results["final_norm"] == 0.2301868744460132
        assert results["bilinear_constant"] == 0.03440878561698821
        assert results["data_functional"] == 0.23018674378701062
        assert results["residuals"] == [
            0.003551640856848365, 7.292501473136815e-05, 8.667160965579636e-07
        ]
        assert results["iterations"] == 3

    def test_potential_solve_golden(self, tmp_path):
        """`potential-solve` results to the last bit, for a potential strong
        enough to halve [0, T] once; recorded as `test_nse_solve_golden`."""
        text = self.CONFIGS["potential-solve"] + "\n[potential]\nconstant = 10\n"
        (tmp_path / "run.cfg").write_text(text)
        out = tmp_path / "o"
        argv = ["--config", str(tmp_path / "run.cfg")]
        assert main(["--seed", "5", "--out", str(out), "potential-solve", *argv]) == 0
        results = json.loads((out / "potential_solve.json").read_text())["results"]
        assert results["bound_constant"] == 0.3878947558154963
        assert results["subintervals"] == [
            [0.0, 0.1, 0.41345530169988104, 14],
            [0.1, 0.2, 0.41137309772338476, 14],
        ]


class TestOneTransformPath:
    """Complex `fftn`/`ifftn` run only in the synthesis of random data (the
    C_est ensemble: 3 seeds of 2 components).  Everything else, real data
    and plane waves alike, takes the real-to-complex transforms; the
    Nyquist-edge check of `verify` and the divergence check of `nse-solve`
    read half spectra."""

    SKELETON = TestCommandSkeleton
    CASES = {
        # (command, data): (exit code, fftn calls, ifftn calls)
        ("propagate", "real"): (0, 0, 0),
        ("propagate", "wave"): (0, 0, 0),
        ("norm", "real"): (0, 0, 0),
        ("norm", "wave"): (0, 0, 0),
        ("potential-solve", "real"): (0, 0, 0),
        ("potential-solve", "wave"): (0, 0, 0),
        ("verify", "real"): (0, 0, 0),
        ("verify", "wave"): (2, 0, 0),  # stopped by the contamination gate
        ("nse-solve", "real"): (0, 0, 6),
        ("decay-fit", "real"): (0, 0, 0),
        ("kernel-norm", "real"): (0, 0, 0),
    }

    def argv(self, tmp_path, command, data):
        text = self.SKELETON.CONFIGS.get(command)
        if text is None:
            return self.SKELETON.FLAGS[command]
        if command == "verify" and data == "wave":
            text = text.replace("recipe = gaussian_bump\nwidth = 0.29919930034188504",
                                "recipe = plane_wave\nk = 1,0")
        elif data == "wave":
            text += "\n[data]\nrecipe = plane_wave\nk = 1\n"
        if command == "potential-solve":  # strong enough to halve [0, T]
            text += "\n[potential]\nconstant = 10\n"
        (tmp_path / "run.cfg").write_text(text)
        return ["--config", str(tmp_path / "run.cfg")]

    @pytest.mark.parametrize("command, data", sorted(CASES))
    def test_complex_transforms_only_in_field_gates(
        self, tmp_path, capsys, fft_count, command, data
    ):
        code, fftn, ifftn = self.CASES[command, data]
        argv = self.argv(tmp_path, command, data)
        assert main(["--out", str(tmp_path / "o"), command, *argv]) == code
        assert (fft_count["fftn"], fft_count["ifftn"]) == (fftn, ifftn)
        assert ("contamination" in capsys.readouterr().err) == bool(code)


class TestOneSeriesPerLevel:
    """A dilation sweep builds each level's one-sample series once: the
    Nyquist gate and every estimate's ratio share it and its spectrum."""

    @pytest.mark.parametrize(
        "estimate",
        ["homogeneous", "bmo_endpoint", "inhomogeneous", "parabolic", "besov_embedding"],
    )
    def test_verify_scans_and_transforms_each_level_once(
        self, tmp_path, monkeypatch, call_count, estimate
    ):
        cfg = BASE_CFG.replace(  # zero-mean data, for the homogeneous Besov norm
            "recipe = gaussian_bump\nwidth = 0.29919930034188504",
            "recipe = random_bumps\nwidth = 0.24\nspread = 0.3",
        ).replace("estimate = homogeneous", f"estimate = {estimate}")
        if estimate == "bmo_endpoint":
            cfg = cfg.replace("q = 4", "q = 2")
        elif estimate in ("parabolic", "besov_embedding"):  # they read no q or T
            cfg = cfg.replace("q = 4\n", "").replace("T = 0.05\n", "")
        (tmp_path / "run.cfg").write_text(cfg)  # 64^2, lambdas 1, 2
        calls = call_count(fracheat.grid, "is_real")
        rfftn, samples = np.fft.rfftn, []

        def counted(a, *args, **kwargs):
            samples.append(len(a))  # the stacked samples of one forward transform
            return rfftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", counted)
        argv = ["--out", str(tmp_path / "o"), "verify", "--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 0
        assert calls["is_real"] == 2
        # one transform of each level's one sample; the inhomogeneous ratio
        # transforms its forcing stack, every sample of the level's series
        assert samples.count(1) == 2
        assert len(samples) == 2 or estimate == "inhomogeneous"


class TestSweepKeys:
    """`verify` declares each [sweep] key only for the estimates that read
    it: any other exits 2 naming it, and a report's params hold only the
    keys its estimate reads."""

    CFG = (
        "[grid]\nn = 2\nN = 64\nL = 6.283185307179586\n\n"
        "[data]\nrecipe = random_bumps\nwidth = 0.24\nspread = 0.3\n\n"  # zero mean
        "[sweep]\nestimate = {estimate}\nlambdas = 1,2\nalpha = 1.0\np = 4\n"
        "drift_tol = 0.05\n{extra}"
    )
    READS = {  # besides estimate, lambdas, alpha, p and drift_tol
        "homogeneous": ("q", "T", "kind", "s"),
        "bmo_endpoint": ("q", "T"),
        "inhomogeneous": ("q", "T", "kind", "s", "q1", "p1", "nodes"),
        "parabolic": ("s_min", "s_max"),
        "besov_embedding": (),
    }

    def run(self, tmp_path, estimate, extra):
        (tmp_path / "run.cfg").write_text(self.CFG.format(estimate=estimate, extra=extra))
        return main(["--out", str(tmp_path / "o"), "verify", "--config",
                     str(tmp_path / "run.cfg")])

    @pytest.mark.parametrize("estimate, key", [
        *((e, k) for e in ("parabolic", "besov_embedding") for k in ("q", "T", "kind", "s")),
        ("bmo_endpoint", "kind"), ("bmo_endpoint", "s"),
        ("homogeneous", "q1"), ("inhomogeneous", "s_min"),
    ])
    def test_key_the_estimate_does_not_read_exit_2(self, tmp_path, capsys, estimate, key):
        value = "sobolev" if key == "kind" else "3"
        assert self.run(tmp_path, estimate, f"{key} = {value}\n") == 2
        err = capsys.readouterr().err.strip()
        assert f"[sweep] {key}: not read here" in err
        takes = ("estimate", "lambdas", "alpha", "p", "drift_tol", *self.READS[estimate])
        assert err.endswith("[sweep] takes " + ", ".join(takes))

    @pytest.mark.parametrize("estimate", sorted(READS))
    def test_params_hold_the_keys_the_estimate_reads(self, tmp_path, estimate):
        assert self.run(tmp_path, estimate, "q = 2\n" if estimate == "bmo_endpoint" else "") == 0
        params = json.loads((tmp_path / "o" / "verify.json").read_text())["results"]["params"]
        # an inhomogeneous sweep turns nodes into its times and adds its profile
        want = {"alpha", "p", *self.READS[estimate]}
        if estimate == "inhomogeneous":
            want = (want - {"nodes"}) | {"profile"}
        assert set(params) == want


class TestPropagate:
    """`propagate` evolves data on the half lattice, complex data as its
    (re, im) parts, and takes both norms of every sample from one inverse
    transform per chunk."""

    CFG = (
        "[grid]\nn = 2\nN = 64\nL = 6.283185307179586\n\n[data]\n{data}\n\n"
        "[solver]\nalpha = 1.0\nT = 0.2\nnodes = 32\n"
    )

    def run(self, tmp_path, data):
        (tmp_path / "run.cfg").write_text(self.CFG.format(data=data))
        out = tmp_path / "o"
        assert main(["--out", str(out), "propagate", "--config", str(tmp_path / "run.cfg")]) == 0
        results = json.loads((out / "propagate.json").read_text())["results"]
        rows = [line.split(",") for line in (out / "propagate.csv").read_text().split()[1:]]
        l2, linf = (np.array([float(r[i]) for r in rows]) for i in (1, 2))
        return results, l2, linf

    def check(self, f, results, l2, linf, calls):
        series = semigroup_series(f, uniform_times(0.2, 32), 1.0)
        chunks = len(sample_chunks(series.data, grid=f.grid))
        assert chunks > 1
        # the data's one rfftn, then one irfftn per chunk
        assert "fftn" not in calls and "ifftn" not in calls
        assert calls["rfftn"] == 1 and calls["irfftn"] == chunks
        assert np.array_equal(l2, lp_norms(series, 2))
        assert np.array_equal(linf, lp_norms(series, float("inf")))
        final = read_field(results["final_field"])
        assert lp_norm(final, 2) == results["final_l2"] == l2[-1]
        return final

    def test_real_data_one_inverse_transform_per_chunk(self, tmp_path, fft_count):
        g = make_grid(2, 64, 6.283185307179586)
        results, l2, linf = self.run(tmp_path, "recipe = gaussian_bump")
        calls = dict(fft_count)
        self.check(synthesize_field(g, GaussianBump(width=g.L / 21)), results, l2, linf, calls)

    def test_plane_wave_runs_as_its_parts(self, tmp_path, fft_count):
        g = make_grid(2, 64, 6.283185307179586)
        results, l2, linf = self.run(tmp_path, "recipe = plane_wave\nk = 1,2")
        calls = dict(fft_count)
        wave = synthesize_field(g, PlaneWave(k=(1, 2)))
        final = self.check(wave, results, l2, linf, calls)
        # the final field reads back as the complex evolution
        want = np.fft.ifftn(np.fft.fftn(wave.data) * np.exp(-0.2 * g.abs_freq**2))
        assert np.max(np.abs(final.data - want)) <= 1e-14

    def test_peak_memory_does_not_grow_with_nodes(self, tmp_path, traced_peak):
        # 128^2 random bumps: with the whole flow stacked the run peaked at
        # 6.6 CHUNK_BYTES on 33 nodes and 10.7 on 65; made a few chunks and
        # measured a chunk at a time, at about 4.8 on both
        cfg = self.CFG.replace("N = 64", "N = 128").format(data="recipe = random_bumps\nseed = 3")

        def run(nodes):
            (tmp_path / "run.cfg").write_text(cfg.replace("nodes = 32", f"nodes = {nodes}"))
            argv = ["--out", str(tmp_path / "o"), "propagate", "--config", str(tmp_path / "run.cfg")]
            return lambda: main(argv)

        run(32)()  # the first run loads what later runs reuse
        peaks = [traced_peak(run(nodes)) / fracheat.grid.CHUNK_BYTES for nodes in (32, 64)]
        assert max(peaks) < 6
        assert peaks[1] - peaks[0] < 0.1  # less than one sample, 0.125: per-node rows only


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BASE_CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["--seed", "7", "--deterministic", "--out", str(out),
                 "verify", "--config", str(cfg)]
            )
            assert rc == 0
            outs.append((out / "verify.json").read_bytes())
        assert outs[0] == outs[1]


class TestInputValidation:
    def _field_file(self, tmp_path, N):
        g = make_grid(2, N, 6.283185307179586)
        path = tmp_path / f"f{N}.frsf"
        write_field(synthesize_field(g, GaussianBump(width=0.3)), path)
        return path

    def _config(self, tmp_path, field_path, N=32):
        cfg = tmp_path / "field.cfg"
        cfg.write_text(
            f"[grid]\nn = 2\nN = {N}\nL = 6.283185307179586\n\n"
            f"[data]\nfield_file = {field_path}\n"
        )
        return cfg

    def test_truncated_field_file_exit_2(self, tmp_path, capsys):
        path = self._field_file(tmp_path, 32)
        path.write_bytes(path.read_bytes()[:-5])
        cfg = self._config(tmp_path, path)
        rc = main(["--out", str(tmp_path / "o"), "norm", "--config", str(cfg)])
        assert rc == 2
        assert "payload" in capsys.readouterr().err

    def test_field_file_grid_mismatch_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, self._field_file(tmp_path, 16), N=32)
        for command in ("norm", "propagate"):
            rc = main(["--out", str(tmp_path / "o"), command, "--config", str(cfg)])
            assert rc == 2
            err = capsys.readouterr().err
            assert "N=16" in err and "N=32" in err  # names both grids

    def test_non_integer_lambdas_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BASE_CFG.replace("lambdas = 1,2", "lambdas = 1,1.5"))
        rc = main(["--out", str(tmp_path / "o"), "verify", "--config", str(cfg)])
        assert rc == 2
        assert "positive integers" in capsys.readouterr().err

    def test_wave_packet_spread_is_honoured(self):
        grid_text = "[grid]\nn = 2\nN = 64\nL = 6.283185307179586\n\n"
        fields = []
        for spread in ("0.01", "2.0"):
            cfg = ExperimentConfig.parse(
                grid_text + f"[data]\nrecipe = wave_packets\nseed = 3\nspread = {spread}\n"
            )
            grid = grid_from_config(cfg)
            fields.append(synthesize_field(grid, recipe_from_config(cfg, grid, 0)).data)
        assert not np.allclose(fields[0], fields[1])

    POTENTIAL_CFG = (
        "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n"
        "[solver]\nalpha = 1.0\nT = 0.5\nq = 4\np = 4\nnodes = 16\ntol = 1e-9\n\n"
        "[potential]\nconstant = 2.0\n\n"
    )

    def _potential_bound(self, tmp_path, name, data):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(self.POTENTIAL_CFG + data)
        out = tmp_path / name
        rc = main(["--out", str(out), "potential-solve", "--config", str(cfg)])
        assert rc == 0
        return json.loads((out / "potential_solve.json").read_text())["results"]["bound_constant"]

    def test_potential_solve_reads_field_file(self, tmp_path, capsys):
        prop = tmp_path / "prop.cfg"
        prop.write_text(
            "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n"
            "[data]\nrecipe = random_bandlimited\nseed = 3\nj_min = 1\nj_max = 2\n\n"
            "[solver]\nalpha = 1.0\nT = 0.1\nnodes = 4\n"
        )
        assert main(["--out", str(tmp_path / "p"), "propagate", "--config", str(prop)]) == 0
        field = tmp_path / "p" / "final_field.frsf"
        default = self._potential_bound(tmp_path, "default", "")
        from_file = self._potential_bound(tmp_path, "file", f"[data]\nfield_file = {field}\n")
        assert from_file != default
        cfg = self._config(tmp_path, self._field_file(tmp_path, 16), N=32)
        rc = main(["--out", str(tmp_path / "o"), "potential-solve", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "N=16" in err and "N=32" in err

    @pytest.mark.parametrize("command", ["norm", "propagate", "potential-solve"])
    def test_missing_field_file_exit_2(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.frsf"
        cfg = self._config(tmp_path, missing)
        rc = main(["--out", str(tmp_path / "o"), command, "--config", str(cfg)])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "recipe, key, value",
        [
            ("plane_wave", "k", "1.5,0"),
            ("random_bandlimited", "seed", "1.5"),
            ("random_bumps", "count", "2.5"),
            ("random_bandlimited", "j_min", "one"),
            ("random_bandlimited", "j_max", "3.0"),
            # a recipe width must be positive and finite
            ("gaussian_bump", "width", "0"),
            ("gaussian_bump", "width", "-1"),
            ("gaussian_bump", "width", "inf"),
            ("random_bumps", "width", "0"),
            ("wave_packets", "width", "0"),
            # a carrier must be positive and finite, a spread nonnegative and finite
            ("wave_packets", "carrier", "inf"),
            ("random_bumps", "spread", "inf"),
        ],
    )
    def test_non_integer_recipe_key_exit_2(self, tmp_path, capsys, recipe, key, value):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text(
            "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n"
            f"[data]\nrecipe = {recipe}\n{key} = {value}\n\n[norm]\nkind = lebesgue\n"
        )
        rc = main(["--out", str(tmp_path / "o"), "norm", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and value.split(",")[0] in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["propagate", "--config", "{cfg}"], "alpha = one"),
            (["decay-fit", "--n", "1", "--alpha", "1", "--r", "x", "--p", "2"], "--r = x"),
            (["propagate", "--config", "{cfg}"], "T = nan"),
            (["norm", "--config", "{cfg}"], "width = nan"),
            (["decay-fit", "--n", "1", "--alpha", "1", "--r", "1", "--p=-inf"], "--p = -inf"),
            *(
                (["kernel-norm", "--n", "2", "--alpha", a, "--h", "1", "--r", "2"], named)
                for a, named in (("0", "alpha=0.0"), ("-1", "alpha=-1.0"), ("nan", "alpha=nan"))
            ),
            *(
                (["kernel-norm", "--n", "2", "--alpha", "1", "--h", "1", "--r", "2", f"--T={T}"],
                 f"T={named} must be positive")
                for T, named in (("nan", "nan"), ("0", "0.0"), ("-1", "-1.0"), ("inf", "inf"))
            ),
            *(
                (["kernel-norm", "--n", "2", "--alpha", "1", f"--h={h}", f"--r={r}"], named)
                for h, r, named in (
                    ("0", "2", "h=0.0 must be >= 1"), ("-1", "2", "h=-1.0 must be >= 1"),
                    ("1", "0.5", "r=0.5 must be >= 1"),
                )
            ),
            # window (n h / 2a)(1 - 1/r) = 2
            (["kernel-norm", "--n", "2", "--alpha", "1", "--h", "4", "--r", "2"],
             "kernel norm window"),
        ],
    )
    def test_non_numeric_value_exit_2(self, tmp_path, capsys, argv, named):
        cfg = tmp_path / "bad.cfg"
        # the named line sits in the section its command reads it from
        section = "data" if named.startswith("width") else "solver"
        cfg.write_text(TestCommandSkeleton.TINY_GRID + f"[{section}]\n{named}\n")
        argv = [a.format(cfg=cfg) for a in argv]
        assert main(["--out", str(tmp_path / "o"), *argv]) == 2
        assert named in capsys.readouterr().err

    TINY = TestCommandSkeleton.TINY_GRID
    PLANE8 = "[grid]\nn = 1\nN = 8\nL = 6.283185307179586\n\n[data]\nrecipe = plane_wave\n\n"
    NSE = "[grid]\nn = 2\nN = 16\nL = 6.283185307179586\n\n[solver]\nT = 0.2\nnodes = 8\n"

    @pytest.mark.parametrize(
        "command, text, named",
        [
            ("propagate", "[grid]\nn = 1\nN = 16\nL = inf\n", "L=inf"),
            ("propagate", TINY + "[solver]\nT = inf\n", "T=inf"),
            ("verify", PARABOLIC_CFG + "s_max = inf\n", "s_max = inf"),
            ("potential-solve", TINY + "[solver]\nT = 0\n", "T=0.0"),
            ("potential-solve", TINY + "[solver]\nT = -1\n", "T=-1.0"),
            ("potential-solve", TINY + "[solver]\nT = inf\n", "T=inf"),
            ("potential-solve", TINY + "[solver]\nT = inf\n\n[potential]\nconstant = 1\n",
             "T=inf"),
            ("potential-solve", TINY + "[potential]\nconstant = inf\n", "potential V"),
            ("potential-solve", TINY + "[solver]\ntol = -1\n", "tol=-1.0"),
            ("nse-solve", NSE + "tol = -1\n", "tol=-1.0"),
            ("norm", "[grid]\nn = 2\nN = 64\nL = 6.283185307179586\n\n"
             "[data]\nrecipe = random_bandlimited\nj_min = 5\nj_max = 3\n", "j_min = 5"),
            *(
                ("norm", BUMP32 + f"[norm]\nkind = {kind}\nhomogeneous = {h}\ns = {s}\n",
                 f"order s={s}")
                for kind, h, s in (
                    ("sobolev", "true", "inf"), ("sobolev", "true", "400.0"),
                    ("sobolev", "false", "400.0"), ("besov", "false", "inf"),
                    ("besov", "false", "2000.0"),
                )
            ),
            ("verify", BASE_CFG + "kind = sobolev\ns = inf\n",
             "order s=inf"),
            # exponents outside their ranges, named before any relation divides by them
            ("nse-solve", NSE + "q = 0\n", "time exponent q=0.0 must be >= 1"),
            ("potential-solve", TINY + "[solver]\nr = 0\ns = 1\n", "r=0.0 must be >= 1"),
            ("potential-solve", TINY + "[solver]\nr = 2\ns = 0\n", "s=0.0 must be positive"),
            # 1/r + n/(2 alpha s) = -1 + 2 = 1 holds, but r is not an exponent
            ("potential-solve", TINY + "[solver]\nalpha = 0.5\nr = -1\ns = 0.5\n",
             "r=-1.0 must be >= 1"),
            ("potential-solve", TINY + "[solver]\nq = 0.5\n", "time exponent q=0.5 must be >= 1"),
            ("potential-solve", TINY + "[solver]\np = 0\n", "Lebesgue exponent p=0.0 must be >= 1"),
            # a flag is true or false, not whatever is not "false"
            *(
                ("norm", BUMP32 + f"[norm]\nkind = sobolev\ns = 1\nhomogeneous = {h}\n",
                 f"homogeneous = {h}: expected true or false")
                for h in ("no", "flase")
            ),
            # a missing [grid] and names that are not a recipe or an estimate
            ("norm", BUMP32.split("\n\n", 1)[1], "config is missing a [grid] section"),
            ("norm", BUMP32.replace("= gaussian_bump", "= gaussian_bumps"),
             "unknown data recipe 'gaussian_bumps'"),
            ("verify", BASE_CFG.replace("= homogeneous", "= homogenous"),
             "unknown estimate id 'homogenous'"),
            # a sweep's time horizon and node count, named as the keys they are
            ("verify", BASE_CFG.replace("= homogeneous", "= inhomogeneous") + "nodes = 0\n",
             "nodes=0 must be an integer >= 1"),
            *(
                ("verify", BASE_CFG.replace("= homogeneous", f"= {estimate}").replace(
                    "q = 4", f"q = {q}").replace("T = 0.05\n", "") + f"T = {T}\n",
                 f"time horizon T={named} must be positive and finite")
                for estimate, q in (("homogeneous", 4), ("bmo_endpoint", 2))
                for T, named in (("0", "0.0"), ("inf", "inf"))
            ),
            # a seed is an integer >= 0: numpy rejected a negative one unnamed, exit 1
            ("norm", BUMP32.replace("gaussian_bump\nwidth = 0.3", "random_bumps\nseed = -1"),
             "seed=-1 must be an integer >= 0"),
            ("norm", BUMP32.replace("gaussian_bump\nwidth = 0.3",
                                    "random_bandlimited\nj_max = 2\nseed = -2"),
             "seed=-2 must be an integer >= 0"),
            # dilation factors are parsed here and ranged by `dilation_sweep`
            ("verify", BASE_CFG.replace("lambdas = 1,2", "lambdas = 0,1"),
             "lambdas[0]=0 must be positive and finite"),
            ("verify", BASE_CFG.replace("lambdas = 1,2", "lambdas = 1,-2"),
             "lambdas[1]=-2 must be positive and finite"),
            # no bumps or packets: the field would be zero and its norm 0
            *(
                ("norm", "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n"
                 f"[data]\nrecipe = {recipe}\ncount = {count}\n", named)
                for recipe, count, named in (
                    ("random_bumps", 0, "count=0 must be an integer >= 1"),
                    ("wave_packets", -2, "count=-2 must be an integer >= 1"),
                    ("random_bumps", 3, "count=3 must be even"),
                )
            ),
            # a Lebesgue sweep reported the ratios of s = 0 whatever s was
            ("verify", BASE_CFG + "kind = lebesgue\ns = 1\n",
             "s=1.0: the lebesgue norm does not read s"),
            # each of the paper's hypotheses on exponents, named
            ("nse-solve", NSE + "q = 4\np = 8\n", "exponent relation 2a-1 = 2a/q + n/p"),
            ("potential-solve", TINY + "[solver]\nr = 4\ns = 2\n",
             "potential integrability 1/r + n/(2 alpha s) = 1"),
            ("verify", BASE_CFG.replace("= homogeneous", "= bmo_endpoint").replace(
                "alpha = 1.0", "alpha = 0.75").replace("q = 4", "q = 2"),
             "bmo endpoint requires n = 2*alpha"),
            ("verify", BASE_CFG.replace("q = 4", "q = 2").replace("p = 4", "p = inf"),
             "the triplet (q, p, sigma) = (2, inf, 1) is excluded"),
            ("verify", BASE_CFG.replace("= homogeneous", "= inhomogeneous").replace(
                "p = 4", "p = 8"), "scaling relation"),
            # q1's conjugate was taken first, which named it p
            ("verify", BASE_CFG.replace("= homogeneous", "= inhomogeneous") + "q1 = 0.5\n",
             "q1=0.5 must be >= 1"),
            ("verify", PARABOLIC_CFG.replace("p = 4", "p = 2"), "b-form requires 2 < p <= inf"),
            ("verify", PARABOLIC_CFG.replace("= parabolic", "= besov_embedding").replace(
                "p = 4", "p = 2"), "embedding requires p > 2"),
            # scales that float64 cannot hold: the rate |xi|^(2 alpha) overflowed to inf
            # (NaN rows, or a misleading convergence failure), the cell volume
            # (L/N)^n or a squared wavenumber left the normal range (NaN, 0.0 or
            # OverflowError), and so did width^2
            ("propagate", PLANE8 + "[solver]\nalpha = 1e6\nnodes = 2\n", "alpha=1000000.0"),
            ("verify", "[grid]\nn = 1\nN = 64\nL = 6.283185307179586\n\n[sweep]\n"
             "alpha = 300\nlambdas = 1\nq = 4\np = 4\n", "alpha=300.0"),
            ("potential-solve", PLANE8 + "[solver]\nalpha = 1e6\nnodes = 8\n",
             "alpha=1000000.0"),
            ("propagate", "[grid]\nn = 2\nN = 8\nL = 1e-200\n", "L=1e-200"),
            *(
                ("norm", f"[grid]\nn = 3\nN = 8\nL = {L}\n\n[data]\nrecipe = plane_wave\n",
                 f"L={float(L)}")
                for L in ("1e300", "1e-300")
            ),
            ("norm", "[grid]\nn = 1\nN = 16\nL = 1e300\n", "L=1e+300"),
            ("norm", BUMP32.replace("width = 0.3", "width = 1e-300"), "width=1e-300"),
            ("norm", BUMP32.replace("gaussian_bump\nwidth = 0.3",
                                    "wave_packets\nwidth = 1e300\ncarrier = 2"), "width=1e+300"),
        ],
        ids=lambda v: v.strip().splitlines()[-1] if "\n" in v else None,
    )
    def test_non_finite_or_non_positive_input_exit_2(
        self, tmp_path, capsys, command, text, named
    ):
        """Times, lengths, tolerances, potentials, recipe parameters,
        Sobolev/Besov orders, exponents, flags and names that would give
        NaN, overflow, a misleading convergence failure, an internal error
        or a silently misread value are rejected by name."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["--out", str(tmp_path / "o"), command, "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        # the --seed of a seeded recipe the config gives no seed
        cfg = tmp_path / "packets.cfg"
        cfg.write_text(BUMP32.replace("gaussian_bump\nwidth = 0.3", "wave_packets"))
        argv = ["--seed", "-1", "--out", str(tmp_path / "o"), "norm", "--config", str(cfg)]
        assert main(argv) == 2
        assert "seed=-1 must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, named",
        [
            ("recipe = gaussian_bump", "gaussian_bump"),
            ("field_file = f.frsf", "field_file"),
        ],
    )
    def test_nse_solve_rejects_other_data_exit_2(self, tmp_path, capsys, data, named):
        cfg = tmp_path / "nse.cfg"
        cfg.write_text(
            "[grid]\nn = 2\nN = 16\nL = 6.283185307179586\n\n"
            f"[solver]\nT = 0.2\nnodes = 8\n\n[data]\n{data}\n"
        )
        rc = main(["--out", str(tmp_path / "o"), "nse-solve", "--config", str(cfg)])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_potential_solve_half_declared_pair_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "pot.cfg"
        cfg.write_text(self.POTENTIAL_CFG.replace("nodes = 16", "r = 4\nnodes = 16"))
        argv = ["--out", str(tmp_path / "o"), "potential-solve", "--config", str(cfg)]
        assert main(argv) == 2
        assert "s is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["absent.cfg", "a_directory", "binary.cfg"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        if name == "a_directory":
            path.mkdir()
        elif name == "binary.cfg":
            path.write_bytes(b"\xff\xfe[grid]\x81")
        rc = main(["--out", str(tmp_path / "o"), "norm", "--config", str(path)])
        assert rc == 2
        assert f"cannot read config {path}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, old, new, named",
        [
            ("propagate", "nodes = 4", "nodes = 0", "nodes=0"),
            ("propagate", "nodes = 4", "nodes = -3", "nodes=-3"),
            ("nse-solve", "nodes = 8", "nodes = -3", "nodes=-3"),
            ("nse-solve", "nodes = 8", "nodes = 0", "nodes=0"),
            ("nse-solve", "nodes = 8", "nodes = 8\nmax_iter = 0", "max_iter=0"),
            ("potential-solve", "nodes = 16", "nodes = -3", "nodes=-3"),
            ("potential-solve", "nodes = 16", "nodes = 0", "nodes=0"),
            ("potential-solve", "nodes = 16", "nodes = 16\nmax_iter = 0", "max_iter=0"),
            ("potential-solve", "nodes = 16", "nodes = 16\nmin_fraction = 0", "min_fraction"),
            *(  # a non-positive or NaN alpha, the verify rows on both estimates
                (command, old, new + alpha, named)
                for alpha, named in (("0", "alpha=0.0"), ("-1", "alpha=-1.0"), ("nan", "alpha = nan"))
                for command, old, new in (
                    ("propagate", "nodes = 4", "nodes = 4\nalpha = "),
                    ("potential-solve", "nodes = 16", "nodes = 16\nalpha = "),
                    ("verify", "homogeneous\nlambdas = 1,2\nalpha = 1.0",
                     "homogeneous\nlambdas = 1,2\nalpha = "),
                    ("verify", "homogeneous\nlambdas = 1,2\nalpha = 1.0",
                     "inhomogeneous\nlambdas = 1,2\nalpha = "),
                )
            ),
        ],
    )
    def test_solver_count_below_one_exit_2(self, tmp_path, capsys, command, old, new, named):
        cfg = tmp_path / "counts.cfg"
        cfg.write_text(TestCommandSkeleton.CONFIGS[command].replace(old, new))
        assert main(["--out", str(tmp_path / "o"), command, "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err

    def test_non_integer_grid_size_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("[grid]\nn = 2\nN = 32.0\nL = 6.283185307179586\n")
        rc = main(["--out", str(tmp_path / "o"), "norm", "--config", str(cfg)])
        assert rc == 2
        assert "N = 32.0" in capsys.readouterr().err

    FIELD = "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n[data]\nfield_file = {dir}/f32.frsf\n"

    @pytest.mark.parametrize(
        "command, text, named",
        [
            # a misspelt key in each config command
            ("norm", BUMP32.replace("width", "widht"), "[data] widht: not read here"),
            ("norm", BUMP32.replace("N = 32", "NN = 32"), "[grid] NN: not read here"),
            ("norm", BUMP32 + "[norm]\nkindd = bmo\n", "[norm] kindd: not read here"),
            ("verify", BASE_CFG.replace("drift_tol", "drift_tl"),
             "[sweep] drift_tl: not read here"),
            ("propagate", TINY + "[solver]\nT = 0.1\nnode = 4\n", "[solver] node: not read here"),
            ("nse-solve", NSE + "tol_ = 1e-6\n", "[solver] tol_: not read here"),
            ("potential-solve", TINY + "[potential]\nconstnat = 2\n",
             "[potential] constnat: not read here"),
            # a section no command reads, or one this command does not read
            ("propagate", TINY + "[solvr]\nT = 0.1\n", "[solvr]: not read here"),
            ("norm", BUMP32 + "[solver]\nT = 0.1\n", "[solver]: not read here"),
            ("potential-solve", TINY + "[sweep]\nalpha = 1\n", "[sweep]: not read here"),
            # [DEFAULT] is a section like any other, not copied into the rest
            ("norm", "[DEFAULT]\nwidth = 0.3\n\n" + BUMP32, "[DEFAULT]: not read here"),
            # verify synthesizes every dilation level, so it reads no field file
            ("verify", BASE_CFG.replace("recipe = gaussian_bump\n", "field_file = {dir}/f32.frsf\n"),
             "[data] field_file: not read here"),
            # a field file is the whole of [data]
            ("norm", FIELD + "recipe = gaussian_bump\n", "[data] recipe: not read here"),
            # a key of another recipe, or of another estimate
            ("norm", BUMP32 + "count = 4\n", "[data] count: not read here"),
            ("propagate", TINY + "[data]\namplitude = 2\n", "[data] amplitude: not read here"),
            ("verify", BASE_CFG + "s_min = 0.1\n", "[sweep] s_min: not read here"),
            ("verify", PARABOLIC_CFG + "q1 = 4\n", "[sweep] q1: not read here"),
            # a key the norm kind does not read: lebesgue reported its L^2 value
            # whatever s was, and bmo ignored p, q and homogeneous
            ("norm", BUMP32 + "[norm]\nkind = lebesgue\ns = 1\n",
             "[norm] s: not read here; [norm] takes kind, p"),
            ("norm", BUMP32 + "[norm]\nkind = bmo\np = 7\nq = 3\nhomogeneous = false\n",
             "[norm] p, q, homogeneous: not read here; [norm] takes kind"),
            ("norm", BUMP32 + "[norm]\nkind = sobolev\nq = 3\n",
             "[norm] q: not read here; [norm] takes kind, p, s, homogeneous"),
            ("norm", BUMP32 + "[norm]\nkind = holder\n", "unknown norm kind 'holder'"),
            # a value is read as written: a % in a path names the unreadable file
            ("norm", FIELD.replace("f32", "a%b"), "cannot read field file {dir}/a%b.frsf"),
        ],
        ids=lambda v: v.strip().splitlines()[-1] if "\n" in v else None,
    )
    def test_undeclared_section_or_key_exit_2(self, tmp_path, capsys, command, text, named):
        """A section or key the command does not read is rejected by name
        before any work, where it used to be ignored."""
        self._field_file(tmp_path, 32)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.format(dir=tmp_path))
        assert main(["--out", str(tmp_path / "o"), command, "--config", str(cfg)]) == 2
        assert named.format(dir=tmp_path) in capsys.readouterr().err


class TestExitOne:
    """Exit code 1 is for a failed computation and for a fault inside a
    command, each with its own prefix."""

    @pytest.mark.parametrize("exc, printed", [
        (ConvergenceError("no fixed point"), "error: no fixed point"),
        (ZeroDivisionError("by zero"), "internal error: ZeroDivisionError: by zero"),
    ])
    def test_exit_1(self, tmp_path, capsys, monkeypatch, exc, printed):
        def command(cfg, args):
            raise exc

        monkeypatch.setitem(fracheat.cli._DISPATCH, "norm", command)
        cfg = tmp_path / "norm.cfg"
        cfg.write_text(BUMP32)
        assert main(["--out", str(tmp_path / "o"), "norm", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(printed) and "precondition" not in err


class TestNormsOfLargeData:
    """`norm` on finite data whose squares overflow reports a finite value
    that scales with the data, not Infinity or NaN."""

    def _norm(self, tmp_path, data, norm):
        cfg = tmp_path / "norm.cfg"
        cfg.write_text(
            "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n"
            f"[data]\n{data}\n\n[norm]\n{norm}\n"
        )
        out = tmp_path / "o"
        assert main(["--out", str(out), "norm", "--config", str(cfg)]) == 0
        return json.loads((out / "norm.json").read_text())["results"]["value"]

    def _field_file(self, tmp_path, scale, zero_mean):
        g = make_grid(2, 32, 6.283185307179586)
        f = synthesize_field(g, GaussianBump(width=0.3)).data.real
        f = f - f.mean() if zero_mean else f
        path = tmp_path / f"bump_{scale:g}.frsf"
        write_field(fracheat.grid.Field(g, scale * f), path)
        return f"field_file = {path}"

    def test_high_order_sobolev_norm_of_a_plane_wave(self, tmp_path):
        value = self._norm(tmp_path, "recipe = plane_wave\nk = 1,2",
                           "kind = sobolev\ns = 200")
        assert np.isfinite(value) and value > 0

    @pytest.mark.parametrize(
        "norm, zero_mean",
        [("kind = bmo", False), ("kind = besov\ns = 0.5\np = 4\nq = 2", True)],
    )
    def test_norm_of_a_large_field_file(self, tmp_path, norm, zero_mean):
        base = self._norm(tmp_path, self._field_file(tmp_path, 1.0, zero_mean), norm)
        value = self._norm(tmp_path, self._field_file(tmp_path, 1e160, zero_mean), norm)
        assert abs(value / (1e160 * base) - 1) < 1e-13


class TestNormCommand:
    """`norm` reads every recipe the config names, and its flag in any case."""

    _norm = TestNormsOfLargeData._norm

    def test_windowed_powerlaw_recipe(self, tmp_path):
        data = "recipe = windowed_powerlaw\ndecay = 1.5"
        got = self._norm(tmp_path, data, "kind = lebesgue\np = 4")
        g = make_grid(2, 32, 6.283185307179586)
        assert got == lp_norm(synthesize_field(g, WindowedPowerlaw(decay=1.5)), 4.0)

    def test_homogeneous_flag_in_any_case(self, tmp_path):
        data = "recipe = random_bandlimited\nj_max = 2"
        values = {
            h: self._norm(tmp_path, data, f"kind = sobolev\ns = 1\nhomogeneous = {h}")
            for h in ("true", "True", "false", "FALSE")
        }
        assert values["true"] == values["True"] != values["false"] == values["FALSE"]
