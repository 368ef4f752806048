"""Command-line surface: bind experiments to config files and emit reports.

Config files are flat ``key = value`` text with bracketed section headers
(INI style).  Every run writes a JSON report (one object, sorted keys,
embedding the fully resolved config and a content hash of any input field
files) and, where a run produces per-sample data, a CSV file.

Exit codes: 0 success, 2 precondition/hypothesis violation (the diagnostic
names the violated hypothesis), 1 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FracheatError, PreconditionError
from .grid import (
    Field,
    GaussianBump,
    GridSpec,
    PlaneWave,
    RandomBandlimited,
    RandomBumps,
    TimeSeries,
    WavePackets,
    WindowedPowerlaw,
    read_field,
    synthesize_field,
    uniform_times,
    write_field,
)
from .norms import NormSpec, lp_norm
from .semigroup import semigroup_series
from .estimates import (
    DECAY_BATTERY,
    dilation_sweep,
    kernel_mixed_norm_fit,
    run_decay_case,
)
from .nse import (
    perturbed_taylor_green,
    solve_nse_picard,
    solve_potential_eq,
    taylor_green,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Sections of string key/value pairs; round-trips exactly through text."""

    sections: dict[str, dict[str, str]] = dc_field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keep key case
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise PreconditionError(f"malformed config: {exc}") from exc
        return cls({s: dict(cp.items(s)) for s in cp.sections()})

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.parse(Path(path).read_text())

    def serialize(self) -> str:
        out = io.StringIO()
        for sec in self.sections:
            out.write(f"[{sec}]\n")
            for k, v in self.sections[sec].items():
                out.write(f"{k} = {v}\n")
            out.write("\n")
        return out.getvalue()

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def getfloat(self, section, key, default=None):
        v = self.get(section, key)
        if v is None:
            return default
        return parse_exponent(v)

    def getint(self, section, key, default=None):
        v = self.get(section, key)
        return default if v is None else parse_int(key, v)

    def as_dict(self) -> dict:
        return {s: dict(kv) for s, kv in self.sections.items()}


def parse_exponent(text: str) -> float:
    t = str(text).strip().lower()
    if t in ("inf", "infinity", "oo"):
        return INF
    return float(t)


def parse_int(key: str, text) -> int:
    """An integer config value; anything else is a precondition violation
    naming the key and the value."""
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(f"{key} = {text}: expected an integer") from None


def _exp_str(x: float) -> str:
    return "inf" if x == INF else repr(float(x))


def grid_from_config(cfg: ExperimentConfig) -> GridSpec:
    sec = cfg.sections.get("grid")
    if not sec:
        raise PreconditionError("config is missing a [grid] section")
    return GridSpec(
        n=parse_int("n", sec.get("n", 2)),
        N=parse_int("N", sec.get("N", 64)),
        L=parse_exponent(sec.get("L", "6.283185307179586")),
    )


def recipe_from_config(cfg: ExperimentConfig, grid: GridSpec, seed: int):
    sec = cfg.sections.get("data", {})
    name = sec.get("recipe", "gaussian_bump")
    if name == "gaussian_bump":
        return GaussianBump(width=parse_exponent(sec.get("width", str(grid.L / 21))))
    if name == "plane_wave":
        k_text = sec.get("k", "1" + ",0" * (grid.n - 1))
        k = tuple(parse_int("k", x) for x in k_text.split(","))
        return PlaneWave(k=k)
    if name == "random_bandlimited":
        return RandomBandlimited(
            seed=parse_int("seed", sec.get("seed", seed)),
            j_min=parse_int("j_min", sec.get("j_min", 1)),
            j_max=parse_int("j_max", sec.get("j_max", 3)),
        )
    if name == "random_bumps":
        return RandomBumps(
            seed=parse_int("seed", sec.get("seed", seed)),
            width=parse_exponent(sec.get("width", str(grid.L / 26))),
            spread=parse_exponent(sec.get("spread", str(grid.L / 20))),
            count=parse_int("count", sec.get("count", 4)),
        )
    if name == "wave_packets":
        return WavePackets(
            seed=parse_int("seed", sec.get("seed", seed)),
            carrier=parse_exponent(sec.get("carrier", "20")),
            width=parse_exponent(sec.get("width", str(grid.L / 21))),
            count=parse_int("count", sec.get("count", 3)),
            spread=parse_exponent(sec["spread"]) if "spread" in sec else None,
        )
    if name == "windowed_powerlaw":
        return WindowedPowerlaw(decay=parse_exponent(sec.get("decay", "1.0")))
    raise PreconditionError(f"unknown data recipe {name!r}")


def field_from_config(cfg: ExperimentConfig, grid: GridSpec, seed: int) -> Field:
    """The [data] field_file (on exactly the config [grid]) or else the recipe."""
    path = cfg.get("data", "field_file")
    if not path:
        return synthesize_field(grid, recipe_from_config(cfg, grid, seed))
    f = read_field(path)
    if f.grid != grid:
        raise PreconditionError(
            f"field file {path} is on grid {f.grid} but the config [grid] is {grid}"
        )
    return f


def parse_lambdas(text: str) -> list[int]:
    """Comma-separated dilation factors; each must be a positive integer."""
    try:
        lambdas = [int(x) for x in text.split(",")]
        if min(lambdas) >= 1:
            return lambdas
    except ValueError:
        pass
    raise PreconditionError(f"lambdas = {text}: dilation factors must be positive integers")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_report(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def write_csv(out_dir: Path, name: str, rows: list[dict]) -> Path | None:
    if not rows:
        return None
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.csv"
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(str(row[k]) for k in keys))
    path.write_text("\n".join(lines) + "\n")
    return path


def _base_payload(command: str, cfg: ExperimentConfig | None, args) -> dict:
    payload = {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "deterministic": bool(args.deterministic),
        "config": cfg.as_dict() if cfg else {},
    }
    field_file = cfg.get("data", "field_file") if cfg else None
    if field_file:
        payload["input_hash"] = _hash_file(field_file)
    return payload


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_propagate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    f = field_from_config(cfg, grid_from_config(cfg), args.seed)
    alpha = cfg.getfloat("solver", "alpha", 1.0)
    T = cfg.getfloat("solver", "T", 1.0)
    m = cfg.getint("solver", "nodes", 32)
    times = uniform_times(T, m)
    series = semigroup_series(f, times, alpha)
    snaps = series.snapshots
    rows = [
        {"t": t, "l2": lp_norm(s, 2), "linf": lp_norm(s, INF)}
        for t, s in zip(series.times, snaps)
    ]
    out = Path(args.out)
    final_path = out / "final_field.frsf"
    out.mkdir(parents=True, exist_ok=True)
    write_field(snaps[-1].to_physical(), final_path)
    payload = _base_payload("propagate", cfg, args)
    payload["results"] = {
        "alpha": alpha,
        "T": T,
        "final_l2": rows[-1]["l2"],
        "final_field": str(final_path),
    }
    write_report(out, "propagate", payload)
    write_csv(out, "propagate", rows)
    return 0


def cmd_norm(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    f = field_from_config(cfg, grid_from_config(cfg), args.seed)
    sec = cfg.sections.get("norm", {})
    spec = NormSpec(
        kind=sec.get("kind", "lebesgue"),
        p=parse_exponent(sec.get("p", "2")),
        s=parse_exponent(sec.get("s", "0")),
        q=parse_exponent(sec.get("q", "2")),
        homogeneous=sec.get("homogeneous", "true").lower() != "false",
    )
    value = spec.compute(f)
    payload = _base_payload("norm", cfg, args)
    payload["results"] = {"kind": spec.kind, "value": value}
    write_report(Path(args.out), "norm", payload)
    return 0


def cmd_verify(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    grid = grid_from_config(cfg)
    sweep = cfg.sections.get("sweep", {})
    estimate = args.estimate or sweep.get("estimate", "homogeneous")
    lambdas = parse_lambdas(sweep.get("lambdas", "1,2,4"))
    alpha = parse_exponent(sweep.get("alpha", "1.0"))
    params = {
        "alpha": alpha,
        "q": parse_exponent(sweep.get("q", "4")),
        "p": parse_exponent(sweep.get("p", "4")),
        "T": parse_exponent(sweep.get("T", "0.05")),
        "kind": sweep.get("kind", "lebesgue"),
        "s": parse_exponent(sweep.get("s", "0")),
    }
    if estimate == "parabolic":
        params["s_min"] = parse_exponent(sweep.get("s_min", "1e-6"))
        params["s_max"] = parse_exponent(sweep.get("s_max", "6.0"))
    if estimate == "inhomogeneous":
        params["q1"] = parse_exponent(sweep.get("q1", "4"))
        params["p1"] = parse_exponent(sweep.get("p1", "4"))
        T = params["T"]
        params["times"] = uniform_times(T, cfg.getint("sweep", "nodes", 48))
        tau = T / 3.0
        params["profile"] = lambda t: (t / tau) * np.exp(-t / tau)
    recipe = recipe_from_config(cfg, grid, args.seed)
    drift_tol = parse_exponent(sweep.get("drift_tol", "0.01"))
    report = dilation_sweep(recipe, grid, lambdas, estimate, params, drift_tol=drift_tol)
    payload = _base_payload("verify", cfg, args)
    payload["results"] = report.to_json_dict()
    out = Path(args.out)
    write_report(out, "verify", payload)
    write_csv(out, "verify", report.csv_rows())
    return 0


def cmd_decay_fit(args) -> int:
    n, alpha = args.n, args.alpha
    r, p = parse_exponent(args.r), parse_exponent(args.p)
    key = (n, alpha, r, p)
    if key not in DECAY_BATTERY:
        raise PreconditionError(
            f"(n, alpha, r, p) = {key} is not in the tuned decay battery; "
            f"available: {sorted(DECAY_BATTERY)}"
        )
    fit = run_decay_case(n, alpha, r, p, gradient=args.gradient)
    payload = _base_payload("decay-fit", None, args)
    payload["results"] = {
        "n": n,
        "alpha": alpha,
        "r": _exp_str(r),
        "p": _exp_str(p),
        "gradient": bool(args.gradient),
        "slope": fit.slope,
        "predicted": fit.predicted,
        "relative_error": fit.relative_error,
        "contamination": fit.contamination,
    }
    out = Path(args.out)
    write_report(out, "decay_fit", payload)
    rows = [
        {"t": t, "norm": v} for t, v in zip(fit.times.tolist(), fit.norms.tolist())
    ]
    write_csv(out, "decay_fit", rows)
    return 0


def cmd_kernel_norm(args) -> int:
    fit = kernel_mixed_norm_fit(
        alpha=args.alpha,
        h=parse_exponent(args.h),
        r=parse_exponent(args.r),
        T=args.T,
        n=args.n,
    )
    payload = _base_payload("kernel-norm", None, args)
    payload["results"] = {
        "norm_T": fit.norm_T,
        "fitted_exponent": fit.fitted_exponent,
        "predicted_exponent": fit.predicted_exponent,
        "window_value": fit.window_value,
    }
    write_report(Path(args.out), "kernel_norm", payload)
    return 0


def cmd_nse_solve(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    grid = grid_from_config(cfg)
    sol = cfg.sections.get("solver", {})
    alpha = parse_exponent(sol.get("alpha", "1.0"))
    T = parse_exponent(sol.get("T", "1.0"))
    q = parse_exponent(sol.get("q", "4"))
    p = parse_exponent(sol.get("p", "4"))
    tol = parse_exponent(sol.get("tol", "1e-6"))
    max_iter = parse_int("max_iter", sol.get("max_iter", 20))
    nodes = parse_int("nodes", sol.get("nodes", 64))
    data = cfg.sections.get("data", {})
    amplitude = parse_exponent(data.get("amplitude", "1.0"))
    if data.get("recipe", "perturbed_taylor_green") == "taylor_green":
        g0 = taylor_green(grid, amplitude)
    else:
        g0 = perturbed_taylor_green(grid, amplitude)
    v, report = solve_nse_picard(
        g0, None, alpha, T, q, p, tol=tol, max_iter=max_iter, nodes=nodes
    )
    payload = _base_payload("nse-solve", cfg, args)
    payload["results"] = report.to_json_dict()
    out = Path(args.out)
    write_report(out, "nse_solve", payload)
    rows = [
        {"t": t, "l2": lp_norm(s, 2)} for t, s in zip(v.times, v.snapshots)
    ]
    write_csv(out, "nse_solve", rows)
    return 0


def cmd_potential_solve(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    grid = grid_from_config(cfg)
    sol = cfg.sections.get("solver", {})
    alpha = parse_exponent(sol.get("alpha", "1.0"))
    T = parse_exponent(sol.get("T", "1.0"))
    q = parse_exponent(sol.get("q", "4"))
    p = parse_exponent(sol.get("p", "4"))
    r = sol.get("r")
    s = sol.get("s")
    tol = parse_exponent(sol.get("tol", "1e-10"))
    nodes = parse_int("nodes", sol.get("nodes", 64))
    f = field_from_config(cfg, grid, args.seed)
    pot = cfg.sections.get("potential", {})
    V = None
    if "constant" in pot:
        c = parse_exponent(pot["constant"])
        V = TimeSeries(
            np.array([0.0, T]),
            [Field(grid, np.full(grid.shape, c, dtype=np.complex128))] * 2,
        )
    solution, report = solve_potential_eq(
        f,
        None,
        V,
        alpha=alpha,
        T=T,
        q=q,
        p=p,
        r=parse_exponent(r) if r else None,
        s=parse_exponent(s) if s else None,
        tol=tol,
        nodes=nodes,
    )
    payload = _base_payload("potential-solve", cfg, args)
    payload["results"] = report.to_json_dict()
    out = Path(args.out)
    write_report(out, "potential_solve", payload)
    rows = [
        {"t0": a, "t1": b, "factor": fac, "iterations": it}
        for a, b, fac, it in report.subintervals
    ]
    write_csv(out, "potential_solve", rows)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracheat",
        description="Mixed-norm verification harness for the fractional heat semigroup",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="reports")
    ap.add_argument(
        "--deterministic",
        action="store_true",
        help="record the deterministic-mode flag in reports (runs are "
        "single-threaded and seeded, hence reproducible byte-for-byte)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("propagate", "norm", "nse-solve", "potential-solve"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)

    p = sub.add_parser("verify")
    p.add_argument("--config", required=True)
    p.add_argument("--estimate", default=None)

    p = sub.add_parser("decay-fit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--gradient", action="store_true")

    p = sub.add_parser("kernel-norm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--T", type=float, default=0.03)
    return ap


_DISPATCH = {
    "propagate": cmd_propagate,
    "norm": cmd_norm,
    "verify": cmd_verify,
    "decay-fit": cmd_decay_fit,
    "kernel-norm": cmd_kernel_norm,
    "nse-solve": cmd_nse_solve,
    "potential-solve": cmd_potential_solve,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except FracheatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
