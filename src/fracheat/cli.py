"""Command-line surface: bind experiments to config files and emit reports.

Config files are flat ``key = value`` text with bracketed section headers
(INI style).  Every run writes a JSON report (one object, sorted keys,
embedding the config as written, not the defaults a command applies, and a
content hash of any input field files) and, where a run produces
per-sample data, a CSV file.

Exit codes: 0 success, 2 precondition/hypothesis violation (the diagnostic
names the violated hypothesis), 1 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FracheatError, PreconditionError
from .grid import (
    Field,
    GaussianBump,
    GridSpec,
    PHYSICAL,
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
from .norms import NormSpec, _lp, lp_norms
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
    """Sections of string key/value pairs, as parsed from a config file."""

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
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise PreconditionError(f"cannot read config {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise PreconditionError(f"cannot read config {path}: {exc.reason}") from exc
        return cls.parse(text)

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def getfloat(self, section, key, default=None):
        v = self.get(section, key)
        return default if v is None else parse_exponent(v, key)

    def getint(self, section, key, default=None):
        v = self.get(section, key)
        return default if v is None else parse_int(key, v)

    def as_dict(self) -> dict:
        return {s: dict(kv) for s, kv in self.sections.items()}


def parse_exponent(text: str, key: str = "exponent") -> float:
    """A real config value or flag, "inf" included; anything else, NaN and
    -inf among it, is a precondition violation naming the key and the value."""
    t = str(text).strip().lower()
    if t in ("inf", "infinity", "oo"):
        return INF
    try:
        value = float(t)
    except ValueError:
        value = math.nan
    if math.isnan(value) or value == -INF:
        raise PreconditionError(f"{key} = {text}: expected a number or inf")
    return value


def parse_int(key: str, text) -> int:
    """An integer config value; anything else is a precondition violation
    naming the key and the value."""
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(f"{key} = {text}: expected an integer") from None


def parse_bool(key: str, text: str) -> bool:
    """A true/false config flag in any case; anything else is a precondition
    violation naming the key and the value."""
    value = str(text).strip().lower()
    if value not in ("true", "false"):
        raise PreconditionError(f"{key} = {text}: expected true or false")
    return value == "true"


def _exp_str(x: float) -> str:
    return "inf" if x == INF else repr(float(x))


def grid_from_config(cfg: ExperimentConfig) -> GridSpec:
    if not cfg.sections.get("grid"):
        raise PreconditionError("config is missing a [grid] section")
    return GridSpec(
        n=cfg.getint("grid", "n", 2),
        N=cfg.getint("grid", "N", 64),
        L=cfg.getfloat("grid", "L", 6.283185307179586),
    )


def recipe_from_config(cfg: ExperimentConfig, grid: GridSpec, seed: int):
    name = cfg.get("data", "recipe", "gaussian_bump")
    get, getint = cfg.getfloat, cfg.getint
    if name == "gaussian_bump":
        return GaussianBump(width=get("data", "width", grid.L / 21))
    if name == "plane_wave":
        k_text = cfg.get("data", "k", "1" + ",0" * (grid.n - 1))
        return PlaneWave(k=tuple(parse_int("k", x) for x in k_text.split(",")))
    if name == "random_bandlimited":
        return RandomBandlimited(
            seed=getint("data", "seed", seed),
            j_min=getint("data", "j_min", 1),
            j_max=getint("data", "j_max", 3),
        )
    if name == "random_bumps":
        return RandomBumps(
            seed=getint("data", "seed", seed),
            width=get("data", "width", grid.L / 26),
            spread=get("data", "spread", grid.L / 20),
            count=getint("data", "count", 4),
        )
    if name == "wave_packets":
        return WavePackets(
            seed=getint("data", "seed", seed),
            carrier=get("data", "carrier", 20.0),
            width=get("data", "width", grid.L / 21),
            count=getint("data", "count", 3),
            spread=get("data", "spread"),
        )
    if name == "windowed_powerlaw":
        return WindowedPowerlaw(decay=get("data", "decay", 1.0))
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
# commands: each takes (config or None, args) and returns (results, csv rows);
# `main` writes <command>.json and, for rows, <command>.csv
# ---------------------------------------------------------------------------


def cmd_propagate(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    f = field_from_config(cfg, grid_from_config(cfg), args.seed)
    alpha = cfg.getfloat("solver", "alpha", 1.0)
    T = cfg.getfloat("solver", "T", 1.0)
    times = uniform_times(T, cfg.getint("solver", "nodes", 32))
    series = semigroup_series(f, times, alpha)
    l2, linf = [], []
    for phys in series.chunks():  # one inverse transform per chunk for both norms
        l2 += _lp(phys, series.grid, 2).tolist()
        linf += _lp(phys, series.grid, INF).tolist()
    rows = [
        {"t": t, "l2": a, "linf": b} for t, a, b in zip(series.times.tolist(), l2, linf)
    ]
    out = Path(args.out)
    final_path = out / "final_field.frsf"
    out.mkdir(parents=True, exist_ok=True)
    last = TimeSeries.from_data(
        series.grid, series.times[-1:], phys[-1:], PHYSICAL, parts=series.parts
    )
    write_field(last.snapshots[0], final_path)
    results = {
        "alpha": alpha,
        "T": T,
        "final_l2": rows[-1]["l2"],
        "final_field": str(final_path),
    }
    return results, rows


def cmd_norm(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    f = field_from_config(cfg, grid_from_config(cfg), args.seed)
    spec = NormSpec(
        kind=cfg.get("norm", "kind", "lebesgue"),
        p=cfg.getfloat("norm", "p", 2.0),
        s=cfg.getfloat("norm", "s", 0.0),
        q=cfg.getfloat("norm", "q", 2.0),
        homogeneous=parse_bool("homogeneous", cfg.get("norm", "homogeneous", "true")),
    )
    return {"kind": spec.kind, "value": spec.compute(f)}, []


def cmd_verify(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    grid = grid_from_config(cfg)
    get = cfg.getfloat
    estimate = args.estimate or cfg.get("sweep", "estimate", "homogeneous")
    lambdas = parse_lambdas(cfg.get("sweep", "lambdas", "1,2,4"))
    params = {
        "alpha": get("sweep", "alpha", 1.0),
        "q": get("sweep", "q", 4.0),
        "p": get("sweep", "p", 4.0),
        "T": get("sweep", "T", 0.05),
        "kind": cfg.get("sweep", "kind", "lebesgue"),
        "s": get("sweep", "s", 0.0),
    }
    if estimate == "parabolic":
        params["s_min"] = get("sweep", "s_min", 1e-6)
        params["s_max"] = get("sweep", "s_max", 6.0)
    if estimate == "inhomogeneous":
        params["q1"] = get("sweep", "q1", 4.0)
        params["p1"] = get("sweep", "p1", 4.0)
        T = params["T"]
        params["times"] = uniform_times(T, cfg.getint("sweep", "nodes", 48))
        tau = T / 3.0
        params["profile"] = lambda t: (t / tau) * np.exp(-t / tau)
    recipe = recipe_from_config(cfg, grid, args.seed)
    drift_tol = get("sweep", "drift_tol", 0.01)
    report = dilation_sweep(recipe, grid, lambdas, estimate, params, drift_tol=drift_tol)
    return report.to_json_dict(), report.csv_rows()


def cmd_decay_fit(cfg: None, args) -> tuple[dict, list]:
    n, alpha = args.n, args.alpha
    r, p = parse_exponent(args.r, "--r"), parse_exponent(args.p, "--p")
    key = (n, alpha, r, p)
    if key not in DECAY_BATTERY:
        raise PreconditionError(
            f"(n, alpha, r, p) = {key} is not in the tuned decay battery; "
            f"available: {sorted(DECAY_BATTERY)}"
        )
    fit = run_decay_case(n, alpha, r, p, gradient=args.gradient)
    results = {
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
    rows = [
        {"t": t, "norm": v} for t, v in zip(fit.times.tolist(), fit.norms.tolist())
    ]
    return results, rows


def cmd_kernel_norm(cfg: None, args) -> tuple[dict, list]:
    fit = kernel_mixed_norm_fit(
        alpha=args.alpha,
        h=parse_exponent(args.h, "--h"),
        r=parse_exponent(args.r, "--r"),
        T=args.T,
        n=args.n,
    )
    return asdict(fit), []


_NSE_RECIPES = {
    "taylor_green": taylor_green,
    "perturbed_taylor_green": perturbed_taylor_green,
}


def cmd_nse_solve(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    grid = grid_from_config(cfg)
    get = cfg.getfloat
    if cfg.get("data", "field_file"):
        raise PreconditionError("nse-solve takes no [data] field_file; set a recipe")
    recipe = cfg.get("data", "recipe", "perturbed_taylor_green")
    if recipe not in _NSE_RECIPES:
        raise PreconditionError(
            f"nse-solve data recipe {recipe!r} is not one of {sorted(_NSE_RECIPES)}"
        )
    g0 = _NSE_RECIPES[recipe](grid, get("data", "amplitude", 1.0))
    v, report = solve_nse_picard(
        g0,
        None,
        get("solver", "alpha", 1.0),
        get("solver", "T", 1.0),
        get("solver", "q", 4.0),
        get("solver", "p", 4.0),
        tol=get("solver", "tol", 1e-6),
        max_iter=cfg.getint("solver", "max_iter", 20),
        nodes=cfg.getint("solver", "nodes", 64),
    )
    rows = [
        {"t": t, "l2": l2} for t, l2 in zip(v.times.tolist(), lp_norms(v, 2).tolist())
    ]
    return report.to_json_dict(), rows


def cmd_potential_solve(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    grid = grid_from_config(cfg)
    get = cfg.getfloat
    T = get("solver", "T", 1.0)
    f = field_from_config(cfg, grid, args.seed)
    V = None
    c = get("potential", "constant")
    if c is not None:
        times = uniform_times(T, 1)  # [0, T], rejecting a bad T by name
        V = TimeSeries.from_data(grid, times, np.full((2, *grid.shape), c), PHYSICAL)
    _, report = solve_potential_eq(
        f,
        None,
        V,
        alpha=get("solver", "alpha", 1.0),
        T=T,
        q=get("solver", "q", 4.0),
        p=get("solver", "p", 4.0),
        r=get("solver", "r"),
        s=get("solver", "s"),
        tol=get("solver", "tol", 1e-10),
        max_iter=cfg.getint("solver", "max_iter", 40),
        nodes=cfg.getint("solver", "nodes", 64),
        min_fraction=get("solver", "min_fraction", 1.0 / 1024),
    )
    rows = [
        {"t0": a, "t1": b, "factor": fac, "iterations": it}
        for a, b, fac, it in report.subintervals
    ]
    return report.to_json_dict(), rows


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
    p.set_defaults(config=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--gradient", action="store_true")

    p = sub.add_parser("kernel-norm")
    p.set_defaults(config=None)
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
        cfg = None if args.config is None else ExperimentConfig.load(args.config)
        results, rows = _DISPATCH[args.command](cfg, args)
        payload = _base_payload(args.command, cfg, args)
        payload["results"] = results
        out, stem = Path(args.out), args.command.replace("-", "_")
        write_report(out, stem, payload)
        write_csv(out, stem, rows)
        return 0
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
