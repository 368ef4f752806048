"""Command-line surface: bind experiments to config files and emit reports.

Config files are flat ``key = value`` text with bracketed section headers
(INI style), read literally: ``%`` is an ordinary character and
``[DEFAULT]`` an ordinary section.  Each config command declares the sections and keys it reads,
with one parser per key; a section or key it does not declare exits 2
naming it.  A key the config leaves out takes the library's default, or the
CLI's where the library has none or the CLI overrides it.  Every run writes
a JSON report (one object, sorted keys, embedding the config as written, not
the defaults a command applies, and a content hash of any input field files)
and, where a run produces per-sample data, a CSV file.

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
    as_series,
    read_field,
    synthesize_field,
    uniform_times,
    write_field,
)
from .norms import NormSpec, _lp, lp_norms
from .semigroup import _evolved_chunks, _rate
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
        # values are literal, and no header can name the default section
        # (a header is at least one character), so [DEFAULT] is a section
        cp = configparser.ConfigParser(interpolation=None, default_section="")
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

    def values(self, section: str, keys: dict) -> dict:
        """The keys [section] holds, each parsed by its parser in `keys`; a
        key that `keys` does not declare is a precondition violation."""
        held = self.sections.get(section, {})
        if unread := [key for key in held if key not in keys]:
            raise PreconditionError(f"[{section}] {', '.join(unread)}: not read here; "
                                    f"[{section}] takes {', '.join(keys)}")
        return {key: keys[key](key, text) for key, text in held.items()}

    def read(self, **tables: dict) -> dict[str, dict]:
        """The values of each section named, by section.  The config may hold
        only these, [grid] and [data], which every config command reads."""
        sections = dict.fromkeys(["grid", "data", *tables])
        if unread := [f"[{s}]" for s in self.sections if s not in sections]:
            raise PreconditionError(f"{', '.join(unread)}: not read here; this command "
                                    f"reads {', '.join(f'[{s}]' for s in sections)}")
        return {section: self.values(section, keys) for section, keys in tables.items()}

    def as_dict(self) -> dict:
        return {s: dict(kv) for s, kv in self.sections.items()}


# key parsers: each takes (key, text) and names both when it rejects the text


def parse_text(key: str, text: str) -> str:
    """A name or a path, as written."""
    return text


def parse_exponent(key: str, text: str) -> float:
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


def parse_wavevector(key: str, text: str) -> tuple[int, ...]:
    """Comma-separated integer components."""
    return tuple(parse_int(key, x) for x in text.split(","))


def parse_lambdas(key: str, text: str) -> list[int]:
    """Comma-separated dilation factors; each must be a positive integer."""
    try:
        lambdas = [int(x) for x in text.split(",")]
        if min(lambdas) >= 1:
            return lambdas
    except ValueError:
        pass
    raise PreconditionError(f"{key} = {text}: dilation factors must be positive integers")


def _exp_str(x: float) -> str:
    return "inf" if x == INF else repr(float(x))


def grid_from_config(cfg: ExperimentConfig) -> GridSpec:
    if not cfg.sections.get("grid"):
        raise PreconditionError("config is missing a [grid] section")
    keys = {"n": parse_int, "N": parse_int, "L": parse_exponent}
    return GridSpec(**{"n": 2, "N": 64, "L": 2 * math.pi, **cfg.values("grid", keys)})


# data recipe -> (its class, its [data] keys besides `recipe`, the defaults
# the class lacks for a grid and a seed)
_RECIPES = {
    "gaussian_bump": (
        GaussianBump, {"width": parse_exponent}, lambda g, seed: {"width": g.L / 21}
    ),
    "plane_wave": (
        PlaneWave, {"k": parse_wavevector}, lambda g, seed: {"k": (1,) + (0,) * (g.n - 1)}
    ),
    "random_bandlimited": (
        RandomBandlimited,
        dict.fromkeys(("seed", "j_min", "j_max"), parse_int),
        lambda g, seed: {"seed": seed, "j_min": 1, "j_max": 3},
    ),
    "random_bumps": (
        RandomBumps,
        {"seed": parse_int, "width": parse_exponent, "spread": parse_exponent,
         "count": parse_int},
        lambda g, seed: {"seed": seed, "width": g.L / 26, "spread": g.L / 20},
    ),
    "wave_packets": (
        WavePackets,
        {"seed": parse_int, "count": parse_int,
         **dict.fromkeys(("carrier", "width", "spread"), parse_exponent)},
        lambda g, seed: {"seed": seed, "carrier": 20.0, "width": g.L / 21},
    ),
    "windowed_powerlaw": (
        WindowedPowerlaw, {"decay": parse_exponent}, lambda g, seed: {"decay": 1.0}
    ),
}


def recipe_from_config(cfg: ExperimentConfig, grid: GridSpec, seed: int):
    """The [data] recipe; [data] may hold only `recipe` and the recipe's keys."""
    name = cfg.get("data", "recipe", "gaussian_bump")
    if name not in _RECIPES:
        raise PreconditionError(f"unknown data recipe {name!r}")
    cls, keys, defaults = _RECIPES[name]
    values = cfg.values("data", {"recipe": parse_text, **keys})
    values.pop("recipe", None)
    return cls(**{**defaults(grid, seed), **values})


def field_from_config(cfg: ExperimentConfig, grid: GridSpec, seed: int) -> Field:
    """The [data] field_file, alone and on exactly the config [grid], or else the recipe."""
    if cfg.get("data", "field_file") is None:
        return synthesize_field(grid, recipe_from_config(cfg, grid, seed))
    path = cfg.values("data", {"field_file": parse_text})["field_file"]
    f = read_field(path)
    if f.grid != grid:
        raise PreconditionError(
            f"field file {path} is on grid {f.grid} but the config [grid] is {grid}"
        )
    return f


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
    keys = {"alpha": parse_exponent, "T": parse_exponent, "nodes": parse_int}
    solver = {"alpha": 1.0, "T": 1.0, "nodes": 32, **cfg.read(solver=keys)["solver"]}
    f = field_from_config(cfg, grid_from_config(cfg), args.seed)
    alpha, T = solver["alpha"], solver["T"]
    times = uniform_times(T, solver["nodes"])
    uh, l2, linf = as_series(f).to_spectral(), [], []
    # the flow a few chunks of times at a time, each step done with before
    # the next is made; one inverse transform per chunk for both norms
    for u in _evolved_chunks(uh, times, _rate(f.grid, alpha)):
        for phys in u.chunks():
            l2 += _lp(phys, f.grid, 2).tolist()
            linf += _lp(phys, f.grid, INF).tolist()
        final = phys[-1:].copy()  # the last sample, once the last chunk is in
        del phys
    last = TimeSeries.from_data(f.grid, times[-1:], final, PHYSICAL, parts=uh.parts)
    rows = [{"t": t, "l2": a, "linf": b} for t, a, b in zip(times.tolist(), l2, linf)]
    out = Path(args.out)
    final_path = out / "final_field.frsf"
    out.mkdir(parents=True, exist_ok=True)
    write_field(last.snapshots[0], final_path)
    results = {
        "alpha": alpha,
        "T": T,
        "final_l2": rows[-1]["l2"],
        "final_field": str(final_path),
    }
    return results, rows


def cmd_norm(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    keys = {"kind": parse_text, "homogeneous": parse_bool,
            **dict.fromkeys(("p", "s", "q"), parse_exponent)}
    norm = cfg.read(norm=keys)["norm"]
    f = field_from_config(cfg, grid_from_config(cfg), args.seed)
    spec = NormSpec(**{"kind": "lebesgue", **norm})
    return {"kind": spec.kind, "value": spec.compute(f)}, []


# [sweep] keys: their parsers, and the defaults of those that have one
_SWEEP_KEYS = {"estimate": parse_text, "lambdas": parse_lambdas, "kind": parse_text,
               "nodes": parse_int, **dict.fromkeys(
                   ("alpha", "q", "p", "T", "s", "drift_tol", "q1", "p1", "s_min", "s_max"),
                   parse_exponent)}
_SWEEP_DEFAULTS = {"alpha": 1.0, "q": 4.0, "p": 4.0, "T": 0.05, "kind": "lebesgue", "s": 0.0,
                   "q1": 4.0, "p1": 4.0, "nodes": 48, "s_min": 1e-6, "s_max": 6.0}
# estimate -> the keys it reads besides estimate, lambdas, alpha, p and drift_tol
_ESTIMATE_KEYS = {
    "homogeneous": ("q", "T", "kind", "s"),
    "bmo_endpoint": ("q", "T"),
    "inhomogeneous": ("q", "T", "kind", "s", "q1", "p1", "nodes"),
    "parabolic": ("s_min", "s_max"),
    "besov_embedding": (),
}


def cmd_verify(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    estimate = args.estimate or cfg.get("sweep", "estimate", "homogeneous")
    if estimate not in _ESTIMATE_KEYS:
        raise PreconditionError(f"unknown estimate id {estimate!r}")
    names = ("estimate", "lambdas", "alpha", "p", "drift_tol", *_ESTIMATE_KEYS[estimate])
    sweep = cfg.read(sweep={k: _SWEEP_KEYS[k] for k in names})["sweep"]
    grid = grid_from_config(cfg)
    recipe = recipe_from_config(cfg, grid, args.seed)
    params = {**{k: _SWEEP_DEFAULTS[k] for k in names if k in _SWEEP_DEFAULTS}, **sweep}
    params.pop("estimate", None)
    lambdas, drift_tol = params.pop("lambdas", [1, 2, 4]), params.pop("drift_tol", 0.01)
    if estimate == "inhomogeneous":
        T = params["T"]
        params["times"] = uniform_times(T, params.pop("nodes"))
        tau = T / 3.0
        params["profile"] = lambda t: (t / tau) * np.exp(-t / tau)
    report = dilation_sweep(recipe, grid, lambdas, estimate, params, drift_tol=drift_tol)
    return report.to_json_dict(), report.csv_rows()


def cmd_decay_fit(cfg: None, args) -> tuple[dict, list]:
    n, alpha = args.n, args.alpha
    r, p = parse_exponent("--r", args.r), parse_exponent("--p", args.p)
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
        h=parse_exponent("--h", args.h),
        r=parse_exponent("--r", args.r),
        T=args.T,
        n=args.n,
    )
    return asdict(fit), []


_NSE_RECIPES = {
    "taylor_green": taylor_green,
    "perturbed_taylor_green": perturbed_taylor_green,
}


def cmd_nse_solve(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    c = cfg.read(
        data={"recipe": parse_text, "amplitude": parse_exponent},
        solver={**dict.fromkeys(("alpha", "T", "q", "p", "tol"), parse_exponent),
                "max_iter": parse_int, "nodes": parse_int},
    )
    data = {"recipe": "perturbed_taylor_green", "amplitude": 1.0, **c["data"]}
    if data["recipe"] not in _NSE_RECIPES:
        raise PreconditionError(
            f"nse-solve data recipe {data['recipe']!r} is not one of {sorted(_NSE_RECIPES)}"
        )
    g0 = _NSE_RECIPES[data["recipe"]](grid_from_config(cfg), data["amplitude"])
    solver = {"alpha": 1.0, "T": 1.0, "q": 4.0, "p": 4.0, "tol": 1e-6, **c["solver"]}
    v, report = solve_nse_picard(g0, None, **solver)
    rows = [
        {"t": t, "l2": l2} for t, l2 in zip(v.times.tolist(), lp_norms(v, 2).tolist())
    ]
    return report.to_json_dict(), rows


def cmd_potential_solve(cfg: ExperimentConfig, args) -> tuple[dict, list]:
    reals = ("alpha", "T", "q", "p", "r", "s", "tol", "min_fraction")
    keys = {**dict.fromkeys(reals, parse_exponent), "max_iter": parse_int, "nodes": parse_int}
    c = cfg.read(solver=keys, potential={"constant": parse_exponent})
    solver = {"alpha": 1.0, "T": 1.0, **c["solver"]}
    grid = grid_from_config(cfg)
    f = field_from_config(cfg, grid, args.seed)
    V = None
    if "constant" in c["potential"]:
        times = uniform_times(solver["T"], 1)  # [0, T], rejecting a bad T by name
        data = np.full((2, *grid.shape), c["potential"]["constant"])
        V = TimeSeries.from_data(grid, times, data, PHYSICAL)
    _, report = solve_potential_eq(f, None, V, **solver)
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
