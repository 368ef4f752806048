"""Seeded op schedules for the benchmark workloads, with their checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned.  The loop runs in rounds.  A round has
a fixed mix of op kinds; the seed picks the order of the kinds in each
round and, for each op, one member of that kind's pool.  Every pool member
is a complete CLI invocation whose results were recorded at the seed commit
in ``reference.json`` (``run.py --record``), so each op is checked against
its gates and against those values.

Why each workload exists:

* ``nse``: both solvers of ``fracheat.nse``, one op of each of four kinds per
  round, each kind about 1.5-3 s.  Two of them, the picard kinds, are the
  large-array, FFT-bound path: ``nse-solve`` on 64^2 perturbed
  Taylor-Green data, with the two criterion-9 exponent sets (alpha, q, p) =
  (1, 4, 4) and (0.75, 6, 8).  Each op measures C_est again.  About 21.5k
  FFT calls per op, most of them in ``projected_tensor_divergence``:
  batched FFTs, ``rfftn`` or fewer tensor-divergence transforms show here.
  The other two, the potential kinds, run the same grid/semigroup/norms
  functions on tiny arrays with thousands of snapshots, so per-snapshot
  Python overhead dominates: a 1-D N=8 plane wave with 1024 nodes, and 2-D
  32^2 random data under a constant potential strong enough to force
  subinterval halving.  An array-backed ``TimeSeries`` shows here; the
  halving path exposes wasted attempts.  The traced run prints FFT,
  ``transform`` and ``Field`` counts per kind, so a change to one path is
  told apart from a change to the other.
* ``verify_mix``: the other five commands on 128^2 and decay-battery grids.
  Bound by ``norms`` and ``estimates``; never touches ``nse``, so an
  ``nse``-only change must show no movement here.  BMO, norm-dispatch and
  CLI-skeleton changes show here.  The round is shaped for its quantiles:
  six short kinds below five ``propagate`` ops and six longer verifies
  above them put the median in the middle of the ``propagate`` ops, and
  three ``bmo_endpoint`` verifies out of seventeen ops put the 90th
  percentile inside the BMO ops, not in a gap between two kinds.

``picard`` and ``potential`` run the two halves of ``nse`` on their own.
They are not part of the benchmark's result set (``BENCHMARKED``): every
workload there costs runs, and one ``nse`` workload with longer runs is
steadier than two short ones on a shared two-core machine.

Pool members of one kind share their iteration and halving structure, so a
seed changes the data but not the amount of work; that keeps the spread of
the timings across seeds small.  The CLI ignores ``spread`` for the
``wave_packets`` recipe (packets then sit up to L/16 from the centre), so the
``bmo_endpoint`` configs use packet width 0.2 to stay under the 1e-6
contamination gate; honouring ``spread`` is left to a change of the CLI.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

L = repr(2 * math.pi)
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# relative tolerance on recorded values, with an absolute floor for values
# near zero (drifts); iteration-order changes move results by ~1e-12
RTOL = 1e-6
ATOL = 1e-12

CHECKED_FIELDS = {
    "nse-solve": ("final_norm", "radius", "data_functional", "bilinear_constant"),
    "potential-solve": ("bound_constant",),
    "verify": ("ratios", "max_drift"),
    "propagate": ("final_l2",),
    "norm": ("value",),
    "decay-fit": ("slope",),
    "kernel-norm": ("norm_T", "fitted_exponent"),
}

REPORT_STEM = {
    "nse-solve": "nse_solve",
    "potential-solve": "potential_solve",
    "verify": "verify",
    "propagate": "propagate",
    "norm": "norm",
    "decay-fit": "decay_fit",
    "kernel-norm": "kernel_norm",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: config text (if any), flags and a result gate."""

    key: str  # pool member id; indexes reference.json
    kind: str
    command: str
    config: str | None
    flags: tuple[str, ...]
    gate: Callable[[dict], str | None]

    def argv(self, config_path: Path | None) -> list[str]:
        extra = ["--config", str(config_path)] if self.config is not None else []
        return [self.command, *extra, *self.flags]

    @property
    def report_stem(self) -> str:
        return REPORT_STEM[self.command]


def _grid(n: int, N: int) -> str:
    return f"[grid]\nn = {n}\nN = {N}\nL = {L}\n\n"


def _section(name: str, **kv) -> str:
    body = "".join(f"{k} = {v}\n" for k, v in kv.items())
    return f"[{name}]\n{body}\n"


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def _gate_picard(res: dict) -> str | None:
    if res["converged"] is not True:
        return "picard did not converge"
    if not res["final_norm"] <= res["radius"]:
        return f"final_norm {res['final_norm']} > radius {res['radius']}"
    return None


def _gate_potential(min_subintervals: int) -> Callable[[dict], str | None]:
    def gate(res: dict) -> str | None:
        if res["converged"] is not True:
            return "potential solve did not converge"
        factors = [s[2] for s in res["subintervals"]]
        if any(f > 0.5 for f in factors):
            return f"contraction factor above 1/2: {max(factors)}"
        if len(factors) < min_subintervals:
            return f"{len(factors)} subintervals < {min_subintervals}"
        return None

    return gate


def _gate_verify(res: dict) -> str | None:
    if res["verdict"] != "pass":
        return f"verdict {res['verdict']!r}, drift {res['max_drift']}"
    if any(c >= 1e-6 for c in res["contamination"]):
        return f"contamination {max(res['contamination'])} >= 1e-6"
    return None


def _gate_decay(res: dict) -> str | None:
    if not res["relative_error"] < 0.02:
        return f"decay slope error {res['relative_error']} >= 2%"
    return None


def _gate_kernel(res: dict) -> str | None:
    rel = abs(res["fitted_exponent"] / res["predicted_exponent"] - 1.0)
    if not rel < 0.01:
        return f"kernel exponent off by {rel:.4f} >= 1%"
    return None


def _gate_none(res: dict) -> str | None:
    return None


# ---------------------------------------------------------------------------
# pools: eight members per kind
# ---------------------------------------------------------------------------


def _picard_pool(kind: str, alpha: float, q: int, p: int, amps) -> list[Op]:
    ops = []
    for i, amp in enumerate(amps):
        cfg = (
            _grid(2, 64)
            + _section("solver", alpha=alpha, T=1.0, q=q, p=p, tol=1e-6, nodes=64)
            + _section("data", recipe="perturbed_taylor_green", amplitude=amp)
        )
        ops.append(Op(f"{kind}.{i}", kind, "nse-solve", cfg, (), _gate_picard))
    return ops


def _potential_1d_pool() -> list[Op]:
    # c in [0.65, 0.74]: every member converges in 13 iterations, no halving
    ops = []
    for i in range(8):
        c = round(0.65 + 0.0125 * i, 4)
        cfg = (
            _grid(1, 8)
            + _section("solver", alpha=0.5, T=1.0, q=4, p=4, r=4,
                       s=repr(4 / 3), nodes=1024, tol=1e-12)
            + _section("data", recipe="plane_wave", k=1)
            + _section("potential", constant=c)
        )
        ops.append(Op(f"pot_1d.{i}", "pot_1d", "potential-solve", cfg, (),
                      _gate_potential(1)))
    return ops


def _potential_strong_pool() -> list[Op]:
    # c in [7.85, 8.4]: every member halves to 9 subintervals in 28 attempts
    ops = []
    for i in range(8):
        c = round(7.85 + 0.075 * i, 4)
        cfg = (
            _grid(2, 32)
            + _section("solver", alpha=1.0, T=1.0, q=4, p=4, r=4,
                       s=repr(4 / 3), nodes=64, tol=1e-10)
            + _section("data", recipe="random_bandlimited", seed=i, j_min=1, j_max=2)
            + _section("potential", constant=c)
        )
        ops.append(Op(f"pot_strong.{i}", "pot_strong", "potential-solve", cfg, (),
                      _gate_potential(2)))
    return ops


def _verify_pool(kind: str, members) -> list[Op]:
    ops = []
    for i, (data, sweep) in enumerate(members):
        cfg = _grid(2, 128) + _section("data", **data) + _section("sweep", **sweep)
        ops.append(Op(f"{kind}.{i}", kind, "verify", cfg, (), _gate_verify))
    return ops


def _verify_pools() -> list[Op]:
    two_pi = 2 * math.pi
    hom = []
    for i in range(8):
        q, p, alpha = ((2, 4, 0.5), (4, 4, 1.0))[i % 2]
        width = round(two_pi / 21 * (0.95 + 0.025 * (i // 2)), 6)
        hom.append((
            dict(recipe="gaussian_bump", width=width),
            dict(estimate="homogeneous", lambdas="1,2,4", alpha=alpha, q=q, p=p,
                 T=0.05, drift_tol=0.01),
        ))
    inh = [(
        dict(recipe="random_bumps", seed=i, width=repr(two_pi / 30),
             spread=repr(two_pi / 13), count=4),
        dict(estimate="inhomogeneous", lambdas="1,2", alpha=1.0, q=4, p=4, q1=4,
             p1=4, T=0.1, nodes=48, drift_tol=0.01),
    ) for i in range(8)]
    bumps2 = lambda i: dict(recipe="random_bumps", seed=i, width=repr(two_pi / 26),
                            spread=repr(two_pi / 20), count=2)
    par = [(
        bumps2(i),
        dict(estimate="parabolic", lambdas="1,2", alpha=1.0,
             p=("4", "inf")[i % 2], s_min=1e-6, s_max=6.0, drift_tol=0.01),
    ) for i in range(8)]
    bes = [(
        bumps2(i),
        dict(estimate="besov_embedding", lambdas="1,2", alpha=1.0, p=4,
             drift_tol=0.01),
    ) for i in range(8)]
    bmo = [(
        dict(recipe="wave_packets", seed=i, carrier=4.0, width=0.2, count=3),
        dict(estimate="bmo_endpoint", lambdas="1,2", alpha=1.0, q=2, p=2, T=1.5,
             drift_tol=0.02),
    ) for i in range(8)]
    return (
        _verify_pool("v_hom", hom)
        + _verify_pool("v_inh", inh)
        + _verify_pool("v_par", par)
        + _verify_pool("v_bes", bes)
        + _verify_pool("v_bmo", bmo)
    )


def _other_pools() -> list[Op]:
    ops = []
    for i in range(8):
        alpha = (1.0, 0.5)[i % 2]
        cfg = (
            _grid(2, 128)
            + _section("data", recipe="random_bumps", seed=i,
                       width=repr(2 * math.pi / 26), spread=repr(2 * math.pi / 20),
                       count=2)
            + _section("solver", alpha=alpha, T=0.2, nodes=32)
        )
        ops.append(Op(f"propagate.{i}", "propagate", "propagate", cfg, (), _gate_none))
    norm_specs = {
        "n_bmo": dict(kind="bmo"),
        "n_besov": dict(kind="besov", s=0.5, p=4, q=2),
        "n_sobolev": dict(kind="sobolev", s=1, p=2),
    }
    for kind, spec in norm_specs.items():
        for i in range(8):
            cfg = (
                _grid(2, 128)
                + _section("data", recipe="random_bandlimited", seed=i, j_min=1, j_max=3)
                + _section("norm", **spec)
            )
            ops.append(Op(f"{kind}.{i}", kind, "norm", cfg, (), _gate_none))
    battery = [("1", "1", "1", "inf"), ("1", "0.5", "1", "2"),
               ("2", "1", "1", "2"), ("2", "0.75", "2", "inf")]
    for i in range(8):
        n, alpha, r, p = battery[i % 4]
        flags = ("--n", n, "--alpha", alpha, "--r", r, "--p", p)
        if i >= 4:
            flags += ("--gradient",)
        ops.append(Op(f"decay.{i}", "decay", "decay-fit", None, flags, _gate_decay))
    for i in range(8):
        h, T = ("1", "1.5")[i % 2], ("0.02", "0.025", "0.03", "0.035")[i // 2]
        flags = ("--n", "2", "--alpha", "1", "--h", h, "--r", "2", "--T", T)
        ops.append(Op(f"kernel.{i}", "kernel", "kernel-norm", None, flags, _gate_kernel))
    return ops


def all_ops() -> dict[str, Op]:
    ops = (
        _picard_pool("nse_a", 1.0, 4, 4, [round(1.65 + 0.04 * i, 4) for i in range(8)])
        + _picard_pool("nse_b", 0.75, 6, 8, [round(1.0 + 0.02 * i, 4) for i in range(8)])
        + _potential_1d_pool()
        + _potential_strong_pool()
        + _verify_pools()
        + _other_pools()
    )
    return {op.key: op for op in ops}


# Kinds of one round.  NOMINAL_ROUND_S is a fixed estimate of a round's
# duration, used only to size the traced phase, so that the number of traced
# ops depends on (workload, seconds) alone and counters repeat exactly.
ROUNDS = {
    "nse": ["nse_a", "nse_b", "pot_1d", "pot_strong"],
    "verify_mix": ["n_sobolev", "n_bmo", "n_besov", "decay", "kernel", "v_bes",
                   "propagate", "propagate", "propagate", "propagate", "propagate",
                   "v_hom", "v_par", "v_inh", "v_bmo", "v_bmo", "v_bmo"],
    "picard": ["nse_a", "nse_b"],
    "potential": ["pot_1d", "pot_strong"],
}
NOMINAL_ROUND_S = {"nse": 10.0, "verify_mix": 4.0, "picard": 5.0, "potential": 4.0}
BENCHMARKED = ("nse", "verify_mix")  # the workloads BENCHMARK.json names
WORKLOADS = tuple(ROUNDS)


class Schedule:
    """Deterministic op stream of one workload for one seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in ROUNDS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.kinds = ROUNDS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        ops = all_ops()
        self.pools = {
            kind: [op for op in ops.values() if op.kind == kind]
            for kind in set(self.kinds)
        }

    def ops(self) -> list[Op]:
        """Every pool member the schedule can draw from."""
        return [op for kind in sorted(self.pools) for op in self.pools[kind]]

    def warmup(self) -> list[Op]:
        """One op of each kind, in round order."""
        seen = dict.fromkeys(self.kinds)
        return [self.rng.choice(self.pools[kind]) for kind in seen]

    def next_round(self) -> list[Op]:
        kinds = list(self.kinds)
        self.rng.shuffle(kinds)
        return [self.rng.choice(self.pools[kind]) for kind in kinds]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(got, want) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)))
    return abs(got - want) <= ATOL + RTOL * abs(want)


def check_results(op: Op, results: dict, reference: dict | None) -> str | None:
    """Failure reason for one op's report results, or None when it passes."""
    reason = op.gate(results)
    if reason:
        return reason
    if reference is None:
        return None
    want = reference.get(op.key)
    if want is None:
        return f"no reference values recorded for {op.key}"
    for name in CHECKED_FIELDS[op.command]:
        if not _close(results[name], want[name]):
            return f"{name} = {results[name]!r} differs from reference {want[name]!r}"
    return None


def reference_entry(op: Op, results: dict) -> dict:
    return {name: results[name] for name in CHECKED_FIELDS[op.command]}
