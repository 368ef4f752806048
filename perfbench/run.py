"""fracheat benchmark: closed-loop workloads driven through the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nse --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

Each op is one in-process call of ``fracheat.cli.main(argv)`` on a config
written by the benchmark; one client, no threads.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same ops untraced and then traced
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit and
sample count, and the machine record.  Full results (and the span file of a
traced run) go to ``.perfbench_out/``.  ``--record`` runs every pool member
once and rewrites ``reference.json``; do that only at a commit whose results
are the reference.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()  # set-up clock starts before any heavy import

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"  # single-threaded baseline

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # set-ups per run: this process plus two fresh ones
RUN_LEVEL = ("nse.potential.accept_ratio", "trace.overhead_ratio")
ALL = "all"

sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402


def import_fracheat():
    """Import fracheat from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import fracheat.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fracheat from {SRC}: {exc}")
    if Path(fracheat.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: fracheat imported from {fracheat.cli.__file__}")
    return fracheat.cli


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Runner:
    """Writes a schedule's configs, runs ops and checks their reports."""

    def __init__(self, ops: list[wl.Op], workdir: Path, reference: dict | None):
        self.cli = sys.modules["fracheat.cli"]
        self.workdir = workdir
        self.reference = reference
        self.config_paths = {}
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            if op.config is not None:
                path = cfg_dir / f"{op.key}.cfg"
                path.write_text(op.config)
                self.config_paths[op.key] = path
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: wl.Op, tracer=None, op_id=None) -> tuple[float, int, dict | None]:
        """Run and check one op; returns (seconds, report bytes, results)."""
        out = self.workdir / "out" / op.kind
        report = out / f"{op.report_stem}.json"
        for stale in (report, out / f"{op.report_stem}.csv"):
            stale.unlink(missing_ok=True)
        argv = ["--out", str(out), *op.argv(self.config_paths.get(op.key))]
        self.attempted += 1
        if tracer is None:
            start = time.perf_counter()
            rc = self.cli.main(argv)
            secs = time.perf_counter() - start
        else:
            rc, secs = tracer.run_op(op_id, self.cli.main, argv)
        results, reason = None, None
        if rc != 0:
            reason = f"exit code {rc}"
        else:
            try:
                results = json.loads(report.read_text())["results"]
                reason = wl.check_results(op, results, self.reference)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable report: {type(exc).__name__}: {exc}"
        if reason:
            self.failures.append(f"{op.key}: {reason}")
            results = None
        nbytes = sum(p.stat().st_size for p in (report, out / f"{op.report_stem}.csv")
                     if p.exists())
        return secs, nbytes, results


def set_up(workload: str, seed: int, workdir: Path, reference) -> tuple[Runner, wl.Schedule]:
    """Import, input generation and one untimed warm-up op of each kind."""
    import_fracheat()
    schedule = wl.Schedule(workload, seed)
    runner = Runner(schedule.ops(), workdir, reference)
    for op in schedule.warmup():
        runner.run(op)
    return runner, schedule


def run_rounds(runner: Runner, schedule: wl.Schedule, *, seconds=None, rounds=None,
               tracer=None, ops_list=None):
    """Closed loop over whole rounds, until `seconds` pass or `rounds` are done.

    Returns (op samples, wall seconds); a sample is (kind, seconds, report
    bytes, ok, counts), counts being the op's FFT and transform calls when
    traced.
    """
    samples = []
    start = time.perf_counter()
    done = 0
    while True:
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        batch = schedule.next_round() if ops_list is None else ops_list[done]
        for op in batch:
            failed = len(runner.failures)
            before = _counts(tracer)
            secs, nbytes, _ = runner.run(op, tracer, len(samples))
            counts = None
            if tracer is not None:
                counts = {k: v - before[k] for k, v in _counts(tracer).items()}
            samples.append((op.kind, secs, nbytes, len(runner.failures) == failed, counts))
        done += 1
    return samples, time.perf_counter() - start


def _counts(tracer) -> dict | None:
    if tracer is None:
        return None
    return {"grid.fft.calls": tracer.calls["grid.fft"],
            "grid.transform.calls": tracer.calls["grid.transform"],
            "grid.field.created": tracer.counters["grid.field.created"]}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def machine_record() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "fracheat").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(samples, wall, setup_times) -> tuple[dict, list[str]]:
    times = [s[1] for s in samples]
    ok = sum(1 for s in samples if s[3])
    beyond = sum(1 for t in times if t > p90(times))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (ok / wall, "1/s", len(samples)),
        "op_s.p50": (statistics.median(times), "s", len(times)),
        "op_s.p90": (p90(times), "s", len(times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    notes = {
        "op_s.p90": f"{beyond} samples beyond"
        + ("" if beyond >= 10 else " (fewer than 10: not resolved)"),
        "setup_s": "median of set-ups: this process and fresh ones",
    }
    lines = [f"{name} = {v:.6g} {unit} (n={n}){'; ' + notes[name] if name in notes else ''}"
             for name, (v, unit, n) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(tracer, n_ops: int, samples, untraced_p50: float) -> tuple[dict, float]:
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    counters, edges = tracer.counters, tracer.edges
    layers = tracer.layer_self_s()
    attempts = edges[("nse.solve_potential_eq", "semigroup.semigroup_series")]
    traced_p50 = statistics.median(s[1] for s in samples)
    raw = {
        "grid.fft.calls": calls["grid.fft"],
        "grid.fft.points": counters["grid.fft.points"],
        "grid.fft.self_s": self_s["grid.fft"],
        "grid.transform.calls": calls["grid.transform"],
        "grid.transform.self_s": self_s["grid.transform"],
        "grid.field.created": counters["grid.field.created"],
        "grid.self_s": layers["grid"],
        "semigroup.semigroup_series.calls": calls["semigroup.semigroup_series"],
        "semigroup.semigroup_series.snapshots": counters["semigroup.semigroup_series.snapshots"],
        "semigroup.duhamel.calls": calls["semigroup.duhamel"],
        "semigroup.duhamel.snapshots": counters["semigroup.duhamel.snapshots"],
        "semigroup.duhamel.self_s": self_s["semigroup.duhamel"],
        "semigroup.apply_symbol.calls": calls["semigroup.apply_symbol"],
        "semigroup.kernel.calls": calls["semigroup.kernel"],
        "semigroup.self_s": layers["semigroup"],
        "norms.lp_norm.calls": calls["norms.lp_norm"],
        "norms.lp_norm.self_s": self_s["norms.lp_norm"],
        "norms.mixed_norm.calls": calls["norms.mixed_norm"],
        "norms.mixed_norm.self_s": self_s["norms.mixed_norm"],
        "norms.bmo_norm.calls": calls["norms.bmo_norm"],
        "norms.bmo_norm.self_s": self_s["norms.bmo_norm"],
        "norms.besov_norm.calls": calls["norms.besov_norm"],
        "norms.besov_norm.self_s": self_s["norms.besov_norm"],
        "norms.self_s": layers["norms"],
        "estimates.dilation_sweep.calls": calls["estimates.dilation_sweep"],
        "estimates.ratio.calls": sum(calls[f"estimates.{n}"] for n in (
            "homogeneous_ratio", "inhomogeneous_ratio", "parabolic_ratio",
            "besov_embedding_ratio")),
        "estimates.self_s": layers["estimates"],
        "nse.projected_tensor_divergence.calls": calls["nse.projected_tensor_divergence"],
        "nse.projected_tensor_divergence.self_s": self_s["nse.projected_tensor_divergence"],
        "nse.leray_project.calls": calls["nse.leray_project"],
        "nse.bilinear_form.calls": calls["nse.bilinear_form"],
        "nse.estimate_bilinear_constant.s": total_s["nse.estimate_bilinear_constant"],
        "nse.picard.iterations": counters["nse.picard.iterations"],
        "nse.potential.attempts": attempts,
        "nse.potential.subintervals": counters["nse.potential.subintervals"],
        "nse.potential.map_evals": edges[("nse.solve_potential_eq", "semigroup.duhamel")],
        "nse.self_s": layers["nse"],
        "cli.self_s": layers["cli"],
        "cli.report_bytes": sum(s[2] for s in samples),
        "trace.unattributed_s": self_s["op"],
    }
    metrics = {k: v / n_ops for k, v in raw.items()}
    # run-level ratios, not per-op means
    metrics["nse.potential.accept_ratio"] = (
        counters["nse.potential.subintervals"] / attempts if attempts else 0.0)
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    # self times of the layers plus the unattributed part close the op time
    closure = sum(layers.values()) + self_s["op"] - total_s["op"]
    return metrics, closure


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def setup_child(workload: str, seed: int, workdir: Path) -> int:
    set_up(workload, seed, workdir, None)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


def fresh_setup(workload: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        return _run_workload(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, workdir) -> int:
    reference = wl.load_reference()
    runner, schedule = set_up(workload, seed, workdir / "main", reference)
    setup_times = [time.perf_counter() - _T0]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine_record()}
    if not trace:
        for i in range(1, SETUP_REPEATS):
            setup_times.append(fresh_setup(workload, seed, workdir / f"setup{i}"))
        samples, wall = run_rounds(runner, schedule, seconds=seconds)
        metrics, lines = end_to_end(samples, wall, setup_times)
        fail_ratio = len(runner.failures) / runner.attempted
        lines.append(f"fail_ratio = {fail_ratio:.6g} 1 (n={runner.attempted})")
        record["samples"] = samples
    else:
        from tracer import Tracer

        # fixed op list: counters repeat exactly for a given (seed, seconds)
        n_rounds = max(1, int(seconds / 2 / wl.NOMINAL_ROUND_S[workload]))
        op_rounds = [schedule.next_round() for _ in range(n_rounds)]
        plain, _ = run_rounds(runner, schedule, rounds=n_rounds, ops_list=op_rounds)
        untraced_p50 = statistics.median(s[1] for s in plain)
        tracer = Tracer()
        tracer.install()
        try:
            samples, _ = run_rounds(runner, schedule, rounds=n_rounds, tracer=tracer,
                                    ops_list=op_rounds)
        finally:
            tracer.uninstall()
        values, closure = per_layer(tracer, len(samples), samples, untraced_p50)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_units().items()}
        lines = [f"{name} = {m['value']:.6g} {m['unit']} ("
                 + ("run level" if name in RUN_LEVEL else "per op")
                 + f", n={len(samples)})" for name, m in metrics.items()]
        lines.append(f"trace.closure_error_s = {closure:.3g} s "
                     "(layer self times + unattributed - op time)")
        by_kind = {}
        for kind, *_, counts in samples:
            by_kind.setdefault(kind, []).append(counts)
        kinds = {kind: {name: statistics.mean(c[name] for c in cs) for name in cs[0]}
                 for kind, cs in by_kind.items()}
        for kind, counts in kinds.items():
            lines.append(f"per-op counts [{kind}]: " + ", ".join(
                f"{name}={v:.0f}" for name, v in counts.items()))
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{workload}-s{seed}.jsonl"
        n_lines = tracer.write(span_path)
        lines.append(f"spans: {n_lines} lines in {span_path.relative_to(ROOT)}")
        record.update(samples=samples, per_kind=kinds, closure_error_s=closure,
                      calls=dict(tracer.calls), self_s=dict(tracer.self_s))
    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    record.update(result=result, failures=runner.failures)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{runner.attempted} ops checked, {failed} failed")
    for line in lines:
        print("  " + line)
    for failure in runner.failures[:20]:
        print("  FAIL " + failure)
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every benchmarked workload, each in its own fresh process, one after another."""
    rc = 0
    for workload in wl.BENCHMARKED:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, timeout=600,
        )
        rc = rc or proc.returncode
    return rc


def record_reference() -> int:
    """Run every pool member once and write its checked fields."""
    import_fracheat()
    workdir = OUT_DIR / f"record-{os.getpid()}"
    try:
        ops = list(wl.all_ops().values())
        runner = Runner(ops, workdir, None)
        entries = {}
        for op in ops:
            secs, _, results = runner.run(op)
            print(f"{op.key}: {secs:.3f} s {'ok' if results else 'FAIL'}", flush=True)
            if results is not None:
                entries[op.key] = wl.reference_entry(op, results)
        for failure in runner.failures:
            print("FAIL " + failure)
        if runner.failures:
            return 1
        wl.REFERENCE_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*wl.WORKLOADS, ALL])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not SRC.is_dir():
        print(f"perfbench: no fracheat sources at {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_child:
        return setup_child(args.workload, args.seed, args.workdir)
    if args.workload == ALL:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
