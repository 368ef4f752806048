"""Self-tests of the benchmark: tracer transparency, exact counters, patching.

Run from the root of a checkout, either way:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the thread pools before numpy loads)
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

run.import_fracheat()
import fracheat  # noqa: E402
import fracheat.cli  # noqa: E402

SMALL_NSE = wl.Op(
    "selftest.nse", "selftest_nse", "nse-solve",
    "[grid]\nn = 2\nN = 32\nL = 6.283185307179586\n\n"
    "[solver]\nalpha = 1.0\nT = 0.5\nq = 4\np = 4\ntol = 1e-7\nnodes = 24\n\n"
    "[data]\nrecipe = perturbed_taylor_green\namplitude = 0.5\n",
    (), wl._gate_picard,
)


def _tmpdir() -> Path:
    run.OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.OUT_DIR))


def _runner(ops, tmp: Path) -> run.Runner:
    return run.Runner(ops, tmp, None)


def _report_bytes(runner: run.Runner, op: wl.Op) -> bytes:
    out = runner.workdir / "out" / op.kind
    return b"".join(
        p.read_bytes() for p in sorted(out.glob(f"{op.report_stem}.*"))
    )


def test_tracer_is_transparent():
    """Traced and untraced runs of one op write byte-identical reports."""
    pool = wl.all_ops()
    ops = [SMALL_NSE] + [pool[k] for k in (
        "v_hom.0", "v_bmo.0", "propagate.0", "n_besov.0", "decay.0", "kernel.0")]
    tmp = _tmpdir()
    try:
        runner = _runner(ops, tmp)
        for op in ops:
            runner.run(op)
            plain = _report_bytes(runner, op)
            tracer = Tracer()
            tracer.install()
            try:
                runner.run(op, tracer, 0)
            finally:
                tracer.uninstall()
            assert plain and _report_bytes(runner, op) == plain, op.key
            assert tracer.calls["cli.main"] == 1
        assert not runner.failures, runner.failures
    finally:
        shutil.rmtree(tmp)


def _traced_counts(workload: str, seed: int) -> dict:
    schedule = wl.Schedule(workload, seed)
    tmp = _tmpdir()
    try:
        runner = _runner(schedule.ops(), tmp)
        tracer = Tracer()
        tracer.install()
        try:
            for op in schedule.next_round():
                runner.run(op, tracer, 0)
        finally:
            tracer.uninstall()
        assert not runner.failures, runner.failures
        return {
            "grid.fft.calls": tracer.calls["grid.fft"],
            "grid.transform.calls": tracer.calls["grid.transform"],
            "grid.field.created": tracer.counters["grid.field.created"],
            "nse.picard.iterations": tracer.counters["nse.picard.iterations"],
            "nse.potential.attempts": tracer.edges[
                ("nse.solve_potential_eq", "semigroup.semigroup_series")],
        }
    finally:
        shutil.rmtree(tmp)


def test_counters_repeat_exactly():
    """Two traced runs with one seed give equal counts."""
    for workload in ("picard", "potential"):
        first = _traced_counts(workload, 7)
        assert first == _traced_counts(workload, 7), workload
        assert first["grid.fft.calls"] > 0
    assert first["nse.potential.attempts"] > 0


def test_every_binding_is_wrapped():
    """Each fracheat attribute bound to a wrapped function is the wrapper."""
    originals = {
        "duhamel": fracheat.semigroup.duhamel,
        "apply_symbol": fracheat.semigroup.apply_symbol,
        "lp_norm": fracheat.norms.lp_norm,
        "main": fracheat.cli.main,
    }
    dispatch = dict(fracheat.cli._DISPATCH)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        for mod in (fracheat.nse, fracheat.estimates, fracheat.semigroup, fracheat):
            assert mod.duhamel.perfbench_span == "semigroup.duhamel"
        assert fracheat.norms.apply_symbol.perfbench_span == "semigroup.apply_symbol"
        assert fracheat.nse.lp_norm.perfbench_span == "norms.lp_norm"
        assert fracheat.cli.main.perfbench_span == "cli.main"
        assert all(f.perfbench_span.startswith("cli.cmd_")
                   for f in fracheat.cli._DISPATCH.values())
        import numpy as np

        assert np.fft.fftn.perfbench_span == "grid.fft"
    finally:
        tracer.uninstall()
    assert fracheat.nse.duhamel is originals["duhamel"]
    assert fracheat.norms.apply_symbol is originals["apply_symbol"]
    assert fracheat.nse.lp_norm is originals["lp_norm"]
    assert fracheat.cli.main is originals["main"]
    assert fracheat.cli._DISPATCH == dispatch


def test_layer_metrics_match_benchmark_json():
    """A traced op yields exactly the per-layer metrics BENCHMARK.json names."""
    tmp = _tmpdir()
    try:
        runner = _runner([SMALL_NSE], tmp)
        tracer = Tracer()
        tracer.install()
        try:
            secs, nbytes, _ = runner.run(SMALL_NSE, tracer, 0)
        finally:
            tracer.uninstall()
        samples = [(SMALL_NSE.kind, secs, nbytes, True, None)]
        metrics, closure = run.per_layer(tracer, 1, samples, secs)
        assert set(metrics) == set(run.layer_units())
        assert abs(closure) < 1e-9 * max(secs, 1.0)
        assert metrics["nse.picard.iterations"] > 0
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
