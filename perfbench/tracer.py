"""Outside-in tracer: spans and counts at the public functions of fracheat.

The tracer changes no source.  ``install`` replaces every public function
of the layer modules (``grid``, ``semigroup``, ``norms``, ``estimates``,
``nse``, ``cli``) and every ``numpy.fft``/``scipy.fft`` transform entry point
with a timing wrapper, in every namespace that holds a reference to it: the
defining module, each fracheat module that imported the name, the package
``__init__`` and module-level dicts such as the CLI dispatch table.
``uninstall`` puts the originals back.

Each wrapped call is a span (name, start, end, parent span, op id).  Spans
stay in memory and are written out by ``write``.  Names that fire 10k times
or more per op (FFT calls, ``transform``, ``lp_norm``) are aggregated per
parent span as (calls, seconds) instead of being recorded one by one.  A
span's self time is its duration minus the time of the wrapped calls it
made; the op span opened by the benchmark around ``cli.main`` keeps the
time no layer span covers.  ``Field`` construction is counted, not spanned.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("grid", "semigroup", "norms", "estimates", "nse", "cli")
FFT_SPAN = "grid.fft"
AGGREGATED = frozenset({FFT_SPAN, "grid.transform", "norms.lp_norm"})
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
    "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn",
)
OP_SPAN = "op"


def _snapshots(tracer, name, result):
    tracer.counters[f"{name}.snapshots"] += len(result)


def _picard(tracer, name, result):
    tracer.counters["nse.picard.iterations"] += result[1].iterations


def _potential(tracer, name, result):
    tracer.counters["nse.potential.subintervals"] += len(result[1].subintervals)


POST_HOOKS = {
    "semigroup.semigroup_series": _snapshots,
    "semigroup.duhamel": _snapshots,
    "nse.solve_nse_picard": _picard,
    "nse.solve_potential_eq": _potential,
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.spans: list = []  # (span id, parent id, op id, name, start, end)
        self.aggregates: dict = {}  # (parent span id, name) -> [calls, seconds]
        self.op_id = None
        self._stack: list = []  # frames [name, start, child seconds, span id]
        self._next_id = 0
        self._patches: list = []  # (namespace, key, original)
        self._originals: dict = {}  # id(original) -> (original, wrapper)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stack, calls = self._stack, self.calls
        self_s, total_s = self.self_s, self.total_s
        spans, aggregates, edges = self.spans, self.aggregates, self.edges
        aggregated = name in AGGREGATED
        is_fft = name == FFT_SPAN
        post = POST_HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_fft:
                if parent is not None and parent[0] == FFT_SPAN:
                    return fn(*args, **kwargs)  # one backend calling another
                a = args[0] if args else kwargs.get("x", kwargs.get("a"))
                tracer.counters["grid.fft.points"] += int(getattr(a, "size", 0))
            calls[name] += 1
            if aggregated:
                sid = parent[3] if parent is not None else 0
            else:
                tracer._next_id += 1
                sid = tracer._next_id
                if parent is not None:
                    edges[(parent[0], name)] += 1
            frame = [name, 0.0, 0.0, sid]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[2]
                total_s[name] += dur
                if parent is not None:
                    parent[2] += dur
                if aggregated:
                    agg = aggregates.get((sid, name))
                    if agg is None:
                        aggregates[(sid, name)] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                else:
                    pid = parent[3] if parent is not None else 0
                    spans.append((sid, pid, tracer.op_id, name, start, end))
            if post is not None:
                post(tracer, name, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.perfbench_span = name
        return wrapper

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) inside a root span; returns (result, seconds)."""
        self.op_id = op_id
        wrapped = self._wrap(OP_SPAN, fn)
        start = perf_counter()
        result = wrapped(*args)
        return result, perf_counter() - start

    # -- patching ------------------------------------------------------------

    def _targets(self) -> dict:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"fracheat.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname in FFT_MODULES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for attr in FFT_ENTRY_POINTS:
                obj = getattr(mod, attr, None)
                if callable(obj) and id(obj) not in targets:
                    targets[id(obj)] = (obj, self._wrap(FFT_SPAN, obj))
        return targets

    @staticmethod
    def namespaces() -> list:
        mods = [m for name, m in sys.modules.items()
                if name == "fracheat" or name.startswith("fracheat.")]
        mods += [sys.modules[m] for m in FFT_MODULES if m in sys.modules]
        return mods

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import fracheat.cli  # noqa: F401  (loads every layer module)
        from fracheat.grid import Field

        self._originals = self._targets()
        for mod in self.namespaces():
            ns = vars(mod)
            for key, obj in list(ns.items()):
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, key, obj))
                    ns[key] = hit[1]
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in list(obj.items()):
                        hit = self._originals.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._patches.append((obj, k, v))
                            obj[k] = hit[1]

        counters = self.counters
        post_init = Field.__post_init__

        def counted_post_init(field):
            counters["grid.field.created"] += 1
            post_init(field)

        self._patches.append((Field, "__post_init__", post_init))
        Field.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """fracheat attributes still bound to an original wrapped function."""
        missed = []
        for mod in self.namespaces():
            if not mod.__name__.startswith("fracheat"):
                continue
            for key, obj in vars(mod).items():
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    missed.append(f"{mod.__name__}.{key}")
        return missed

    # -- output --------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += s
        return out

    def write(self, path) -> int:
        """Write spans and aggregates as JSON lines; returns the line count."""
        lines = 0
        with open(path, "w") as fh:
            for sid, pid, op, name, start, end in self.spans:
                fh.write(json.dumps({"span": sid, "parent": pid, "op": op,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
                lines += 1
            for (pid, name), (n, secs) in self.aggregates.items():
                fh.write(json.dumps({"aggregate": name, "parent": pid,
                                     "calls": n, "seconds": secs}))
                fh.write("\n")
                lines += 1
        return lines
