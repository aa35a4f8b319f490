"""Tracing shim: times and counts calls into each mschemes module from outside.

`install()` replaces every public function of the layer modules, and every
public method of the classes they define, by a wrapper.  Module-level
functions are replaced at every import site: any module under `mschemes`
(or listed in `extra_modules`) whose attribute is the original function
gets the wrapper, so `from .addcomb import sum_histogram` in `refine` and
`cli` is traced too.  Methods are patched on the class, which every import
site shares.

Each wrapped call adds to its function's call count, inclusive time and
self time (inclusive minus the wrapped calls it makes).  A layer's self
time is the sum over its functions.  Spans (name, start, end, parent, op id)
are kept in memory for the first `SPAN_CAP` calls of each function in each
op; later calls are only aggregated, so functions called millions of times
(`Field.add`) cost a counter update, not a record.

Generator functions (`enumerate_atoms`, `enumerate_linmaps`) return a
counting iterator: their yields are counted and the time spent producing
them falls to the consumer (`decide_constructible`, `Scheme.validate`).

Two intra-module leaf helpers of `fourier` are left unwrapped:
`char_value` and `coords` run |G|^2 times per inversion check and never
cross a layer boundary, so wrapping them would change no self time and
only inflate the overhead.  `fourier.char_evals` is computed from the
inputs instead.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "gf_linalg",
    "scheme_core",
    "group_orbits",
    "instances",
    "antisym",
    "constructible",
    "addcomb",
    "fourier",
    "refine",
    "cli",
)
SKIP = {("fourier", "FourierContext.char_value"), ("fourier", "FourierContext.coords")}
SPAN_CAP = 1000
# the scalar point-arithmetic helpers behind gf_linalg.scalar_calls/_s
SCALAR = ("Field.add", "Field.sub", "Field.neg", "Field.smul")


class Tracer:
    """Per-process trace state: aggregates, counters and spans."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.stack = []  # frames: [child seconds, span index or inherited parent]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> calls, incl, self
        self.counters = defaultdict(float)
        self.spans = []  # [name, start, end, parent, op]
        self._span_budget = {}
        self._seen_stabilizer = set()
        self._seen_fiber = weakref.WeakKeyDictionary()

    def start_op(self, op_id: int):
        self.op_id = op_id
        self._span_budget = {}

    # ---- per-function counter hooks --------------------------------

    def hook(self, key, args, kwargs, result):
        layer, name = key
        c = self.counters
        if name == "LinMap.apply_batch":
            c["gf_linalg.apply_batch_rows"] += len(_arg(args, kwargs, 2, "tuples"))
        elif name == "sum_histogram":
            c["addcomb.sum_histogram_pairs"] += (
                len(_arg(args, kwargs, 0, "a")) * len(_arg(args, kwargs, 1, "b")))
        elif name == "OrbitBackend.orbit_partition_raw":
            inst, k = _arg(args, kwargs, 1, "instance"), _arg(args, kwargs, 2, "k")
            c["group_orbits.orbit_tuples"] += len(inst.s_codes) ** int(k)
        elif name == "MatrixGroup.stabilizer":
            group = args[0]
            key2 = (group, tuple(int(x) for x in _arg(args, kwargs, 1, "codes")))
            if key2 in self._seen_stabilizer:
                c["group_orbits.stabilizer_repeats"] += 1
            self._seen_stabilizer.add(key2)
        elif name == "Scheme.fiber":
            pts = tuple(int(x) for x in _arg(args, kwargs, 1, "pts"))
            seen = self._seen_fiber.setdefault(args[0], set())
            if pts in seen:
                c["scheme_core.fiber_repeats"] += 1
            seen.add(pts)
        elif name == "Scheme.validate":
            c["scheme_core.maps_checked"] += getattr(result, "checked_maps", 0)
        elif name == "strong_antisym_check":
            c["antisym.maps_explored"] += getattr(result, "maps_explored", 0)
            c["antisym.generators"] += getattr(result, "generators", 0)
        elif name == "decide_constructible":
            c["constructible.decide_hits"] += result is not None
        elif name == "FourierContext.all_coeffs":
            subset = _arg(args, kwargs, 1, "subset")
            c["fourier.char_evals"] += args[0].order * len(set(subset))
        elif name == "FourierContext.inversion_check":
            c["fourier.char_evals"] += args[0].order ** 2

    # ---- wrapping ----------------------------------------------------

    def wrap(self, key, fn):
        tracer = self
        label = f"{key[0]}.{key[1]}"
        stat = self.stats[key]
        hooked = _HOOKED.get(key[1]) == key[0]
        generator = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            budget = tracer._span_budget.get(label, 0)
            if budget < SPAN_CAP:
                tracer._span_budget[label] = budget + 1
                span = len(tracer.spans)
                tracer.spans.append([label, 0.0, 0.0, parent, tracer.op_id])
            else:
                span = None
            frame = [0.0, parent if span is None else span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span is not None:
                    tracer.spans[span][1] = t0
                    tracer.spans[span][2] = t1
            if hooked:
                tracer.hook(key, args, kwargs, result)
            if generator:
                return tracer._count_yields(key, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key[1])
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count_yields(self, key, gen):
        name = f"{key[0]}.{key[1]}.yields"
        counters = self.counters
        for item in gen:
            counters[name] += 1
            yield item

    # ---- results -----------------------------------------------------

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for (layer, _), (_, _, self_s) in self.stats.items():
            out[layer] += self_s
        return dict(out)

    def calls(self, layer: str, name: str) -> int:
        return self.stats[(layer, name)][0] if (layer, name) in self.stats else 0

    def incl(self, layer: str, name: str) -> float:
        return self.stats[(layer, name)][1] if (layer, name) in self.stats else 0.0

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# functions whose hook reads their arguments or result, by layer
_HOOKED = {
    "LinMap.apply_batch": "gf_linalg",
    "sum_histogram": "addcomb",
    "OrbitBackend.orbit_partition_raw": "group_orbits",
    "MatrixGroup.stabilizer": "group_orbits",
    "Scheme.fiber": "scheme_core",
    "Scheme.validate": "scheme_core",
    "strong_antisym_check": "antisym",
    "decide_constructible": "constructible",
    "FourierContext.all_coeffs": "fourier",
    "FourierContext.inversion_check": "fourier",
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _public_callables(mod):
    """(qualified name, owner, attribute, original) for each public function
    and class method defined in the module."""
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, mod, name, obj
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    yield f"{name}.{attr}", obj, attr, member
                elif inspect.isfunction(member):
                    yield f"{name}.{attr}", obj, attr, member


def install(tracer: Tracer, extra_modules=()):
    """Patch every layer module and the import sites of its functions."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"mschemes.{layer}")
        for qual, owner, attr, orig in _public_callables(mod):
            if (layer, qual) in SKIP:
                continue
            if isinstance(orig, staticmethod):
                setattr(owner, attr, staticmethod(tracer.wrap((layer, qual), orig.__func__)))
            elif isinstance(orig, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap((layer, qual), orig.__func__)))
            elif owner is mod:
                replaced[id(orig)] = (orig, tracer.wrap((layer, qual), orig))
            else:
                setattr(owner, attr, tracer.wrap((layer, qual), orig))
    sites = [m for n, m in list(sys.modules.items())
             if m is not None and (n == "mschemes" or n.startswith("mschemes."))]
    sites += list(extra_modules)
    for site in sites:
        for name, value in list(vars(site).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(site, name, hit[1])
