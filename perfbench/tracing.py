"""Span recorder for the traced benchmark run.

The recorder wraps the calls made into each layer of ``steplpd``; the
package itself is not changed.  A wrapper replaces every public function of
a layer module at each place a ``steplpd`` module holds it: the defining
module (so calls inside the module and function-local imports are seen) and
every module that bound it with ``from ... import``.  The a1/a2/b/r1/r2
callables of the data objects the benchmark passes in, and
``scipy.integrate.quad`` as ``steplpd.kernels.quadrature`` sees it, are
wrapped too.

Each span is (name, start, end, parent, op id).  Spans are kept in memory
and written out when the run ends.  The data callables are called hundreds
of thousands of times per ray, so their spans are aggregated but not stored
one by one.  Self time is a span's duration minus the time its child spans
cover; the child spans nest, so the covered time is the sum of their
durations.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

# layer name -> module; cli and kernels.roots get no metrics of their own
LAYERS = {
    "scattering": "steplpd.scattering",
    "kernels.ode": "steplpd.kernels.ode",
    "kernels.quadrature": "steplpd.kernels.quadrature",
    "phase": "steplpd.phase",
    "rhfactors": "steplpd.rhfactors",
    "asymptotics": "steplpd.asymptotics",
    "pcmodel": "steplpd.pcmodel",
    "kernels.special": "steplpd.kernels.special",
    "simulate": "steplpd.simulate",
}

# public methods (and constructors) whose calls count as the layer's work
METHODS = {
    "scattering": {"ScatteringData": ["from_profile"]},
    "rhfactors": {"DeltaFunction": ["log_delta"]},
    "asymptotics": {"AsymptoticResult": ["value"]},
    "simulate": {"FieldGrid": ["from_function"]},
}

DATA_CALLABLES = ("a1", "a2", "b", "r1", "r2")

# one rho = r1 * r2 evaluation is counted per r1 call made under rhfactors
RHO_SPAN = "scattering.data.r1"

MAX_STORED_SPANS = 200_000


class Recorder:
    """Spans and per-name aggregates of the traced operations."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.rho_evals = 0
        self._open: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def wrap(self, layer: str, fname: str, fn, store: bool = True):
        name = f"{layer}.{fname}"
        is_rho = name == RHO_SPAN
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            if is_rho and rec._open["rhfactors"]:
                rec.rho_evals += 1
            stack = rec._stack
            parent = stack[-1][4] if stack else -1
            # frame: name, start, covered child time, own index, nearest stored
            frame = [name, clock(), 0.0, -1, parent]
            if store:
                if len(rec.spans) < MAX_STORED_SPANS:
                    frame[3] = frame[4] = len(rec.spans)
                    rec.spans.append(None)
                else:
                    rec.dropped += 1
            stack.append(frame)
            rec._open[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                rec._open[layer] -= 1
                stack.pop()
                dur = end - frame[1]
                rec.calls[name] += 1
                rec.total[name] += dur
                rec.self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if frame[3] >= 0:
                    rec.spans[frame[3]] = (name, frame[1], end, parent, rec.op_id)

        return traced

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if _layer_of(k) == layer)

    def layers_seen(self) -> set[str]:
        return {_layer_of(k) for k, v in self.calls.items() if v}

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 9), round(s[2], 9), s[3], s[4]]
                for s in self.spans if s is not None]
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op"],
               "names": names, "spans": rows, "dropped": self.dropped,
               "aggregates": {k: {"calls": self.calls[k],
                                  "total_s": self.total[k],
                                  "self_s": self.self_time[k]}
                              for k in sorted(self.calls)}}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _layer_of(name: str) -> str:
    # longest layer prefix wins: "kernels.ode.x" belongs to "kernels.ode"
    best = ""
    for layer in LAYERS:
        if name.startswith(layer + ".") and len(layer) > len(best):
            best = layer
    return best


class _QuadNamespace:
    """Stand-in for ``scipy.integrate`` inside kernels.quadrature."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _public_functions(module):
    for fname, obj in vars(module).items():
        if fname.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield fname, obj


class Tracer:
    """Installs the wrappers for one traced op and takes them out after it.

    Half the ops of a traced run are traced; the others run the program
    unwrapped, which gives the tracing overhead on the same mix of inputs.
    """

    def __init__(self):
        self.rec = Recorder()
        self._patches = _plan(self.rec)
        self._undo: list[tuple[object, str, object]] = []

    def start(self, op_id: int, shared_data=()) -> None:
        for holder, attr, wrapped in self._patches:
            self._set(holder, attr, wrapped)
        for data in shared_data:
            self.adopt(data)
        self.rec.op_id = op_id
        self.rec.enabled = True

    def adopt(self, data):
        """Route a data object's a1/a2/b/r1/r2 through the recorder."""
        for attr in DATA_CALLABLES:
            fn = getattr(data, attr, None)
            if fn is not None:
                self._set(data, attr, self.rec.wrap("scattering", f"data.{attr}",
                                                    fn, store=False))
        return data

    def stop(self) -> None:
        self.rec.enabled = False
        while self._undo:
            holder, attr, old = self._undo.pop()
            if old is _ABSENT:      # a method the instance had from its class
                object.__delattr__(holder, attr)
            else:
                _setattr(holder, attr, old)

    def _set(self, holder, attr, value) -> None:
        self._undo.append((holder, attr, vars(holder).get(attr, _ABSENT)))
        _setattr(holder, attr, value)


def _setattr(holder, attr, value) -> None:
    # object.__setattr__ also reaches frozen dataclasses; classes need setattr
    if isinstance(holder, type):
        setattr(holder, attr, value)
    else:
        object.__setattr__(holder, attr, value)


_ABSENT = object()


def _plan(rec: Recorder) -> list[tuple[object, str, object]]:
    """(holder, attribute, wrapper) for every binding of every layer function."""
    holders = [importlib.import_module(m) for m in
               ("steplpd", "steplpd.kernels", "steplpd.cli",
                "steplpd.kernels.roots", *LAYERS.values())]
    patches = []
    for layer, modname in LAYERS.items():
        module = importlib.import_module(modname)
        for fname, fn in list(_public_functions(module)):
            wrapped = rec.wrap(layer, fname, fn)
            patches += [(h, fname, wrapped) for h in holders
                        if vars(h).get(fname) is fn]
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                raw = vars(cls)[meth]
                name = f"{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(rec.wrap(layer, name, raw.__func__))
                else:
                    wrapped = rec.wrap(layer, name, raw)
                patches.append((cls, meth, wrapped))
    quadrature = importlib.import_module("steplpd.kernels.quadrature")
    si = quadrature._si
    patches.append((quadrature, "_si", _QuadNamespace(
        si, rec.wrap("kernels.quadrature", "quad", si.quad))))
    return patches
