"""Per-layer tracing for the benchmark: spans around the public functions
of each ``heckepoly`` module, installed from outside the package.

Every wrapped function gets a record with three numbers:

* ``calls``  -- invocations that are not nested inside another invocation
  of the same function (for ``Operator.__call__`` this is the number of
  top-level operator applications, not the frames of the closure tree);
* ``busy_s`` -- wall time of those outermost invocations;
* the module's ``self_s`` -- span time minus the time of child spans,
  summed over every span of the module.  Time spent in unwrapped code
  (private helpers, ``Fraction`` arithmetic) counts towards the module of
  the innermost enclosing span.

A wrapper is rebound under every name that held the original in any
``heckepoly.*`` module and in module-level registries (dicts), because
``from .families import jack`` copies the function object into the
importing module; patching only the defining module would record nothing
for calls made through the copy.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from time import perf_counter

LAYERS = (
    "operators",
    "polynomials",
    "pairings",
    "families",
    "shift",
    "raising",
    "verify",
    "combinatorics",
)

# dunder methods that do work a caller asked for; the rest (repr, hash,
# dataclass plumbing) are left alone
_DUNDERS = {
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__pow__", "__eq__",
}

# functions whose ``method`` argument selects a construction route
_ROUTED = {"jack", "hermite", "laguerre"}


class Record:
    __slots__ = ("layer", "calls", "busy_s", "depth", "extra")

    def __init__(self, layer: "Layer"):
        self.layer = layer
        self.calls = 0
        self.busy_s = 0.0
        self.depth = 0
        self.extra = {}


class Layer:
    __slots__ = ("self_s",)

    def __init__(self):
        self.self_s = 0.0


class Tracer:
    """Install with :meth:`install`; read with :meth:`report`."""

    def __init__(self):
        root = Record(Layer())
        # each frame is [record, time covered by child spans]
        self._stack = [[root, 0.0]]
        self.layers = {name: Layer() for name in LAYERS}
        self.records: dict[str, Record] = {}

    # -- span bookkeeping -------------------------------------------------

    def _record(self, name: str, layer: str) -> Record:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record(self.layers[layer])
        return rec

    def _wrap(self, fn, rec_for, after=None):
        """Span wrapper.  ``rec_for(args, kwargs)`` picks the record (routes
        share a function but not a record); ``after(rec, args, result)``
        adds extra counts for outermost calls."""
        stack = self._stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            rec = rec_for(args, kwargs)
            if stack[-1][0] is rec:  # direct recursion stays in one span
                return fn(*args, **kwargs)
            frame = [rec, 0.0]
            stack.append(frame)
            outer = rec.depth == 0
            rec.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec.depth -= 1
                stack.pop()
                stack[-1][1] += dt
                rec.layer.self_s += dt - frame[1]
                if outer:
                    rec.calls += 1
                    rec.busy_s += dt
            if outer and after is not None:
                after(rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _wrap_generator(self, fn, rec):
        """Each resumption of the generator is a span; creation is a call."""
        stack = self._stack
        clock = perf_counter

        def resume(gen):
            while True:
                frame = [rec, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][1] += dt
                    rec.layer.self_s += dt - frame[1]
                    rec.busy_s += dt
                yield item

        def wrapper(*args, **kwargs):
            rec.calls += 1
            return resume(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, suites: dict | None = None, callers=()) -> None:
        """Wrap the public functions and methods of every layer module and
        rebind each wrapper wherever the original is referenced: in every
        ``heckepoly.*`` module and in the modules ``callers``.

        ``suites`` is ``verify.SUITES``; its entries are recorded by suite
        name with their case counts."""
        modules = {
            name: importlib.import_module(f"heckepoly.{name}") for name in LAYERS
        }
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                wrapped = self._wrap_module_attr(layer, mod, attr, value)
                if wrapped is not None:
                    replaced[id(value)] = (value, wrapped)
            for cls in list(vars(mod).values()):
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    self._wrap_class(layer, cls)
        if suites is not None:
            for suite, fn in list(suites.items()):
                rec = self._record(f"verify.{suite}", "verify")
                rec.extra["cases"] = 0
                wrapped = self._wrap(fn, lambda a, k, r=rec: r, _count_cases)
                replaced[id(fn)] = (fn, wrapped)
        self._rebind(replaced, callers)

    def _wrap_module_attr(self, layer, mod, attr, value):
        if attr.startswith("_"):
            return None
        if hasattr(value, "cache_info") and hasattr(value, "__wrapped__"):
            target = value.__wrapped__  # an lru_cache object, wrapped whole
        elif isinstance(value, types.FunctionType):
            target = value
        else:
            return None
        if target.__module__ != mod.__name__:
            return None
        if attr in _ROUTED and layer == "families":
            return self._wrap(value, self._route_picker(layer, attr, target))
        rec = self._record(f"{layer}.{attr}", layer)
        if inspect.isgeneratorfunction(target) and target is value:
            return self._wrap_generator(value, rec)
        return self._wrap(value, lambda a, k, r=rec: r)

    def _route_picker(self, layer, attr, fn):
        params = list(inspect.signature(fn).parameters.values())
        index = next(i for i, p in enumerate(params) if p.name == "method")
        default = params[index].default
        recs = {}

        def pick(args, kwargs):
            route = kwargs.get("method", args[index] if len(args) > index else default)
            rec = recs.get(route)
            if rec is None:
                rec = recs[route] = self._record(f"{layer}.{attr}.{route}", layer)
            return rec

        return pick

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                rec = self._record(name, layer)
                after = _AFTER.get(name)
                setattr(cls, attr, self._wrap(value, lambda a, k, r=rec: r, after))
            elif isinstance(value, classmethod):
                rec = self._record(name, layer)
                fn = self._wrap(value.__func__, lambda a, k, r=rec: r)
                setattr(cls, attr, classmethod(fn))

    @staticmethod
    def _rebind(replaced: dict, callers) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "heckepoly" or name.startswith("heckepoly.")]
        for mod in modules + list(callers):
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    # -- results ----------------------------------------------------------

    def report(self) -> dict:
        """Flat ``{metric name: value}`` for every record and layer."""
        out = {f"{name}.self_s": layer.self_s for name, layer in self.layers.items()}
        for name, rec in self.records.items():
            out[f"{name}.calls"] = rec.calls
            out[f"{name}.busy_s"] = rec.busy_s
            for key, value in rec.extra.items():
                out[f"{name}.{key}"] = value
        return out


def _count_cases(rec, args, report) -> None:
    rec.extra["cases"] += report.cases_run


def _count_input_terms(rec, args, result) -> None:
    rec.extra["input_terms"] = rec.extra.get("input_terms", 0) + len(args[1].terms)


def _max_terms(rec, args, result) -> None:
    size = len(args[0].terms)
    if size > rec.extra.get("max_terms", 0):
        rec.extra["max_terms"] = size


_AFTER = {
    "operators.Operator.__call__": _count_input_terms,
    "polynomials.Polynomial.__init__": _max_terms,
}
