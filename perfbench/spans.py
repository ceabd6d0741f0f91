"""Spans around the public functions and classes of every platelab module.

`install` replaces each public function of a platelab module, in every
platelab module namespace that holds it, by a wrapper that records a span.
Calls made inside a module are caught as well, because Python looks module
globals up at call time. Public methods of the classes (and `__init__` of
the classes that are not dataclasses) are wrapped on the class itself, so
`isinstance` and dataclass behaviour are unchanged.

A span is (id, name, parent id, thread id, start, end, thread CPU seconds);
the parent is the innermost open span of the same thread. Spans stay in
memory until `Tracer.dump`. Hooks count work at the same boundaries (dof,
nnz, elements, rows, distinct inputs); their own time is a `trace.hook`
span so it is not charged to any platelab layer.
"""

import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "geometry", "material", "solver", "functionals", "estimates",
          "tables")

# Per-element kernels: about nine calls per element each time a mesh is
# built. Spans on them would add 30% to a traced run; their time stays in
# the self time of the geometry span that calls them.
UNTRACED = {"geometry.shape_q4", "geometry.quad_jacobian",
            "geometry.element_jacobians_ok"}


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(memoryview(a).cast("B") if hasattr(a, "nbytes") else
                 repr(a).encode())
    return h.hexdigest()


def _solve_hook(tr, a, state):
    system = a["system"]
    k = system.stiffness
    tr.add("solver.dof", system.n_dof)
    tr.add("solver.nnz_k", k.nnz)
    tr.maximum("solver.dof.max", system.n_dof)
    tr.maximum("solver.nnz_k.max", k.nnz)
    tr.maximum("solver.residual_max", state.residual)
    tr.distinct("solver.solve", _digest(k.indptr, k.indices, k.data,
                                        system.rhs))


def _mesh_hook(tr, a, mesh):
    tr.add("geometry.elements", mesh.n_elements)
    tr.distinct("geometry.generate_mesh",
                _digest(a["domain"].vertices, float(a["target_size"]),
                        a.get("element_budget")))


def _frequency_hook(tr, a, report):
    tr.add("functionals.boundary_nodes", len(a["load"].mesh.boundary_edges))


def _csv_hook(tr, a, path):
    tr.add("tables.rows", len(a["rows"]))
    tr.add("tables.bytes", os.path.getsize(path))


def _three_spheres_hook(tr, a, report):
    tr.add("estimates.centers", 1)


def _lps_hook(tr, a, report):
    tr.add("estimates.centers", len(report.centers))


# Hooks read arguments by parameter name and results by attribute. If a
# later platelab renames one, the hook is skipped and counted as a
# trace.hook_errors entry instead of failing the traced operation.
HOOKS = {
    "solver.solve": _solve_hook,
    "geometry.generate_mesh": _mesh_hook,
    "functionals.frequency": _frequency_hook,
    "tables.write_csv": _csv_hook,
    "estimates.three_spheres_check": _three_spheres_hook,
    "estimates.lps_check": _lps_hook,
}
HOOK_ERRORS = (AttributeError, KeyError, TypeError)


class Tracer:
    """In-memory span and counter store for one operation (one process)."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = {}
        self.keys = defaultdict(set)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name, n):
        with self._lock:
            self.counts[name] += int(n)

    def maximum(self, name, value):
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def distinct(self, name, key):
        with self._lock:
            self.keys[name].add(key)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                self.spans.append((sid, name, parent, threading.get_ident(),
                                   t0, t1, c1 - c0))
            if hook is not None:
                hid = next(self._ids)
                c0 = time.thread_time()
                t0 = time.perf_counter()
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
                except HOOK_ERRORS:
                    self.add("trace.hook_errors", 1)
                self.spans.append((hid, "trace.hook", parent,
                                   threading.get_ident(), t0,
                                   time.perf_counter(),
                                   time.thread_time() - c0))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"op": self.op_id,
                       "main_thread": threading.main_thread().ident,
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "maxima": self.maxima,
                       "distinct": {k: len(v) for k, v in self.keys.items()}},
                      fh)


def _targets(module):
    """Public functions and classes defined in a platelab module."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield attr, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            yield attr, obj


def _wrap_class(tracer, layer, cls):
    plain = not hasattr(cls, "__dataclass_fields__") and not issubclass(cls, tuple)
    for attr, obj in list(vars(cls).items()):
        if inspect.isfunction(obj) and (not attr.startswith("_")
                                        or (attr == "__init__" and plain)):
            setattr(cls, attr, tracer.wrap(f"{layer}.{cls.__name__}.{attr}", obj))


def install(tracer):
    """Wrap every layer of the imported platelab package; returns the count
    of wrapped functions and methods."""
    modules = [m for n, m in sys.modules.items()
               if n == "platelab" or n.startswith("platelab.")]
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"platelab.{layer}"]
        for attr, obj in _targets(module):
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
            elif f"{layer}.{attr}" not in UNTRACED:
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(module, attr, wrapped[id(obj)])
    return len(wrapped)


# ---------------------------------------------------------------------------
# aggregation, in the benchmark driver


def span_times(spans):
    """Per-span (name, thread, parent, wall, self wall, self thread-CPU)."""
    child_wall = defaultdict(float)
    child_cpu = defaultdict(float)
    for sid, name, parent, thread, t0, t1, cpu in spans:
        if parent is not None:
            child_wall[parent] += t1 - t0
            child_cpu[parent] += cpu
    for sid, name, parent, thread, t0, t1, cpu in spans:
        wall = t1 - t0
        yield (name, thread, parent, wall, wall - child_wall[sid],
               cpu - child_cpu[sid])


def summarize(record):
    """Flat per-layer and per-span metrics of one traced operation."""
    out = defaultdict(float)
    main_self = 0.0
    for name, thread, parent, wall, self_wall, self_cpu in span_times(record["spans"]):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_wall
        out[f"{layer}.wait_s"] += self_wall - self_cpu
        out[f"{layer}.calls"] += 1
        out[f"{name}.self_s"] += self_wall
        out[f"{name}.total_s"] += wall
        out[f"{name}.calls"] += 1
        if thread == record["main_thread"]:
            main_self += self_wall
    out["trace.spans"] = len(record["spans"])
    out["trace.main_self_s"] = main_self
    for k, v in record["counts"].items():
        out[k] += v
    for k, v in record["distinct"].items():
        out[f"{k}.distinct"] += v
    return out, record["maxima"]
