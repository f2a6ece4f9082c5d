"""In-memory span recorder for the traced benchmark run.

heatflow's modules import functions from each other by name, so one function
object sits in several module namespaces (``heatflow.expansion.apply_expansion``
is also ``heatflow.solvers.apply_expansion`` and ``heatflow.wavelets.
apply_expansion``). The tracer therefore replaces every binding of a wrapped
function, in every namespace it is given, while a job is traced, and puts the
originals back afterwards. A span is ``[name, start_ns, end_ns, parent, job,
attrs]``; spans stay in memory until ``write`` is called at the end of the run.
"""

import functools
import hashlib
import inspect
import json
import os
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("mesh", "expansion", "special", "solvers", "wavelets", "stats", "fields", "cli")

# Called once per recurrence degree (48k calls in one group-study run); a span
# there would cost more than the work it measures. Matvec counts come from the
# degree of the coefficients passed to apply_expansion instead.
PER_DEGREE = frozenset({"mesh.apply_lb", "expansion.recurrence_params"})

# Relative coefficient tail below which further degrees change nothing in
# double precision; defines the "useful" degree of an expansion.
TAIL_REL = 1e-16


def useful_degree(coeffs):
    """Smallest m with sum_{n>m} |c_n| <= TAIL_REL * sum_n |c_n|."""
    c = np.abs(np.asarray(coeffs, dtype=float))
    tail = np.append(np.cumsum(c[::-1])[::-1], 0.0)  # tail[n] = sum_{k>=n} |c_k|
    return int(np.argmax(tail[1:] <= TAIL_REL * c.sum()))


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _expansion_attrs(bound, result):
    op, coeffs, f = bound["op"], bound["coeffs"], bound["f"]
    cols = 1 if np.ndim(f) == 1 else int(np.shape(f)[1])
    n = int(op.n_vertices)
    csr = op.C.data.nbytes + op.C.indices.nbytes + op.C.indptr.nbytes
    # Computed lower bound on the bytes one degree moves: the CSR arrays once,
    # plus 11 passes over N doubles per column (SpMV read/write, area divide,
    # three-term update, accumulation into the output).
    return {
        "degree": int(coeffs.degree),
        "n": n,
        "cols": cols,
        "bytes_per_degree": int(csr + 11 * 8 * n * cols),
        "useful_degree": useful_degree(coeffs.coeffs),
    }


def _coeff_digest(bound, result):
    return {"digest": hashlib.sha1(np.ascontiguousarray(result.coeffs).tobytes()).hexdigest()}


# span name -> attrs(bound_arguments, result), run after the span has ended
HOOKS = {
    "mesh.load_mesh": lambda bound, result: _file_bytes(bound["path"]),
    "fields.read_field_csv": lambda bound, result: _file_bytes(bound["path"]),
    "fields.read_stack_csv": lambda bound, result: _file_bytes(bound["path"]),
    "fields.write_field_csv": lambda bound, result: _file_bytes(bound["path"]),
    "fields.write_stack_csv": lambda bound, result: _file_bytes(bound["path"]),
    "expansion.apply_expansion": _expansion_attrs,
    "wavelets.kernel_coefficients": _coeff_digest,
}


class Tracer:
    """Wraps the public functions of ``modules`` wherever ``namespaces`` bind them."""

    def __init__(self, modules, namespaces):
        self.spans = []
        self.job = None
        self._stack = []
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or name in PER_DEGREE
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, name, HOOKS.get(name)))
        self.names = sorted(w.__qualname__ for _, w in wrappers.values())
        self._sites = []  # (namespace, attribute, original, wrapper)
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._sites.append((ns, attr, obj, hit[1]))

    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.job, None]
            if hook is not None:
                try:
                    spans[index][5] = hook(signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # noqa: BLE001  (a counter must not fail the job)
                    spans[index][5] = {"hook_error": repr(exc)}
            return result

        traced.__qualname__ = name
        return traced

    @contextmanager
    def active(self, job):
        """Trace calls made inside the block, tagging their spans with ``job``."""
        self.job = job
        for ns, attr, _, wrapper in self._sites:
            setattr(ns, attr, wrapper)
        try:
            yield
        finally:
            for ns, attr, original, _ in self._sites:
                setattr(ns, attr, original)
            self.job = None

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times_ns(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]
