"""Span tracing of the library from outside it.

``Tracer.install`` rebinds every public function of each library module, in
every library namespace that binds it, to a wrapper that records a span:
(parent span, layer, function, start, end, round id). It also wraps the
numpy kernels the library calls (``numpy.fft.*``, ``numpy.linalg.*``) and
``Tensor3.__init__`` / ``Tensor3.exactly_real``. Spans stay in memory; self
times and counters are derived after the traced phase, and ``uninstall``
puts every original attribute back.
"""

from __future__ import annotations

import functools
import os
import time
import types
from collections import Counter, defaultdict

import numpy as np

LIB_LAYERS = ("core", "algebra", "spectral", "genfun", "solve", "structure", "io", "cli")
KERNEL_LAYERS = ("numpy.fft", "numpy.linalg")
LAYERS = LIB_LAYERS + KERNEL_LAYERS

# numpy.linalg entry points that factor or solve; their batch size is what
# numpy.linalg.mats counts.
FACTORING = frozenset({
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals", "tensorinv",
    "tensorsolve",
})

# Functions whose inclusive time is reported per round, as "<layer>.<function>_s".
INCLUSIVE = (
    "algebra.tprod", "spectral.tcsvd", "genfun.gfun", "genfun.standard_tfn",
    "solve.pinv", "solve.solve_axb", "solve.gfun_contour", "solve.pinv_contour",
    "solve.cluster_projector_contour", "solve.standard_fn_contour",
    "structure.preservation_check",
)

IO_TIMED = {
    "io.read_text": "io.text_read_s", "io.write_text": "io.text_write_s",
    "io.read_binary": "io.binary_read_s", "io.write_binary": "io.binary_write_s",
}


def _first_array(args, kwargs, key="a"):
    x = args[0] if args else kwargs.get(key)
    return x if isinstance(x, np.ndarray) else np.asarray(x)


def _count_linalg(tr, name, args, kwargs, result):
    if name in FACTORING:
        shape = _first_array(args, kwargs).shape
        tr.counters["numpy.linalg.mats"] += int(np.prod(shape[:-2], dtype=np.int64))


def _count_fft(tr, name, args, kwargs, result):
    tr.counters["numpy.fft.bytes"] += _first_array(args, kwargs).nbytes + result.nbytes


def _count_tensor3(tr, name, args, kwargs, result):
    tr.counters["core.tensor3_bytes"] += args[0].data.nbytes


def _count_read(tr, name, args, kwargs, result):
    tr.counters["io.bytes_read"] += os.path.getsize(args[0])


def _count_write(tr, name, args, kwargs, result):
    tr.counters["io.bytes_written"] += os.path.getsize(args[0])


def _count_exit(tr, name, args, kwargs, result):
    tr.counters["cli.nonzero_exits"] += int(result != 0)


COUNTERS = {
    ("io", "read_text"): _count_read, ("io", "read_binary"): _count_read,
    ("io", "write_text"): _count_write, ("io", "write_binary"): _count_write,
    ("cli", "main"): _count_exit,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.enabled = False
        self.round_id = 0
        self._stack = []
        self._saved = []  # (owner, attribute, original value)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer, name, fn, count=None):
        spans, stack = self.spans, self._stack
        label = f"{layer}.{name}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (parent, layer, label, t0, t1, tracer.round_id)
            if count is not None:
                count(tracer, name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, tp):
        """Wrap the library ``tp`` (the imported package) and the numpy kernels."""
        modules = [tp] + [getattr(tp, layer) for layer in LIB_LAYERS]
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                pkg, _, layer = obj.__module__.rpartition(".")
                if pkg != tp.__name__ or layer not in LIB_LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(layer, name, obj, COUNTERS.get((layer, name)))
                self._patch(mod, name, wrappers[obj])

        for layer, mod, count in (("numpy.fft", np.fft, _count_fft),
                                  ("numpy.linalg", np.linalg, _count_linalg)):
            for name in mod.__all__:
                obj = getattr(mod, name)
                if name == "test" or isinstance(obj, type) or not callable(obj):
                    continue
                self._patch(mod, name, self._wrap(layer, name, obj, count))

        t3 = tp.core.Tensor3
        self._patch(t3, "__init__", self._wrap("core", "Tensor3.__init__", t3.__init__,
                                               _count_tensor3))
        prop = t3.__dict__["exactly_real"]
        self._patch(t3, "exactly_real",
                    property(self._wrap("core", "Tensor3.exactly_real", prop.fget)))

    def uninstall(self):
        """Put back every wrapped attribute; returns how many were restored."""
        self.enabled = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        restored = len(self._saved)
        for owner, attr, original in self._saved:
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if now is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        self._saved.clear()
        return restored

    # -- analysis --------------------------------------------------------

    def per_round(self, rounds):
        """Per-layer and per-function figures, each divided by ``rounds``."""
        child = [0.0] * len(self.spans)
        for parent, _, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = Counter()
        self_s = defaultdict(float)
        incl = defaultdict(float)
        label_calls = Counter()
        for i, (_, layer, label, t0, t1, _) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - child[i]
            incl[label] += t1 - t0
            label_calls[label] += 1

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / rounds, "count/round")
            out[f"{layer}.self_s"] = (self_s[layer] / rounds, "s/round")
        out["numpy.linalg.mats"] = (self.counters["numpy.linalg.mats"] / rounds, "count/round")
        out["numpy.fft.bytes"] = (self.counters["numpy.fft.bytes"] / rounds, "B/round")
        out["core.tensor3_new"] = (label_calls["core.Tensor3.__init__"] / rounds, "count/round")
        out["core.tensor3_bytes"] = (self.counters["core.tensor3_bytes"] / rounds, "B/round")
        out["core.exactly_real_scans"] = (label_calls["core.Tensor3.exactly_real"] / rounds,
                                          "count/round")
        out["solve.resolvent_evals"] = (label_calls["solve.resolvent_eval"] / rounds,
                                        "count/round")
        for label, metric in IO_TIMED.items():
            out[metric] = (incl[label] / rounds, "s/round")
        out["io.bytes_read"] = (self.counters["io.bytes_read"] / rounds, "B/round")
        out["io.bytes_written"] = (self.counters["io.bytes_written"] / rounds, "B/round")
        out["cli.nonzero_exits"] = (self.counters["cli.nonzero_exits"] / rounds, "count/round")
        for label in INCLUSIVE:
            out[f"{label}_s"] = (incl[label] / rounds, "s/round")
        return out

    def write_spans(self, path, round_id=0):
        """One round's spans as CSV: index, parent, layer, function, start and end
        in seconds from the round's first span, round id."""
        base = None
        with open(path, "w") as fh:
            fh.write("span,parent,layer,function,start_s,end_s,round\n")
            for i, (parent, layer, label, t0, t1, rid) in enumerate(self.spans):
                if rid != round_id:
                    continue
                base = t0 if base is None else base
                fh.write(f"{i},{parent},{layer},{label},{t0 - base:.9f},{t1 - base:.9f},{rid}\n")
