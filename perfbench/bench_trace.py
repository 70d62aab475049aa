"""Outside-in tracer: spans around the calls into ktcy's layers.

Nothing in the package changes.  The tracer replaces each public function
of the layer modules (``field``, ``pde``, ``solver``, ``estimates``,
``rotation``, ``cli``) in every namespace that holds it, under the name the
caller looks up: ``solver`` imports ``apply_linearized`` by name, so
patching ``ktcy.pde`` alone would miss those calls.  The ``numpy.fft``
transforms become counted leaf spans and ``ScalarField.__init__`` counts
field constructions.  ``geometry`` is on no benchmarked path and is not
wrapped.

Spans are kept in memory as ``(id, name, start, end, parent, amount)``;
``amount`` is bytes computed for an FFT (input plus output array sizes),
file bytes for a dump read or write and points for ``field.evaluate``.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("field", "pde", "solver", "estimates", "rotation", "cli")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


def _path_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs["path"]


_AMOUNTS = {
    "field.write_field": lambda args, kwargs, out: os.path.getsize(_path_arg(args, kwargs, 1)),
    "field.read_field": lambda args, kwargs, out: os.path.getsize(_path_arg(args, kwargs, 0)),
    "field.evaluate": lambda args, kwargs, out: int(out.size),
}


def _fft_bytes(args, kwargs, out):
    return int(np.asarray(args[0]).nbytes + out.nbytes)


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self, ktcy):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original, wrapper)
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ktcy.{layer}"]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    key = f"{layer}.{name}"
                    wrappers[fn] = self._wrap(key, fn, _AMOUNTS.get(key))
        for modname, module in sorted(sys.modules.items()):
            if modname != "ktcy" and not modname.startswith("ktcy."):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value, wrappers[value]))
        field_cls = ktcy.field.ScalarField
        init = field_cls.__init__
        self._patches.append((field_cls, "__init__", init, self._wrap("field.scalarfield", init)))
        for name in FFT_FUNCS:
            fn = getattr(np.fft, name)
            self._patches.append((np.fft, name, fn, self._wrap(f"numpy.fft.{name}", fn, _fft_bytes)))

    def _wrap(self, name, fn, amount=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent, 0))
            if amount is not None:
                tracer.spans[-1] = (sid, name, start, end, parent, amount(args, kwargs, out))
            return out

        return wrapper

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return False

    def take(self) -> list:
        """Spans recorded so far; clears the buffer."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write("id\tname\tstart\tend\tparent\tamount\n")
        for sid, name, start, end, parent, amount in sorted(spans):
            fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{amount}\n")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one cycle's spans.

    Self time is a span's duration minus the durations of its direct
    children.  Counts that depend on nesting come from the nearest enclosing
    ``solve_linearized``, ``apply_linearized`` and ``newton_step`` spans.
    """
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        child_time[parent] += end - start
    calls, total, self_s, amount = Counter(), defaultdict(float), defaultdict(float), Counter()
    enclosing = {-1: (None, None, None)}
    marks = ("solver.solve_linearized", "pde.apply_linearized", "solver.newton_step")
    matvecs_per_solve, reports_per_step = Counter(), Counter()
    precond = fft_in_apply = fft_bytes_in_apply = 0
    for sid, name, start, end, parent, amt in sorted(spans):
        outer = enclosing[parent]
        enclosing[sid] = tuple(sid if name == mark else up for mark, up in zip(marks, outer))
        layer = "field.fft" if name.startswith("numpy.fft.") else name
        calls[layer] += 1
        total[layer] += end - start
        self_s[layer] += end - start - child_time[sid]
        amount[layer] += amt
        in_solve, in_apply, in_step = outer
        if name == "pde.apply_linearized" and in_solve is not None:
            matvecs_per_solve[in_solve] += 1
        if name == "numpy.fft.rfftn" and in_solve is not None and in_apply is None:
            precond += 1
        if layer == "field.fft" and in_apply is not None:
            fft_in_apply += 1
            fft_bytes_in_apply += amt
        if name == "pde.ellipticity_report" and in_step is not None:
            reports_per_step[in_step] += 1
    return {
        "field.fft.calls": calls["field.fft"],
        "field.fft.self_s": self_s["field.fft"],
        "field.fft.bytes_computed": amount["field.fft"],
        "field.derivative.calls": calls["field.derivative"],
        "field.derivative.self_s": self_s["field.derivative"],
        "field.scalarfield.built": calls["field.scalarfield"],
        "field.scalarfield.s": total["field.scalarfield"],
        "field.evaluate.points": amount["field.evaluate"],
        "field.evaluate.s": total["field.evaluate"],
        "field.io.write_s": total["field.write_field"],
        "field.io.read_s": total["field.read_field"],
        "field.io.bytes": amount["field.write_field"] + amount["field.read_field"],
        "pde.ma_lhs.calls": calls["pde.ma_lhs"],
        "pde.residual.calls": calls["pde.residual"],
        "pde.linearize.calls": calls["pde.linearize"],
        "pde.apply_linearized.calls": calls["pde.apply_linearized"],
        "pde.apply_linearized.self_s": self_s["pde.apply_linearized"],
        "pde.apply_linearized.fft_calls": fft_in_apply,
        "pde.apply_linearized.fft_bytes_computed": fft_bytes_in_apply,
        "pde.ellipticity_report.calls": calls["pde.ellipticity_report"],
        "pde.ellipticity_report.s": total["pde.ellipticity_report"],
        "solver.solve_linearized.calls": calls["solver.solve_linearized"],
        "solver.solve_linearized.self_s": self_s["solver.solve_linearized"],
        "solver.matvecs": sum(matvecs_per_solve.values()),
        "solver.precond_applies": precond,
        "solver.krylov_per_newton.max": max(matvecs_per_solve.values(), default=0),
        "solver.line_search_trials": sum(max(0, c - 1) for c in reports_per_step.values()),
        "estimates.verify.calls": calls["estimates.verify"],
        "estimates.verify.s": total["estimates.verify"],
        "rotation.pullback.s": total["rotation.pullback_datum"],
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
    }
