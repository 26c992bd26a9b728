"""Outside-in spans around the public functions of the varibc modules.

The wrappers are installed on module attributes from the benchmark's side,
so the program under test carries no timers of its own, and `uninstall`
puts every original attribute back. Spans stay in memory until `to_json`.
The program is single-threaded, so spans nest strictly and no span waits.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index into Tracer.spans, -1 for a root span
    iteration: int        # optimizer iteration, 0 during set-up
    error: str | None = None  # exception class that left the span
    value: float = 0.0    # splu: L+U nonzeros; lu_solve: right-hand sides


class Tracer:
    """In-memory span recorder plus the module patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration = 0
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        sp = Span(name, self.clock(), float("nan"), parent, self.iteration)
        self.spans.append(sp)
        self._open.append(idx)
        try:
            yield sp
        except BaseException as err:
            sp.error = type(err).__name__
            raise
        finally:
            sp.end = self.clock()
            self._open.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, layers=True):
        """Patch the iteration boundaries, and with `layers` every layer."""
        try:
            install(self, layers)
            yield self
        finally:
            self.uninstall()

    def to_json(self):
        return [asdict(s) for s in self.spans]


class TracedLU:
    """SuperLU proxy whose solves are spans that count right-hand sides."""

    def __init__(self, lu, tracer, layer):
        self._lu = lu
        self._tracer = tracer
        self._name = layer + ".lu_solve"

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span(self._name) as sp:
            sp.value = rhs.shape[1] if rhs.ndim == 2 else 1
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _traced_splu(tracer, layer, splu):
    @functools.wraps(splu)
    def traced(*args, **kwargs):
        with tracer.span(layer + ".splu") as sp:
            lu = splu(*args, **kwargs)
            sp.value = lu.nnz
        return TracedLU(lu, tracer, layer)
    return traced


def _traced_state_adjoint(tracer, cls):
    def make(*args, **kwargs):
        with tracer.span("adjoint.StateAdjoint"):
            adj = cls(*args, **kwargs)
        adj.sensitivity = tracer.wrap("adjoint.sensitivity", adj.sensitivity)
        return adj
    return make


def plain_targets():
    """(module, attribute, span name) of every function wrapped as is."""
    from varibc import (adjoint, assembly, design_field, material, mesh, mma,
                        optimizer, problems)
    return [
        (problems, "make_problem", "problems.make_problem"),
        (mesh, "generate_mesh", "mesh.generate_mesh"),
        (assembly, "ElementKinematics", "assembly.ElementKinematics"),
        (design_field, "build_filter_matrix",
         "design_field.build_filter_matrix"),
        (optimizer, "build_filter_matrix", "design_field.build_filter_matrix"),
        (design_field, "evaluate_fields", "design_field.evaluate_fields"),
        (assembly, "internal_force_and_tangent",
         "assembly.internal_force_and_tangent"),
        (material, "pk2_and_tangent_batch", "material.pk2_and_tangent_batch"),
        (optimizer, "solve_equilibrium_path", "solver.solve_equilibrium_path"),
        (adjoint, "residual_vjp", "assembly.residual_vjp"),
        (mma, "mmasub", "mma.mmasub"),
    ]


def install(tracer, layers=True):
    """Wrap the two halves of an optimizer iteration and, with `layers`,
    every layer below them. The iteration spans alone are the clock of the
    untraced runs."""
    from varibc import adjoint, optimizer, solver

    for attr in ("evaluate_design", "mma_update"):
        tracer.patch(optimizer, attr,
                     tracer.wrap("optimizer." + attr, getattr(optimizer, attr)))
    if not layers:
        return
    for module, attr, name in plain_targets():
        tracer.patch(module, attr, tracer.wrap(name, getattr(module, attr)))
    tracer.patch(solver, "splu", _traced_splu(tracer, "solver", solver.splu))
    tracer.patch(adjoint, "splu", _traced_splu(tracer, "adjoint", adjoint.splu))
    tracer.patch(optimizer, "StateAdjoint",
                 _traced_state_adjoint(tracer, optimizer.StateAdjoint))


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the span."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo = s.start
        for a, b in sorted((spans[k].start, spans[k].end) for k in kids):
            a, b = max(a, lo), min(b, s.end)
            if b > a:
                covered += b - a
                lo = b
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans, keep=None):
    """name -> {calls, self_s, total_s, value, errors} over the spans that
    `keep` selects."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        if keep is not None and not keep(s):
            continue
        t = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                       "total_s": 0.0, "value": 0.0,
                                       "errors": {}})
        t["calls"] += 1
        t["self_s"] += own
        t["total_s"] += s.end - s.start
        t["value"] += s.value
        if s.error:
            t["errors"][s.error] = t["errors"].get(s.error, 0) + 1
    return totals


def iteration_windows(spans):
    """Per iteration, the (start, end) covered by its mma_update and
    evaluate_design spans."""
    windows = {}
    for s in spans:
        if s.parent < 0 and s.name in ("optimizer.evaluate_design",
                                       "optimizer.mma_update"):
            lo, hi = windows.get(s.iteration, (s.start, s.end))
            windows[s.iteration] = (min(lo, s.start), max(hi, s.end))
    return [windows[k] for k in sorted(windows)]
