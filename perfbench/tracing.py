"""Span tracing of the solve pipeline, installed from outside the package.

``instrument(tracer)`` replaces the public entry points of each crossfield
layer with wrappers that open a span around the call and record counts at
the same boundary; leaving the context restores the originals, so the
package source is never modified.  Spans are kept in memory with name,
start, end, parent span and run id, and written out once at the end.

A layer's self time is its spans' durations minus the part of each span
that its child spans cover; the self times of all spans under one root add
up to the root's duration.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """In-memory span and count store for a sequence of traced runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[Span] = []

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                    parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name, amount=1):
        self.counts[self.run][name] += amount

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": {str(r): dict(c) for r, c in self.counts.items()}},
                      fh)


def covered(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Self time of every span in seconds, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end)
            for s in spans}


def layer_self_times(spans):
    """Per run, the self times summed by span name: ``{run: {name: s}}``."""
    own = self_times(spans)
    out = defaultdict(Counter)
    for s in spans:
        out[s.run][s.name] += own[s.id]
    return out


def _replace_everywhere(original, replacement):
    """Rebind every crossfield module attribute holding ``original``."""
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "crossfield" and not mod_name.startswith("crossfield."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
    return patched


@contextmanager
def instrument(tracer):
    """Wrap each layer's public calls in spans for the life of the context.

    Layers and their spans:

    - ``mesh.load``: ``load_mesh`` (counts ``mesh.input_bytes``);
      ``mesh.topology``: ``SurfaceMesh`` construction (edge tables and
      validation), ``topology_report``, ``vertex_component_labels``.
    - ``frames.edge``: ``build_edge_frames``; ``frames.triangle``:
      ``triangle_frames`` (counts ``frames.triangle_calls``).
    - ``solver.newton``: ``newton_solve``, whose first part up to the first
      ``newton_system`` call is the child span ``solver.warm_start``;
      ``solver.disc_build``: ``Discretization`` construction (counts
      ``solver.disc_builds``); ``solver.assemble``: ``newton_system``
      (counts ``solver.newton_iters``); ``solver.residual``;
      ``solver.energy``; ``solver.gl_energy``; ``solver.linsolve``: the
      solver's ``splu`` and ``spsolve`` calls (counts
      ``solver.linsolve_calls`` and, for ``splu``, ``solver.warm_lu_nnz``).
    - ``analysis.windings``: ``triangle_windings`` and ``vertex_windings``;
      ``analysis.extract``: ``extract_singularities``;
      ``analysis.certify``: ``poincare_hopf_check``.
    - ``vtk.write``: ``write_field_vtk`` (counts ``vtk.output_bytes``).
    """
    from crossfield import analysis, frames, mesh, solver, vtk

    patches = []
    warm = []

    def wrap(func, name, before=None, after=None):
        @wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with tracer.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def function(func, name, **hooks):
        patches.extend(_replace_everywhere(func, wrap(func, name, **hooks)))

    def method(cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrap(original, name, **hooks))
        patches.append((cls, attr, original))

    def close_warm_start():
        if warm:
            tracer.end(warm.pop())

    newton_solve = solver.newton_solve

    @wraps(newton_solve)
    def traced_newton_solve(*args, **kwargs):
        with tracer.span("solver.newton"):
            warm.append(tracer.begin("solver.warm_start"))
            try:
                return newton_solve(*args, **kwargs)
            finally:
                close_warm_start()

    def newton_step(*args, **kwargs):
        close_warm_start()
        tracer.count("solver.newton_iters")

    def count(name):
        return lambda *args, **kwargs: tracer.count(name)

    def lu_fill(lu, *args, **kwargs):
        tracer.count("solver.warm_lu_nnz", lu.L.nnz + lu.U.nnz)

    try:
        patches.extend(_replace_everywhere(newton_solve, traced_newton_solve))
        function(mesh.load_mesh, "mesh.load",
                 before=lambda path, *a, **k: tracer.count(
                     "mesh.input_bytes", os.path.getsize(path)))
        function(mesh.topology_report, "mesh.topology")
        method(mesh.SurfaceMesh, "__init__", "mesh.topology")
        method(mesh._FacetMesh, "vertex_component_labels", "mesh.topology")
        function(frames.build_edge_frames, "frames.edge")
        function(frames.triangle_frames, "frames.triangle",
                 before=count("frames.triangle_calls"))
        method(solver.Discretization, "__init__", "solver.disc_build",
               before=count("solver.disc_builds"))
        method(solver.Discretization, "newton_system", "solver.assemble",
               before=newton_step)
        method(solver.Discretization, "residual", "solver.residual")
        method(solver.Discretization, "energy", "solver.energy")
        function(solver.gl_energy, "solver.gl_energy")
        function(solver.splu, "solver.linsolve",
                 before=count("solver.linsolve_calls"), after=lu_fill)
        function(solver.spsolve, "solver.linsolve",
                 before=count("solver.linsolve_calls"))
        function(analysis.triangle_windings, "analysis.windings")
        function(analysis.vertex_windings, "analysis.windings")
        function(analysis.extract_singularities, "analysis.extract")
        function(analysis.poincare_hopf_check, "analysis.certify")
        function(vtk.write_field_vtk, "vtk.write",
                 after=lambda result, path, *a, **k: tracer.count(
                     "vtk.output_bytes", os.path.getsize(path)))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
