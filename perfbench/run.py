"""Benchmark of the ``crossfield solve`` pipeline: mesh file to VTK and report.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sphere-cross-3k --seed 0 --seconds 10 --trace 0

Each run generates its workload's mesh from ``--seed`` (a random rigid
rotation of a fixed triangulation), writes it in the workload's file format,
and times ``crossfield.cli.run_solve`` on it, writing VTK and JSON output.
The solves cycle through the pinned-edge seeds ``PIN_SEEDS``, whole panels
at a time, until ``--seconds`` have passed; every solve's outputs are
checked (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics: ``solve_s`` (median time of
one ``run_solve`` call), ``setup_s`` (median time for a fresh interpreter to
``import crossfield``) and ``peak_rss_mb`` (peak resident memory of this
process).  The shared host's speed drifts by tens of percent within a
minute, so each timed solve and import is bracketed by rounds of fixed
reference work (``calibrate.py``) and reported in seconds at the reference
speed; the raw wall times are printed next to them.  ``--trace 1`` pairs
every untraced solve with a traced one and prints the per-layer metrics:
each layer's self time and counts per traced solve (means over the traced
solves, so that they add up to the traced solve time), and the tracing
overhead.  Failed solves are reported as
``failed`` out of ``attempted``; the text lines above the result give them
as ``failed_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All files are
written under ``.perfbench_work/`` in the repository root; a run keeps its
per-solve rows (``rows.json``), last report and spans (``trace.json``) and
deletes its mesh and VTK files.
"""

from __future__ import annotations

import os

# One thread per process: BLAS thread pools on a few shared cores measure
# the scheduler, not the program.  Set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import meshgen  # noqa: E402
import tracing  # noqa: E402

TOL = 1e-12
MAX_ITER = 100
#: Pinned-edge seeds of one timed panel.  On closed surfaces the pinned edge
#: changes the Newton path (23 to 100 steps on the cross sphere), so every
#: run times the same panel and the run seed moves only the coordinates.
PIN_SEEDS = (0, 1, 2, 3)
SETUP_SAMPLES = 5
#: Rounds of reference work run before each timed solve or import and once
#: more after the last.
REFERENCE_ROUNDS = 3

IMPORT_TIMER = ("import time; t = time.perf_counter(); import crossfield; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Workload:
    mesh: str
    size: int
    suffix: str
    order: int
    epsilon: float
    expected: dict

    def generate(self, seed, path):
        if self.mesh == "sphere":
            verts, tris = meshgen.golden_spiral_sphere(self.size)
        else:
            verts, tris = meshgen.lshape(self.size)
        verts = meshgen.rotated(verts, seed)
        write = meshgen.write_off if self.suffix == "off" else meshgen.write_msh22
        write(path, verts, tris)
        n_edges = len(verts) + len(tris) - (2 if self.mesh == "sphere" else 1)
        return n_edges, len(tris)


WORKLOADS = {
    "sphere-cross-3k": Workload("sphere", 1482, "off", 4, 0.1,
                                {Fraction(1, 4): 8}),
    "sphere-asterisk-3k": Workload("sphere", 1482, "off", 6, 0.1,
                                   {Fraction(1, 6): 12}),
    "lshape-aligned-14k": Workload("lshape", 48, "msh", 4, 0.2, {}),
}

#: Per-layer metrics of a traced run, in reporting order.
LAYER_TIMES = [
    "mesh.load", "mesh.topology", "frames.edge", "frames.triangle",
    "solver.disc_build", "solver.warm_start", "solver.gl_energy",
    "solver.linsolve", "solver.assemble", "solver.residual", "solver.energy",
    "solver.newton", "analysis.windings", "analysis.extract",
    "analysis.certify", "vtk.write", "cli",
]
LAYER_COUNTS = [
    "mesh.input_bytes", "frames.triangle_calls", "solver.disc_builds",
    "solver.linsolve_calls", "solver.warm_lu_nnz", "solver.newton_iters",
    "vtk.output_bytes",
]


def layer_metric(name):
    return "cli.self_s" if name == "cli" else f"{name}_s"


class Bracketed:
    """Timings taken between rounds of reference work.

    ``measure(f)`` runs ``REFERENCE_ROUNDS`` reference rounds and then
    ``f()``, which returns a time; ``close()`` runs the final rounds.  The
    scaled median is the median time divided by the median reference round
    of the same stretch, times ``calibrate.REFERENCE_S``: seconds at the
    reference speed, so that the host's drift cancels.  The host's speed
    changes within seconds, so the whole stretch's rounds estimate its speed
    during a long solve better than the few rounds next to that solve.
    """

    def __init__(self, reference):
        self.reference = reference
        self.times = []
        self.rounds = []

    def _rounds(self):
        self.rounds.append([self.reference.seconds()
                            for _ in range(REFERENCE_ROUNDS)])

    def measure(self, f):
        self._rounds()
        self.times.append(f())

    def close(self):
        self._rounds()

    def reference_median(self):
        return statistics.median(r for gap in self.rounds for r in gap)

    def scale(self):
        """Factor from wall seconds to seconds at the reference speed."""
        return calibrate.REFERENCE_S / self.reference_median()

    def scaled_median(self):
        return statistics.median(self.times) * self.scale()


def measure_setup(samples, reference):
    """Seconds for a fresh interpreter to import the package, bracketed by
    reference work, one interpreter at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def fresh_import():
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        return float(out.stdout)

    setup = Bracketed(reference)
    for _ in range(samples):
        setup.measure(fresh_import)
    setup.close()
    return setup


def import_package():
    if not (SRC / "crossfield" / "__init__.py").is_file():
        raise SystemExit(f"error: no crossfield package under {SRC}")
    sys.path.insert(0, str(SRC))
    import crossfield.cli
    if not Path(crossfield.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: crossfield imported from outside {SRC}")
    return crossfield.cli


def warm_up(cli, workdir):
    """One small solve so lazy imports and first-call costs are paid."""
    verts, tris = meshgen.golden_spiral_sphere(92)
    path = workdir / "warmup.off"
    meshgen.write_off(path, verts, tris)
    cli.run_solve(str(path), out_field=str(workdir / "warmup.vtk"),
                  out_report=str(workdir / "warmup.json"))


def solve_once(cli, spec, mesh_path, workdir, pin, counts, around=nullcontext):
    """Time one ``run_solve`` (inside the context ``around()``) and check
    its outputs; returns a row."""
    vtk_path = workdir / "field.vtk"
    report_path = workdir / "report.json"
    for stale in (vtk_path, report_path):
        stale.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        with around():
            code, report = cli.run_solve(
                str(mesh_path), symmetry=spec.order, epsilon=spec.epsilon,
                tol=TOL, max_iter=MAX_ITER, seed=pin, out_field=str(vtk_path),
                out_report=str(report_path))
    except Exception:  # a crash is a failed and wrong solve, not a stop
        elapsed = time.perf_counter() - t0
        return {"pin": pin, "seconds": elapsed, "exit": None, "failures": [],
                "errors": [traceback.format_exc(limit=3)]}
    elapsed = time.perf_counter() - t0
    verdict = checks.check_solve(
        code, report, report_path, vtk_path, expected=spec.expected, tol=TOL,
        max_iter=MAX_ITER, n_edges=counts[0], n_triangles=counts[1])
    conv = report["convergence"]
    return {"pin": pin, "seconds": elapsed, "exit": code,
            "iterations": conv["iterations"],
            "final_residual": conv["final_residual"],
            "singularities": len(report["singularities"]),
            "failures": verdict.failures, "errors": verdict.errors}


def describe(row):
    status = "ok"
    if row["errors"]:
        status = "WRONG: " + "; ".join(row["errors"])
    elif row["failures"]:
        status = "FAILED: " + "; ".join(row["failures"])
    if row["exit"] is None:
        return f"  pin {row['pin']}: crashed after {row['seconds']:.3f} s  {status}"
    return (f"  pin {row['pin']}: exit {row['exit']}, {row['iterations']} steps, "
            f"residual {row['final_residual']:.3g}, {row['singularities']} "
            f"singularities, {row['seconds']:.3f} s  {status}")


def timed_panels(seconds, solve):
    """Run whole panels of pinned-edge seeds until ``seconds`` have passed."""
    start = time.perf_counter()
    while True:
        for pin in PIN_SEEDS:
            solve(pin)
        if time.perf_counter() - start >= seconds:
            return


def run(args):
    spec = WORKLOADS[args.workload]
    cli = import_package()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    mesh_path = workdir / f"mesh.{spec.suffix}"
    counts = spec.generate(args.seed, mesh_path)
    print(f"workload {args.workload}  seed {args.seed}  triangles {counts[1]}  "
          f"edges {counts[0]}  dofs {2 * counts[0]}  N={spec.order}  "
          f"eps={spec.epsilon}")

    metrics = {}
    reference = calibrate.Reference()
    reference.work()
    warm_up(cli, workdir)
    if not args.trace:  # after import_package has written the bytecode cache
        setup = measure_setup(SETUP_SAMPLES, reference)

    rows, traced = [], []
    tracer = tracing.Tracer()
    solves = Bracketed(reference)

    def solve_row(pin):
        rows.append(solve_once(cli, spec, mesh_path, workdir, pin, counts))
        return rows[-1]["seconds"]

    def untraced(pin):
        solves.measure(lambda: solve_row(pin))
        print(describe(rows[-1]), flush=True)

    def paired(pin):
        untraced(pin)
        tracer.run += 1
        with tracing.instrument(tracer):
            row = solve_once(cli, spec, mesh_path, workdir, pin, counts,
                             around=lambda: tracer.span("cli"))
        row["traced"] = True
        rows.append(row)
        traced.append(row)
        print(describe(row) + "  (traced)", flush=True)

    timed_panels(args.seconds, paired if args.trace else untraced)
    solves.close()
    for bulky in workdir.glob("*.vtk"):  # keep the work directory small
        bulky.unlink()
    mesh_path.unlink()

    failed = sum(bool(r["failures"] or r["errors"]) for r in rows)
    wrong = sum(bool(r["errors"]) for r in rows)
    with open(workdir / "rows.json", "w") as fh:
        json.dump(rows, fh, indent=1)

    if args.trace:
        tracer.write(workdir / "trace.json")
        metrics.update(layer_metrics(tracer, rows, traced))
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        solve_s = report_time("solve_s", solves, "solves")
        setup_s = report_time("setup_s", setup, "fresh imports")
        metrics["solve_s"] = {"value": solve_s, "unit": "s"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        print(f"peak_rss_mb  {rss:.1f} MB  1 sample (this process)")
        for what, timed in (("solves", solves), ("imports", setup)):
            print(f"reference    {timed.reference_median():.4f} s   median of "
                  f"{sum(map(len, timed.rounds))} rounds around the {what} "
                  f"({calibrate.REFERENCE_S} s at the reference speed)")
    print(f"failed_frac  {failed / len(rows):.4f}     {failed} of {len(rows)} "
          f"solves failed the output check ({wrong} wrong)")
    print(json.dumps({"correct": wrong == 0, "attempted": len(rows),
                      "failed": failed, "metrics": metrics}))
    return 0


def report_time(name, bracketed, what):
    """Print a timing's median at the reference speed, its quartiles and
    maximum at the same scale, and the raw wall median; returns the first."""
    raw, scale = bracketed.times, bracketed.scale()
    q1, _, q3 = statistics.quantiles(raw, n=4)
    print(f"{name:<12} {bracketed.scaled_median():.4f} s   median of "
          f"{len(raw)} {what} at the reference speed (quartiles "
          f"{q1 * scale:.4f} .. {q3 * scale:.4f}, max {max(raw) * scale:.4f}"
          f"); wall median {statistics.median(raw):.4f} s")
    return bracketed.scaled_median()


def layer_metrics(tracer, rows, traced):
    """Per-layer means over the traced solves, and the tracing overhead."""
    n = len(traced)
    selfs = tracing.layer_self_times(tracer.spans)
    metrics = {}
    total = 0.0
    wall = statistics.fmean(r["seconds"] for r in traced)
    print(f"{'layer':<22}{'self s/solve':>14}{'share':>8}")
    for name in LAYER_TIMES:
        value = sum(per_run[name] for per_run in selfs.values()) / n
        total += value
        metrics[layer_metric(name)] = {"value": value, "unit": "s"}
        print(f"{layer_metric(name):<22}{value:>14.5f}{value / wall:>8.1%}")
    unknown = {name for per_run in selfs.values() for name in per_run}
    unknown -= set(LAYER_TIMES)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    print(f"{'remainder':<22}{wall - total:>14.5f}{(wall - total) / wall:>8.1%}"
          f"   traced solve {wall:.5f} s, mean of {n}")
    for name in LAYER_COUNTS:
        value = sum(per_run[name] for per_run in tracer.counts.values()) / n
        metrics[name] = {"value": value, "unit": "bytes" if name.endswith("bytes")
                         else "count"}
        print(f"{name:<22}{value:>14.1f}")
    plain = statistics.fmean(r["seconds"] for r in rows if not r.get("traced"))
    metrics["trace.solve_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - plain, "unit": "s"}
    print(f"trace.overhead_s {wall - plain:.5f} s (traced mean {wall:.5f} s, "
          f"untraced mean {plain:.5f} s)")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
