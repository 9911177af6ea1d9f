"""Command-line entry points tying the library into reproducible runs.

Subcommands: ``topology``, ``audit``, ``solve``, ``sweep``, ``fekete``.
Exit codes: 0 success; 2 load or flag error; 3 inconsistent audit;
4 solver non-convergence or an exactly singular Newton system; 5 index-sum
certification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .analysis import (extract_singularities, poincare_hopf_check,
                       singularities_to_json, triangle_windings)
from .audit import audit
from .fekete import DEFAULT_SQUARE_HEIGHT, fekete_optimize, tilt_sweep
from .frames import build_edge_frames, triangle_frames
from .mesh import (InvalidMeshError, MeshLoadError, SurfaceMesh, load_mesh,
                   mean_edge_length, topology_report)
from .solver import (NewtonOptions, SingularFactorError, constraint_dofs,
                     gl_energy, newton_solve)
from .vtk import write_field_vtk

__all__ = ["main", "run_solve"]


def _dump(data):
    return json.dumps(data, indent=2, sort_keys=True)


def _cmd_topology(args):
    report = topology_report(load_mesh(args.mesh))
    print(_dump(report.to_dict()))
    return 0


def _cmd_audit(args):
    result = audit(load_mesh(args.mesh))
    print(_dump(result.to_dict()))
    return 0 if result.consistent else 3


def run_solve(mesh_path, symmetry=4, epsilon="auto", tol=1e-12, max_iter=100,
              seed=0, out_field=None, out_report=None):
    """Full pipeline: load, solve, extract singularities, certify, export.

    Returns ``(exit_code, report_dict)``; the report materialises every
    default so that it fully determines a rerun.
    """
    timings = {}
    t0 = time.perf_counter()
    mesh = load_mesh(mesh_path)
    if not isinstance(mesh, SurfaceMesh):
        raise MeshLoadError(f"{mesh_path}: solver requires a triangle mesh")
    topo = topology_report(mesh)
    timings["load"] = time.perf_counter() - t0

    options = NewtonOptions(tol=tol, max_iter=max_iter, epsilon=epsilon,
                            rng_seed=seed)
    t0 = time.perf_counter()
    edge_frames = build_edge_frames(mesh)
    field, log = newton_solve(mesh, edge_frames, order=symmetry, options=options)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tri_frames = triangle_frames(mesh, edge_frames, symmetry)
    windings, _ = triangle_windings(mesh, tri_frames, field)
    singularities = extract_singularities(mesh, tri_frames, field)
    ph = poincare_hopf_check(mesh, singularities, field)
    energy = gl_energy(mesh, edge_frames, field)
    timings["analysis"] = time.perf_counter() - t0

    _, _, pinned = constraint_dofs(mesh, options)
    report = {
        "input": str(mesh_path),
        "topology": topo.to_dict(),
        "options": {
            "symmetry": symmetry,
            "epsilon": field.epsilon,
            "epsilon_policy": "auto" if epsilon == "auto" else "explicit",
            "tol": tol,
            "max_iter": max_iter,
            "seed": seed,
            "warmup_rounds": options.warmup_rounds,
            "pinned_edge": None if pinned is None else [pinned[0], list(pinned[1])],
        },
        "mean_edge_length": mean_edge_length(mesh),
        "convergence": {
            "iterations": log.iterations,
            "converged": log.converged,
            "final_residual": log.residuals[-1] if log.residuals else None,
            "residuals": list(log.residuals),
        },
        "singularities": singularities_to_json(singularities),
        "poincare_hopf": ph.to_dict(),
        "energy": {
            "smoothing": energy.smoothing,
            "penalty": energy.penalty,
            "total": energy.total,
        },
        "timings": timings,
    }

    if out_field:
        write_field_vtk(out_field, mesh, edge_frames, field, windings)
    if out_report:
        with open(out_report, "w") as handle:
            handle.write(_dump(report) + "\n")

    if not log.converged:
        return 4, report
    if not ph.passed:
        return 5, report
    return 0, report


def _cmd_solve(args):
    if args.epsilon != "auto":
        try:
            args.epsilon = float(args.epsilon)
        except ValueError:
            print(f"error: bad --epsilon value {args.epsilon!r}", file=sys.stderr)
            return 2
    code, report = run_solve(
        args.mesh, symmetry=args.symmetry, epsilon=args.epsilon, tol=args.tol,
        max_iter=args.max_iter, seed=args.seed, out_field=args.out_field,
        out_report=args.out_report)
    print(_dump(report))
    return code


def _cmd_sweep(args):
    if args.samples < 2:
        print("error: --samples must be at least 2", file=sys.stderr)
        return 2
    angles = np.linspace(0.0, np.pi / 2.0, args.samples)
    rows = tilt_sweep(height=args.height, angles=angles)
    lines = ["angle,energy"] + [f"{a:.17g},{e:.17g}" for a, e in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_fekete(args):
    if args.count < 2:
        print("error: --count must be at least 2", file=sys.stderr)
        return 2
    config = fekete_optimize(args.count, seed=args.seed)
    from .fekete import log_interaction_energy
    payload = {
        "count": args.count,
        "seed": args.seed,
        "energy": log_interaction_energy(config),
        "points": [[float(c) for c in p] for p in config.points],
    }
    text = _dump(payload)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crossfield",
        description="N-fold symmetric direction fields on triangulated surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="Euler characteristic, genus, boundary loops")
    p.add_argument("mesh")
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("audit", help="irregular-vertex index audit")
    p.add_argument("mesh")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("solve", help="compute a direction field and its singularities")
    p.add_argument("--mesh", required=True)
    p.add_argument("--symmetry", type=int, default=4)
    p.add_argument("--epsilon", default="auto",
                   help="coherence length, or 'auto' for twice the mean edge length")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-field", default=None, metavar="PATH.vtk")
    p.add_argument("--out-report", default=None, metavar="PATH.json")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="two-square tilt sweep of the interaction energy")
    p.add_argument("--samples", type=int, default=91)
    p.add_argument("--height", type=float, default=DEFAULT_SQUARE_HEIGHT)
    p.add_argument("--out", default=None, metavar="PATH.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fekete", help="minimise the logarithmic energy on the sphere")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH.json")
    p.set_defaults(func=_cmd_fekete)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        return args.func(args)
    except (MeshLoadError, InvalidMeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularFactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
