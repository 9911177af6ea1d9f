"""Record, outside any timed loop, how each workload's solve behaves per
pinned-edge seed, plus the 6000-point scale probe.

Usage (from the repository root; about three minutes on two cores)::

    python3 perfbench/record.py

Writes ``perfbench/records.json``: for every workload, the meshes of
``--seed`` 0 to 3, each solved with every pinned-edge seed of the timed
panel (iterations, exit code, final residual, wall time, check result), and
one cross-field solve on a 6000-point golden-spiral sphere (11,996
triangles), which is a record of the solver at scale and not a workload.
"""

import json
import os
import platform
import sys
from fractions import Fraction

import numpy
import scipy

import run as bench

OUT = bench.HERE / "records.json"
PROBE = bench.Workload("sphere", 6000, "off", 4, 0.1, {Fraction(1, 4): 8})


def grid(cli, name, spec, mesh_seeds, pins):
    workdir = bench.WORK / f"record-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    mesh_path = workdir / f"mesh.{spec.suffix}"
    rows = []
    for seed in mesh_seeds:
        n_edges, n_tri = spec.generate(seed, mesh_path)
        for pin in pins:
            row = bench.solve_once(cli, spec, mesh_path, workdir, pin,
                                   (n_edges, n_tri))
            rows.append({"mesh_seed": seed, **row})
            print(name, f"seed {seed}", bench.describe(row), flush=True)
    return {"triangles": n_tri, "edges": n_edges, "dofs": 2 * n_edges,
            "order": spec.order, "epsilon": spec.epsilon, "rows": rows}


def main():
    cli = bench.import_package()
    record = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "tol": bench.TOL, "max_iter": bench.MAX_ITER,
        "workloads": {name: grid(cli, name, spec, range(4), bench.PIN_SEEDS)
                      for name, spec in bench.WORKLOADS.items()},
        "scale_probe": grid(cli, "sphere-cross-12k-probe", PROBE, (0,), (0,)),
    }
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
