"""Output check applied to every benchmark solve.

A solve *fails* when it does not deliver the expected certified field: a
non-zero exit code, a final residual above ``tol``, a failed Poincare-Hopf
certification, or singularities other than the expected set.  A solve is
*wrong* when its outputs contradict each other or the exit code: success
claimed for a failing field, a report file that differs from the returned
report, an exit code that does not match the report, or a VTK file that does
not describe the mesh.  An honest failure (exit 4 with ``converged: false``)
is failed but not wrong.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.failures or self.errors)


def singularity_signature(report):
    """Multiset of singularity indices in a report, as ``{Fraction: count}``."""
    return Counter(Fraction(s["index"]["num"], s["index"]["den"])
                   for s in report["singularities"])


def _vtk_errors(vtk_path, n_edges, n_triangles):
    try:
        with open(vtk_path) as fh:
            text = fh.read()
    except OSError as exc:
        return [f"VTK file unreadable: {exc}"]
    lines = text.splitlines()
    errors = []
    if not lines or not lines[0].startswith("# vtk DataFile"):
        errors.append("VTK file has no legacy VTK header")
    heads = {tuple(line.split()[:2]) for line in lines if line[:1].isalpha()}
    for key, count in (("POINTS", n_edges), ("CELLS", n_triangles),
                       ("CELL_TYPES", n_triangles), ("POINT_DATA", n_edges),
                       ("CELL_DATA", n_triangles)):
        if (key, str(count)) not in heads:
            errors.append(f"VTK file lacks '{key} {count}'")
    return errors


def check_solve(code, report, report_path, vtk_path, *, expected, tol,
                max_iter, n_edges, n_triangles):
    """Judge one ``run_solve`` result.

    ``expected`` is the singularity signature the workload must produce
    (``{}`` for a boundary-aligned field with no interior singularity).
    """
    verdict = Verdict()
    conv = report["convergence"]
    passed = report["poincare_hopf"]["pass"]
    residual = conv["final_residual"]

    if code != 0:
        verdict.failures.append(f"exit code {code}")
    if residual is None or residual > tol:
        verdict.failures.append(f"final residual {residual} above tol {tol}")
    if not passed:
        verdict.failures.append("Poincare-Hopf certification failed")
    signature = singularity_signature(report)
    if signature != Counter(expected):
        found = ", ".join(f"{n}x{q}" for q, n in sorted(signature.items()))
        verdict.failures.append(f"singularities {found or 'none'}")

    claimed = {0: conv["converged"] and passed,
               4: not conv["converged"],
               5: conv["converged"] and not passed}
    if not claimed.get(code, False):
        verdict.errors.append(
            f"exit code {code} contradicts converged={conv['converged']}, "
            f"certified={passed}")
    if code == 0 and verdict.failures:
        verdict.errors.append("success reported for a failing field")
    if conv["converged"] and (residual is None or residual > tol):
        verdict.errors.append("converged reported above tol")
    if not conv["converged"] and conv["iterations"] != max_iter:
        verdict.errors.append(
            f"stopped unconverged after {conv['iterations']} of {max_iter} steps")
    try:
        with open(report_path) as fh:
            written = json.load(fh)
    except (OSError, ValueError) as exc:
        verdict.errors.append(f"report file unreadable: {exc}")
    else:
        for key in ("convergence", "singularities", "poincare_hopf"):
            if written.get(key) != report[key]:
                verdict.errors.append(f"report file differs in {key!r}")
    verdict.errors.extend(_vtk_errors(vtk_path, n_edges, n_triangles))
    return verdict
