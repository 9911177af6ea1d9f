"""Smooth N-fold symmetric direction fields on triangulated surfaces.

Cross fields (order 4) and asterisk fields (order 6) are computed by
minimising a two-term energy, a smoothing term plus a penalty holding the
representation vector near unit norm, discretised with edge-midpoint
nonconforming elements.  The package also extracts the field's critical
points, certifies their index sum against the Euler characteristic, and
provides logarithmic-energy point configurations on the sphere as an
independent placement oracle.
"""

from .analysis import (PoincareHopfReport, Singularity, edge_angles,
                       extract_singularities, poincare_hopf_check,
                       singularities_to_json, triangle_windings,
                       vertex_windings, winding_total)
from .audit import IndexAudit, IrregularVertex, audit, regular_mesh_feasible
from .fekete import (DEFAULT_SQUARE_HEIGHT, PointConfiguration,
                     align_point_sets, fekete_optimize,
                     log_interaction_energy, tilt_sweep,
                     two_square_configuration)
from .frames import (EdgeFrames, TriangleFrames, build_edge_frames,
                     triangle_frames)
from .mesh import (InvalidMeshError, MeshLoadError, QuadMesh, SurfaceMesh,
                   TopologyReport, boundary_loops, load_mesh,
                   mean_edge_length, topology_report)
from .solver import (CR_GRADIENTS, TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS,
                     ConvergenceLog, Discretization, EnergyBreakdown,
                     FieldSolution, NewtonOptions, SingularFactorError,
                     constraint_dofs, cr_shapes, gl_energy, gl_residual,
                     newton_solve)
from .vtk import write_field_vtk

__version__ = "0.1.0"

__all__ = [
    "CR_GRADIENTS",
    "ConvergenceLog",
    "DEFAULT_SQUARE_HEIGHT",
    "Discretization",
    "EdgeFrames",
    "EnergyBreakdown",
    "FieldSolution",
    "IndexAudit",
    "InvalidMeshError",
    "IrregularVertex",
    "MeshLoadError",
    "NewtonOptions",
    "PoincareHopfReport",
    "PointConfiguration",
    "QuadMesh",
    "SingularFactorError",
    "Singularity",
    "SurfaceMesh",
    "TRI_QUAD_POINTS",
    "TRI_QUAD_WEIGHTS",
    "TopologyReport",
    "TriangleFrames",
    "align_point_sets",
    "audit",
    "boundary_loops",
    "build_edge_frames",
    "constraint_dofs",
    "cr_shapes",
    "edge_angles",
    "extract_singularities",
    "fekete_optimize",
    "gl_energy",
    "gl_residual",
    "load_mesh",
    "log_interaction_energy",
    "mean_edge_length",
    "newton_solve",
    "poincare_hopf_check",
    "regular_mesh_feasible",
    "singularities_to_json",
    "tilt_sweep",
    "topology_report",
    "triangle_frames",
    "triangle_windings",
    "two_square_configuration",
    "vertex_windings",
    "winding_total",
    "write_field_vtk",
    "__version__",
]
