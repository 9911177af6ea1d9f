"""Smooth N-fold symmetric direction fields on triangulated surfaces.

Cross fields (order 4) and asterisk fields (order 6) are computed by
minimising a two-term energy, a smoothing term plus a penalty holding the
representation vector near unit norm, discretised with edge-midpoint
nonconforming elements.  The package also extracts the field's critical
points, certifies their index sum against the Euler characteristic, and
provides logarithmic-energy point configurations on the sphere as an
independent placement oracle.
"""

from . import analysis, audit, fekete, frames, mesh, solver, vtk

__version__ = "0.1.0"

# set before the star imports: ``from .audit import *`` rebinds ``audit`` to
# the function of that name
__all__ = [name for module in (analysis, audit, fekete, frames, mesh, solver, vtk)
           for name in module.__all__] + ["__version__"]

from .analysis import *  # noqa: E402,F403
from .audit import *  # noqa: E402,F403
from .fekete import *  # noqa: E402,F403
from .frames import *  # noqa: E402,F403
from .mesh import *  # noqa: E402,F403
from .solver import *  # noqa: E402,F403
from .vtk import *  # noqa: E402,F403
