"""Edge-based nonconforming finite elements for the Ginzburg-Landau energy.

The unknown is the representation vector ``(f1, f2) = (cos(N*theta),
sin(N*theta))`` of an N-fold symmetric direction field, stored once per
mesh edge in that edge's own tangent frame.  Interpolation uses the
nonconforming linear triangle element with degrees of freedom at edge
midpoints, whose shape functions on the reference triangle
``{xi in [0,1], eta in [0,1-xi]}`` are::

    w1 = 1 - 2*eta,   w2 = 2*(xi + eta) - 1,   w3 = 1 - 2*xi

The discrete energy splits into a smoothing term, ``1/2 * integral of
|grad f1|^2 + |grad f2|^2``, and a penalty term,
``1/(4 eps^2) * integral of (f1^2 + f2^2 - 1)^2``, evaluated trianglewise
after rotating the three edge values into a shared element frame.  Each
triangle is treated as its own flat 2-d chart; the quadrature rule is a
symmetric 6-point rule exact through polynomial degree 4, which covers all
integrands exactly.

The nonlinear solve starts from the smoothing-only solution, sharpened by
a few smooth-and-renormalise sweeps that let the vortex structure settle,
and then iterates Newton steps built from the exact second derivative of
the energy.  Each step factors the symmetric free-dof Hessian once, with a
symmetric fill-reducing ordering and pivots taken on the diagonal, and a
step larger than ``STEP_CAP`` in any component is scaled down to it;
convergence is declared on the 2-norm of the exact energy gradient, never
on the linearised residual, so a converged field is a genuine stationary
point of the functional.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu
from scipy.sparse.linalg import spsolve  # unused here; perfbench/tracing.py wraps it

from .frames import EdgeFrames, triangle_frames
from .mesh import InvalidMeshError, SurfaceMesh, mean_edge_length

logger = logging.getLogger(__name__)

__all__ = [
    "CR_GRADIENTS",
    "TRI_QUAD_POINTS",
    "TRI_QUAD_WEIGHTS",
    "cr_shapes",
    "FieldSolution",
    "NewtonOptions",
    "SingularFactorError",
    "ConvergenceLog",
    "EnergyBreakdown",
    "Discretization",
    "constraint_dofs",
    "newton_solve",
    "gl_energy",
    "gl_residual",
]

#: Constant reference-triangle gradients of the three shape functions.
CR_GRADIENTS = np.array([[0.0, -2.0], [2.0, 2.0], [-2.0, 0.0]])

# Symmetric 6-point triangle rule, exact through polynomial degree 4.
# Weights are normalised to sum to 1; integrals are weight-sums times the
# element area.
_A = 0.445948490915965
_B = 0.091576213509771
TRI_QUAD_POINTS = np.array([
    [_A, 1.0 - 2.0 * _A],
    [1.0 - 2.0 * _A, _A],
    [_A, _A],
    [_B, 1.0 - 2.0 * _B],
    [1.0 - 2.0 * _B, _B],
    [_B, _B],
])
TRI_QUAD_WEIGHTS = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

#: Largest Newton step, in the infinity norm, applied at once; a longer step
#: is scaled down to it.  The unknowns are unit representation vectors, so a
#: larger change in any component leaves the field's own range.
STEP_CAP = 1.0


def cr_shapes(xi, eta):
    """Evaluate the three edge-midpoint shape functions at ``(xi, eta)``.

    Each function equals 1 along its own edge and -1 at the opposite
    vertex; the three values sum to 1 everywhere.  Accepts scalars or
    arrays and returns the values stacked along the last axis.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return np.stack([1.0 - 2.0 * eta, 2.0 * (xi + eta) - 1.0, 1.0 - 2.0 * xi],
                    axis=-1)


@dataclass
class FieldSolution:
    """Per-edge representation vector of an ``order``-fold direction field.

    ``values[p]`` holds ``(f1, f2)`` expressed in edge ``p``'s frame;
    ``epsilon`` is the coherence length the field was computed with.
    """

    order: int
    values: np.ndarray
    epsilon: float

    def norms(self):
        return np.linalg.norm(self.values, axis=1)


@dataclass
class NewtonOptions:
    """Controls for the nonlinear solve.

    ``epsilon`` is either a positive number or ``"auto"`` (twice the mean
    edge length).  On closed surfaces one edge must be held fixed to pin
    the otherwise free global phase; ``pinned_edge`` supplies it as
    ``(edge_id, (f1, f2))``, or an edge is drawn reproducibly from
    ``rng_seed``.  ``warmup_rounds`` smooth-and-renormalise sweeps refine
    the starting field before the Newton iteration proper.
    """

    tol: float = 1e-12
    max_iter: int = 100
    epsilon: float | str = "auto"
    pinned_edge: Optional[tuple[int, tuple[float, float]]] = None
    rng_seed: int = 0
    warmup_rounds: int = 10

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.epsilon != "auto":
            eps = float(self.epsilon)
            square = eps * eps
            if not (eps > 0 and 0.0 < square < np.inf
                    and 1.0 / square < np.inf):
                raise ValueError("epsilon must be 'auto' or positive, with "
                                 f"eps**2 and 1/eps**2 finite; got {eps!r}")
        if self.warmup_rounds < 0:
            raise ValueError("warmup_rounds must be non-negative")

    def resolve_epsilon(self, mesh):
        if self.epsilon == "auto":
            return 2.0 * mean_edge_length(mesh)
        return float(self.epsilon)


@dataclass(frozen=True)
class ConvergenceLog:
    """Residual history of a nonlinear solve; one entry per linear sweep."""

    residuals: tuple[float, ...]
    converged: bool

    @property
    def iterations(self):
        return len(self.residuals)


class SingularFactorError(RuntimeError):
    """The free-dof system of a solve has an exactly zero pivot."""


class EnergyBreakdown(NamedTuple):
    smoothing: float
    penalty: float
    total: float


class Discretization:
    """Precomputed element geometry, transport, and assembly indices.

    Builds the per-triangle 2-d charts, constant shape-function gradients,
    stiffness blocks, transport phases, and the scatter indices used to
    assemble global systems over the ``2 * n_edges`` unknowns laid out as
    ``[all f1, all f2]``.  Energy, gradient and Hessian all evaluate the
    field at the quadrature points through one kernel, ``_quadrature``.
    """

    def __init__(self, mesh: SurfaceMesh, edge_frames: EdgeFrames, order: int = 4):
        self.mesh = mesh
        self.edge_frames = edge_frames
        self.order = order
        self.tri_frames = triangle_frames(mesh, edge_frames, order)

        p = mesh.vertices[mesh.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        normal = np.cross(e1, e2)
        two_area = np.linalg.norm(normal, axis=1)
        self.areas = 0.5 * two_area
        u = e1 / np.linalg.norm(e1, axis=1)[:, None]
        n_hat = normal / two_area[:, None]
        v = np.cross(n_hat, u)
        q1x = np.linalg.norm(e1, axis=1)
        q2x = (e2 * u).sum(axis=1)
        q2y = (e2 * v).sum(axis=1)
        det = q1x * q2y
        inv_t = np.zeros((len(p), 2, 2))
        inv_t[:, 0, 0] = q2y / det
        inv_t[:, 1, 0] = -q2x / det
        inv_t[:, 1, 1] = q1x / det
        gradients = np.einsum("tab,mb->tma", inv_t, CR_GRADIENTS)
        self.stiffness_blocks = self.areas[:, None, None] * np.einsum(
            "tma,tna->tmn", gradients, gradients)

        self.shape_table = cr_shapes(TRI_QUAD_POINTS[:, 0], TRI_QUAD_POINTS[:, 1])

        n_e = mesh.n_edges
        self.n_dofs = 2 * n_e
        self.tri_dofs = np.concatenate(
            [mesh.facet_edges, mesh.facet_edges + n_e], axis=1)
        self._rows = np.repeat(self.tri_dofs, 6, axis=1).ravel()
        self._cols = np.tile(self.tri_dofs, (1, 6)).ravel()
        self.stiffness = self._matrix(self.stiffness_blocks, 0.0,
                                      self.stiffness_blocks)

    # -- helpers ----------------------------------------------------------

    def vector_from_values(self, values):
        return np.concatenate([values[:, 0], values[:, 1]])

    def values_from_vector(self, x):
        n_e = self.mesh.n_edges
        return np.stack([x[:n_e], x[n_e:]], axis=1)

    def _quadrature(self, x, epsilon):
        """The field ``x`` per triangle: its components ``(g1, g2)`` in the
        shared element frames, ``f1`` and ``f2`` at the quadrature points,
        and the quadrature weights ``area * w / eps^2``."""
        edges = self.mesh.facet_edges
        g1, g2 = self.tri_frames.to_shared(x[edges], x[edges + self.mesh.n_edges])
        f1 = np.einsum("tm,qm->tq", g1, self.shape_table)
        f2 = np.einsum("tm,qm->tq", g2, self.shape_table)
        aw = (self.areas[:, None] / epsilon**2) * TRI_QUAD_WEIGHTS[None, :]
        return (g1, g2), f1, f2, aw

    def _scatter(self, out, v1, v2):
        """Integrate the weighted pointwise values ``v1`` (f1 rows) and
        ``v2`` (f2 rows) against the shape functions, rotate the element
        vectors back to edge frames and add them into ``out``."""
        h1, h2 = self.tri_frames.to_edges(
            np.einsum("tq,qm->tm", v1, self.shape_table),
            np.einsum("tq,qm->tm", v2, self.shape_table))
        np.add.at(out, self.tri_dofs, np.concatenate([h1, h2], axis=1))
        return out

    def _matrix(self, p, q, v):
        """Assemble the global CSR matrix of the shared-frame element
        blocks ``[[p, q], [q, v]]`` rotated to edge frames."""
        k = self.tri_frames.blocks_to_edges(p, q, v)
        return coo_matrix((k.ravel(), (self._rows, self._cols)),
                          shape=(self.n_dofs, self.n_dofs)).tocsr()

    def newton_system(self, x, epsilon):
        """Assembled Newton system ``(K, B)`` about the field ``x``.

        ``K`` is the energy Hessian (stiffness plus the pointwise penalty
        curvature ``(|F|^2-1) I + 2 F F^T`` over ``eps^2``) and ``B`` equals
        ``K x`` minus the energy gradient, so one solve performs a full
        Newton step.
        """
        _, f1, f2, aw = self._quadrature(x, epsilon)

        def mass(rho):
            return np.einsum("tq,qm,qn->tmn", aw * rho, self.shape_table,
                             self.shape_table)

        stiff = self.stiffness_blocks
        norm2 = f1 * f1 + f2 * f2
        rhs = self._scatter(np.zeros(self.n_dofs), aw * 2.0 * f1 * norm2,
                            aw * 2.0 * f2 * norm2)
        return self._matrix(stiff + mass(3.0 * f1 * f1 + f2 * f2 - 1.0),
                            2.0 * mass(f1 * f2),
                            stiff + mass(f1 * f1 + 3.0 * f2 * f2 - 1.0)), rhs

    def lumped_mass(self):
        """Diagonal of the lumped mass matrix, one entry per dof (the
        mass matrix of these elements is exactly diagonal: a third of the
        adjacent triangle areas per edge)."""
        lump = np.zeros(self.mesh.n_edges)
        np.add.at(lump, self.mesh.facet_edges.ravel(),
                  np.repeat(self.areas / 3.0, 3))
        return np.concatenate([lump, lump])

    def residual(self, x, epsilon):
        """Exact gradient of the discrete energy with respect to ``x``."""
        _, f1, f2, aw = self._quadrature(x, epsilon)
        deficit = f1 * f1 + f2 * f2 - 1.0
        return self._scatter(self.stiffness @ x, aw * deficit * f1,
                             aw * deficit * f2)

    def energy(self, x, epsilon):
        """Smoothing and penalty parts of the discrete energy at ``x``."""
        (g1, g2), f1, f2, _ = self._quadrature(x, epsilon)
        smoothing = 0.5 * (
            np.einsum("tm,tmn,tn->", g1, self.stiffness_blocks, g1)
            + np.einsum("tm,tmn,tn->", g2, self.stiffness_blocks, g2))
        deficit = f1 * f1 + f2 * f2 - 1.0
        penalty = float(np.einsum(
            "t,q,tq->", self.areas / (4.0 * epsilon**2), TRI_QUAD_WEIGHTS,
            deficit**2))
        return EnergyBreakdown(float(smoothing), penalty,
                               float(smoothing) + penalty)


def constraint_dofs(mesh, options=None):
    """Constrained-dof mask, values, and the pinned edge actually used.

    Boundary edges are aligned (``(1, 0)`` in their own frames); on closed
    surfaces one edge is pinned, drawn reproducibly from the options seed
    unless given explicitly.  The mask and values are laid out like the
    solution vector, ``[all f1, all f2]``.
    """
    options = options or NewtonOptions()
    n_e = mesh.n_edges
    mask = np.zeros(2 * n_e, dtype=bool)
    values = np.zeros(2 * n_e)
    boundary = np.flatnonzero(mesh.boundary_edge)
    mask[boundary] = True
    mask[boundary + n_e] = True
    values[boundary] = 1.0

    pinned = options.pinned_edge
    if pinned is None and len(boundary) == 0:
        rng = np.random.default_rng(options.rng_seed)
        pinned = (int(rng.integers(n_e)), (1.0, 0.0))
    if pinned is not None:
        edge, (v1, v2) = pinned
        if not 0 <= edge < n_e:
            raise ValueError(f"pinned edge {edge} out of range")
        mask[edge] = True
        mask[edge + n_e] = True
        values[edge] = v1
        values[edge + n_e] = v2
    if not mask.any():
        raise InvalidMeshError(
            "no constraints: mesh has no boundary and no edge was pinned")
    return mask, values, pinned


def _factor_free(matrix, mask, values):
    """LU factors of the free/free block of the symmetric ``matrix`` and the
    constrained values' contribution ``K_fc @ values_c``, which moves to the
    right-hand side.

    The factorisation orders the block symmetrically (minimum degree on
    ``A + A^T``) and takes its pivots on the diagonal, so on a nonsingular
    symmetric block it is an ``L D L^T`` in disguise: ``perm_r == perm_c``
    and the signs of ``U.diagonal()`` are the signs of the block's
    eigenvalues.  The free rows are sliced twice so that one row copy is
    alive at a time, which lowers the solve's peak memory.
    """
    free = ~mask
    reduced = matrix[free][:, free].tocsc()
    bound = matrix[free][:, mask] @ values[mask]
    try:
        lu = splu(reduced, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise SingularFactorError(
            f"singular system over {reduced.shape[0]} free dofs: {exc}") from exc
    return lu, bound


def _renormalized(values, floor=1e-8):
    """Per-edge rescaling to unit norm; near-zero edges reset to (1, 0)."""
    out = values.copy()
    norms = np.linalg.norm(out, axis=1)
    small = norms < floor
    out[small] = (1.0, 0.0)
    out[~small] /= norms[~small, None]
    return out


def _warm_start(disc, mask, cvalues, rounds):
    """Renormalised smoothing-only field, sharpened by repeated
    smooth-and-renormalise sweeps through the factorised stiffness.

    The sweeps let the field's zeros migrate to their natural positions
    before the stiffer penalty dynamics freeze them in place; each sweep
    reuses one factorisation, so the warm start costs little.
    """
    free = ~mask
    x = cvalues.copy()
    lu, bound = _factor_free(disc.stiffness, mask, cvalues)

    def project(vec):
        values = _renormalized(disc.values_from_vector(vec))
        out = disc.vector_from_values(values)
        out[mask] = cvalues[mask]
        return out

    x[free] = lu.solve(-bound)
    x = project(x)
    m_diag = disc.lumped_mass()
    for _ in range(rounds):
        x[free] = lu.solve((m_diag * x)[free] - bound)
        x = project(x)
    return x


def newton_solve(mesh, edge_frames, order=4, options=None):
    """Drive Newton steps to a stationary point of the discrete energy.

    The start is the smoothing-only solution renormalised to unit edge
    norms and refined by ``options.warmup_rounds`` smooth-and-renormalise
    sweeps; assembled Newton solves then run until the 2-norm of the exact
    energy gradient over the free dofs drops to ``tol``.  A step whose
    infinity norm exceeds ``STEP_CAP`` is scaled down to it.  An energy
    increase between steps is logged as a warning but does not abort;
    exceeding ``max_iter`` returns with ``converged=False``; an exactly
    singular step system raises ``SingularFactorError``.

    Returns
    -------
    (FieldSolution, ConvergenceLog)
    """
    options = options or NewtonOptions()
    count, _ = mesh.vertex_component_labels()
    if count != 1:
        raise InvalidMeshError(
            f"solver requires a single connected component, found {count}")
    epsilon = options.resolve_epsilon(mesh)
    disc = Discretization(mesh, edge_frames, order)
    mask, cvalues, _ = constraint_dofs(mesh, options)

    x = _warm_start(disc, mask, cvalues, options.warmup_rounds)

    free = ~mask
    residuals = []
    converged = False
    prev_energy = None
    for _ in range(options.max_iter):
        matrix, rhs = disc.newton_system(x, epsilon)
        lu, bound = _factor_free(matrix, mask, cvalues)
        step = lu.solve(rhs[free] - bound) - x[free]
        # drop the factor before the next one is built: with two alive at
        # once the heap fragments and the peak memory grows every step
        del lu
        x[free] += step / max(1.0, np.abs(step).max(initial=0.0) / STEP_CAP)
        res = float(np.linalg.norm(disc.residual(x, epsilon)[free]))
        residuals.append(res)
        energy = disc.energy(x, epsilon).total
        if prev_energy is not None and energy > prev_energy + 1e-12 * max(1.0, abs(prev_energy)):
            # increases while the iterate still wanders are expected; near a
            # stationary point they deserve attention
            in_basin = len(residuals) > 1 and residuals[-2] < 1e-6
            logger.log(logging.WARNING if in_basin else logging.DEBUG,
                       "energy increased from %.6e to %.6e", prev_energy, energy)
        prev_energy = energy
        if res <= options.tol:
            converged = True
            break
    if not converged:
        logger.warning("no convergence after %d steps (residual %.3e)",
                       len(residuals), residuals[-1] if residuals else float("nan"))

    field_solution = FieldSolution(order=order,
                                   values=disc.values_from_vector(x),
                                   epsilon=epsilon)
    return field_solution, ConvergenceLog(tuple(residuals), converged)


def gl_energy(mesh, edge_frames, field, epsilon=None):
    """Smoothing term, penalty term, and their sum for a given field."""
    epsilon = field.epsilon if epsilon is None else float(epsilon)
    disc = Discretization(mesh, edge_frames, field.order)
    return disc.energy(disc.vector_from_values(field.values), epsilon)


def gl_residual(mesh, edge_frames, field, epsilon=None):
    """Exact energy gradient (one entry per dof, ``[all f1, all f2]``)."""
    epsilon = field.epsilon if epsilon is None else float(epsilon)
    disc = Discretization(mesh, edge_frames, field.order)
    return disc.residual(disc.vector_from_values(field.values), epsilon)
