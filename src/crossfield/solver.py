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
the energy.  Each step factors the symmetric free-dof Hessian once, with
pivots taken on the diagonal and the symmetric fill-reducing ordering that
the warm start's factor of the stiffness computed for the whole solve, and
a step larger than ``STEP_CAP`` in any component is scaled down to it;
convergence is tested before each step on the 2-norm of the exact energy
gradient, never on the linearised residual, so a converged field is a
genuine stationary point of the functional.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix
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
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite; got {self.tol!r}")
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
    """Gradient norms of a nonlinear solve: at the start, then per step."""

    residuals: tuple[float, ...]
    converged: bool

    @property
    def iterations(self):
        """Number of Newton steps taken."""
        return len(self.residuals) - 1


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
    field at the quadrature points through one kernel, ``_quadrature``,
    run once per field: the residual, energy and Newton system at one ``x``
    share it.  Every Newton system is assembled into the CSR pattern of
    ``stiffness``.
    """

    def __init__(self, mesh: SurfaceMesh, edge_frames: EdgeFrames, order: int = 4):
        self.mesh = mesh
        self.edge_frames = edge_frames
        self.order = order
        self.tri_frames = triangle_frames(mesh, edge_frames, order)

        p = mesh.vertices[mesh.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        self.areas = mesh.triangle_areas()
        u = e1 / np.linalg.norm(e1, axis=1)[:, None]
        v = np.cross(mesh.triangle_normals(), u)
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
        self._shared = None

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

    def _quadrature_once(self, x, epsilon):
        """``_quadrature`` of ``x``, reused while ``x`` and ``epsilon`` keep
        the same bits; callers only read the arrays it returns."""
        key = (np.asarray(x, dtype=float).tobytes(), epsilon)
        if self._shared is None or self._shared[0] != key:
            self._shared = key, self._quadrature(x, epsilon)
        return self._shared[1]

    def _scatter(self, out, v1, v2):
        """Integrate the weighted pointwise values ``v1`` (f1 rows) and
        ``v2`` (f2 rows) against the shape functions, rotate the element
        vectors back to edge frames and add them into ``out``."""
        h1, h2 = self.tri_frames.to_edges(
            np.einsum("tq,qm->tm", v1, self.shape_table),
            np.einsum("tq,qm->tm", v2, self.shape_table))
        np.add.at(out, self.tri_dofs, np.concatenate([h1, h2], axis=1))
        return out

    def _entries(self):
        """Row and column dofs of the entries of the (T, 6, 6) element
        matrices, in their memory order."""
        return (np.repeat(self.tri_dofs, 6, axis=1).ravel(),
                np.tile(self.tri_dofs, (1, 6)).ravel())

    @cached_property
    def stiffness(self):
        """Global stiffness matrix (CSR), built on first use: the energy
        alone never reads it.  This one COO assembly fixes the pattern of
        every later system."""
        k = self.tri_frames.blocks_to_edges(self.stiffness_blocks, 0.0,
                                            self.stiffness_blocks)
        return coo_matrix((k.ravel(), self._entries()),
                          shape=(self.n_dofs, self.n_dofs)).tocsr()

    @cached_property
    def _slots(self):
        """Position in ``stiffness.data`` of every entry of the (T, 6, 6)
        element matrices, found on the first Newton system.

        No entry gets more than two contributions (an edge has at most two
        facets), and the sum of two floats does not depend on their order,
        so adding them per slot, from -0.0 (which leaves every float as it
        is, zeros' signs included), gives the bits of COO assembly."""
        return np.asarray(_positions(self.stiffness)[self._entries()]).ravel()

    def _matrix(self, p, q, v):
        """Assemble the global CSR matrix of the shared-frame element
        blocks ``[[p, q], [q, v]]`` rotated to edge frames, in the pattern
        of ``stiffness`` (whose index arrays it shares)."""
        k = self.tri_frames.blocks_to_edges(p, q, v)
        data = np.full(self.stiffness.nnz, -0.0)
        np.add.at(data, self._slots, k.ravel())
        return csr_matrix((data, self.stiffness.indices, self.stiffness.indptr),
                          shape=self.stiffness.shape)

    def newton_system(self, x, epsilon):
        """Assembled Newton system ``(K, B)`` about the field ``x``.

        ``K`` is the energy Hessian (stiffness plus the pointwise penalty
        curvature ``(|F|^2-1) I + 2 F F^T`` over ``eps^2``) and ``B`` equals
        ``K x`` minus the energy gradient, so one solve performs a full
        Newton step.
        """
        _, f1, f2, aw = self._quadrature_once(x, epsilon)

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
        _, f1, f2, aw = self._quadrature_once(x, epsilon)
        deficit = f1 * f1 + f2 * f2 - 1.0
        return self._scatter(self.stiffness @ x, aw * deficit * f1,
                             aw * deficit * f2)

    def energy(self, x, epsilon):
        """Smoothing and penalty parts of the discrete energy at ``x``."""
        (g1, g2), f1, f2, _ = self._quadrature_once(x, epsilon)
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


def _positions(pattern):
    """The CSR matrix with the pattern of ``pattern`` whose values are the
    positions of its entries in ``data``: indexing or slicing it finds
    where entries sit in any matrix of that pattern."""
    return csr_matrix((np.arange(pattern.nnz, dtype=pattern.indices.dtype),
                       pattern.indices, pattern.indptr), shape=pattern.shape)


class _FreeBlocks(NamedTuple):
    """Entry positions of the free/free block (CSC) and of the
    free/constrained block (CSR) of any matrix with one CSR pattern;
    ``_gather`` fills them with a matrix's values.  ``dofs`` are the free
    dofs in the order of the blocks' rows and columns, and ``permc_spec`` is
    the column ordering SuperLU gives the free/free block: minimum degree
    while the blocks are in dof order, none once they are in elimination
    order."""

    free_free: csc_matrix
    free_fixed: csr_matrix
    dofs: np.ndarray
    permc_spec: str


def _free_blocks(pattern, mask):
    """The free blocks of the CSR pattern of ``pattern``, in dof order,
    entry for entry as slicing a matrix of that pattern would give them."""
    rows = _positions(pattern)[~mask]
    return _FreeBlocks(rows[:, ~mask].tocsc(), rows[:, mask],
                       np.flatnonzero(~mask), "MMD_AT_PLUS_A")


def _in_elimination_order(blocks, perm_c):
    """``blocks`` (in dof order) renumbered into the elimination order of a
    factor of their free/free block, whose ``perm_c[i]`` is the position of
    free dof ``i``.

    The free/free block takes the columns in that order and renumbers its
    rows, but each column keeps its rows in ascending dof order.  SuperLU's
    column searches visit a column's rows in their stored order, so a
    ``NATURAL`` factor of the renumbered block runs every update of the
    original ordered factor in the same order and gives the same bits.  The
    returned arrays are new ones: none is a view of ``perm_c``, which may
    belong to a factor."""
    order = np.argsort(perm_c)
    free_free = blocks.free_free[:, order]
    free_free = csc_matrix((free_free.data, perm_c[free_free.indices],
                            free_free.indptr), shape=free_free.shape)
    return _FreeBlocks(free_free, blocks.free_fixed[order], blocks.dofs[order],
                       "NATURAL")


def _gather(matrix, positions):
    """The block of ``matrix`` at the entry positions held by ``positions``,
    in the same sparse format."""
    return type(positions)((matrix.data[positions.data], positions.indices,
                            positions.indptr), shape=positions.shape)


def _factor_free(matrix, mask, values, blocks=None):
    """LU factors of the free/free block of the symmetric CSR ``matrix`` and
    the constrained values' contribution ``K_fc @ values_c``, which moves to
    the right-hand side, both in the order of ``blocks.dofs``.

    ``blocks`` (``_free_blocks`` of the matrix's pattern and ``mask``, built
    here when not given) fix the ordering: in dof order the block is
    ordered symmetrically (minimum degree on ``A + A^T``), in an earlier
    factor's elimination order it is factored as it stands.  Pivots are
    taken on the diagonal, so on a nonsingular symmetric block the factor
    is an ``L D L^T`` in disguise: ``perm_r == perm_c`` and the signs of
    ``U.diagonal()`` are the signs of the block's eigenvalues.
    """
    blocks = blocks or _free_blocks(matrix, mask)
    reduced = _gather(matrix, blocks.free_free)
    # each entry sits once; the order of a column's rows is deliberate (see
    # _in_elimination_order), and splu would sort a block not marked canonical
    reduced.has_canonical_format = True
    bound = _gather(matrix, blocks.free_fixed) @ values[mask]
    try:
        lu = splu(reduced, permc_spec=blocks.permc_spec, diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise SingularFactorError(
            f"singular system over {reduced.shape[0]} free dofs: {exc}") from exc
    return lu, bound


def _project(x, fixed, values):
    """Rescale each edge of ``x`` (laid out ``[all f1, all f2]``) to unit
    norm in place, resetting edges whose norm is below 1e-8 to (1, 0), then
    put back the constrained ``values`` at the ``fixed`` dofs."""
    pairs = x.reshape(2, -1)  # a view: row 0 holds every f1, row 1 every f2
    norms = np.linalg.norm(pairs, axis=0)
    small = norms < 1e-8
    np.divide(pairs, norms, out=pairs, where=~small)
    pairs[:, small] = ((1.0,), (0.0,))
    x[fixed] = values[fixed]


def _warm_start(disc, mask, cvalues, rounds, blocks):
    """Renormalised smoothing-only field, sharpened by repeated
    smooth-and-renormalise sweeps through the factorised stiffness, and
    ``blocks`` (in dof order) in the elimination order of that factor.

    The sweeps let the field's zeros migrate to their natural positions
    before the stiffer penalty dynamics freeze them in place; each sweep
    reuses one factorisation, so the warm start costs little.  Every system
    of the solve has the stiffness's pattern, and a minimum-degree ordering
    reads only the pattern, so this factor's ordering serves them all.
    """
    free = blocks.dofs
    fixed = np.flatnonzero(mask)
    x = cvalues.copy()
    lu, bound = _factor_free(disc.stiffness, mask, cvalues, blocks)
    x[free] = lu.solve(-bound)
    _project(x, fixed, cvalues)
    m_diag = disc.lumped_mass()
    for _ in range(rounds):
        x[free] = lu.solve((m_diag * x)[free] - bound)
        _project(x, fixed, cvalues)
    # lu.perm_c is a view that keeps the whole factor alive: copy it and free
    # the factor before the ordered blocks are built
    perm_c = lu.perm_c.copy()
    del lu
    return x, _in_elimination_order(blocks, perm_c)


def newton_solve(mesh, edge_frames, order=4, options=None):
    """Drive Newton steps to a stationary point of the discrete energy.

    The start is the smoothing-only solution renormalised to unit edge
    norms and refined by ``options.warmup_rounds`` smooth-and-renormalise
    sweeps.  The 2-norm of the exact energy gradient over the free dofs is
    tested before each step, and assembled Newton steps run until it drops
    to ``tol``, so a stationary start takes no step.  A step whose
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
    # every system of the solve has the stiffness's pattern
    x, blocks = _warm_start(disc, mask, cvalues, options.warmup_rounds,
                            _free_blocks(disc.stiffness, mask))

    free = ~mask
    ordered = blocks.dofs
    # summed in dof order: a permuted vector's norm rounds differently
    residuals = [float(np.linalg.norm(disc.residual(x, epsilon)[free]))]
    steps = 0
    prev_energy = None
    # a NaN gradient is never converged: it steps on until the budget ends
    while not (converged := residuals[-1] <= options.tol) and steps < options.max_iter:
        matrix, rhs = disc.newton_system(x, epsilon)
        lu, bound = _factor_free(matrix, mask, cvalues, blocks)
        step = lu.solve(rhs[ordered] - bound) - x[ordered]
        # drop the factor before the next one is built: with two alive at
        # once the heap fragments and the peak memory grows every step
        del lu
        x[ordered] += step / max(1.0, np.abs(step).max(initial=0.0) / STEP_CAP)
        steps += 1
        residuals.append(float(np.linalg.norm(disc.residual(x, epsilon)[free])))
        energy = disc.energy(x, epsilon).total
        if prev_energy is not None and energy > prev_energy + 1e-12 * max(1.0, abs(prev_energy)):
            # increases while the iterate still wanders are expected; near a
            # stationary point they deserve attention
            in_basin = residuals[-2] < 1e-6
            logger.log(logging.WARNING if in_basin else logging.DEBUG,
                       "energy increased from %.6e to %.6e", prev_energy, energy)
        prev_energy = energy
    if not converged:
        logger.warning("no convergence after %d steps (residual %.3e)",
                       steps, residuals[-1])

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
