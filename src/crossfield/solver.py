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

The nonlinear solve starts from the renormalised smoothing-only solution,
sharpened, unless it is stationary already, by a few smooth-and-renormalise
sweeps that let the vortex structure settle.  In edge frames the stiffness
is ``[[A, -B], [B, A]]``: on ``z = f1 + i*f2`` it is the Hermitian edge
Laplacian ``H = A + iB`` (Knoeppel et al. 2013).  Every real matrix is
assembled into one pattern, ``H``'s in each block, through one slot map,
from element matrices rotated by one kernel, ``blocks_to_edges``.  A mesh
with boundary factors ``H`` for its warm start, at a quarter of the fill;
only a closed surface builds the real stiffness, for its warm-start factor,
since its chaotic Newton path moves with the start's last bits.  Newton
steps follow, built from the exact second derivative of the energy (real:
its penalty curvature acts on the conjugate of ``z`` too).  Each factor,
with pivots on the diagonal, gathers its free block through a free-dof
system (``_FreeSystem``); the solve's first real factor orders every later
one.  A step larger than ``STEP_CAP`` in any component is scaled down to
it.  Convergence is tested on the 2-norm of the exact energy gradient, from
the warm start's first projection on, never on the linearised residual, so
a converged field is a genuine stationary point of the functional.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np
from scipy.sparse import bmat, coo_matrix, csc_matrix, csr_matrix
from scipy.sparse.linalg import splu
from scipy.sparse.linalg import spsolve  # unused here; perfbench/tracing.py wraps it

from .frames import triangle_frames
from .mesh import (InvalidMeshError, SurfaceMesh, _cross, _dot, _norm,
                   mean_edge_length)

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

#: Most smooth-and-renormalise sweeps of the warm start.
WARMUP_ROUNDS = 10


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

    ``tol`` bounds the 2-norm of the energy gradient over the free dofs and
    ``max_iter`` the number of Newton steps.  ``epsilon`` is either a
    positive number or ``"auto"`` (twice the mean edge length).  On a
    surface without boundary, ``rng_seed`` draws the edge that pins the
    otherwise free global phase (see ``constraint_dofs``).
    """

    tol: float = 1e-12
    max_iter: int = 100
    epsilon: float | str = "auto"
    rng_seed: int = 0

    def __post_init__(self):
        kinds = {"tol": Real, "max_iter": Integral, "rng_seed": Integral,
                 "epsilon": str if self.epsilon == "auto" else Real}
        for name, kind in kinds.items():
            value = getattr(self, name)
            # a bool is an int to Python, but never a tolerance or a count
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is Integral else "a real number"
                raise ValueError(f"{name} must be {noun}; got {value!r}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite; got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.rng_seed < 0:
            raise ValueError(
                f"rng_seed must be non-negative; got {self.rng_seed!r}")
        if self.epsilon != "auto":
            eps = float(self.epsilon)
            square = eps * eps
            if not (eps > 0 and 0.0 < square < np.inf
                    and 1.0 / square < np.inf):
                raise ValueError("epsilon must be 'auto' or positive, with "
                                 f"eps**2 and 1/eps**2 finite; got {eps!r}")

    def resolve_epsilon(self, mesh):
        if self.epsilon == "auto":
            return 2.0 * mean_edge_length(mesh)
        return float(self.epsilon)


@dataclass(frozen=True)
class ConvergenceLog:
    """Gradient norms of a nonlinear solve: at the start, then per step;
    and the edge that the solve pinned at (1, 0), as ``constraint_dofs``
    drew it (None on a mesh with boundary)."""

    residuals: tuple[float, ...]
    converged: bool
    pinned_edge: int | None = None

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
    share it.  The real stiffness and every Newton system are assembled
    into one CSR pattern through one slot map.
    """

    def __init__(self, mesh: SurfaceMesh, order: int = 4):
        self.mesh = mesh
        self.tri_frames = triangle_frames(mesh, order)

        # each triangle's 2-d chart: e1 along its x axis, e2 at (q2x, q2y)
        p = np.take(mesh.vertices.T, mesh.triangles.T, axis=1)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        self.areas = mesh.triangle_areas
        q1x = _norm(e1)
        u = e1 / q1x
        q2x = _dot(e2, u)
        q2y = _dot(e2, _cross(mesh.triangle_normals.T, u))
        det = q1x * q2y
        # the gradients through the inverse transposed Jacobian [[a, 0], [b,
        # c]], and their products, each summed from 0.0 as einsum sums them
        a, b, c = q2y / det, -q2x / det, q1x / det
        gx, gy = CR_GRADIENTS[:, :1], CR_GRADIENTS[:, 1:]
        g0, g1 = 0.0 + gx * a + 0.0 * gy, 0.0 + gx * b + gy * c  # (3, m) each
        blocks = self.areas * (0.0 + g0[:, None] * g0 + g1[:, None] * g1)
        self.stiffness_blocks = np.ascontiguousarray(blocks.transpose(2, 0, 1))

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

    @cached_property
    def hermitian(self):
        """The stiffness ``[[A, -B], [B, A]]`` as the Hermitian edge
        Laplacian ``H = A + iB`` (CSR), which acts on ``z = f1 + i*f2``;
        built on first use, explicit zeros included."""
        h = self.tri_frames.hermitian_blocks(self.stiffness_blocks)
        edges, n_e = self.mesh.facet_edges, self.mesh.n_edges
        return coo_matrix((h.ravel(), (np.repeat(edges, 3, axis=1).ravel(),
                                       np.tile(edges, (1, 3)).ravel())),
                          shape=(n_e, n_e)).tocsr()

    @cached_property
    def _pattern(self):
        """The one CSR pattern of every real matrix: ``hermitian``'s in
        each of the four blocks; built on first use."""
        h = self.hermitian
        ones = csr_matrix((np.ones(h.nnz), h.indices, h.indptr), shape=h.shape)
        return bmat([[ones, ones], [ones, ones]], format="csr")

    @cached_property
    def _slots(self):
        """Position in ``_pattern``'s data of every entry of the (T, 6, 6)
        element matrices."""
        dofs = self.tri_dofs
        rows, cols = np.repeat(dofs, 6, axis=1).ravel(), np.tile(dofs, (1, 6)).ravel()
        return np.asarray(_positions(self._pattern)[rows, cols]).ravel()

    def _matrix(self, k):
        """The (T, 6, 6) edge-frame element matrices ``k`` assembled into
        ``_pattern`` (CSR, sharing its index arrays): each entry is ``-0.0``
        plus at most two contributions, to the bits of their sum."""
        pattern = self._pattern
        data = np.full(pattern.nnz, -0.0)
        np.add.at(data, self._slots, k.ravel())
        return csr_matrix((data, pattern.indices, pattern.indptr),
                          shape=pattern.shape)

    @cached_property
    def stiffness(self):
        """The real stiffness (CSR), assembled on first use, for a closed
        surface's warm-start factor: the element blocks rotated like every
        Newton system's, with a zero off-diagonal block."""
        s = self.stiffness_blocks
        return self._matrix(self.tri_frames.blocks_to_edges(s, 0.0, s))

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
        k = self.tri_frames.blocks_to_edges(
            stiff + mass(3.0 * f1 * f1 + f2 * f2 - 1.0), 2.0 * mass(f1 * f2),
            stiff + mass(f1 * f1 + 3.0 * f2 * f2 - 1.0))
        return self._matrix(k), rhs

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
        n_e = self.mesh.n_edges
        smoothing = self.hermitian @ (x[:n_e] + 1j * x[n_e:])
        return self._scatter(np.concatenate([smoothing.real, smoothing.imag]),
                             aw * deficit * f1, aw * deficit * f2)

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
    """Constrained-dof mask, values, and the pinned edge (None on a mesh
    with boundary).

    Every constrained edge holds ``(1, 0)`` in its own frame: the boundary
    edges, aligning the field with the boundary, or, on a surface without
    boundary, one edge drawn from ``options.rng_seed``, pinning the free
    global phase.  Mask and values are laid out like the solution vector,
    ``[all f1, all f2]``.
    """
    options = options or NewtonOptions()
    n_e = mesh.n_edges
    edges = np.flatnonzero(mesh.boundary_edge)
    pinned = None
    if len(edges) == 0:
        pinned = int(np.random.default_rng(options.rng_seed).integers(n_e))
        edges = np.array([pinned])
    mask = np.zeros(2 * n_e, dtype=bool)
    mask[edges] = True
    mask[edges + n_e] = True
    values = np.zeros(2 * n_e)
    values[edges] = 1.0
    return mask, values, pinned


def _positions(pattern):
    """The CSR matrix with the pattern of ``pattern`` whose values are the
    positions of its entries in ``data``: indexing or slicing it finds
    where entries sit in any matrix of that pattern."""
    return csr_matrix((np.arange(pattern.nnz, dtype=pattern.indices.dtype),
                       pattern.indices, pattern.indptr), shape=pattern.shape)


def _splu(block, permc_spec):
    """SuperLU factors of the square CSC ``block``, real or complex, with
    pivots on the diagonal in symmetric mode; an exactly zero pivot raises
    ``SingularFactorError``."""
    try:
        return splu(block, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise SingularFactorError(
            f"singular system over {block.shape[0]} free unknowns: {exc}") from exc


class _FreeSystem:
    """A free-dof system: the entry positions of the free/free block (CSC)
    and of the free/constrained block (CSR) of any matrix with the CSR
    pattern of ``pattern``, the free ``dofs`` in the order of the blocks'
    rows and columns, and the constrained values.

    A solve's real system lets its first factor order every later one.  The
    first ``factor`` orders its block symmetrically (minimum degree on ``A +
    A^T``, which reads only the pattern that every matrix of the solve
    shares) and keeps a copy of its ``perm_c``: ``lu.perm_c`` is a view
    that keeps the whole factor alive.  The next renumbers the maps into that
    elimination order, and it and every later factor take the block as it
    stands.  The free/free block takes the columns in that order and
    renumbers its rows, but each column keeps its rows in ascending dof
    order.  SuperLU's column searches visit a column's rows in their stored
    order, so a ``NATURAL`` factor of the renumbered block runs every update
    of the ordered factor in the same order and gives the same bits.
    """

    def __init__(self, pattern, mask, values):
        rows = _positions(pattern)[~mask]
        self.free_free, self.free_fixed = rows[:, ~mask].tocsc(), rows[:, mask]
        self.dofs = np.flatnonzero(~mask)
        self.values = values[mask]
        self.perm_c = None
        self.permc_spec = "MMD_AT_PLUS_A"

    def factor(self, matrix):
        """LU factors of the free/free block of the Hermitian CSR ``matrix``
        and the constrained values' contribution ``K_fc @ values_c``, which
        moves to the right-hand side, both in the order of ``dofs``.  Pivots
        are taken on the diagonal, so on a nonsingular Hermitian block the
        factor is an ``L D L^H`` in disguise: ``perm_r == perm_c`` and the
        signs of ``U.diagonal()`` are the signs of the block's eigenvalues.
        """
        if self.perm_c is not None and self.permc_spec != "NATURAL":
            # perm_c[i] is the position of free dof i in elimination order
            order = np.argsort(self.perm_c)
            cols = self.free_free[:, order]
            self.free_free = csc_matrix((cols.data, self.perm_c[cols.indices],
                                         cols.indptr), shape=cols.shape)
            self.free_fixed, self.dofs = self.free_fixed[order], self.dofs[order]
            self.permc_spec = "NATURAL"
        block, fixed = (type(p)((matrix.data[p.data], p.indices, p.indptr),
                                shape=p.shape)
                        for p in (self.free_free, self.free_fixed))
        # each entry sits once and the order of a column's rows is
        # deliberate; splu would sort the rows of a block not marked canonical
        block.has_canonical_format = True
        bound = fixed @ self.values
        lu = _splu(block, self.permc_spec)
        if self.perm_c is None:
            self.perm_c = lu.perm_c.copy()
        return lu, bound


def _factor_hermitian(hermitian, mask, values):
    """The pair of ``lu.solve`` and bound that ``_FreeSystem.factor`` gives
    for the stiffness ``[[A, -B], [B, A]]``, over the free dofs in dof order,
    from the free-dof system of ``hermitian``, ``H = A + iB``, which acts on
    ``z = f1 + i*f2`` as the stiffness acts on ``(f1, f2)``: its mask is the
    edge half of ``mask`` and its values are ``z_c = c1 + i*c2``.  Its one
    factor keeps ``H``'s pattern, explicit zeros included: minimum degree
    orders the thinner pattern of ``A + 1j * B`` into a slower factor."""
    n_e = hermitian.shape[0]
    system = _FreeSystem(hermitian, mask[:n_e], values[:n_e] + 1j * values[n_e:])
    lu, bound = system.factor(hermitian)
    n_free = len(system.dofs)

    def solve(rhs):
        z = lu.solve(rhs[:n_free] + 1j * rhs[n_free:])
        return np.concatenate([z.real, z.imag])
    return solve, np.concatenate([bound.real, bound.imag])


def _project(x):
    """Rescale each edge of ``x`` (laid out ``[all f1, all f2]``) to unit
    norm in place, resetting edges whose norm is below 1e-8 to (1, 0).  A
    constrained edge holds (1, 0), whose norm is exactly 1, so it keeps its
    bits."""
    pairs = x.reshape(2, -1)  # a view: row 0 holds every f1, row 1 every f2
    norms = np.linalg.norm(pairs, axis=0)
    small = norms < 1e-8
    np.divide(pairs, norms, out=pairs, where=~small)
    pairs[:, small] = ((1.0,), (0.0,))


def _warm_start(disc, mask, cvalues, system, epsilon, tol):
    """Renormalised smoothing-only field and the 2-norm of its energy
    gradient over the free dofs, from the first factor of ``system``, of the
    real stiffness, which orders the solve; or, with ``system`` None, from
    the factor of ``_factor_hermitian``.

    Unless that gradient is at ``tol``, ``WARMUP_ROUNDS``
    smooth-and-renormalise sweeps through the same factor let the field's
    zeros settle before the penalty freezes them, and the gradient is tested
    again.
    """
    free = np.flatnonzero(~mask)
    x = cvalues.copy()
    if system is None:
        solve, bound = _factor_hermitian(disc.hermitian, mask, cvalues)
    else:
        lu, bound = system.factor(disc.stiffness)
        solve = lu.solve
    x[free] = solve(-bound)
    _project(x)
    # summed in dof order: a permuted vector's norm rounds differently
    residual = float(np.linalg.norm(disc.residual(x, epsilon)[free]))
    if not residual <= tol:
        m_diag = disc.lumped_mass()
        for _ in range(WARMUP_ROUNDS):
            x[free] = solve((m_diag * x)[free] - bound)
            _project(x)
        residual = float(np.linalg.norm(disc.residual(x, epsilon)[free]))
    return x, residual


def newton_solve(mesh, order=4, options=None):
    """Drive Newton steps to a stationary point of the discrete energy.

    The start is the smoothing-only solution renormalised to unit edge
    norms (see ``_warm_start``).  The 2-norm of the exact energy gradient
    over the free dofs is tested before each step, and assembled Newton
    steps run until it drops to ``tol``, so a stationary start takes no
    step and never builds the free-dof system (``_FreeSystem``) for one.  A step whose
    infinity norm exceeds ``STEP_CAP`` is scaled down to it.  An energy
    increase between steps is logged as a warning but does not abort;
    exceeding ``max_iter`` returns with ``converged=False``; an exactly
    singular step system raises ``SingularFactorError``.  An odd ``order``
    on a mesh with boundary raises ``ValueError``: each boundary edge is
    held along its direction from its lower to its higher vertex id, and
    only at even orders is the reverse direction the same field.

    Returns
    -------
    (FieldSolution, ConvergenceLog)
        The log also names the edge pinned at (1, 0) on a closed surface.
    """
    options = options or NewtonOptions()
    count, _ = mesh.vertex_component_labels()
    if count != 1:
        raise InvalidMeshError(
            f"solver requires a single connected component, found {count}")
    epsilon = options.resolve_epsilon(mesh)
    disc = Discretization(mesh, order)
    # after the build, which rejects an order below 1 with its own message
    if order % 2 and not mesh.is_closed():
        raise ValueError(f"symmetry order {order} is odd, and a mesh with "
                         "boundary needs an even order")
    mask, cvalues, pinned = constraint_dofs(mesh, options)
    # A closed surface's Newton path is chaotic, and any change in the warm
    # start's last bits redraws it, so only a mesh with boundary takes the
    # Hermitian factor; a closed surface's real factor orders its solve
    system = None if pinned is None else _FreeSystem(disc._pattern, mask, cvalues)
    x, residual = _warm_start(disc, mask, cvalues, system, epsilon, options.tol)
    free = ~mask
    residuals = [residual]
    steps = 0
    prev_energy = None
    # a NaN gradient is never converged: it steps on until the budget ends
    while not (converged := residuals[-1] <= options.tol) and steps < options.max_iter:
        # the solve's first real factor orders every later one
        system = system or _FreeSystem(disc._pattern, mask, cvalues)
        matrix, rhs = disc.newton_system(x, epsilon)
        lu, bound = system.factor(matrix)
        step = lu.solve(rhs[system.dofs] - bound) - x[system.dofs]
        # drop the factor before the next one is built: with two alive at
        # once the heap fragments and the peak memory grows every step
        del lu
        x[system.dofs] += step / max(1.0, np.abs(step).max(initial=0.0) / STEP_CAP)
        steps += 1
        residuals.append(float(np.linalg.norm(disc.residual(x, epsilon)[free])))
        energy = disc.energy(x, epsilon).total
        if prev_energy is not None and energy > prev_energy + 1e-12 * max(1.0, abs(prev_energy)):
            # increases while the iterate still wanders are expected; near a
            # stationary point they deserve attention
            in_basin = residuals[-2] < 1e-6
            logger.log(logging.WARNING if in_basin else logging.DEBUG,
                       "energy rose by %.3e to %.17g", energy - prev_energy, energy)
        prev_energy = energy
    if not converged:
        logger.warning("no convergence after %d steps (residual %.3e)",
                       steps, residuals[-1])

    field_solution = FieldSolution(order=order,
                                   values=disc.values_from_vector(x),
                                   epsilon=epsilon)
    return field_solution, ConvergenceLog(tuple(residuals), converged, pinned)


def gl_energy(mesh, field):
    """Smoothing term, penalty term, and their sum at the field's epsilon."""
    disc = Discretization(mesh, field.order)
    return disc.energy(disc.vector_from_values(field.values), field.epsilon)


def gl_residual(mesh, field):
    """Exact energy gradient at the field's epsilon (``[all f1, all f2]``)."""
    disc = Discretization(mesh, field.order)
    return disc.residual(disc.vector_from_values(field.values), field.epsilon)
