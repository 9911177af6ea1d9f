"""Logarithmic interaction energy of critical-point configurations.

As the coherence length shrinks, the field's critical points interact
through a pairwise logarithmic potential in the chordal distances of their
(embedded) positions: like-signed indices repel, opposite signs attract.
For all-equal indices, minimising that energy over the sphere is the
classical problem of maximising the product of pairwise distances; its
optimisers (antipodal pair, square antiprism for 8, icosahedron for 12)
serve as an independent placement oracle for computed fields.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "PointConfiguration",
    "DEFAULT_SQUARE_HEIGHT",
    "log_interaction_energy",
    "two_square_configuration",
    "tilt_sweep",
    "fekete_optimize",
    "align_point_sets",
]

#: Height of the two horizontal squares whose eight corners are the
#: vertices of a cube inscribed in the unit sphere.
DEFAULT_SQUARE_HEIGHT = 1.0 / np.sqrt(3.0)

#: Seeded random starts of the log-energy descent in ``fekete_optimize``.
_RESTARTS = 4


@dataclass(frozen=True)
class PointConfiguration:
    """Embedded critical-point positions with their indices.

    ``points`` is ``(k, 3)`` (or ``(k, 2)`` for planar configurations);
    ``spherical`` is true for ``(k, 3)`` points, which must sit on the unit
    sphere to 1e-9.  Coincident points (closer than 1e-9) are rejected.
    """

    points: np.ndarray
    indices: tuple = ()
    spherical: bool = field(init=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "spherical", pts.shape[1] != 2)
        if pts.shape[1] == 2:
            pts = np.column_stack([pts, np.zeros(len(pts))])
        if pts.shape[1] != 3:
            raise ValueError("points must be (k, 2) or (k, 3)")
        idx = self.indices or tuple([1] * len(pts))
        if len(idx) != len(pts):
            raise ValueError("one index per point required")
        if self.spherical:
            norms = np.linalg.norm(pts, axis=1)
            if np.max(np.abs(norms - 1.0), initial=0.0) > 1e-9:
                raise ValueError("spherical configuration points must be unit vectors")
        if len(pts) >= 2:
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            dist[np.diag_indices(len(pts))] = np.inf
            if dist.min() < 1e-9:
                raise ValueError("coincident points in configuration")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "indices", tuple(idx))

    def __len__(self):
        return len(self.points)


def log_interaction_energy(config):
    """Pairwise logarithmic energy of a configuration.

    Evaluates ``-pi * sum over ordered pairs i != j of
    index_i * index_j * log |x_i - x_j|`` with chordal (3-d Euclidean)
    distances.  With all indices equal this is a positive multiple of the
    negated log-product of distances, so minimising it maximises the
    product of pairwise distances.
    """
    pts = config.points
    if len(pts) < 2:
        raise ValueError("need at least two points")
    idx = np.array([float(d) for d in config.indices])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    iu = np.triu_indices(len(pts), k=1)
    pair = idx[iu[0]] * idx[iu[1]] * np.log(dist[iu])
    return float(-2.0 * np.pi * pair.sum())


def two_square_configuration(height=DEFAULT_SQUARE_HEIGHT, tilt=0.0):
    """Eight unit-index points on two horizontal squares of the unit sphere.

    Four points sit on the circle at ``z = +height`` at azimuths 0, 90,
    180, 270 degrees; the other four sit at ``z = -height`` with azimuths
    shifted by ``tilt``.
    """
    if not 0.0 < height < 1.0:
        raise ValueError("height must lie strictly between 0 and 1")
    radius = np.sqrt(1.0 - height**2)
    azimuth = np.arange(4) * (np.pi / 2.0)
    top = np.column_stack([radius * np.cos(azimuth), radius * np.sin(azimuth),
                           np.full(4, height)])
    bottom = np.column_stack([radius * np.cos(azimuth + tilt),
                              radius * np.sin(azimuth + tilt),
                              np.full(4, -height)])
    pts = np.vstack([top, bottom])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return PointConfiguration(points=pts, indices=tuple([1] * 8))


def tilt_sweep(height=DEFAULT_SQUARE_HEIGHT, angles=None):
    """Interaction energy of the two-square configuration over tilt angles.

    Returns an ``(n, 2)`` array of ``(angle, energy)`` rows.  By symmetry
    the energy at tilt 0 equals the energy at a quarter turn, and the curve
    is symmetric about the eighth turn where its minimum sits.
    """
    if angles is None:
        angles = np.linspace(0.0, np.pi / 2.0, 91)
    angles = np.asarray(angles, dtype=float)
    if angles.size < 2:
        raise ValueError("need at least two tilt samples")
    energies = [log_interaction_energy(two_square_configuration(height, t))
                for t in angles]
    return np.column_stack([angles, energies])


def _log_product_objective(x, count):
    """Negated log-product of pairwise distances of normalised points,
    with its gradient through the normalisation."""
    pts = x.reshape(count, 3)
    radii = np.linalg.norm(pts, axis=1)
    y = pts / radii[:, None]
    diff = y[:, None, :] - y[None, :, :]
    dist2 = (diff**2).sum(axis=2)
    np.fill_diagonal(dist2, 1.0)
    value = -0.25 * np.log(dist2).sum()
    grad_y = -(diff / dist2[:, :, None]).sum(axis=1)
    radial = (grad_y * y).sum(axis=1)
    grad = (grad_y - radial[:, None] * y) / radii[:, None]
    return value, grad.ravel()


def fekete_optimize(count, seed=0):
    """Minimise the logarithmic energy of ``count`` unit-index points on
    the sphere.

    Runs a quasi-Newton descent from several seeded random starts and
    keeps the best minimiser.  Non-convergence of the best run (projected
    gradient above 1e-6) is logged, and the best configuration found is
    returned regardless.
    """
    from scipy.optimize import minimize

    if count < 2:
        raise ValueError("need at least two points")
    rng = np.random.default_rng(seed)
    best = None
    best_value = np.inf
    best_grad = np.inf
    for _ in range(_RESTARTS):
        x0 = rng.normal(size=(count, 3))
        x0 /= np.linalg.norm(x0, axis=1)[:, None]
        result = minimize(
            _log_product_objective, x0.ravel(), args=(count,), jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12})
        if result.fun < best_value:
            best_value = result.fun
            best = result.x.reshape(count, 3)
            best_grad = float(np.linalg.norm(result.jac))
    if best_grad > 1e-6:
        logger.warning("log-energy descent left gradient norm %.2e", best_grad)
    best /= np.linalg.norm(best, axis=1)[:, None]
    return PointConfiguration(points=best, indices=tuple([1] * count))


def _orthonormal_frame(u, v):
    e1 = u / np.linalg.norm(u)
    e2 = v - (v @ e1) * e1
    e2 /= np.linalg.norm(e2)
    return np.stack([e1, e2, np.cross(e1, e2)], axis=1)


def _kabsch(source, target):
    """Best proper rotation mapping matched source points onto targets."""
    h = source.T @ target
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    return vt.T @ np.diag([1.0, 1.0, d]) @ u.T


def align_point_sets(source, target):
    """Optimal rigid alignment of two equal-size point sets about the origin.

    Searches candidate rotations built from point pairs, resolves the
    point correspondence by minimum-cost assignment, and polishes with the
    closed-form least-squares rotation.  Returns ``(rotation, distances)``
    where ``distances[i] = |rotation @ source_matched - target|`` per
    matched pair.
    """
    from scipy.optimize import linear_sum_assignment

    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 3:
        raise ValueError("point sets must both be (k, 3)")
    k = len(source)
    if k < 2:
        raise ValueError("need at least two points to align")

    i1 = int(np.argmin(np.abs(source @ source[0])))
    ref = source[0] @ source[i1]
    frame_a = _orthonormal_frame(source[0], source[i1])

    best_rot = np.eye(3)
    best_cost = np.inf
    for p in range(k):
        for q in range(k):
            if p == q or abs(target[p] @ target[q] - ref) > 0.2:
                continue
            rot = _orthonormal_frame(target[p], target[q]) @ frame_a.T
            moved = source @ rot.T
            cost = np.linalg.norm(
                moved[:, None, :] - target[None, :, :], axis=2).min(axis=1).sum()
            if cost < best_cost:
                best_cost = cost
                best_rot = rot

    rot = best_rot
    for _ in range(3):
        moved = source @ rot.T
        cost = np.linalg.norm(moved[:, None, :] - target[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        rot = _kabsch(source[rows], target[cols])
    moved = source @ rot.T
    cost = np.linalg.norm(moved[:, None, :] - target[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return rot, cost[rows, cols]
