import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossfield
from crossfield import (DEFAULT_SQUARE_HEIGHT, PointConfiguration,
                        align_point_sets, fekete_optimize,
                        log_interaction_energy, tilt_sweep,
                        two_square_configuration)


def test_antipodal_pair_energy():
    config = PointConfiguration(points=np.array([[0, 0, 1.0], [0, 0, -1.0]]),
                                indices=(1, 1))
    assert log_interaction_energy(config) == pytest.approx(
        -2 * np.pi * np.log(2.0), rel=1e-14)


def test_opposite_indices_attract():
    def energy(gap):
        z = np.sqrt(1 - gap**2 / 4)
        pts = np.array([[gap / 2, 0, z], [-gap / 2, 0, z]])
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        config = PointConfiguration(points=pts, indices=(1, -1))
        return log_interaction_energy(config)

    # energy decreases as the points approach: attraction
    assert energy(0.2) < energy(0.5) < energy(1.0)
    assert energy(1.0) == pytest.approx(2 * np.pi * np.log(1.0), abs=1e-12)


def test_coincident_points_rejected():
    with pytest.raises(ValueError, match="coincident"):
        PointConfiguration(points=np.array([[0, 0, 1.0], [0, 0, 1.0]]))


def test_off_sphere_points_rejected():
    with pytest.raises(ValueError, match="unit"):
        PointConfiguration(points=np.array([[0, 0, 1.0], [0, 0, -1.5]]))


def test_planar_configuration_accepted():
    config = PointConfiguration(points=np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert not config.spherical
    assert log_interaction_energy(config) == pytest.approx(0.0, abs=1e-14)


def test_energy_rotation_invariance():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(7, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    config = PointConfiguration(points=pts)
    base = log_interaction_energy(config)
    angle = 1.1
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    rotated = PointConfiguration(points=pts @ rot.T)
    assert log_interaction_energy(rotated) == pytest.approx(base, abs=1e-10)


def test_two_square_configuration_shape():
    config = two_square_configuration(DEFAULT_SQUARE_HEIGHT, np.pi / 4)
    assert len(config) == 8
    z = config.points[:, 2]
    assert np.allclose(np.abs(z), DEFAULT_SQUARE_HEIGHT, atol=1e-12)
    with pytest.raises(ValueError):
        two_square_configuration(1.5, 0.0)


def test_tilt_sweep_symmetries_and_minimum():
    angles = np.linspace(0.0, np.pi / 2, 91)
    rows = tilt_sweep(angles=angles)
    assert rows.shape == (91, 2)
    energy = rows[:, 1]
    assert energy[0] == pytest.approx(energy[-1], abs=1e-9)
    # mirror symmetry about the eighth turn
    assert np.abs(energy - energy[::-1]).max() < 1e-9
    toll = angles[1] - angles[0]
    assert abs(angles[np.argmin(energy)] - np.pi / 4) <= toll + 1e-12


def test_tilt_sweep_validation():
    with pytest.raises(ValueError, match="two"):
        tilt_sweep(angles=np.array([0.3]))


def test_fekete_two_points_antipodal():
    config = fekete_optimize(2, seed=0)
    gap = np.linalg.norm(config.points[0] - config.points[1])
    assert gap == pytest.approx(2.0, abs=1e-6)


IMPORT_PROBE = """
import json, sys
import crossfield, crossfield.cli
after_import = "scipy.optimize" in sys.modules
config = crossfield.fekete_optimize(2, seed=0)
print(json.dumps({"after_import": after_import,
                  "after_call": "scipy.optimize" in sys.modules,
                  "points": config.points.tolist()}))
"""


def test_scipy_optimize_loads_only_with_the_fekete_code():
    """Importing the package and its CLI leaves scipy.optimize unloaded (a
    solve never needs it); the first Fekete call loads it."""
    src = str(Path(crossfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert not probe["after_import"]
    assert probe["after_call"]
    points = np.array(probe["points"])
    assert np.linalg.norm(points, axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.linalg.norm(points[0] - points[1]) == pytest.approx(2.0, abs=1e-6)


def test_fekete_eight_is_twisted_square_pair():
    config = fekete_optimize(8, seed=0)
    pts = config.points
    # the symmetry axis is the least-spread principal direction
    _, eigvec = np.linalg.eigh(pts.T @ pts)
    axis = eigvec[:, 0]
    heights = pts @ axis
    top = pts[heights > 0]
    bottom = pts[heights < 0]
    assert len(top) == len(bottom) == 4
    assert np.std(np.abs(heights)) < 1e-4

    e1, e2 = eigvec[:, 1], eigvec[:, 2]
    az_top = np.sort(np.arctan2(top @ e2, top @ e1))
    az_bot = np.sort(np.arctan2(bottom @ e2, bottom @ e1))
    assert np.abs(np.diff(az_top) - np.pi / 2).max() < 1e-3
    twist = (az_bot[0] - az_top[0]) % (np.pi / 2)
    assert abs(twist - np.pi / 4) < 1e-3

    # energy beats the cube arrangement strictly
    cube = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                     for sz in (-1, 1)]) / np.sqrt(3)
    cube_energy = log_interaction_energy(PointConfiguration(points=cube))
    assert log_interaction_energy(config) < cube_energy - 1e-3

    # a tilt sweep at the optimiser's own ring height attains its energy
    height = float(np.abs(heights).mean())
    sweep = tilt_sweep(height=height, angles=np.linspace(0.0, np.pi / 2, 721))
    assert sweep[:, 1].min() == pytest.approx(log_interaction_energy(config),
                                              abs=1e-4)


def test_fekete_eight_below_default_sweep_minimum():
    config = fekete_optimize(8, seed=0)
    sweep = tilt_sweep(angles=np.linspace(0.0, np.pi / 2, 181))
    assert log_interaction_energy(config) <= sweep[:, 1].min() + 1e-9


def test_fekete_twelve_is_icosahedral():
    config = fekete_optimize(12, seed=0)
    pts = config.points
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    dist[np.diag_indices(12)] = np.inf
    nearest = np.sort(dist, axis=1)[:, :5]
    spread = nearest.max() - nearest.min()
    assert spread / nearest.mean() < 1e-4

    cubo = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0],
                     [1, 0, 1], [1, 0, -1], [-1, 0, 1], [-1, 0, -1],
                     [0, 1, 1], [0, 1, -1], [0, -1, 1], [0, -1, -1]]) / np.sqrt(2)
    cubo_energy = log_interaction_energy(PointConfiguration(points=cubo))
    assert log_interaction_energy(config) <= cubo_energy


def test_fekete_count_validation():
    with pytest.raises(ValueError):
        fekete_optimize(1)


def test_align_point_sets_recovers_rotation():
    rng = np.random.default_rng(4)
    pts = fekete_optimize(8, seed=3).points
    angle = 0.9
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    perm = rng.permutation(8)
    target = (pts @ rot.T)[perm]
    found, dists = align_point_sets(pts, target)
    assert dists.max() < 1e-8
    assert np.abs(found - rot).max() < 1e-6


def test_minimal_index_partition_is_all_ones():
    """Among integer index multisets with a fixed sum, the all-unit one
    minimises the sum of squares (the weight of the small-core energy
    blowup); checked by exhaustively enumerating every multiset whose cost
    does not exceed the all-unit cost."""

    def partitions_within_cost(total, cost_cap):
        found = []

        def rec(parts, part_sum, cost, smallest):
            if part_sum == total and parts:
                found.append(tuple(parts))
            remaining = cost_cap - cost
            # a unit part adds the most sum per unit of cost
            if part_sum + remaining < total:
                return
            bound = int(np.sqrt(remaining))
            for k in range(smallest, bound + 1):
                if k != 0 and k * k <= remaining:
                    rec(parts + [k], part_sum + k, cost + k * k, k)

        rec([], 0, 0, -int(np.sqrt(cost_cap)))
        return found

    for total in range(1, 13):
        reachable = partitions_within_cost(total, total)
        assert reachable == [tuple([1] * total)]
