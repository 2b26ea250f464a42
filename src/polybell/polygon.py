"""Regular polygon models and their rotationally matched entangled states.

The n-vertex model lives in R^3: states sit on a circle of radius
``r_n = sqrt(sec(pi/n))`` at height 1, and the unit effect is the height
read-out ``u = (0, 0, 1)``. Vertex states are

    omega_i = (r_n cos(2 pi i / n), r_n sin(2 pi i / n), 1),   i = 1..n.

For even n the ray-extremal effects interleave the vertices at angles
``(2 i - 1) pi / n`` with weight 1/2; the effect body's nontrivial extremal
points are exactly those effects, and complements stay in the family
(complement of e_i is e_{i + n/2}). For odd n the effects align with the
vertices with weight ``1 / (1 + r_n^2)``; there the complements
``u - e_i`` are extremal points of the effect body but not ray-extremal,
so both families are recorded with a ray-extremality flag.

Labels are 1-based in the construction above and 0-based in the arrays:
row k holds the object with label k + 1.
"""

from __future__ import annotations

import numpy as np

from .bipartite import JointState
from .core import ModelSpec


def _vertex_count(n) -> int:
    """``n`` as an int, checked as a polygon's vertex count.

    Accepts ``int`` and numpy integers of at least 3; raises ``ValueError``
    for anything else, bool, float and str included.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"polygon vertex count must be an integer, got {n!r}")
    if n < 3:
        raise ValueError("polygon models need at least 3 vertices")
    return int(n)


def polygon_radius(n: int) -> float:
    """Circumradius r_n = sqrt(sec(pi/n)) of the n-vertex model."""
    n = _vertex_count(n)
    return float(np.sqrt(1.0 / np.cos(np.pi / n)))


def _disc_points(radius: float, angles: np.ndarray, height: float) -> np.ndarray:
    """Rows ``(radius cos a, radius sin a, height)``, one per angle ``a``."""
    points = np.empty((angles.size, 3))
    points[:, 0] = np.cos(angles)
    points[:, 1] = np.sin(angles)
    points[:, :2] *= radius
    points[:, 2] = height
    return points


def polygon(n: int) -> ModelSpec:
    """The n-vertex polygon model (n >= 3)."""
    n = _vertex_count(n)
    r = polygon_radius(n)
    labels = np.arange(1, n + 1, dtype=float)
    states = _disc_points(r, 2.0 * np.pi * labels / n, 1.0)
    unit = np.array([0.0, 0.0, 1.0])
    if n % 2 == 0:
        effects = _disc_points(r, (2.0 * labels - 1.0) * np.pi / n, 1.0)
        effects *= 0.5
    else:
        # the rays share the vertices' angles: scaled copies of the states
        effects = np.empty((2 * n, 3))
        rays = np.multiply(states, 1.0 / (1.0 + r * r), out=effects[:n])
        np.subtract(unit, rays, out=effects[n:])
    return ModelSpec(
        name=f"polygon-{n}",
        dim=3,
        extremal_states=states,
        extremal_effects=effects,
        unit_effect=unit,
        ray_extremal=np.arange(len(effects)) < n,
    )


def max_entangled(n: int) -> JointState:
    """The maximally entangled joint state of two n-vertex models.

    For odd n the matrix is the identity (the two discs align); for even n
    the vertex and effect circles are offset by pi/n, and the matrix is the
    block rotation by pi/n in the disc coordinates:

        [[ cos(pi/n), sin(pi/n), 0],
         [-sin(pi/n), cos(pi/n), 0],
         [ 0,         0,         1]]

    Either way, a vertex outcome on one side collapses the other side onto
    the matching vertex state.
    """
    m = polygon(n)
    if n % 2 == 1:
        matrix = np.eye(3)
    else:
        c, s = np.cos(np.pi / n), np.sin(np.pi / n)
        matrix = np.array([
            [c, s, 0.0],
            [-s, c, 0.0],
            [0.0, 0.0, 1.0],
        ])
    return JointState(matrix, m, m)

