"""Workload definitions shared by the runner and the pass processes.

The seed sets only the generated inputs: the rotation of the Fibonacci
observer grid (as `qlm` derives it from its `seed` key) and the observer
direction of the interior solves.  This module does not import qlmass.
"""

import numpy as np

# `qlm mass` path: Bowen-York data, whose mass E_ADM - |P| = -0.1 is known.
MASS_SEARCH = {
    "momentum": (0.0, 0.0, 0.1),
    "radius": 40.0,
    "level": 3,
    "embedding_degree": 16,
    "embedding_tol": 1e-8,
    "embedding_max_iterations": 200,
    "layers": 8,
    "grid": 24,
    "refine_iters": 50,
    "topology_levels": 64,
}

# `qlm asymptotics` path: the radius ladder of acceptance criterion 2.
ASYMPTOTICS_LADDER = {
    "mass": 1.0,
    "radii": (10.0, 20.0, 40.0, 80.0),
    "level": 4,
    "observers": 8,
    "embedding_degree": 16,
    "embedding_tol": 1e-8,
}

# Interior solver: a Picard-heavy nonlinear solve and a linear solve on a
# level-4 unit ball, then the `qlm verify-identity` path on a level-2 ball.
INTERIOR_IDENTITY = {
    "ball_level": 4,
    "layers": 8,
    "expansion": 1.0,
    "schw_mass": 1.0,
    "schw_radius": 10.0,
    "schw_level": 2,
    "topology_levels": 64,
}

NAMES = ("mass-search", "asymptotics-ladder", "interior-identity")


def grid_rotation(seed):
    """Fibonacci grid rotation for a seed, the same draw `qlm` makes."""
    return float(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))


def fibonacci_directions(n, rotation):
    """n unit vectors on a Fibonacci lattice turned by `rotation` about z."""
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (1.0 + np.sqrt(5.0)) * (np.arange(n) + 0.5) + rotation
    s = np.sqrt(1.0 - z**2)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def observer_direction(seed):
    """Unit observer direction of the interior solves for a seed."""
    v = np.random.default_rng([seed, 1]).normal(size=3)
    return v / np.linalg.norm(v)
