"""Built-in example functions and calibration constants for the verifiers.

The logarithmic families discretize ln|x| and -ln|x| on [-1,1]^n; they are
the standard witnesses separating the bounded, lower-oscillation, and mean
oscillation classes. Closed-form examples carry their expected values in
the reproduction tables, not here.
"""

from __future__ import annotations

import numpy as np

from .grid import CubeFamily, Grid, StepFunction, build_grid, step_function

__all__ = [
    "log_grid",
    "log_abs_function",
    "neg_log_abs_function",
    "two_cell_example",
    "spike_and_slab_example",
    "origin_chain",
    "random_step_function",
    "random_positive_weight",
    "INCLUSION_THRESHOLDS",
    "JN_DEPTH_TRANSFER_FACTOR",
    "WEIGHTED_L1_MIN_RATIO",
]


def log_grid(n: int, depth: int) -> Grid:
    """Grid on [-1, 1]^n; the origin sits at a cell corner for depth >= 1."""
    return build_grid(n, depth, 2.0, origin=(-1.0,) * n)


def log_abs_function(n: int, depth: int) -> StepFunction:
    """ln|x| sampled at cell centers of the [-1,1]^n grid."""
    grid = log_grid(n, depth)
    radii = np.sqrt((grid.cell_centers() ** 2).sum(axis=1))
    return StepFunction(grid, np.log(radii))


def neg_log_abs_function(n: int, depth: int) -> StepFunction:
    """-ln|x| sampled at cell centers; non-negative once |x| <= 1."""
    f = log_abs_function(n, depth)
    return f.with_values(-f.values)


def two_cell_example() -> tuple[Grid, StepFunction]:
    """Two cells on [0, 2) with values (2, 0).

    The mean-oscillation objective for this function is flat and equal to 1
    on the whole interval [0, 2] of minimizers, for every delta.
    """
    grid = build_grid(1, 1, 2.0)
    return grid, step_function(grid, [2.0, 0.0])


def spike_and_slab_example() -> tuple[Grid, StepFunction]:
    """4x4 grid on [0,4)^2: +1 on the far-corner cell, -2 on the two-column
    slab along the first axis, 0 elsewhere. The signed average over the root
    has a closed form in delta."""
    grid = build_grid(2, 2, 4.0)
    values = np.zeros(grid.shape)
    values[3, 3] = 1.0
    values[:, :2] = -2.0
    return grid, StepFunction(grid, values.ravel())


def origin_chain(grid: Grid) -> CubeFamily:
    """Dyadic cubes containing the cell whose corner is the grid midpoint,
    coarsest first. On [-1,1]^n grids these are the cubes touching the
    origin from the positive orthant."""
    sides = grid.cells_per_axis >> np.arange(grid.depth + 1)
    corner = grid.cells_per_axis // 2 // sides * sides
    return CubeFamily(np.repeat(corner[:, None], grid.n, axis=1), sides)


def random_step_function(grid: Grid, rng: np.random.Generator, scale: float = 1.0) -> StepFunction:
    return StepFunction(grid, rng.normal(scale=scale, size=grid.num_cells))


def random_positive_weight(grid: Grid, rng: np.random.Generator, spread: float = 1.0) -> StepFunction:
    return StepFunction(grid, np.exp(rng.normal(scale=spread, size=grid.num_cells)))


# Calibration constants measured once on the built-in logarithmic fixtures
# (n = 2, delta = 1, depths 3..6, dyadic family) and then frozen with a few
# percent of headroom. Measured: 2.2021 / 1.4266 / 1.3682 / 1.4062. The
# inclusion thresholds bound probes (a) and (b); the chain probe (c) is
# asserted to increase strictly, so it needs no pinned level.
INCLUSION_THRESHOLDS = {
    "blo_neg_max": 2.25,
    "blo_neg_factor": 1.45,
    "bmo_pos_max": 1.40,
    "bmo_pos_factor": 1.45,
}

# verify_jn constants at depth d keep holding one depth deeper within this
# factor on the prefactor C (measured on the logarithmic family).
JN_DEPTH_TRANSFER_FACTOR = 2.0

# Asserted lower bound for the mid/lhs ratio in the weighted L1
# comparison. A 2000-case calibration run never measured a ratio below
# 1 - 1e-15: the product integral telescopes into a sum the sublinear
# Choquet integral dominates, so the classical 1/4 holds with room.
WEIGHTED_L1_MIN_RATIO = 0.25
