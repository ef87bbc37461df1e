"""Choquet integration, signed averages, essential bounds, Jensen sides.

The Choquet integral of a non-negative step function f over a region E is
integral_0^inf content({x in E: f(x) > t}) dt, which for step functions
collapses to the layer-cake sum over the distinct positive values of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .content import (
    ContentParams, cube_content, cube_frames, cube_integrals, masked_integral, superlevel_integrals,
)
from .grid import CubeFamily, CubeSpec, DyadicSet, Grid, StepFunction

__all__ = [
    "SignedAverage",
    "EssentialBounds",
    "JensenSides",
    "choquet",
    "choquet_wrt",
    "weighted_choquet",
    "signed_average",
    "essential_bounds",
    "jensen_sides",
]

# Beyond this magnitude exp() is evaluated in log space.
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class SignedAverage:
    """The signed integral average of f over a cube.

    value = (pos_part_integral - neg_part_integral) / (pos_content + neg_content)
    where the positive part lives on {f >= 0} and the negative part on
    {f < 0}, both intersected with the cube.
    """

    value: float
    pos_part_integral: float
    neg_part_integral: float
    pos_content: float
    neg_content: float


@dataclass(frozen=True)
class EssentialBounds:
    esinf: float
    esup: float


class JensenSides(NamedTuple):
    """Both sides of the two exponential Jensen inequalities on a cube.

    lhs_pos = exp(avg), rhs_pos = (1/content(Q)) * (integral of exp(f)
    over Q cap {f >= 0} plus over Q cap {f < 0}); the *_neg pair uses
    exp(-f) and exp(-avg). When log_domain is set, all four fields carry
    logarithms of those quantities instead (used once any |value| exceeds
    700, where exp overflows).
    """

    lhs_pos: float
    rhs_pos: float
    lhs_neg: float
    rhs_neg: float
    log_domain: bool = False


def choquet(f: StepFunction, region: DyadicSet, params: ContentParams) -> float:
    """Layer-cake integral of f over the region; f must be >= 0 there."""
    if f.grid != region.grid:
        raise ValueError("function and region live on different grids")
    inside = f.values[region.membership]
    if inside.size and inside.min() < 0:
        raise ValueError("choquet requires f >= 0 on the region")
    if region.is_empty():
        return 0.0
    return masked_integral(f.grid, f.values, region.membership, params)


def _layer_thresholds(f: StepFunction, region: DyadicSet, name: str) -> np.ndarray:
    """The distinct positive values t_1 < t_2 < ... of f on the region."""
    if f.grid != region.grid:
        raise ValueError("function and region live on different grids")
    inside = f.values[region.membership]
    if inside.size and inside.min() < 0:
        raise ValueError(f"{name} requires f >= 0 on the region")
    return np.unique(inside[inside > 0])


def _layer_sum(thresholds: np.ndarray, measures) -> float:
    """math.fsum of (t_k - t_{k-1}) * measures[k], t_0 = 0."""
    return math.fsum((thresholds - np.append(0.0, thresholds[:-1])) * np.asarray(measures))


def choquet_wrt(
    f: StepFunction,
    region: DyadicSet,
    mu: Callable[[DyadicSet], float],
) -> float:
    """Layer-cake sum with a monotone set function mu in place of the content."""
    thresholds = _layer_thresholds(f, region, "choquet_wrt")
    return _layer_sum(
        thresholds, [mu(DyadicSet(f.grid, region.membership & (f.values >= t))) for t in thresholds]
    )


def weighted_choquet(
    f: StepFunction, region: DyadicSet, w: StepFunction, params: ContentParams
) -> float:
    """choquet_wrt with mu = the w-weighted content w(.).

    The w-contents of the level sets {f >= t_k} are the root cube's chain
    of level sets of f on the region (0 outside it) at its positive levels,
    each the float that ``weighted_content`` gives for that set alone.
    """
    thresholds = _layer_thresholds(f, region, "weighted_choquet")
    if w.grid != f.grid:
        raise ValueError("weight lives on a different grid")
    if np.any(w.values < 0):
        raise ValueError("weight must be non-negative everywhere")
    params.validate(f.grid)
    if thresholds.size == 0:
        return 0.0
    inside = np.where(region.membership, f.values, 0.0)
    root = cube_frames(f.grid, CubeFamily.of([CubeSpec.root(f.grid)]), params)
    sets = superlevel_integrals(root, inside, [0.0], w.values)
    return _layer_sum(thresholds, sets.values[sets.levels > 0])


def signed_average(f: StepFunction, Q: CubeSpec, params: ContentParams) -> SignedAverage:
    value, parts = signed_averages(f, [Q], params)
    return SignedAverage(value[0], *parts[0].tolist())


def signed_averages(f: StepFunction, cubes, params: ContentParams) -> tuple[np.ndarray, np.ndarray]:
    """(values, parts): the signed average of f on every cube and its (N, 4)
    positive and negative part integrals and contents, in SignedAverage's
    field order; four jobs per cube in one family call."""
    pos, neg = f.values >= 0, f.values < 0
    ones = np.ones(f.grid.num_cells)
    parts = cube_integrals(
        f.grid, cubes, [(f.values, pos), (-f.values, neg), (ones, pos), (ones, neg)], params
    )
    pos_int, neg_int, pos_cont, neg_cont = parts.T
    return (pos_int - neg_int) / (pos_cont + neg_cont), parts


def essential_bounds(f: StepFunction, Q: CubeSpec) -> EssentialBounds:
    """Capacitary essential bounds; every cell has positive content, so
    these are the plain min and max of the cell values on Q.

    The infimum ranges over all real thresholds, so sign-changing f gets
    a negative esinf (the variant restricted to positive thresholds would
    degenerate for such f and is deliberately not used).
    """
    inside = f.values[Q.mask(f.grid)]
    return EssentialBounds(esinf=float(inside.min()), esup=float(inside.max()))


def cube_choquet(
    grid: Grid, values: np.ndarray, cube: CubeSpec, params: ContentParams
) -> float:
    """Integral of non-negative cell values over a cube."""
    return masked_integral(grid, values, cube.mask(grid), params)


def jensen_sides(f: StepFunction, Q: CubeSpec, params: ContentParams) -> JensenSides:
    grid = f.grid
    avg = signed_average(f, Q, params).value
    mask = Q.mask(grid)
    pos_mask = mask & (f.values >= 0)
    neg_mask = mask & (f.values < 0)
    norm = cube_content(grid, Q, params)
    peak = max(np.abs(f.values[mask]).max(), abs(avg))
    if peak <= _EXP_LIMIT:
        # only the cube's cells enter; values outside it may overflow exp
        ef = np.zeros(grid.num_cells)
        enf = np.zeros(grid.num_cells)
        ef[mask] = np.exp(f.values[mask])
        enf[mask] = np.exp(-f.values[mask])
        a, b, c, d = cube_integrals(
            grid, [Q], [(ef, pos_mask), (ef, neg_mask), (enf, pos_mask), (enf, neg_mask)], params
        )[0]
        return JensenSides(
            lhs_pos=math.exp(avg),
            rhs_pos=(a + b) / norm,
            lhs_neg=math.exp(-avg),
            rhs_neg=(c + d) / norm,
        )
    # Log domain: integral of exp(g) over a mask is exp(m) times the
    # integral of exp(g - m) by positive homogeneity; with m the max of g
    # on the mask nothing overflows and the top cell keeps the sum positive.
    log_parts = []
    for sign in (1.0, -1.0):
        part_logs = []
        for part in (pos_mask, neg_mask):
            if not part.any():
                part_logs.append(-math.inf)
                continue
            g = sign * f.values
            m = g[part].max()
            scaled = np.exp(np.where(part, g - m, 0.0))
            integral = cube_integrals(grid, [Q], [(scaled, part)], params)[0, 0]
            part_logs.append(m + math.log(integral))
        log_parts.append(np.logaddexp(part_logs[0], part_logs[1]) - math.log(norm))
    return JensenSides(
        lhs_pos=avg,
        rhs_pos=float(log_parts[0]),
        lhs_neg=-avg,
        rhs_neg=float(log_parts[1]),
        log_domain=True,
    )
