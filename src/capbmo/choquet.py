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

from .content import ContentParams, cube_content, cube_integrals, masked_integral
from .grid import CubeSpec, DyadicSet, Grid, StepFunction

__all__ = [
    "SignedAverage",
    "EssentialBounds",
    "JensenSides",
    "choquet",
    "choquet_wrt",
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


def choquet_wrt(
    f: StepFunction,
    region: DyadicSet,
    mu: Callable[[DyadicSet], float],
) -> float:
    """Layer-cake sum with a monotone set function mu in place of the content."""
    if f.grid != region.grid:
        raise ValueError("function and region live on different grids")
    inside = f.values[region.membership]
    if inside.size and inside.min() < 0:
        raise ValueError("choquet_wrt requires f >= 0 on the region")
    if region.is_empty():
        return 0.0
    thresholds = np.unique(inside[inside > 0])
    if thresholds.size == 0:
        return 0.0
    terms = []
    prev = 0.0
    for t in thresholds:
        level = DyadicSet(f.grid, region.membership & (f.values >= t))
        terms.append((t - prev) * mu(level))
        prev = t
    return math.fsum(terms)


def signed_average(f: StepFunction, Q: CubeSpec, params: ContentParams) -> SignedAverage:
    return signed_averages(f, [Q], params)[0]


def signed_averages(f: StepFunction, cubes, params: ContentParams) -> list[SignedAverage]:
    """signed_average on every cube, four jobs per cube in one family call."""
    pos, neg = f.values >= 0, f.values < 0
    ones = np.ones(f.grid.num_cells)
    vals = cube_integrals(
        f.grid, cubes, [(f.values, pos), (-f.values, neg), (ones, pos), (ones, neg)], params
    )
    pos_int, neg_int, pos_cont, neg_cont = vals.T
    value = (pos_int - neg_int) / (pos_cont + neg_cont)
    return [
        SignedAverage(
            value=value[k],
            pos_part_integral=float(pos_int[k]),
            neg_part_integral=float(neg_int[k]),
            pos_content=float(pos_cont[k]),
            neg_content=float(neg_cont[k]),
        )
        for k in range(len(cubes))
    ]


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
