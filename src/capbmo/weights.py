"""Content-maximal operator and capacitary Muckenhoupt weight machinery.

Constants are suprema over a named cube family; callers that compare two
weight quantities must use the same family on both sides so the family
bias cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choquet import weighted_choquet
from .content import ContentParams, cube_integrals, masked_integral
from .grid import CubeFamilyPolicy, CubeSpec, Grid, StepFunction, enumerate_cubes, full_set
from .reports import InvariantViolation

__all__ = [
    "WeightReport",
    "A1Factorization",
    "INFINITE_CONSTANT",
    "maximal_function",
    "ap_constant",
    "a1_constant",
    "power_maximal_weight",
    "a1_factorize",
    "weighted_l1_comparison",
]

# Constants beyond this are reported as infinite (degenerate inputs only;
# strictly positive weights on finite grids always stay below it).
INFINITE_CONSTANT = 1e15

_DEFAULT_GAMMA_GRID = tuple(2.0**-k for k in range(0, 11))


@dataclass(frozen=True)
class WeightReport:
    ap_constant: float
    p: float
    worst_cube: CubeSpec | None
    policy: CubeFamilyPolicy


@dataclass(frozen=True)
class A1Factorization:
    """w = b * (M base)**alpha with base = w**(1+gamma), alpha = 1/(1+gamma)."""

    b: StepFunction
    base: StepFunction
    alpha: float
    gamma: float
    b_lower_bound: float
    base_a1_constant: float


def _require_positive(w: StepFunction) -> None:
    if np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive on every cell")


def cube_averages(grid: Grid, value_arrays, cubes, params: ContentParams) -> np.ndarray:
    """(len(cubes), len(value_arrays)) content-normalized averages of
    non-negative arrays on each cube, in one family call."""
    jobs = [(arr, None) for arr in value_arrays] + [(np.ones(grid.num_cells), None)]
    vals = cube_integrals(grid, cubes, jobs, params)
    return vals[:, :-1] / vals[:, -1:]


def maximal_function(
    w: StepFunction,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
) -> StepFunction:
    """M w: per cell, the largest content-average of w over family cubes
    containing the cell. Families include single-cell cubes, so M w >= w."""
    grid = w.grid
    if np.any(w.values < 0):
        raise ValueError("maximal_function expects a non-negative weight")
    family = enumerate_cubes(grid, policy)
    return _largest_averages(grid, family, cube_averages(grid, [w.values], family, params)[:, 0])


def _largest_averages(grid: Grid, family, avgs: np.ndarray) -> StepFunction:
    """Per cell, the largest of the family cubes' averages avgs over the
    cubes containing it: M w from the averages of w."""
    out = np.zeros(grid.shape)
    for corner, side, avg in zip(family.corners.tolist(), family.sides.tolist(), avgs.tolist()):
        region = out[tuple(slice(c, c + side) for c in corner)]
        np.maximum(region, avg, out=region)
    return StepFunction(grid, out.ravel())


def ap_constant(
    w: StepFunction,
    p: float,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
) -> WeightReport:
    """[w]_{A_p} over the family: sup of (avg w) * (avg w**(-1/(p-1)))**(p-1)."""
    _require_positive(w)
    if not 1 < p < math.inf:
        raise ValueError("ap_constant requires a finite p > 1")
    grid = w.grid
    dual = w.values ** (-1.0 / (p - 1.0))
    family = enumerate_cubes(grid, policy)
    return _ap_report(cube_averages(grid, [w.values, dual], family, params), p, family, policy)


def _ap_report(avgs: np.ndarray, p: float, family, policy: CubeFamilyPolicy) -> WeightReport:
    """The A_p report of the (avg w, avg w**(-1/(p-1))) rows of a family."""
    # scalar pow per cube: NumPy's array ** may differ from it by an ulp
    products = [a * d ** (p - 1.0) for a, d in avgs.tolist()]
    # Choquet-Hoelder gives product >= 1 per cube; a failure here means
    # a broken content, not a property of the weight.
    low = np.flatnonzero(~(np.array(products) >= 1.0 - 1e-9))
    if low.size:
        i = int(low[0])
        raise InvariantViolation(
            f"A_p product {products[i]} < 1 on cube {family[i].cube_id()}",
            {"cube": family[i].cube_id(), "product": products[i], "avg_w": float(avgs[i, 0]),
             "avg_dual": float(avgs[i, 1]), "p": float(p)},
        )
    i = int(np.argmax(products))
    value = math.inf if products[i] > INFINITE_CONSTANT else float(products[i])
    return WeightReport(ap_constant=value, p=float(p), worst_cube=family[i], policy=policy)


def a1_constant(
    w: StepFunction,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
) -> WeightReport:
    """[w]_{A_1} over the family: max over cells of M w / w."""
    _require_positive(w)
    return _a1_report(w, maximal_function(w, params, policy), policy)


def _a1_report(w: StepFunction, mw: StepFunction, policy: CubeFamilyPolicy) -> WeightReport:
    """The A_1 report of w given its maximal function mw."""
    ratios = mw.values / w.values
    idx = int(np.argmax(ratios))
    best = float(ratios[idx])
    cell = tuple(int(c) for c in np.unravel_index(idx, w.grid.shape))
    value = math.inf if best > INFINITE_CONSTANT else best
    return WeightReport(
        ap_constant=value, p=1.0, worst_cube=CubeSpec(cell, 1), policy=policy
    )


def power_maximal_weight(
    g: StepFunction,
    alpha: float,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
) -> StepFunction:
    """(M |g|)**alpha, the canonical A_1 weight generator for alpha in (0,1)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    mg = maximal_function(StepFunction(g.grid, np.abs(g.values)), params, policy)
    if np.any(mg.values <= 0):
        raise ValueError("g must not be identically zero")
    return StepFunction(g.grid, mg.values**alpha)


def a1_factorize(
    w: StepFunction,
    params: ContentParams,
    gamma_grid=_DEFAULT_GAMMA_GRID,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
    cap: float = 1e6,
) -> A1Factorization:
    """Split w = b * (M base)**alpha with base = w**(1+gamma).

    Picks the largest gamma in the grid whose power weight w**(1+gamma)
    still has A_1 constant at most cap. b = w * (M base)**(-alpha) is at
    most 1 because M base >= base pointwise, and at least
    (A_1 constant)**(-alpha) because M base <= const * base.
    """
    _require_positive(w)
    if not gamma_grid:
        raise ValueError("gamma_grid must be non-empty")
    grid = w.grid
    for gamma in sorted(gamma_grid, reverse=True):
        base = StepFunction(grid, w.values ** (1.0 + gamma))
        _require_positive(base)
        m_base = maximal_function(base, params, policy)
        report = _a1_report(base, m_base, policy)
        if report.ap_constant <= cap:
            alpha = 1.0 / (1.0 + gamma)
            b_vals = w.values * m_base.values**-alpha
            return A1Factorization(
                b=StepFunction(grid, b_vals),
                base=base,
                alpha=alpha,
                gamma=float(gamma),
                b_lower_bound=float(b_vals.min()),
                base_a1_constant=report.ap_constant,
            )
    raise ValueError(f"A_1 constant exceeds cap {cap} for every gamma in the grid")


def weighted_l1_comparison(
    f: StepFunction,
    w: StepFunction,
    params: ContentParams,
) -> tuple[float, float]:
    """Both sides of the weighted L1 comparison on the root.

    lhs integrates the product |f| * w against the content; mid integrates
    |f| against the weighted set function E -> integral of w over E. The
    two are comparable but not equal: callers record the ratio.
    """
    _require_positive(w)
    grid = f.grid
    absf = np.abs(f.values)
    lhs = masked_integral(grid, absf * w.values, np.ones(grid.num_cells, dtype=bool), params)
    mid = weighted_choquet(f.with_values(absf), full_set(grid), w, params)
    return float(lhs), float(mid)
