"""Weighted Calderon-Zygmund decomposition with content-normalized averages.

Stopping cubes are the maximal dyadic subcubes where the weighted average
of |f| first exceeds the threshold. Averages use the weighted set function
E -> integral of w over E, so the usual Lebesgue doubling bound is replaced
by the recorded parent ratios.

Both the descent and its check work on whole levels of dyadic subcubes
held as arrays (a ``CubeFamily`` per level, every cube of a level sharing
one side), so each level is one family call and ``CubeSpec`` objects are
made only for the cubes a result or a witness names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .content import ContentParams, cube_integrals
from .grid import CubeFamily, CubeSpec, Grid, StepFunction, dyadic_subcubes
from .reports import VerificationReport

__all__ = ["CZResult", "cz_decompose", "cz_verify"]


@dataclass(frozen=True)
class CZResult:
    selected: tuple[CubeSpec, ...]
    threshold: float
    ratios: tuple[float, ...]
    parent_ratios: tuple[float, ...]


def _weighted_averages(grid: Grid, absf, w, cubes, params: ContentParams):
    """Per cube of a family: (average of |f| against w-content, w-content of the cube)."""
    num, den = cube_integrals(grid, cubes, [(absf * w, None), (w, None)], params).T
    return num / den, den


def _validate_inputs(f: StepFunction, w: StepFunction, root: CubeSpec) -> None:
    if f.grid != w.grid:
        raise ValueError("f and w must live on the same grid")
    if np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive on every cell")
    root.validate(f.grid)
    if not root.is_dyadic():
        raise ValueError("decomposition root must be a dyadic cube")


def cz_decompose(
    f: StepFunction,
    w: StepFunction,
    root: CubeSpec,
    threshold: float,
    params: ContentParams,
) -> CZResult:
    """Select maximal dyadic subcubes of root with weighted |f|-average
    above the threshold. Requires the root average itself to be at most
    the threshold, so selection starts strictly below the root."""
    _validate_inputs(f, w, root)
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    grid = f.grid
    absf = np.abs(f.values)
    wv = w.values
    (root_avg,), (root_wc,) = _weighted_averages(grid, absf, wv, [root], params)
    if root_avg > threshold:
        raise ValueError(
            f"threshold {threshold} is below the root average {root_avg}"
        )

    # 2**n child offsets in corner order, so children come out sorted
    bits = np.indices((2,) * grid.n).reshape(grid.n, -1).T
    selected: list[CubeSpec] = []
    ratios: list[float] = []
    parent_ratios: list[float] = []
    # Level by level: the children of every unselected cube of a level are
    # averaged in one family call; selected children stop, the rest descend.
    corners = np.array([root.corner], dtype=np.int64)
    wcs = np.array([root_wc])
    side = root.side_cells
    while side > 1 and len(corners):
        side //= 2
        kids = (corners[:, None, :] + bits * side).reshape(-1, grid.n)
        avgs, kid_wcs = _weighted_averages(
            grid, absf, wv, CubeFamily(kids, np.full(len(kids), side)), params
        )
        over = avgs > threshold
        hits = np.flatnonzero(over)
        hits = hits[np.lexsort(kids[hits].T[::-1])]
        selected += [CubeSpec(c, side) for c in kids[hits].tolist()]
        ratios += (avgs[hits] / threshold).tolist()
        parent_ratios += (wcs[hits // len(bits)] / kid_wcs[hits]).tolist()
        corners, wcs = kids[~over], kid_wcs[~over]
    return CZResult(
        selected=tuple(selected),
        threshold=float(threshold),
        ratios=tuple(ratios),
        parent_ratios=tuple(parent_ratios),
    )


def cz_verify(
    f: StepFunction,
    w: StepFunction,
    root: CubeSpec,
    result: CZResult,
    params: ContentParams,
) -> VerificationReport:
    """Independently re-check a decomposition by scanning every dyadic
    subcube of the root: selected cubes must be exactly the maximal ones
    with average above the threshold, |f| must not exceed the threshold
    on unselected cells, and each selected average must respect the
    parent-ratio bound. The scan averages every level of subcubes in one
    family call and carries each cube's largest ancestor average down
    the levels as a running maximum."""
    _validate_inputs(f, w, root)
    grid = f.grid
    n = grid.n
    absf = np.abs(f.values)
    lam = result.threshold
    # Level L holds the (2**L)**n dyadic subcubes of side root_side >> L,
    # in corner order; the parent of position p is position p >> 1 of level L - 1.
    family = dyadic_subcubes(root.corner, root.side_cells)
    depth = root.side_cells.bit_length() - 1
    start = np.cumsum([0] + [1 << (n * L) for L in range(depth + 1)]).tolist()
    pos = (family.corners - root.corner) // family.sides[:, None]
    avg, _ = _weighted_averages(grid, absf, w.values, family, params)
    # above[i]: the largest average among cube i's strict ancestors
    above = np.full(len(avg), -np.inf)
    for L in range(1, depth + 1):
        level = slice(start[L], start[L + 1])
        parent = start[L - 1] + np.ravel_multi_index((pos[level] >> 1).T, (1 << (L - 1),) * n)
        above[level] = np.maximum(above[parent], avg[parent])
    maximal = (avg > lam) & ~(above > lam)
    expected = [family[i] for i in np.flatnonzero(maximal).tolist()]

    def index(cube: CubeSpec) -> int:
        """Position of a dyadic subcube of the root in the levels."""
        side, per_axis = cube.side_cells, root.side_cells // cube.side_cells
        rel = [c - r for c, r in zip(cube.corner, root.corner)]
        if (len(cube.corner) != n or side & (side - 1) or not per_axis
                or any(x % side or not 0 <= x < root.side_cells for x in rel)):
            raise ValueError(f"selected cube {cube.cube_id()} is not a dyadic subcube of the root")
        at = np.ravel_multi_index([x // side for x in rel], (per_axis,) * n)
        return start[per_axis.bit_length() - 1] + int(at)

    witnesses: list = []
    selection_ok = expected == list(result.selected)
    if not selection_ok:
        witnesses.append(
            {
                "issue": "selection mismatch",
                "expected": [c.cube_id() for c in expected],
                "got": [c.cube_id() for c in result.selected],
            }
        )

    covered = np.zeros(grid.shape, dtype=bool)
    disjoint_ok = True
    for cube in result.selected:
        region = covered[cube.slices()]
        if region.any():
            disjoint_ok = False
            witnesses.append({"issue": "overlap", "cube": cube.cube_id()})
        region[...] = True
    uncovered = root.mask(grid).reshape(grid.shape) & ~covered
    small_ok = bool(np.all(absf.reshape(grid.shape)[uncovered] <= lam + 1e-12))
    if not small_ok:
        bad = int(np.argmax((np.abs(f.values).reshape(grid.shape) * uncovered).ravel()))
        witnesses.append({"issue": "|f| above threshold off the selection", "cell": bad})

    ratio_ok = True
    max_ratio = 0.0
    found = [index(cube) for cube in result.selected]
    for cube, i, pratio in zip(result.selected, found, result.parent_ratios):
        cube_avg = float(avg[i])
        max_ratio = max(max_ratio, cube_avg / lam)
        if cube_avg > lam * pratio * (1 + 1e-12):
            ratio_ok = False
            witnesses.append(
                {"issue": "average beyond parent ratio", "cube": cube.cube_id()}
            )
    ancestors_ok = all(above[i] <= lam + 1e-12 for i in found)
    if not ancestors_ok:
        witnesses.append({"issue": "ancestor average above threshold"})

    passed = selection_ok and disjoint_ok and small_ok and ratio_ok and ancestors_ok
    return VerificationReport(
        check_name="cz-decomposition",
        params={
            "threshold": lam,
            "root": root.cube_id(),
            "delta": params.delta,
        },
        passed=passed,
        constants={
            "selected_count": len(result.selected),
            "max_average_ratio": max_ratio,
            "max_parent_ratio": max(result.parent_ratios, default=0.0),
        },
        witnesses=witnesses,
    )
