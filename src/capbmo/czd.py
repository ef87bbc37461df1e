"""Weighted Calderon-Zygmund decomposition with content-normalized averages.

Stopping cubes are the maximal dyadic subcubes where the weighted average
of |f| first exceeds the threshold. Averages use the weighted set function
E -> integral of w over E, so the usual Lebesgue doubling bound is replaced
by the recorded parent ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .content import ContentParams, cube_integrals
from .grid import CubeSpec, Grid, StepFunction
from .reports import VerificationReport

__all__ = ["CZResult", "cz_decompose", "cz_verify"]


@dataclass(frozen=True)
class CZResult:
    selected: tuple[CubeSpec, ...]
    threshold: float
    ratios: tuple[float, ...]
    parent_ratios: tuple[float, ...]


def _weighted_averages(grid: Grid, absf, w, cubes, params: ContentParams):
    """Per cube: (average of |f| against w-content, w-content of the cube)."""
    num, den = cube_integrals(grid, cubes, [(absf * w, None), (w, None)], params).T
    return (num / den).tolist(), den.tolist()


def _children(cube: CubeSpec) -> list[CubeSpec]:
    half = cube.side_cells // 2
    n = len(cube.corner)
    kids = []
    for bits in range(2**n):
        corner = tuple(
            cube.corner[a] + ((bits >> a) & 1) * half for a in range(n)
        )
        kids.append(CubeSpec(corner, half))
    kids.sort(key=lambda c: c.corner)
    return kids


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
    grid = f.grid
    absf = np.abs(f.values)
    wv = w.values
    (root_avg,), (root_wc,) = _weighted_averages(grid, absf, wv, [root], params)
    if root_avg > threshold:
        raise ValueError(
            f"threshold {threshold} is below the root average {root_avg}"
        )

    selected: list[CubeSpec] = []
    ratios: list[float] = []
    parent_ratios: list[float] = []
    # Level by level: the children of every unselected cube of a level are
    # averaged in one family call; selected children stop, the rest descend.
    level = [(root, root_wc)] if root.side_cells > 1 else []
    while level:
        kids = [(child, cube_wc) for cube, cube_wc in level for child in _children(cube)]
        avgs, wcs = _weighted_averages(grid, absf, wv, [c for c, _ in kids], params)
        level = []
        for (child, cube_wc), avg, wc in zip(kids, avgs, wcs):
            if avg > threshold:
                selected.append(child)
                ratios.append(avg / threshold)
                parent_ratios.append(cube_wc / wc)
            elif child.side_cells > 1:
                level.append((child, wc))
    order = sorted(
        range(len(selected)),
        key=lambda i: (-selected[i].side_cells, selected[i].corner),
    )
    return CZResult(
        selected=tuple(selected[i] for i in order),
        threshold=float(threshold),
        ratios=tuple(ratios[i] for i in order),
        parent_ratios=tuple(parent_ratios[i] for i in order),
    )


def _dyadic_subcubes(root: CubeSpec) -> list[CubeSpec]:
    out = [root]
    i = 0
    while i < len(out):
        if out[i].side_cells > 1:
            out.extend(_children(out[i]))
        i += 1
    return out


def _ancestors(cube: CubeSpec, stats: dict):
    """The strict dyadic ancestors of cube among the keys of stats, nearest first."""
    side = cube.side_cells
    while True:
        side *= 2
        parent = CubeSpec(tuple(c - c % side for c in cube.corner), side)
        if parent not in stats:
            return
        yield parent


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
    parent-ratio bound."""
    _validate_inputs(f, w, root)
    grid = f.grid
    absf = np.abs(f.values)
    lam = result.threshold
    cubes = _dyadic_subcubes(root)
    stats = dict(zip(cubes, zip(*_weighted_averages(grid, absf, w.values, cubes, params))))
    maximal = [
        c for c, (avg, _) in stats.items()
        if avg > lam and not any(stats[a][0] > lam for a in _ancestors(c, stats))
    ]
    key = lambda c: (-c.side_cells, c.corner)
    witnesses: list = []
    selection_ok = sorted(maximal, key=key) == list(result.selected)
    if not selection_ok:
        witnesses.append(
            {
                "issue": "selection mismatch",
                "expected": [c.cube_id() for c in sorted(maximal, key=key)],
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
    for cube, pratio in zip(result.selected, result.parent_ratios):
        avg, _ = stats[cube]
        max_ratio = max(max_ratio, avg / lam)
        if avg > lam * pratio * (1 + 1e-12):
            ratio_ok = False
            witnesses.append(
                {"issue": "average beyond parent ratio", "cube": cube.cube_id()}
            )
    ancestors_ok = all(
        stats[a][0] <= lam + 1e-12 for c in result.selected for a in _ancestors(c, stats)
    )
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
