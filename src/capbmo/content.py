"""Exact dyadic Hausdorff content, weighted content and the layer-cake integrator.

The content of a cell set E is the minimum of sum(side(Q_i)**delta) over
covers of E by dyadic subcubes of the root, computed by the tree
recursion c(Q) = min(side(Q)**delta, sum of child costs) with empty
subtrees at cost 0. Restricting covers to subcubes of the root loses
nothing: a dyadic cube strictly containing the root costs at least
root_side**delta, which the root cover already achieves. The same nesting
argument lets every computation run inside the minimal dyadic cube
containing the occupied cells, its frame (any dyadic cube meeting the set
either lies inside that cube or contains it and costs at least as much).

All integrals funnel through ``layer_cake``, which works on stacked
frame-local rows: row j of a (jobs, 2**(n*depth)) value array is
integrated over row j of a mask array of the same shape. One sort finds
every row's distinct positive thresholds t_1 < t_2 < ...; the occupancy
row {value >= t_k} of each threshold is reduced by ``kernels.reduce_tree``
in blocks of at most ``_ROW_CELLS`` leaf cells. The result is each job's
chain (``Chains``): its thresholds, the content H_k of each superlevel
set and one cell per threshold. The integral is the chain's layer-cake
sum of (t_k - t_{k-1}) * H_k, taken with ``math.fsum``; the centre
searches of ``oscillation`` read the chain itself.

Every integral rides on a cube family: ``cube_frames`` groups cubes by
frame depth into ``CubeFrames``, whose rows of different cubes share
layer-cake calls. ``cube_integrals`` takes jobs common to every cube,
``superlevel_integrals`` per-cube level sets, and ``masked_integral_many``
any (values, mask) jobs, on the one-cube family of their mask union's
frame. Callers stack at most ``_JOB_CELLS`` cells of job rows per call
(``job_chunks``). Both budgets bound memory only: a job's thresholds,
frame and exactly rounded sum do not depend on which call it rides in,
so results do not either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .grid import CubeSpec, DyadicSet, Grid, StepFunction

__all__ = ["ContentParams", "dyadic_content", "weighted_content", "cube_content"]

# Leaf cells per tree reduction: bounds the float64 threshold-row workspace.
_ROW_CELLS = 1 << 17
# Cells of stacked job rows per integrator call: bounds the value, mask
# and threshold arrays of one call, whatever the number of jobs.
_JOB_CELLS = 1 << 14


@dataclass(frozen=True)
class ContentParams:
    """Dimension parameter delta of the content, 0 < delta <= n."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        object.__setattr__(self, "delta", float(self.delta))

    def validate(self, grid: Grid) -> None:
        if self.delta > grid.n:
            raise ValueError(f"delta={self.delta} exceeds the dimension {grid.n}")


@dataclass(frozen=True)
class _Frame:
    """A dyadic subtree: aligned corner plus subtree depth (side 2**depth cells)."""

    corner: tuple[int, ...]
    depth: int

    @property
    def side_cells(self) -> int:
        return 1 << self.depth

    def slices(self) -> tuple[slice, ...]:
        side = self.side_cells
        return tuple(slice(c, c + side) for c in self.corner)


def _aligned_frame(lo, hi) -> _Frame:
    """Minimal dyadic cube containing cell range [lo, hi] per axis: the
    smallest j with lo >> j == hi >> j on every axis."""
    j = max(int(a ^ b).bit_length() for a, b in zip(lo, hi))
    return _Frame(tuple(int(c) >> j << j for c in lo), j)


def frame_for_cube(grid: Grid, cube: CubeSpec) -> _Frame:
    cube.validate(grid)
    return _aligned_frame(cube.corner, [c + cube.side_cells - 1 for c in cube.corner])


def _frame_for_mask(grid: Grid, membership: np.ndarray) -> _Frame:
    idx = np.flatnonzero(membership)
    multi = np.unravel_index(idx, grid.shape)
    return _aligned_frame([m.min() for m in multi], [m.max() for m in multi])


def level_caps(grid: Grid, sub_depth: int, delta: float) -> np.ndarray:
    """caps[k] = (side length of a level-k cube of the subtree)**delta.

    Sides are exact powers of two times the cell side, so identical sets
    evaluated in different frames see bit-identical cap values.
    """
    sides = np.ldexp(grid.cell_side, sub_depth - np.arange(sub_depth + 1))
    return np.power(sides, delta)


def job_chunks(count: int, row_cells: int):
    """Slices of at most _JOB_CELLS // row_cells jobs (at least one) covering count jobs."""
    step = max(1, _JOB_CELLS // row_cells)
    return [slice(s, s + step) for s in range(0, count, step)]


@dataclass(frozen=True)
class Chains:
    """The chains of one layer-cake call.

    Job j owns the slice bounds[j]:bounds[j + 1] of the flat arrays: its
    thresholds t_1 <= t_2 <= ... ascending, contents[k] = H_k, the content
    of the k-th superlevel set, and cells[k], one frame-local cell whose
    value is t_k.
    """

    thresholds: np.ndarray
    contents: np.ndarray
    cells: np.ndarray
    bounds: np.ndarray

    def integrals(self) -> np.ndarray:
        """Each job's layer-cake sum of (t_k - t_{k-1}) * H_k, t_0 = 0."""
        below = np.empty_like(self.thresholds)
        below[1:] = self.thresholds[:-1]
        starts = self.bounds[:-1]
        below[starts[starts < len(below)]] = 0.0
        terms = ((self.thresholds - below) * self.contents).tolist()
        b = self.bounds.tolist()
        return np.array([math.fsum(terms[lo:hi]) for lo, hi in zip(b[:-1], b[1:])])


def layer_cake(
    values: np.ndarray, masks: np.ndarray, ndim: int, depth: int, caps: np.ndarray,
    keys: np.ndarray | None = None,
) -> Chains:
    """The chain of each row of values over the same row of masks.

    Rows are frame-local, shape (jobs, 2**(ndim*depth)); caps are the
    frame's level caps. Without keys only positive values inside the mask
    form levels, one per distinct value. With keys every masked cell does,
    ranked by (value, key): cells of equal value and different keys get
    nested levels of the same threshold, which add zero terms to the sum.
    """
    jobs, cells = values.shape
    by_job = np.arange(jobs)[:, None]
    if keys is None:
        masks = masks & (values > 0)
        keys = np.zeros(values.shape)
    levels = np.where(masks, values, -1.0)
    order = np.lexsort((keys, levels))
    levels = levels[by_job, order]
    ranked = keys[by_job, order]
    distinct = levels >= 0
    distinct[:, 1:] &= (levels[:, 1:] != levels[:, :-1]) | (ranked[:, 1:] != ranked[:, :-1])
    # rank[j, x]: index of cell x's level in job j's chain (-1 when it has
    # none), so level k of job j occupies {x: rank[j, x] >= k}.
    sorted_rank = np.cumsum(distinct, axis=1, dtype=np.int32) - 1
    rank = np.empty_like(sorted_rank)
    rank[by_job, order] = sorted_rank
    job, col = np.nonzero(distinct)
    level = sorted_rank[job, col]
    contents = np.empty(len(job))
    step = max(1, _ROW_CELLS // cells)
    for s in range(0, len(job), step):
        occ = rank[job[s : s + step]] >= level[s : s + step, None]
        leaf = occ.astype(np.float64)
        leaf *= caps[depth]
        contents[s : s + step] = kernels.reduce_tree(leaf, ndim, depth, caps)
    return Chains(
        thresholds=levels[job, col],
        contents=contents,
        cells=order[job, col],
        bounds=np.searchsorted(job, np.arange(jobs + 1)),
    )


@lru_cache(maxsize=64)
def _frame_cells(shape: tuple[int, ...], depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Local cell coordinates of a depth-`depth` frame and their flat grid
    indices from its corner; shared read-only by every frame of that size."""
    side = 1 << depth
    local = np.indices((side,) * len(shape)).reshape(len(shape), -1).T
    base = np.ravel_multi_index(local.T, shape)
    local.setflags(write=False)
    base.setflags(write=False)
    return local, base


class CubeFrames:
    """Frame-local rows for cubes whose frames share one depth.

    Each cube is evaluated inside its own frame, as a one-cube call would
    be, so rows of different cubes reduce in the same tree pass.
    """

    def __init__(self, grid: Grid, cubes: list[CubeSpec], frames: list[_Frame],
                 params: ContentParams):
        self.ndim = grid.n
        self.depth = frames[0].depth
        self.caps = level_caps(grid, self.depth, params.delta)
        self._local, self._base = _frame_cells(grid.shape, self.depth)
        self.cells = len(self._local)
        corners = np.array([fr.corner for fr in frames], dtype=np.int64)
        self._offset = np.ravel_multi_index(corners.T, grid.shape)
        self._lo = np.array([Q.corner for Q in cubes], dtype=np.int64) - corners
        self._hi = self._lo + np.array([Q.side_cells for Q in cubes], dtype=np.int64)[:, None]

    def rows(self, flat: np.ndarray, which: np.ndarray) -> np.ndarray:
        """(len(which), cells) frame-local values of a flat grid array."""
        return flat[self._offset[which][:, None] + self._base]

    def masks(self, which: np.ndarray) -> np.ndarray:
        """(len(which), cells) membership of each cube within its frame."""
        out = np.ones((len(which), self.cells), dtype=bool)
        for a in range(self.ndim):
            x = self._local[:, a]
            out &= (x >= self._lo[which, a, None]) & (x < self._hi[which, a, None])
        return out

    def chains(self, values: np.ndarray, masks: np.ndarray, keys=None) -> Chains:
        return layer_cake(values, masks, self.ndim, self.depth, self.caps, keys)

    def integrate(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        return self.chains(values, masks).integrals()


def cube_frames(grid: Grid, cubes, params: ContentParams):
    """Group cubes by frame depth: a list of (positions in cubes, CubeFrames)."""
    params.validate(grid)
    groups: dict[int, tuple[list, list]] = {}
    for i, Q in enumerate(cubes):
        frame = frame_for_cube(grid, Q)
        positions, frames = groups.setdefault(frame.depth, ([], []))
        positions.append(i)
        frames.append(frame)
    return [
        (positions, CubeFrames(grid, [cubes[i] for i in positions], frames, params))
        for positions, frames in groups.values()
    ]


def cube_integrals(grid: Grid, cubes, jobs, params: ContentParams) -> np.ndarray:
    """(len(cubes), len(jobs)) Choquet integrals of each job over each cube.

    A job is a flat (values, mask) pair, mask None for the whole cube; it
    is integrated over cube cap mask. Rows are built one chunk at a time.
    """
    jobs = [(np.asarray(v, dtype=np.float64), m if m is None else np.asarray(m, dtype=bool))
            for v, m in jobs]
    out = np.empty((len(cubes), len(jobs)))
    for positions, frames in cube_frames(grid, cubes, params):
        k, total = len(positions), len(jobs) * len(positions)
        for sl in job_chunks(total, frames.cells):
            # (job, cube) pairs run job-major, so each job is one run of the chunk
            job, which = np.divmod(np.arange(sl.start, min(sl.stop, total)), k)
            inside = frames.masks(which)
            values = []
            for j in range(job[0], job[-1] + 1):
                run = slice(max(j * k - sl.start, 0), (j + 1) * k - sl.start)
                v, m = jobs[j]
                values.append(frames.rows(v, which[run]))
                if m is not None:
                    inside[run] &= frames.rows(m, which[run])
            out[np.asarray(positions)[which], job] = frames.integrate(np.concatenate(values), inside)
    return out


def superlevel_integrals(grid: Grid, cubes, values, centers, levels, weights, params):
    """Per cube Q_i, the integrals of weights over Q_i cap {|values - centers[i]| > t}
    for each t in levels[i], every (cube, level) job stacked on the family's rows."""
    centers = np.asarray(centers, dtype=np.float64)
    out = [None] * len(cubes)
    for positions, frames in cube_frames(grid, cubes, params):
        counts = [len(levels[i]) for i in positions]
        local = np.repeat(np.arange(len(positions)), counts)
        thresholds = np.concatenate([levels[i] for i in positions])
        shift = centers[positions]
        vals = np.empty(len(local))
        for sl in job_chunks(len(local), frames.cells):
            which = local[sl]
            dev = np.abs(frames.rows(values, which) - shift[which, None])
            masks = frames.masks(which) & (dev > thresholds[sl, None])
            vals[sl] = frames.integrate(frames.rows(weights, which), masks)
        for i, part in zip(positions, np.split(vals, np.cumsum(counts)[:-1])):
            out[i] = part
    return out


def masked_integral_many(
    grid: Grid, jobs: list[tuple[np.ndarray, np.ndarray]], params: ContentParams
) -> np.ndarray:
    """Layer-cake Choquet integrals for several (values, mask) jobs at once.

    Each job integrates its non-negative values over its mask against the
    dyadic content. The jobs ride on the one-cube family of the frame of
    their mask union, so their threshold rows batch into the same calls.
    """
    params.validate(grid)
    union = np.zeros(grid.num_cells, dtype=bool)
    for _, mask in jobs:
        union |= mask
    if not union.any():
        return np.zeros(len(jobs))
    frame = _frame_for_mask(grid, union)
    return cube_integrals(grid, [CubeSpec(frame.corner, frame.side_cells)], jobs, params)[0]


def masked_integral(
    grid: Grid, values: np.ndarray, mask: np.ndarray, params: ContentParams
) -> float:
    """Choquet integral of non-negative values over the masked cells."""
    if not mask.any():
        return 0.0
    return float(masked_integral_many(grid, [(values, mask)], params)[0])


def dyadic_content(grid: Grid, E: DyadicSet, params: ContentParams) -> float:
    """Minimal dyadic-cover cost of E; exact up to rounding of the powers."""
    params.validate(grid)
    if E.grid != grid:
        raise ValueError("set was built on a different grid")
    if E.is_empty():
        return 0.0
    return masked_integral(grid, np.ones(grid.num_cells), E.membership, params)


def weighted_content(
    grid: Grid, w: StepFunction, E: DyadicSet, params: ContentParams
) -> float:
    """w(E): the Choquet integral of w * 1_E, monotone in both E and w."""
    if w.grid != grid or E.grid != grid:
        raise ValueError("weight or set was built on a different grid")
    if np.any(w.values < 0):
        raise ValueError("weight must be non-negative everywhere")
    params.validate(grid)
    if E.is_empty():
        return 0.0
    return masked_integral(grid, w.values, E.membership, params)


def cube_content(grid: Grid, cube: CubeSpec, params: ContentParams) -> float:
    """Content of a full cube of cells (not necessarily dyadic)."""
    params.validate(grid)
    return masked_integral(grid, np.ones(grid.num_cells), cube.mask(grid), params)
