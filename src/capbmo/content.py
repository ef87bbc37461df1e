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
every row's distinct positive thresholds t_1 < t_2 < ... and ranks each
cell by the last threshold it reaches, so that the k-th superlevel set is
{rank >= k}. Its content H_k comes from one of two reductions of the same
tree, picked per call by ``_sparse_cheaper``: dense, one occupancy row per
threshold through ``kernels.reduce_tree`` in blocks of at most
``_ROW_CELLS`` leaf cells, costing thresholds * cells; or sparse, the
whole chain at once from the rank array through ``kernels.reduce_ranks``,
costing one sort of the occupied cells, whose parents it builds in
closed form, and then 2**n lookups per entry on each level above, at
most one entry per occupied cell. Both add the same children in the
same order, so every H_k is the same float either way and the choice
changes only the time. A cube's weighted level sets are nested masks of
one weight row: ``superlevel_integrals`` passes its row ranked by
``rank_rows`` and its nest row (each cell's deviation's index among the
cube's, so the k-th set is {nest >= k}), and one sort of integer keys
gives every set's levels. The result is each job's chain (``Chains``):
its thresholds, the content H_k of each superlevel set and one cell per
threshold. The integral is the chain's layer-cake sum of (t_k - t_{k-1})
* H_k, rounded once: ``math.fsum``, or one IEEE add for jobs of at most
two terms, which is the same float; the centre searches of
``oscillation`` read the chain itself.

Every integral rides on a cube family, a ``CubeFamily`` of corner and
side arrays: ``cube_frames`` checks it against the grid and finds every
frame with ``_frames`` (which masks share), all in whole-array
operations, for one ``CubeFrames``. Its ``chunks`` groups any request of
cubes by frame depth, at most ``_JOB_CELLS`` cells of job rows per
layer-cake call, so no caller sees a depth group. ``cube_integrals``
takes jobs common to every cube, ``superlevel_integrals`` each cube's
chain of level sets of |f - c| (``LevelSets``, which ``LevelSets.at``
reads at any level), and ``masked_integral_many`` any jobs, on the
one-cube family of their mask union's frame. Both budgets bound memory
only: a job's thresholds, frame and exactly rounded sum do not depend
on which call it rides in, so results do not either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .grid import CubeFamily, CubeSpec, DyadicSet, Grid, StepFunction

__all__ = ["ContentParams", "dyadic_content", "weighted_content", "cube_content"]

# Leaf cells per tree reduction, dense rows or a nested one's sets: bounds its workspace.
_ROW_CELLS = 1 << 17
# Cost of one sparse entry per tree level and child, in dense leaf cells
# (see _sparse_cheaper): the break-even of timing both reductions on
# every layer-cake call of the benchmark workloads.
_SPARSE_COST = 5.0
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
        # the caps' power, a normal float; every cube's side lies between the cell's and the root's
        with np.errstate(over="ignore", under="ignore"):
            lo, hi = np.power([grid.cell_side, grid.root_side], self.delta)
        if not (lo >= np.finfo(float).tiny and hi < math.inf):
            raise ValueError(f"delta={self.delta} takes side**delta out of float range on this grid")


def _frames(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(corners, depths) of the minimal dyadic cubes holding the boxes of
    cells lo[i]..hi[i], both (N, n): the smallest j with lo >> j == hi >> j
    on every axis, the bit length of the OR over axes of lo ^ hi, which
    np.frexp reads exactly (cell indices are far below 2**53)."""
    depth = np.frexp(np.bitwise_or.reduce(lo ^ hi, axis=1))[1].astype(np.int64)
    shift = depth[:, None]
    return lo >> shift << shift, depth


def _frame_for_mask(grid: Grid, membership: np.ndarray) -> tuple[np.ndarray, int]:
    """(corner, depth) of the frame of the bounding box of a non-empty mask."""
    cells = np.array(np.unravel_index(np.flatnonzero(membership), grid.shape))
    corners, depth = _frames(cells.min(axis=1)[None], cells.max(axis=1)[None])
    return corners[0], int(depth[0])


@lru_cache(maxsize=256)
def _caps(cell_side: float, depth: int, delta: float) -> np.ndarray:
    """caps[k] = (side of a level-k cube of a depth-`depth` subtree)**delta,
    read-only and shared. Sides are exact powers of two times the cell side,
    so identical sets evaluated in different frames see bit-identical caps."""
    caps = np.power(np.ldexp(cell_side, depth - np.arange(depth + 1)), delta)
    caps.setflags(write=False)
    return caps


def row_unique(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique of each row with NaN dropped: (rows, count), row r's
    distinct values ascending in its first count[r] entries, NaN after."""
    rows = np.sort(rows, axis=1)
    keep = ~np.isnan(rows)
    keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    rows[~keep] = np.nan
    return np.sort(rows, axis=1), keep.sum(axis=1)


def _sparse_cheaper(thresholds: int, cells: int, occupied: int, ndim: int, depth: int) -> bool:
    """Whether a layer-cake call reduces its chains sparsely.

    The dense reduction reduces one row of every frame cell per threshold.
    The sparse one sorts the occupied leaves once, builds their parents in
    closed form and then looks up 2**ndim children for each of at most
    occupied entries per level above; it is priced as occupied * depth *
    2**ndim units of _SPARSE_COST dense leaf cells (with nest rows, the leaf
    copies: at most one per set and sibling). That estimate reads 0 at depth
    0, where the sparse reduction still has its fixed cost, so one-cell
    frames stay dense. Both give the same floats."""
    return depth > 0 and thresholds * cells > _SPARSE_COST * occupied * depth * (1 << ndim)


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
        """Each job's layer-cake sum of (t_k - t_{k-1}) * H_k, t_0 = 0,
        rounded once, as ``math.fsum`` rounds it; inf where it overflows."""
        below = np.empty_like(self.thresholds)
        below[1:] = self.thresholds[:-1]
        starts = self.bounds[:-1]
        below[starts[starts < len(below)]] = 0.0
        terms = (self.thresholds - below) * self.contents
        count = np.diff(self.bounds)
        # One IEEE add is correctly rounded, so up to two terms it equals
        # fsum; + 0.0 gives fsum's +0.0 for no terms and for -0.0 terms.
        out = np.zeros(len(count))
        one, two = count == 1, count == 2
        out[one] = terms[starts[one]] + 0.0
        out[two] = terms[starts[two]] + terms[starts[two] + 1] + 0.0
        long = np.flatnonzero(count > 2)
        if long.size:
            t, b = terms.tolist(), self.bounds.tolist()
            try:
                out[long] = [math.fsum(t[b[j] : b[j + 1]]) for j in long.tolist()]
            except OverflowError:
                out[long] = [_fsum(t[b[j] : b[j + 1]]) for j in long.tolist()]
        return out


def _fsum(terms: list) -> float:
    """math.fsum, but inf where it overflows: the terms are non-negative, so
    an intermediate overflow means the exact sum overflows too."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def layer_cake(
    values: np.ndarray, masks: np.ndarray, ndim: int, depth: int, caps: np.ndarray,
    keys: np.ndarray | None = None, table: np.ndarray | None = None, nest: np.ndarray | None = None,
) -> Chains:
    """The chain of each row of values over the same row of masks.

    Rows are frame-local, shape (jobs, 2**(ndim*depth)); caps are the
    frame's level caps. Without keys only positive values inside the mask
    form levels, one per distinct value. With keys every masked cell does,
    ranked by (value, key): cells of equal value and different keys get
    nested levels of the same threshold, which add zero terms to the sum.
    With a table, the distinct positive values ascending (``rank_rows``),
    values hold each cell's index in it instead, -1 for no level: one sort
    of integer keys replaces the float sort of every row, and the chain is
    the one the tabled values give. A table comes with a nest row (int, -1
    outside every set): row j gives the jobs (j, k), k = 0 .. max(nest[j]),
    the chains of its values over the masked cells of {nest[j] >= k}."""
    jobs, cells = values.shape
    if table is not None:
        rank, sets = np.where(masks, values, -1), nest.max(axis=1) + 1
        # one sort of the (row, rank, cell) keys: in a (row, rank) run each
        # cell is the lowest one of the jobs (row, k), k in (below, nest]
        shift = ndim * depth  # cells == 1 << shift
        row, x = np.nonzero((rank >= 0) & (nest >= 0))
        key = np.sort((row * len(table) + rank[row, x]) << shift | x)
        run, x = key >> shift, key & (cells - 1)
        row, level = np.divmod(run, len(table))
        v, first = nest[row, x], np.append(True, run[1:] != run[:-1])
        lift = np.cumsum(first) * (int(v.max(initial=0)) + 2)  # each run above the last
        below = np.where(first, -1, np.append(-1, (np.maximum.accumulate(v + lift) - lift)[:-1]))
        count = np.maximum(v - below, 0)
        occupied = min(int(v.sum()) + len(v), len(v) << ndim)  # leaf copies: one per set, sibling
        pick = np.repeat(np.arange(len(v)), count)
        least = np.arange(len(pick)) - (np.cumsum(count) - count - below - 1)[pick]
        owner = ((np.cumsum(sets) - sets)[row[pick]] + least) * len(table) + level[pick]
        order = np.argsort(owner)
        pick, least, jobs = pick[order], least[order], int(sets.sum())
        job, owner, level, cell = row[pick], owner[order] // len(table), level[pick], x[pick]
        thresholds = table[level]
    else:
        by_job = np.arange(jobs)[:, None]
        if keys is None:
            masks = masks & (values > 0)
        levels = np.where(masks, values, -1.0)
        order = np.argsort(levels, axis=1, kind="stable") if keys is None else np.lexsort((keys, levels))
        levels = levels[by_job, order]
        step = levels[:, 1:] != levels[:, :-1]
        if keys is not None:
            ranked = keys[by_job, order]
            step |= ranked[:, 1:] != ranked[:, :-1]
        distinct = levels >= 0
        distinct[:, 1:] &= step
        # rank[j, x]: index of cell x's level in job j's chain (-1 when it
        # has none), so level k of job j occupies {x: rank[j, x] >= k}.
        sorted_rank = np.cumsum(distinct, axis=1, dtype=np.int32) - 1
        rank = np.empty_like(sorted_rank)
        rank[by_job, order] = sorted_rank
        job, col = np.nonzero(distinct)
        level = sorted_rank[job, col]
        thresholds, cell, owner, least = levels[job, col], order[job, col], job, None
        occupied = int(np.count_nonzero(rank >= 0))
    if _sparse_cheaper(len(job), cells, occupied, ndim, depth):
        contents = kernels.reduce_ranks(rank, job, level, ndim, depth, caps, nest, least)
    else:
        contents = np.empty(len(job))
        step = max(1, _ROW_CELLS // cells)
        for s in range(0, len(job), step):
            occ = rank[job[s : s + step]] >= level[s : s + step, None]
            if nest is not None:
                occ &= nest[job[s : s + step]] >= least[s : s + step, None]
            leaf = occ.astype(np.float64)
            leaf *= caps[depth]
            contents[s : s + step] = kernels.reduce_tree(leaf, ndim, depth, caps)
    return Chains(
        thresholds=thresholds,
        contents=contents,
        cells=cell,
        bounds=np.searchsorted(owner, np.arange(jobs + 1)),
    )


def rank_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, ranks) of value rows for ``layer_cake``: the distinct
    positive values ascending, and each cell's index in the table, -1 for
    a cell of no level (value <= 0 or NaN)."""
    positive = rows > 0
    table, inverse = np.unique(rows[positive], return_inverse=True)
    ranks = np.full(rows.shape, -1, dtype=np.int32)
    ranks[positive] = inverse
    return table, ranks


@lru_cache(maxsize=64)
def _frame_cells(shape: tuple[int, ...], depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Local cell coordinates of a depth-`depth` frame and their flat grid
    indices from its corner; shared read-only by every frame of that size."""
    side = 1 << depth
    local = np.indices((side,) * len(shape)).reshape(len(shape), -1).T
    base = local @ _strides(shape)
    local.setflags(write=False)
    base.setflags(write=False)
    return local, base


@lru_cache(maxsize=16)
def _strides(shape: tuple[int, ...]) -> np.ndarray:
    """Flat index step of each axis of a row-major grid."""
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    strides.setflags(write=False)
    return strides


class CubeFrames:
    """Frame-local rows for every cube of a family.

    Each cube is evaluated inside its own frame, as a one-cube call would
    be; ``chunks`` groups the cubes of a request by frame depth, so rows of
    different cubes of one depth reduce in the same tree pass, and chains
    reads the depth from the row width. depth and offset hold each frame's
    depth and the flat grid index of its corner, lo and hi each cube's
    first and last frame-local cell per axis.
    """

    def __init__(self, grid: Grid, depth: np.ndarray, offset: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, params: ContentParams):
        self.ndim, self._shape, self._side, self._delta = grid.n, grid.shape, grid.cell_side, params.delta
        self.depth, self._offset, self._lo, self._hi = depth, offset, lo, hi

    def __len__(self) -> int:
        return len(self.depth)

    def chunks(self, cubes):
        """(at, ids) of each layer-cake call's worth of a request of family
        indices cubes (repeats allowed): ids = cubes[at], cubes of one frame
        depth in request order, at most _JOB_CELLS cells of rows (or one
        cube) per chunk. One stable sort groups the request by depth."""
        cubes = np.asarray(cubes, dtype=np.intp)
        order = np.argsort(self.depth[cubes], kind="stable")
        depth = self.depth[cubes[order]]
        cuts = (np.flatnonzero(depth[1:] != depth[:-1]) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(order)] if len(order) else []):
            step = max(1, _JOB_CELLS >> (self.ndim * int(depth[a])))
            for s in range(a, b, step):
                at = order[s : min(s + step, b)]
                yield at, cubes[at]

    def _one_depth(self, ids) -> int:
        """The frame depth shared by the cubes ids, as in a chunk; mixed depths raise."""
        depth = self.depth[ids]
        if (depth != depth[0]).any():
            raise ValueError("rows and masks need cubes of one frame depth; use chunks")
        return int(depth[0])

    def rows(self, flat: np.ndarray, ids) -> np.ndarray:
        """(len(ids), cells) frame-local values of a flat grid array on the
        cubes ids, whose frames share one depth."""
        return flat[self._offset[ids][:, None] + _frame_cells(self._shape, self._one_depth(ids))[1]]

    def masks(self, ids) -> np.ndarray:
        """(len(ids), cells) membership of each cube ids within its frame of one depth."""
        local = _frame_cells(self._shape, self._one_depth(ids))[0]
        out = np.ones((len(ids), len(local)), dtype=bool)
        for a in range(self.ndim):
            x = local[:, a]
            out &= (x >= self._lo[ids, a, None]) & (x <= self._hi[ids, a, None])
        return out

    def extremes(self, flat: np.ndarray) -> np.ndarray:
        """Rows min and max of a flat grid array on each cube, from its frame rows."""
        out = np.empty((2, len(self)))
        for _, ids in self.chunks(np.arange(len(self))):
            rows, inside = self.rows(flat, ids), self.masks(ids)
            out[:, ids] = np.where(inside, rows, np.inf).min(axis=1), np.where(inside, rows, -np.inf).max(axis=1)
        return out

    def chains(self, values: np.ndarray, masks: np.ndarray, keys=None, table=None, nest=None) -> Chains:
        depth = (values.shape[1].bit_length() - 1) // self.ndim
        return layer_cake(values, masks, self.ndim, depth, _caps(self._side, depth, self._delta), keys, table, nest)


def cube_frames(grid: Grid, family: CubeFamily, params: ContentParams) -> CubeFrames:
    """The ``CubeFrames`` of a family, every cube checked against the grid."""
    params.validate(grid)
    corners, sides = family.corners, family.sides
    if len(sides) and corners.shape[1] != grid.n:
        raise ValueError("cube corner dimension does not match the grid")
    corners = corners.reshape(len(sides), grid.n)  # an empty family's may be flat
    last = corners + (sides - 1)[:, None]
    # a cell index lies in [0, 2**grid.depth) iff it has no bit at or above
    # bit grid.depth; a negative index has all of them
    span = corners | last
    if np.bitwise_or.reduce(span, axis=None) >> grid.depth:
        i = int(np.flatnonzero(np.bitwise_or.reduce(span, axis=1) >> grid.depth)[0])
        raise ValueError(f"cube {family[i]} does not fit inside the grid")
    frames, depth = _frames(corners, last)
    return CubeFrames(grid, depth, frames @ _strides(grid.shape), corners - frames, last - frames, params)


def cube_integrals(grid: Grid, cubes, jobs, params: ContentParams) -> np.ndarray:
    """(len(cubes), len(jobs)) Choquet integrals of each job over each cube.

    cubes is a CubeFamily or a CubeSpec sequence, one row per cube either
    way. A job is a flat (values, mask) pair, mask None for the whole cube;
    it is integrated over cube cap mask. Rows are built one chunk at a time.
    """
    family = CubeFamily.of(cubes)
    jobs = [(np.asarray(v, dtype=np.float64), m if m is None else np.asarray(m, dtype=bool))
            for v, m in jobs]
    frames, count = cube_frames(grid, family, params), len(family)
    out = np.empty((count, len(jobs)))
    # (job, cube) pairs run job-major, so each job is one run of a chunk
    for at, ids in frames.chunks(np.arange(count * len(jobs)) % count):
        job, inside, values = at // count, frames.masks(ids), []
        for j in range(job[0], job[-1] + 1):
            run = slice(*np.searchsorted(job, [j, j + 1]))
            v, m = jobs[j]
            values.append(frames.rows(v, ids[run]))
            if m is not None:
                inside[run] &= frames.rows(m, ids[run])
        out[ids, job] = frames.chains(np.concatenate(values), inside).integrals()
    return out


@dataclass(frozen=True)
class LevelSets:
    """Each cube's chain of level sets of |f - c|, flat in family order as
    ``Chains`` lays out jobs: cube i owns levels[bounds[i]:bounds[i + 1]],
    its distinct deviations d_1 < d_2 < ..., and values[k], the integral
    over the cube's set {|f - c| >= d_k} (the whole cube at k = 1)."""

    levels: np.ndarray
    values: np.ndarray
    bounds: np.ndarray

    def owners(self) -> np.ndarray:
        """The cube of every level."""
        return np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds))

    def at(self, ts, owner) -> np.ndarray:
        """The value of the set {|f - c| > t} of cube owner[j] for each
        t = ts[j]: its k-th set for k = #{d <= t}, 0.0 past its last level.
        One sort ranks the levels and the ts together, so that (cube, rank)
        keys are ordered and one search counts the levels at most each t."""
        _, rank = np.unique(np.concatenate([self.levels, ts]), return_inverse=True)
        scale, m = len(rank) + 1, len(self.levels)
        k = np.searchsorted(self.owners() * scale + rank[:m], owner * scale + rank[m:], side="right")
        return np.where(k < self.bounds[owner + 1], np.append(self.values, 0.0)[k], 0.0)


def superlevel_integrals(frames: CubeFrames, values, centers, weights=None) -> LevelSets:
    """The ``LevelSets`` of |values - centers[i]| on each cube Q_i of a
    family framed by ``cube_frames``: the integral of weights over each
    level set, or its content with weights None.

    Each chunk of cubes builds its rows of the deviations and its cube
    masks once. Plain contents take a cube's sets from one chain of the
    deviations keyed by zeros, so that every distinct deviation, zero
    included, is a level; weighted ones from rows of the weights ranked
    once (``rank_rows``) and a nest row, one per cube or per run of its sets
    (``_set_blocks``). A value is its set's float in Q_i's frame either way.
    """
    centers = np.asarray(centers, dtype=np.float64)
    parts = [(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))]  # (levels, values, cube) per chunk
    for _, ids in frames.chunks(np.arange(len(frames))):
        dev = np.abs(frames.rows(values, ids) - centers[ids, None])
        inside = frames.masks(ids)
        if weights is None:
            chains = frames.chains(dev, inside, np.zeros(dev.shape))
            d, out, count = chains.thresholds, chains.contents, np.diff(chains.bounds)
        else:
            # nest[i, x]: the index of cell x's deviation among cube i's
            # distinct ones, so that its k-th set is {nest[i] >= k}
            dev[~inside] = np.nan  # sorts last
            order, by_row = np.argsort(dev, axis=1), np.arange(len(ids))[:, None]
            dev = dev[by_row, order]
            new = ~np.isnan(dev)
            new[:, 1:] &= dev[:, 1:] != dev[:, :-1]
            nest = np.empty(dev.shape, dtype=np.int64)
            nest[by_row, order] = np.where(np.isnan(dev), -1, np.cumsum(new, axis=1) - 1)
            d, count = dev[new], new.sum(axis=1)
            table, ranks = rank_rows(frames.rows(weights, ids))
            out = np.concatenate([frames.chains(ranks[rows], inside[rows], table=table, nest=sub).integrals()
                                  for rows, sub in _set_blocks(nest, new, count)])
        parts.append((d, out, np.repeat(ids, count)))
    levels, vals, owner = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(owner, kind="stable")  # family order, each cube's levels ascending
    bounds = np.append(0, np.cumsum(np.bincount(owner, minlength=len(centers))))
    return LevelSets(levels[order], vals[order], bounds)


def _set_blocks(nest, new, count):
    """(rows, nest) of each layer-cake call of a chunk's sets {nest[i] >= k}:
    row-major runs of at most _ROW_CELLS cells of sets (or one set), which
    bounds every level of a nested reduction, each row's nest cut to its
    run. new marks each set's first sorted cell, count each row's sets."""
    if (nest + 1).sum() <= _ROW_CELLS:  # every set of the chunk in one call
        yield slice(None), nest
        return
    row, col = np.nonzero(new)  # set j: its cube row[j] and first sorted cell col[j]
    size = np.count_nonzero(nest >= 0, axis=1)[row] - col
    end, start, a = np.cumsum(size), np.cumsum(count) - count, 0
    last = np.where(nest >= 0, start[:, None] + nest, -1)  # each cell's last set j
    while a < len(row):  # the sets a .. b - 1
        b = max(a + 1, int(np.searchsorted(end, end[a] - size[a] + _ROW_CELLS, side="right")))
        rows = slice(row[a], row[b - 1] + 1)
        yield rows, np.maximum(np.minimum(last[rows], b - 1) - np.maximum(start[rows], a)[:, None], -1)
        a = b


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
    corner, depth = _frame_for_mask(grid, union)
    return cube_integrals(grid, CubeFamily(corner[None], np.array([1 << depth])), jobs, params)[0]


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
