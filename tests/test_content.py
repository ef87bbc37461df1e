import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capbmo import kernels
from capbmo.content import (
    ContentParams,
    _frame_for_mask,
    cube_content,
    dyadic_content,
    level_caps,
    masked_integral,
    masked_integral_many,
    weighted_content,
)
from capbmo.grid import (
    CubeSpec,
    DyadicSet,
    build_grid,
    cube_set,
    empty_set,
    full_set,
    set_from_cells,
    step_function,
)
from conftest import random_grid, random_params


bits = st.booleans()


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_content_is_strongly_subadditive(n, data):
    """H(A u B) + H(A n B) <= H(A) + H(B): the convexity of every centre
    objective F, which the exact oscillation search relies on, rests on it."""
    g = build_grid(n, {1: 4, 2: 2, 3: 1}[n], data.draw(st.sampled_from([1.0, 2.0])))
    P = ContentParams(delta=data.draw(st.sampled_from([0.3, 0.5, 0.8, 1.0])) * n)
    cells = g.num_cells
    A = np.array(data.draw(st.lists(bits, min_size=cells, max_size=cells)))
    B = np.array(data.draw(st.lists(bits, min_size=cells, max_size=cells)))
    H = [dyadic_content(g, DyadicSet(g, m), P) for m in (A | B, A & B, A, B)]
    assert H[0] + H[1] <= (H[2] + H[3]) * (1 + 1e-12) + 1e-15


def enumerate_cover_costs_depth2(masks16, delta, root_side):
    """Minimal dyadic-cover cost for every 16-cell occupancy mask, found by
    listing every irredundant cover of the depth-2 quadtree explicitly:
    the root cube, or per quadrant either the quadrant cube or its occupied
    cells. Independent of the tree-reduction kernels."""
    cell = (root_side / 4) ** delta
    quad = (root_side / 2) ** delta
    root = root_side**delta
    idx = np.arange(16).reshape(4, 4)
    quads = [idx[:2, :2], idx[:2, 2:], idx[2:, :2], idx[2:, 2:]]
    counts = np.stack(
        [masks16[:, q.ravel()].sum(axis=1) for q in quads], axis=1
    )  # (M, 4) occupied cells per quadrant
    best = np.full(masks16.shape[0], np.inf)
    for combo in range(16):
        cost = np.zeros(masks16.shape[0])
        for j in range(4):
            if combo >> j & 1:
                # cover quadrant j by its cube, but only if it is occupied
                cost += np.where(counts[:, j] > 0, quad, np.inf)
            else:
                cost += counts[:, j] * cell
        best = np.minimum(best, cost)
    occupied = masks16.any(axis=1)
    best = np.minimum(best, np.where(occupied, root, 0.0))
    return np.where(occupied, best, 0.0)


@pytest.mark.parametrize("delta", [0.3, 1.0, 1.7])
def test_content_equals_exhaustive_cover_minimum_on_all_subsets(delta):
    g = build_grid(2, 2, 4.0)
    params = ContentParams(delta=delta)
    codes = np.arange(1 << 16, dtype=np.uint32)
    masks = (codes[:, None] >> np.arange(16)[None, :]) & 1
    masks = masks.astype(bool)
    expected = enumerate_cover_costs_depth2(masks, delta, 4.0)
    ones = np.ones(16)
    got = np.empty(len(codes))
    chunk = 4096
    for start in range(0, len(codes), chunk):
        block = masks[start : start + chunk]
        jobs = [(ones, m) for m in block]
        got[start : start + chunk] = masked_integral_many(g, jobs, params)
    assert got == pytest.approx(expected, abs=1e-12)


def cover_search_minimum(n, depth, delta):
    """Minimal dyadic-cover cost of every subset of a grid with cell side 1,
    found by trying every set of dyadic subcubes as a cover.

    Returns an array indexed by the subset's bit code (bit x = row-major
    cell x). A cover's cost is summed along the tree, children in
    lexicographic offset order, so that the minimum rounds as the tree
    recursion does: floating-point addition is monotone, so the sum of
    per-child minima is the minimum of the sums.
    """
    side = 1 << depth
    cells = np.arange(side**n).reshape((side,) * n)
    cubes = []  # (level, corner) in preorder, each with its cell bits
    bits = []

    def visit(level, corner):
        size = side >> level
        cubes.append((level, corner))
        block = cells[tuple(slice(c, c + size) for c in corner)]
        bits.append(int(sum(1 << int(x) for x in block.ravel())))
        if size > 1:
            for offsets in np.ndindex(*(2,) * n):
                visit(level + 1, tuple(c + o * size // 2 for c, o in zip(corner, offsets)))

    visit(0, (0,) * n)
    index = {cube: i for i, cube in enumerate(cubes)}

    def tree_cost(cover, level, corner):
        size = side >> level
        if cover >> index[(level, corner)] & 1:
            return float(size) ** delta
        total = 0.0
        if size > 1:
            for offsets in np.ndindex(*(2,) * n):
                child = tuple(c + o * size // 2 for c, o in zip(corner, offsets))
                total += tree_cost(cover, level + 1, child)
        return total

    union = np.zeros(1 << len(cubes), dtype=np.int64)
    for cover in range(1, len(union)):
        lowest = (cover & -cover).bit_length() - 1
        union[cover] = union[cover & (cover - 1)] | bits[lowest]
    cost = np.array([tree_cost(cover, 0, (0,) * n) for cover in range(len(union))])
    subsets = np.arange(1 << side**n, dtype=np.int64)
    return np.array([cost[(union & s) == s].min() for s in subsets])


@pytest.mark.parametrize("n,depth", [(1, 3), (3, 1)])
@pytest.mark.parametrize("delta_of_n", [0.3, 1.0, "n"])
def test_content_equals_exhaustive_cover_search_1d_3d(n, depth, delta_of_n):
    delta = float(n) if delta_of_n == "n" else delta_of_n
    g = build_grid(n, depth, float(1 << depth))
    params = ContentParams(delta=delta)
    expected = cover_search_minimum(n, depth, delta)
    codes = np.arange(len(expected))
    masks = ((codes[:, None] >> np.arange(g.num_cells)) & 1).astype(bool)
    ones = np.ones(g.num_cells)
    bulk = masked_integral_many(g, [(ones, m) for m in masks], params)
    assert np.array_equal(bulk, expected)
    # one set at a time, each in its own frame
    single = [dyadic_content(g, DyadicSet(g, m), params) for m in masks]
    assert np.array_equal(single, expected)


def test_dyadic_content_agrees_with_bulk_path(rng):
    g = build_grid(2, 2, 4.0)
    for delta in (0.3, 1.0, 1.7):
        params = ContentParams(delta=delta)
        for _ in range(200):
            mask = rng.random(16) < rng.uniform(0.05, 0.9)
            E = DyadicSet(g, mask)
            direct = dyadic_content(g, E, params)
            bulk = masked_integral(g, np.ones(16), mask, params)
            assert direct == pytest.approx(bulk, abs=1e-12)


def test_known_contents_small():
    g = build_grid(2, 2, 4.0)
    for delta in (0.25, 0.5, 1.0):
        params = ContentParams(delta=delta)
        E = set_from_cells(g, [(3, 3)])
        F = DyadicSet(g, np.zeros(16, dtype=bool))
        fmask = np.zeros((4, 4), dtype=bool)
        fmask[:, :2] = True
        F = DyadicSet(g, fmask.ravel())
        assert dyadic_content(g, E, params) == pytest.approx(1.0, abs=1e-12)
        assert dyadic_content(g, F, params) == pytest.approx(4.0**delta, abs=1e-12)
        assert dyadic_content(g, F.complement(), params) == pytest.approx(4.0**delta, abs=1e-12)
        assert dyadic_content(g, E.complement(), params) == pytest.approx(4.0**delta, abs=1e-12)
        assert dyadic_content(g, full_set(g), params) == pytest.approx(4.0**delta, abs=1e-12)
        assert dyadic_content(g, empty_set(g), params) == 0.0


def test_content_monotone_and_subadditive(rng):
    for _ in range(300):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        a = rng.random(g.num_cells) < 0.4
        b = rng.random(g.num_cells) < 0.4
        A, B = DyadicSet(g, a), DyadicSet(g, b)
        cA = dyadic_content(g, A, params)
        cB = dyadic_content(g, B, params)
        cU = dyadic_content(g, A.union(B), params)
        assert cU >= max(cA, cB) - 1e-13
        assert cU <= cA + cB + 1e-13


def test_content_restriction_to_frame_is_exact():
    # A set inside a subcube has the same content whether the grid root
    # or the subcube is taken as the covering tree root: covers never
    # improve by leaving the smallest dyadic ancestor.
    g_small = build_grid(2, 1, 1.0)
    g_big = build_grid(2, 3, 4.0)
    params = ContentParams(delta=0.6)
    small = set_from_cells(g_small, [(0, 1), (1, 1)])
    # same spatial set embedded in the larger grid: cells (0,1),(1,1) of
    # the unit subcube at corner (0,0) with cell side 0.5
    big = set_from_cells(g_big, [(0, 1), (1, 1)])
    assert dyadic_content(g_small, small, params) == pytest.approx(
        dyadic_content(g_big, big, params), abs=1e-15
    )


def test_cube_content_closed_form():
    g = build_grid(2, 3, 8.0)
    for delta in (0.4, 1.0, 1.9):
        params = ContentParams(delta=delta)
        for side in (1, 2, 4, 8):
            q = CubeSpec((0, 0), side)
            assert cube_content(g, q, params) == pytest.approx(
                float(side) ** delta, abs=1e-12
            )
        # non-dyadic cube of side 3 is covered cheapest by structure-dependent
        # mixes; it must at least cost one side-2 cube and at most the root
        q3 = CubeSpec((1, 1), 3)
        c3 = cube_content(g, q3, params)
        assert 2.0**delta - 1e-12 <= c3 <= 8.0**delta + 1e-12


def test_weighted_content_matches_layer_cake(rng):
    for _ in range(100):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        w = rng.exponential(size=g.num_cells)
        mask = rng.random(g.num_cells) < 0.5
        E = DyadicSet(g, mask)
        got = weighted_content(g, step_function(g, w), E, params)
        vals = np.unique(w[mask]) if mask.any() else np.array([])
        vals = vals[vals > 0]
        expect = 0.0
        prev = 0.0
        for v in vals:
            sub = DyadicSet(g, mask & (w >= v))
            expect += (v - prev) * dyadic_content(g, sub, params)
            prev = v
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-13)
    with pytest.raises(ValueError):
        weighted_content(g, step_function(g, -np.ones(g.num_cells)), E, params)


def test_level_caps_exact_powers():
    g = build_grid(1, 3, 8.0)
    caps = level_caps(g, 3, 0.5)
    assert caps == pytest.approx([8**0.5, 4**0.5, 2**0.5, 1.0], abs=0.0)


def test_params_validation():
    g = build_grid(2, 2, 1.0)
    with pytest.raises(ValueError):
        ContentParams(delta=0.0)
    with pytest.raises(ValueError):
        ContentParams(delta=2.5).validate(g)
    ContentParams(delta=2.0).validate(g)


def per_job_integrals(grid, jobs, params):
    """The layer cake one job at a time, as a reference for the stacked
    integrator: np.unique thresholds, one dense occupancy block per job,
    the tree kernel, then math.fsum, all in the frame of the mask union."""
    union = np.zeros(grid.num_cells, dtype=bool)
    for _, mask in jobs:
        union |= mask
    if not union.any():
        return [0.0] * len(jobs)
    frame = _frame_for_mask(grid, union)
    caps = level_caps(grid, frame.depth, params.delta)
    out = []
    for values, mask in jobs:
        sub_vals = values.reshape(grid.shape)[frame.slices()].ravel()
        sub_mask = mask.reshape(grid.shape)[frame.slices()].ravel()
        inside = sub_vals[sub_mask]
        thresholds = np.unique(inside[inside > 0])
        if not thresholds.size:
            out.append(0.0)
            continue
        occ = ((sub_vals >= thresholds[:, None]) & sub_mask).astype(np.float64)
        occ *= caps[frame.depth]
        contents = kernels.reduce_tree(occ, grid.n, frame.depth, caps)
        out.append(math.fsum(np.diff(thresholds, prepend=0.0) * contents))
    return out


@pytest.mark.parametrize("n,depth", [(1, 4), (2, 3), (3, 2)])
@given(data=st.data())
def test_stacked_integrator_equals_per_job_reference(n, depth, data):
    g = build_grid(n, depth, 2.0)
    cells = g.num_cells
    # quarters in [-2, 4]: repeated thresholds, zeros and negatives that
    # must be skipped, and masks from empty to full
    values = st.lists(st.integers(-8, 16).map(lambda k: k / 4), min_size=cells, max_size=cells)
    masks = st.lists(st.booleans(), min_size=cells, max_size=cells)
    jobs = [
        (np.array(v), np.array(m))
        for v, m in data.draw(st.lists(st.tuples(values, masks), min_size=1, max_size=5))
    ]
    params = ContentParams(delta=data.draw(st.sampled_from([0.5, 1.0, float(n)])))
    assert masked_integral_many(g, jobs, params).tolist() == per_job_integrals(g, jobs, params)
