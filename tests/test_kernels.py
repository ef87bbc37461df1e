import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capbmo import kernels


def random_tree_inputs(rng, ndim, depth, rows):
    leaves = (2**depth) ** ndim
    costs = rng.uniform(0.0, 2.0, size=(rows, leaves))
    costs[rng.random(costs.shape) < 0.3] = 0.0
    caps = np.exp(rng.uniform(-1, 1, size=depth + 1))
    return np.ascontiguousarray(costs), caps


def reference_reduce(costs, ndim, depth, caps):
    """Slow recursive reduction, independent of the level-loop kernel."""

    def reduce_one(block, level):
        side = block.shape[0]
        if side == 1:
            return float(block.reshape(-1)[0])
        half = side // 2
        total = 0.0
        for offsets in np.ndindex(*(2,) * ndim):
            slices = tuple(slice(o * half, (o + 1) * half) for o in offsets)
            total += reduce_one(block[slices], level + 1)
        return min(float(caps[level]), total)

    out = []
    for row in costs:
        block = row.reshape((2**depth,) * ndim)
        out.append(reduce_one(block, 0))
    return np.array(out)


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_reduce_tree_matches_reference_reduction(rng, ndim, depth):
    if ndim == 3 and depth == 3:
        depth = 2  # keep the 3-d case small
    costs, caps = random_tree_inputs(rng, ndim, depth, rows=17)
    got = kernels.reduce_tree(costs.copy(), ndim, depth, caps)
    expect = reference_reduce(costs, ndim, depth, caps)
    # same child order and left-associated adds: equal bit for bit
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_reduce_ranks_matches_reference_reduction(rng, ndim, depth):
    if ndim == 3 and depth == 3:
        depth = 2
    cells = (2**depth) ** ndim
    rank = rng.integers(-1, 6, size=(4, cells))
    rank[1] = -1  # a row in no set
    job, level = np.divmod(np.arange(4 * 7), 7)  # levels up to one past the top rank
    caps = np.exp(rng.uniform(-1, 1, size=depth + 1))
    got = kernels.reduce_ranks(rank, job, level, ndim, depth, caps)
    leaves = (rank[job] >= level[:, None]) * caps[depth]
    assert np.array_equal(got, reference_reduce(leaves, ndim, depth, caps))


@settings(max_examples=120)
@given(data=st.data())
def test_reduce_ranks_matches_reduce_tree_bit_for_bit(data):
    """reduce_ranks against reduce_tree on the rows caps[depth] * ((nest[job]
    >= k) & (rank[job] >= r)), without a nest row (every k 0) or with one
    whose values have gaps, repeats and -1, on caps of random delta (not
    dyadic, so the order of the adds shows), with sibling ties, heavily
    clipped parents, ranks above 2**16 (longer keys) and rows in no set. A
    k above a row's largest nest or an r above its largest rank reads 0."""
    ndim = data.draw(st.integers(1, 3), label="ndim")
    depth = data.draw(st.integers(0, {1: 6, 2: 4, 3: 2}[ndim]), label="depth")
    rows = data.draw(st.integers(1, 5), label="rows")
    cells = (1 << depth) ** ndim
    # a narrow rank range makes ties among the children of one parent
    top = data.draw(st.sampled_from([1, 2, 4, 40]), label="top")
    rank = data.draw(arrays(np.int64, (rows, cells), elements=st.integers(-1, top)), label="rank")
    rank[rank >= 0] += data.draw(st.sampled_from([0, 1 << 16, 1 << 40]), label="base")
    nest = None
    if data.draw(st.booleans(), label="nested"):
        values = st.sampled_from(data.draw(st.sampled_from([[-1, 0], [-1, 0, 2, 3, 7], [0, 1, 5, 40]]),
                                           label="nest values"))
        nest = data.draw(arrays(np.int64, (rows, cells), elements=values), label="nest")
    for r in data.draw(st.sets(st.integers(0, rows - 1), max_size=rows), label="empty rows"):
        rank[r] = -1
    delta = data.draw(st.floats(0.05, float(ndim)), label="delta")
    side = data.draw(st.sampled_from([0.75, 1.0, 3.0]), label="side")
    caps = np.power(np.ldexp(side, depth - np.arange(depth + 1)), delta)
    # factors below 1 clip parents well below the sum of their children
    caps *= data.draw(arrays(np.float64, depth + 1, elements=st.sampled_from([0.1, 0.6, 1.0])),
                      label="clip")
    # every distinct set of each row: its ranks and nests, one past each, and 0
    occupied = rank >= 0
    levels = np.unique(np.concatenate([[0], rank[occupied], rank[occupied] + 1]))
    ks = [0] if nest is None else np.unique(np.concatenate([[0], nest[nest >= 0], nest[nest >= 0] + 1]))
    job, k, level = (a.ravel() for a in np.meshgrid(np.arange(rows), ks, levels, indexing="ij"))
    leaf = rank[job] >= level[:, None]
    if nest is None:
        got = kernels.reduce_ranks(rank, job, level, ndim, depth, caps)
    else:
        got = kernels.reduce_ranks(rank, job, level, ndim, depth, caps, nest, k)
        leaf &= nest[job] >= k[:, None]
        occupied &= nest >= 0
    want = kernels.reduce_tree(leaf * caps[depth], ndim, depth, caps)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
    past = (level > np.max(rank[job], axis=1)) | (k > (0 if nest is None else np.max(nest[job], axis=1)))
    assert not got[past | ~occupied[job].any(axis=1)].any()


def test_reduce_ranks_with_no_occupied_cell_gives_zeros():
    got = kernels.reduce_ranks(-np.ones((2, 16), np.int32), np.array([0, 1]), np.array([0, 0]),
                               2, 2, np.ones(3))
    assert got.tolist() == [0.0, 0.0]


def test_reduce_tree_validates_shapes(rng):
    costs, caps = random_tree_inputs(rng, 2, 2, rows=3)
    with pytest.raises(ValueError):
        kernels.reduce_tree(costs, 2, 3, caps)
    with pytest.raises(ValueError):
        kernels.reduce_tree(costs, 2, 2, caps[:2])
