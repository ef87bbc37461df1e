import numpy as np
import pytest

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
def test_fallback_matches_reference_reduction(rng, ndim, depth):
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


def test_reduce_tree_validates_shapes(rng):
    costs, caps = random_tree_inputs(rng, 2, 2, rows=3)
    with pytest.raises(ValueError):
        kernels.reduce_tree(costs, 2, 3, caps)
    with pytest.raises(ValueError):
        kernels.reduce_tree(costs, 2, 2, caps[:2])
