"""The batched tree reduction behind every content.

The reduction computes, for T occupancy rows at once, the minimal cost of
covering each row's occupied cells by dyadic subcubes of the (sub)tree
root: cost(node) = min(side(node)^delta, sum of child costs), the dyadic
content recursion of Yang and Yuan (A note on dyadic Hausdorff
capacities, Bull. Sci. Math. 132, 2008). A zero cost marks an empty
subtree, and min(cap, 0) = 0 keeps it empty, so no separate occupancy
array is needed.

Children are added in lexicographic offset order with left-associated
binary adds. The exhaustive cover-search tests rely on that order: it is
the order in which their oracles sum a cover's cubes, bit for bit.
"""

import itertools

import numpy as np


def reduce_tree(leaf_costs, ndim, depth, level_caps):
    """Collapse leaf costs to per-row root cover costs.

    leaf_costs: float64 array (rows, 2**(ndim*depth)), C-contiguous,
        already capped at level_caps[depth] (leaf cost is 0 or the cap).
    level_caps: level_caps[k] = (side length of a level-k cube)**delta,
        k = 0 at the (sub)tree root.

    Returns a float64 array of shape (rows,); leaf_costs is not mutated.
    """
    if leaf_costs.ndim != 2 or leaf_costs.shape[1] != (1 << depth) ** ndim:
        raise ValueError(
            f"leaf_costs must be (rows, {(1 << depth) ** ndim}) for depth {depth}"
        )
    if len(level_caps) != depth + 1:
        raise ValueError("level_caps must have depth + 1 entries")
    rows = leaf_costs.shape[0]
    current = leaf_costs
    side = 1 << depth
    for level in range(depth, 0, -1):
        view = current.reshape((rows,) + (side,) * ndim)
        acc = None
        for offsets in itertools.product((0, 1), repeat=ndim):
            part = view[(slice(None),) + tuple(slice(o, None, 2) for o in offsets)]
            if acc is None:
                acc = part.copy()
            else:
                acc += part
        np.minimum(acc, float(level_caps[level - 1]), out=acc)
        side //= 2
        current = acc.reshape(rows, side**ndim)
    return current[:, 0].copy() if current is leaf_costs else current[:, 0]
