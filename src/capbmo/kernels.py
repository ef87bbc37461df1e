"""The two tree reductions behind every content.

``reduce_tree`` computes, for T occupancy rows at once, the minimal cost of
covering each row's occupied cells by dyadic subcubes of the (sub)tree
root: cost(node) = min(side(node)^delta, sum of child costs), the dyadic
content recursion of Yang and Yuan (A note on dyadic Hausdorff
capacities, Bull. Sci. Math. 132, 2008). A zero cost marks an empty
subtree, and min(cap, 0) = 0 keeps it empty, so no separate occupancy
array is needed.

Children are added in lexicographic offset order with left-associated
binary adds. The exhaustive cover-search tests rely on that order: it is
the order in which their oracles sum a cover's cubes, bit for bit.

``reduce_ranks`` computes the contents of a whole chain of nested sets
{rank >= k} at once, at a cost that follows the E occupied cells, not
one dense row of every cell per k. Each tree node keeps one entry per
rank at which its cost changes. The parents of the leaves come in closed
form from one sort of the occupied leaves: every leaf costs the leaf cap
up to its rank, so a parent's cost at a rank depends only on how many of
its children reach that rank. Above them a parent evaluates its children
at the union of their ranks (one lookup per child, at most E entries per
level), adds them in the same order, zeros included, and clips at its
cap. Every content is therefore the float ``reduce_tree`` gives for the
row of {rank >= k}, and ``content.layer_cake`` picks either reduction per
call by cost alone.
"""

import itertools
from functools import lru_cache

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


# Ends every key array of reduce_ranks: above every key, so that every
# search lands on an entry, and owned by no node, so that a lookup landing
# there reads 0.
_END = np.iinfo(np.int64).max


@lru_cache(maxsize=32)
def _morton(ndim, depth):
    """Z-order code of each row-major leaf cell: the low ndim bits of a
    code are the lexicographic offset index of the cell within its parent
    (axis 0 most significant), and code >> ndim is the parent's code."""
    side = 1 << depth
    coords = np.indices((side,) * ndim).reshape(ndim, -1).astype(np.int64)
    code = np.zeros(side**ndim, dtype=np.int64)
    for bit in range(depth):
        for axis in range(ndim):
            code |= ((coords[axis] >> bit) & 1) << (bit * ndim + ndim - 1 - axis)
    code.setflags(write=False)
    return code


def reduce_ranks(rank, job, level, ndim, depth, level_caps):
    """Contents of the sets {x: rank[job[i], x] >= level[i]}.

    rank: int array (rows, 2**(ndim*depth)), -1 on cells in no set.
    job, level: equal-length int arrays naming the queried (row, k) pairs.
    level_caps: as for reduce_tree.

    Returns a float64 array of len(job), equal bit for bit to reduce_tree
    on the leaf rows level_caps[depth] * (rank[job[i]] >= level[i]), and
    zeros where no cell is occupied. The leaf parents cost one sort of the
    occupied leaves; each level above, 2**ndim lookups per entry.
    """
    job = np.asarray(job, dtype=np.int64)
    if depth == 0:  # a one-cell frame: the root is the leaf
        return np.where(rank[job, 0] >= level, float(level_caps[0]), 0.0)
    row, cell = np.nonzero(rank >= 0)
    if len(job) == 0 or len(row) == 0:
        return np.zeros(len(job))
    # An entry is the int64 key node << bits | rank, nodes numbered
    # row-major by row and in Z-order within a row, and the node's cost
    # at every rank from its previous entry (exclusive) up to rank. Keys
    # fit while rows * cells * 2**bits < 2**63, far beyond any rank array
    # that fits in memory.
    bits = int(max(rank.max(), np.max(level))).bit_length()
    low = (1 << bits) - 1
    # The leaf parents in closed form: a leaf costs caps[depth] up to its
    # rank, so a leaf parent's cost at rank r is min(caps[depth - 1], S[k])
    # for its k children of rank >= r, S[k] the left-associated sum of k
    # leaf caps (the empty children add +0.0). One sort of the occupied
    # leaves' (parent, rank) keys gives each rank's k as its parent's end
    # minus the start of the rank's run.
    parent = row * (rank.shape[1] >> ndim) + (_morton(ndim, depth)[cell] >> ndim)
    key = np.sort(parent << bits | rank[row, cell])
    ends = np.flatnonzero(_run_ends(key))
    starts = np.append(0, ends[:-1] + 1)
    key = key[ends]
    last = _run_ends(key >> bits)
    count = (ends[last] + 1)[np.cumsum(last) - last] - starts
    leaf_sums = np.cumsum(np.append(0.0, np.full(1 << ndim, float(level_caps[depth]))))
    key, val = _compress(key, np.minimum(leaf_sums[count], float(level_caps[depth - 1])), last)
    # the levels above: each child's cost at the union of the children's ranks
    slots = np.arange(1 << ndim, dtype=np.int64)[:, None]
    for lvl in range(depth - 1, 0, -1):
        # the parent keys: the union of the children's ranks per parent
        union = key[:-1] >> (bits + ndim) << bits | key[:-1] & low
        union.sort(kind="stable")  # merges the children's sorted runs
        union = union[_run_ends(union)]
        # each child's cost at each union rank, children in offset order
        parent = union >> bits
        child = (parent << ndim) + slots
        idx = np.searchsorted(key, child << bits | union & low)
        cost = np.where(key[idx] >> bits == child, val[idx], 0.0)
        acc = cost[0]
        for part in cost[1:]:
            acc += part
        np.minimum(acc, float(level_caps[lvl - 1]), out=acc)
        key, val = _compress(union, acc, _run_ends(parent))
    idx = np.searchsorted(key, job << bits | level)
    return np.where(key[idx] >> bits == job, val[idx], 0.0)


def _compress(key, val, keep):
    """The entries kept of one level, then _END: the last rank of each run
    of equal cost within a parent. keep marks each parent's last key on
    entry and is overwritten."""
    keep[:-1] |= val[1:] != val[:-1]
    return np.append(key[keep], _END), np.append(val[keep], 0.0)


def _run_ends(a):
    """Mask of the last element of each run of equal values in a."""
    end = np.empty(len(a), dtype=bool)
    end[-1] = True
    np.not_equal(a[1:], a[:-1], out=end[:-1])
    return end
