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
{rank >= r} at once, at a cost that follows the E occupied cells, not
one dense row of every cell per r. Each tree node keeps one entry per
rank at which its cost changes. The parents of the leaves come in closed
form from one sort of the occupied leaves: every leaf costs the leaf cap
up to its rank, so a parent's cost at a rank depends only on how many of
its children reach that rank. Above them a parent evaluates its children
at the union of their ranks (one lookup per child, at most E entries per
level), adds them in the same order, zeros included, and clips at its
cap. With a nest row it gives a cube's weighted level sets {nest >= k,
rank >= r} with one chain per node and nest value in its subtree, not
one per set, a level being one stable sort of the child chains copied
to their parents' chains. Every content is the float ``reduce_tree``
gives for its set's row; ``content.layer_cake`` picks either by cost.
"""

import itertools
from functools import lru_cache, reduce

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


def reduce_ranks(rank, job, level, ndim, depth, level_caps, nest=None, least=None):
    """Contents of the sets {x: rank[job[i], x] >= level[i]}, with a nest
    row {x: nest[job[i], x] >= least[i], rank[job[i], x] >= level[i]}.

    rank, nest: int arrays (rows, 2**(ndim*depth)), -1 on cells in no set.
    job, level, least: equal-length int arrays (level, least >= 0) naming the sets.
    level_caps: as for reduce_tree.

    Returns a float64 array of len(job), equal bit for bit to reduce_tree
    on the leaf rows level_caps[depth] * (rank[job[i]] >= level[i]) (and
    nest[job[i]] >= least[i]), and zeros where no cell is occupied.
    """
    job = np.asarray(job, dtype=np.int64)
    if depth == 0:  # a one-cell frame: the root is the leaf
        hit = (rank[job, 0] >= level) & (True if nest is None else nest[job, 0] >= least)
        return np.where(hit, float(level_caps[0]), 0.0)
    row, cell = np.nonzero(rank >= 0 if nest is None else (rank >= 0) & (nest >= 0))
    if len(job) == 0 or len(row) == 0:
        return np.zeros(len(job))
    # An entry is the int64 key (node << nbits | k) << rbits | r (nbits 0
    # without nests), nodes row-major by row and in Z-order within a row: the
    # cost of {nest >= k, rank >= r} at every r after the chain's previous
    # entry up to r. Keys fit while rows * cells * 2**(nbits + rbits) < 2**63.
    rbits = int(max(rank.max(), np.max(level))).bit_length()
    nbits = 0 if nest is None else int(max(nest.max(), np.max(least))).bit_length()
    node = row * rank.shape[1] + _morton(ndim, depth)[cell]
    if nbits:  # each leaf goes to the chains of its parent it stands in
        key = np.append(np.sort((node << nbits | nest[row, cell]) << rbits | rank[row, cell]), _END)
        key = _copies(key, ndim, nbits, rbits)[0]
    else:
        key = node >> ndim << rbits | rank[row, cell]
    # the leaf parents in closed form: a chain's cost at r is min(cap, S[k])
    # for its k leaves of rank >= r (the chain's end minus the start of the
    # run of r), S[k] the left-associated sum of k leaf caps
    key = np.sort(key)
    ends = np.flatnonzero(_run_ends(key))
    key = key[ends]
    last = _run_ends(key >> rbits)
    count = (ends[last] + 1)[np.cumsum(last) - last] - np.append(0, ends[:-1] + 1)
    sums = np.cumsum(np.append(0.0, np.full(1 << ndim, float(level_caps[depth]))))
    key, val = _compress(key, np.minimum(sums[count], float(level_caps[depth - 1])), last)
    for lvl in range(depth - 2, -1, -1):
        # each child's cost at each key of the union, children in offset order
        key, cost = (_nested_parents if nbits else _parents)(key, val, ndim, nbits, rbits)
        val = reduce(lambda acc, part: np.add(acc, part, out=acc), cost)
        key, val = _compress(key, np.minimum(val, float(level_caps[lvl]), out=val), _run_ends(key >> rbits))
    if nbits:  # each query's chain: the row's least nest value >= least[i], -1 for none
        chain = key >> rbits
        heads = chain[_run_ends(chain)]
        head = heads[np.searchsorted(heads, job << nbits | least)]
        job = np.where(head >> nbits == job, head, -1)
    idx = np.searchsorted(key, job << rbits | level)
    return np.where(key[idx] >> rbits == job, val[idx], 0.0)


def _parents(key, val, ndim, nbits, rbits):
    """(union, cost) of one level without nests: the union of the
    children's ranks per parent, and each child's cost there."""
    low = (1 << rbits) - 1
    union = key[:-1] >> (rbits + ndim) << rbits | key[:-1] & low
    union.sort(kind="stable")  # merges the children's sorted runs
    union = union[_run_ends(union)]
    child = (union >> rbits << ndim) + np.arange(1 << ndim, dtype=np.int64)[:, None]
    idx = np.searchsorted(key, child << rbits | union & low)
    return union, np.where(key[idx] >> rbits == child, val[idx], 0.0)


def _copies(key, ndim, nbits, rbits):
    """(copies, src, chain): the entries' keys re-keyed to the parent
    chains (one per nest value of the children) that they stand for, the
    chains k' in (k0, k] of a child's chain k after its chain k0."""
    chain = key[:-1] >> rbits
    ends = _run_ends(chain)
    head = chain[ends]
    own = np.cumsum(ends) - ends  # each entry's chain
    base = head >> (nbits + ndim) << nbits  # its parent, shifted to the chain key
    pk = base | head & ((1 << nbits) - 1)
    nests = np.sort(pk)
    nests = nests[_run_ends(nests)]
    same = np.append(False, head[1:] >> nbits == head[:-1] >> nbits)  # after a sibling chain
    below = np.where(same, np.append(0, pk[:-1] + 1), base)
    lo = np.searchsorted(nests, below)
    reps = (np.searchsorted(nests, pk) - lo + 1)[own]
    src = np.repeat(np.arange(len(chain)), reps)
    target = np.repeat(lo[own] - np.cumsum(reps) + reps, reps) + np.arange(len(src))
    return nests[target] << rbits | key[src] & ((1 << rbits) - 1), src, chain


def _nested_parents(key, val, ndim, nbits, rbits):
    """(union, cost) of one level of nested chains, cost one row per child
    made when read: a stable sort merges the ``_copies`` (children in
    offset order), and a child's next copy at or after a key is its cost."""
    merged, src, chain = _copies(key, ndim, nbits, rbits)
    order = np.argsort(merged, kind="stable")
    merged, src, m = merged[order], src[order], len(order)
    starts = np.flatnonzero(_run_ends(merged[::-1])[::-1])
    ends = np.flatnonzero(_run_ends(merged >> rbits))
    # nxt[s, u]: the first copy of slot s at or after union key u (m for
    # none), a running minimum over the copies taken from the end
    nxt = np.full((1 << ndim, m), m, dtype=np.int32)
    nxt[chain[src[::-1]] >> nbits & ((1 << ndim) - 1), np.arange(m)] = np.arange(m - 1, -1, -1)
    nxt = np.take(np.minimum.accumulate(nxt, axis=1, out=nxt), m - 1 - starts, axis=1)
    cost, close = np.append(val[src], 0.0), ends[np.searchsorted(ends, starts)]  # the key's chain
    return merged[starts], (np.where(n <= close, cost[n], 0.0) for n in nxt)


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
