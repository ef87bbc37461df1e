"""Oscillation seminorms and the per-cube objective F(c).

F(c) is the weighted Choquet average of |f - c|**q over a cube Q, the
integral of g_c = |f - c|**q * w over Q divided by w(Q). One layer-cake
call at c returns g_c's chain: its thresholds t_k, the content H_k of
each superlevel set {g_c >= t_k} and one cell (v_k, w_k) per threshold.
On a piece of the centre axis where no two cells change order, the
integrands are comonotone and the Choquet integral is additive on them
(D. Schmeidler, Proc. AMS 97, 1986). So one chain gives F in closed form
on its whole piece:

    phi(x) = sum_k (H_k - H_{k+1}) * w_k * |v_k - x|**q / w(Q).

Pieces end where two weighted distances w**(1/q) * |v - x| cross, and
the first crossing on either side is one of a pair of cells adjacent in
the chain's order, so a piece costs O(cells) to find. The dyadic content
is strongly subadditive, so each chain's increments are a point of its
core: phi <= F everywhere, and F, the maximum of all such sums, is
convex for every q >= 1.

The search for q >= 1 is exact. A minimiser lies in [min f, max f].
Each step reads one chain per pending cube, takes the minimum of its
piece's sum over the piece, and stops if that minimum lies inside the
piece; otherwise the slope at the piece's end cuts the bracket. The next
centre is the minimiser of the sum (a weighted mean for q = 2, a slope
bisection for other q > 1) or, for q = 1, where the lines touching F at
both bracket ends cross, with bisection whenever the bracket fails to
halve in two steps. The plateau {F <= min + tol} is solved from outside
in: the end of {phi <= tol + min} bounds the edge for every chain read
so far, and is the edge once it lies on its own piece. For q = 1, F is
linear between breakpoints (cell values and crossings), so each edge is
interpolated between the integrals at its two neighbouring breakpoints,
and cubes with at most ``_SCAN_PAIRS`` distinct (value, weight) pairs
evaluate every breakpoint in one step instead, which is cheaper there.
A probe at a crossing breaks ties toward one side (``layer_cake`` keys),
so its chain still holds on that side. For q < 1 a dense scan over the
cell values and their midpoints is used, and reported as a fallback.

Searches whose centres are known up front are array operations over each
frame-depth group of ``cube_frames``: constant cubes need no integral,
and ``_objective`` gives F on a NaN-padded (cubes x centres) matrix, the
normalisers w(Q) in the first rows of the same layer-cake calls, for one
given centre per cube (``_values_at``) and for ``_scan``: the q = 1
breakpoints of small cubes and the q < 1 dense scan. Only the piecewise
search is a generator over one cube: it yields (centre, side) probes,
side 0 for a plain value, and is sent F(c) or a ``_Piece``. ``_lockstep``
advances a group's generators together: each step stacks every pending
(cube, centre) integrand, plus the normaliser of each cube asking for
the first time, into one layer-cake call (split only at the integrator's
cell budget), and reads the pieces of all one-sided probes of the step
in one pass (``_piece_bounds``). The one-cube entry points run the same
code on a one-cube family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .choquet import signed_averages
from .content import ContentParams, cube_frames, job_chunks, row_unique
from .grid import CubeFamily, CubeFamilyPolicy, CubeSpec, StepFunction, enumerate_cubes

__all__ = [
    "GammaInterval",
    "SeminormReport",
    "oscillation_objective",
    "gamma_interval",
    "bmo_seminorm",
    "blo_seminorm",
    "weighted_bmo_seminorm",
]


@dataclass(frozen=True)
class GammaInterval:
    """Minimizer plateau of F: [lo, hi] brackets {c: F(c) <= min_value + tol}.

    evaluations counts the integrals the search used, the normaliser w(Q)
    included; used_fallback marks the dense scan of q < 1.
    """

    lo: float
    hi: float
    min_value: float
    tol: float
    used_fallback: bool = False
    evaluations: int = 0


@dataclass(frozen=True)
class SeminormReport:
    """The supremum over a family, the first cube attaining it, and the centre
    of each cube in family order; exact is False when some centre came from
    the q < 1 dense scan."""

    value: float
    worst_cube: CubeSpec | None
    family: CubeFamily = field(repr=False, compare=False)
    centers: np.ndarray = field(repr=False, compare=False)
    policy: CubeFamilyPolicy | None = None
    exact: bool = True

    @property
    def per_cube_centers(self) -> MappingProxyType:
        """A read-only cube -> centre mapping, made when it is read."""
        return MappingProxyType(dict(zip(self.family, self.centers.tolist())))


# q = 1 cubes with at most this many distinct (value, weight) pairs scan
# every breakpoint in one step, which is cheaper there than a search: on
# perfbench oscillation_log, searching every cube cost 1.75x the wall time,
# and a cutoff of 20 measured no faster than 10.
_SCAN_PAIRS = 10


def _check(q: float, w: StepFunction | None = None) -> None:
    """The q and weight checks of the public entry points."""
    if not 0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    if w is not None and np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive")


def _chunk_rows(frames, f: StepFunction, w: StepFunction | None, count: int):
    """(slice, f rows, masks, w rows or None) of the group's cubes, in calls'
    worth of at most _JOB_CELLS cells."""
    for sl in job_chunks(count, frames.cells):
        which = np.arange(sl.start, min(sl.stop, count))
        yield (sl, frames.rows(f.values, which), frames.masks(which),
               None if w is None else frames.rows(w.values, which))


def _extent(fv: np.ndarray, inside: np.ndarray):
    """Each row's minimum and maximum over its masked cells."""
    return np.where(inside, fv, np.inf).min(axis=1), np.where(inside, fv, -np.inf).max(axis=1)


def _probe_rows(frames, f, w, q: float, which: np.ndarray, centre: np.ndarray, norms: int):
    """Plain probe rows |f - centre[j]|**q * w on cube which[j], except the
    first `norms` rows, which hold w (or 1) for the normalisers w(Q).

    Returns the f rows, f - centre, the w rows (None without w) and the rows.
    """
    fv = frames.rows(f.values, which)
    dev = fv - centre[:, None]
    vals = np.abs(dev)
    if q != 1.0:
        vals = vals**q
    wv = None
    if w is None:
        vals[:norms] = 1.0
    else:
        wv = frames.rows(w.values, which)
        vals = vals * wv
        vals[:norms] = wv[:norms]
    return fv, dev, wv, vals


def _objective(frames, f, w, q: float, which: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """F on cube which[r] at each centre cands[r, j], +inf where cands is NaN.

    The normalisers w(Q) take the first rows of the same layer-cake calls.
    """
    valid = ~np.isnan(cands)
    per, count = valid.sum(axis=1), len(which)
    cube = np.concatenate([which, np.repeat(which, per)])
    centre = np.concatenate([np.zeros(count), cands[valid]])
    raw = np.empty(len(cube))
    for sl in job_chunks(len(cube), frames.cells):
        vals = _probe_rows(frames, f, w, q, cube[sl], centre[sl], max(0, count - sl.start))[3]
        raw[sl] = frames.integrate(vals, frames.masks(cube[sl]))
    F = np.full(cands.shape, math.inf)
    F[valid] = raw[count:] / np.repeat(raw[:count], per)
    return F


def _values_at(f: StepFunction, w: StepFunction | None, q: float, params: ContentParams,
               cubes, centres=None) -> tuple[list, list]:
    """(F, centres): F on each cube at centres[i], or at the cube's esinf
    (the minimum of f on it) when centres is None. F is 0 without an
    integral where f equals the centre on the whole cube."""
    family = CubeFamily.of(cubes)
    values = np.zeros(len(family))
    at = np.empty(len(family)) if centres is None else np.asarray(centres, dtype=np.float64)
    for positions, frames in cube_frames(f.grid, family, params):
        lo, hi = np.empty(len(positions)), np.empty(len(positions))
        for sl, fv, inside, _ in _chunk_rows(frames, f, None, len(positions)):
            lo[sl], hi[sl] = _extent(fv, inside)
        if centres is None:
            at[positions] = lo
        c = at[positions]
        probe = np.flatnonzero((lo != c) | (hi != c))
        values[positions[probe]] = _objective(frames, f, w, q, probe, c[probe, None])[:, 0]
    return values.tolist(), at.tolist()


def oscillation_objective(
    f: StepFunction,
    w: StepFunction,
    q: float,
    Q: CubeSpec,
    params: ContentParams,
    c: float,
) -> float:
    """F(c) = (1/w(Q)) * integral over Q of |f - c|**q * w d(content)."""
    _check(q, w)
    return _values_at(f, w, float(q), params, [Q], [float(c)])[0][0]


def _piece_bounds(v: np.ndarray, a: np.ndarray, bounds: np.ndarray, centre: np.ndarray):
    """(lo, hi, roots) of the piece of every chain in one pass.

    Chain t holds the levels bounds[t]:bounds[t + 1] of v (f at each
    level's cell) and a (w**(1/q) there) and was read at centre[t]; its
    piece is [lo[t], hi[t]] and roots[t] are the crossings of its
    adjacent levels.
    """
    chain = np.repeat(np.arange(len(centre)), np.diff(bounds))
    # Adjacent levels l < u keep their order where
    # h(x) = a_u|v_u - x| - a_l|v_l - x| >= 0. h has a root m between v_l
    # and v_u and is positive at v_l, so {h >= 0} holds the ray A from m
    # outward past v_l. Beyond v_l, h falls to a root o if a_l > a_u,
    # which ends A; beyond v_u it rises through o if a_l < a_u, which
    # starts a second ray B.
    p = np.flatnonzero((chain[:-1] == chain[1:]) & (v[:-1] != v[1:]))
    vl, vu, al, au = v[p], v[p + 1], a[p], a[p + 1]
    at, c = chain[p], centre[chain[p]]
    m = (al * vl + au * vu) / (al + au)
    k = al != au
    with np.errstate(divide="ignore", invalid="ignore"):
        o = np.where(k, (al * vl - au * vu) / (al - au), math.nan)
    up, inf = vl < vu, math.inf
    end = np.where(al > au, o, np.where(up, -inf, inf))
    lo, hi = np.where(up, end, m), np.where(up, m, end)
    lo_b, hi_b = np.where(up, o, -inf), np.where(up, inf, o)
    in_a = (lo <= c) & (c <= hi)
    in_b = (al < au) & (lo_b <= c) & (c <= hi_b)
    # The chain's order holds at c, so c lies outside A and B only by
    # rounding at a root: at the nearest root (clamp) when {h >= 0} is
    # one interval, and on no known side when it is two.
    lo = np.where(in_b, lo_b, np.minimum(lo, c))
    hi = np.where(in_b, hi_b, np.maximum(hi, c))
    gap = (al < au) & ~in_a & ~in_b
    lo[gap] = hi[gap] = c[gap]
    piece_lo = np.full(len(centre), -inf)
    piece_hi = np.full(len(centre), inf)
    np.maximum.at(piece_lo, at, lo)
    np.minimum.at(piece_hi, at, hi)
    # each chain's roots: its m in level order, then its o where a_l != a_u
    owner = np.concatenate([at, at[k]])
    order = np.argsort(owner, kind="stable")
    roots = np.split(np.concatenate([m, o[k]])[order],
                     np.searchsorted(owner[order], np.arange(1, len(centre))))
    return piece_lo, piece_hi, roots


def _lockstep(f: StepFunction, w: StepFunction | None, q: float, frames,
              which: np.ndarray, searches: list) -> list:
    """Run a group's piecewise searches together; return their results in order.

    searches[k] is a generator over cube which[k] of the group: it yields
    lists of (centre, side) probes, is sent F(c) for a plain probe (side 0)
    and a ``_Piece`` for a one-sided one, and returns its result. A probe
    with side +1 or -1 breaks ties between cells of equal |f - c|**q * w by
    their order just beyond c on that side and includes the cells where f = c.
    """
    results = [None] * len(searches)
    pending = {}

    def advance(k, gen, sent):
        try:
            pending[k] = (gen, gen.send(sent))
        except StopIteration as stop:
            pending.pop(k, None)
            results[k] = stop.value

    for k, gen in enumerate(searches):
        advance(k, gen, None)
    norm = np.full(len(searches), math.nan)
    while pending:
        order = list(pending)
        # the first rows integrate w (or 1) for cubes asking for the first time
        first = [k for k in order if math.isnan(norm[k])]
        asks = [(k, c, d) for k in order for c, d in pending[k][1]]
        cube = np.array(first + [k for k, _, _ in asks], dtype=np.intp)
        centre = np.array([0.0] * len(first) + [c for _, c, _ in asks])
        side = np.array([0.0] * len(first) + [d for _, _, d in asks])
        raw = np.empty(len(cube))
        levels = []  # (probe, H, v, w) of each level of the one-sided probes
        for sl in job_chunks(len(cube), frames.cells):
            rows = which[cube[sl]]
            fv, dev, wv, vals = _probe_rows(frames, f, w, q, rows, centre[sl],
                                            max(0, len(first) - sl.start))
            sided = side[sl] != 0
            keys = None
            if sided.any():
                # order of |f - x|**q * w just beyond c on side d: ties by
                # -d / (f - c), and the cells where f = c by their weight.
                # Keyed plain rows gain only zero-width levels.
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    keys = np.where(dev == 0, 1.0 if wv is None else wv,
                                    -side[sl, None] / dev)
            chains = frames.chains(vals, frames.masks(rows), keys)
            raw[sl] = chains.integrals()
            if keys is not None:
                job = np.repeat(np.arange(len(rows)), np.diff(chains.bounds))
                pick = sided[job]
                job, cells = job[pick], chains.cells[pick]
                levels.append((job + sl.start, chains.contents[pick], fv[job, cells],
                               np.ones(len(cells)) if wv is None else wv[job, cells]))
        norm[first] = raw[: len(first)]
        probes = (raw / norm[cube]).tolist()
        if levels:
            job, H, v, wt = (np.concatenate(part) for part in zip(*levels))
            sided = np.flatnonzero(side)
            bounds = np.searchsorted(job, np.append(sided, len(cube)))
            below = np.append(H[1:], 0.0)
            below[bounds[1:] - 1] = 0.0
            s = (H - below) / norm[cube[job]] * wt
            a = wt if q == 1.0 else wt ** (1.0 / q)
            lo, hi, roots = _piece_bounds(v, a, bounds, centre[sided])
            b = bounds.tolist()
            for t, (j, start, end) in enumerate(zip(sided.tolist(), lo.tolist(), hi.tolist())):
                lv = slice(b[t], b[t + 1])
                probes[j] = _Piece(probes[j], v[lv], s[lv], start, end, roots[t], q)
        pos = len(first)
        for k in order:
            gen, cs = pending[k]
            advance(k, gen, probes[pos : pos + len(cs)])
            pos += len(cs)
    return results


class _Piece:
    """phi(x) = sum_k s_k * |v_k - x|**q read from a one-sided probe at c.

    value is F(c); v holds f at each level's cell, thresholds ascending,
    and s the weights (H_k - H_{k+1}) * w_k / w(Q). phi equals F on
    [lo, hi], which holds c, and lies below F elsewhere; roots are the
    crossings of adjacent levels.
    """

    def __init__(self, value: float, v: np.ndarray, s: np.ndarray, lo: float, hi: float,
                 roots: np.ndarray, q: float):
        self.value, self.v, self.s, self.lo, self.hi, self.roots = value, v, s, lo, hi, roots
        self.q, self._kinks = q, None

    def kinks(self):
        """q = 1: sorted kinks, prefix sums of their weights, phi at each and
        the slopes of phi left and right of each."""
        if self._kinks is None:
            order = np.argsort(self.v, kind="stable")
            v, s = self.v[order], self.s[order]
            upto = np.cumsum(s)
            total = upto[-1]
            weighted = np.cumsum(s * v)
            right = 2.0 * upto - total
            phi = v * right + weighted[-1] - 2.0 * weighted
            self._kinks = v, upto, phi, right - 2.0 * s, right
        return self._kinks

    def at(self, x: float) -> float:
        dist = np.abs(self.v - x)
        return float(self.s @ (dist if self.q == 1.0 else dist**self.q))

    def slope(self, x: float, side: float) -> float:
        """The derivative of phi at x from the given side (+1 or -1)."""
        if self.q == 1.0:
            v, upto = self.kinks()[:2]
            k = int(np.searchsorted(v, x, "right" if side > 0 else "left"))
            return 2.0 * (float(upto[k - 1]) if k else 0.0) - float(upto[-1])
        dv = x - self.v
        return float(self.q * (self.s @ (np.abs(dv) ** (self.q - 1.0) * np.sign(dv))))

    def argmin(self) -> float:
        """A minimiser of phi on the real line."""
        if self.q == 1.0:
            v, _, _, _, right = self.kinks()
            return float(v[np.argmax(right >= 0)])
        if self.q == 2.0:
            return float(self.s @ self.v / self.s.sum())
        return self._bisect(float(self.v.min()), float(self.v.max()),
                            lambda x: self.slope(x, 1.0) < 0)[0]

    def level(self, thr: float, inner: float, side: float) -> float:
        """The end on the given side of the interval {phi <= thr} holding inner."""
        if self.q == 1.0:
            v, _, phi, left, right = self.kinks()
            ok = np.flatnonzero(phi <= thr)
            if not ok.size:
                return inner
            k = ok[0] if side < 0 else ok[-1]
            return float(v[k] + (thr - phi[k]) / (left[k] if side < 0 else right[k]))
        if self.q == 2.0:
            mean = self.argmin()
            room = max(thr - self.at(mean), 0.0)
            return float(mean + side * math.sqrt(room / self.s.sum()))
        step = max(float(self.v.max() - self.v.min()), 1.0)
        out = inner + side * step
        while self.at(out) <= thr:
            step *= 2.0
            out = inner + side * step
        if side < 0:
            return self._bisect(out, inner, lambda x: self.at(x) > thr)[1]
        return self._bisect(inner, out, lambda x: self.at(x) <= thr)[0]

    def segment(self, x: float, side: float):
        """q = 1: the breakpoints (outer, inner) around the plateau edge x on
        the given side of the minimiser, or None beyond the outermost one.

        The breakpoints are the cell values and the crossings of this
        chain's adjacent levels; no other lies between two neighbours
        inside the piece, so F is linear between them.
        """
        cands = np.unique(np.concatenate([self.v, self.roots]))
        if side < 0:
            k = int(np.searchsorted(cands, x, "left"))
            return (cands[k - 1], cands[k]) if 0 < k < len(cands) else None
        k = int(np.searchsorted(cands, x, "right")) - 1
        return (cands[k + 1], cands[k]) if 0 <= k < len(cands) - 1 else None

    @staticmethod
    def _bisect(lo: float, hi: float, go_right) -> tuple[float, float]:
        """Halve [lo, hi] toward the side go_right picks until no float lies between."""
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lo, hi
            if go_right(mid):
                lo = mid
            else:
                hi = mid


def _piecewise_gamma(vals: np.ndarray, wts: np.ndarray, q: float, tol: float):
    """Exact minimum and plateau of the convex F for q >= 1."""
    F: dict[tuple[float, float], float] = {}  # F at each (centre, side) probed

    # F is non-increasing below min f and non-decreasing above max f, so a
    # minimiser lies in [a, b]. tangent[-1] and tangent[1] are lines below F
    # that touch it at a and b: (point, value, slope).
    a, b = float(vals.min()), float(vals.max())
    c = float(np.median(vals)) if q == 1.0 else float(wts @ vals / wts.sum())
    c = min(max(c, a), b)
    seen, tangent, widths = [], {}, [b - a]
    while True:
        piece = (yield [(c, 1.0)])[0]
        F[c, 1.0] = piece.value
        seen.append(piece)
        lo, hi = max(piece.lo, a), min(piece.hi, b)
        slope = piece.slope(hi, -1.0)
        if slope < 0:
            a, tangent[-1] = hi, (hi, piece.at(hi), slope)
        elif (slope := piece.slope(lo, 1.0)) > 0:
            b, tangent[1] = lo, (lo, piece.at(lo), slope)
        else:
            # phi, so F, has its minimum on [lo, hi]; for q = 1 at a breakpoint
            inside = q != 1.0 and piece.slope(c, -1.0) <= 0 <= piece.slope(c, 1.0)
            c_star = c if inside else min(max(piece.argmin(), lo), hi)
            break
        if a == b:
            c_star = a
            break
        widths.append(b - a)
        # the minimiser of this piece's sum (Newton-like for q > 1), else the
        # crossing of the two tangents, else bisection
        m = piece.argmin() if q != 1.0 or len(tangent) < 2 else math.nan
        if not a < m < b and len(tangent) == 2:
            (xa, fa, sa), (xb, fb, sb) = tangent[-1], tangent[1]
            m = (fb - fa + sa * xa - sb * xb) / (sa - sb)
        if not a < m < b or (len(widths) > 2 and widths[-1] > 0.5 * widths[-3]):
            m = 0.5 * (a + b)
        if not a < m < b:
            c_star = c if c in (a, b) else a  # no float lies between a and b
            break
        c = m
    if not any(key[0] == c_star for key in F):
        F[c_star, 0.0] = (yield [(c_star, 0.0)])[0]
    min_value = min(F.values())
    thr = min_value + tol

    # Both plateau edges, from outside in: every sum phi lies below F, so
    # the end of {phi <= thr} bounds the edge from outside, and is the edge
    # once it lies on phi's own piece.
    ends, edge, bound = {}, {}, {}
    for side in (-1.0, 1.0):
        for piece in seen:
            x = piece.level(thr, c_star, side)
            if side not in bound or (x - bound[side][0]) * side < 0:
                bound[side] = (x, piece)
    while bound:
        asks = {}
        for side, (x, piece) in bound.items():
            if piece.lo <= x <= piece.hi:
                ends[side], edge[side] = x, piece
            else:
                asks[side] = x
        bound = {}
        if asks:
            got = yield [(x, -side) for side, x in asks.items()]
            for (side, x), piece in zip(asks.items(), got):
                F[x, -side] = piece.value
                nxt = piece.level(thr, c_star, side)
                if piece.value <= thr or (nxt - x) * side >= 0:
                    # inside the plateau, or no inward step left above rounding
                    ends[side], edge[side] = x, piece
                else:
                    bound[side] = (nxt, piece)
    if q == 1.0:
        # F is linear between the breakpoints around each edge: interpolate
        # the integrals there, as the scan over all breakpoints does
        segs = {side: piece.segment(ends[side], side) for side, piece in edge.items()}
        values = {c: v for (c, _), v in F.items()}
        fresh = sorted({float(x) for seg in segs.values() if seg for x in seg} - set(values))
        if fresh:
            for x, v in zip(fresh, (yield [(x, 0.0) for x in fresh])):
                F[x, 0.0] = values[x] = v
        # the inner breakpoints may end a flat bottom; rounding can put
        # them below the minimum found so far
        min_value = min(values.values())
        thr = min_value + tol
        for side, seg in segs.items():
            if seg is not None:
                outer, inner = values[float(seg[0])], values[float(seg[1])]
                if outer > thr >= inner:
                    frac = (thr - outer) / (inner - outer)
                    ends[side] = float(seg[0] + frac * (seg[1] - seg[0]))
    return GammaInterval(
        lo=ends[-1.0], hi=ends[1.0], min_value=min_value, tol=tol,
        evaluations=len(F) + 1,
    )


def _distinct_pairs(fv: np.ndarray, inside: np.ndarray, wv: np.ndarray | None, width: int):
    """(count, pairs): each row's number of distinct masked (value, weight)
    pairs, deduped and sorted as np.unique(vals + 1j * wts) does it, and its
    first `width` pairs padded with NaN, pairs[0] the values and pairs[1]
    the weights. Values get + 0.0, as in the complex sum, so -0.0 reads 0.0.
    """
    v = np.where(inside, fv + 0.0, np.inf)
    if wv is None:
        v.sort(axis=1)
        wt = np.ones(v.shape)
    else:
        order = np.lexsort((wv, v))
        v, wt = np.take_along_axis(v, order, 1), np.take_along_axis(wv, order, 1)
    new = v < np.inf
    new[:, 1:] &= (v[:, 1:] != v[:, :-1]) | (wt[:, 1:] != wt[:, :-1])
    rank = np.cumsum(new, axis=1) - 1
    r, col = np.nonzero(new & (rank < width))
    pairs = np.full((2, len(v), width), math.nan)
    pairs[:, r, rank[r, col]] = v[r, col], wt[r, col]
    return rank[:, -1] + 1, pairs


def _breakpoints(pairs: np.ndarray) -> np.ndarray:
    """q = 1 scan candidates from each cube's pairs[:, r] (see _distinct_pairs).

    The breakpoints of c -> integral |f - c| w are the values, the
    crossings of two weighted distances w_i|v_i - c| and w_j|v_j - c| where
    the weights differ, and the weighted midpoints; the candidates add one
    point beyond each end, and F is linear between them.
    """
    pv, pw = pairs
    i, j = np.triu_indices(pv.shape[1], k=1)
    vi, vj, wi, wj = pv[:, i], pv[:, j], pw[:, i], pw[:, j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cross = np.where(np.abs(wi - wj) > 0, (wi * vi - wj * vj) / (wi - wj), math.nan)
        mid = (wi * vi + wj * vj) / (wi + wj)
    b = np.concatenate([pv, cross, mid], axis=1)
    b[~np.isfinite(b)] = math.nan
    b, n = row_unique(b)
    b = b[:, : n.max()]
    rows = np.arange(len(b))
    cands = np.concatenate([b[:, :1] - 1.0, b, np.full((len(b), 1), math.nan)], axis=1)
    cands[rows, n + 1] = b[rows, n - 1] + 1.0
    return cands


def _midpoints(fv: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """q < 1 scan candidates: each row's distinct masked values and their adjacent midpoints."""
    v = np.where(inside, fv, math.nan)
    # a cube's zeros keep their sign unless both signs occur; then they read 0.0
    v[(v == 0) & ((v == 0) & ~np.signbit(v)).any(axis=1)[:, None]] = 0.0
    d = row_unique(v)[0]
    cands, n = row_unique(np.concatenate([d, 0.5 * (d[:, 1:] + d[:, :-1])], axis=1))
    return cands[:, : n.max()]


def _scan(frames, f, w, q: float, which: np.ndarray, cands: np.ndarray,
          tol: float) -> list[GammaInterval]:
    """The plateau of F on cube which[r] from F at every candidate cands[r].

    For q = 1 the candidates are _breakpoints and the ends are interpolated
    on the linear segments around them. For q < 1, where F need not be
    convex, they are _midpoints and the ends are the outermost candidates
    within tol of the minimum: the dense-scan fallback."""
    F = _objective(frames, f, w, q, which, cands)
    min_value = F.min(axis=1)
    thr = min_value + tol
    ok = F <= thr[:, None]
    first = ok.argmax(axis=1)
    final = F.shape[1] - 1 - ok[:, ::-1].argmax(axis=1)
    count = np.count_nonzero(~np.isnan(cands), axis=1)
    rows, last = np.arange(len(F)), count - 1

    def at(a, k):
        return a[rows, k]

    def between(a, b):
        # F[a] > thr >= F[b]; the segment between them is linear
        frac = (thr - at(F, a)) / (at(F, b) - at(F, a))
        return at(cands, a) + frac * (at(cands, b) - at(cands, a))

    if q < 1.0:
        lo, hi = at(cands, first), at(cands, final)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = (F[:, 1] - F[:, 0]) / (cands[:, 1] - cands[:, 0])
            outer = np.where(slope >= 0, cands[:, 0], cands[:, 0] + (thr - F[:, 0]) / slope)
            lo = np.where(first == 0, outer, between(np.maximum(first - 1, 0), first))
            slope = (at(F, last) - at(F, last - 1)) / (at(cands, last) - at(cands, last - 1))
            outer = np.where(slope <= 0, at(cands, last),
                             at(cands, last) + (thr - at(F, last)) / slope)
            hi = np.where(final == last, outer, between(np.minimum(final + 1, last), final))
    return [
        GammaInterval(lo=a, hi=b, min_value=m, tol=tol, used_fallback=q < 1.0, evaluations=e)
        for a, b, m, e in zip(lo.tolist(), hi.tolist(), min_value.tolist(), (count + 1).tolist())
    ]


def _gamma_intervals(f, w, q, cubes, params, tol=1e-9) -> list[GammaInterval]:
    """The minimiser plateau of F on every cube of a family.

    Per frame-depth group, constant cubes and the scans are array
    operations; the piecewise searches run in lockstep.
    """
    q = float(q)
    half = tol ** (1.0 / q)
    family = CubeFamily.of(cubes)
    out = [None] * len(family)
    for positions, frames in cube_frames(f.grid, family, params):
        scans, search, gens = [], [], []
        for sl, fv, inside, wv in _chunk_rows(frames, f, w, len(positions)):
            lo, hi = _extent(fv, inside)
            flat = lo == hi
            corner = fv[np.arange(len(fv)), inside.argmax(axis=1)]  # f at the cube's first cell
            for k, a in zip(np.flatnonzero(flat).tolist(), corner[flat].tolist()):
                out[positions[sl.start + k]] = GammaInterval(
                    lo=a - half, hi=a + half, min_value=0.0, tol=tol)
            rest = ~flat
            if q == 1.0:
                count, pairs = _distinct_pairs(fv, inside, wv, _SCAN_PAIRS)
                few = rest & (count <= _SCAN_PAIRS)
                if few.any():
                    scans.append((sl.start + np.flatnonzero(few), _breakpoints(pairs[:, few])))
                rest &= ~few
            elif q < 1.0 and rest.any():  # no search: every other cube scans
                scans.append((sl.start + np.flatnonzero(rest), _midpoints(fv[rest], inside[rest])))
                continue
            for k in np.flatnonzero(rest).tolist():
                vals = fv[k][inside[k]]
                wts = np.ones(vals.size) if wv is None else wv[k][inside[k]]
                search.append(sl.start + k)
                gens.append(_piecewise_gamma(vals, wts, q, tol))
        if scans:
            which = np.concatenate([k for k, _ in scans])
            width = max(c.shape[1] for _, c in scans)
            cands = np.concatenate([np.pad(c, ((0, 0), (0, width - c.shape[1])), constant_values=math.nan)
                                    for _, c in scans])
            for k, gi in zip(which.tolist(), _scan(frames, f, w, q, which, cands, tol)):
                out[positions[k]] = gi
        if gens:
            for k, gi in zip(search, _lockstep(f, w, q, frames, np.array(search), gens)):
                out[positions[k]] = gi
    return out


def gamma_interval(
    f: StepFunction,
    w: StepFunction | None,
    q: float,
    Q: CubeSpec,
    params: ContentParams,
    tol: float = 1e-9,
) -> GammaInterval:
    """Global minimum of F and the plateau {F <= min + tol} around it."""
    _check(q, w)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _gamma_intervals(f, w, q, [Q], params, tol)[0]


def _report(family, values, centers, policy, gis=()) -> SeminormReport:
    worst = int(np.argmax(values))
    return SeminormReport(
        value=values[worst],
        worst_cube=family[worst],
        family=family,
        centers=np.asarray(centers, dtype=np.float64),
        policy=policy,
        exact=not any(gi.used_fallback for gi in gis),
    )


def _search_report(f, w, q, family, params, policy) -> SeminormReport:
    """The report of the centre searches: (min F)**(1/q), at the plateaus' midpoints."""
    gis = _gamma_intervals(f, w, q, family, params)
    return _report(family, [gi.min_value ** (1.0 / q) for gi in gis],
                   [0.5 * (gi.lo + gi.hi) for gi in gis], policy, gis)


def bmo_seminorm(
    f: StepFunction,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
    centering: str = "inf_c",
) -> SeminormReport:
    """Supremum over the cube family of the mean oscillation of f.

    centering "inf_c" minimizes the average over the center; "f_Q_delta"
    centers at the signed average of f on the cube.
    """
    if centering not in ("inf_c", "f_Q_delta"):
        raise ValueError(f"unknown centering {centering!r}")
    cubes = enumerate_cubes(f.grid, policy)
    if centering == "inf_c":
        return _search_report(f, None, 1.0, cubes, params, policy)
    return _signed_report(f, cubes, [avg.value for avg in signed_averages(f, cubes, params)],
                          params, policy)


def _signed_report(f, cubes, averages, params, policy) -> SeminormReport:
    """The "f_Q_delta" report, given the signed averages of f on the cubes."""
    return _report(cubes, _values_at(f, None, 1.0, params, cubes, averages)[0], averages, policy)


def blo_values(f: StepFunction, cubes, params: ContentParams, q: float = 1.0):
    """(values, centers) of the lower oscillation on each cube: the q-mean
    of f - esinf_Q f to the power 1/q, centred at the esinf."""
    F, centers = _values_at(f, None, float(q), params, cubes)
    return [v ** (1.0 / q) for v in F], centers


def blo_seminorm(
    f: StepFunction,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
    q: float = 1.0,
) -> SeminormReport:
    """Supremum of the q-mean of f - esinf_Q f; centers are the esinfs."""
    _check(q)
    cubes = enumerate_cubes(f.grid, policy)
    return _report(cubes, *blo_values(f, cubes, params, q), policy)


def weighted_bmo_seminorm(
    f: StepFunction,
    w: StepFunction,
    q: float,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
) -> SeminormReport:
    """sup over cubes of (inf_c F(c))**(1/q) for the weighted objective."""
    _check(q, w)
    return _search_report(f, w, q, enumerate_cubes(f.grid, policy), params, policy)
