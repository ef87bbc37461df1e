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
bisection in lockstep for other q > 1) or, for q = 1, where the lines
touching F at both bracket ends cross, with bisection whenever the
bracket fails to halve in two steps. The plateau {F <= min + tol} is
solved from outside in: the end of {phi <= tol + min} bounds the edge
for every chain read so far, and is the edge once it lies on its own
piece. For q = 1, F is
linear between breakpoints (cell values and crossings), so each edge is
interpolated between the integrals at its two neighbouring breakpoints,
and cubes with at most ``_SCAN_PAIRS`` distinct (value, weight) pairs
evaluate every breakpoint in one step instead, which is cheaper there.
A probe at a crossing breaks ties toward one side (``layer_cake`` keys),
so its chain still holds on that side. For q < 1 a dense scan over the
cell values and their midpoints is used, which may miss the minimum
(``GammaInterval.used_fallback``; a report is then not ``exact``).

Every integral of F runs through ``_probe_integrals``: (cube, centre,
side) probes on a family's ``CubeFrames`` become rows |f - c|**q * w,
the normalisers w(Q) first, in the layer-cake calls of its ``chunks``;
side 0 is a plain value, and side +1 or -1 also returns the probe's
levels. Searches whose centres are known up front are array operations
over the family: constant cubes need no integral, and ``_objective``
gives F on a NaN-padded (cubes x centres) matrix of plain probes, for
one given centre per cube (``_values_at``) and for ``_scan``: the q = 1
breakpoints of small cubes and the q < 1 dense scan. The piecewise
searches of a family run together in ``_search``, in rounds of array
operations. Each round integrates every pending probe and, in the first
round, the normalisers; reads the pieces of all one-sided probes in one
pass (``_piece_bounds``); moves every cube on by masked operations; and
drops every piece but the bracket pieces of cubes whose plateau has not
started, so a search holds a piece only while its cube can still read
it. For q = 1 each piece's kinks come from column cumsums, one array per
power-of-two class of chain length (``_kinks``), which add in the order
of a 1-D cumsum. Dots and sums of the levels, which a padded row would
round differently, are matmuls and row sums over the chains of one
length, and the bisections of other q > 1 step all chains in lockstep.
A family's plateaus stay arrays; the one-cube entry points run the same
code on a one-cube family and alone build a ``GammaInterval``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .choquet import signed_averages
from .content import ContentParams, cube_frames, row_unique
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


def _check(q: float, f: StepFunction, w: StepFunction | None = None, c: float | None = None) -> None:
    """The q, weight and centre checks of the public entry points: q keeps
    |f - x|**q * max w finite for every x a search probes, or c."""
    if not 0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    if w is not None and w.grid != f.grid:
        raise ValueError("weight lives on a different grid")
    if w is not None and np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive")
    if c is not None and not math.isfinite(c):
        raise ValueError("the centre c must be finite")
    lo, hi = float(f.values.min()), float(f.values.max())
    reach = max(2 * (hi - lo), hi - lo + 1) if c is None else max(hi, c) - min(lo, c)
    with np.errstate(over="ignore"):
        top = np.float64(reach) ** q * (1.0 if w is None else w.values.max())
    if not top < math.inf:
        raise ValueError(f"q = {q} is too large: |f - c|**q * w overflows on this f")


def _objective(frames, f, w, q: float, cubes: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """F on cube cubes[r] at each centre cands[r, j], +inf where cands is NaN.

    The normalisers w(Q) take the first rows of the same layer-cake calls.
    """
    valid = ~np.isnan(cands)
    per, count = valid.sum(axis=1), len(cubes)
    cube = np.concatenate([cubes, np.repeat(cubes, per)])
    centre = np.concatenate([np.zeros(count), cands[valid]])
    raw = _probe_integrals(f, w, q, frames, cube, centre, np.zeros(len(cube)), count)[0]
    F = np.full(cands.shape, math.inf)
    F[valid] = raw[count:] / np.repeat(raw[:count], per)
    return F


def _values_at(f: StepFunction, w: StepFunction | None, q: float, params: ContentParams,
               cubes, centres=None) -> tuple[np.ndarray, np.ndarray]:
    """(F, centres): F on each cube at centres[i], or at the cube's esinf
    (the minimum of f on it) when centres is None. F is 0 without an
    integral where f equals the centre on the whole cube."""
    frames = cube_frames(f.grid, CubeFamily.of(cubes), params)
    (lo, hi), values = frames.extremes(f.values), np.zeros(len(frames))
    at = lo if centres is None else np.asarray(centres, dtype=np.float64)
    probe = np.flatnonzero((lo != at) | (hi != at))
    values[probe] = _objective(frames, f, w, q, probe, at[probe, None])[:, 0]
    return values, at


def oscillation_objective(
    f: StepFunction,
    w: StepFunction,
    q: float,
    Q: CubeSpec,
    params: ContentParams,
    c: float,
) -> float:
    """F(c) = (1/w(Q)) * integral over Q of |f - c|**q * w d(content)."""
    _check(q, f, w, float(c))
    return float(_values_at(f, w, float(q), params, [Q], [float(c)])[0][0])


def _piece_bounds(v: np.ndarray, a: np.ndarray, bounds: np.ndarray, centre: np.ndarray):
    """(lo, hi, roots) of the piece of every chain in one pass.

    Chain t holds the levels bounds[t]:bounds[t + 1] of v (f at each
    level's cell) and a (w**(1/q) there) and was read at centre[t]; its
    piece is [lo[t], hi[t]]; roots[:, i] are the roots m and o (below) of
    its levels i and i + 1, NaN where there is none.
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
    with np.errstate(divide="ignore", invalid="ignore"):
        o = np.where(al != au, (al * vl - au * vu) / (al - au), math.nan)
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
    roots = np.full((2, len(v)), math.nan)
    roots[:, p] = m, o
    return piece_lo, piece_hi, roots


def _kinks(v: np.ndarray, s: np.ndarray, bounds: np.ndarray):
    """q = 1: the levels of each chain bounds[t]:bounds[t + 1] sorted by v
    (stably), flat in chain order: v, phi at each level and the slopes of
    phi left and right of it. The prefix sums of s and s * v behind them
    run down the columns of one end-padded (levels x chains) array per
    power-of-two class of chain length, adding in the order of each
    chain's own cumsum; the arrays hold at most twice the levels."""
    n = np.diff(bounds)
    chain = np.repeat(np.arange(len(n)), n)
    order = np.lexsort((v, chain))
    v, s = v[order], s[order]
    at, size = np.arange(len(v)) - bounds[chain], np.frexp(n - 1)[1]  # n <= 2**size
    right, phi = np.empty((2, len(v)))
    for e in np.unique(size).tolist():
        ts, lv = np.flatnonzero(size == e), np.flatnonzero(size[chain] == e)
        col = np.searchsorted(ts, chain[lv])
        sums = np.zeros((2, 1 << e, len(ts)))
        sums[:, at[lv], col] = s[lv], s[lv] * v[lv]
        np.cumsum(sums, axis=1, out=sums)
        (upto, weighted), (total, wtotal) = sums[:, at[lv], col], sums[:, n[chain[lv]] - 1, col]
        right[lv] = 2.0 * upto - total
        phi[lv] = v[lv] * right[lv] + wtotal - 2.0 * weighted
    return v, phi, right - 2.0 * s, right


def _probe_integrals(f, w, q: float, frames, cubes: np.ndarray, centre: np.ndarray,
                     side: np.ndarray, norms: int):
    """F's integrals at the probes (centre[j], side[j]) on the family's cubes
    cubes[j], the first `norms` of them the normalisers w(Q) (rows of w,
    or 1), and (j - norms, H, v, w) of each level of the one-sided probes,
    by j. Side 0 integrates without keys. Side +1 or -1 breaks ties between
    cells of equal |f - c|**q * w by their order just beyond c on that
    side and includes the cells where f = c."""
    raw, levels = np.empty(len(cubes)), []
    for at, ids in frames.chunks(cubes):
        fv = frames.rows(f.values, ids)
        wv = np.ones(fv.shape) if w is None else frames.rows(w.values, ids)
        dev = fv - centre[at, None]
        vals = (np.abs(dev) if q == 1.0 else np.abs(dev) ** q) * wv
        norm = at < norms  # a prefix of the chunk
        vals[norm] = wv[norm]
        sided = side[at] != 0
        keys = None
        if sided.any():
            # order of |f - x|**q * w just beyond c on side d: ties by
            # -d / (f - c), and the cells where f = c by their weight.
            # Keyed plain rows gain only zero-width levels.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                keys = np.where(dev == 0, wv, -side[at, None] / dev)
        chains = frames.chains(vals, frames.masks(ids), keys)
        raw[at] = chains.integrals()
        if keys is not None:
            job = np.repeat(np.arange(len(ids)), np.diff(chains.bounds))
            pick = sided[job]
            job, cells = job[pick], chains.cells[pick]
            levels.append((at[job] - norms, chains.contents[pick], fv[job, cells], wv[job, cells]))
    if levels:  # chunks come depth by depth: sort by probe, each probe's levels in chain order
        order = np.argsort(np.concatenate([part[0] for part in levels]), kind="stable")
        levels = [np.concatenate(part)[order] for part in zip(*levels)]
    return raw, levels


_BRACKET, _CENTRE, _PLATEAU, _FRESH, _DONE = range(5)


def _spans(start: np.ndarray, n: np.ndarray):
    """Indices of the runs start[i]:start[i] + n[i] laid end to end, and the run of each."""
    owner = np.repeat(np.arange(len(n)), n)
    return np.arange(len(owner)) + np.repeat(start - np.cumsum(n) + n, n), owner


class _Pieces:
    """Pieces laid end to end: piece t, read for cube cube[t], holds on
    [lo[t], hi[t]], and its n[t] levels follow on in each array of levels:
    v and s in chain order and, for q = 1, roots m and o and the _kinks."""

    def __init__(self, *fields):
        self.n, self.lo, self.hi, self.cube, *self.levels = self.fields = fields
        self.start = np.cumsum(self.n) - self.n

    def take(self, t: np.ndarray) -> _Pieces:
        """The pieces t, in that order, their levels copied out."""
        idx = _spans(self.start[t], self.n[t])[0]
        return _Pieces(*(x[t] for x in self.fields[:4]), *(x[idx] for x in self.levels))


def _search(f: StepFunction, w: StepFunction | None, q: float, frames, cubes: np.ndarray,
            start: np.ndarray, tol: float) -> tuple:
    """The exact minimum and plateau of the convex F for q >= 1 on every
    searched cube, in rounds of array operations over all of them.

    Search j runs on the family's cube cubes[j]; start holds each cube's
    min f, max f and first centre. Each round integrates the probes of
    all pending cubes in one ``_probe_integrals`` request, the first
    round's normalisers in front, and then moves every cube on by masked
    array operations. Each cube keeps up to 4 probes (centre, side) for
    the next round, every probe so far with its value, and its bracket
    pieces until its plateau starts; a round drops the other pieces it
    read, once it has kept per cube what later rounds need: the bracket,
    its tangents and the edges.
    """
    K = start.shape[1]
    a, b, c = start.copy()
    phase = np.full(K, _BRACKET)
    c_star, thr, min_value, norm = np.full((4, K), math.nan)
    tangent = np.full((2, 3, K), math.nan)  # lines below F touching it at a and b: (point, value, slope)
    widths = np.full((3, K), math.nan)  # the bracket's last three widths, latest last
    widths[2] = b - a
    # per side: the edge, and for q = 1 the (outer, inner) breakpoints around it
    ends, seg = np.full((2, K), math.nan), np.full((2, 2, K), math.nan)
    slot, slot_side, ask = np.full((K, 4), math.nan), np.zeros((K, 4)), np.zeros((K, 4), dtype=bool)
    slot[:, 0], slot_side[:, 0], ask[:, 0] = c, 1.0, True
    log_c, log_s, log_v = np.empty((3, K, 0))
    pieces = _Pieces(*np.empty((4, 0), dtype=np.intp), *np.empty((8 if q == 1.0 else 2, 0)))

    def first_in(mask, n, last=False):
        """The first place where mask holds in each run of lengths n >= 1
        laid end to end, or the last in the runs where last holds; the run's
        start if none; and whether found."""
        at, i = np.cumsum(n) - n, np.arange(len(mask))
        k = np.minimum.reduceat(np.where(mask, i, len(mask)), at)
        if np.any(last):
            k = np.where(last, np.maximum.reduceat(np.where(mask, i, -1), at), k)
        found = (0 <= k) & (k < len(mask))
        return np.where(found, k, at), found

    def by_length(p, terms, count):
        """count arrays over the pieces p: terms(V, S, i) for the pieces p[i]
        of each chain length, their levels the rows of V and S."""
        (v, s), out, n = pieces.levels[:2], np.empty((count, len(p))), pieces.n[p]
        for length in np.unique(n).tolist():
            i = np.flatnonzero(n == length)
            idx = pieces.start[p[i], None] + np.arange(length)
            out[:, i] = terms(v[idx], s[idx], i)
        return out

    def dot(S, T):
        """Each row's s @ t (T may stack several rows per row of S) by one
        matmul over rows of one length: each chain's own dot, whose float
        padded rows would change."""
        return np.matmul(S[:, None, :], T[..., None])[..., 0, 0]

    def mean(V, S):
        """q = 2: the minimiser of phi, the s-weighted mean of v, and sum(s)."""
        total = S.sum(axis=1)
        return dot(S, V) / total, total

    def bisect(p, lo, hi, g, right):
        """Halve the brackets [lo, hi] of the pieces p in lockstep, bracket r
        toward the side right(y, r) picks for y = sum_k s_k * g(x - v_k) at
        its midpoint x, each until no float lies inside it. The live pieces'
        levels are laid out by chain length, so each step takes g of all of
        them at once, then a dot over the rows of each length."""
        r = np.argsort(pieces.n[p], kind="stable")
        sub, a, b, lo, hi = _Pieces(*pieces.fields[:6]).take(p[r]), lo[r], hi[r], lo.copy(), hi.copy()
        while len(r):
            x = 0.5 * (a + b)
            live = (a < x) & (x < b)
            if not live.all():
                lo[r], hi[r] = a, b
                r, a, b, x, sub = r[live], a[live], b[live], x[live], sub.take(np.flatnonzero(live))
            (v, s), n, y = sub.levels, sub.n, np.empty(len(r))
            t, cut = g(np.repeat(x, n) - v), (np.flatnonzero(n[1:] != n[:-1]) + 1).tolist()
            for i, j in zip([0, *cut], [*cut, len(n)] if len(n) else []):
                at, shape = slice(sub.start[i], sub.start[j - 1] + n[i]), (j - i, n[i])
                y[i:j] = dot(s[at].reshape(shape), t[at].reshape(shape))
            go = right(y, r)
            a, b = np.where(go, x, a), np.where(go, b, x)
        return lo, hi

    def extent(p):
        """min v and max v of each piece p."""
        return by_length(p, lambda V, S, i: (V.min(axis=1), V.max(axis=1)), 2)

    def argmin(p):
        """q > 1 other than 2: a minimiser of each piece p's phi, by bisection on its slope."""
        return bisect(p, *extent(p), lambda d: np.abs(d) ** (q - 1.0) * np.sign(d), lambda y, r: y < 0)[0]

    def level(p, ks, side):
        """The end on side side[i] (-1 or 1) of {phi <= thr} holding c_star,
        of each piece p[i], read for cube ks[i]."""
        if q == 2.0:
            def terms(V, S, i):
                centre, total = mean(V, S)
                return centre, total, thr[ks[i]] - dot(S, np.abs(V - centre[:, None]) ** q)
            centre, total, room = by_length(p, terms, 3)
            return centre + side * np.sqrt(np.where(0.0 > room, 0.0, room) / total)
        if q != 1.0:
            def phi(p, x):
                return by_length(p, lambda V, S, i: dot(S, np.abs(V - x[i, None]) ** q), 1)[0]
            # step out from c_star, doubling the step until phi exceeds thr;
            # then bisect between, phi <= thr at the inner end
            (lo, hi), t, inner = extent(p), thr[ks], c_star[ks]
            step, r = np.maximum(hi - lo, 1.0), np.arange(len(p))
            while len(r := r[phi(p[r], inner[r] + side[r] * step[r]) <= t[r]]):
                step[r] *= 2.0
            up, far = side > 0, inner + side * step
            lo, hi = bisect(p, np.where(up, inner, far), np.where(up, far, inner), lambda d: np.abs(d) ** q,
                            lambda y, r: np.where(up[r], y <= t[r], y > t[r]))
            return np.where(up, lo, hi)
        kv, kphi, left, right = pieces.levels[4:]
        idx, owner = _spans(pieces.start[p], pieces.n[p])
        k, found = first_in(kphi[idx] <= thr[ks][owner], pieces.n[p], last=side > 0)
        k = idx[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = kv[k] + (thr[ks] - kphi[k]) / np.where(side < 0, left[k], right[k])
        return np.where(found, x, c_star[ks])

    def emit(ks, j, x, side):
        slot[ks, j], slot_side[ks, j], ask[ks, j] = x, side, True

    def settle(j, side, ks, p, x, found=False):
        """x bounds the given side's edge of cubes ks from outside: it is the
        edge where found or on its own piece p, else asked for. For q = 1
        keep the values and roots of p around it: F is linear between them."""
        found = found | ((pieces.lo[p] <= x) & (x <= pieces.hi[p]))
        far = ~found & ~np.isnan(x)
        emit(ks[far], j, x[far], -side)
        ks, p, x = ks[found], p[found], x[found]
        ends[j, ks] = x
        if q != 1.0 or not len(ks):
            return
        idx, at = _spans(pieces.start[p], pieces.n[p])
        cand, at = np.concatenate([pieces.levels[i][idx] for i in (0, 2, 3)]), np.tile(at, 3)  # v and roots
        below = (cand < x[at]) | ((side > 0) & (cand == x[at]))
        top, bottom = np.full(len(ks), -math.inf), np.full(len(ks), math.inf)
        np.maximum.at(top, at[below], cand[below])
        np.fmin.at(bottom, at[~below], cand[~below])  # a NaN root is none
        seg[j][:, ks] = np.where((top == -math.inf) | (bottom == math.inf), math.nan,
                                 [top, bottom] if side < 0 else [bottom, top])

    def interpolate(ks):
        """q = 1: each edge on the linear segment around it, from F at both
        ends; the inner ends may end a flat bottom, so rounding can put them
        below the minimum found before."""
        lowest = np.fmin.reduce(log_v[ks], axis=1)
        min_value[ks], t = lowest, lowest + tol
        for j in range(2):
            x0, x1 = seg[j][:, ks]
            with np.errstate(invalid="ignore", divide="ignore"):
                outer, inner = (log_v[ks, (log_c[ks] == x[:, None]).argmax(axis=1)] for x in (x0, x1))
                on = ~np.isnan(x0) & (outer > t) & (t >= inner)
                ends[j, ks[on]] = (x0 + (t - outer) / (inner - outer) * (x1 - x0))[on]
        phase[ks] = _DONE

    def read(levels, sided):
        """The fields of the pieces of this round's one-sided probes kk[sided]."""
        job, H, v, wt = levels
        bounds = np.searchsorted(job, np.append(sided, len(kk)))
        below = np.append(H[1:], 0.0)
        below[bounds[1:] - 1] = 0.0
        s = (H - below) / norm[kk[job]] * wt
        lo, hi, roots = _piece_bounds(v, wt if q == 1.0 else wt ** (1.0 / q), bounds, centre[sided])
        rows = [v, s, *roots, *_kinks(v, s, bounds)] if q == 1.0 else [v, s]
        return np.diff(bounds), lo, hi, kk[sided], *rows

    while ask.any():
        kk, jj = np.nonzero(ask)
        centre, side = slot[kk, jj], slot_side[kk, jj]
        got, pid = np.full((K, 4), math.nan), np.full((K, 4), -1)
        # the first round integrates w (or 1) on every cube first
        mine = np.flatnonzero(np.isnan(norm))
        zeros = np.zeros(len(mine))
        raw, levels = _probe_integrals(f, w, q, frames, cubes[np.concatenate([mine, kk])],
                                       np.concatenate([zeros, centre]), np.concatenate([zeros, side]), len(mine))
        norm[mine] = raw[: len(mine)]
        got[kk, jj] = raw[len(mine) :] / norm[kk]
        if levels:
            sided = np.flatnonzero(side)
            # this round's pieces follow the carried ones
            pid[kk[sided], jj[sided]] = len(pieces.n) + np.arange(len(sided))
            pieces = _Pieces(*(np.concatenate(pair) for pair in zip(pieces.fields, read(levels, sided))))
        asked, probed, was = ask.copy(), slot.copy(), phase.copy()
        log_c = np.concatenate([log_c, np.where(asked, slot, math.nan)], axis=1)
        log_s, log_v = (np.concatenate([old, new], axis=1) for old, new in ((log_s, slot_side), (log_v, got)))
        ask[:] = False
        starting = [np.flatnonzero(was == _CENTRE)]

        # the bracket search: a minimiser lies in [a, b]; cut it at the
        # piece's end by the slope there, unless the piece holds a minimum
        ks = np.flatnonzero(was == _BRACKET)
        if len(ks):
            p = pid[ks, 0]
            A, B, x0 = a[ks], b[ks], c[ks]
            lo = np.where(A > pieces.lo[p], A, pieces.lo[p])
            hi = np.where(B < pieces.hi[p], B, pieces.hi[p])
            if q == 1.0:
                # phi's slope past the kinks below a point: the right slope
                # of the last of them, or -total; its minimum at the first
                # kink where the right slope is >= 0
                at, n, kright = pieces.start[p], pieces.n[p], pieces.levels[7]
                idx, owner = _spans(at, n)
                kv, total = pieces.levels[4][idx], kright[at + n - 1]

                def slope(below):
                    k = np.bincount(owner[below], minlength=len(p))
                    return np.where(k > 0, kright[at + k - 1], -total)
                left, right = slope(kv < hi[owner]), slope(kv <= lo[owner])
                peak = kv[first_in(kright[idx] >= 0, n)[0]]
            else:
                # phi's slope at hi, lo and the centre, phi at hi and lo, and
                # for q = 2 its minimiser, in one pass over each chain length
                def terms(V, S, i):
                    d = np.stack([hi[i], lo[i], x0[i]])[:, :, None] - V
                    return [*q * dot(S, np.abs(d) ** (q - 1.0) * np.sign(d)), *dot(S, np.abs(d[:2]) ** q),
                            mean(V, S)[0] if q == 2.0 else np.full(len(i), math.nan)]
                left, right, flat, phi_hi, phi_lo, peak = by_length(p, terms, 6)
            cut = np.stack([left < 0, ~(left < 0) & (right > 0)])
            touch, any_cut = np.where(cut[0], hi, lo), cut[0] | cut[1]
            if q == 1.0:
                value = np.full(len(p), math.nan)
                at = touch[any_cut]
                value[any_cut] = by_length(p[any_cut], lambda V, S, i: dot(S, np.abs(V - at[i, None])), 1)[0]
            else:
                value = np.where(cut[0], phi_hi, phi_lo)
            for j in range(2):
                tangent[j][:, ks[cut[j]]] = np.stack([touch, value, (left, right)[j]])[:, cut[j]]
            a[ks[cut[0]]], b[ks[cut[1]]] = hi[cut[0]], lo[cut[1]]
            stop = ~cut[0] & ~cut[1]
            A, B = a[ks], b[ks]
            go = ~stop & (A != B)
            both = ~np.isnan(tangent[:, 0, ks]).any(axis=0)
            need = go & ~both if q == 1.0 else go
            if q not in (1.0, 2.0):
                peak[stop | need] = argmin(p[stop | need])
            # phi, so F, has its minimum on [lo, hi]; for q = 1 at a breakpoint
            best = np.where(lo > peak, lo, peak)
            best = np.where(hi < best, hi, best)
            if q != 1.0:
                best = np.where(flat == 0, x0, best)
            best = np.where(stop, best, np.where(A == B, A, math.nan))
            widths[:, ks[go]] = np.stack([widths[1, ks[go]], widths[2, ks[go]], (B - A)[go]])
            # the next centre: the minimiser of this piece's sum (Newton-like
            # for q > 1), else the crossing of the two tangents, else bisection
            m = np.where(need, peak, math.nan)
            cross = go & both & ~((A < m) & (m < B))
            (xa, fa, sa), (xb, fb, sb) = tangent[:, :, ks[cross]]
            m[cross] = (fb - fa + sa * xa - sb * xb) / (sa - sb)
            # widths[0] is NaN, so compares False, until the bracket has had three widths
            halve = go & (~((A < m) & (m < B)) | (widths[2, ks] > 0.5 * widths[0, ks]))
            m[halve] = 0.5 * (A[halve] + B[halve])
            stuck = go & ~((A < m) & (m < B))  # no float lies between a and b
            best[stuck] = np.where((x0 == A) | (x0 == B), x0, A)[stuck]
            c[ks[go & ~stuck]] = m[go & ~stuck]
            emit(ks[go & ~stuck], 0, m[go & ~stuck], 1.0)
            c_star[ks[~go | stuck]] = best[~go | stuck]
            ks = ks[~go | stuck]
            probe = ~(log_c[ks] == c_star[ks, None]).any(axis=1)
            emit(ks[probe], 0, c_star[ks[probe]], 0.0)
            phase[ks[probe]] = _CENTRE
            starting.append(ks[~probe])

        # the plateau edges, from outside in: every sum phi lies below F, so
        # the end of {phi <= thr} bounds the edge from outside, and is the
        # edge once it lies on phi's own piece. A plateau cube reads it from
        # its probe on that side; a starting cube from each of its bracket
        # pieces, and keeps the innermost
        ks, starting = np.flatnonzero(was == _PLATEAU), np.concatenate(starting)
        if len(ks) or len(starting):
            lowest = np.fmin.reduce(log_v[starting], axis=1)
            min_value[starting], thr[starting] = lowest, lowest + tol
            j, k = np.nonzero(asked[ks, :2].T)
            k, sp = ks[k], np.flatnonzero(np.isin(pieces.cube, starting))  # each cube's in round order
            sc, sides = pieces.cube[sp], np.array([-1.0, 1.0])
            x = level(np.concatenate([pid[k, j], sp, sp]), np.concatenate([k, sc, sc]),
                      np.concatenate([sides[j], np.repeat(sides, len(sp))]))
            x, xs = x[: len(k)], x[len(k) :].reshape(2, len(sp))
            for i, side in enumerate(sides.tolist()):
                kk, probe, nxt = k[j == i], probed[k[j == i], i], x[j == i]
                # the probe is the edge inside the plateau, or with no inward step left
                done = (got[kk, i] <= thr[kk]) | ((nxt - probe) * side >= 0)
                settle(i, side, kk, pid[kk, i], np.where(done, probe, nxt), done)
                best = np.full(K, side * math.inf)
                (np.maximum if side < 0 else np.minimum).at(best, sc, xs[i])
                hit = np.flatnonzero(xs[i] == best[sc])
                first = hit[np.unique(sc[hit], return_index=True)[1]]  # the first piece on ties
                settle(i, side, sc[first], sp[first], xs[i][first])
        # cubes asking for no edge have both; q = 1 probes the breakpoints around them
        ks = np.concatenate([starting, ks])
        done = ks[~ask[ks, :2].any(axis=1)]
        phase[ks] = _PLATEAU
        phase[done] = _DONE
        if q == 1.0 and len(done):
            fresh = seg[:, :, done].reshape(4, len(done)).T.copy()
            fresh[(fresh[:, :, None] == log_c[done][:, None, :]).any(axis=2)] = math.nan
            fresh.sort(axis=1)
            fresh[:, 1:][fresh[:, 1:] == fresh[:, :-1]] = math.nan
            fresh.sort(axis=1)
            slot[done], slot_side[done], ask[done] = fresh, 0.0, ~np.isnan(fresh)
            phase[done] = np.where(ask[done].any(axis=1), _FRESH, _DONE)
            interpolate(done[phase[done] == _DONE])
        if (was == _FRESH).any():
            interpolate(np.flatnonzero(was == _FRESH))
        # only a cube whose plateau has not started reads its pieces again
        pieces = pieces.take(np.flatnonzero(phase[pieces.cube] < _PLATEAU))
    # evaluations: the distinct (centre, side) probes, and the normaliser
    probes = np.sort(log_c + 1j * log_s, axis=1)  # by centre, then side; NaN centres last
    evaluations = (~np.isnan(log_c)).sum(axis=1) - (probes[:, 1:] == probes[:, :-1]).sum(axis=1) + 1
    return ends[0], ends[1], min_value, evaluations


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


def _scan(frames, f, w, q: float, cubes: np.ndarray, cands: np.ndarray,
          tol: float) -> tuple:
    """(lo, hi, min_value, evaluations): the plateau of F on cube cubes[r]
    from F at every candidate cands[r].

    For q = 1 the candidates are _breakpoints and the ends are interpolated
    on the linear segments around them. For q < 1, where F need not be
    convex, they are _midpoints and the ends are the outermost candidates
    within tol of the minimum: the dense-scan fallback."""
    F = _objective(frames, f, w, q, cubes, cands)
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
    return lo, hi, min_value, count + 1


def _gamma_intervals(f, w, q, cubes, params, tol=1e-9) -> np.ndarray:
    """The minimiser plateau of F on every cube of a family: rows lo, hi,
    min_value and evaluations, a column per cube in family order.

    Constant cubes and the starts of the searches are array operations
    over each chunk of cubes; one ``_scan`` per frame depth and one ``_search`` take the rest.
    """
    q = float(q)
    half = tol ** (1.0 / q)
    frames = cube_frames(f.grid, CubeFamily.of(cubes), params)
    out = np.zeros((4, len(frames)))  # a constant cube needs no evaluation
    scans, search, starts = {}, [], []  # scans per frame depth: rows pad to their depth's widest
    for _, ids in frames.chunks(np.arange(len(frames))):
        depth_scans = scans.setdefault(int(frames.depth[ids[0]]), [])
        fv, inside = frames.rows(f.values, ids), frames.masks(ids)
        wv = None if w is None else frames.rows(w.values, ids)
        corner = fv[np.arange(len(fv)), inside.argmax(axis=1)]  # f at the cube's first cell
        flat = ((fv == corner[:, None]) | ~inside).all(axis=1)
        out[:2, ids[flat]] = corner[flat] - half, corner[flat] + half
        rest = ~flat
        if q == 1.0:
            count, pairs = _distinct_pairs(fv, inside, wv, _SCAN_PAIRS)
            few = rest & (count <= _SCAN_PAIRS)
            if few.any():
                depth_scans.append((ids[few], _breakpoints(pairs[:, few])))
            rest &= ~few
        elif q < 1.0 and rest.any():  # no search: every other cube scans
            depth_scans.append((ids[rest], _midpoints(fv[rest], inside[rest])))
            continue
        # F is non-increasing below min f and non-decreasing above max
        # f, so a minimiser lies between them. The first centre is the
        # median (q = 1) or the weighted mean; row-wise over cubes of one
        # size, they are each cube's own floats.
        size = inside.sum(axis=1)
        for n in np.unique(size[rest]).tolist():
            k = np.flatnonzero(rest & (size == n))
            vals = fv[k][inside[k]].reshape(len(k), n)
            a, b = vals.min(axis=1), vals.max(axis=1)
            if q == 1.0:
                c = np.median(vals, axis=1)
            else:
                wts = np.ones(vals.shape) if wv is None else wv[k][inside[k]].reshape(len(k), n)
                c = np.matmul(wts[:, None, :], vals[:, :, None])[:, 0, 0] / wts.sum(axis=1)
            c = np.where(a > c, a, c)
            search.append(ids[k])
            starts.append([a, b, np.where(b < c, b, c)])
    for part in filter(None, scans.values()):
        which = np.concatenate([k for k, _ in part])
        width = max(c.shape[1] for _, c in part)
        cands = np.concatenate([np.pad(c, ((0, 0), (0, width - c.shape[1])), constant_values=math.nan)
                                for _, c in part])
        out[:, which] = _scan(frames, f, w, q, which, cands, tol)
    if search:
        which = np.concatenate(search)
        out[:, which] = _search(f, w, q, frames, which, np.hstack(starts), tol)
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
    _check(q, f, w)
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    lo, hi, min_value, evaluations = _gamma_intervals(f, w, q, [Q], params, tol)[:, 0].tolist()
    return GammaInterval(lo=lo, hi=hi, min_value=min_value, tol=tol,
                         used_fallback=q < 1.0 and evaluations > 0, evaluations=int(evaluations))


def _report(family, values, centers, policy, exact=True) -> SeminormReport:
    worst = int(np.argmax(values))
    return SeminormReport(value=float(values[worst]), worst_cube=family[worst], family=family,
                          centers=np.asarray(centers, dtype=np.float64), policy=policy, exact=exact)


def _search_report(f, w, q, family, params, policy) -> SeminormReport:
    """The report of the centre searches: (min F)**(1/q), at the plateaus'
    midpoints; exact unless some centre came from the q < 1 dense scan."""
    lo, hi, min_value, evaluations = _gamma_intervals(f, w, q, family, params)
    # a Python float power per cube: NumPy's array power may differ by an ulp
    values = np.array([m ** (1.0 / q) for m in min_value.tolist()])
    return _report(family, values, 0.5 * (lo + hi), policy, not (q < 1.0 and (evaluations > 0).any()))


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
    return _signed_report(f, cubes, signed_averages(f, cubes, params)[0], params, policy)


def _signed_report(f, cubes, averages, params, policy) -> SeminormReport:
    """The "f_Q_delta" report, given the signed averages of f on the cubes."""
    return _report(cubes, _values_at(f, None, 1.0, params, cubes, averages)[0], averages, policy)


def blo_values(f: StepFunction, cubes, params: ContentParams, q: float = 1.0):
    """(values, centers) of the lower oscillation on each cube: the q-mean
    of f - esinf_Q f to the power 1/q, centred at the esinf."""
    F, centers = _values_at(f, None, float(q), params, cubes)
    return np.array([v ** (1.0 / q) for v in F.tolist()]), centers


def blo_seminorm(
    f: StepFunction,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
    q: float = 1.0,
) -> SeminormReport:
    """Supremum of the q-mean of f - esinf_Q f; centers are the esinfs."""
    _check(q, f)
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
    _check(q, f, w)
    return _search_report(f, w, q, enumerate_cubes(f.grid, policy), params, policy)
