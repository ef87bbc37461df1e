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

Every search is a generator over one cube: it yields the probes it
wants, (centre, side) pairs with side 0 for a plain value, and is sent
a ``_Probe`` for each. ``_lockstep`` runs the searches of a whole cube
family together. Cubes whose frames share a depth advance in lockstep:
each step stacks the integrands of every pending (cube, centre) pair,
plus the normaliser w(Q) of each cube that asks for the first time, into
one layer-cake call (split only where the rows exceed the integrator's
cell budget). A cube never asks when its search needs no integral, so
constant cubes cost nothing. The one-cube entry points run the same loop
on a one-cube family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .choquet import signed_averages
from .content import ContentParams, cube_frames, job_chunks
from .grid import CubeFamilyPolicy, CubeSpec, StepFunction, enumerate_cubes

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
    """exact is False when some cube's centre came from the q < 1 dense scan."""

    value: float
    worst_cube: CubeSpec | None
    per_cube_centers: dict = field(repr=False)
    policy: CubeFamilyPolicy | None = None
    exact: bool = True


# q = 1 cubes with at most this many distinct (value, weight) pairs scan
# every breakpoint in one step, which is cheaper there than a search: on
# perfbench oscillation_log, searching every cube cost 1.75x the wall time,
# and a cutoff of 20 measured no faster than 10.
_SCAN_PAIRS = 10

class _Probe(NamedTuple):
    """F at one centre; a one-sided probe also carries its chain's levels."""

    value: float
    coef: np.ndarray | None = None  # (H_k - H_{k+1}) / w(Q), thresholds ascending
    v: np.ndarray | None = None  # f at each level's cell
    w: np.ndarray | None = None  # w at each level's cell


def _lockstep(f: StepFunction, w: StepFunction | None, q: float,
              params: ContentParams, cubes, search) -> list:
    """Run search(i, values, weights) for every cube i; return the results in order.

    values and weights are f and w (ones when w is None) on cube i. A
    search is a generator that yields lists of (centre, side) probes, is
    sent a ``_Probe`` for each, and returns its result. A probe with side
    +1 or -1 breaks ties between cells of equal |f - c|**q * w by their
    order just beyond c on that side, and includes the cells where f = c.
    """
    grid = f.grid
    q = float(q)
    shaped_f = f.values.reshape(grid.shape)
    shaped_w = None if w is None else w.values.reshape(grid.shape)
    results = [None] * len(cubes)
    for positions, frames in cube_frames(grid, cubes, params):
        pending = {}

        def advance(k, gen, sent):
            try:
                pending[k] = (gen, gen.send(sent))
            except StopIteration as stop:
                pending.pop(k, None)
                results[positions[k]] = stop.value

        for k, i in enumerate(positions):
            sl = cubes[i].slices()
            vals = shaped_f[sl].ravel()
            wts = np.ones(vals.size) if w is None else shaped_w[sl].ravel()
            advance(k, search(i, vals, wts), None)

        norm = [None] * len(positions)
        while pending:
            order = list(pending)
            # the first rows integrate w (or 1) for cubes asking for the first time
            first = [k for k in order if norm[k] is None]
            asks = [(k, c, d) for k in order for c, d in pending[k][1]]
            cube = np.array(first + [k for k, _, _ in asks], dtype=np.intp)
            centre = np.array([0.0] * len(first) + [c for _, c, _ in asks])
            side = np.array([0.0] * len(first) + [d for _, _, d in asks])
            raw = np.empty(len(cube))
            levels = [None] * len(cube)
            for sl in job_chunks(len(cube), frames.cells):
                head = slice(0, max(0, len(first) - sl.start))
                fv = frames.rows(f.values, cube[sl])
                dev = fv - centre[sl, None]
                vals = np.abs(dev)
                if q != 1.0:
                    vals = vals**q
                wv = None
                if w is None:
                    vals[head] = 1.0
                else:
                    wv = frames.rows(w.values, cube[sl])
                    vals = vals * wv
                    vals[head] = wv[head]
                masks = frames.masks(cube[sl])
                sided = side[sl] != 0
                keys = None
                if sided.any():
                    # order of |f - x|**q * w just beyond c on side d: ties by
                    # -d / (f - c), and the cells where f = c by their weight.
                    # Keyed plain rows gain only zero-width levels.
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        keys = np.where(dev == 0, 1.0 if wv is None else wv,
                                        -side[sl, None] / dev)
                chains = frames.chains(vals, masks, keys)
                raw[sl] = chains.integrals()
                b = chains.bounds
                for j in np.flatnonzero(sided):
                    lv = slice(b[j], b[j + 1])
                    cells = chains.cells[lv]
                    levels[sl.start + j] = (
                        chains.contents[lv],
                        fv[j, cells],
                        np.ones(len(cells)) if wv is None else wv[j, cells],
                    )
            for k, value in zip(first, raw):
                norm[k] = value
            pos = len(first)
            for k in order:
                gen, cs = pending[k]
                sent = []
                for j in range(pos, pos + len(cs)):
                    value = float(raw[j] / norm[k])
                    if levels[j] is None:
                        sent.append(_Probe(value))
                    else:
                        H, v, wt = levels[j]
                        coef = (H - np.append(H[1:], 0.0)) / norm[k]
                        sent.append(_Probe(value, coef, v, wt))
                advance(k, gen, sent)
                pos += len(cs)
    return results


def _value_at(vals: np.ndarray, c: float):
    """F(c); when f equals c on the whole cube, F(c) = 0 needs no integral."""
    if np.all(vals == c):
        return 0.0
    return (yield [(float(c), 0.0)])[0].value


def oscillation_objective(
    f: StepFunction,
    w: StepFunction,
    q: float,
    Q: CubeSpec,
    params: ContentParams,
    c: float,
) -> float:
    """F(c) = (1/w(Q)) * integral over Q of |f - c|**q * w d(content)."""
    if q <= 0:
        raise ValueError("q must be positive")
    if w is not None and np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive")
    return _lockstep(f, w, q, params, [Q], lambda i, vals, wts: _value_at(vals, c))[0]


class _Piece:
    """phi(x) = sum_k s_k * |v_k - x|**q read from a one-sided probe at c.

    phi equals F on [lo, hi], which holds c, and lies below F elsewhere.
    """

    def __init__(self, probe: _Probe, q: float, c: float):
        self.q = q
        self.v = v = probe.v
        self.s = probe.coef * probe.w
        a = probe.w if q == 1.0 else probe.w ** (1.0 / q)
        # Adjacent levels l < u keep their order where
        # h(x) = a_u|v_u - x| - a_l|v_l - x| >= 0. h has a root m between v_l
        # and v_u and is positive at v_l, so {h >= 0} holds the ray A from m
        # outward past v_l. Beyond v_l, h falls to a root o if a_l > a_u,
        # which ends A; beyond v_u it rises through o if a_l < a_u, which
        # starts a second ray B.
        swap = v[:-1] != v[1:]
        vl, vu, al, au = v[:-1][swap], v[1:][swap], a[:-1][swap], a[1:][swap]
        m = (al * vl + au * vu) / (al + au)
        k = al != au
        o = np.full(len(m), math.nan)
        o[k] = (al[k] * vl[k] - au[k] * vu[k]) / (al[k] - au[k])
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
        lo[gap] = hi[gap] = c
        self.lo = float(lo.max(initial=-inf))
        self.hi = float(hi.min(initial=inf))
        self.roots = np.concatenate([m, o[k]])
        self._kinks = None

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
    probes: dict[tuple[float, float], _Probe] = {}

    # F is non-increasing below min f and non-decreasing above max f, so a
    # minimiser lies in [a, b]. tangent[-1] and tangent[1] are lines below F
    # that touch it at a and b: (point, value, slope).
    a, b = float(vals.min()), float(vals.max())
    c = float(np.median(vals)) if q == 1.0 else float(wts @ vals / wts.sum())
    c = min(max(c, a), b)
    seen, tangent, widths = [], {}, [b - a]
    while True:
        probes[c, 1.0] = (yield [(c, 1.0)])[0]
        piece = _Piece(probes[c, 1.0], q, c)
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
    if not any(key[0] == c_star for key in probes):
        probes[c_star, 0.0] = (yield [(c_star, 0.0)])[0]
    min_value = min(p.value for p in probes.values())
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
            for (side, x), p in zip(asks.items(), got):
                probes[x, -side] = p
                piece = _Piece(p, q, x)
                nxt = piece.level(thr, c_star, side)
                if p.value <= thr or (nxt - x) * side >= 0:
                    # inside the plateau, or no inward step left above rounding
                    ends[side], edge[side] = x, piece
                else:
                    bound[side] = (nxt, piece)
    if q == 1.0:
        # F is linear between the breakpoints around each edge: interpolate
        # the integrals there, as the scan over all breakpoints does
        segs = {side: piece.segment(ends[side], side) for side, piece in edge.items()}
        values = {c: p.value for (c, _), p in probes.items()}
        fresh = sorted({float(x) for seg in segs.values() if seg for x in seg} - set(values))
        if fresh:
            for x, p in zip(fresh, (yield [(x, 0.0) for x in fresh])):
                probes[x, 0.0] = p
                values[x] = p.value
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
        evaluations=len(probes) + 1,
    )


def _linear_breakpoints(pairs: np.ndarray) -> np.ndarray:
    """Candidate breakpoints of c -> integral |f - c| w for the (value +
    1j * weight) pairs: the cell values plus every c where two weighted
    distances w_i|v_i - c|, w_j|v_j - c| cross."""
    v = pairs.real
    w = pairs.imag
    i, j = np.triu_indices(len(pairs), k=1)
    cands = [v]
    same = np.abs(w[i] - w[j]) > 0
    if same.any():
        cands.append((w[i] * v[i] - w[j] * v[j])[same] / (w[i] - w[j])[same])
    cands.append((w[i] * v[i] + w[j] * v[j]) / (w[i] + w[j]))
    out = np.unique(np.concatenate(cands))
    return out[np.isfinite(out)]


def _linear_scan(pairs: np.ndarray, tol: float):
    """q = 1 on a cube of few (value, weight) pairs: F at every breakpoint in one step."""
    breaks = _linear_breakpoints(pairs)
    cands = np.concatenate([[breaks[0] - 1.0], breaks, [breaks[-1] + 1.0]])
    F = np.array([p.value for p in (yield [(float(c), 0.0) for c in cands])])
    min_value = float(F.min())
    thr = min_value + tol
    ok = F <= thr
    first = int(np.argmax(ok))
    last = len(F) - 1 - int(np.argmax(ok[::-1]))
    lo = _linear_cross(cands, F, first, thr, left=True)
    hi = _linear_cross(cands, F, last, thr, left=False)
    return GammaInterval(lo=lo, hi=hi, min_value=min_value, tol=tol, evaluations=len(cands) + 1)


def _linear_cross(cands, F, idx, thr, left: bool) -> float:
    if left:
        if idx == 0:
            slope = (F[1] - F[0]) / (cands[1] - cands[0])
            if slope >= 0:
                return float(cands[0])
            return float(cands[0] + (thr - F[0]) / slope)
        a, b = idx - 1, idx
    else:
        if idx == len(F) - 1:
            slope = (F[-1] - F[-2]) / (cands[-1] - cands[-2])
            if slope <= 0:
                return float(cands[-1])
            return float(cands[-1] + (thr - F[-1]) / slope)
        a, b = idx + 1, idx
    # F[a] > thr >= F[b]; the segment between them is linear.
    frac = (thr - F[a]) / (F[b] - F[a])
    return float(cands[a] + frac * (cands[b] - cands[a]))


def _dense_gamma(vals: np.ndarray, tol: float):
    """Fallback for q < 1 (no convexity): grid over values and midpoints."""
    vals = np.unique(vals)
    cands = vals
    if len(vals) > 1:
        cands = np.unique(np.concatenate([vals, 0.5 * (vals[1:] + vals[:-1])]))
    F = np.array([p.value for p in (yield [(float(c), 0.0) for c in cands])])
    min_value = float(F.min())
    keep = F <= min_value + tol
    return GammaInterval(
        lo=float(cands[keep].min()),
        hi=float(cands[keep].max()),
        min_value=min_value,
        tol=tol,
        used_fallback=True,
        evaluations=len(cands) + 1,
    )


def _gamma_search(vals: np.ndarray, wts: np.ndarray, q: float, tol: float):
    """Search for the minimizer plateau of F on one cube."""
    if vals.max() == vals.min():
        a = float(vals[0])
        half = tol ** (1.0 / q)
        return GammaInterval(lo=a - half, hi=a + half, min_value=0.0, tol=tol)
    if q < 1:
        return (yield from _dense_gamma(vals, tol))
    if q == 1:
        pairs = np.unique(vals + 1j * wts)  # distinct (value, weight) pairs
        if len(pairs) <= _SCAN_PAIRS:
            return (yield from _linear_scan(pairs, tol))
    return (yield from _piecewise_gamma(vals, wts, q, tol))


def _gamma_intervals(f, w, q, cubes, params, tol=1e-9) -> list[GammaInterval]:
    return _lockstep(
        f, w, q, params, cubes, lambda i, vals, wts: _gamma_search(vals, wts, q, tol)
    )


def gamma_interval(
    f: StepFunction,
    w: StepFunction | None,
    q: float,
    Q: CubeSpec,
    params: ContentParams,
    tol: float = 1e-9,
) -> GammaInterval:
    """Global minimum of F and the plateau {F <= min + tol} around it."""
    if q <= 0:
        raise ValueError("q must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if w is not None and np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive")
    return _gamma_intervals(f, w, q, [Q], params, tol)[0]


def _report(cubes, values, centers, policy, gis=()) -> SeminormReport:
    best = None
    best_val = 0.0
    for cube, val in zip(cubes, values):
        if best is None or val > best_val:
            best, best_val = cube, val
    return SeminormReport(
        value=best_val,
        worst_cube=best,
        per_cube_centers=dict(zip(cubes, centers)),
        policy=policy,
        exact=not any(gi.used_fallback for gi in gis),
    )


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
        gis = _gamma_intervals(f, None, 1.0, cubes, params)
        centers = [0.5 * (gi.lo + gi.hi) for gi in gis]
        return _report(cubes, [gi.min_value for gi in gis], centers, policy, gis)
    centers = [avg.value for avg in signed_averages(f, cubes, params)]
    values = _lockstep(
        f, None, 1.0, params, cubes, lambda i, vals, wts: _value_at(vals, centers[i])
    )
    return _report(cubes, values, centers, policy)


def blo_values(f: StepFunction, cubes, params: ContentParams, q: float = 1.0):
    """(values, centers) of the lower oscillation on each cube: the q-mean
    of f - esinf_Q f to the power 1/q, centred at the esinf."""
    centers = [float(f.values[Q.mask(f.grid)].min()) for Q in cubes]
    F = _lockstep(
        f, None, q, params, cubes, lambda i, vals, wts: _value_at(vals, centers[i])
    )
    return [v ** (1.0 / q) for v in F], centers


def blo_seminorm(
    f: StepFunction,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
    q: float = 1.0,
) -> SeminormReport:
    """Supremum of the q-mean of f - esinf_Q f; centers are the esinfs."""
    if q <= 0:
        raise ValueError("q must be positive")
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
    if np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive")
    cubes = enumerate_cubes(f.grid, policy)
    gis = _gamma_intervals(f, w, q, cubes, params)
    return _report(
        cubes,
        [gi.min_value ** (1.0 / q) for gi in gis],
        [0.5 * (gi.lo + gi.hi) for gi in gis],
        policy,
        gis,
    )
