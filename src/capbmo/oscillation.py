"""Oscillation seminorms and the per-cube objective F(c).

F(c) is the weighted Choquet average of |f - c|**q over a cube. For
q >= 1 the Minkowski property makes F**(1/q) convex in c, so the global
minimum and the minimizer plateau are found by ternary search plus
bisection. For q = 1 on cubes with few distinct (value, weight) pairs,
F is piecewise linear with breakpoints at the cell values and at the
weighted crossing points, and the minimum is computed exactly from the
breakpoint lattice instead. For q < 1 a dense scan over the cell values
and their midpoints is used.

Every search is a generator over one cube: it yields the centres it
wants evaluated and is sent their F values. ``_lockstep`` runs the
searches of a whole cube family together. Cubes whose frames share a
depth advance in lockstep: each step stacks the integrands of every
pending (cube, centre) pair, plus the normaliser w(Q) of each cube that
asks for its first F value, into one layer-cake integrator call (split
only where the rows exceed the integrator's cell budget). A cube never
asks when its search needs no integral, so constant cubes cost nothing.
The one-cube entry points run the same loop on a one-cube family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# q = 1 cubes with at most this many distinct (value, weight) pairs take
# the exact piecewise-linear path; larger cubes use ternary search.
_EXACT_PAIR_LIMIT = 40
_MAX_SEARCH_ITER = 200


@dataclass(frozen=True)
class GammaInterval:
    """Minimizer plateau of F: [lo, hi] brackets {c: F(c) <= min_value + tol}."""

    lo: float
    hi: float
    min_value: float
    tol: float
    used_fallback: bool = False


@dataclass(frozen=True)
class SeminormReport:
    value: float
    worst_cube: CubeSpec | None
    per_cube_centers: dict = field(repr=False)
    policy: CubeFamilyPolicy | None = None


def _lockstep(f: StepFunction, w: StepFunction | None, q: float,
              params: ContentParams, cubes, search) -> list:
    """Run search(i, values, weights) for every cube i; return the results in order.

    values and weights are f and w (ones when w is None) on cube i. A
    search is a generator that yields lists of centres, is sent their F
    values as floats, and returns its result.
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
            cube = np.array(first + [k for k in order for _ in pending[k][1]], dtype=np.intp)
            centre = np.array([0.0] * len(first) + [c for k in order for c in pending[k][1]])
            raw = np.empty(len(cube))
            for sl in job_chunks(len(cube), frames.cells):
                head = slice(0, max(0, len(first) - sl.start))
                vals = np.abs(frames.rows(f.values, cube[sl]) - centre[sl, None])
                if q != 1.0:
                    vals = vals**q
                if w is None:
                    vals[head] = 1.0
                else:
                    wts = frames.rows(w.values, cube[sl])
                    vals = vals * wts
                    vals[head] = wts[head]
                raw[sl] = frames.integrate(vals, frames.masks(cube[sl]))
            for k, value in zip(first, raw):
                norm[k] = value
            pos = len(first)
            for k in order:
                gen, cs = pending[k]
                advance(k, gen, (raw[pos : pos + len(cs)] / norm[k]).tolist())
                pos += len(cs)
    return results


def _many(cache: dict, cs):
    """F at every centre of cs, asking only for centres not evaluated yet."""
    fresh = [float(c) for c in cs if float(c) not in cache]
    if fresh:
        cache.update(zip(fresh, (yield fresh)))
    return np.array([cache[float(c)] for c in cs])


def _value_at(vals: np.ndarray, c: float):
    """F(c); when f equals c on the whole cube, F(c) = 0 needs no integral."""
    if np.all(vals == c):
        return 0.0
    return float((yield [float(c)])[0])


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


def _ternary_plateau(vals: np.ndarray, cache: dict, tol: float):
    a = float(vals.min()) - 1.0
    b = float(vals.max()) + 1.0
    # F**(1/q) is convex, so F is unimodal and flat only at its minimum;
    # the equal-values branch may therefore keep just the middle third.
    it = 0
    while b - a > tol and it < _MAX_SEARCH_ITER:
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1, f2 = yield from _many(cache, [m1, m2])
        if f1 < f2:
            b = m2
        elif f1 > f2:
            a = m1
        else:
            a, b = m1, m2
        it += 1
    c_star = 0.5 * (a + b)
    yield from _many(cache, [c_star])
    min_value = min(cache.values())
    thr = min_value + tol
    lo = yield from _plateau_edge(cache, c_star, thr, tol, -1.0)
    hi = yield from _plateau_edge(cache, c_star, thr, tol, +1.0)
    return GammaInterval(lo=lo, hi=hi, min_value=min_value, tol=tol)


def _plateau_edge(cache: dict, c_in: float, thr: float, tol: float, direction: float):
    step = max(1.0, abs(c_in))
    out = None
    for _ in range(80):
        cand = c_in + direction * step
        if (yield from _many(cache, [cand]))[0] > thr:
            out = cand
            break
        step *= 2.0
    if out is None:
        return c_in + direction * step
    inn = c_in
    it = 0
    while abs(inn - out) > tol and it < _MAX_SEARCH_ITER:
        mid = 0.5 * (inn + out)
        if (yield from _many(cache, [mid]))[0] <= thr:
            inn = mid
        else:
            out = mid
        it += 1
    return inn


def _linear_breakpoints(vals: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Candidate breakpoints of c -> integral |f - c| w: the cell values plus
    every c where two weighted distances w_i|v_i - c|, w_j|v_j - c| cross."""
    pairs = np.unique(np.column_stack([vals, wts]), axis=0)
    v = pairs[:, 0]
    w = pairs[:, 1]
    i, j = np.triu_indices(len(pairs), k=1)
    cands = [v]
    same = np.abs(w[i] - w[j]) > 0
    if same.any():
        cands.append((w[i] * v[i] - w[j] * v[j])[same] / (w[i] - w[j])[same])
    cands.append((w[i] * v[i] + w[j] * v[j]) / (w[i] + w[j]))
    out = np.unique(np.concatenate(cands))
    return out[np.isfinite(out)]


def _exact_linear_gamma(vals: np.ndarray, wts: np.ndarray, cache: dict, tol: float):
    breaks = _linear_breakpoints(vals, wts)
    cands = np.concatenate([[breaks[0] - 1.0], breaks, [breaks[-1] + 1.0]])
    F = yield from _many(cache, cands)
    min_value = float(F.min())
    thr = min_value + tol
    ok = F <= thr
    first = int(np.argmax(ok))
    last = len(F) - 1 - int(np.argmax(ok[::-1]))
    lo = _linear_cross(cands, F, first, thr, left=True)
    hi = _linear_cross(cands, F, last, thr, left=False)
    return GammaInterval(lo=lo, hi=hi, min_value=min_value, tol=tol)


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


def _dense_gamma(vals: np.ndarray, cache: dict, tol: float):
    """Fallback for q < 1 (no convexity): grid over values and midpoints."""
    vals = np.unique(vals)
    cands = vals
    if len(vals) > 1:
        cands = np.unique(np.concatenate([vals, 0.5 * (vals[1:] + vals[:-1])]))
    F = yield from _many(cache, cands)
    min_value = float(F.min())
    keep = F <= min_value + tol
    return GammaInterval(
        lo=float(cands[keep].min()),
        hi=float(cands[keep].max()),
        min_value=min_value,
        tol=tol,
        used_fallback=True,
    )


def _gamma_search(vals: np.ndarray, wts: np.ndarray, q: float, tol: float):
    """Search for the minimizer plateau of F on one cube."""
    if vals.max() == vals.min():
        a = float(vals[0])
        half = tol ** (1.0 / q)
        return GammaInterval(lo=a - half, hi=a + half, min_value=0.0, tol=tol)
    cache: dict[float, float] = {}
    if q < 1:
        return (yield from _dense_gamma(vals, cache, tol))
    if q == 1:
        pairs = np.unique(np.column_stack([vals, wts]), axis=0)
        if len(pairs) <= _EXACT_PAIR_LIMIT:
            return (yield from _exact_linear_gamma(vals, wts, cache, tol))
    return (yield from _ternary_plateau(vals, cache, tol))


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


def _report(cubes, values, centers, policy) -> SeminormReport:
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
        values = [gi.min_value for gi in gis]
    else:
        centers = [avg.value for avg in signed_averages(f, cubes, params)]
        values = _lockstep(
            f, None, 1.0, params, cubes, lambda i, vals, wts: _value_at(vals, centers[i])
        )
    return _report(cubes, values, centers, policy)


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
    centers = [float(f.values[Q.mask(f.grid)].min()) for Q in cubes]
    F = _lockstep(
        f, None, q, params, cubes, lambda i, vals, wts: _value_at(vals, centers[i])
    )
    return _report(cubes, [v ** (1.0 / q) for v in F], centers, policy)


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
    )
