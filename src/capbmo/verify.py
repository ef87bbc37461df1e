"""Numerical checks for the oscillation-space theory on finite grids.

Step functions have bounded oscillation, so any single survival curve
decays exponentially for trivial reasons. The meaningful statements, and
what these checks assert, are uniformity of the decay constants across a
cube family and stability across depth refinements. Unknown universal
constants are never asserted; each check either uses a sub-inequality
with an explicit constant or records a measured constant together with a
stability requirement.

A family's survival curves live in one flat layout, ``SurvivalCurves``:
samples and survival values in family order, bounds (cube i owns
bounds[i]:bounds[i + 1], as ``content.Chains`` holds its jobs) and one
normaliser per cube. ``survival_curves`` reads samples, values and
normalisers from each cube's chain of level sets (one
``superlevel_integrals`` call) and checks and clamps them with array
operations; ``_envelopes`` fits every curve's envelope in one segmented
least-squares pass, of which ``fit_envelope`` is the one-curve case;
``verify_jn`` takes its uniform bound and ``curves_to_csv`` its rows
from the same arrays. A ``SurvivalCurve`` is made only when one is read.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .choquet import signed_averages
from .content import (
    ContentParams, cube_frames, cube_integrals, dyadic_content, masked_integral, superlevel_integrals,
)
from .grid import CubeFamily, CubeFamilyPolicy, CubeSpec, DyadicSet, StepFunction, enumerate_cubes
from .oscillation import _signed_report, blo_seminorm, blo_values, bmo_seminorm, weighted_bmo_seminorm
from .reports import InvariantViolation, VerificationReport
from .weights import _a1_report, _ap_report, _largest_averages, a1_constant, ap_constant, maximal_function
from . import fixtures

__all__ = [
    "SurvivalCurve", "SurvivalCurves", "EnvelopeFit", "survival_curve", "survival_curves", "fit_envelope",
    "verify_jn", "verify_characterization", "verify_equivalences", "verify_inclusions", "verify_factorization",
    "weak_restricted_strong_check",
]

_DECAY_FLOOR = 1e-6
_REL = 1e-9


@dataclass(frozen=True)
class SurvivalCurve:
    """(Weighted) contents of {|f - center| > t} within a cube."""

    t_samples: tuple[float, ...]
    survival: tuple[float, ...]
    normalizer: float
    cube: CubeSpec
    weighted: bool = False


class SurvivalCurves(Sequence):
    """A family's survival curves in one flat layout, in family order: curve
    i owns samples[bounds[i]:bounds[i + 1]], the same slice of survival, and
    normalizers[i]. As a sequence it holds SurvivalCurve objects, each made
    when it is read."""

    __slots__ = ("samples", "survival", "bounds", "normalizers", "family", "weighted")

    def __init__(self, samples, survival, bounds, normalizers, family: CubeFamily, weighted: bool):
        self.samples, self.survival, self.bounds = samples, survival, bounds
        self.normalizers, self.family, self.weighted = normalizers, family, weighted

    def __len__(self) -> int:
        return len(self.normalizers)

    def __getitem__(self, i) -> SurvivalCurve:
        i = range(len(self))[i]
        part = slice(self.bounds[i], self.bounds[i + 1])
        return SurvivalCurve(tuple(self.samples[part].tolist()), tuple(self.survival[part].tolist()),
                             float(self.normalizers[i]), self.family[i], self.weighted)

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def owners(self) -> np.ndarray:
        """The curve of every sample."""
        return np.repeat(np.arange(len(self)), np.diff(self.bounds))


@dataclass(frozen=True)
class EnvelopeFit:
    """Exponential envelope survival <= C * normalizer * exp(-c t / seminorm)."""

    c: float
    C: float
    passed: bool
    witness: tuple[float, float] | None


def survival_curve(
    f: StepFunction,
    center: float,
    Q: CubeSpec,
    weight: StepFunction | None,
    params: ContentParams,
    t_grid: tuple[float, ...] = (0.0,),
) -> SurvivalCurve:
    """Exact (weighted) contents of the superlevel sets {|f - center| > t}.

    The jumps of |f - center| are inserted into the sample grid together
    with points just below each jump, so the staircase shape of the curve
    is captured regardless of the grid supplied.
    """
    return survival_curves(f, [center], [Q], weight, params, t_grid)[0]


def survival_curves(
    f: StepFunction,
    centers,
    cubes,
    weight: StepFunction | None,
    params: ContentParams,
    t_grid: tuple[float, ...] = (0.0,),
) -> SurvivalCurves:
    """survival_curve of every cube around its own center, as one SurvivalCurves.

    The samples and the normalisers are read from the cubes' chains of
    level sets of |f - center| (``superlevel_integrals``), so each distinct
    set is integrated once, in shared layer-cake calls of the family."""
    grid = f.grid
    if weight is not None:
        if weight.grid != grid:
            raise ValueError("weight lives on a different grid")
        if np.any(weight.values < 0):
            raise ValueError("weight must be non-negative")
    ts = np.asarray(t_grid, dtype=float)
    if not (np.all(ts >= 0) and np.all(np.diff(ts) >= 0)):
        raise ValueError("t_grid must be non-negative and increasing")

    family = CubeFamily.of(cubes)
    sets = superlevel_integrals(cube_frames(grid, family, params), f.values, centers,
                                None if weight is None else weight.values)
    # Samples per cube, ascending and distinct: t_grid, every level d_k of
    # its chain (the jumps of |f - center|) and a point 1e-9 below each
    # positive one; the first set, the whole cube, is the normaliser w(Q).
    d, owner = sets.levels, sets.owners()
    jump = d > 0
    t = np.concatenate([np.tile(ts, len(family)), d, np.maximum(d[jump] - 1e-9 * np.maximum(d[jump], 1.0), 0.0)])
    owner = np.concatenate([np.repeat(np.arange(len(family)), ts.size), owner, owner[jump]])
    order = np.lexsort((t, owner))
    t, owner = t[order], owner[order]
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = (t[1:] != t[:-1]) | (owner[1:] != owner[:-1])
    t, owner = t[keep], owner[keep]
    bounds = np.append(0, np.cumsum(np.bincount(owner, minlength=len(family))))
    curves = SurvivalCurves(t, sets.at(t, owner), bounds, sets.values[sets.bounds[:-1]], family, weight is not None)
    # Contents of nested sets are monotone; the weighted layer cake picks
    # job-specific thresholds, so rounding may wiggle by a few ulps. Anything
    # beyond that means a broken content, not rounding.
    surv, norm, start = curves.survival, curves.normalizers, bounds[:-1]
    tol = 1e-12 * np.maximum(norm, 1.0)
    rises = np.flatnonzero((owner[1:] == owner[:-1]) & ~(np.diff(surv) <= tol[owner[1:]]))
    if rises.size:
        k = int(rises[0])
        cube = family[owner[k]].cube_id()
        raise InvariantViolation(
            f"survival curve rises on cube {cube}",
            {"cube": cube, "t": curves.samples[k : k + 2].tolist(), "survival": surv[k : k + 2].tolist()},
        )
    heads = np.flatnonzero(bounds[1:] > start)
    over = heads[~(surv[start[heads]] <= norm[heads] + tol[heads])]
    if over.size:
        i, k = int(over[0]), int(start[over[0]])
        raise InvariantViolation(
            f"survival exceeds the cube content on cube {family[i].cube_id()}",
            {"cube": family[i].cube_id(), "t": float(curves.samples[k]), "survival": float(surv[k]),
             "normalizer": float(norm[i])},
        )
    # each curve's running minimum at once: ranks lifted per curve, so that
    # no earlier curve's rank is below any of a later curve's
    value, rank = np.unique(surv, return_inverse=True)
    lift = owner * (len(value) + 1)
    curves.survival = np.minimum(value[np.minimum.accumulate(rank - lift) + lift], norm[owner])
    return curves


def _envelopes(t, s, bounds, normalizers, seminorm: float):
    """fit_envelope of every curve of a flat layout in one pass: c, C and the
    index into t and s of each witness, -1 without positive survival. The
    slope is sum(dx * dy) / sum(dx * dx), x and y about their curve's means,
    x first shifted by its curve's first x so that one sample or samples at
    one t give dx = 0 and slope 0."""
    count = len(normalizers)
    keep = np.flatnonzero(s > 0)
    owner = np.repeat(np.arange(count), np.diff(bounds))[keep]
    n = np.bincount(owner, minlength=count)
    first = np.cumsum(n) - n
    x = t[keep] / seminorm
    lnratio = np.log(s[keep] / normalizers[owner])
    dx, dy = x - x[first[owner]], -lnratio
    dx -= (np.bincount(owner, dx, count) / np.maximum(n, 1))[owner]
    dy -= (np.bincount(owner, dy, count) / np.maximum(n, 1))[owner]
    sxx = np.bincount(owner, dx * dx, count)
    slope = np.divide(np.bincount(owner, dx * dy, count), sxx, out=np.zeros(count), where=sxx > 0)
    live = n > 0
    c = np.where(live, np.maximum(0.5 * slope, _DECAY_FLOOR), np.inf)
    margins = lnratio + c[owner] * x
    # each curve's first largest margin: a stable sort by (curve, -margin)
    at = np.lexsort((-margins, owner))[first[live]]
    C, witness = np.ones(count), np.full(count, -1)
    C[live], witness[live] = np.exp(margins[at]), keep[at]
    return c, C, witness


def fit_envelope(curve: SurvivalCurve, seminorm: float) -> EnvelopeFit:
    """Fit survival <= C * normalizer * exp(-c t / seminorm).

    c is half the least-squares slope of -ln(survival/normalizer) against
    t/seminorm over the positive-survival samples (floored at 1e-6); C is
    then the smallest prefactor that makes the envelope hold at every
    sample, so a returned fit always satisfies its own bound. This is the
    one-curve case of the family fit that verify_jn runs.
    """
    if seminorm <= 0:
        raise ValueError("seminorm must be positive")
    t, s = np.asarray(curve.t_samples, dtype=float), np.asarray(curve.survival, dtype=float)
    (c,), (C,), (k,) = _envelopes(t, s, np.array([0, len(t)]), np.array([curve.normalizer]), seminorm)
    witness = None if k < 0 else (float(t[k]), float(s[k]))
    return EnvelopeFit(c=float(c), C=float(C), passed=bool(c > 0 and math.isfinite(C)), witness=witness)


def verify_jn(
    kind: str,
    f: StepFunction,
    w: StepFunction | None = None,
    q: float = 1.0,
    params: ContentParams = None,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
    curves_out: list | None = None,
) -> VerificationReport:
    """Uniform exponential decay of oscillation level sets over a family.

    Fits a per-cube envelope around the center the kind's seminorm report
    chose for that cube (the midpoint of the minimizer plateau for bmo and
    weighted, the essential infimum for blo), then
    asserts that the single pair (min c, max C) satisfies the bound at
    every sample of every cube. A constant function passes trivially.
    curves_out, when given, receives the family's SurvivalCurves.
    """
    if kind not in ("bmo", "blo", "weighted"):
        raise ValueError(f"unknown John-Nirenberg kind {kind!r}")
    if kind == "weighted" and w is None:
        raise ValueError("weighted John-Nirenberg check needs a weight")
    if params is None:
        raise ValueError("params is required")
    if kind == "bmo":
        report = bmo_seminorm(f, params, policy)
    elif kind == "blo":
        report = blo_seminorm(f, params, policy)
    else:
        report = weighted_bmo_seminorm(f, w, q, params, policy)
    seminorm = report.value

    base_params = {"kind": kind, "q": q, "delta": params.delta, "family": policy.kind}
    if seminorm <= 0:
        return VerificationReport(
            check_name="john-nirenberg",
            params=base_params,
            passed=True,
            constants={"c": math.inf, "C": 1.0, "seminorm": 0.0},
            witnesses=[],
        )

    weight = w if kind == "weighted" else None
    curves = survival_curves(f, report.centers, report.family, weight, params, (0.0,))
    c, C, _ = _envelopes(curves.samples, curves.survival, curves.bounds, curves.normalizers, seminorm)
    if curves_out is not None:
        curves_out.append(curves)

    c_uniform = float(np.min(c, where=np.isfinite(c), initial=math.inf))
    worst_C = int(np.argmax(C))
    C_uniform = float(C[worst_C])

    live = curves.survival > 0
    s, t = curves.survival[live], curves.samples[live]
    bound = C_uniform * curves.normalizers[curves.owners()[live]] * np.exp(-c_uniform * t / seminorm)
    slack = float(np.fmax.reduce(s / bound, initial=0.0))
    uniform_ok = not np.any(s > bound * (1 + _REL))
    passed = uniform_ok and bool(np.all((c > 0) & np.isfinite(C)))
    return VerificationReport(
        check_name="john-nirenberg",
        params=base_params,
        passed=passed,
        constants={
            "c": c_uniform,
            "C": C_uniform,
            "seminorm": seminorm,
            "max_bound_usage": slack,
        },
        witnesses=[report.family[worst_C].cube_id()],
    )


def _forward_characterization(kind, weight, p, params, policy):
    grid = weight.grid
    if np.any(weight.values <= 0):
        raise ValueError("weight must be strictly positive")
    lnw = StepFunction(grid, np.log(weight.values))
    wv = weight.values
    dual = wv ** (-1.0 / (p - 1.0)) if kind == "bmo_ap" else None

    family = enumerate_cubes(grid, policy)
    jobs = [(wv, None), (np.ones(grid.num_cells), None)] + ([] if dual is None else [(dual, None)])
    vals = cube_integrals(grid, family, jobs, params)
    int_w, content = vals[:, 0], vals[:, 1]
    m = signed_averages(lnw, family, params)[0].tolist()
    # (issue, ratio, failed) of each check on every cube; exp is math.exp
    # per cube, which NumPy's array exp may miss by an ulp
    jensen = [("exp bound", np.array([math.exp(x) for x in m]) * content / (2.0 * int_w))]
    if dual is not None:
        exp_dual = np.array([math.exp(-x / (p - 1.0)) for x in m])
        jensen.append(("dual exp bound", exp_dual * content / (2.0 * vals[:, 2])))
    checks = [(issue, ratio, ratio > 1 + _REL) for issue, ratio in jensen]
    worst_jensen = max(0.0, *(float(ratio.max()) for _, ratio in jensen))
    jensen_ok = not any(bad.any() for _, _, bad in checks)
    percube_ok, worst_percube = True, 0.0
    if kind == "blo_a1":  # [w]_A1 from M w of the same (w, 1) integrals
        avg_w, w_cells = int_w / content, wv.reshape(grid.shape)
        a1 = _a1_report(weight, _largest_averages(grid, family, avg_w), policy).ap_constant
        min_w = np.array([w_cells[tuple(slice(c, c + side) for c in corner)].min()
                          for corner, side in zip(family.corners.tolist(), family.sides.tolist())])
        lhs = avg_w / min_w
        used, over = lhs / a1, lhs > a1 * (1 + _REL)
        checks.append(("per-cube A1 bound", used, over))
        percube_ok, worst_percube = not over.any(), max(0.0, float(used.max()))
    # witnesses cube by cube, and each cube's in the order of the checks
    witnesses = [{"issue": checks[k][0], "cube": family[i].cube_id(), "ratio": float(checks[k][1][i])}
                 for i, k in zip(*np.nonzero(np.array([bad for _, _, bad in checks]).T))]

    constants = {"jensen_usage": worst_jensen}
    chain_ok = True
    if kind == "bmo_ap":
        # both from the integrals above: the signed averages m of ln w, and
        # the averages of w and its dual over the same family
        semi = _signed_report(lnw, family, m, params, policy).value
        ap = _ap_report(vals[:, [0, 2]] / vals[:, 1:2], p, family, policy).ap_constant
        constants.update({"seminorm": semi, "ap_constant": ap, "p": p})
        if p == 2.0:
            constants["chain_usage"] = semi / (4.0 * ap)
            chain_ok = semi <= 4.0 * ap * (1 + _REL)
            if not chain_ok:
                witnesses.append({"issue": "seminorm above 4x A2 constant"})
    else:
        semi = blo_seminorm(lnw, params, policy).value
        constants.update(
            {
                "seminorm": semi,
                "a1_constant": a1,
                "percube_usage": worst_percube,
                # realized C in seminorm <= ln C + ln[A1]; recorded, not asserted
                "ln_chain_prefactor": math.exp(semi) / a1,
            }
        )
    return VerificationReport(
        check_name=f"characterization-{kind}-forward",
        params={"delta": params.delta, "p": p, "family": policy.kind},
        passed=jensen_ok and percube_ok and chain_ok,
        constants=constants,
        witnesses=witnesses,
    )


def _reverse_characterization(kind, function_family, depths, gamma_grid, p, params, policy):
    if len(depths or ()) < 2:
        raise ValueError("reverse characterization needs at least two depths")
    gammas = sorted(gamma_grid or (2.0**-k for k in range(0, 11)), reverse=True)
    seminorm = bmo_seminorm if kind == "bmo_ap" else blo_seminorm
    scaled = []  # (f, seminorm of f) per depth; neither depends on gamma
    for depth in depths:
        f = function_family(depth)
        s = seminorm(f, params, policy).value
        if s <= 0:
            raise ValueError("function family has zero seminorm at some depth")
        scaled.append((f, s))
    per_gamma = {}
    largest_passing = None
    for gamma in gammas:
        consts = []
        for f, s in scaled:
            wgt = StepFunction(f.grid, np.exp(gamma * f.values / s))
            if kind == "bmo_ap":
                consts.append(ap_constant(wgt, p, params, policy).ap_constant)
            else:
                consts.append(a1_constant(wgt, params, policy).ap_constant)
        ratios = [
            max(a, b) / min(a, b) for a, b in zip(consts, consts[1:])
        ]
        ok = all(math.isfinite(k) for k in consts) and all(r <= 2.0 for r in ratios)
        per_gamma[gamma] = {"constants": consts, "max_ratio": max(ratios, default=1.0), "passed": ok}
        if ok and largest_passing is None:
            largest_passing = gamma
    smallest = min(gammas)
    passed = per_gamma[smallest]["passed"] and largest_passing is not None
    return VerificationReport(
        check_name=f"characterization-{kind}-reverse",
        params={"delta": params.delta, "p": p, "depths": list(depths), "family": policy.kind},
        passed=passed,
        constants={
            "largest_passing_gamma": largest_passing if largest_passing is not None else 0.0,
            "per_gamma": {f"{g:g}": per_gamma[g] for g in gammas},
        },
        witnesses=[],
    )


def verify_characterization(
    kind: str,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
    *,
    weight: StepFunction | None = None,
    function_family=None,
    depths=None,
    gamma_grid=None,
    p: float = 2.0,
) -> VerificationReport:
    """Both directions of the weight characterizations of the oscillation
    classes. Forward (weight given): explicit-constant sub-checks — the
    constant-2 exponential bounds per cube, the 4x A_2 chain for the signed
    average seminorm at p = 2, and for the lower-oscillation kind the exact
    per-cube bound avg_Q w <= [w]_A1 * min_Q w. Reverse (function family
    given): searches a descending gamma grid for stable Muckenhoupt
    constants of exp(gamma f / seminorm) across depths and reports the
    largest gamma whose constants vary by at most a factor 2."""
    if kind not in ("bmo_ap", "blo_a1"):
        raise ValueError(f"unknown characterization kind {kind!r}")
    if (weight is None) == (function_family is None):
        raise ValueError("supply exactly one of weight or function_family")
    if kind == "bmo_ap" and not 1 < p < math.inf:
        raise ValueError("bmo_ap characterization needs a finite p > 1")
    if weight is not None:
        return _forward_characterization(kind, weight, p, params, policy)
    return _reverse_characterization(kind, function_family, depths, gamma_grid, p, params, policy)


def verify_equivalences(
    f: StepFunction,
    w: StepFunction,
    q_list,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
) -> VerificationReport:
    """Seminorm comparison chain and q-ratio bookkeeping.

    Asserts the two-sided chain between the best-constant and
    signed-average seminorms with explicit constants 1 and 3, then records
    the ratios of the weighted q-seminorms (and unweighted lower-oscillation
    q-seminorms) to their q = 1 counterparts. Ratio intervals are recorded
    and checked for positivity, not against pinned values; weighted_exact
    records, per q, whether every centre of the weighted seminorm was exact.
    """
    bmo = bmo_seminorm(f, params, policy).value
    bmot = bmo_seminorm(f, params, policy, centering="f_Q_delta").value
    blo = blo_seminorm(f, params, policy).value
    a2 = ap_constant(w, 2.0, params, policy).ap_constant

    witnesses = []
    # measured bmo sits above the true infimum by at most the plateau tol
    lower_ok = bmo <= bmot * (1 + _REL) + 1e-8
    upper_ok = bmot <= 3.0 * bmo * (1 + _REL) + 1e-12
    if not lower_ok:
        witnesses.append({"issue": "best-constant seminorm above signed-average seminorm"})
    if not upper_ok:
        witnesses.append({"issue": "signed-average seminorm above 3x best-constant"})

    ratios_ok = True
    q_ratios, weighted_exact = {}, {}
    for q in q_list:
        weighted = weighted_bmo_seminorm(f, w, q, params, policy)
        wq, weighted_exact[f"{q:g}"] = weighted.value, weighted.exact
        lq = blo if q == 1.0 else blo_seminorm(f, params, policy, q=q).value
        entry = {}
        if bmo > 0:
            entry["weighted_over_bmo"] = wq / bmo
            ratios_ok &= math.isfinite(entry["weighted_over_bmo"]) and entry["weighted_over_bmo"] > 0
        if blo > 0:
            entry["q_over_blo"] = lq / blo
            ratios_ok &= math.isfinite(entry["q_over_blo"]) and entry["q_over_blo"] > 0
        q_ratios[f"{q:g}"] = entry

    passed = lower_ok and upper_ok and ratios_ok and math.isfinite(a2)
    return VerificationReport(
        check_name="norm-equivalences",
        params={"delta": params.delta, "family": policy.kind, "q_list": list(q_list)},
        passed=passed,
        constants={
            "bmo": bmo,
            "bmo_signed_average": bmot,
            "blo": blo,
            "a2_constant": a2,
            "chain_usage": bmot / (3.0 * bmo) if bmo > 0 else 0.0,
            "q_ratios": q_ratios,
            "weighted_exact": weighted_exact,
        },
        witnesses=witnesses,
    )


def _chain_blo(f: StepFunction, chain, params: ContentParams) -> float:
    """Lower-oscillation seminorm restricted to a fixed chain of cubes."""
    return max([0.0, *blo_values(f, chain, params)[0].tolist()])


def verify_inclusions(
    depth_range,
    params: ContentParams,
    n: int = 2,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
    thresholds: dict | None = None,
) -> VerificationReport:
    """Three probes separating bounded, lower-oscillation, and mean
    oscillation classes on the logarithmic family over [-1,1]^n.

    (a) the lower-oscillation seminorm of -ln|x| stays below a calibrated
    level while its sup-norm grows with depth; (b) the mean oscillation
    seminorm of ln|x| stays below a calibrated level; (c) the
    lower-oscillation seminorm of ln|x| restricted to the chain of cubes
    at the origin increases strictly with depth.
    """
    thr = dict(fixtures.INCLUSION_THRESHOLDS)
    if thresholds:
        thr.update(thresholds)
    depths = list(depth_range)
    # the checks compare neighbouring depths
    if len(depths) < 2 or any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError(f"verify_inclusions needs at least two strictly increasing depths, got {depths}")
    for depth in depths:
        fixtures.log_grid(n, depth)  # reject an oversized depth before any work
    blo_neg, sup_neg, bmo_pos, chain_pos = [], [], [], []
    for depth in depths:
        f_neg = fixtures.neg_log_abs_function(n, depth)
        f_pos = fixtures.log_abs_function(n, depth)
        blo_neg.append(blo_seminorm(f_neg, params, policy).value)
        sup_neg.append(float(np.abs(f_neg.values).max()))
        bmo_pos.append(bmo_seminorm(f_pos, params, policy).value)
        chain_pos.append(_chain_blo(f_pos, fixtures.origin_chain(f_pos.grid), params))

    chain_ok = all(b > a * (1 + 1e-12) for a, b in zip(chain_pos, chain_pos[1:]))
    sup_ok = all(b > a for a, b in zip(sup_neg, sup_neg[1:]))
    a_ok = max(blo_neg) <= thr["blo_neg_max"] and (
        max(blo_neg) / min(blo_neg) <= thr["blo_neg_factor"]
    )
    b_ok = max(bmo_pos) <= thr["bmo_pos_max"] and (
        max(bmo_pos) / min(bmo_pos) <= thr["bmo_pos_factor"]
    )
    witnesses = []
    if not chain_ok:
        witnesses.append({"issue": "origin-chain seminorm not strictly increasing", "values": chain_pos})
    if not a_ok:
        witnesses.append({"issue": "lower-oscillation probe above calibrated level", "values": blo_neg})
    if not b_ok:
        witnesses.append({"issue": "mean-oscillation probe above calibrated level", "values": bmo_pos})
    if not sup_ok:
        witnesses.append({"issue": "sup-norm failed to grow", "values": sup_neg})
    return VerificationReport(
        check_name="strict-inclusions",
        params={"delta": params.delta, "n": n, "depths": depths, "family": policy.kind},
        passed=chain_ok and a_ok and b_ok and sup_ok,
        constants={
            "blo_neg": blo_neg,
            "sup_neg": sup_neg,
            "bmo_pos": bmo_pos,
            "origin_chain": chain_pos,
        },
        witnesses=witnesses,
    )


def verify_factorization(
    alpha: float,
    beta: float,
    g1: StepFunction,
    g2: StepFunction,
    b: StepFunction,
    kind: str,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
) -> VerificationReport:
    """Triangle-type seminorm bound for alpha*ln(M g1) + beta*ln(M g2) + b.

    The seminorm of the combination is asserted to be finite and at most
    alpha*s1 + beta*s2 + 2*sup|b|, where s_i are the seminorms of the
    logarithm of each maximal function. The lower-oscillation kind rejects
    beta != 0 because negated maximal logarithms leave that class.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    if kind not in ("bmo", "blo"):
        raise ValueError(f"unknown seminorm kind {kind!r}")
    if kind == "blo" and beta != 0:
        raise ValueError("lower-oscillation factorization requires beta = 0")
    grid = g1.grid
    semi = bmo_seminorm if kind == "bmo" else blo_seminorm

    def part(g):  # ln(M|g|) and its seminorm
        mg = maximal_function(StepFunction(grid, np.abs(g.values)), params, policy)
        if np.any(mg.values <= 0):
            raise ValueError("maximal function vanishes; g must not be identically 0")
        ln = np.log(mg.values)
        return ln, semi(StepFunction(grid, ln), params, policy).value

    parts = np.zeros(grid.num_cells)
    s1 = s2 = 0.0
    if alpha > 0:
        ln1, s1 = part(g1)
        parts = parts + alpha * ln1
    if beta > 0:
        # the CLI passes g1 as g2 when a fixture names no g2
        ln2, s2 = (ln1, s1) if g2 is g1 and alpha > 0 else part(g2)
        parts = parts + beta * ln2
    sup_b = float(np.abs(b.values).max())
    f = StepFunction(grid, parts + b.values)
    report = semi(f, params, policy)
    bound = alpha * s1 + beta * s2 + 2.0 * sup_b
    ok = math.isfinite(report.value) and report.value <= bound * (1 + _REL) + 1e-8
    return VerificationReport(
        check_name=f"factorization-{kind}",
        params={"alpha": alpha, "beta": beta, "delta": params.delta, "family": policy.kind},
        passed=ok,
        constants={
            "seminorm": report.value,
            "bound": bound,
            "part_seminorms": [s1, s2],
            "sup_b": sup_b,
        },
        witnesses=[report.worst_cube.cube_id() if report.worst_cube else None],
    )


def weak_restricted_strong_check(
    f: StepFunction,
    E: DyadicSet,
    p: float,
    r: float,
    params: ContentParams,
    policy: CubeFamilyPolicy = CubeFamilyPolicy(),
) -> VerificationReport:
    """Weak-type constant of the maximal operator transfers to a restricted
    strong bound: (int_E (Mf)^r)^(1/r) <= C (p/(p-r))^(1/r) content(E)^(1/r-1/p) ||f||_p.

    The weak constant C is measured as the maximum of
    lambda * content({Mf > lambda})^(1/p) / ||f||_p over a grid of lambdas
    placed just below each value of Mf, which attains the supremum for
    step functions up to rounding. Every content of {Mf > lambda} comes
    from the one chain of Mf over the root, each the float of its own set.

    p must be finite. A ||f||_p, left or right side that over- or
    underflows, to inf or NaN or to 0 although f is not 0 and content(E)
    is positive, raises ValueError: the check would compare rounding, not
    the inequality. So does an r below 1e8 times the float epsilon (about
    2.2e-8): both sides are 1/r-th powers, which magnify a relative rounding
    error eps of their bases to about eps / r, past the 1e-8 tolerance of
    the comparison.
    """
    if not 0 < r < p < math.inf:
        raise ValueError("need 0 < r < p < inf")
    grid = f.grid
    if E.grid != grid:
        raise ValueError("set lives on a different grid")
    absf = np.abs(f.values)
    if not absf.any():
        return VerificationReport(
            check_name="weak-restricted-strong",
            params={"p": p, "r": r, "delta": params.delta},
            passed=True,
            constants={"weak_constant": 0.0, "left": 0.0, "right": 0.0},
            witnesses=[],
        )
    full = np.ones(grid.num_cells, dtype=bool)
    with np.errstate(over="ignore", under="ignore"):
        lp = _power(masked_integral(grid, absf**p, full, params), 1.0 / p)
    _require_representable("||f||_p", lp, p, r)
    mf = maximal_function(StepFunction(grid, absf), params, policy).values
    values = np.unique(mf[mf > 0])
    lams = values * (1.0 - 1e-9)
    # the contents of {Mf > lambda}, Mf >= 0, from one chain of Mf
    root = cube_frames(grid, CubeFamily.of([CubeSpec.root(grid)]), params)
    contents = superlevel_integrals(root, mf, [0.0]).at(lams, 0)
    weak = float(np.max(lams * contents ** (1.0 / p)) / lp)

    with np.errstate(over="ignore", under="ignore"):
        left = _power(masked_integral(grid, mf**r, E.membership, params), 1.0 / r)
    content_e = dyadic_content(grid, E, params)
    right = weak * _power(p / (p - r), 1.0 / r) * _power(content_e, 1.0 / r - 1.0 / p) * lp
    _require_representable("left", left, p, r, zero_ok=content_e == 0)
    _require_representable("right", right, p, r, zero_ok=content_e == 0)
    if r < 1e8 * sys.float_info.epsilon:  # after the side checks, whose messages come first
        raise ValueError(f"r = {r!r} is too small: the 1/r-th powers magnify rounding past the 1e-8 tolerance")
    ok = left <= right * (1 + 1e-8)
    return VerificationReport(
        check_name="weak-restricted-strong",
        params={"p": p, "r": r, "delta": params.delta, "family": policy.kind},
        passed=ok,
        constants={
            "weak_constant": weak,
            "left": left,
            "right": right,
            "content_E": content_e,
            "usage": left / right if right > 0 else 0.0,
        },
        witnesses=[],
    )


def _power(x: float, y: float) -> float:
    """x ** y for x >= 0, inf where the float power overflows."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _require_representable(name: str, value: float, p: float, r: float, zero_ok: bool = False) -> None:
    """Reject a side of the weak-type check that is not finite, or is 0 unless zero_ok."""
    if not math.isfinite(value) or (value == 0 and not zero_ok):
        raise ValueError(f"{name} = {value!r} over- or underflows with p = {p!r} and r = {r!r}")
