"""Numerical checks for the oscillation-space theory on finite grids.

Step functions have bounded oscillation, so any single survival curve
decays exponentially for trivial reasons. The meaningful statements, and
what these checks assert, are uniformity of the decay constants across a
cube family and stability across depth refinements. Unknown universal
constants are never asserted; each check either uses a sub-inequality
with an explicit constant or records a measured constant together with a
stability requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choquet import signed_averages
from .content import (
    ContentParams,
    cube_integrals,
    dyadic_content,
    masked_integral,
    masked_integral_many,
    superlevel_integrals,
)
from .grid import (
    CubeFamilyPolicy,
    CubeSpec,
    DyadicSet,
    StepFunction,
    enumerate_cubes,
)
from .oscillation import blo_seminorm, blo_values, bmo_seminorm, weighted_bmo_seminorm
from .reports import InvariantViolation, VerificationReport
from .weights import a1_constant, ap_constant, maximal_function
from . import fixtures

__all__ = [
    "SurvivalCurve",
    "EnvelopeFit",
    "survival_curve",
    "survival_curves",
    "fit_envelope",
    "verify_jn",
    "verify_characterization",
    "verify_equivalences",
    "verify_inclusions",
    "verify_factorization",
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
) -> list[SurvivalCurve]:
    """survival_curve of every cube around its own center, with every
    (cube, sample) job of the family in shared layer-cake calls."""
    grid = f.grid
    for Q in cubes:
        Q.validate(grid)
    if weight is not None:
        if weight.grid != grid:
            raise ValueError("weight lives on a different grid")
        if np.any(weight.values < 0):
            raise ValueError("weight must be non-negative")
    ts = np.asarray(t_grid, dtype=float)
    if ts.size and (np.any(ts < 0) or np.any(np.diff(ts) < 0)):
        raise ValueError("t_grid must be non-negative and increasing")

    levels = []
    for Q, center in zip(cubes, centers):
        jumps = np.unique(np.abs(f.values[Q.mask(grid)] - center))
        pos = jumps[jumps > 0]
        just_below = pos - 1e-9 * np.maximum(pos, 1.0)
        samples = np.unique(np.concatenate([ts, jumps, np.maximum(just_below, 0.0)]))
        # the final level -inf takes the whole cube: the normaliser w(Q)
        levels.append(np.append(samples, -np.inf))
    wv = np.ones(grid.num_cells) if weight is None else weight.values
    curves = []
    for Q, level, vals in zip(
        cubes, levels, superlevel_integrals(grid, cubes, f.values, centers, levels, wv, params)
    ):
        samples, surv, norm = level[:-1], vals[:-1], float(vals[-1])
        # Contents of nested sets are monotone; the weighted layer cake picks
        # job-specific thresholds, so rounding may wiggle by a few ulps. Anything
        # beyond that means a broken content, not rounding.
        tol = 1e-12 * max(norm, 1.0)
        rises = np.flatnonzero(~(np.diff(surv) <= tol))
        if rises.size:
            k = int(rises[0])
            raise InvariantViolation(
                f"survival curve rises on cube {Q.cube_id()}",
                {"cube": Q.cube_id(), "t": [float(samples[k]), float(samples[k + 1])],
                 "survival": [float(surv[k]), float(surv[k + 1])]},
            )
        if surv.size and not surv[0] <= norm + tol:
            raise InvariantViolation(
                f"survival exceeds the cube content on cube {Q.cube_id()}",
                {"cube": Q.cube_id(), "t": float(samples[0]), "survival": float(surv[0]),
                 "normalizer": norm},
            )
        surv = np.minimum(np.minimum.accumulate(surv), norm)
        curves.append(SurvivalCurve(
            t_samples=tuple(float(t) for t in samples),
            survival=tuple(float(s) for s in surv),
            normalizer=norm,
            cube=Q,
            weighted=weight is not None,
        ))
    return curves


def fit_envelope(curve: SurvivalCurve, seminorm: float) -> EnvelopeFit:
    """Fit survival <= C * normalizer * exp(-c t / seminorm).

    c is half the least-squares slope of -ln(survival/normalizer) against
    t/seminorm over the positive-survival samples (floored at 1e-6); C is
    then the smallest prefactor that makes the envelope hold at every
    sample, so a returned fit always satisfies its own bound.
    """
    if seminorm <= 0:
        raise ValueError("seminorm must be positive")
    t = np.asarray(curve.t_samples)
    s = np.asarray(curve.survival)
    keep = s > 0
    if not keep.any():
        return EnvelopeFit(c=math.inf, C=1.0, passed=True, witness=None)
    x = t[keep] / seminorm
    y = -np.log(s[keep] / curve.normalizer)
    if x.size >= 2 and np.ptp(x) > 0:
        slope = float(np.polyfit(x, y, 1)[0])
    else:
        slope = 0.0
    c = max(0.5 * slope, _DECAY_FLOOR)
    margins = np.log(s[keep] / curve.normalizer) + c * x
    k = int(np.argmax(margins))
    C = float(np.exp(margins[k]))
    witness = (float(t[keep][k]), float(s[keep][k]))
    passed = c > 0 and math.isfinite(C)
    return EnvelopeFit(c=c, C=C, passed=passed, witness=witness)


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
    cubes = enumerate_cubes(f.grid, policy)
    centers = [report.per_cube_centers[Q] for Q in cubes]
    curves = survival_curves(f, centers, cubes, weight, params, (0.0,))
    fits = [fit_envelope(curve, seminorm) for curve in curves]
    if curves_out is not None:
        curves_out.extend(curves)

    finite_cs = [fit.c for fit in fits if math.isfinite(fit.c)]
    c_uniform = min(finite_cs) if finite_cs else math.inf
    C_uniform = max(fit.C for fit in fits)
    worst_C = max(range(len(fits)), key=lambda i: fits[i].C)

    slack = 0.0
    uniform_ok = True
    for curve in curves:
        for t, s in zip(curve.t_samples, curve.survival):
            if s <= 0:
                continue
            bound = C_uniform * curve.normalizer * math.exp(-c_uniform * t / seminorm)
            slack = max(slack, s / bound)
            if s > bound * (1 + _REL):
                uniform_ok = False
    passed = uniform_ok and all(fit.passed for fit in fits)
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
        witnesses=[curves[worst_C].cube.cube_id()],
    )


def _forward_characterization(kind, weight, p, params, policy):
    grid = weight.grid
    if np.any(weight.values <= 0):
        raise ValueError("weight must be strictly positive")
    lnw = StepFunction(grid, np.log(weight.values))
    wv = weight.values
    dual = wv ** (-1.0 / (p - 1.0)) if kind == "bmo_ap" else None

    jensen_ok = True
    percube_ok = True
    worst_jensen = 0.0
    worst_percube = 0.0
    witnesses = []
    a1 = a1_constant(weight, params, policy).ap_constant if kind == "blo_a1" else None
    cubes = enumerate_cubes(grid, policy)
    jobs = [(wv, None), (np.ones(grid.num_cells), None)]
    if dual is not None:
        jobs.append((dual, None))
    family = cube_integrals(grid, cubes, jobs, params)
    averages = signed_averages(lnw, cubes, params)
    for Q, vals, avg in zip(cubes, family, averages):
        int_w, content = float(vals[0]), float(vals[1])
        m = avg.value
        ratio = math.exp(m) * content / (2.0 * int_w)
        worst_jensen = max(worst_jensen, ratio)
        if ratio > 1 + _REL:
            jensen_ok = False
            witnesses.append({"issue": "exp bound", "cube": Q.cube_id(), "ratio": ratio})
        if dual is not None:
            int_dual = float(vals[2])
            ratio2 = math.exp(-m / (p - 1.0)) * content / (2.0 * int_dual)
            worst_jensen = max(worst_jensen, ratio2)
            if ratio2 > 1 + _REL:
                jensen_ok = False
                witnesses.append({"issue": "dual exp bound", "cube": Q.cube_id(), "ratio": ratio2})
        if kind == "blo_a1":
            min_w = float(wv[Q.mask(grid)].min())
            lhs = (int_w / content) / min_w
            used = lhs / a1
            worst_percube = max(worst_percube, used)
            if lhs > a1 * (1 + _REL):
                percube_ok = False
                witnesses.append({"issue": "per-cube A1 bound", "cube": Q.cube_id(), "ratio": used})

    constants = {"jensen_usage": worst_jensen}
    chain_ok = True
    if kind == "bmo_ap":
        semi = bmo_seminorm(lnw, params, policy, centering="f_Q_delta").value
        ap = ap_constant(weight, p, params, policy).ap_constant
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
    if not depths:
        raise ValueError("reverse characterization needs a list of depths")
    gammas = sorted(gamma_grid or (2.0**-k for k in range(0, 11)), reverse=True)
    per_gamma = {}
    largest_passing = None
    for gamma in gammas:
        consts = []
        for depth in depths:
            f = function_family(depth)
            if kind == "bmo_ap":
                s = bmo_seminorm(f, params, policy).value
            else:
                s = blo_seminorm(f, params, policy).value
            if s <= 0:
                raise ValueError("function family has zero seminorm at some depth")
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
    if kind == "bmo_ap" and not p > 1:
        raise ValueError("bmo_ap characterization needs p > 1")
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
    and checked for positivity, not against pinned values.
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
    q_ratios = {}
    for q in q_list:
        wq = weighted_bmo_seminorm(f, w, q, params, policy).value
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
        },
        witnesses=witnesses,
    )


def _chain_blo(f: StepFunction, chain, params: ContentParams) -> float:
    """Lower-oscillation seminorm restricted to a fixed chain of cubes."""
    return max([0.0, *blo_values(f, chain, params)[0]])


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

    def log_maximal(g):
        mg = maximal_function(StepFunction(grid, np.abs(g.values)), params, policy)
        if np.any(mg.values <= 0):
            raise ValueError("maximal function vanishes; g must not be identically 0")
        return np.log(mg.values)

    parts = np.zeros(grid.num_cells)
    s1 = s2 = 0.0
    if alpha > 0:
        ln1 = log_maximal(g1)
        s1 = semi(StepFunction(grid, ln1), params, policy).value
        parts = parts + alpha * ln1
    if beta > 0:
        ln2 = log_maximal(g2)
        s2 = semi(StepFunction(grid, ln2), params, policy).value
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
    step functions up to rounding.
    """
    if not 0 < r < p:
        raise ValueError("need 0 < r < p")
    grid = f.grid
    if E.grid != grid:
        raise ValueError("set lives on a different grid")
    absf = np.abs(f.values)
    full = np.ones(grid.num_cells, dtype=bool)
    lp = masked_integral(grid, absf**p, full, params) ** (1.0 / p)
    mf = maximal_function(StepFunction(grid, absf), params, policy).values
    if lp == 0:
        return VerificationReport(
            check_name="weak-restricted-strong",
            params={"p": p, "r": r, "delta": params.delta},
            passed=True,
            constants={"weak_constant": 0.0, "left": 0.0, "right": 0.0},
            witnesses=[],
        )
    values = np.unique(mf[mf > 0])
    lams = values * (1.0 - 1e-9)
    jobs = [(np.ones(grid.num_cells), mf > lam) for lam in lams]
    contents = masked_integral_many(grid, jobs, params)
    weak = float(np.max(lams * contents ** (1.0 / p)) / lp)

    left = masked_integral(grid, mf**r, E.membership, params) ** (1.0 / r)
    content_e = dyadic_content(grid, E, params)
    right = weak * (p / (p - r)) ** (1.0 / r) * content_e ** (1.0 / r - 1.0 / p) * lp
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
