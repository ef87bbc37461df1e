import dataclasses
import importlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import capbmo.content
import capbmo.verify
from capbmo.content import ContentParams, LevelSets, masked_integral
from capbmo.fixtures import (
    log_abs_function,
    neg_log_abs_function,
    origin_chain,
    random_positive_weight,
    two_cell_example,
)
from capbmo.grid import (
    CubeFamilyPolicy,
    CubeSpec,
    DyadicSet,
    build_grid,
    enumerate_cubes,
    full_set,
    step_function,
)
from capbmo.oscillation import blo_seminorm, bmo_seminorm, oscillation_objective
from capbmo.reports import InvariantViolation
from capbmo.verify import (
    fit_envelope,
    survival_curve,
    survival_curves,
    verify_characterization,
    verify_equivalences,
    verify_factorization,
    verify_inclusions,
    verify_jn,
    weak_restricted_strong_check,
)
from capbmo.weights import a1_constant, ap_constant, maximal_function, power_maximal_weight
from conftest import random_grid, random_params


def test_survival_curve_hand_values():
    g, f = two_cell_example()
    curve = survival_curve(f, 0.0, CubeSpec((0,), 2), None, ContentParams(delta=1.0))
    assert curve.normalizer == pytest.approx(2.0, abs=1e-12)
    assert curve.t_samples[0] == 0.0
    assert curve.t_samples[-1] == 2.0
    assert curve.survival[0] == pytest.approx(1.0, abs=1e-12)
    assert curve.survival[-1] == 0.0
    assert not curve.weighted
    # requested sample points survive into the curve
    curve2 = survival_curve(
        f, 0.0, CubeSpec((0,), 2), None, ContentParams(delta=1.0), (0.0, 0.7, 3.0)
    )
    assert {0.0, 0.7, 3.0} <= set(curve2.t_samples)


def test_survival_curve_monotone_and_weighted(rng):
    for _ in range(40):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        w = random_positive_weight(g, rng)
        center = float(rng.normal())
        root = CubeSpec((0,) * g.n, g.shape[0])
        curve = survival_curve(f, center, root, w, params)
        assert curve.weighted
        s = np.asarray(curve.survival)
        assert np.all(np.diff(s) <= 0)
        assert s[0] <= curve.normalizer + 1e-12
        assert s[-1] == 0.0  # beyond the largest deviation nothing survives


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_survival_curves_frame_the_family_once(monkeypatch, weighted):
    f = log_abs_function(2, 3)
    cubes = enumerate_cubes(f.grid, CubeFamilyPolicy("dyadic"))
    weight = random_positive_weight(f.grid, np.random.default_rng(3)) if weighted else None
    real, calls = capbmo.verify.cube_frames, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(capbmo.verify, "cube_frames", counted)
    monkeypatch.setattr(capbmo.content, "cube_frames", counted)
    curves = survival_curves(f, [0.0] * len(cubes), cubes, weight, ContentParams(delta=1.5), (0.0, 1.0))
    assert len(curves) == len(cubes) and len(calls) == 1


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_survival_curves_build_rows_and_masks_once_per_chunk(monkeypatch, weighted):
    """Each chunk of cubes gets its cube masks once and its rows of f once
    (and of the weight once), shared by the samples and every level set."""
    f = log_abs_function(2, 4)
    params = ContentParams(delta=1.0)
    cubes = enumerate_cubes(f.grid, CubeFamilyPolicy("dyadic"))
    weight = random_positive_weight(f.grid, np.random.default_rng(3)) if weighted else None
    chunks = len(list(capbmo.content.cube_frames(f.grid, cubes, params).chunks(np.arange(len(cubes)))))
    calls = {"masks": 0, "rows": 0}
    for name in calls:
        real = getattr(capbmo.content.CubeFrames, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(capbmo.content.CubeFrames, name, counted)
    curves = survival_curves(f, [0.1] * len(cubes), cubes, weight, params, (0.0, 1.0))
    assert len(curves) == len(cubes) and chunks > 1
    assert calls == {"masks": chunks, "rows": chunks * (2 if weighted else 1)}


def test_survival_curve_validation(grid_1d):
    f = step_function(grid_1d, np.arange(grid_1d.num_cells, dtype=float))
    params = ContentParams(delta=1.0)
    root = CubeSpec((0,), grid_1d.shape[0])
    with pytest.raises(ValueError):
        survival_curve(f, 0.0, root, None, params, (-1.0, 0.0))
    with pytest.raises(ValueError):
        survival_curve(f, 0.0, root, None, params, (1.0, 0.5))
    other = build_grid(1, 1, 1.0)
    with pytest.raises(ValueError):
        survival_curve(f, 0.0, root, step_function(other, np.ones(2)), params)
    bad_w = step_function(grid_1d, -np.ones(grid_1d.num_cells))
    with pytest.raises(ValueError):
        survival_curve(f, 0.0, root, bad_w, params)


def test_fit_envelope_satisfies_its_own_bound(rng):
    for _ in range(40):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(scale=2.0, size=g.num_cells))
        root = CubeSpec((0,) * g.n, g.shape[0])
        curve = survival_curve(f, float(np.median(f.values)), root, None, params)
        fit = fit_envelope(curve, 1.0)
        assert fit.passed
        for t, s in zip(curve.t_samples, curve.survival):
            if s > 0:
                bound = fit.C * curve.normalizer * math.exp(-fit.c * t)
                assert s <= bound * (1 + 1e-9)
        t_w, s_w = fit.witness
        assert s_w == pytest.approx(
            fit.C * curve.normalizer * math.exp(-fit.c * t_w), rel=1e-9
        )


def test_fit_envelope_degenerate_and_errors():
    g = build_grid(1, 1, 1.0)
    f = step_function(g, np.full(2, 3.3))
    curve = survival_curve(f, 3.3, CubeSpec((0,), 2), None, ContentParams(delta=1.0))
    fit = fit_envelope(curve, 1.0)
    assert fit.passed and fit.c == math.inf and fit.C == 1.0 and fit.witness is None
    with pytest.raises(ValueError):
        fit_envelope(curve, 0.0)


def test_verify_jn_all_kinds_pass(rng):
    for _ in range(8):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        w = random_positive_weight(g, rng)
        for kind, weight in (("bmo", None), ("blo", None), ("weighted", w)):
            curves = []
            rep = verify_jn(kind, f, w=weight, params=params, curves_out=curves)
            assert rep.passed, (kind, rep.witnesses)
            assert rep.constants["max_bound_usage"] <= 1 + 1e-9
            assert rep.constants["c"] > 0
            assert len(curves) == 1 and len(curves[0]) > 0
            assert rep.check_name == "john-nirenberg"


def test_verify_jn_fits_the_family_in_one_pass(monkeypatch):
    """On the 16x16 ln|x| fixture (341 dyadic cubes) verify_jn calls
    np.polyfit 0 times, where a fit per cube called it 341 times, and makes
    a SurvivalCurve only when a caller reads one from curves_out."""
    f = log_abs_function(2, 4)
    params = ContentParams(delta=1.0)
    fits, made = [], []
    real_polyfit = np.polyfit

    def counted_polyfit(*args, **kwargs):
        fits.append(1)
        return real_polyfit(*args, **kwargs)

    class CountedCurve(capbmo.verify.SurvivalCurve):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np, "polyfit", counted_polyfit)
    monkeypatch.setattr(capbmo.verify, "SurvivalCurve", CountedCurve)
    assert len(enumerate_cubes(f.grid, CubeFamilyPolicy())) == 341
    assert verify_jn("bmo", f, params=params).passed
    assert fits == [] and made == []
    curves = []
    assert verify_jn("bmo", f, params=params, curves_out=curves).passed
    assert fits == [] and made == []
    assert len(list(curves[0])) == 341 and len(made) == 341


def test_verify_jn_takes_centers_from_the_seminorm_report(rng, monkeypatch):
    # The seminorm already searched every cube for its center; running a
    # one-cube gamma_interval search again must not change any report.
    g = build_grid(2, 2, 4.0)
    f = step_function(g, rng.normal(size=g.num_cells))
    w = random_positive_weight(g, rng)
    params = ContentParams(delta=0.5)
    policy = CubeFamilyPolicy("lattice")

    def run_all():
        out = []
        for kind, weight, q in (("bmo", None, 1.0), ("blo", None, 1.0), ("weighted", w, 2.0)):
            curves = []
            rep = verify_jn(kind, f, w=weight, q=q, params=params, policy=policy, curves_out=curves)
            out.append((rep, curves))
        return out

    expected = run_all()

    def no_search(*args, **kwargs):
        raise AssertionError("verify_jn ran a one-cube gamma_interval search")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "capbmo" and hasattr(module, "gamma_interval"):
            monkeypatch.setattr(module, "gamma_interval", no_search)
    assert run_all() == expected


def test_verify_jn_trivial_and_errors(grid_1d):
    params = ContentParams(delta=1.0)
    const = step_function(grid_1d, np.zeros(grid_1d.num_cells))
    rep = verify_jn("bmo", const, params=params)
    assert rep.passed
    assert rep.constants == {"c": math.inf, "C": 1.0, "seminorm": 0.0}
    f = step_function(grid_1d, np.arange(grid_1d.num_cells, dtype=float))
    with pytest.raises(ValueError):
        verify_jn("median", f, params=params)
    with pytest.raises(ValueError):
        verify_jn("weighted", f, params=params)
    with pytest.raises(ValueError):
        verify_jn("bmo", f)


def test_forward_characterization_bmo_ap(rng):
    for _ in range(6):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng)
        rep = verify_characterization("bmo_ap", params, weight=w)
        assert rep.passed, rep.witnesses
        assert rep.constants["jensen_usage"] <= 1 + 1e-9
        assert rep.constants["chain_usage"] <= 1 + 1e-9
        assert rep.constants["seminorm"] <= 4.0 * rep.constants["ap_constant"] * (1 + 1e-9)
    rep3 = verify_characterization("bmo_ap", params, weight=w, p=3.0)
    assert rep3.passed
    assert "chain_usage" not in rep3.constants


@pytest.mark.parametrize("kind,p", [("bmo_ap", 2.0), ("bmo_ap", 3.0), ("blo_a1", 2.0)],
                         ids=["2.0", "3.0", "blo_a1"])
def test_forward_characterization_integrates_each_cube_once(monkeypatch, kind, p):
    """The A_p constant and the signed-average seminorm of ln w reuse the
    forward check's own integrals: 3 + 4 jobs per cube, not 3 + 4 + 4 + 3,
    and the same floats as the standalone ap_constant and bmo_seminorm. The
    A_1 constant reuses the (w, 1) integrals: 2 + 4 jobs, not 2 + 2 + 4,
    and the same float as the standalone a1_constant."""
    g = build_grid(2, 4, 1.0)
    w = random_positive_weight(g, np.random.default_rng(4))
    params = ContentParams(delta=1.0)
    real, jobs = capbmo.content.cube_integrals, []

    def counted(grid, cubes, job_list, prm):
        jobs.append(len(cubes) * len(job_list))
        return real(grid, cubes, job_list, prm)

    for name in ("content", "verify", "choquet", "weights"):
        monkeypatch.setattr(importlib.import_module(f"capbmo.{name}"), "cube_integrals", counted)
    rep = verify_characterization(kind, params, weight=w, p=p)
    per_cube = 7 if kind == "bmo_ap" else 6
    assert sum(jobs) == per_cube * len(enumerate_cubes(g, CubeFamilyPolicy()))
    monkeypatch.undo()
    if kind == "blo_a1":
        assert rep.constants["a1_constant"] == a1_constant(w, params).ap_constant
        return
    assert rep.constants["ap_constant"] == ap_constant(w, p, params).ap_constant
    lnw = step_function(g, np.log(w.values))
    assert rep.constants["seminorm"] == bmo_seminorm(lnw, params, centering="f_Q_delta").value


def test_forward_characterization_blo_a1(rng):
    g = build_grid(1, 4, 1.0)
    params = ContentParams(delta=0.8)
    spike = np.zeros(g.num_cells)
    spike[0] = 1.0
    w = power_maximal_weight(step_function(g, spike), 0.5, params)
    rep = verify_characterization("blo_a1", params, weight=w)
    assert rep.passed, rep.witnesses
    assert rep.constants["percube_usage"] <= 1 + 1e-9
    assert rep.constants["ln_chain_prefactor"] > 0
    assert rep.constants["a1_constant"] >= 1


def test_reverse_characterization_both_kinds():
    params = ContentParams(delta=1.0)
    rep = verify_characterization(
        "bmo_ap",
        params,
        function_family=lambda d: log_abs_function(2, d),
        depths=(3, 4),
        gamma_grid=(1.0, 0.5, 0.25, 0.125),
    )
    assert rep.passed
    assert rep.constants["largest_passing_gamma"] > 0
    per = rep.constants["per_gamma"]
    assert per[f"{0.125:g}"]["passed"]
    rep_blo = verify_characterization(
        "blo_a1",
        params,
        function_family=lambda d: neg_log_abs_function(2, d),
        depths=(3, 4),
        gamma_grid=(0.5, 0.25),
    )
    assert rep_blo.passed
    assert rep_blo.constants["largest_passing_gamma"] > 0


@pytest.mark.parametrize("kind", ["bmo_ap", "blo_a1"])
def test_reverse_characterization_one_seminorm_per_depth(kind, monkeypatch):
    """Each depth's seminorm is computed once, not once per gamma, and the
    constants are those of recomputing it for every (gamma, depth)."""
    params = ContentParams(delta=1.0)
    family = {"bmo_ap": lambda d: log_abs_function(2, d), "blo_a1": lambda d: neg_log_abs_function(2, d)}[kind]
    seminorm = {"bmo_ap": bmo_seminorm, "blo_a1": blo_seminorm}[kind]
    depths, gammas = (2, 3, 4), (1.0, 0.5, 0.25)
    want = {}
    for gamma in gammas:
        consts = []
        for d in depths:
            f = family(d)
            w = step_function(f.grid, np.exp(gamma * f.values / seminorm(f, params).value))
            consts.append(ap_constant(w, 2.0, params).ap_constant if kind == "bmo_ap"
                          else a1_constant(w, params).ap_constant)
        want[f"{gamma:g}"] = consts
    calls = []
    for name in ("bmo_seminorm", "blo_seminorm"):
        real = getattr(capbmo.verify, name)
        monkeypatch.setattr(capbmo.verify, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    rep = verify_characterization(kind, params, function_family=family, depths=depths, gamma_grid=gammas)
    assert len(calls) == len(depths)
    assert {g: v["constants"] for g, v in rep.constants["per_gamma"].items()} == want
    # a zero seminorm at the last depth stops the check before any weight constant
    monkeypatch.setattr(capbmo.verify, "ap_constant", lambda *a, **k: pytest.fail("gamma loop ran"))
    monkeypatch.setattr(capbmo.verify, "a1_constant", lambda *a, **k: pytest.fail("gamma loop ran"))
    flat_last = lambda d: family(d) if d < 4 else step_function(build_grid(2, d, 2.0), np.zeros(4**d))
    with pytest.raises(ValueError, match="zero seminorm"):
        verify_characterization(kind, params, function_family=flat_last, depths=depths, gamma_grid=gammas)


def test_characterization_validation(grid_1d, rng):
    params = ContentParams(delta=1.0)
    w = random_positive_weight(grid_1d, rng)
    with pytest.raises(ValueError):
        verify_characterization("bmo_a9", params, weight=w)
    with pytest.raises(ValueError):
        verify_characterization("bmo_ap", params)
    with pytest.raises(ValueError):
        verify_characterization(
            "bmo_ap", params, weight=w, function_family=lambda d: None
        )
    with pytest.raises(ValueError):
        verify_characterization("bmo_ap", params, weight=w, p=1.0)
    with pytest.raises(ValueError):
        verify_characterization(
            "bmo_ap", params, function_family=lambda d: log_abs_function(1, d), depths=()
        )
    const_family = lambda d: step_function(build_grid(1, d, 1.0), np.zeros(2**d))
    with pytest.raises(ValueError, match="zero seminorm"):
        verify_characterization(
            "bmo_ap", params, function_family=const_family, depths=(2, 3)
        )
    zero_w = step_function(grid_1d, np.zeros(grid_1d.num_cells))
    with pytest.raises(ValueError):
        verify_characterization("bmo_ap", params, weight=zero_w)


def test_verify_equivalences(rng):
    for _ in range(6):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        w = random_positive_weight(g, rng)
        rep = verify_equivalences(f, w, (1.0, 2.0), params)
        assert rep.passed, rep.witnesses
        assert rep.constants["bmo"] <= rep.constants["bmo_signed_average"] + 1e-8
        assert rep.constants["chain_usage"] <= 1 + 1e-9
        assert set(rep.constants["q_ratios"]) == {"1", "2"}
        for entry in rep.constants["q_ratios"].values():
            for v in entry.values():
                assert v > 0
    const = step_function(g, np.zeros(g.num_cells))
    rep = verify_equivalences(const, w, (1.0,), params)
    assert rep.passed
    assert rep.constants["bmo"] == 0.0


def test_verify_equivalences_records_whether_each_weighted_seminorm_is_exact(rng):
    g = build_grid(1, 3, 1.0)
    f = step_function(g, rng.normal(size=g.num_cells))
    w = random_positive_weight(g, rng)
    rep = verify_equivalences(f, w, (0.5, 2.0), ContentParams(delta=0.7))
    assert rep.constants["weighted_exact"] == {"0.5": False, "2": True}
    assert set(rep.constants["q_ratios"]) == {"0.5", "2"}


def test_verify_equivalences_reuses_blo_at_q_one(rng, monkeypatch):
    g = build_grid(2, 2, 4.0)
    f = step_function(g, rng.normal(size=g.num_cells))
    w = random_positive_weight(g, rng)
    params = ContentParams(delta=1.0)
    blo = capbmo.verify.blo_seminorm(f, params).value
    q_blo = {q: capbmo.verify.blo_seminorm(f, params, q=q).value for q in (0.5, 2.0)}

    calls = []
    real = capbmo.verify.blo_seminorm

    def counting(*args, **kwargs):
        calls.append(kwargs.get("q", 1.0))
        return real(*args, **kwargs)

    monkeypatch.setattr(capbmo.verify, "blo_seminorm", counting)
    rep = verify_equivalences(f, w, (0.5, 1.0, 2.0), params)
    assert sorted(calls) == [0.5, 1.0, 2.0]
    assert rep.constants["blo"] == blo
    ratios = rep.constants["q_ratios"]
    assert ratios["1"]["q_over_blo"] == 1.0
    for q, value in q_blo.items():
        assert ratios[f"{q:g}"]["q_over_blo"] == value / blo


def test_verify_inclusions_passes_and_respects_overrides():
    params = ContentParams(delta=1.0)
    rep = verify_inclusions((3, 4), params)
    assert rep.passed, rep.witnesses
    probes = rep.constants
    assert len(probes["blo_neg"]) == 2
    assert probes["origin_chain"][1] > probes["origin_chain"][0]
    assert probes["sup_neg"][1] > probes["sup_neg"][0]
    tightened = verify_inclusions((3, 4), params, thresholds={"bmo_pos_max": 1e-9})
    assert not tightened.passed
    assert any("mean-oscillation" in w["issue"] for w in tightened.witnesses)


def test_depth_checks_need_two_increasing_depths():
    """The depth checks compare neighbouring depths, so one depth would pass
    them vacuously and none would leave nothing to report."""
    params = ContentParams(delta=1.0)
    for depths in ([], [3], range(3, 4), (4, 3), (3, 3), (3, 5, 4)):
        with pytest.raises(ValueError, match="at least two strictly increasing depths"):
            verify_inclusions(depths, params)
    for kind, depths in itertools.product(("bmo_ap", "blo_a1"), (None, (), (3,))):
        with pytest.raises(ValueError, match="at least two depths"):
            verify_characterization(kind, params, function_family=lambda d: log_abs_function(1, d), depths=depths)


def test_verify_factorization(rng):
    g = build_grid(2, 2, 4.0)
    params = ContentParams(delta=1.0)
    g1 = step_function(g, rng.exponential(size=16) + 0.1)
    g2 = step_function(g, rng.exponential(size=16) + 0.1)
    b = step_function(g, rng.uniform(-0.2, 0.2, size=16))
    rep = verify_factorization(0.7, 0.4, g1, g2, b, "bmo", params)
    assert rep.passed, rep.constants
    assert rep.constants["seminorm"] <= rep.constants["bound"] + 1e-8
    rep_blo = verify_factorization(0.7, 0.0, g1, g2, b, "blo", params)
    assert rep_blo.passed
    with pytest.raises(ValueError):
        verify_factorization(0.7, 0.1, g1, g2, b, "blo", params)
    with pytest.raises(ValueError):
        verify_factorization(-0.1, 0.0, g1, g2, b, "bmo", params)
    with pytest.raises(ValueError):
        verify_factorization(0.5, 0.0, g1, g2, b, "median", params)
    zero = step_function(g, np.zeros(16))
    with pytest.raises(ValueError):
        verify_factorization(1.0, 0.0, zero, g2, b, "bmo", params)


def test_factorization_with_g2_is_g1_computes_its_part_once(monkeypatch):
    """With g2 the same function as g1 (what the CLI passes when a fixture
    names no g2), M g1 and its seminorm are computed once, and the report
    keeps the bits of two separate computations on equal inputs."""
    g = build_grid(2, 2, 4.0)
    rng = np.random.default_rng(3)
    g1 = step_function(g, rng.exponential(size=16) + 0.1)
    b = step_function(g, rng.uniform(-0.2, 0.2, size=16))
    params = ContentParams(delta=1.0)
    want = verify_factorization(0.7, 0.4, g1, step_function(g, g1.values.copy()), b, "bmo", params)
    calls = {"maximal_function": 0, "bmo_seminorm": 0}
    for name in calls:
        real = getattr(capbmo.verify, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(capbmo.verify, name, counted)
    got = verify_factorization(0.7, 0.4, g1, g1, b, "bmo", params)
    assert calls == {"maximal_function": 1, "bmo_seminorm": 2}
    assert got == want
    hexed = lambda rep: {k: [float(x).hex() for x in np.atleast_1d(v)] for k, v in rep.constants.items()}
    assert hexed(got) == hexed(want)


def test_weak_restricted_strong(rng):
    for _ in range(10):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        E = DyadicSet(g, rng.random(g.num_cells) < 0.5)
        if E.is_empty():
            E = full_set(g)
        rep = weak_restricted_strong_check(f, E, 2.0, 1.0, params)
        assert rep.passed, rep.constants
        assert rep.constants["usage"] <= 1 + 1e-8
        assert rep.constants["weak_constant"] > 0
        # the weak constant from one masked integral per lambda just below a value of Mf
        absf = np.abs(f.values)
        mf = maximal_function(step_function(g, absf), params).values
        lams = np.unique(mf[mf > 0]) * (1.0 - 1e-9)
        contents = np.array([masked_integral(g, np.ones(g.num_cells), mf > lam, params) for lam in lams])
        lp = masked_integral(g, absf**2, np.ones(g.num_cells, dtype=bool), params) ** 0.5
        assert rep.constants["weak_constant"] == float(np.max(lams * contents**0.5) / lp)
    zero = step_function(g, np.zeros(g.num_cells))
    rep = weak_restricted_strong_check(zero, E, 2.0, 1.0, params)
    assert rep.passed and rep.constants["weak_constant"] == 0.0
    with pytest.raises(ValueError):
        weak_restricted_strong_check(f, E, 2.0, 2.0, params)
    other = build_grid(1, 5, 1.0)
    with pytest.raises(ValueError):
        weak_restricted_strong_check(f, full_set(other), 2.0, 1.0, params)


def test_weak_constant_memory_is_bounded(monkeypatch):
    """The contents of {Mf > lambda} for 2,048 lambdas on a 4,096-cell grid
    are built a few level rows at a time, not as one mask per lambda."""
    g = build_grid(1, 12, 1.0)
    rng = np.random.default_rng(8)
    mf = step_function(g, rng.permutation(np.arange(g.num_cells) % 2048 + 1.0))
    monkeypatch.setattr(capbmo.verify, "maximal_function", lambda *a, **k: mf)
    f = step_function(g, rng.normal(size=g.num_cells))
    tracemalloc.start()
    try:
        rep = weak_restricted_strong_check(f, full_set(g), 2.0, 1.0, ContentParams(delta=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.constants["weak_constant"] > 0
    assert peak < 16e6, peak


@pytest.mark.parametrize("fault", ["rising", "above normalizer"])
def test_survival_curve_invariants_raise_with_witness(monkeypatch, fault):
    g, f = two_cell_example()
    real = capbmo.verify.superlevel_integrals

    def broken(*args):
        sets = real(*args)  # one cube: levels 0 and 2, w(Q) and the content of {f = 2}
        if fault == "rising":  # a level at 1 whose set outweighs the one below it
            return LevelSets(np.array([0.0, 1.0, 2.0]), np.append(sets.values, sets.values[1] + 1.0),
                             np.array([0, 3]))
        values = sets.values.copy()
        values[1:] = values[0] + 1.0
        return dataclasses.replace(sets, values=values)

    monkeypatch.setattr(capbmo.verify, "superlevel_integrals", broken)
    with pytest.raises(InvariantViolation) as err:
        survival_curve(f, 0.0, CubeSpec((0,), 2), None, ContentParams(delta=1.0))
    witness = err.value.witness
    assert witness["cube"] == "0:2"
    if fault == "rising":
        assert witness["survival"][1] == witness["survival"][0] + 1.0
    else:
        assert witness["survival"] == witness["normalizer"] + 1.0


@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_origin_chain_probe_equals_one_cube_objectives(delta):
    """The origin-chain probe of verify_inclusions runs one lockstep call
    over the chain; it equals the loop of one-cube objectives bit for bit."""
    P = ContentParams(delta=delta)
    for depth in (3, 4):
        f = log_abs_function(2, depth)
        best = 0.0
        for Q in origin_chain(f.grid):
            esinf = float(f.values[Q.mask(f.grid)].min())
            best = max(best, oscillation_objective(f, None, 1.0, Q, P, esinf))
        assert capbmo.verify._chain_blo(f, origin_chain(f.grid), P) == best
