"""End-to-end acceptance battery: the package's headline guarantees.

Each test pins one contract at desk scale: closed-form values on the
counterexample grids, exhaustive oracles for the content solver and the
stopping-time decomposition, randomized calculus batteries with zero
tolerated violations, and the verification drivers at the depths the
README advertises. Where a contract includes a runtime ceiling, the
ceiling is asserted with a monotonic clock.
"""

import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

import capbmo.oscillation
from capbmo import (
    ContentParams,
    CubeFamilyPolicy,
    CubeSpec,
    DyadicSet,
    a1_constant,
    bmo_seminorm,
    build_grid,
    choquet,
    cz_decompose,
    cz_verify,
    dyadic_content,
    dyadic_cubes,
    full_set,
    gamma_interval,
    jensen_sides,
    level_set,
    oscillation_objective,
    power_maximal_weight,
    signed_average,
    step_function,
    survival_curve,
    verify_characterization,
    verify_inclusions,
    verify_jn,
    weak_restricted_strong_check,
    weighted_bmo_seminorm,
    weighted_l1_comparison,
)
from capbmo.choquet import weighted_choquet
from capbmo.cli import main
from capbmo.content import masked_integral_many
from capbmo.fixtures import (
    JN_DEPTH_TRANSFER_FACTOR,
    WEIGHTED_L1_MIN_RATIO,
    log_abs_function,
    random_positive_weight,
    random_step_function,
    spike_and_slab_example,
    two_cell_example,
)

from conftest import forced_reduction, random_grid, random_params
from test_choquet import layer_cake_reference
from test_content import enumerate_cover_costs_depth2
from test_czd import selection_oracle, weighted_avg_oracle

DELTAS = (0.25, 0.5, 1.0)


def root_cube(grid):
    return CubeSpec((0,) * grid.n, grid.shape[0])


def test_counterexample_signed_averages_end_to_end():
    started = time.monotonic()
    g, f = spike_and_slab_example()
    neg = step_function(g, -f.values)
    Q = root_cube(g)
    for delta in DELTAS:
        params = ContentParams(delta=delta)
        pos_avg = signed_average(f, Q, params).value
        neg_avg = signed_average(neg, Q, params).value
        scale = 2.0 ** (1.0 + 2.0 * delta)
        assert pos_avg == pytest.approx((1.0 - scale) / scale, abs=1e-12)
        assert neg_avg == pytest.approx((scale - 1.0) / (1.0 + 4.0**delta), abs=1e-12)
    assert time.monotonic() - started < 1.0


def test_counterexample_content_identities():
    started = time.monotonic()
    g, f = spike_and_slab_example()
    E = level_set(f, ">", 0.5)
    F = level_set(f, "<", -0.5)
    for delta in DELTAS:
        params = ContentParams(delta=delta)
        assert dyadic_content(g, E, params) == pytest.approx(1.0, abs=1e-12)
        assert dyadic_content(g, F, params) == pytest.approx(4.0**delta, abs=1e-12)
        assert dyadic_content(g, F.complement(), params) == pytest.approx(
            4.0**delta, abs=1e-12
        )
        assert dyadic_content(g, E.complement(), params) == pytest.approx(
            4.0**delta, abs=1e-12
        )
    assert time.monotonic() - started < 1.0


def test_two_cell_minimizer_interval_and_objective():
    started = time.monotonic()
    g, f = two_cell_example()
    params = ContentParams(delta=1.0)
    Q = root_cube(g)
    gi = gamma_interval(f, None, 1.0, Q, params)
    assert gi.lo == pytest.approx(0.0, abs=5e-9)
    assert gi.hi == pytest.approx(2.0, abs=5e-9)
    assert gi.min_value == pytest.approx(1.0, abs=1e-9)
    ones = step_function(g, np.ones(g.num_cells))
    for c in np.linspace(-2.0, 4.0, 50):
        got = oscillation_objective(f, ones, 1.0, Q, params, float(c))
        assert got == pytest.approx(max(1.0, abs(c - 1.0)), abs=1e-9)
    assert time.monotonic() - started < 1.0


def test_content_equals_exhaustive_cover_search_exactly():
    started = time.monotonic()
    g = build_grid(2, 2, 4.0)
    codes = np.arange(1 << 16, dtype=np.uint32)
    masks = ((codes[:, None] >> np.arange(16)[None, :]) & 1).astype(bool)
    ones = np.ones(16)
    for delta in (0.3, 1.0, 1.7):
        params = ContentParams(delta=delta)
        expected = enumerate_cover_costs_depth2(masks, delta, 4.0)
        got = np.empty(len(codes))
        chunk = 4096
        for start in range(0, len(codes), chunk):
            jobs = [(ones, m) for m in masks[start : start + chunk]]
            got[start : start + chunk] = masked_integral_many(g, jobs, params)
        # cell costs are exactly 1.0 here, so both routes round identically
        assert np.array_equal(got, expected)
    assert time.monotonic() - started < 60.0


def _reduction_outputs(tmp_path):
    """A fixed set of outputs, every float as float.hex."""
    f = log_abs_function(2, 4)
    g = f.grid
    w = random_positive_weight(g, np.random.default_rng(5))
    root = root_cube(g)
    out = {}
    for delta in (1.0, 0.5):
        rep = bmo_seminorm(f, ContentParams(delta=delta))
        out[f"bmo_{delta}"] = [rep.value, *rep.per_cube_centers.values()]
    P = ContentParams(delta=1.0)
    rep = weighted_bmo_seminorm(f, w, 2.0, P)
    out["wbmo_q2"] = [rep.value, *rep.per_cube_centers.values()]
    center = out["bmo_1.0"][1]
    for weight in (None, w):
        curve = survival_curve(f, center, root, weight, P, t_grid=(0.0, 0.5, 1.0))
        out[f"survival_{weight is None}"] = [*curve.t_samples, *curve.survival, curve.normalizer]
    out["weighted_l1"] = list(weighted_l1_comparison(f, w, P))
    absf = step_function(g, np.abs(f.values))
    full = full_set(g)
    root_avg = choquet(absf.with_values(absf.values * w.values), full, P) / choquet(w, full, P)
    cz = cz_decompose(absf, w, root, 1.5 * root_avg, P)
    out["cz"] = [*cz.ratios, *cz.parent_ratios]
    out = {k: [float(x).hex() for x in v] for k, v in out.items()}
    out["cz_selected"] = [Q.cube_id() for Q in cz.selected]
    fixture = tmp_path / "jn.json"
    fixture.write_text(json.dumps({
        "grid": {"n": 2, "depth": 4, "root_side": 2.0, "origin": [-1.0, -1.0]},
        "functions": {"f": {"values": f.values.tolist()}},
        "parameters": {"delta": 1.0, "family": "dyadic"},
    }))
    report, curves = tmp_path / "jn_report.json", tmp_path / "jn_curves.csv"
    code = main(["verify", "jn-bmo", "--fixture", str(fixture), "--out", str(report), "--curves", str(curves)])
    assert code == 0
    out["jn_body_sha256"] = json.loads(report.read_text())["body_sha256"]
    out["jn_curves_sha256"] = hashlib.sha256(curves.read_bytes()).hexdigest()
    return out


def test_outputs_keep_their_bits_on_both_reductions(tmp_path, capsys):
    """Which tree reduction a layer-cake call takes changes no output bit."""
    got = {}
    for path in ("dense", "sparse"):
        with forced_reduction(path):
            got[path] = _reduction_outputs(tmp_path)
    capsys.readouterr()
    assert got["dense"] == got["sparse"]


def test_level_set_outputs_keep_their_pinned_bits(tmp_path, capsys):
    """The outputs built from superlevel sets, pinned as recorded: the JN
    curves CSV of an unweighted and a weighted check, a weighted Choquet
    integral over a region with zero cells, and the weak-type constants.
    Inputs are dyadic rationals, so no libm function enters the samples."""
    cells = np.arange(64)
    fv = ((cells * 37) % 11) * 0.25 - 1.0
    wv = 1.0 + ((cells * 13) % 7) / 8.0
    got = {}
    for check, family in (("jn-bmo", "dyadic"), ("jn-weighted", "lattice")):
        fixture, curves = tmp_path / f"{check}.json", tmp_path / f"{check}.csv"
        fixture.write_text(json.dumps({
            "grid": {"n": 2, "depth": 3, "root_side": 2.0, "origin": [-1.0, -1.0]},
            "functions": {"f": {"values": fv.tolist()}},
            "weights": {"w": {"values": wv.tolist()}},
            "parameters": {"delta": 1.0, "family": family, "q": 1.0},
        }))
        assert main(["verify", check, "--fixture", str(fixture), "--curves", str(curves)]) == 0
        got[check] = hashlib.sha256(curves.read_bytes()).hexdigest()
    capsys.readouterr()
    g = build_grid(2, 3, 2.0)
    region, P = DyadicSet(g, cells % 3 != 0), ContentParams(delta=0.5)
    got["weighted_choquet"] = weighted_choquet(step_function(g, np.abs(fv)), region, step_function(g, wv), P).hex()
    rep = weak_restricted_strong_check(step_function(g, fv), region, 2.0, 1.0, P)
    got["weak_strong"] = {k: float(v).hex() for k, v in rep.constants.items()}
    assert got == {
        "jn-bmo": "f3300c31b91019cdc98a2348017cee4c6a25ad8c69595a080d7e4243f07d95fb",
        "jn-weighted": "6c09b9573c948b5787a2358674285d48f309287c5258599144cb0ac4235774b1",
        "weighted_choquet": "0x1.c993e935113f2p+1",
        "weak_strong": {
            "weak_constant": "0x1.fffffff768fa1p-1",
            "left": "0x1.0f876ccdf6cdap+1",
            "right": "0x1.0f876cc968984p+2",
            "content_E": "0x1.6a09e667f3bcdp+0",
            "usage": "0x1.000000044b831p-1",
        },
    }


def _seminorm_bits(rep):
    """A seminorm's value as float.hex and the sha256 of its centres' hex."""
    centres = " ".join(x.hex() for x in rep.centers.tolist())
    return [rep.value.hex(), hashlib.sha256(centres.encode()).hexdigest()]


PINNED_CENTRE_SEARCH = {
    "gamma_1.0_unweighted_0,0:8": ["0x1.7fffffbb47d00p-2", "0x1.800000225c180p-2", "0x1.5400000000000p+0", 5],
    "gamma_1.0_unweighted_2,1:4": ["0x1.7fffffbb47d00p-2", "0x1.000000225c180p-1", "0x1.2400000000000p+0", 14],
    "gamma_1.0_unweighted_4,4:4": ["0x1.3fffffdda3e80p-2", "0x1.c00000225c180p-2", "0x1.3000000000000p+0", 9],
    "seminorm_1.0_unweighted_dyadic": ["0x1.5400000000000p+0", "bdda511bb7aae1bb279936a5ecddde5edaa3c10f5313e3473f6d3839d078fb52"],
    "seminorm_1.0_unweighted_lattice": ["0x1.5400000000000p+0", "f6e0a3e42ceae3d97b4ddc2f1b8136ba68b2e2336ef5fb7d6e1abff728ea8f4a"],
    "gamma_1.0_weighted_0,0:8": ["0x1.6c4ec4a24d563p-2", "0x1.c00000502c380p-2", "0x1.216db6db6db6ep+0", 16],
    "gamma_1.0_weighted_2,1:4": ["0x1.11745c4b4302fp-1", "0x1.11745d449bc67p-1", "0x1.06b4cad716c86p+0", 13],
    "gamma_1.0_weighted_4,4:4": ["0x1.bffffc93d39c0p-2", "0x1.c000002e1d48ap-2", "0x1.1828282828283p+0", 12],
    "seminorm_1.0_weighted_dyadic": ["0x1.21f9add3c0ca5p+0", "8544d5e621d5de06a4db26d1104406c406ad5d72f446a12990a87ca6defb1541"],
    "seminorm_1.0_weighted_lattice": ["0x1.21f9add3c0ca5p+0", "0e30f6fa75be837947c2c2739c723eecc427807bc14fab40b7f2c58e196ef200"],
    "gamma_0.5_unweighted_0,0:8": ["0x1.7fffffd6862cfp-2", "0x1.800000112e0c0p-2", "0x1.6000000000000p+0", 6],
    "gamma_0.5_unweighted_2,1:4": ["0x1.ffffffc55820fp-2", "0x1.00000014bce98p-1", "0x1.4b504f333f9dep+0", 6],
    "gamma_0.5_unweighted_4,4:4": ["0x1.ffffffdda3e80p-3", "0x1.0000000897060p-1", "0x1.5000000000000p+0", 8],
    "seminorm_0.5_unweighted_dyadic": ["0x1.6000000000000p+0", "6bb17285b4be8b2b3f28fa5bfd01ca167ff9e84a379db63e6cbb2248192d86a4"],
    "seminorm_0.5_unweighted_lattice": ["0x1.6000000000000p+0", "4d283d42bc818d34904010ae9c115ab0b9fefe15e60ae5ee63f26625580eeaf6"],
    "gamma_0.5_weighted_0,0:8": ["0x1.6d097b0c5ededp-2", "0x1.6d097b8800fddp-2", "0x1.3a8f5e7ff5459p+0", 16],
    "gamma_0.5_weighted_2,1:4": ["0x1.1e79e77a5237ap-1", "0x1.1e79e7c63f294p-1", "0x1.0ef8b376ebf75p+0", 9],
    "gamma_0.5_weighted_4,4:4": ["0x1.2c4ec4a0acf1cp-1", "0x1.2c4ec50982cedp-1", "0x1.360af93af257bp+0", 12],
    "seminorm_0.5_weighted_dyadic": ["0x1.3a8f5e7ff5459p+0", "8475fb2605c8d7fc828d7f644270fa9bd5e237c9faa6f684e7b1591d977f13a6"],
    "seminorm_0.5_weighted_lattice": ["0x1.3b6713d759871p+0", "06e4abca251c0d85f3a35029c85e37e6bc15adb9851f356dacddfa4c75ee62b1"],
    "searched_1.0_weighted_lattice": ["0x1.21f9add3c0ca5p+0", "34d8d65af169c483c3fa80e6d73cc4d7b3e7664100aac67d97fa6672ccdaccd3"],
}


def test_centre_search_outputs_keep_their_pinned_bits(monkeypatch):
    """The q = 1 centre searches' plateaus (lo, hi, min_value and
    evaluations) of three cubes, and seminorm values and centres over the
    dyadic and lattice families, for delta 1 and 0.5, weighted and
    unweighted, pinned as recorded. Inputs are dyadic rationals, so no
    libm function enters the values. The last case switches the breakpoint
    scan off, so that small cubes search as well."""
    cells = np.arange(64)
    g = build_grid(2, 3, 2.0)
    f = step_function(g, ((cells * 37) % 23) * 0.125 - 1.0)
    w = step_function(g, 1.0 + ((cells * 13) % 7) / 8.0)
    lattice = CubeFamilyPolicy("lattice")
    got = {}
    for delta, weight in itertools.product((1.0, 0.5), (None, w)):
        P, name = ContentParams(delta=delta), f"{delta}_{'unweighted' if weight is None else 'weighted'}"
        for Q in (CubeSpec((0, 0), 8), CubeSpec((2, 1), 4), CubeSpec((4, 4), 4)):
            gi = gamma_interval(f, weight, 1.0, Q, P)
            got[f"gamma_{name}_{Q.cube_id()}"] = [*(x.hex() for x in (gi.lo, gi.hi, gi.min_value)), gi.evaluations]
        for policy in (CubeFamilyPolicy(), lattice):
            rep = (bmo_seminorm(f, P, policy) if weight is None
                   else weighted_bmo_seminorm(f, weight, 1.0, P, policy))
            got[f"seminorm_{name}_{policy.kind}"] = _seminorm_bits(rep)
    monkeypatch.setattr(capbmo.oscillation, "_SCAN_PAIRS", 0)
    got["searched_1.0_weighted_lattice"] = _seminorm_bits(
        weighted_bmo_seminorm(f, w, 1.0, ContentParams(delta=1.0), lattice))
    assert got == PINNED_CENTRE_SEARCH


def test_choquet_calculus_battery_zero_violations(rng):
    started = time.monotonic()
    violations = []
    for trial in range(1000):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        region = DyadicSet(g, rng.random(g.num_cells) < 0.7)
        f = step_function(g, np.abs(rng.normal(scale=2.0, size=g.num_cells)))
        h = step_function(g, np.abs(rng.normal(scale=2.0, size=g.num_cells)))
        If = choquet(f, region, params)
        Ih = choquet(h, region, params)
        content = dyadic_content(g, region, params)

        total = choquet(step_function(g, f.values + h.values), region, params)
        if total > (If + Ih) * (1 + 1e-12) + 1e-12:
            violations.append((trial, "sublinearity"))

        sq_f = choquet(step_function(g, f.values**2), region, params)
        sq_h = choquet(step_function(g, h.values**2), region, params)
        cross = choquet(step_function(g, f.values * h.values), region, params)
        if cross > math.sqrt(sq_f * sq_h) * (1 + 1e-12) + 1e-12:
            violations.append((trial, "holder"))
        sq_sum = choquet(step_function(g, (f.values + h.values) ** 2), region, params)
        if math.sqrt(sq_sum) > (math.sqrt(sq_f) + math.sqrt(sq_h)) * (1 + 1e-12) + 1e-12:
            violations.append((trial, "minkowski"))

        shift = float(rng.uniform(0.1, 3.0))
        shifted = choquet(step_function(g, f.values + shift), region, params)
        if abs(shifted - (If + shift * content)) > 1e-12 * max(1.0, abs(shifted)):
            violations.append((trial, "constant addition"))

        a = float(rng.uniform(0.0, 3.0))
        scaled = choquet(step_function(g, a * f.values), region, params)
        if abs(scaled - a * If) > 1e-12 * max(1.0, abs(scaled)):
            violations.append((trial, "homogeneity"))

        upper = choquet(step_function(g, f.values + np.abs(h.values)), region, params)
        if If > upper * (1 + 1e-12) + 1e-12:
            violations.append((trial, "monotonicity"))

        want = layer_cake_reference(f, region, params)
        if abs(If - want) > 1e-12 * max(1.0, abs(want)):
            violations.append((trial, "layer cake"))
    assert violations == []
    assert time.monotonic() - started < 30.0


def test_jensen_battery_zero_violations(rng):
    violations = []
    for trial in range(1000):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        cubes = list(dyadic_cubes(g))
        Q = cubes[int(rng.integers(len(cubes)))]
        f = random_step_function(g, rng, scale=3.0)
        sides = jensen_sides(f, Q, params)
        slack = 1e-11 * max(1.0, abs(sides.rhs_pos), abs(sides.rhs_neg))
        if sides.lhs_pos > sides.rhs_pos + slack:
            violations.append((trial, "positive side"))
        if sides.lhs_neg > sides.rhs_neg + slack:
            violations.append((trial, "negative side"))
    assert violations == []
    # equality when the function is constant on the cube
    for c in (-2.5, -0.3, 0.0, 1.7):
        g = build_grid(2, 2, 4.0)
        f = step_function(g, np.full(g.num_cells, c))
        sides = jensen_sides(f, root_cube(g), ContentParams(delta=0.75))
        assert sides.lhs_pos == pytest.approx(sides.rhs_pos, rel=1e-12)
        assert sides.lhs_neg == pytest.approx(sides.rhs_neg, rel=1e-12)


def test_exponential_weight_bounds_battery(rng):
    for trial in range(500):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng, spread=float(rng.uniform(0.5, 2.0)))
        rep = verify_characterization("bmo_ap", params, weight=w, p=2.0)
        assert rep.passed, f"trial {trial}: {rep.witnesses}"
        assert rep.constants["jensen_usage"] <= 1 + 1e-9
        assert rep.constants["chain_usage"] <= 1 + 1e-9
        assert rep.constants["seminorm"] <= 4.0 * rep.constants["ap_constant"] * (1 + 1e-9)


def test_seminorm_equivalence_chain_battery(rng):
    for trial in range(500):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        f = random_step_function(g, rng, scale=float(rng.uniform(0.5, 4.0)))
        plain = bmo_seminorm(f, params, centering="inf_c").value
        centered = bmo_seminorm(f, params, centering="f_Q_delta").value
        assert plain <= centered * (1 + 1e-9) + 1e-15, f"trial {trial}"
        assert centered <= 3.0 * plain * (1 + 1e-9) + 1e-15, f"trial {trial}"


def test_stopping_time_decomposition_matches_oracle(rng):
    started = time.monotonic()
    for trial in range(500):
        g = random_grid(rng, max_depth_1d=4, max_depth_2d=4)
        params = random_params(rng, g.n)
        f = step_function(g, np.round(rng.normal(scale=3.0, size=g.num_cells), 1))
        w = random_positive_weight(g, rng)
        root = root_cube(g)
        root_avg = weighted_avg_oracle(f, w, root, params)
        lam = root_avg * float(rng.uniform(1.0, 2.0)) + 1e-9
        result = cz_decompose(f, w, root, lam, params)
        assert list(result.selected) == selection_oracle(f, w, root, lam, params), (
            f"trial {trial}"
        )
        report = cz_verify(f, w, root, result, params)
        assert report.passed, f"trial {trial}: {report.witnesses}"
    assert time.monotonic() - started < 60.0


def _two_value_minimizer(depth):
    g = build_grid(1, depth, 2.0)
    values = np.where(np.arange(g.num_cells) < g.num_cells // 2, 2.0, 0.0)
    return step_function(g, values)


def test_exponential_decay_uniform_and_depth_stable():
    params = ContentParams(delta=1.0)
    families = {
        "log-singularity": lambda d: log_abs_function(2, d),
        "two-value-minimizer": _two_value_minimizer,
    }
    for name, family in families.items():
        for kind in ("bmo", "blo"):
            reports = {}
            curve_sets = {}
            for depth in (3, 4, 5):
                curves = []
                rep = verify_jn(kind, family(depth), params=params, curves_out=curves)
                assert rep.passed, f"{name}/{kind}/depth {depth}"
                assert rep.constants["c"] > 0
                assert math.isfinite(rep.constants["C"]) and rep.constants["C"] > 0
                reports[depth] = rep
                curve_sets[depth] = curves[0]  # the one family's SurvivalCurves
            floor = 0.15 if name == "log-singularity" else 1e-6
            assert min(reports[d].constants["c"] for d in (3, 4, 5)) >= floor
            # constants fitted at one depth keep working one level deeper,
            # up to a single factor-2 relaxation of the prefactor
            for depth in (3, 4):
                c_d = reports[depth].constants["c"]
                C_d = reports[depth].constants["C"]
                semi = reports[depth + 1].constants["seminorm"]
                worst = 0.0
                for curve in curve_sets[depth + 1]:
                    for t, s in zip(curve.t_samples, curve.survival):
                        if s <= 0:
                            continue
                        bound = (
                            JN_DEPTH_TRANSFER_FACTOR
                            * C_d
                            * curve.normalizer
                            * math.exp(-c_d * t / semi)
                        )
                        worst = max(worst, s / bound)
                assert worst <= 1 + 1e-9, f"{name}/{kind}/depth {depth + 1}: {worst}"


def test_weighted_integral_comparison_battery(rng):
    ratios = []
    for _ in range(500):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        f = random_step_function(g, rng, scale=float(rng.uniform(0.5, 4.0)))
        w = random_positive_weight(g, rng, spread=float(rng.uniform(0.5, 2.0)))
        product, measure = weighted_l1_comparison(f, w, params)
        assert product > 0 and math.isfinite(measure)
        ratios.append(product / measure)
    print(f"product/measure ratio range: [{min(ratios):.6f}, {max(ratios):.6f}]")
    assert min(ratios) >= WEIGHTED_L1_MIN_RATIO
    assert max(ratios) <= 1 + 1e-11


def test_characterization_round_trip():
    params = ContentParams(delta=1.0)
    for alpha in (0.3, 0.7):
        constants = []
        for depth in (4, 5, 6):
            g = build_grid(1, depth, 1.0)
            # indicator of [0, 1/16) regardless of depth
            base = step_function(
                g, (np.arange(g.num_cells) < g.num_cells // 16).astype(float)
            )
            w = power_maximal_weight(base, alpha, params)
            a1 = a1_constant(w, params).ap_constant
            assert math.isfinite(a1) and a1 >= 1.0
            constants.append(a1)
            rep = verify_characterization("blo_a1", params, weight=w)
            assert rep.passed, f"alpha {alpha}, depth {depth}: {rep.witnesses}"
            assert rep.constants["percube_usage"] <= 1 + 1e-9
            prefactor = rep.constants["ln_chain_prefactor"]
            assert math.isfinite(prefactor) and prefactor > 0
        assert max(constants) / min(constants) <= 2.0, f"alpha {alpha}: {constants}"

    rep = verify_characterization(
        "bmo_ap",
        params,
        function_family=lambda d: log_abs_function(2, d),
        depths=(3, 4, 5),
        gamma_grid=(0.5, 0.25, 0.125, 0.0625, 0.03125),
        p=2.0,
    )
    assert rep.passed
    assert rep.constants["largest_passing_gamma"] > 0


def test_strict_inclusion_probes():
    started = time.monotonic()
    rep = verify_inclusions(range(3, 7), ContentParams(delta=1.0), n=2)
    assert rep.passed, rep.witnesses
    assert time.monotonic() - started < 120.0
