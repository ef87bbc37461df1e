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
    enumerate_cubes,
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
from capbmo.verify import survival_curves
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


PINNED_Q2_SEARCH = {
    "gamma_1.0_unweighted_0,0:8": ["0x1.7fffffe310c36p-2", "0x1.8000000d689f4p-2", "0x1.c480000000000p+0", 5],
    "gamma_1.0_unweighted_2,1:4": ["0x1.eff7b5d4cff12p-2", "0x1.f0084a2b300eep-2", "0x1.5370000000000p+0", 3],
    "gamma_1.0_unweighted_4,4:4": ["0x1.7ff7b5d4cff12p-2", "0x1.80084a2b300eep-2", "0x1.6e00000000000p+0", 7],
    "seminorm_1.0_unweighted_dyadic": ["0x1.545a4e5c29de4p+0", "33c47672102b71046cc5e125210be75082c70483264da8dd9426c2fa2455f111"],
    "seminorm_1.0_unweighted_lattice": ["0x1.545a4e5c29de4p+0", "3fc1cd6d4f80f16d525f6c385c2f760a825508e8e7c95c147460912d08d91ea2"],
    "gamma_1.0_weighted_0,0:8": ["0x1.9c9b679356f3dp-2", "0x1.9c9b6b1c57651p-2", "0x1.6eb7a07a5a63fp+0", 12],
    "gamma_1.0_weighted_2,1:4": ["0x1.eaa790863942cp-2", "0x1.eaa7916d5145cp-2", "0x1.29de3e716331dp+0", 6],
    "gamma_1.0_weighted_4,4:4": ["0x1.a35edaa585acfp-2", "0x1.a3701fe818481p-2", "0x1.51adc38d1540ep+0", 8],
    "seminorm_1.0_weighted_dyadic": ["0x1.33ac782eb914dp+0", "2ae149c808851b01480296d3526adc032224ec91f23d49bb2efba267cd29b4fd"],
    "seminorm_1.0_weighted_lattice": ["0x1.33ac782eb914dp+0", "d490ebd17c1f930a13b013e9b9618ded2fe08822a6580074307de9f6f72b5c32"],
    "gamma_0.5_unweighted_0,0:8": ["0x1.7ffffff0eaf90p-2", "0x1.800000063f4a4p-2", "0x1.e400000000000p+0", 7],
    "gamma_0.5_unweighted_2,1:4": ["0x1.ffffffe55115fp-2", "0x1.00000007a48ffp-1", "0x1.adb2cfe686fe8p+0", 7],
    "gamma_0.5_unweighted_4,4:4": ["0x1.3ff7b5d4cff12p-2", "0x1.40084a2b300eep-2", "0x1.b900000000000p+0", 5],
    "seminorm_0.5_unweighted_dyadic": ["0x1.6000000000000p+0", "baa1463fc5d3d44080cc2030e0e3e93d9930a021bc28d645059b652e5f84a120"],
    "seminorm_0.5_unweighted_lattice": ["0x1.6000000000000p+0", "600a19a381d879f94b6521f14aa5ae190984578d9c4784b88f426b11b4a314bd"],
    "gamma_0.5_weighted_0,0:8": ["0x1.7fffffe4041a6p-2", "0x1.8000001a5b8d5p-2", "0x1.9bb392c772efap+0", 10],
    "gamma_0.5_weighted_2,1:4": ["0x1.156331c9c7380p-1", "0x1.156331ed44ec2p-1", "0x1.35ce815b05d52p+0", 8],
    "gamma_0.5_weighted_4,4:4": ["0x1.e13f28b675ce2p-2", "0x1.e15033727ff48p-2", "0x1.9b60e67b8e7f9p+0", 3],
    "seminorm_0.5_weighted_dyadic": ["0x1.44a59792744eep+0", "26dc84d854d66688ea35ea394f10fa4fe86e51acdab0980de63bb8b7588087fe"],
    "seminorm_0.5_weighted_lattice": ["0x1.44a59792744eep+0", "c7d1427c2b016e233148d9accd2abe220d634b575347fc48c6a00360f0e2cd9a"],
}


def _power_search_bits(q):
    """The q centre searches on the grid of the q = 1 pins above: the
    plateaus (lo, hi, min_value and evaluations) of three cubes, and
    seminorm values and centres over the dyadic and lattice families, for
    delta 1 and 0.5, weighted and with a unit weight."""
    cells = np.arange(64)
    g = build_grid(2, 3, 2.0)
    f = step_function(g, ((cells * 37) % 23) * 0.125 - 1.0)
    w = step_function(g, 1.0 + ((cells * 13) % 7) / 8.0)
    unit = step_function(g, np.ones(64))
    got = {}
    for delta, weight in itertools.product((1.0, 0.5), (None, w)):
        P, name = ContentParams(delta=delta), f"{delta}_{'unweighted' if weight is None else 'weighted'}"
        for Q in (CubeSpec((0, 0), 8), CubeSpec((2, 1), 4), CubeSpec((4, 4), 4)):
            gi = gamma_interval(f, weight, q, Q, P)
            got[f"gamma_{name}_{Q.cube_id()}"] = [*(x.hex() for x in (gi.lo, gi.hi, gi.min_value)), gi.evaluations]
        for policy in (CubeFamilyPolicy(), CubeFamilyPolicy("lattice")):
            rep = weighted_bmo_seminorm(f, unit if weight is None else weight, q, P, policy)
            got[f"seminorm_{name}_{policy.kind}"] = _seminorm_bits(rep)
    return got


def test_q2_centre_search_outputs_keep_their_pinned_bits():
    """The q = 2 centre searches (_power_search_bits), pinned as recorded.
    Inside the search q = 2 takes only squares, square roots and matmuls,
    so no libm power enters the plateaus."""
    assert _power_search_bits(2.0) == PINNED_Q2_SEARCH


PINNED_POWER_SEARCH = {
    1.5: {
        "gamma_1.0_unweighted_0,0:8": ["0x1.7fffffd5ffa3bp-2", "0x1.800000143dbfdp-2", "0x1.88230edb3b526p+0", 7],
        "gamma_1.0_unweighted_2,1:4": ["0x1.f012af56b8b2bp-2", "0x1.f02e8f2665fc2p-2", "0x1.3a1cbd038854fp+0", 3],
        "gamma_1.0_unweighted_4,4:4": ["0x1.83533a695b90ep-2", "0x1.836f6ab63c692p-2", "0x1.4cff9951d3015p+0", 8],
        "seminorm_1.0_unweighted_dyadic": ["0x1.542d5af5d55b1p+0", "63d201efb2c494b2b359531db365d512390d5210272749ba3622249bb54e1987"],
        "seminorm_1.0_unweighted_lattice": ["0x1.542d5af5d55b1p+0", "cd2ff694241147c715d7c489cff1b9a15eca3a7ee0da9d13a860d27b6937223e"],
        "gamma_1.0_weighted_0,0:8": ["0x1.a054b39a402bep-2", "0x1.a073052c2d75ap-2", "0x1.44674beeeb6f3p+0", 8],
        "gamma_1.0_weighted_2,1:4": ["0x1.ee4825dec7b9bp-2", "0x1.ee4826e3f407dp-2", "0x1.15db5bd96bd20p+0", 8],
        "gamma_1.0_weighted_4,4:4": ["0x1.bffe8afe62426p-2", "0x1.c000001c57935p-2", "0x1.330c209954a25p+0", 9],
        "seminorm_1.0_weighted_dyadic": ["0x1.2f8274784f3fap+0", "717af570b9317338b228c4324c87a6f0725fb9e435798d9194e3111a23d1e7ad"],
        "seminorm_1.0_weighted_lattice": ["0x1.2f8274784f3fap+0", "3e39413a48101adde68f5803f62b1e1dde5c37cd9e4fdcc8dfd33663f33030cf"],
        "gamma_0.5_unweighted_0,0:8": ["0x1.7fffffe86b64bp-2", "0x1.80000009c471dp-2", "0x1.9cc1afad3f725p+0", 7],
        "gamma_0.5_unweighted_2,1:4": ["0x1.ffffffdad5b46p-2", "0x1.0000000bdf041p-1", "0x1.7936152f8d382p+0", 7],
        "gamma_0.5_unweighted_4,4:4": ["0x1.3ff182b96427bp-2", "0x1.400e7d469a652p-2", "0x1.80efb52ebb80fp+0", 5],
        "seminorm_0.5_unweighted_dyadic": ["0x1.6000000000000p+0", "fb6f8aed4a99ad38701c67431c6afc85ada2c8c8cf9b4dd4e7b00b2653e77da7"],
        "seminorm_0.5_unweighted_lattice": ["0x1.6000000000000p+0", "0ce38dd870e8cfc9fb23b374830cd38f36b713ba1d38d9e6f968cf182421af3e"],
        "gamma_0.5_weighted_0,0:8": ["0x1.753cadc21a3cbp-2", "0x1.753cae11f7abap-2", "0x1.66203ea14b6cep+0", 10],
        "gamma_0.5_weighted_2,1:4": ["0x1.145374aaf2f07p-1", "0x1.145374d857e11p-1", "0x1.1db1efc69ef1bp+0", 9],
        "gamma_0.5_weighted_4,4:4": ["0x1.1d92265afe7c3p-1", "0x1.1d9227374750ap-1", "0x1.64df27cd9af4ep+0", 8],
        "seminorm_0.5_weighted_dyadic": ["0x1.4036318927076p+0", "7013202be672c06a82aae488c5d57f6fbb7e1d1c8fe400ebb3c49f3c1d35a158"],
        "seminorm_0.5_weighted_lattice": ["0x1.4036318927076p+0", "15312029dae2ce633c816d69987efe554b77fe7e60a4e5fff8c896864debfc07"],
    },
    3.0: {
        "gamma_1.0_unweighted_0,0:8": ["0x1.7fffffef9eb3ep-2", "0x1.80000006f6e62p-2", "0x1.2db8000000000p+1", 5],
        "gamma_1.0_unweighted_2,1:4": ["0x1.ef53309cd904bp-2", "0x1.ef5c270f05736p-2", "0x1.9174a8542a150p+0", 3],
        "gamma_1.0_unweighted_4,4:4": ["0x1.793ef9f69acd3p-2", "0x1.7947c2ab16c69p-2", "0x1.be75e50d79436p+0", 5],
        "seminorm_1.0_unweighted_dyadic": ["0x1.54b2eba8601b7p+0", "fcfbd197f45f13f4e9745043cda704be5f4464ed3388843dd9e13cc224d47daf"],
        "seminorm_1.0_unweighted_lattice": ["0x1.54b2eba8601b7p+0", "2321b290142f5bb01afe73172c7da4dfcfb2abdc981f9bbaeca466b937a43ded"],
        "gamma_1.0_weighted_0,0:8": ["0x1.770a2afb3a04ep-2", "0x1.770a3451f890dp-2", "0x1.e30289fc37b11p+0", 12],
        "gamma_1.0_weighted_2,1:4": ["0x1.f1c4a90a12fa6p-2", "0x1.f1c4a99ff26f6p-2", "0x1.5c283bff8624ep+0", 6],
        "gamma_1.0_weighted_4,4:4": ["0x1.8fe0808a93966p-2", "0x1.8fe9a5ff32d2ap-2", "0x1.9c4c1c47fc1a6p+0", 6],
        "seminorm_1.0_weighted_dyadic": ["0x1.3c5566eea1610p+0", "fecb1c2a59e3bd338c11833ec2f3327170c284629d7a36314dedfd7547a83de3"],
        "seminorm_1.0_weighted_lattice": ["0x1.3c5566eea1610p+0", "c2134c74e5719fda263859c9ede26a5edab92ac5a7985f7c831833e5026c513d"],
        "gamma_0.5_unweighted_0,0:8": ["0x1.7ffffff8affcbp-2", "0x1.800000030769dp-2", "0x1.4cc0000000000p+1", 6],
        "gamma_0.5_unweighted_2,1:4": ["0x1.ffffffef3cd5ep-2", "0x1.00000003c06adp-1", "0x1.1741acce86825p+1", 5],
        "gamma_0.5_unweighted_4,4:4": ["0x1.3ffbd286fc226p-2", "0x1.40042d7906102p-2", "0x1.2168000000000p+1", 5],
        "seminorm_0.5_unweighted_dyadic": ["0x1.6000000000000p+0", "867c1ea2a690fcfde779700c79ba5dc90f87db8a460d3ec92a5c26134d1d7c0c"],
        "seminorm_0.5_unweighted_lattice": ["0x1.6000000000000p+0", "3ce90ee5d68a1799b7d1da39cffad075ead42c4fb6ec6f3632d2d3b0ea55e31e"],
        "gamma_0.5_weighted_0,0:8": ["0x1.75fdc1206550bp-2", "0x1.75fdc13a84152p-2", "0x1.144db662142dcp+1", 10],
        "gamma_0.5_weighted_2,1:4": ["0x1.020f6662ac35bp-1", "0x1.020f667330eb9p-1", "0x1.8715c4e772c72p+0", 7],
        "gamma_0.5_weighted_4,4:4": ["0x1.90ea6354f2103p-2", "0x1.90f301ee4016ap-2", "0x1.0ef23341cf88bp+1", 5],
        "seminorm_0.5_weighted_dyadic": ["0x1.4ad9cb77ce579p+0", "32b739922fac85bfa1641c46e7286524185fefadab83bd514a8cf3640dd1b03f"],
        "seminorm_0.5_weighted_lattice": ["0x1.4ad9cb77ce579p+0", "516c58aaf899d5698c6059c4efc975f5c157c7b080ff22bd72a33df5a4cd5f00"],
    },
}


@pytest.mark.parametrize("q", [1.5, 3.0])
def test_power_centre_search_outputs_keep_their_pinned_bits(q):
    """The q = 1.5 and q = 3 centre searches (_power_search_bits), which
    bisect each chain's own sum, pinned as recorded. These values go
    through libm pow (|v - x|**q in the slopes, sums and levels), so they
    hold for the libm they were recorded with."""
    assert _power_search_bits(q) == PINNED_POWER_SEARCH[q]


def _hex_sha256(*arrays):
    """sha256 of the float.hex of every entry of the arrays, in order."""
    text = " ".join(x.hex() for a in arrays for x in np.asarray(a, dtype=float).ravel().tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def _weighted_level_set_bits():
    """The outputs read from weighted level sets: weighted_choquet, both
    sides of weighted_l1_comparison and the weighted survival curves of a
    family, every float as float.hex (curves as one sha256)."""
    cells = np.arange(64)
    g = build_grid(2, 3, 2.0)
    f = step_function(g, ((cells * 37) % 23) * 0.125 - 1.0)
    weights = {
        "ties": 1.0 + ((cells * 13) % 7) / 8.0,
        "zeros": np.where(cells % 5 == 0, 0.0, 1.0 + ((cells * 13) % 7) / 8.0),
        "distinct": 0.5 + ((cells * 29) % 64) / 64.0,
    }
    region = DyadicSet(g, cells % 3 != 0)
    absf = step_function(g, np.abs(f.values))
    got = {}
    for delta, (name, wv) in itertools.product((1.0, 0.5), weights.items()):
        P, w, key = ContentParams(delta=delta), step_function(g, wv), f"{delta}_{name}"
        got[f"choquet_{key}"] = weighted_choquet(absf, region, w, P).hex()
        if name != "zeros":
            got[f"l1_{key}"] = [x.hex() for x in weighted_l1_comparison(f, w, P)]
        for policy in (CubeFamilyPolicy(), CubeFamilyPolicy("lattice")):
            cubes = enumerate_cubes(g, policy)
            centers = [float(f.values[Q.mask(g)][0]) + 0.125 * (k % 3) for k, Q in enumerate(cubes)]
            curves = survival_curves(f, centers, cubes, w, P, t_grid=(0.0, 0.25, 1.0))
            got[f"survival_{key}_{policy.kind}"] = _hex_sha256(curves.samples, curves.survival,
                                                               curves.normalizers)
    # the shape of the benchmark's weighted L1 task: 32 deviation and 256 weight levels
    cells = np.arange(4096)
    g = build_grid(2, 6, 1.0)
    f = step_function(g, ((cells * 37) % 32 + 1) * 0.125)
    w = step_function(g, ((cells * 101) % 256 + 1) / 64.0)
    for delta in (1.0, 0.5):
        P = ContentParams(delta=delta)
        got[f"l1_{delta}_64x64"] = [x.hex() for x in weighted_l1_comparison(f, w, P)]
        curves = survival_curves(f, [1.5], [root_cube(g)], w, P, t_grid=(0.0, 0.5, 2.0))
        got[f"survival_{delta}_64x64"] = _hex_sha256(curves.samples, curves.survival, curves.normalizers)
    return got


PINNED_WEIGHTED_LEVEL_SETS = {
    "choquet_0.5_distinct": "0x1.a2b829ee78caap+1",
    "choquet_0.5_ties": "0x1.f158ea9ba0006p+1",
    "choquet_0.5_zeros": "0x1.f158ea9ba0006p+1",
    "choquet_1.0_distinct": "0x1.e4d0000000000p+1",
    "choquet_1.0_ties": "0x1.2ac0000000000p+2",
    "choquet_1.0_zeros": "0x1.2a40000000000p+2",
    "l1_0.5_64x64": ["0x1.0000000000000p+4", "0x1.0000000000000p+4"],
    "l1_0.5_distinct": ["0x1.750856db106eap+1", "0x1.a9d647a1b0a5dp+1"],
    "l1_0.5_ties": ["0x1.df3c10ceb10e2p+1", "0x1.0673abc10bbccp+2"],
    "l1_1.0_64x64": ["0x1.e538000000000p+3", "0x1.f8b4000000000p+3"],
    "l1_1.0_distinct": ["0x1.cac0000000000p+1", "0x1.0700000000000p+2"],
    "l1_1.0_ties": ["0x1.2a00000000000p+2", "0x1.4e80000000000p+2"],
    "survival_0.5_64x64": "3a2bcfde9b14d24e2c903c8f1f69f5b33fc60e13e3ca9bbf36cdf2f299f5d858",
    "survival_0.5_distinct_dyadic": "a1d274c8be83509f64932ee9fdd0d698231f6e57d65a7eec0e0310db02ef6659",
    "survival_0.5_distinct_lattice": "3804a6a4aadd412bc8b88c3caa7669e9eb453f0a9dbe14a82088a73a817ae383",
    "survival_0.5_ties_dyadic": "4e05f1aa3ef2237c3e95a7bac30ce6c0fb606150a60490a35e27c03f664c5218",
    "survival_0.5_ties_lattice": "c0ba1c9247e01f4bb17ad1651c4cd22eb3e5b96e5aaf150fb126a065d1dbbcf8",
    "survival_0.5_zeros_dyadic": "b9df0449448c9d6de712f3fd91c9cb2f4472575de61d5dd7592929d3bbae541e",
    "survival_0.5_zeros_lattice": "899de575db352ed8eb1f0feddedf7fffba6aa817097cefb184d9dfdfbc6b37ef",
    "survival_1.0_64x64": "f92d69ffdb1f986e238a2816afcfa3d6c4fcd4bae5b9602afbd90aab77130b4a",
    "survival_1.0_distinct_dyadic": "286bca748b52ba3e79bc10c9496a825eaf8b85fd54db09d016300df441175b72",
    "survival_1.0_distinct_lattice": "882dd0ead14940d238905b0c456ee21a3d17939e02711ac02c38a69383b5117c",
    "survival_1.0_ties_dyadic": "f9494c2ca751cf890b18f196b52cb7551f312e36670fb76e0db2260ab361a6f4",
    "survival_1.0_ties_lattice": "9b132b89573318923a22dcf347c8827e3cd09317d36eab1613ea8011065dafe0",
    "survival_1.0_zeros_dyadic": "8a9f42ea2fa3833f9b6996fb001ee04b9621c5a789bd9340eed4dd21f3337500",
    "survival_1.0_zeros_lattice": "376ed795445a8560ab6fce1a5db08ca4ca49cc906e31c7ae36cf11193d522058",
}


def test_weighted_level_set_outputs_keep_their_pinned_bits():
    """The outputs read from the w-contents of weighted level sets, pinned
    as recorded, on the grid of the q = 1 and q = 2 pins: weighted_choquet,
    both sides of weighted_l1_comparison and the weighted survival curves
    of the dyadic and lattice families, for delta 1 and 0.5 and weights
    with ties, with zeros and with all values distinct; and a 64x64 root
    with 32 deviation levels and 256 weight levels. Inputs are dyadic
    rationals, so no libm function enters the values."""
    assert _weighted_level_set_bits() == PINNED_WEIGHTED_LEVEL_SETS


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
