import numpy as np
import pytest

import capbmo.weights
from capbmo.choquet import choquet
from capbmo.content import ContentParams, cube_content, dyadic_content
from capbmo.fixtures import random_positive_weight
from capbmo.reports import InvariantViolation
from capbmo.grid import (
    CubeFamilyPolicy,
    CubeSpec,
    build_grid,
    cube_set,
    enumerate_cubes,
    step_function,
)
from capbmo.weights import (
    a1_constant,
    a1_factorize,
    ap_constant,
    cube_averages,
    maximal_function,
    power_maximal_weight,
    weighted_l1_comparison,
)
from conftest import random_grid, random_params


def brute_maximal(w, params, policy):
    """Per-cell sup of cube averages recomputed through the set-based
    integration path, looping instead of scattering."""
    g = w.grid
    out = np.zeros(g.num_cells)
    for Q in enumerate_cubes(g, policy):
        region = cube_set(g, Q)
        avg = choquet(w, region, params) / dyadic_content(g, region, params)
        idx = np.flatnonzero(region.membership)
        out[idx] = np.maximum(out[idx], avg)
    return out


def test_maximal_function_matches_brute_force(rng):
    for _ in range(30):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng)
        for kind in ("dyadic", "lattice"):
            policy = CubeFamilyPolicy(kind)
            got = maximal_function(w, params, policy)
            want = brute_maximal(w, params, policy)
            assert got.values == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_maximal_function_dominates_and_fixes_constants(rng):
    g = random_grid(rng)
    params = random_params(rng, g.n)
    w = random_positive_weight(g, rng)
    mw = maximal_function(w, params)
    assert np.all(mw.values >= w.values * (1 - 1e-12))
    const = step_function(g, np.full(g.num_cells, 1.7))
    assert maximal_function(const, params).values == pytest.approx(1.7, rel=1e-12)
    with pytest.raises(ValueError):
        maximal_function(step_function(g, -np.ones(g.num_cells)), params)


def test_maximal_hand_values_single_spike():
    g = build_grid(1, 2, 4.0)
    w = step_function(g, np.array([1.0, 0.0, 0.0, 0.0]))
    mw = maximal_function(w, ContentParams(delta=1.0))
    assert mw.values == pytest.approx([1.0, 0.5, 0.25, 0.25], abs=1e-13)
    powered = power_maximal_weight(w, 0.5, ContentParams(delta=1.0))
    assert powered.values == pytest.approx(
        [1.0, 2.0**-0.5, 0.5, 0.5], abs=1e-13
    )


def test_ap_hand_value_two_cells():
    g = build_grid(1, 1, 2.0)
    w = step_function(g, np.array([4.0, 1.0]))
    got = ap_constant(w, 2.0, ContentParams(delta=0.5))
    # cells give product 1; the root gives ((sqrt2 + 3)/sqrt2)**2 / 4
    root = 2.0**0.5
    want = ((root + 3.0) / root) ** 2 / 4.0
    assert got.ap_constant == pytest.approx(want, rel=1e-12)
    assert got.worst_cube == CubeSpec((0,), 2)


def test_a1_constant_two_cell_hand_values():
    g = build_grid(1, 1, 2.0)
    w = step_function(g, np.array([1.0, 3.0]))
    got = a1_constant(w, ContentParams(delta=1.0))
    assert got.ap_constant == pytest.approx(2.0, abs=1e-12)
    assert got.worst_cube == CubeSpec((0,), 1)
    assert got.p == 1.0
    got_half = a1_constant(w, ContentParams(delta=0.5))
    # root integral 2**0.5 + 2, root content 2**0.5, cell values unchanged
    assert got_half.ap_constant == pytest.approx(1.0 + 2.0 / 2.0**0.5, abs=1e-12)


def test_ap_duality_is_exact(rng):
    for _ in range(25):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng)
        two = ap_constant(w, 2.0, params)
        dual_two = ap_constant(step_function(g, 1.0 / w.values), 2.0, params)
        assert two.ap_constant == pytest.approx(dual_two.ap_constant, rel=1e-11)
        p = 3.0
        pprime = 1.5
        sigma = step_function(g, w.values ** (-1.0 / (p - 1.0)))
        lhs = ap_constant(sigma, pprime, params).ap_constant
        rhs = ap_constant(w, p, params).ap_constant ** (pprime - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_a1_dominates_ap_and_constants_are_one_on_constants(rng):
    for _ in range(25):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng)
        a1 = a1_constant(w, params).ap_constant
        for p in (1.5, 2.0, 3.0):
            ap = ap_constant(w, p, params).ap_constant
            assert 1.0 - 1e-11 <= ap <= a1 * (1 + 1e-11)
    g = build_grid(2, 2, 4.0)
    const = step_function(g, np.full(g.num_cells, 0.4))
    params = ContentParams(delta=1.0)
    assert ap_constant(const, 2.0, params).ap_constant == pytest.approx(1.0, rel=1e-12)
    assert a1_constant(const, params).ap_constant == pytest.approx(1.0, rel=1e-12)


def test_ap_rejects_bad_inputs(grid_1d):
    params = ContentParams(delta=1.0)
    w = step_function(grid_1d, np.ones(grid_1d.num_cells))
    with pytest.raises(ValueError):
        ap_constant(w, 1.0, params)
    zero = step_function(grid_1d, np.zeros(grid_1d.num_cells))
    with pytest.raises(ValueError):
        ap_constant(zero, 2.0, params)
    with pytest.raises(ValueError):
        a1_constant(zero, params)


def test_larger_family_raises_a1(rng):
    for _ in range(10):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng)
        dy = a1_constant(w, params, CubeFamilyPolicy("dyadic")).ap_constant
        lat = a1_constant(w, params, CubeFamilyPolicy("lattice")).ap_constant
        assert lat >= dy - 1e-12


def test_power_maximal_weight(rng):
    g = build_grid(1, 3, 1.0)
    params = ContentParams(delta=0.7)
    gv = np.zeros(g.num_cells)
    gv[0] = 1.0
    f = step_function(g, gv)
    w = power_maximal_weight(f, 0.5, params)
    mg = maximal_function(step_function(g, np.abs(gv)), params)
    assert w.values == pytest.approx(mg.values**0.5, rel=1e-13)
    assert np.all(w.values > 0)
    with pytest.raises(ValueError):
        power_maximal_weight(f, 1.0, params)
    with pytest.raises(ValueError):
        power_maximal_weight(f, 0.0, params)
    with pytest.raises(ValueError):
        power_maximal_weight(step_function(g, np.zeros(g.num_cells)), 0.5, params)


def test_a1_factorize_invariants(rng):
    for _ in range(15):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng, spread=0.5)
        fac = a1_factorize(w, params)
        assert fac.alpha == pytest.approx(1.0 / (1.0 + fac.gamma), rel=1e-15)
        assert fac.base.values == pytest.approx(w.values ** (1.0 + fac.gamma), rel=1e-12)
        mb = maximal_function(fac.base, params)
        recon = fac.b.values * mb.values**fac.alpha
        assert recon == pytest.approx(w.values, rel=1e-11)
        assert np.all(fac.b.values <= 1.0 + 1e-12)
        assert fac.b_lower_bound == pytest.approx(fac.b.values.min(), rel=1e-13)
        assert fac.b_lower_bound >= fac.base_a1_constant**-fac.alpha - 1e-11
        assert fac.base_a1_constant <= 1e6


def test_a1_factorize_errors(grid_1d, rng):
    params = ContentParams(delta=1.0)
    w = random_positive_weight(grid_1d, rng)
    with pytest.raises(ValueError):
        a1_factorize(w, params, gamma_grid=())
    spiky = step_function(grid_1d, np.where(np.arange(grid_1d.num_cells) == 0, 1e9, 1e-9))
    with pytest.raises(ValueError):
        a1_factorize(spiky, params, cap=1.0001)


def test_a1_factorize_runs_one_maximal_function_per_gamma(rng, monkeypatch):
    g = build_grid(2, 2, 1.0)
    params = ContentParams(delta=1.0)
    w = random_positive_weight(g, rng, spread=2.0)
    gammas = (1.0, 0.5, 0.25, 0.125)
    bases = [step_function(g, w.values ** (1.0 + gamma)) for gamma in gammas]
    consts = [a1_constant(base, params).ap_constant for base in bases]
    assert consts[0] > consts[1] > consts[2]  # the cap below rejects two gammas
    m_base = maximal_function(bases[2], params)

    calls = []
    real = capbmo.weights.maximal_function

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(capbmo.weights, "maximal_function", counting)
    fac = a1_factorize(w, params, gamma_grid=gammas, cap=consts[2])
    assert len(calls) == 3
    assert fac.gamma == 0.25
    assert fac.base_a1_constant == consts[2]
    assert np.array_equal(fac.base.values, bases[2].values)
    assert np.array_equal(fac.b.values, w.values * m_base.values ** -fac.alpha)


def test_weighted_l1_comparison_bounds(rng):
    for _ in range(100):
        g = random_grid(rng, max_depth_1d=4, max_depth_2d=3)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        w = random_positive_weight(g, rng)
        lhs, mid = weighted_l1_comparison(f, w, params)
        assert lhs <= mid * (1 + 1e-11)
        assert lhs >= 0.25 * mid
    zero_f = step_function(g, np.zeros(g.num_cells))
    lhs, mid = weighted_l1_comparison(zero_f, w, params)
    assert (lhs, mid) == (0.0, 0.0)
    with pytest.raises(ValueError):
        weighted_l1_comparison(f, zero_f, params)


def test_ap_scale_invariance(rng):
    # power-of-two rescaling is exact in floating point end to end
    for _ in range(10):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng)
        base = ap_constant(w, 2.0, params)
        scaled = ap_constant(step_function(g, 4.0 * w.values), 2.0, params)
        assert scaled.ap_constant == base.ap_constant
        assert scaled.worst_cube == base.worst_cube
        odd = ap_constant(step_function(g, 3.0 * w.values), 2.5, params)
        assert odd.ap_constant == pytest.approx(
            ap_constant(w, 2.5, params).ap_constant, rel=1e-11
        )


def test_maximal_pointwise_domination(rng):
    for _ in range(15):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng)
        a1 = a1_constant(w, params).ap_constant
        mw = maximal_function(w, params)
        assert np.all(mw.values <= a1 * w.values * (1 + 1e-12))


def test_power_weight_scaling_ratio(rng):
    g = build_grid(1, 3, 1.0)
    params = ContentParams(delta=0.9)
    gv = rng.exponential(size=g.num_cells)
    one = power_maximal_weight(step_function(g, gv), 0.5, params)
    four = power_maximal_weight(step_function(g, 4.0 * gv), 0.5, params)
    assert four.values == pytest.approx(2.0 * one.values, rel=1e-14)


def test_reverse_holder_probe_records_finite_constant(rng):
    # higher-integrability probe: sup over cubes of the (1+gamma)-mean over
    # the 1-mean of w; recorded for some gamma in the ladder, never asserted
    # against a universal bound
    for _ in range(10):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        w = random_positive_weight(g, rng, spread=0.5)
        recorded = None
        for gamma in (2.0**-k for k in range(0, 11)):
            worst = 0.0
            cubes = enumerate_cubes(g, CubeFamilyPolicy("dyadic"))
            for hi, lo in cube_averages(g, [w.values ** (1.0 + gamma), w.values], cubes, params):
                worst = max(worst, hi ** (1.0 / (1.0 + gamma)) / lo)
            if np.isfinite(worst):
                recorded = (gamma, worst)
                break
        assert recorded is not None
        assert recorded[1] > 0


def test_weighted_l1_trivial_and_hand_cases():
    g = build_grid(1, 2, 4.0)
    params = ContentParams(delta=1.0)
    w = step_function(g, np.array([1.0, 1.0, 4.0, 4.0]))
    ones = step_function(g, np.ones(4))
    indicator = step_function(g, np.ones(4))
    lhs, mid = weighted_l1_comparison(indicator, w, params)
    assert lhs == pytest.approx(mid, rel=1e-12)  # f constant: both collapse to w(root)
    f = step_function(g, np.array([2.0, 0.0, 0.0, 0.0]))
    lhs_u, mid_u = weighted_l1_comparison(f, ones, params)
    assert lhs_u == pytest.approx(2.0, abs=1e-12)
    assert mid_u == pytest.approx(2.0, abs=1e-12)
    lhs_h, mid_h = weighted_l1_comparison(f, w, params)
    # by hand: both sides collapse to 2 * (w-content of cell 0) = 2
    assert lhs_h == pytest.approx(2.0, abs=1e-12)
    assert mid_h == pytest.approx(2.0, abs=1e-12)


def test_cube_averages_batches_consistently(rng):
    g = random_grid(rng)
    params = random_params(rng, g.n)
    arrays = [rng.exponential(size=g.num_cells) for _ in range(3)]
    root = CubeSpec((0,) * g.n, g.shape[0])
    batch = cube_averages(g, arrays, [root], params)[0]
    norm = cube_content(g, root, params)
    for k, arr in enumerate(arrays):
        region = cube_set(g, root)
        want = choquet(step_function(g, arr), region, params) / norm
        assert batch[k] == pytest.approx(want, rel=1e-12)
    ones = cube_averages(g, [np.ones(g.num_cells)], [root], params)[0, 0]
    assert ones == pytest.approx(1.0, rel=1e-13)


def test_ap_product_below_one_raises_invariant_violation(monkeypatch):
    # Choquet-Hoelder keeps every cube's A_p product >= 1; force a broken
    # average and the check must fire (it is not an assert, so -O keeps it)
    g = build_grid(1, 2, 1.0)
    w = step_function(g, np.ones(g.num_cells))
    monkeypatch.setattr(
        capbmo.weights,
        "cube_averages",
        lambda grid, arrays, cubes, params: np.full((len(cubes), len(arrays)), 0.5),
    )
    with pytest.raises(InvariantViolation) as err:
        ap_constant(w, 2.0, ContentParams(delta=1.0))
    assert not isinstance(err.value, ValueError)
    assert err.value.witness == {
        "cube": "0:4", "product": 0.25, "avg_w": 0.5, "avg_dual": 0.5, "p": 2.0
    }
