import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import capbmo.content
from capbmo.choquet import signed_average
from capbmo.content import ContentParams, masked_integral_many
from capbmo.fixtures import log_abs_function, two_cell_example
from capbmo.grid import CubeFamilyPolicy, CubeSpec, build_grid, enumerate_cubes, step_function
from capbmo.oscillation import (
    bmo_seminorm,
    blo_seminorm,
    gamma_interval,
    oscillation_objective,
    weighted_bmo_seminorm,
)
from conftest import random_grid, random_params


def dense_minimum(f, w, q, Q, params, cands):
    F = [oscillation_objective(f, w, q, Q, params, float(c)) for c in cands]
    return min(F)


def breakpoint_lattice(values, weights):
    """All kink candidates of c -> integral |f - c| w: the cell values and the
    pairwise weighted crossings. The true q = 1 minimum sits on this lattice."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    cands = [v]
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            cands.append(np.array([(w[i] * v[i] + w[j] * v[j]) / (w[i] + w[j])]))
            if w[i] != w[j]:
                cands.append(np.array([(w[i] * v[i] - w[j] * v[j]) / (w[i] - w[j])]))
    out = np.unique(np.concatenate(cands))
    return out[np.isfinite(out)]


def test_gamma_interval_exact_path_matches_breakpoint_scan(rng):
    for _ in range(60):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, np.round(rng.normal(size=g.num_cells), 1))
        root = CubeSpec((0,) * g.n, g.shape[0])
        gi = gamma_interval(f, None, 1.0, root, params)
        cands = breakpoint_lattice(f.values, np.ones(g.num_cells))
        want = dense_minimum(f, None, 1.0, root, params, cands)
        assert gi.min_value == pytest.approx(want, rel=1e-10, abs=1e-12)
        # the reported plateau really is level {F <= min + tol}
        mid = 0.5 * (gi.lo + gi.hi)
        assert oscillation_objective(f, None, 1.0, root, params, mid) <= want + gi.tol * 1.01
        if gi.hi - gi.lo > 4 * gi.tol:
            outside = gi.hi + max(1.0, abs(gi.hi)) * 1e-6
            assert oscillation_objective(f, None, 1.0, root, params, outside) > want + gi.tol


def test_gamma_interval_ternary_path_matches_breakpoint_scan(rng):
    g = build_grid(1, 6, 1.0)  # 64 distinct values forces the search path
    params = ContentParams(delta=0.8)
    for _ in range(5):
        f = step_function(g, rng.normal(size=g.num_cells))
        root = CubeSpec((0,), 64)
        gi = gamma_interval(f, None, 1.0, root, params, tol=1e-10)
        cands = breakpoint_lattice(f.values, np.ones(g.num_cells))
        want = dense_minimum(f, None, 1.0, root, params, cands)
        assert gi.min_value == pytest.approx(want, abs=1e-7)
        assert gi.min_value >= want - 1e-12


def test_gamma_interval_weighted_and_q2(rng):
    for _ in range(40):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        w = step_function(g, rng.uniform(0.2, 3.0, size=g.num_cells))
        root = CubeSpec((0,) * g.n, g.shape[0])
        gi1 = gamma_interval(f, w, 1.0, root, params)
        cands = breakpoint_lattice(f.values, w.values)
        want = dense_minimum(f, w, 1.0, root, params, cands)
        assert gi1.min_value == pytest.approx(want, rel=1e-9, abs=1e-11)
        gi2 = gamma_interval(f, w, 2.0, root, params, tol=1e-10)
        lin = np.linspace(f.values.min(), f.values.max(), 2001)
        dense2 = dense_minimum(f, w, 2.0, root, params, lin)
        assert gi2.min_value <= dense2 + 1e-9
        assert gi2.min_value >= dense2 - 1e-3  # dense scan has grid resolution error


def test_two_cell_objective_closed_form():
    g, f = two_cell_example()
    root = CubeSpec((0,), 2)
    for delta in (0.25, 0.5, 1.0):
        params = ContentParams(delta=delta)
        # on [0, 1]: F(c) = c + (2 - 2c) / 2**delta
        for c in (0.0, 0.3, 1.0):
            want = c + (2 - 2 * c) / 2**delta
            got = oscillation_objective(f, None, 1.0, root, params, c)
            assert got == pytest.approx(want, abs=1e-12)
        gi = gamma_interval(f, None, 1.0, root, params)
        assert gi.min_value == pytest.approx(1.0, abs=1e-9)
    # delta = 1 makes F flat at height 1 on all of [0, 2]
    gi = gamma_interval(f, None, 1.0, root, ContentParams(delta=1.0))
    assert gi.lo == pytest.approx(0.0, abs=1e-6)
    assert gi.hi == pytest.approx(2.0, abs=1e-6)
    # delta = 0.5 pins the minimizer at the crossing point c = 1
    gi = gamma_interval(f, None, 1.0, root, ContentParams(delta=0.5))
    assert gi.lo == pytest.approx(1.0, abs=1e-6)
    assert gi.hi == pytest.approx(1.0, abs=1e-6)


def test_seminorms_on_two_cell_example():
    g, f = two_cell_example()
    for delta in (0.25, 0.5, 1.0):
        params = ContentParams(delta=delta)
        bmo = bmo_seminorm(f, params)
        assert bmo.value == pytest.approx(1.0, abs=1e-9)
        assert bmo.worst_cube == CubeSpec((0,), 2)
        blo = blo_seminorm(f, params)
        assert blo.value == pytest.approx(2.0 / 2.0**delta, abs=1e-12)
        assert set(bmo.per_cube_centers) == {
            CubeSpec((0,), 2),
            CubeSpec((0,), 1),
            CubeSpec((1,), 1),
        }


def test_signed_average_centering_dominates_optimal():
    g, f = two_cell_example()
    params = ContentParams(delta=0.5)
    opt = bmo_seminorm(f, params, centering="inf_c")
    avg = bmo_seminorm(f, params, centering="f_Q_delta")
    assert avg.value >= opt.value - 1e-12
    with pytest.raises(ValueError):
        bmo_seminorm(f, params, centering="median")


def test_blo_exceeds_distance_to_minimum_and_grows_with_q(rng):
    for _ in range(40):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        b1 = blo_seminorm(f, params, q=1.0)
        b2 = blo_seminorm(f, params, q=2.0)
        assert b2.value >= b1.value * (1 - 1e-11)
        # centering at esinf can only increase the mean oscillation
        assert b1.value >= bmo_seminorm(f, params).value * (1 - 1e-11)


def test_weighted_seminorm_with_unit_weight_matches_unweighted(rng):
    for _ in range(25):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        ones = step_function(g, np.ones(g.num_cells))
        ww = weighted_bmo_seminorm(f, ones, 1.0, params)
        plain = bmo_seminorm(f, params)
        assert ww.value == pytest.approx(plain.value, rel=1e-10, abs=1e-12)


def test_lattice_family_dominates_dyadic(rng):
    for _ in range(20):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(size=g.num_cells))
        dy = bmo_seminorm(f, params, policy=CubeFamilyPolicy("dyadic"))
        lat = bmo_seminorm(f, params, policy=CubeFamilyPolicy("lattice"))
        assert lat.value >= dy.value - 1e-12


def test_constant_function_has_zero_seminorms(grid_2d):
    params = ContentParams(delta=1.3)
    f = step_function(grid_2d, np.full(grid_2d.num_cells, 2.7))
    assert bmo_seminorm(f, params).value == 0.0
    assert blo_seminorm(f, params).value == 0.0
    gi = gamma_interval(f, None, 1.0, CubeSpec((0, 0), 4), params)
    assert gi.lo <= 2.7 <= gi.hi
    assert gi.min_value == 0.0


def test_validation_errors(grid_1d):
    f = step_function(grid_1d, np.arange(grid_1d.num_cells, dtype=float))
    params = ContentParams(delta=0.5)
    root = CubeSpec((0,), grid_1d.shape[0])
    with pytest.raises(ValueError):
        gamma_interval(f, None, 0.0, root, params)
    with pytest.raises(ValueError):
        gamma_interval(f, None, 1.0, root, params, tol=0.0)
    bad_w = step_function(grid_1d, np.zeros(grid_1d.num_cells))
    with pytest.raises(ValueError):
        gamma_interval(f, bad_w, 1.0, root, params)
    with pytest.raises(ValueError):
        weighted_bmo_seminorm(f, bad_w, 1.0, params)
    with pytest.raises(ValueError):
        blo_seminorm(f, params, q=-1.0)


def test_sub_half_q_uses_dense_fallback(grid_1d):
    f = step_function(grid_1d, np.arange(grid_1d.num_cells, dtype=float))
    gi = gamma_interval(f, None, 0.5, CubeSpec((0,), grid_1d.shape[0]), ContentParams(delta=1.0))
    assert gi.used_fallback
    assert gi.min_value > 0


# ------------------------------------------------- family = loop of one-cube calls

FAMILIES = [
    CubeFamilyPolicy("dyadic"),
    CubeFamilyPolicy("lattice"),
    CubeFamilyPolicy("sampled", sample_count=6, rng_seed=5),
]
# grid depth per dimension: big enough for cubes whose frames differ
# within one frame depth, small enough for per-cube loops
_DEPTH = {1: 3, 2: 2, 3: 2}


def as_tuple(report):
    return report.value, report.worst_cube, list(report.per_cube_centers.items())


def one_cube_loop(cubes, value_and_center):
    """A seminorm report as a loop of one-cube calls: the first cube with
    the largest value, and every centre in family order."""
    best, best_val, centers = None, 0.0, {}
    for Q in cubes:
        val, center = value_and_center(Q)
        if best is None or val > best_val:
            best, best_val = Q, val
        centers[Q] = center
    return best_val, best, list(centers.items())


def one_cube_seminorms(f, w, P, cubes):
    """(name, family call, one-cube value and centre) for every seminorm kind."""

    def gamma(weight, q):
        def one(Q):
            gi = gamma_interval(f, weight, q, Q, P)
            return gi.min_value ** (1.0 / q), 0.5 * (gi.lo + gi.hi)

        return one

    def signed(Q):
        c = signed_average(f, Q, P).value
        return oscillation_objective(f, None, 1.0, Q, P, c), c

    def esinf(q):
        def one(Q):
            c = float(f.values[Q.mask(f.grid)].min())
            return oscillation_objective(f, None, q, Q, P, c) ** (1.0 / q), c

        return one

    policy_cases = [
        ("bmo", lambda pol: bmo_seminorm(f, P, pol), gamma(None, 1.0)),
        ("bmo_signed", lambda pol: bmo_seminorm(f, P, pol, centering="f_Q_delta"), signed),
        ("blo_q1", lambda pol: blo_seminorm(f, P, pol, q=1.0), esinf(1.0)),
        ("blo_q2", lambda pol: blo_seminorm(f, P, pol, q=2.0), esinf(2.0)),
    ]
    for q in (0.5, 1.0, 2.0):
        policy_cases.append(
            (f"weighted_q{q}", lambda pol, q=q: weighted_bmo_seminorm(f, w, q, P, pol), gamma(w, q))
        )
    return policy_cases


halves = st.integers(-6, 6).map(lambda k: k / 2)
positive_halves = st.integers(1, 6).map(lambda k: k / 2)


@pytest.mark.parametrize("delta", [1.0, 0.5])
@pytest.mark.parametrize("policy", FAMILIES, ids=lambda p: p.kind)
@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_family_seminorms_equal_one_cube_calls(n, policy, delta, data):
    g = build_grid(n, _DEPTH[n], 2.0)
    cells = g.num_cells
    # few distinct values: constant cubes and the exact q = 1 path; the
    # weighted q = 1 pairs still outnumber the exact-path limit on 3-D roots
    f = step_function(g, data.draw(st.lists(halves, min_size=cells, max_size=cells)))
    w = step_function(g, data.draw(st.lists(positive_halves, min_size=cells, max_size=cells)))
    P = ContentParams(delta=delta)
    cubes = enumerate_cubes(g, policy)
    for name, family, one in one_cube_seminorms(f, w, P, cubes):
        assert as_tuple(family(policy)) == one_cube_loop(cubes, one), name


def test_seminorms_match_recorded_values():
    """Exact values recorded while every cube still ran its own searches;
    drift in the searches the one-cube and family calls share shows here."""
    f = log_abs_function(2, 4)
    root = CubeSpec((0, 0), 16)
    P1, P5 = ContentParams(delta=1.0), ContentParams(delta=0.5)
    r = bmo_seminorm(f, P1)
    assert (r.value.hex(), r.worst_cube) == ("0x1.22e02f1eb0449p+0", root)
    assert r.per_cube_centers[root].hex() == "-0x1.3305f478f030ap-1"
    r = bmo_seminorm(f, P5, centering="f_Q_delta")
    assert (float(r.value).hex(), r.worst_cube) == ("0x1.5aa16394d481fp+0", root)
    assert float(r.per_cube_centers[root]).hex() == "-0x1.126df04e89d43p+0"
    r = blo_seminorm(f.with_values(-f.values), P1, q=2.0)
    assert (r.value.hex(), r.worst_cube) == ("0x1.f0159c9c6f41ep+0", root)

    g1 = build_grid(1, 3, 1.0)
    f1 = step_function(g1, [0.0, 3.0, 1.0, -2.0, 0.5, 0.5, 4.0, -1.0])
    w1 = step_function(g1, [1.0, 2.0, 0.5, 1.5, 3.0, 1.0, 0.25, 2.0])
    lattice = CubeFamilyPolicy("lattice")
    r = weighted_bmo_seminorm(f1, w1, 0.5, P5, lattice)
    assert (r.value.hex(), r.worst_cube) == ("0x1.05397829cbc15p+1", CubeSpec((0,), 4))
    r = weighted_bmo_seminorm(f1, w1, 2.0, P1, lattice)
    assert (r.value.hex(), r.worst_cube) == ("0x1.2852fb49899ccp+1", CubeSpec((1,), 3))
    gi = gamma_interval(f1, w1, 2.0, CubeSpec((0,), 8), P5)
    assert (gi.lo.hex(), gi.hi.hex(), gi.min_value.hex()) == (
        "0x1.395d249031aecp-2",
        "0x1.395d258031aecp-2",
        "0x1.e6d11d5e1f783p+1",
    )


def test_minimal_cell_budgets_give_identical_results(monkeypatch, rng):
    """One job per integrator call and one threshold row per tree
    reduction put a chunk boundary everywhere; nothing may move."""
    g = build_grid(2, 2, 1.0)
    f = step_function(g, np.round(rng.normal(size=g.num_cells), 1))
    w = step_function(g, rng.uniform(0.5, 2.0, size=g.num_cells))
    P = ContentParams(delta=0.7)
    lattice = CubeFamilyPolicy("lattice")
    jobs = [(np.abs(f.values - c) * w.values, rng.random(g.num_cells) < 0.6) for c in (-1.0, 0.0, 0.5)]

    def run():
        return (
            masked_integral_many(g, jobs, P).tolist(),
            as_tuple(bmo_seminorm(f, P, lattice)),
            as_tuple(bmo_seminorm(f, P, lattice, centering="f_Q_delta")),
            as_tuple(weighted_bmo_seminorm(f, w, 2.0, P)),
        )

    want = run()
    monkeypatch.setattr(capbmo.content, "_ROW_CELLS", 1)
    monkeypatch.setattr(capbmo.content, "_JOB_CELLS", 1)
    assert run() == want
