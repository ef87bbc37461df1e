import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capbmo.content
import capbmo.oscillation
import capbmo.verify
from capbmo.choquet import signed_average, signed_averages
from capbmo.content import ContentParams, masked_integral_many
from capbmo.fixtures import log_abs_function, two_cell_example
from capbmo.grid import CubeFamilyPolicy, CubeSpec, build_grid, enumerate_cubes, step_function
from capbmo.oscillation import (
    _gamma_intervals,
    _piece_bounds,
    blo_values,
    bmo_seminorm,
    blo_seminorm,
    gamma_interval,
    oscillation_objective,
    weighted_bmo_seminorm,
)
from conftest import random_grid, random_params


def dense_minimum(f, w, q, Q, params, cands):
    """min of F over the candidates, all of them in one objective_oracle call."""
    return float(np.min(objective_oracle(f, w, q, Q, params, np.asarray(cands, dtype=float))))


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


def test_gamma_interval_piecewise_path_matches_breakpoint_scan(rng):
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


def objective_oracle(f, w, q, Q, params, centres):
    """F at every centre through masked_integral_many: one job per centre
    and one for the normaliser w(Q), none of them through the search."""
    mask = Q.mask(f.grid)
    wv = np.ones(f.grid.num_cells) if w is None else w.values
    jobs = [(np.abs(f.values - c) ** q * wv, mask) for c in centres] + [(wv, mask)]
    raw = masked_integral_many(f.grid, jobs, params)
    return raw[:-1] / raw[-1]


eighths = st.integers(-24, 24).map(lambda k: k / 8)
quarters = st.integers(1, 12).map(lambda k: k / 4)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=8)
@given(data=st.data())
def test_piecewise_search_matches_breakpoint_and_dense_oracle(n, weighted, q, data):
    """The search's minimum is at most F at every breakpoint (the pairwise
    crossings of w**(1/q)|v - c|, exact for q = 1) and on a dense grid, and
    its plateau is {F <= min + tol} to rounding, ties between cells included.
    The q = 1 scan of small cubes is switched off, so every cube searches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capbmo.oscillation, "_SCAN_PAIRS", 0)
        check_against_oracle(n, weighted, q, data)


def check_against_oracle(n, weighted, q, data):
    g = build_grid(n, {1: 3, 2: 2, 3: 1}[n], 1.0)
    cells = g.num_cells
    f = step_function(g, data.draw(st.lists(eighths, min_size=cells, max_size=cells)))
    w = None
    if weighted:
        # a constant weight other than 1 rounds crossings unlike unit weights
        w = step_function(g, data.draw(st.one_of(
            st.lists(quarters, min_size=cells, max_size=cells),
            quarters.map(lambda x: [x] * cells),
        )))
    P = ContentParams(delta=data.draw(st.sampled_from([0.4, 0.75, 1.0])) * n)
    root = CubeSpec.root(g)
    scale = gamma_interval(f, w, q, root, P).min_value or 1.0
    tol = 1e-13 * scale
    gi = gamma_interval(f, w, q, root, P, tol=tol)

    v = f.values
    a = (np.ones(cells) if w is None else w.values) ** (1.0 / q)
    i, j = np.triu_indices(cells, k=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = np.concatenate([(a[i] * v[i] + a[j] * v[j]) / (a[i] + a[j]),
                                    (a[i] * v[i] - a[j] * v[j]) / (a[i] - a[j])])
    cands = np.concatenate([v, crossings[np.isfinite(crossings)],
                            np.linspace(v.min() - 0.5, v.max() + 0.5, 301)])
    F = objective_oracle(f, w, q, root, P, cands)
    assert gi.min_value <= F.min() * (1 + 1e-12) + 1e-15

    thr = gi.min_value + tol
    slack = 1e-15 * max(thr, 1.0)
    centre = 0.5 * (gi.lo + gi.hi)
    out_lo = gi.lo - 1e-6 * (1 + abs(gi.lo))
    out_hi = gi.hi + 1e-6 * (1 + abs(gi.hi))
    at_centre, at_lo, at_hi, below, above = objective_oracle(
        f, w, q, root, P, [centre, gi.lo, gi.hi, out_lo, out_hi]
    )
    assert at_centre == pytest.approx(gi.min_value, rel=1e-12, abs=1e-15)
    assert at_lo <= thr + slack and at_hi <= thr + slack
    assert below > thr and above > thr


def test_search_keeps_cells_tied_at_the_centre_apart(monkeypatch):
    """Cells where f equals a probe's centre tie at zero. With different
    weights they must stay separate levels of the chain, or the piece's sum
    misreads F beside the centre. Here the minimiser is c = 0, where cells
    of weight 0.5 and 2.5 meet."""
    monkeypatch.setattr(capbmo.oscillation, "_SCAN_PAIRS", 0)
    g = build_grid(2, 2, 1.0)
    f = step_function(g, [-0.75, 1, 0.75, -0.25, -0.75, 1, 0, -0.5,
                          0.25, -0.75, -1, 0.75, 0, 0.25, 1, -0.5])
    w = step_function(g, [1, 0.5, 2.5, 1, 2.5, 2, 0.5, 1.5, 2.5, 1, 1.5, 1.5, 2.5, 1, 1, 0.5])
    root, P = CubeSpec.root(g), ContentParams(delta=2.0)
    gi = gamma_interval(f, w, 1.0, root, P)
    assert gi.lo <= 0.0 <= gi.hi and gi.hi - gi.lo < 1e-6
    assert gi.min_value == pytest.approx(oscillation_objective(f, w, 1.0, root, P, 0.0), rel=1e-15)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("cells", [[2.04, -2.56], [0.55, -0.51]])
def test_piece_ends_at_a_crossing_rounded_off_the_centre(cells, q):
    """Both cells weigh 3, so they tie at the minimiser, their midpoint,
    but their computed crossing can round an ulp off it. A probe's chain
    there holds on one side only, so its piece must not reach the other,
    or a plateau edge lands far from the minimiser."""
    g = build_grid(1, 1, 1.0)
    f = step_function(g, cells)
    w = step_function(g, [3.0, 3.0])
    root, P = CubeSpec.root(g), ContentParams(delta=0.7)
    gi = gamma_interval(f, w, q, root, P)
    thr = gi.min_value + gi.tol
    assert gi.lo <= 0.5 * sum(cells) <= gi.hi and gi.hi - gi.lo < 1e-6
    for c in (gi.lo, gi.hi):
        assert oscillation_objective(f, w, q, root, P, c) <= thr * (1 + 1e-15)


def test_gamma_interval_never_builds_all_pairwise_crossings():
    """2,048 distinct (value, weight) pairs have about 2.1M pairwise
    crossings; the search reads only adjacent levels of each chain."""
    g = build_grid(1, 11, 1.0)
    rng = np.random.default_rng(11)
    f = step_function(g, rng.normal(size=g.num_cells))
    w = step_function(g, rng.uniform(0.5, 2.0, size=g.num_cells))
    assert len(np.unique(f.values + 1j * w.values)) == 2048
    tracemalloc.start()
    try:
        gi = gamma_interval(f, w, 2.0, CubeSpec.root(g), ContentParams(delta=0.6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert gi.lo <= gi.hi and not gi.used_fallback


def test_bmo_search_uses_few_evaluations():
    """Every cube of the 32x32 ln|x| family needs at most 64 integrals,
    its normaliser included."""
    f = log_abs_function(2, 5)
    cubes = enumerate_cubes(f.grid, CubeFamilyPolicy())
    evaluations = _gamma_intervals(f, None, 1.0, cubes, ContentParams(delta=1.0))[3]
    assert evaluations.max() <= 64
    assert evaluations.min() == 0  # constant cubes need none


def test_seminorm_reports_whether_every_centre_is_exact(rng):
    g = build_grid(1, 3, 1.0)
    f = step_function(g, rng.normal(size=g.num_cells))
    w = step_function(g, rng.uniform(0.5, 2.0, size=g.num_cells))
    P = ContentParams(delta=0.7)
    assert not weighted_bmo_seminorm(f, w, 0.5, P).exact
    assert weighted_bmo_seminorm(f, w, 1.5, P).exact
    assert bmo_seminorm(f, P).exact and blo_seminorm(f, P).exact


def test_family_paths_build_no_per_cube_objects(monkeypatch):
    """A family's plateaus and signed averages stay arrays; only the
    one-cube entry points gamma_interval and signed_average build result
    objects."""
    def refuse(*args, **kwargs):
        raise AssertionError("a family path built a per-cube result object")
    monkeypatch.setattr(capbmo.oscillation, "GammaInterval", refuse)
    monkeypatch.setattr(sys.modules["capbmo.choquet"], "SignedAverage", refuse)
    f = log_abs_function(2, 3)
    w = step_function(f.grid, np.exp(np.random.default_rng(3).normal(size=f.grid.num_cells)))
    P = ContentParams(delta=1.0)
    for policy in (CubeFamilyPolicy("dyadic"), CubeFamilyPolicy("lattice")):
        for centering in ("inf_c", "f_Q_delta"):
            bmo_seminorm(f, P, policy, centering)
    blo_seminorm(f, P)
    for q in (0.5, 1.0, 2.0):
        weighted_bmo_seminorm(f, w, q, P)
    capbmo.verify.verify_jn("bmo", f, params=P)


def test_kinks_match_each_chain_alone():
    """_kinks pads each power-of-two class of chain length on its own.
    Every output must be the float of a stable sort and 1-D cumsums of its
    chain alone; lengths 1 to 300 hold each 2**k up to 256 and its
    neighbours, in shuffled order, and v has ties."""
    rng = np.random.default_rng(7)
    bounds = np.concatenate([[0], np.cumsum(rng.permutation(np.arange(1, 301)))])
    v = rng.integers(-20, 21, size=bounds[-1]) * 0.25
    s = rng.uniform(0.0, 1.0, size=bounds[-1])
    want = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        order = np.argsort(v[lo:hi], kind="stable")
        cv, cs = v[lo:hi][order], s[lo:hi][order]
        upto, weighted = np.cumsum(cs), np.cumsum(cs * cv)
        right = 2.0 * upto - upto[-1]
        want.append([cv, cv * right + weighted[-1] - 2.0 * weighted, right - 2.0 * cs, right])
    got = np.stack(capbmo.oscillation._kinks(v, s, bounds))
    assert got.tobytes() == np.concatenate(want, axis=1).tobytes()


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
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tol"):
            gamma_interval(f, None, 1.0, root, params, tol=tol)


@pytest.mark.parametrize("cells", [64, 4])
def test_weight_on_another_grid_is_rejected(cells):
    """A weight on a grid of another size is neither read at f's flat
    indices nor left to fail on an index."""
    g = build_grid(2, 2, 1.0)
    f = step_function(g, np.arange(16, dtype=float))
    other = build_grid(2, 3 if cells == 64 else 1, 1.0)
    w = step_function(other, np.ones(cells))
    P, root = ContentParams(delta=1.0), CubeSpec((0, 0), 4)
    for call in (lambda: weighted_bmo_seminorm(f, w, 1.0, P),
                 lambda: gamma_interval(f, w, 2.0, root, P),
                 lambda: oscillation_objective(f, w, 1.0, root, P, 3.0)):
        with pytest.raises(ValueError, match="weight lives on a different grid"):
            call()


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_objective_rejects_a_non_finite_centre(c):
    g = build_grid(2, 2, 1.0)
    f = step_function(g, np.arange(16, dtype=float))
    with pytest.raises(ValueError, match="centre"):
        oscillation_objective(f, None, 1.0, CubeSpec((0, 0), 4), ContentParams(delta=1.0), c)


def test_a_q_for_which_f_overflows_is_rejected():
    """A search on f = 0..15 probes up to twice its span from a value of
    f, and 30**q * max w overflows for q = 250 and 300 (30**250 > 1.8e308),
    so the entry points raise instead of searching on inf and NaN; at
    q = 200 they keep the bits they gave before the check, and an
    objective centre far outside [min f, max f] counts too."""
    g = build_grid(2, 2, 1.0)
    f, w = step_function(g, np.arange(16, dtype=float)), step_function(g, np.ones(16))
    P, root = ContentParams(delta=1.0), CubeSpec((0, 0), 4)
    for call in (lambda q: gamma_interval(f, w, q, root, P),
                 lambda q: weighted_bmo_seminorm(f, w, q, P),
                 lambda q: blo_seminorm(f, P, q=q)):
        for q in (250.0, 300.0):
            with pytest.raises(ValueError, match=f"q = {q} is too large"):
                call(q)
    gi = gamma_interval(f, w, 200.0, root, P)
    assert [gi.lo.hex(), gi.hi.hex(), gi.min_value.hex(), gi.evaluations] == [
        "0x1.dfffffffefd38p+2", "0x1.e0000000102c8p+2", "0x1.4cb59fd87aabep+580", 3]
    assert weighted_bmo_seminorm(f, w, 200.0, P).value.hex() == "0x1.de56de143c9d1p+2"
    assert blo_seminorm(f, P, q=200.0).value.hex() == "0x1.dcaf34da8e038p+3"
    assert oscillation_objective(f, w, 20.0, root, P, 1e10) > 0
    with pytest.raises(ValueError, match="too large"):
        oscillation_objective(f, w, 40.0, root, P, 1e10)


def test_sub_half_q_uses_dense_fallback(grid_1d):
    f = step_function(grid_1d, np.arange(grid_1d.num_cells, dtype=float))
    gi = gamma_interval(f, None, 0.5, CubeSpec((0,), grid_1d.shape[0]), ContentParams(delta=1.0))
    assert gi.used_fallback
    assert gi.min_value > 0


def test_dense_scan_pads_candidates_only_within_a_frame_depth(monkeypatch):
    """Each q < 1 scan takes cubes of one frame depth, so a cube's row of
    candidates is no wider than its depth's 2 * cells - 1: padding every
    row to the root's width would grow as cubes * num_cells."""
    g = build_grid(2, 3, 1.0)
    f = step_function(g, np.random.default_rng(4).permutation(g.num_cells).astype(float))
    cubes = enumerate_cubes(g, CubeFamilyPolicy("dyadic"))
    scan, seen = capbmo.oscillation._scan, []

    def spy(frames, f, w, q, which, cands, tol):
        seen.append((set(frames.depth[which].tolist()), cands.shape))
        return scan(frames, f, w, q, which, cands, tol)

    monkeypatch.setattr(capbmo.oscillation, "_scan", spy)
    _gamma_intervals(f, None, 0.5, cubes, ContentParams(delta=1.0))
    assert sorted(shape[0] for _, shape in seen) == [1, 4, 16]  # single cells are constant
    for (d,), (rows, width) in seen:
        assert width <= 2 * 4**d - 1


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


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_a_subnormal_slope_bisection_keeps_every_cube_its_own_bits(weighted):
    """At q = 1.5 one cube's first slope bisection finds a minimiser of
    exactly 0.0: it walks its lower end up through the subnormals, 1,075
    halvings, while the four other chains of that lockstep end after
    about 55. Every cube's seminorm centre, and the seminorm, must still
    be the floats of its own one-cube search."""
    g = build_grid(2, 2, 2.0)
    f = step_function(g, [1.0, 1.0, 0.0, 1.0, 0.0, -2.0, 1.0, 0.0, 2.0, -1.0, 0.0, -1.0, 1.0, 2.0, -1.0, -2.0])
    w = step_function(g, [2.0, 2.0, 0.5, 2.0, 1.0, 1.0, 1.0, 0.5, 2.0, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5, 0.5]
                      if weighted else np.ones(16))
    P, q = ContentParams(delta=1.0), 1.5
    rep = weighted_bmo_seminorm(f, w, q, P)
    one = [gamma_interval(f, w if weighted else None, q, Q, P) for Q in rep.family]
    assert rep.centers.tolist() == [0.5 * (gi.lo + gi.hi) for gi in one]
    assert rep.value == max(gi.min_value ** (1.0 / q) for gi in one)


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
    assert (r.value.hex(), r.worst_cube) == ("0x1.2852fb49899cdp+1", CubeSpec((1,), 3))
    gi = gamma_interval(f1, w1, 2.0, CubeSpec((0,), 8), P5)
    assert (gi.lo.hex(), gi.hi.hex(), gi.min_value.hex()) == (
        "0x1.395d2485edd52p-2",
        "0x1.395d258e884d3p-2",
        "0x1.e6d11d5e1d3ecp+1",
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


# ------------------------------------- array searches against per-cube oracles


def scan_oracle(vals, wts, F_at, tol):
    """The q = 1 breakpoint scan of one cube, written out scalar by scalar:
    (lo, hi, min_value, evaluations) with F at every candidate from F_at."""
    pairs = np.unique(vals + 1j * wts)
    v, w = pairs.real, pairs.imag
    cands = list(v)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if w[i] != w[j]:
                cands.append((w[i] * v[i] - w[j] * v[j]) / (w[i] - w[j]))
            cands.append((w[i] * v[i] + w[j] * v[j]) / (w[i] + w[j]))
    b = np.unique(np.array(cands))
    b = b[np.isfinite(b)]
    c = np.concatenate([[b[0] - 1.0], b, [b[-1] + 1.0]])
    F = F_at(c)
    min_value = float(F.min())
    thr = min_value + tol
    ok = np.flatnonzero(F <= thr)

    def edge(k, side):
        # F is linear between candidates; beyond the end ones it follows
        # the end segment unless that segment does not fall away from thr
        a = k + side
        if 0 <= a < len(F):
            frac = (thr - F[a]) / (F[k] - F[a])
            return float(c[a] + frac * (c[k] - c[a]))
        slope = (F[k] - F[k - side]) / (c[k] - c[k - side])
        return float(c[k]) if slope * side <= 0 else float(c[k] + (thr - F[k]) / slope)

    return edge(ok[0], -1), edge(ok[-1], 1), min_value, len(c) + 1


def values_oracle(f, cubes, P, centres, q=1.0):
    """F at one centre per cube, 0 where f equals the centre on the whole cube."""
    out = []
    for Q, c in zip(cubes, centres):
        vals = f.values[Q.mask(f.grid)]
        out.append(0.0 if np.all(vals == c) else float(objective_oracle(f, None, q, Q, P, [c])[0]))
    return out


signed_eighths = st.one_of(st.just(-0.0), eighths)


def dense_oracle(vals, F_at, tol):
    """The q < 1 dense scan of one cube: F at each distinct value and each
    midpoint of adjacent values; the plateau runs from the first to the
    last of them within tol of the minimum. Where both signs of zero
    occur, the zero candidate is 0.0."""
    if np.any((vals == 0) & ~np.signbit(vals)):
        vals = vals + 0.0
    d = np.unique(vals)
    c = np.unique(np.concatenate([d, 0.5 * (d[1:] + d[:-1])]))
    F = F_at(c)
    keep = c[F <= F.min() + tol]
    return keep[0], keep[-1], F.min(), len(c) + 1


@pytest.mark.parametrize("policy", FAMILIES, ids=lambda p: p.kind)
@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=6)
@given(data=st.data())
def test_array_searches_match_per_cube_oracle(n, policy, data):
    """Constant cubes, the q = 1 scan, the q < 1 dense scan and F at one
    centre per cube run as array operations over each chunk of cubes;
    each result must be the float a per-cube computation gives, on the
    same frames."""
    g = build_grid(n, {1: 4, 2: 2, 3: 2}[n], 1.0)
    cells = g.num_cells
    pairs = data.draw(st.sampled_from([None, 10, 11]), label="pairs")
    if pairs is None:
        # ties, -0.0 next to 0.0 and constant cubes from a small pool
        pool = data.draw(st.lists(signed_eighths, min_size=1, max_size=6), label="pool")
        f = step_function(g, data.draw(st.lists(st.sampled_from(pool), min_size=cells, max_size=cells)))
        w = step_function(g, data.draw(st.lists(quarters, min_size=cells, max_size=cells)))
    else:
        # the root holds exactly `pairs` (value, weight) pairs: the scan limit and one past it
        pool = data.draw(st.lists(signed_eighths, min_size=pairs, max_size=pairs,
                                  unique_by=lambda x: x + 0.0), label="pool")
        weights = data.draw(st.lists(quarters, min_size=pairs, max_size=pairs), label="weights")
        where = np.array(data.draw(st.permutations(range(cells)), label="layout")) % pairs
        f = step_function(g, np.array(pool)[where])
        w = step_function(g, np.array(weights)[where])
    P = ContentParams(delta=data.draw(st.sampled_from([0.5, 1.0])) * n)
    cubes = enumerate_cubes(g, policy)
    tol = 1e-9

    for weight, q in itertools.product((None, w), (1.0, 0.5)):
        plateaus = _gamma_intervals(f, weight, q, cubes, P)
        for Q, got in zip(cubes, plateaus.T.tolist()):
            vals = f.values[Q.mask(g)]
            wts = np.ones(vals.size) if weight is None else weight.values[Q.mask(g)]
            F_at = lambda c: objective_oracle(f, weight, q, Q, P, c)  # noqa: E731
            if vals.min() == vals.max():
                half = tol ** (1.0 / q)
                want = (vals[0] - half, vals[0] + half, 0.0, 0)
            elif q < 1.0:
                want = dense_oracle(vals, F_at, tol)
            elif len(np.unique(vals + 1j * wts)) <= capbmo.oscillation._SCAN_PAIRS:
                want = scan_oracle(vals, wts, F_at, tol)
            else:
                continue  # the piecewise search: test_piecewise_search_matches_...
            assert [float(x).hex() for x in got[:3]] == [float(x).hex() for x in want[:3]], Q
            assert got[3] == want[3], Q
        # the one-cube entry point reads the family's plateau and flags the dense scan
        root = CubeSpec.root(g)
        gi = gamma_interval(f, weight, q, root, P)
        got = _gamma_intervals(f, weight, q, [root], P)[:, 0].tolist()
        assert [gi.lo, gi.hi, gi.min_value, gi.evaluations] == got
        assert gi.used_fallback == (q < 1.0 and f.values.min() != f.values.max())

    centres = signed_averages(f, cubes, P)[0]
    want = values_oracle(f, cubes, P, centres)
    got = capbmo.oscillation._values_at(f, None, 1.0, P, cubes, centres)[0]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    report = bmo_seminorm(f, P, policy, centering="f_Q_delta")
    assert report.value.hex() == max(want).hex()
    for q in (1.0, 2.0):
        values, esinf = blo_values(f, cubes, P, q)
        mins = [float(f.values[Q.mask(g)].min()) for Q in cubes]
        assert esinf.tolist() == mins
        want = [v ** (1.0 / q) for v in values_oracle(f, cubes, P, mins, q)]
        assert [x.hex() for x in values] == [x.hex() for x in want]
        assert blo_seminorm(f, P, policy, q=q).value.hex() == max(want).hex()


@pytest.mark.parametrize("zeros,want", [((-0.0, 0.0), "0x0.0p+0"), ((-0.0,), "-0x0.0p+0"), ((0.0,), "0x0.0p+0")])
def test_dense_scan_zero_keeps_its_sign_unless_both_occur(zeros, want):
    """The q < 1 plateau of fifteen zeros and a one is the zero candidate
    alone; its sign does not depend on where the zeros lie."""
    g = build_grid(1, 4, 1.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = step_function(g, rng.permutation(np.array([*(zeros * 15)[:15], 1.0])))
        gi = gamma_interval(f, None, 0.5, CubeSpec.root(g), ContentParams(delta=0.7))
        assert (gi.lo.hex(), gi.hi.hex()) == (want, want)


def scalar_piece_bounds(v, a, c):
    """_Piece's bounds of one chain, one pair of adjacent levels at a time."""
    lo, hi, roots_m, roots_o = -math.inf, math.inf, [], []
    for vl, vu, al, au in zip(v[:-1], v[1:], a[:-1], a[1:]):
        if vl == vu:
            continue
        m = (al * vl + au * vu) / (al + au)
        o = (al * vl - au * vu) / (al - au) if al != au else math.nan
        roots_m.append(m)
        if al != au:
            roots_o.append(o)
        up = vl < vu
        end = o if al > au else (-math.inf if up else math.inf)
        l, h = (end, m) if up else (m, end)
        lb, hb = (o, math.inf) if up else (-math.inf, o)
        in_a = l <= c <= h
        in_b = al < au and lb <= c <= hb
        if in_b:
            l, h = lb, hb
        elif al < au and not in_a:
            l = h = c
        else:
            l, h = min(l, c), max(h, c)
        lo, hi = max(lo, l), min(hi, h)
    return lo, hi, roots_m + roots_o


@settings(max_examples=300)
@given(data=st.data())
def test_batched_piece_bounds_match_scalar_formulas(data):
    """One pass over the concatenated chains of a lockstep round gives each
    chain the bounds and roots its own adjacent pairs give."""
    chains = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=6), label="levels")
    values = st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.5, 1.0, 2.25])
    weights = st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0])
    v = np.array(data.draw(st.lists(values, min_size=sum(chains), max_size=sum(chains))))
    a = np.array(data.draw(st.lists(weights, min_size=sum(chains), max_size=sum(chains))))
    # centres on cell values (ties at the centre) and between them
    centre = np.array(data.draw(st.lists(st.one_of(values, eighths), min_size=len(chains),
                                         max_size=len(chains))))
    bounds = np.concatenate([[0], np.cumsum(chains)])
    lo, hi, roots = _piece_bounds(v, a, bounds, centre)
    for t, c in enumerate(centre.tolist()):
        sl = slice(bounds[t], bounds[t + 1])
        want_lo, want_hi, want_roots = scalar_piece_bounds(v[sl].tolist(), a[sl].tolist(), c)
        assert (lo[t], hi[t]) == (want_lo, want_hi)
        mine = roots[:, sl].ravel()
        mine = mine[~np.isnan(mine)]
        assert [x.hex() for x in mine.tolist()] == [float(x).hex() for x in want_roots]
