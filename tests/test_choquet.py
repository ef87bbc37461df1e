import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbmo.choquet import (
    choquet,
    choquet_wrt,
    essential_bounds,
    jensen_sides,
    signed_average,
    weighted_choquet,
)
from capbmo.content import ContentParams, dyadic_content, weighted_content
from capbmo.fixtures import spike_and_slab_example, two_cell_example
from capbmo.grid import (
    CubeSpec,
    DyadicSet,
    build_grid,
    full_set,
    level_set,
    step_function,
)
from conftest import random_grid, random_params


def layer_cake_reference(f, region, params):
    """Choquet integral recomputed one survival level at a time through the
    public level_set / dyadic_content API, with thresholds taken strictly
    between consecutive values (the survival function is constant there)."""
    vals = np.unique(f.values[region.membership])
    vals = vals[vals > 0]
    if vals.size == 0:
        return 0.0
    knots = np.concatenate([[0.0], vals])
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        t = 0.5 * (lo + hi)
        level = level_set(f, ">", t).intersect(region)
        total += (hi - lo) * dyadic_content(f.grid, level, params)
    return total


@settings(max_examples=200)
@given(data=st.data())
def test_matches_midpoint_layer_cake_oracle(data):
    n = data.draw(st.sampled_from([1, 2]), label="n")
    depth = data.draw(st.integers(1, 3 if n == 1 else 2), label="depth")
    g = build_grid(n, depth, data.draw(st.sampled_from([1.0, 2.0, 4.0]), label="root side"))
    params = ContentParams(delta=data.draw(st.floats(0.05, 1.0), label="delta / n") * n)
    cells = lambda elements: st.lists(elements, min_size=g.num_cells, max_size=g.num_cells)  # noqa: E731
    # values in hundredths, so that cells tie
    f = step_function(g, np.array(data.draw(cells(st.integers(0, 800)), label="f")) / 100.0)
    region = DyadicSet(g, np.array(data.draw(cells(st.booleans()), label="region")))
    got = choquet(f, region, params)
    want = layer_cake_reference(f, region, params)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_reduces_to_sum_under_counting_measure(rng):
    for _ in range(50):
        g = random_grid(rng)
        f = step_function(g, rng.random(g.num_cells))
        region = DyadicSet(g, rng.random(g.num_cells) < 0.5)
        got = choquet_wrt(f, region, lambda S: float(S.membership.sum()))
        assert got == pytest.approx(float(f.values[region.membership].sum()), rel=1e-12)


def test_choquet_wrt_content_matches_choquet(rng):
    g = random_grid(rng)
    params = random_params(rng, g.n)
    f = step_function(g, rng.random(g.num_cells))
    region = full_set(g)
    via_mu = choquet_wrt(f, region, lambda S: dyadic_content(g, S, params))
    assert via_mu == pytest.approx(choquet(f, region, params), rel=1e-12)


def test_weighted_choquet_keeps_the_bits_of_the_per_level_loop(rng):
    """capbmo choquet --wt: one family call gives each level's w-content
    the float of its own weighted_content call."""
    for _ in range(60):
        g = random_grid(rng, max_depth_1d=8, max_depth_2d=6)
        params = random_params(rng, g.n)
        f = step_function(g, rng.integers(0, 9, size=g.num_cells) * 0.25)
        w = step_function(g, np.exp(rng.normal(size=g.num_cells)) * (rng.random(g.num_cells) < 0.9))
        region = DyadicSet(g, rng.random(g.num_cells) < rng.uniform(0.0, 1.0))
        loop = choquet_wrt(f, region, lambda S: weighted_content(g, w, S, params))
        assert weighted_choquet(f, region, w, params).hex() == loop.hex()


def test_calculus_battery(rng):
    """Monotone, positively homogeneous, sublinear; adding a constant shifts
    the integral by exactly constant * content(region)."""
    for _ in range(300):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        region = DyadicSet(g, rng.random(g.num_cells) < 0.7)
        if region.is_empty():
            continue
        fv = rng.exponential(size=g.num_cells)
        gv = rng.exponential(size=g.num_cells)
        f, h = step_function(g, fv), step_function(g, gv)
        If = choquet(f, region, params)
        Ih = choquet(h, region, params)
        Isum = choquet(step_function(g, fv + gv), region, params)
        assert Isum <= If + Ih + 1e-12 * (1 + If + Ih)
        assert If <= choquet(step_function(g, fv + gv), region, params) + 1e-12
        c = rng.uniform(0.1, 5.0)
        assert choquet(step_function(g, c * fv), region, params) == pytest.approx(
            c * If, rel=1e-12
        )
        shift = rng.uniform(0.0, 3.0)
        assert choquet(step_function(g, fv + shift), region, params) == pytest.approx(
            If + shift * dyadic_content(g, region, params), rel=1e-11, abs=1e-12
        )


def test_holder_and_minkowski_p2(rng):
    def norm2(values, g, region, params):
        return math.sqrt(choquet(step_function(g, values**2), region, params))

    for _ in range(300):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        region = DyadicSet(g, rng.random(g.num_cells) < 0.7)
        if region.is_empty():
            continue
        fv = rng.exponential(size=g.num_cells)
        gv = rng.exponential(size=g.num_cells)
        nf, ng = norm2(fv, g, region, params), norm2(gv, g, region, params)
        prod = choquet(step_function(g, fv * gv), region, params)
        assert prod <= nf * ng * (1 + 1e-11)
        assert norm2(fv + gv, g, region, params) <= (nf + ng) * (1 + 1e-11)


def test_choquet_preconditions(rng, grid_1d):
    params = ContentParams(delta=0.7)
    f = step_function(grid_1d, -np.ones(grid_1d.num_cells))
    with pytest.raises(ValueError):
        choquet(f, full_set(grid_1d), params)
    other = build_grid(1, 1, 1.0)
    with pytest.raises(ValueError):
        choquet(step_function(other, np.zeros(2)), full_set(grid_1d), params)
    empty = level_set(step_function(grid_1d, np.ones(grid_1d.num_cells)), ">", 2.0)
    assert choquet(step_function(grid_1d, np.ones(grid_1d.num_cells)), empty, params) == 0.0


def test_signed_average_two_cell_closed_form():
    g, f = two_cell_example()
    for delta in (0.25, 0.5, 1.0):
        avg = signed_average(f, CubeSpec((0,), 2), ContentParams(delta=delta))
        assert avg.value == pytest.approx(2.0 / 2.0**delta, abs=1e-12)
        assert avg.neg_part_integral == 0.0
        assert avg.pos_content == pytest.approx(2.0**delta, abs=1e-12)


def test_signed_average_spike_and_slab_closed_forms():
    g, f = spike_and_slab_example()
    root = CubeSpec((0, 0), 4)
    for delta in (0.25, 0.5, 1.0):
        params = ContentParams(delta=delta)
        got = signed_average(f, root, params)
        expect = (1.0 - 2.0 ** (1.0 + 2.0 * delta)) / 2.0 ** (1.0 + 2.0 * delta)
        assert got.value == pytest.approx(expect, abs=1e-12)
        neg = signed_average(step_function(g, -f.values), root, params)
        expect_neg = (2.0 ** (1.0 + 2.0 * delta) - 1.0) / (1.0 + 4.0**delta)
        assert neg.value == pytest.approx(expect_neg, abs=1e-12)
        # the two averages differ: the signed average is not odd under negation
        assert abs(got.value + neg.value) > 0.1


def test_signed_average_constant_and_shift(rng):
    for _ in range(50):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        c = rng.normal()
        f = step_function(g, np.full(g.num_cells, c))
        root = CubeSpec((0,) * g.n, g.shape[0])
        assert signed_average(f, root, params).value == pytest.approx(c, abs=1e-12)


def test_essential_bounds():
    g, f = spike_and_slab_example()
    b = essential_bounds(f, CubeSpec((0, 0), 4))
    assert (b.esinf, b.esup) == (-2.0, 1.0)
    b_right = essential_bounds(f, CubeSpec((2, 2), 2))
    assert (b_right.esinf, b_right.esup) == (0.0, 1.0)


def test_jensen_sides_hold_and_touch_constants(rng):
    worst = 1.0
    for _ in range(300):
        g = random_grid(rng)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(scale=1.5, size=g.num_cells))
        root = CubeSpec((0,) * g.n, g.shape[0])
        sides = jensen_sides(f, root, params)
        assert not sides.log_domain
        assert sides.lhs_pos <= sides.rhs_pos * (1 + 1e-11)
        assert sides.lhs_neg <= sides.rhs_neg * (1 + 1e-11)
        worst = min(worst, sides.lhs_pos / sides.rhs_pos, sides.lhs_neg / sides.rhs_neg)
    assert worst <= 1.0
    g = build_grid(2, 2, 4.0)
    const = step_function(g, np.full(g.num_cells, -0.8))
    sides = jensen_sides(const, CubeSpec((0, 0), 4), ContentParams(delta=0.5))
    assert sides.lhs_pos == pytest.approx(sides.rhs_pos, rel=1e-12)
    assert sides.lhs_neg == pytest.approx(sides.rhs_neg, rel=1e-12)


def test_jensen_sides_ignore_large_values_outside_the_cube():
    """Values beyond exp's range outside the cube must neither overflow nor
    change the sides, which depend on the cube's cells only."""
    rng = np.random.default_rng(7)
    g = build_grid(1, 4, 1.0)
    vals = 900.0 * rng.normal(size=g.num_cells)
    vals[:4] = rng.normal(size=4)
    Q = CubeSpec((0,), 4)
    params = ContentParams(delta=0.5)
    inside_only = np.where(Q.mask(g), vals, 0.0)
    want = jensen_sides(step_function(g, inside_only), Q, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = jensen_sides(step_function(g, vals), Q, params)
    assert got == want and not got.log_domain


def test_jensen_sides_log_domain():
    g = build_grid(1, 2, 1.0)
    f = step_function(g, np.array([900.0, -850.0, 10.0, 0.0]))
    sides = jensen_sides(f, CubeSpec((0,), 4), ContentParams(delta=0.5))
    assert sides.log_domain
    assert np.isfinite([sides.lhs_pos, sides.rhs_pos, sides.lhs_neg, sides.rhs_neg]).all()
    assert sides.lhs_pos <= sides.rhs_pos + 1e-9
    assert sides.lhs_neg <= sides.rhs_neg + 1e-9
