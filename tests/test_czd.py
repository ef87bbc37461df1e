import numpy as np
import pytest

from capbmo.choquet import choquet
from capbmo.content import ContentParams, weighted_content
from capbmo.czd import CZResult, cz_decompose, cz_verify
from capbmo.fixtures import random_positive_weight
from capbmo.grid import CubeSpec, build_grid, cube_set, step_function
from conftest import random_grid, random_params


def weighted_avg_oracle(f, w, cube, params):
    g = f.grid
    region = cube_set(g, cube)
    num = choquet(step_function(g, np.abs(f.values) * w.values), region, params)
    den = weighted_content(g, w, region, params)
    return num / den


def all_dyadic_within(root):
    out = [root]
    i = 0
    while i < len(out):
        cube = out[i]
        if cube.side_cells > 1:
            half = cube.side_cells // 2
            n = len(cube.corner)
            for bits in range(2**n):
                corner = tuple(cube.corner[a] + ((bits >> a) & 1) * half for a in range(n))
                out.append(CubeSpec(corner, half))
        i += 1
    return out


def contains(anc, cube):
    return all(
        anc.corner[a] <= cube.corner[a]
        and cube.corner[a] + cube.side_cells <= anc.corner[a] + anc.side_cells
        for a in range(len(anc.corner))
    )


def selection_oracle(f, w, root, lam, params):
    """Maximal dyadic subcubes with weighted average above lam, computed by
    a flat scan over the whole subtree (no recursion, no shared state)."""
    over = [
        c
        for c in all_dyadic_within(root)
        if c != root and weighted_avg_oracle(f, w, c, params) > lam
    ]
    maximal = [
        c
        for c in over
        if not any(o.side_cells > c.side_cells and contains(o, c) for o in over)
    ]
    return sorted(maximal, key=lambda c: (-c.side_cells, c.corner))


def test_hand_example_single_spike():
    g = build_grid(1, 2, 4.0)
    params = ContentParams(delta=1.0)
    f = step_function(g, np.array([8.0, 0.0, 0.0, 0.0]))
    w = step_function(g, np.ones(4))
    result = cz_decompose(f, w, CubeSpec((0,), 4), 3.0, params)
    assert result.selected == (CubeSpec((0,), 2),)
    assert result.ratios == pytest.approx((4.0 / 3.0,), abs=1e-12)
    assert result.parent_ratios == pytest.approx((2.0,), abs=1e-12)
    report = cz_verify(f, w, CubeSpec((0,), 4), result, params)
    assert report.passed
    assert report.constants["selected_count"] == 1


def test_matches_flat_scan_oracle(rng):
    for trial in range(250):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, np.round(rng.normal(scale=3.0, size=g.num_cells), 1))
        w = random_positive_weight(g, rng)
        root = CubeSpec((0,) * g.n, g.shape[0])
        root_avg = weighted_avg_oracle(f, w, root, params)
        lam = root_avg * rng.uniform(1.0, 2.0) + 1e-9
        result = cz_decompose(f, w, root, lam, params)
        want = selection_oracle(f, w, root, lam, params)
        assert list(result.selected) == want, f"trial {trial}"
        for cube, ratio in zip(result.selected, result.ratios):
            assert ratio == pytest.approx(
                weighted_avg_oracle(f, w, cube, params) / lam, rel=1e-10
            )
        assert cz_verify(f, w, root, result, params).passed


def test_subroot_decomposition(rng):
    g = build_grid(2, 2, 4.0)
    params = ContentParams(delta=1.0)
    f = step_function(g, rng.normal(scale=2.0, size=16))
    w = random_positive_weight(g, rng)
    root = CubeSpec((2, 0), 2)
    root_avg = weighted_avg_oracle(f, w, root, params)
    lam = root_avg * 1.1 + 1e-9
    result = cz_decompose(f, w, root, lam, params)
    assert list(result.selected) == selection_oracle(f, w, root, lam, params)
    assert cz_verify(f, w, root, result, params).passed
    for cube in result.selected:
        assert contains(root, cube)


def test_empty_selection_when_threshold_dominates(rng):
    g = build_grid(1, 2, 1.0)
    params = ContentParams(delta=0.5)
    f = step_function(g, rng.normal(size=4))
    w = random_positive_weight(g, rng)
    lam = float(np.abs(f.values).max()) * 10 + 1.0
    result = cz_decompose(f, w, CubeSpec((0,), 4), lam, params)
    assert result.selected == ()
    report = cz_verify(f, w, CubeSpec((0,), 4), result, params)
    assert report.passed
    assert report.constants["max_parent_ratio"] == 0.0


def test_input_validation(rng):
    g = build_grid(1, 2, 1.0)
    params = ContentParams(delta=1.0)
    f = step_function(g, np.array([5.0, 0.0, 0.0, 0.0]))
    w = step_function(g, np.ones(4))
    root = CubeSpec((0,), 4)
    with pytest.raises(ValueError, match="below the root average"):
        cz_decompose(f, w, root, 0.5, params)
    with pytest.raises(ValueError, match="dyadic"):
        cz_decompose(f, w, CubeSpec((1,), 2), 10.0, params)
    other = build_grid(1, 1, 1.0)
    with pytest.raises(ValueError, match="same grid"):
        cz_decompose(step_function(other, np.ones(2)), w, root, 10.0, params)
    with pytest.raises(ValueError, match="positive"):
        cz_decompose(f, step_function(g, np.zeros(4)), root, 10.0, params)


def test_verify_rejects_tampered_results(rng):
    g = build_grid(2, 2, 4.0)
    params = ContentParams(delta=1.0)
    values = np.zeros(16)
    values[0] = 20.0   # quad average 10
    values[15] = 18.0  # quad average 9
    f = step_function(g, values)
    w = step_function(g, np.ones(16))
    root = CubeSpec((0, 0), 4)
    lam = 9.6  # root average is 9.5: one quad selected, one single cell
    good = cz_decompose(f, w, root, lam, params)
    assert len(good.selected) >= 2
    assert cz_verify(f, w, root, good, params).passed

    dropped = CZResult(good.selected[1:], lam, good.ratios[1:], good.parent_ratios[1:])
    rep = cz_verify(f, w, root, dropped, params)
    assert not rep.passed
    assert any(wit["issue"] == "selection mismatch" for wit in rep.witnesses)

    child_of_first = CubeSpec(good.selected[0].corner, good.selected[0].side_cells // 2)
    demoted = CZResult(
        (child_of_first,) + good.selected[1:], lam, good.ratios, good.parent_ratios
    )
    rep = cz_verify(f, w, root, demoted, params)
    assert not rep.passed
    assert any(wit["issue"] == "ancestor average above threshold" for wit in rep.witnesses)

    overlapping = CZResult(
        good.selected + (child_of_first,),
        lam,
        good.ratios + (1.0,),
        good.parent_ratios + (1.0,),
    )
    rep = cz_verify(f, w, root, overlapping, params)
    assert not rep.passed
    assert any(wit["issue"] == "overlap" for wit in rep.witnesses)

    lied = CZResult(good.selected, lam, good.ratios, tuple(0.0 for _ in good.selected))
    rep = cz_verify(f, w, root, lied, params)
    assert not rep.passed
    assert any(wit["issue"] == "average beyond parent ratio" for wit in rep.witnesses)


def test_selection_is_sorted_coarse_to_fine(rng):
    for _ in range(30):
        g = random_grid(rng, max_depth_1d=3, max_depth_2d=2)
        params = random_params(rng, g.n)
        f = step_function(g, rng.normal(scale=3.0, size=g.num_cells))
        w = random_positive_weight(g, rng)
        root = CubeSpec((0,) * g.n, g.shape[0])
        lam = weighted_avg_oracle(f, w, root, params) * 1.2 + 1e-9
        result = cz_decompose(f, w, root, lam, params)
        keys = [(-c.side_cells, c.corner) for c in result.selected]
        assert keys == sorted(keys)
