import numpy as np
import pytest

from capbmo.choquet import choquet
from capbmo.content import ContentParams, masked_integral_many, weighted_content
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


def brute_force_report(f, w, root, result, params):
    """(passed, witnesses, constants) of cz_verify by an explicit scan: every
    dyadic subcube of the root averaged on its own, ancestors walked one
    parent at a time."""
    g = f.grid
    absf = np.abs(f.values)
    lam = result.threshold
    stats = {}
    for c in all_dyadic_within(root):
        num, den = masked_integral_many(g, [(absf * w.values, c.mask(g)), (w.values, c.mask(g))], params)
        stats[c] = float(num / den)

    def ancestors(c):
        side = c.side_cells
        while side < root.side_cells:
            side *= 2
            c = CubeSpec(tuple(x - (x - r) % side for x, r in zip(c.corner, root.corner)), side)
            yield c

    maximal = [c for c, a in stats.items() if a > lam and all(stats[p] <= lam for p in ancestors(c))]
    expected = sorted(maximal, key=lambda c: (-c.side_cells, c.corner))
    witnesses = []
    checks = [expected == list(result.selected)]
    if not checks[0]:
        witnesses.append({"issue": "selection mismatch", "expected": [c.cube_id() for c in expected],
                          "got": [c.cube_id() for c in result.selected]})
    disjoint = True
    for i, c in enumerate(result.selected):
        if any(np.any(c.mask(g) & d.mask(g)) for d in result.selected[:i]):
            disjoint = False
            witnesses.append({"issue": "overlap", "cube": c.cube_id()})
    checks.append(disjoint)
    covered = np.zeros(g.num_cells, dtype=bool)
    for c in result.selected:
        covered |= c.mask(g)
    off = root.mask(g) & ~covered
    checks.append(bool(np.all(absf[off] <= lam + 1e-12)))
    if not checks[-1]:
        witnesses.append({"issue": "|f| above threshold off the selection", "cell": int(np.argmax(absf * off))})
    ratio_ok, max_ratio = True, 0.0
    for c, pratio in zip(result.selected, result.parent_ratios):
        max_ratio = max(max_ratio, stats[c] / lam)
        if stats[c] > lam * pratio * (1 + 1e-12):
            ratio_ok = False
            witnesses.append({"issue": "average beyond parent ratio", "cube": c.cube_id()})
    checks.append(ratio_ok)
    checks.append(all(stats[p] <= lam + 1e-12 for c in result.selected for p in ancestors(c)))
    if not checks[-1]:
        witnesses.append({"issue": "ancestor average above threshold"})
    constants = {
        "selected_count": len(result.selected),
        "max_average_ratio": max_ratio,
        "max_parent_ratio": max(result.parent_ratios, default=0.0),
    }
    return all(checks), witnesses, constants


def tampered(result):
    """The result itself and the tamperings of test_verify_rejects_tampered_results."""
    sel, lam, ratios, parents = result.selected, result.threshold, result.ratios, result.parent_ratios
    out = [result, CZResult(sel, lam, ratios, tuple(0.0 for _ in sel))]
    if sel:
        out.append(CZResult(sel[1:], lam, ratios[1:], parents[1:]))
        if sel[0].side_cells > 1:
            child = CubeSpec(sel[0].corner, sel[0].side_cells // 2)
            out.append(CZResult((child,) + sel[1:], lam, ratios, parents))
            out.append(CZResult(sel + (child,), lam, ratios + (1.0,), parents + (1.0,)))
    return out


def assert_matches_brute_force(f, w, root, result, params):
    report = cz_verify(f, w, root, result, params)
    passed, witnesses, constants = brute_force_report(f, w, root, result, params)
    assert report.passed == passed
    assert report.witnesses == witnesses
    assert report.constants == constants


@pytest.mark.parametrize("n,depth", [(1, 4), (2, 3), (3, 2)])
def test_verify_matches_brute_force_scan(n, depth, rng):
    for _ in range(4):
        g = build_grid(n, depth, 2.0)
        params = random_params(rng, n)
        f = step_function(g, np.round(rng.normal(scale=3.0, size=g.num_cells), 1))
        w = random_positive_weight(g, rng)
        # the whole grid or a dyadic sub-root
        side = g.cells_per_axis >> int(rng.integers(0, depth + 1))
        corner = tuple(int(c) * side for c in rng.integers(0, g.cells_per_axis // side, size=n))
        root = CubeSpec(corner, side)
        lam = weighted_avg_oracle(f, w, root, params) * rng.uniform(1.0, 2.0) + 1e-9
        result = cz_decompose(f, w, root, lam, params)
        for candidate in tampered(result):
            assert_matches_brute_force(f, w, root, candidate, params)
        # a stray dyadic subcube of the root added to the selection
        subcubes = all_dyadic_within(root)
        extra = subcubes[int(rng.integers(len(subcubes)))]
        stray = CZResult(result.selected + (extra,), lam, result.ratios + (1.0,), result.parent_ratios + (1.0,))
        assert_matches_brute_force(f, w, root, stray, params)


def test_verify_matches_brute_force_scan_on_tampered_results():
    g = build_grid(2, 2, 4.0)
    params = ContentParams(delta=1.0)
    values = np.zeros(16)
    values[0] = 20.0
    values[15] = 18.0
    f = step_function(g, values)
    w = step_function(g, np.ones(16))
    root = CubeSpec((0, 0), 4)
    for candidate in tampered(cz_decompose(f, w, root, 9.6, params)):
        assert_matches_brute_force(f, w, root, candidate, params)
