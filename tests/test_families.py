"""Family integration paths against a per-cube reference.

Every quantity that integrates over each cube of a family goes through
``content.cube_frames``. The reference here integrates one cube at a time
with ``masked_integral_many(grid, [(values, Q.mask(grid) & ...), ...])``,
whose frame is the cube's own, and every comparison is bit for bit.
"""

import itertools
import math
import re
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capbmo.verify
from capbmo import content, czd, oscillation
from capbmo.choquet import signed_averages
from capbmo.content import (
    ContentParams, cube_frames, cube_integrals, masked_integral_many, superlevel_integrals,
    weighted_content,
)
from capbmo.fixtures import random_positive_weight
from capbmo.grid import (
    CubeFamily, CubeFamilyPolicy, CubeSpec, DyadicSet, build_grid, enumerate_cubes, full_set,
    step_function,
)
from capbmo.verify import (
    EnvelopeFit, SurvivalCurve, fit_envelope, survival_curves, verify_characterization,
    weak_restricted_strong_check,
)
from capbmo.weights import ap_constant, maximal_function
from conftest import forced_reduction

GRIDS = {1: 4, 2: 3, 3: 2}  # dimension -> depth
POLICIES = [
    CubeFamilyPolicy("dyadic"),
    CubeFamilyPolicy("lattice"),
    CubeFamilyPolicy("sampled", sample_count=7, rng_seed=3),
]
CASES = [(n, policy) for n in GRIDS for policy in POLICIES]
IDS = [f"n{n}-{policy.kind}" for n, policy in CASES]


def reference(grid, Q, jobs, params):
    """One cube's integrals: each job is (values, mask or None) within Q."""
    inside = Q.mask(grid)
    return masked_integral_many(
        grid, [(v, inside if m is None else inside & m) for v, m in jobs], params
    )


def inputs(n, seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(n, GRIDS[n], 2.0)
    # repeated values give ties in the layer cake
    f = step_function(grid, rng.integers(-4, 5, size=grid.num_cells) * 0.75)
    w = random_positive_weight(grid, rng, spread=0.7)
    params = ContentParams(delta=float(rng.uniform(0.3, 1.0)) * n)
    return grid, f, w, params


def scalar_frame(Q):
    """(corner, depth) of the minimal dyadic cube holding Q: the smallest j
    with lo >> j == hi >> j on every axis."""
    lo = Q.corner
    hi = [c + Q.side_cells - 1 for c in lo]
    j = 0
    while any(a >> j != b >> j for a, b in zip(lo, hi)):
        j += 1
    return tuple(c >> j << j for c in lo), j


@pytest.mark.parametrize("n", sorted(GRIDS))
@pytest.mark.parametrize("kind", ["dyadic", "lattice", "sampled"])
@settings(max_examples=20)
@given(data=st.data())
def test_array_frames_match_scalar_definition(n, kind, data):
    depth = data.draw(st.integers(0, {1: 5, 2: 3, 3: 2}[n]), label="depth")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    budget = data.draw(st.sampled_from([1, 8, 64, content._JOB_CELLS]), label="budget")
    policy = CubeFamilyPolicy(kind, sample_count=9, rng_seed=seed) if kind == "sampled" else CubeFamilyPolicy(kind)
    grid = build_grid(n, depth, 1.0)
    cubes = enumerate_cubes(grid, policy)
    # shuffled, so that depths interleave in the family
    rng = np.random.default_rng(seed)
    cubes = [cubes[i] for i in rng.permutation(len(cubes))]
    frames = cube_frames(grid, CubeFamily.of(cubes), ContentParams(delta=1.0))
    cells = np.arange(grid.num_cells)
    for i, Q in enumerate(cubes):
        corner, j = scalar_frame(Q)
        assert frames.depth[i] == j
        # the row of the cell indices is the frame's cells, the mask the cube's
        frame_cells = frames.rows(cells, [i])[0]
        assert np.array_equal(np.sort(frame_cells), np.flatnonzero(CubeSpec(corner, 1 << j).mask(grid)))
        assert np.array_equal(np.sort(frame_cells[frames.masks([i])[0]]), np.flatnonzero(Q.mask(grid)))
    # a request repeats cubes, as probes do; chunks hold every occurrence
    # once, one frame depth each, in request order within a depth, and at
    # most the budget's cells of rows unless they hold one cube
    request = rng.integers(0, len(cubes), size=rng.integers(0, 3 * len(cubes) + 1))
    with unittest.mock.patch.object(content, "_JOB_CELLS", budget):
        chunks = list(frames.chunks(request))
    seen, last = [], {}
    for at, ids in chunks:
        assert np.array_equal(ids, request[at]) and len(ids) > 0
        (d,) = set(frames.depth[ids].tolist())
        assert len(ids) * (1 << (n * d)) <= budget or len(ids) == 1
        assert last.get(d, -1) < at[0] and (np.diff(at) > 0).all()
        last[d] = at[-1]
        seen += at.tolist()
    assert sorted(seen) == list(range(len(request)))
    assert list(frames.chunks([])) == []


def test_rows_and_masks_refuse_cubes_of_mixed_frame_depths():
    grid = build_grid(2, 2, 1.0)
    frames = cube_frames(grid, CubeFamily.of([CubeSpec((0, 0), 1), CubeSpec((0, 0), 2)]),
                         ContentParams(delta=1.0))
    cells = np.arange(grid.num_cells)
    assert frames.rows(cells, [1, 1]).shape == frames.masks([1, 1]).shape == (2, 4)
    for read in (lambda ids: frames.rows(cells, ids), frames.masks):
        with pytest.raises(ValueError, match="one frame depth"):
            read([0, 1])


def raised(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("n", sorted(GRIDS))
def test_bad_cubes_raise_the_cube_messages(n, monkeypatch):
    grid, f, _, params = inputs(n, 9)
    N = grid.cells_per_axis
    good = CubeSpec((0,) * n, 1)
    jobs = [(np.ones(grid.num_cells), None)]
    out_of_grid = [CubeSpec((N - 1,) * n, 2), CubeSpec((N,) + (0,) * (n - 1), 1), CubeSpec((0,) * n, N + 1)]
    other_dim = [CubeSpec((0,) * (n + 1), 1), CubeSpec((0,) * (n - 1), 1)] if n > 1 else [CubeSpec((0, 0), 1)]
    for bad in out_of_grid + other_dim:
        want = raised(lambda: bad.validate(grid))
        assert re.fullmatch(r"cube .* does not fit inside the grid|cube corner dimension does not match the grid", want)
        for family in ([bad], [good, bad], [good, bad, CubeSpec((N,) * n, 1)]):
            assert raised(lambda: cube_integrals(grid, family, jobs, params)) == want
            assert raised(lambda: survival_curves(f, [0.0] * len(family), family, None, params)) == want
            monkeypatch.setattr(oscillation, "enumerate_cubes", lambda grid, policy: family)
            assert raised(lambda: oscillation.bmo_seminorm(f, params)) == want
        assert raised(lambda: oscillation.gamma_interval(f, None, 1.0, bad, params)) == want


@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
def test_cube_integrals_match_per_cube_reference(n, policy):
    grid, f, w, params = inputs(n, 1)
    cubes = enumerate_cubes(grid, policy)
    jobs = [(w.values, None), (np.abs(f.values), f.values > 0), (np.ones(grid.num_cells), None)]
    got = cube_integrals(grid, cubes, jobs, params)
    want = np.array([reference(grid, Q, jobs, params) for Q in cubes])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
def test_maximal_function_matches_per_cube_reference(n, policy):
    grid, _, w, params = inputs(n, 2)
    ones = np.ones(grid.num_cells)
    want = np.zeros(grid.shape)
    for Q in enumerate_cubes(grid, policy):
        a, b = reference(grid, Q, [(w.values, None), (ones, None)], params)
        region = want[Q.slices()]
        np.maximum(region, a / b, out=region)
    assert np.array_equal(maximal_function(w, params, policy).values, want.ravel())


@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_ap_constant_matches_per_cube_reference(n, policy, p):
    grid, _, w, params = inputs(n, 3)
    ones = np.ones(grid.num_cells)
    dual = w.values ** (-1.0 / (p - 1.0))
    best, worst = -math.inf, None
    for Q in enumerate_cubes(grid, policy):
        a, b, c = reference(grid, Q, [(w.values, None), (dual, None), (ones, None)], params)
        product = (a / c) * (b / c) ** (p - 1.0)
        if product > best:
            best, worst = product, Q
    report = ap_constant(w, p, params, policy)
    assert report.ap_constant == best
    assert report.worst_cube == worst


@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
def test_signed_averages_match_per_cube_reference(n, policy):
    grid, f, _, params = inputs(n, 4)
    cubes = enumerate_cubes(grid, policy)
    pos, neg = f.values >= 0, f.values < 0
    ones = np.ones(grid.num_cells)
    values, parts = signed_averages(f, cubes, params)
    for Q, value, part in zip(cubes, values, parts.tolist()):
        a, b, c, d = reference(grid, Q, [(f.values, pos), (-f.values, neg), (ones, pos), (ones, neg)], params)
        assert part == [a, b, c, d]
        assert value == (a - b) / (c + d)


@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
@pytest.mark.parametrize("weighted", [False, True])
def test_survival_curves_match_per_cube_reference(n, policy, weighted):
    grid, f, w, params = inputs(n, 5)
    cubes = enumerate_cubes(grid, policy)
    centers = [float(np.median(f.values[Q.mask(grid)])) + 0.1 for Q in cubes]
    weight = w if weighted else None
    wv = w.values if weighted else np.ones(grid.num_cells)
    curves = survival_curves(f, centers, cubes, weight, params, (0.0, 0.5))
    for Q, c, curve in zip(cubes, centers, curves):
        dev = np.abs(f.values - c)
        jobs = [(wv, dev > t) for t in curve.t_samples] + [(wv, None)]
        raw = reference(grid, Q, jobs, params)
        assert curve.cube == Q and curve.weighted == weighted
        assert curve.normalizer == raw[-1]
        clipped = np.minimum(np.minimum.accumulate(raw[:-1]), raw[-1])
        assert curve.survival == tuple(clipped.tolist())
        assert set(np.unique(dev[Q.mask(grid)]).tolist()) <= set(curve.t_samples)


@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
def test_survival_samples_match_per_cube_unique(n, policy):
    """The samples built per chunk of cubes are each cube's own: t_grid,
    every distinct |f - c| and a point 1e-9 below each positive jump, as
    one np.unique per cube gives them. Centres on a cell value put a jump
    at 0, and t_grid values meet jumps and the points below them."""
    grid, f, _, params = inputs(n, 7)
    cubes = enumerate_cubes(grid, policy)
    centers = [float(f.values[Q.mask(grid)][-1]) for Q in cubes]
    t_grid = (0.0, 0.75 - 0.75e-9, 0.75, 2.0)
    curves = survival_curves(f, centers, cubes, None, params, t_grid)
    for Q, c, curve in zip(cubes, centers, curves):
        jumps = np.unique(np.abs(f.values[Q.mask(grid)] - c))
        pos = jumps[jumps > 0]
        below = np.maximum(pos - 1e-9 * np.maximum(pos, 1.0), 0.0)
        want = np.unique(np.concatenate([t_grid, jumps, below]))
        assert [t.hex() for t in curve.t_samples] == [t.hex() for t in want.tolist()]


def polyfit_envelope(curve, seminorm):
    """fit_envelope of one curve with np.polyfit's least-squares slope."""
    t, s = np.asarray(curve.t_samples), np.asarray(curve.survival)
    keep = s > 0
    if not keep.any():
        return EnvelopeFit(c=math.inf, C=1.0, passed=True, witness=None)
    x = t[keep] / seminorm
    y = -np.log(s[keep] / curve.normalizer)
    slope = float(np.polyfit(x, y, 1)[0]) if x.size >= 2 and np.ptp(x) > 0 else 0.0
    c = max(0.5 * slope, 1e-6)
    margins = np.log(s[keep] / curve.normalizer) + c * x
    k = int(np.argmax(margins))
    C = float(np.exp(margins[k]))
    return EnvelopeFit(c=c, C=C, passed=c > 0 and math.isfinite(C), witness=(float(t[keep][k]), float(s[keep][k])))


def family_fits(curves, seminorm):
    """EnvelopeFits of the one family pass over a list of curves, flattened."""
    t = np.concatenate([np.asarray(curve.t_samples, dtype=float) for curve in curves])
    s = np.concatenate([np.asarray(curve.survival, dtype=float) for curve in curves])
    bounds = np.cumsum([0] + [len(curve.t_samples) for curve in curves])
    norms = np.array([curve.normalizer for curve in curves])
    c, C, at = capbmo.verify._envelopes(t, s, bounds, norms, seminorm)
    return [EnvelopeFit(c=float(a), C=float(b), passed=bool(a > 0 and math.isfinite(b)),
                        witness=None if k < 0 else (float(t[k]), float(s[k]))) for a, b, k in zip(c, C, at)]


def assert_same_fit(got, want):
    assert got.passed == want.passed and got.witness == want.witness
    for a, b in ((got.c, want.c), (got.C, want.C)):
        assert a == b or abs(a - b) <= 1e-12 * abs(b), (got, want)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
def test_family_fit_matches_per_curve_polyfit(n, policy, weighted):
    """The one least-squares pass over a family's flat curves gives every
    curve's c and C within 1e-12 relative of np.polyfit on that curve
    alone, with the same passed and witness, and fit_envelope, its one-curve
    case, the same floats as the family pass. Shuffled families interleave
    frame depths; degenerate curves (no positive survival, one
    sample, every sample at one t) sit between the others."""
    grid, f, w, params = inputs(n, 8)
    rng = np.random.default_rng(8)
    cubes = enumerate_cubes(grid, policy)
    cubes = [cubes[i] for i in rng.permutation(len(cubes))]
    Q = CubeSpec((0,) * n, 1)
    degenerate = [SurvivalCurve((0.0, 1.0), (0.0, 0.0), 2.0, Q), SurvivalCurve((0.5,), (0.3,), 1.0, Q),
                  SurvivalCurve((0.1, 0.1, 0.1), (0.9, 0.5, 0.2), 1.0, Q)]
    for values in (f.values, rng.normal(scale=3.0, size=grid.num_cells)):
        g = step_function(grid, values)
        centers = [float(np.median(values[Q.mask(grid)])) + 0.1 for Q in cubes]
        curves = list(survival_curves(g, centers, cubes, w if weighted else None, params, (0.0, 0.5)))
        curves = curves[:3] + degenerate + curves[3:] + degenerate[:1]
        seminorm = float(rng.uniform(0.2, 3.0))
        for curve, fit in zip(curves, family_fits(curves, seminorm)):
            assert_same_fit(fit, polyfit_envelope(curve, seminorm))
            assert fit_envelope(curve, seminorm) == fit


def superlevel_inputs(n, policy, seed):
    """A family, centres and levels per cube that meet every case of the
    level-to-set mapping: each cube's jumps |f - c| (0 among them, as odd
    cubes centre on one of their cell values), points 1e-9 below and
    1e-10 above them, a repeated jump, negative and -inf levels and a level
    past every jump, in no particular order."""
    grid, f, w, params = inputs(n, seed)
    cubes = enumerate_cubes(grid, policy)
    rng = np.random.default_rng(seed)
    centers, levels = [], []
    for k, Q in enumerate(cubes):
        vals = f.values[Q.mask(grid)]
        c = float(vals[-1]) if k % 2 else float(np.median(vals)) + 0.1
        jumps = np.unique(np.abs(vals - c))
        t = np.concatenate([jumps, jumps - 1e-9 * np.maximum(jumps, 1.0), jumps + 1e-10,
                            jumps[-1:], [-1.0, -math.inf, jumps[-1] + 1.0]])
        centers.append(c)
        levels.append(rng.permutation(t))
    return grid, f, w, params, cubes, centers, levels


def flat_levels(levels):
    """(levels, bounds) of per-cube level lists in the flat layout."""
    return np.concatenate(levels), np.cumsum([0] + [len(t) for t in levels])


def split_levels(flat, levels):
    """The flat values of superlevel_integrals, one array per cube again."""
    return np.split(flat, flat_levels(levels)[1][1:-1])


@pytest.mark.parametrize("path", ["dense", "sparse"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
def test_superlevel_integrals_match_per_level_reference(n, policy, weighted, path):
    """Each level's value is the float of its own (cube, level) job, by
    float.hex, whether it comes from a shared set job or a cube's chain."""
    grid, f, w, params, cubes, centers, levels = superlevel_inputs(n, policy, 12)
    wv = w.values if weighted else np.ones(grid.num_cells)
    with forced_reduction(path):
        sets = superlevel_integrals(cube_frames(grid, CubeFamily.of(cubes), params), f.values, centers,
                                    w.values if weighted else None)
        owner = np.repeat(np.arange(len(levels)), [len(t) for t in levels])
        got = split_levels(sets.at(flat_levels(levels)[0], owner), levels)
        for Q, c, t, vals in zip(cubes, centers, levels, got):
            dev = np.abs(f.values - c)
            # the whole-cube job keeps the reference in the cube's frame
            want = reference(grid, Q, [(wv, dev > x) for x in t] + [(wv, None)], params)[:-1]
            assert [v.hex() for v in vals.tolist()] == [v.hex() for v in want.tolist()]


def weighted_sets_match_one_set_at_a_time(grid, f, w, cubes, centers, params):
    """Each weighted level set's value is the float weighted_content gives
    for that set alone, by float.hex."""
    family = CubeFamily.of(cubes)
    sets = superlevel_integrals(cube_frames(grid, family, params), f.values, centers, w.values)
    for i, (Q, c) in enumerate(zip(family, centers)):
        part = slice(sets.bounds[i], sets.bounds[i + 1])
        inside, dev = Q.mask(grid), np.abs(f.values - c)
        want = [weighted_content(grid, w, DyadicSet(grid, inside & (dev >= d)), params)
                for d in sets.levels[part].tolist()]
        assert [v.hex() for v in sets.values[part].tolist()] == [v.hex() for v in want]


@pytest.mark.parametrize("weight", ["zeros", "vanishing", "equal", "spread"])
@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
def test_ranked_weighted_level_sets_match_weighted_content(n, policy, weight):
    """The ranked weighted path, with weights that vanish on some cells or
    on all (an empty table), weights all equal and distinct weights, and a
    one-cell cube (a depth-0 frame) after the family."""
    grid, f, w, params = inputs(n, 31)
    rng = np.random.default_rng(31)
    values = {
        "zeros": np.where(rng.random(grid.num_cells) < 0.3, 0.0, w.values),
        "vanishing": np.zeros(grid.num_cells),
        "equal": np.full(grid.num_cells, 0.75),
        "spread": w.values,
    }[weight]
    cubes = list(enumerate_cubes(grid, policy)) + [CubeSpec((1,) * n, 1)]
    centers = [float(f.values[Q.mask(grid)][0]) + 0.25 * (k % 3) for k, Q in enumerate(cubes)]
    weighted_sets_match_one_set_at_a_time(grid, f, step_function(grid, values), cubes, centers, params)


def test_ranked_weighted_level_sets_past_65535_distinct_weights():
    """65,536 distinct weights on one root cube: more ranks than 16 bits hold."""
    grid = build_grid(1, 16, 1.0)
    rng = np.random.default_rng(5)
    w = step_function(grid, rng.permutation(grid.num_cells) * 0.5 + 0.5)
    f = step_function(grid, rng.integers(0, 3, size=grid.num_cells) * 1.0)
    weighted_sets_match_one_set_at_a_time(grid, f, w, [CubeSpec.root(grid)], [0.0], ContentParams(0.5))


def test_superlevel_integrals_integrate_each_set_once(monkeypatch):
    """With weights, one layer-cake row per cube (each cube's sets hold
    fewer than _ROW_CELLS cells), whose (cube, k) chains match the
    distinct non-empty sets one for one; without, one job per cube; and
    one job for every level of the weak-type check."""
    grid, f, w, params, cubes, centers, levels = superlevel_inputs(2, CubeFamilyPolicy("lattice"), 5)
    real, jobs, chains = content.layer_cake, [], []

    def counted(values, *args):
        jobs.append(len(values))
        chains.append(real(values, *args))
        return chains[-1]

    monkeypatch.setattr(content, "layer_cake", counted)
    frames = cube_frames(grid, CubeFamily.of(cubes), params)
    superlevel_integrals(frames, f.values, centers, w.values)
    sets = 0
    for Q, c, t in zip(cubes, centers, levels):
        inside = np.abs(f.values[Q.mask(grid)] - c)
        sets += len({tuple(inside > x) for x in t} - {(False,) * len(inside)})
    assert sum(jobs) == len(cubes)
    assert sum(len(ch.bounds) - 1 for ch in chains) == sets < sum(map(len, levels))
    assert all((np.diff(ch.bounds) > 0).all() for ch in chains)  # w > 0: no chain is empty
    jobs.clear()
    superlevel_integrals(frames, f.values, centers)
    assert sum(jobs) == len(cubes)

    weak_jobs = []

    def counted_levels(*args):
        jobs.clear()
        out = capbmo.content.superlevel_integrals(*args)
        weak_jobs.append(sum(jobs))
        return out

    monkeypatch.setattr(capbmo.verify, "superlevel_integrals", counted_levels)
    weak_restricted_strong_check(f, full_set(grid), 2.0, 1.0, params)
    assert weak_jobs == [1]


def test_weighted_level_sets_ride_in_calls_of_bounded_set_cells(monkeypatch):
    """With all-distinct f and w a cube's sets hold about cells**2 / 2
    cells, so the weighted sets of a chunk go to layer-cake calls of at
    most _ROW_CELLS set cells each (or one set). A run of (cube, k) sets
    may start or end inside a cube's chain, and a call may hold several
    cubes; the values keep the bits of one call per chunk."""
    grid = build_grid(2, 3, 1.0)
    rng = np.random.default_rng(7)
    f, w = rng.permutation(64) / 8.0, rng.permutation(64) / 16.0 + 0.25
    family = CubeFamily.of(enumerate_cubes(grid, CubeFamilyPolicy("lattice")))
    frames = cube_frames(grid, family, ContentParams(1.0))
    centers = rng.random(len(family)) * 8.0
    whole = superlevel_integrals(frames, f, centers, w)
    real, calls = content.layer_cake, []

    def spied(values, masks, *args):
        nest = args[-1]
        calls.append((len(nest), int((nest + 1).sum()), int((nest.max(axis=1) + 1).sum())))
        return real(values, masks, *args)

    monkeypatch.setattr(content, "layer_cake", spied)
    monkeypatch.setattr(content, "_ROW_CELLS", 50)
    split = superlevel_integrals(frames, f, centers, w)
    for name in ("levels", "values", "bounds"):
        assert getattr(split, name).tobytes() == getattr(whole, name).tobytes(), name
    assert all(cells <= 50 or sets == 1 for _, cells, sets in calls)
    assert sum(sets for _, _, sets in calls) == len(whole.values)
    assert any(sets == 1 and cells > 50 for _, cells, sets in calls)  # the 64-cell root's first set
    assert any(rows > 1 for rows, _, _ in calls)


@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
def test_cz_stats_match_per_cube_reference(n, policy):
    grid, f, w, params = inputs(n, 6)
    cubes = enumerate_cubes(grid, policy)
    absf = np.abs(f.values)
    avgs, wcs = czd._weighted_averages(grid, absf, w.values, cubes, params)
    for Q, avg, wc in zip(cubes, avgs, wcs):
        num, den = reference(grid, Q, [(absf * w.values, None), (w.values, None)], params)
        assert (avg, wc) == (float(num / den), float(den))


def children(cube):
    """The 2**n dyadic children of a cube, in corner order."""
    half = cube.side_cells // 2
    offsets = itertools.product((0, half), repeat=len(cube.corner))
    kids = [CubeSpec(tuple(c + o for c, o in zip(cube.corner, off)), half) for off in offsets]
    return sorted(kids, key=lambda Q: Q.corner)


@pytest.mark.parametrize("n", sorted(GRIDS))
def test_cz_decompose_matches_recursive_descent(n):
    grid, f, w, params = inputs(n, 7)
    root = CubeSpec.root(grid)
    absf = np.abs(f.values)

    def average(Q):
        num, den = reference(grid, Q, [(absf * w.values, None), (w.values, None)], params)
        return float(num / den), float(den)

    root_avg, root_wc = average(root)
    for lam in (1.05 * root_avg, 1.5 * root_avg, 3.0 * root_avg):
        found = []

        def descend(cube, cube_wc):
            if cube.side_cells == 1:
                return
            for child in children(cube):
                avg, wc = average(child)
                if avg > lam:
                    found.append((child, avg / lam, cube_wc / wc))
                else:
                    descend(child, wc)

        descend(root, root_wc)
        found.sort(key=lambda s: (-s[0].side_cells, s[0].corner))
        result = czd.cz_decompose(f, w, root, lam, params)
        assert result.selected == tuple(s[0] for s in found)
        assert result.ratios == tuple(s[1] for s in found)
        assert result.parent_ratios == tuple(s[2] for s in found)
        assert czd.cz_verify(f, w, root, result, params).passed


@pytest.mark.parametrize("n,policy", CASES, ids=IDS)
@pytest.mark.parametrize("kind", ["bmo_ap", "blo_a1"])
def test_forward_characterization_matches_per_cube_reference(n, policy, kind):
    grid, _, w, params = inputs(n, 8)
    p = 2.0
    lnw = np.log(w.values)
    ones = np.ones(grid.num_cells)
    dual = w.values ** (-1.0 / (p - 1.0))
    report = verify_characterization(kind, params, policy, weight=w, p=p)
    a1 = report.constants.get("a1_constant")
    jensen, percube = 0.0, 0.0
    for Q in enumerate_cubes(grid, policy):
        int_w, content, int_dual = reference(grid, Q, [(w.values, None), (ones, None), (dual, None)], params)
        a, b, c, d = reference(
            grid, Q, [(lnw, lnw >= 0), (-lnw, lnw < 0), (ones, lnw >= 0), (ones, lnw < 0)], params
        )
        m = (a - b) / (c + d)
        jensen = max(jensen, math.exp(m) * float(content) / (2.0 * float(int_w)))
        if kind == "bmo_ap":
            jensen = max(jensen, math.exp(-m / (p - 1.0)) * float(content) / (2.0 * float(int_dual)))
        else:
            lhs = (float(int_w) / float(content)) / float(w.values[Q.mask(grid)].min())
            percube = max(percube, lhs / a1)
    assert report.constants["jensen_usage"] == jensen
    if kind == "blo_a1":
        assert report.constants["percube_usage"] == percube
