"""CubeFamily: the array enumeration against a per-cube itertools oracle,
and every family entry point reading a CubeFamily as its cubes."""

import itertools

import numpy as np
import pytest

import capbmo.grid

from capbmo.choquet import signed_averages
from capbmo.content import ContentParams, cube_integrals
from capbmo.grid import (
    MAX_CELLS, CubeFamily, CubeFamilyPolicy, CubeSpec, _lattice_count, build_grid, enumerate_cubes, lattice_cubes,
    step_function,
)
from capbmo.oscillation import blo_values
from capbmo.verify import survival_curves
from capbmo.weights import cube_averages

MAX_DEPTH = {1: 8, 2: 5, 3: 3}
SEEDS = range(5)
SAMPLE_COUNTS = (1, 2, 13, 40)


def oracle_cubes(grid, policy):
    """The family as one CubeSpec per cube, built with itertools: dyadic
    levels coarsest first, lattice cubes by side, and sampled draws as a
    side picked by corner count plus the draw's digits as the corner."""
    N, n = grid.cells_per_axis, grid.n
    dyadic = [
        CubeSpec(corner, N >> level)
        for level in range(grid.depth + 1)
        for corner in itertools.product(range(0, N, N >> level), repeat=n)
    ]
    if policy.kind == "dyadic":
        return dyadic
    if policy.kind == "lattice":
        return [
            CubeSpec(corner, side)
            for side in range(1, N + 1)
            for corner in itertools.product(range(N - side + 1), repeat=n)
        ]
    counts = np.array([(N - s + 1) ** n for s in range(1, N + 1)], dtype=np.int64)
    rng = np.random.default_rng(policy.rng_seed)
    draws = rng.integers(0, int(counts.sum()), size=policy.sample_count)
    cum = np.cumsum(counts)
    extras = []
    for d in draws:
        side = int(np.searchsorted(cum, d, side="right")) + 1
        offset = int(d - (cum[side - 2] if side > 1 else 0))
        per_axis = N - side + 1
        corner = []
        for _ in range(n):
            corner.append(offset % per_axis)
            offset //= per_axis
        extras.append(CubeSpec(tuple(reversed(corner)), side))
    return dyadic + extras


def assert_same_family(family, cubes, n):
    assert isinstance(family, CubeFamily)
    assert family.corners.dtype == family.sides.dtype == np.int64
    assert family.corners.shape == (len(cubes), n) and family.sides.shape == (len(cubes),)
    assert family.corners.tolist() == [list(Q.corner) for Q in cubes]
    assert family.sides.tolist() == [Q.side_cells for Q in cubes]
    # the benchmark tracer records len(enumerate_cubes(...)) as its cube count
    assert len(family) == len(cubes)
    assert list(family) == cubes and family == cubes
    assert family[-1] == cubes[-1]


@pytest.mark.parametrize("n", sorted(MAX_DEPTH))
@pytest.mark.parametrize("kind", ["dyadic", "lattice"])
def test_enumeration_matches_itertools_oracle(n, kind):
    for depth in range(MAX_DEPTH[n] + 1):
        grid = build_grid(n, depth, 1.0)
        policy = CubeFamilyPolicy(kind)
        assert_same_family(enumerate_cubes(grid, policy), oracle_cubes(grid, policy), n)


@pytest.mark.parametrize("n", sorted(MAX_DEPTH))
def test_lattice_count_is_the_family_size(n):
    for depth in range(MAX_DEPTH[n] + 2):
        grid = build_grid(n, depth, 1.0)
        assert _lattice_count(grid) == len(lattice_cubes(grid))


def test_oversized_lattice_family_is_rejected_before_it_is_built(monkeypatch):
    def built(grid):
        raise AssertionError("the lattice family was built")

    monkeypatch.setattr(capbmo.grid, "lattice_cubes", built)
    lattice = CubeFamilyPolicy("lattice")
    for n, depth, count in [(2, 8, 5_625_216), (1, 11, 2_098_176), (1, 20, 549_756_338_176)]:
        with pytest.raises(ValueError, match=f"has {count} cubes; the limit is MAX_CELLS"):
            enumerate_cubes(build_grid(n, depth, 1.0), lattice)
    assert _lattice_count(build_grid(2, 7, 1.0)) == 707_264 <= MAX_CELLS
    with pytest.raises(AssertionError, match="built"):  # allowed, so built
        enumerate_cubes(build_grid(2, 7, 1.0), lattice)


@pytest.mark.parametrize("n", sorted(MAX_DEPTH))
def test_sampled_enumeration_matches_itertools_oracle(n):
    for depth, seed, count in itertools.product(range(MAX_DEPTH[n] + 1), SEEDS, SAMPLE_COUNTS):
        grid = build_grid(n, depth, 1.0)
        policy = CubeFamilyPolicy("sampled", sample_count=count, rng_seed=seed)
        assert_same_family(enumerate_cubes(grid, policy), oracle_cubes(grid, policy), n)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("kind", ["dyadic", "lattice", "sampled"])
def test_entry_points_read_a_family_as_its_cubes(kind):
    """Each family entry point gives the same floats for a CubeFamily as for
    the list of its CubeSpecs, one result per cube."""
    rng = np.random.default_rng(4)
    grid = build_grid(2, 2, 2.0)
    f = step_function(grid, rng.integers(-4, 5, size=grid.num_cells) * 0.75)
    w = np.exp(rng.normal(size=grid.num_cells))
    params = ContentParams(delta=1.5)
    policy = CubeFamilyPolicy(kind, sample_count=9, rng_seed=2) if kind == "sampled" else CubeFamilyPolicy(kind)
    cubes = list(enumerate_cubes(grid, policy))
    family = CubeFamily.of(cubes)
    assert len(cubes) > 2
    centers = np.linspace(-1.0, 1.0, len(cubes))
    jobs = [(w, None), (np.abs(f.values), f.values > 0)]

    def results(cs):
        values, parts = signed_averages(f, cs, params)
        curves = survival_curves(f, centers, cs, None, params, (0.0, 0.5))
        return {
            "cube_integrals": hexes(cube_integrals(grid, cs, jobs, params)),
            "signed_averages": [hexes([v, *p]) for v, p in zip(values, parts)],
            "survival_curves": [
                (c.cube, hexes(c.t_samples), hexes(c.survival), c.normalizer.hex()) for c in curves
            ],
            "cube_averages": hexes(cube_averages(grid, [w], cs, params)),
            "blo_values": [hexes(part) for part in blo_values(f, cs, params, 2.0)],
        }

    got, want = results(family), results(cubes)
    assert got == want
    assert len(got["signed_averages"]) == len(got["survival_curves"]) == len(cubes)
    assert [c[0] for c in got["survival_curves"]] == cubes
