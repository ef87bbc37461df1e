import numpy as np
import pytest

from capbmo.grid import (
    CubeFamilyPolicy,
    CubeSpec,
    DyadicSet,
    build_grid,
    cube_set,
    dyadic_cubes,
    empty_set,
    enumerate_cubes,
    full_set,
    lattice_cubes,
    level_set,
    set_from_cells,
    step_function,
    step_function_from_callable,
)


def test_grid_geometry():
    g = build_grid(2, 3, 4.0, origin=(-2.0, -2.0))
    assert g.cells_per_axis == 8
    assert g.num_cells == 64
    assert g.shape == (8, 8)
    assert g.cell_side == 0.5
    centers = g.cell_centers()
    assert centers.shape == (64, 2)
    assert centers[0] == pytest.approx([-1.75, -1.75])
    assert centers[-1] == pytest.approx([1.75, 1.75])


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(4, 2, 1.0)
    with pytest.raises(ValueError):
        build_grid(2, -1, 1.0)
    with pytest.raises(ValueError):
        build_grid(2, 2, 0.0)


@pytest.mark.parametrize("root_side,origin", [
    (np.inf, (0.0, 0.0)), (np.nan, (0.0, 0.0)), (1.0, (np.inf, 0.0)), (1.0, (0.0, np.nan)),
])
def test_grid_geometry_must_be_finite(root_side, origin):
    """A root_side of 1e400 reads as inf and used to give an inf content
    and a NaN seminorm with exit 0; the origin places cell centres."""
    with pytest.raises(ValueError, match="finite"):
        build_grid(2, 2, root_side, origin)


def test_step_function_requires_finite_values():
    g = build_grid(1, 1, 1.0)
    with pytest.raises(ValueError):
        step_function(g, [1.0, np.nan])
    with pytest.raises(ValueError):
        step_function(g, [1.0])


def test_step_function_from_callable_uses_centers():
    g = build_grid(1, 2, 4.0)
    f = step_function_from_callable(g, lambda x: 2 * x[..., 0])
    assert f.values == pytest.approx([1.0, 3.0, 5.0, 7.0])


def test_sets_and_operations():
    g = build_grid(2, 1, 1.0)
    a = set_from_cells(g, [(0, 0), (0, 1), (0, 0)])
    b = set_from_cells(g, [(0, 1), (1, 1)])
    assert a.membership.sum() == 2
    assert (a.union(b)).membership.sum() == 3
    assert (a.intersect(b)).membership.sum() == 1
    assert (a.complement()).membership.sum() == 2
    assert empty_set(g).is_empty()
    assert full_set(g).membership.all()
    with pytest.raises(IndexError):
        set_from_cells(g, [(2, 0)])


def test_set_membership_is_read_only():
    g = build_grid(1, 1, 1.0)
    s = full_set(g)
    with pytest.raises(ValueError):
        s.membership[0] = False


def test_level_set_comparators():
    g = build_grid(1, 2, 4.0)
    f = step_function(g, [1.0, 2.0, 3.0, 4.0])
    assert level_set(f, ">=", 3.0).membership.sum() == 2
    assert level_set(f, ">", 3.0).membership.sum() == 1
    assert level_set(f, "<", 2.0).membership.sum() == 1
    assert level_set(f, "<=", 2.0).membership.sum() == 2
    with pytest.raises(ValueError):
        level_set(f, "==", 1.0)


def test_cube_spec_basics():
    g = build_grid(2, 2, 4.0)
    q = CubeSpec((2, 0), 2)
    q.validate(g)
    assert q.is_dyadic()
    assert q.side_length(g) == 2.0
    assert q.cube_id() == "2,0:2"
    assert q.contains_cell((3, 1))
    assert not q.contains_cell((1, 1))
    assert CubeSpec.root(g) == CubeSpec((0, 0), 4)
    assert not CubeSpec((1, 0), 2).is_dyadic()
    with pytest.raises(ValueError):
        CubeSpec((3, 3), 2).validate(g)


def test_cube_set_matches_slices():
    g = build_grid(2, 2, 4.0)
    q = CubeSpec((1, 2), 2)
    s = cube_set(g, q)
    mask = np.zeros(g.shape, dtype=bool)
    mask[1:3, 2:4] = True
    assert np.array_equal(s.membership, mask.ravel())


def test_dyadic_cubes_count_and_order():
    g = build_grid(2, 2, 1.0)
    cubes = dyadic_cubes(g)
    assert len(cubes) == 1 + 4 + 16
    assert cubes[0] == CubeSpec.root(g)
    sides = [c.side_cells for c in cubes]
    assert sides == sorted(sides, reverse=True)
    assert all(c.is_dyadic() for c in cubes)


def test_lattice_cubes_count():
    g = build_grid(1, 2, 1.0)
    cubes = lattice_cubes(g)
    # side s has N - s + 1 placements per axis
    assert len(cubes) == 4 + 3 + 2 + 1


def test_enumerate_cubes_policies():
    g = build_grid(2, 2, 1.0)
    dy = enumerate_cubes(g, CubeFamilyPolicy(kind="dyadic"))
    assert len(dy) == 21
    lat = enumerate_cubes(g, CubeFamilyPolicy(kind="lattice"))
    assert len(lat) == 16 + 9 + 4 + 1
    assert set(dy) <= set(lat)
    sam = enumerate_cubes(g, CubeFamilyPolicy(kind="sampled", sample_count=5, rng_seed=1))
    assert len(set(sam)) >= 21
    assert set(dy) <= set(sam)
    again = enumerate_cubes(g, CubeFamilyPolicy(kind="sampled", sample_count=5, rng_seed=1))
    assert sam == again
    with pytest.raises(ValueError):
        CubeFamilyPolicy(kind="sampled")
    with pytest.raises(ValueError):
        CubeFamilyPolicy(kind="diagonal")
