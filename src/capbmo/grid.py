"""Dyadic grids, cell sets, step functions, cubes and cube families.

The root cube [origin, origin + root_side)^n is split into 2**depth
half-open cells per axis. Cells are addressed by integer multi-indices
(one index per axis, row-major flattening) and every function or set in
this package is constant on cells. Working with half-open cells keeps
index arithmetic exact; geometry that is stated for left-open cubes
elsewhere maps onto this convention by the reflection x -> root_side - x,
under which contents and integrals are invariant.

A cube family is one ``CubeFamily`` of corner and side arrays from
``enumerate_cubes``, which builds it with array operations, to the reports;
a ``CubeSpec`` is made only where one cube is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "DyadicSet",
    "StepFunction",
    "CubeSpec",
    "CubeFamilyPolicy",
    "build_grid",
    "set_from_cells",
    "enumerate_cubes",
    "level_set",
    "step_function",
    "step_function_from_callable",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


# Largest number of cells a grid may have: 2**20, that is depth 20 in
# 1-D, 10 in 2-D and 6 in 3-D. One float64 array over such a grid takes
# 8 MB and the integrator's work arrays for one job a few tens of MB, so
# a grid read from a file cannot ask for more memory than that.
MAX_CELLS = 1 << 20


@dataclass(frozen=True)
class Grid:
    """Uniform dyadic mesh of 2**depth half-open cells per axis, at most
    MAX_CELLS cells in all."""

    n: int
    depth: int
    root_side: float
    origin: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        # compare exponents: 2**(n*depth) itself may be too large to build
        if self.n * self.depth > MAX_CELLS.bit_length() - 1:
            raise ValueError(
                f"a grid of n={self.n}, depth={self.depth} has 2**{self.n * self.depth} cells;"
                f" the limit is MAX_CELLS = {MAX_CELLS}"
            )
        if not 0 < self.root_side < np.inf:
            raise ValueError("root_side must be positive and finite")
        origin = tuple(float(x) for x in self.origin)
        if len(origin) != self.n or not np.isfinite(origin).all():
            raise ValueError("origin must have one finite coordinate per axis")
        object.__setattr__(self, "root_side", float(self.root_side))
        object.__setattr__(self, "origin", origin)

    @property
    def cells_per_axis(self) -> int:
        return 1 << self.depth

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.n

    @property
    def num_cells(self) -> int:
        return self.cells_per_axis**self.n

    @property
    def cell_side(self) -> float:
        return self.root_side / self.cells_per_axis

    def cell_centers(self) -> np.ndarray:
        """Coordinates of all cell centers, shape (num_cells, n), row-major."""
        axes = [
            self.origin[a] + (np.arange(self.cells_per_axis) + 0.5) * self.cell_side
            for a in range(self.n)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def flat_index(self, cell: tuple[int, ...]) -> int:
        if len(cell) != self.n:
            raise ValueError("cell index must have one entry per axis")
        idx = 0
        for c in cell:
            c = int(c)
            if not 0 <= c < self.cells_per_axis:
                raise IndexError(f"cell index {cell} out of range")
            idx = idx * self.cells_per_axis + c
        return idx


@dataclass(frozen=True)
class DyadicSet:
    """A union of grid cells, stored as a flat boolean membership array."""

    grid: Grid
    membership: np.ndarray = field(repr=False)

    def __post_init__(self):
        mem = np.asarray(self.membership, dtype=bool).ravel()
        if mem.size != self.grid.num_cells:
            raise ValueError("membership length must equal the cell count")
        object.__setattr__(self, "membership", _frozen(mem))

    @property
    def mask(self) -> np.ndarray:
        return self.membership.reshape(self.grid.shape)

    def is_empty(self) -> bool:
        return not bool(self.membership.any())

    def union(self, other: "DyadicSet") -> "DyadicSet":
        self._check_same_grid(other)
        return DyadicSet(self.grid, self.membership | other.membership)

    def intersect(self, other: "DyadicSet") -> "DyadicSet":
        self._check_same_grid(other)
        return DyadicSet(self.grid, self.membership & other.membership)

    def complement(self) -> "DyadicSet":
        return DyadicSet(self.grid, ~self.membership)

    def _check_same_grid(self, other: "DyadicSet") -> None:
        if other.grid != self.grid:
            raise ValueError("sets live on different grids")


@dataclass(frozen=True)
class StepFunction:
    """A function constant on grid cells, one finite value per cell."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if vals.size != self.grid.num_cells:
            raise ValueError("values length must equal the cell count")
        if not np.isfinite(vals).all():
            raise ValueError("all step function values must be finite")
        object.__setattr__(self, "values", _frozen(vals))

    def with_values(self, values) -> "StepFunction":
        return StepFunction(self.grid, values)


@dataclass(frozen=True)
class CubeSpec:
    """An axis-aligned cube of whole cells: corner indices plus a side."""

    corner: tuple[int, ...]
    side_cells: int

    def __post_init__(self):
        object.__setattr__(self, "corner", tuple(int(c) for c in self.corner))
        object.__setattr__(self, "side_cells", int(self.side_cells))
        if self.side_cells < 1:
            raise ValueError("side_cells must be positive")
        if any(c < 0 for c in self.corner):
            raise ValueError("corner indices must be non-negative")

    def validate(self, grid: Grid) -> None:
        if len(self.corner) != grid.n:
            raise ValueError("cube corner dimension does not match the grid")
        hi = grid.cells_per_axis
        if any(c + self.side_cells > hi for c in self.corner):
            raise ValueError(f"cube {self} does not fit inside the grid")

    def is_dyadic(self) -> bool:
        s = self.side_cells
        if s & (s - 1):
            return False
        return all(c % s == 0 for c in self.corner)

    def side_length(self, grid: Grid) -> float:
        return self.side_cells * grid.cell_side

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(c, c + self.side_cells) for c in self.corner)

    def mask(self, grid: Grid) -> np.ndarray:
        """Flat boolean membership of the cube's cells in the grid."""
        self.validate(grid)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[self.slices()] = True
        return mask.ravel()

    def contains_cell(self, cell: tuple[int, ...]) -> bool:
        return all(
            c <= x < c + self.side_cells for c, x in zip(self.corner, cell)
        )

    def cube_id(self) -> str:
        return ",".join(str(c) for c in self.corner) + f":{self.side_cells}"

    @staticmethod
    def root(grid: Grid) -> "CubeSpec":
        return CubeSpec((0,) * grid.n, grid.cells_per_axis)


class CubeFamily(Sequence):
    """A cube family as arrays: corner cell indices (N, n) and sides (N,),
    int64. As a sequence it holds CubeSpecs, each made when it is read."""

    __slots__ = ("corners", "sides")

    def __init__(self, corners, sides):
        self.corners = np.asarray(corners, dtype=np.int64)
        self.sides = np.asarray(sides, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.sides)

    def __getitem__(self, i) -> CubeSpec:
        return CubeSpec(self.corners[i].tolist(), self.sides[i])

    def __iter__(self):
        return map(CubeSpec, self.corners.tolist(), self.sides.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    @classmethod
    def of(cls, cubes) -> "CubeFamily":
        """The family of a CubeSpec sequence; a CubeFamily passes through."""
        if isinstance(cubes, CubeFamily):
            return cubes
        try:
            corners = np.array([Q.corner for Q in cubes], dtype=np.int64)
        except ValueError:  # ragged: some corner has another dimension
            raise ValueError("cube corner dimension does not match the grid") from None
        return cls(corners, [Q.side_cells for Q in cubes])


@dataclass(frozen=True)
class CubeFamilyPolicy:
    """How to discretize "all cubes": dyadic, full lattice, or sampled."""

    kind: str = "dyadic"
    sample_count: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("dyadic", "lattice", "sampled"):
            raise ValueError(f"unknown cube family kind {self.kind!r}")
        if self.kind == "sampled" and not 1 <= self.sample_count <= MAX_CELLS:
            raise ValueError(f"sampled policy needs a sample_count from 1 to MAX_CELLS = {MAX_CELLS}")


def build_grid(n: int, depth: int, root_side: float = 1.0, origin=None) -> Grid:
    """Construct a grid; origin defaults to the zero vector."""
    if origin is None:
        origin = (0.0,) * n
    return Grid(n=n, depth=depth, root_side=root_side, origin=tuple(origin))


def step_function(grid: Grid, values) -> StepFunction:
    return StepFunction(grid, values)


def step_function_from_callable(grid: Grid, fn) -> StepFunction:
    """Sample fn at cell centers. fn maps an (m, n) coordinate array to m values."""
    return StepFunction(grid, np.asarray(fn(grid.cell_centers()), dtype=np.float64))


def set_from_cells(grid: Grid, cells) -> DyadicSet:
    """Set with membership exactly on the listed cells; duplicates collapse."""
    membership = np.zeros(grid.num_cells, dtype=bool)
    for cell in cells:
        if np.isscalar(cell):
            cell = (cell,)
        membership[grid.flat_index(tuple(cell))] = True
    return DyadicSet(grid, membership)


def full_set(grid: Grid) -> DyadicSet:
    return DyadicSet(grid, np.ones(grid.num_cells, dtype=bool))


def empty_set(grid: Grid) -> DyadicSet:
    return DyadicSet(grid, np.zeros(grid.num_cells, dtype=bool))


def cube_set(grid: Grid, cube: CubeSpec) -> DyadicSet:
    return DyadicSet(grid, cube.mask(grid))


def dyadic_subcubes(corner, side: int) -> CubeFamily:
    """Every dyadic subcube of the cube (corner, side), side a power of two:
    level by level from the cube itself down to single cells, each level
    in row-major order of position, so in corner order."""
    n, levels = len(corner), range(side.bit_length())
    sides = np.repeat(side >> np.arange(len(levels)), [1 << (n * L) for L in levels])
    pos = np.concatenate([np.indices((1 << L,) * n).reshape(n, -1).T for L in levels])
    return CubeFamily(np.asarray(corner) + pos * sides[:, None], sides)


def dyadic_cubes(grid: Grid) -> CubeFamily:
    """All dyadic subcubes of the root, coarsest level first."""
    return dyadic_subcubes((0,) * grid.n, grid.cells_per_axis)


def lattice_cubes(grid: Grid) -> CubeFamily:
    """Every cube of whole cells, by side and then row-major by corner."""
    N, n = grid.cells_per_axis, grid.n
    corners = [np.indices((N - s + 1,) * n).reshape(n, -1).T for s in range(1, N + 1)]
    return CubeFamily(np.concatenate(corners), np.repeat(np.arange(1, N + 1), [len(c) for c in corners]))


def _lattice_count(grid: Grid) -> int:
    """Cubes of lattice_cubes: the sum of k**n over k = 1..N, in closed form."""
    N = grid.cells_per_axis
    s = N * (N + 1) // 2
    return (s, s * (2 * N + 1) // 3, s * s)[grid.n - 1]


def enumerate_cubes(grid: Grid, policy: CubeFamilyPolicy) -> CubeFamily:
    """Cube family for the policy; deterministic for a fixed seed. A lattice
    family of more than MAX_CELLS cubes is rejected before it is built."""
    if policy.kind == "dyadic":
        return dyadic_cubes(grid)
    if policy.kind == "lattice":
        if (count := _lattice_count(grid)) > MAX_CELLS:
            raise ValueError(f"the lattice family of this grid has {count} cubes;"
                             f" the limit is MAX_CELLS = {MAX_CELLS}")
        return lattice_cubes(grid)
    base = dyadic_cubes(grid)
    N = grid.cells_per_axis
    # Uniform draw over the lattice family without materializing it: a draw
    # numbers the lattice cubes side by side, so its side is the first whose
    # running cube count exceeds it, and its rank among that side's cubes,
    # in base N - side + 1, gives the corner, most significant digit first.
    per_axis = np.arange(N, 0, -1, dtype=np.int64)  # N - side + 1 for side 1..N
    cum = np.cumsum(per_axis**grid.n)
    rng = np.random.default_rng(policy.rng_seed)
    draws = rng.integers(0, int(cum[-1]), size=policy.sample_count)
    k = np.searchsorted(cum, draws, side="right")  # side - 1
    rank = draws - np.append(0, cum)[k]
    corners = np.empty((len(draws), grid.n), dtype=np.int64)
    for axis in range(grid.n - 1, -1, -1):
        rank, corners[:, axis] = np.divmod(rank, per_axis[k])
    return CubeFamily(np.concatenate([base.corners, corners]), np.concatenate([base.sides, k + 1]))


def level_set(f: StepFunction, comparator: str, threshold: float) -> DyadicSet:
    """Cells whose value satisfies the comparison; exact, no tolerance."""
    ops = {
        ">": np.greater,
        ">=": np.greater_equal,
        "<": np.less,
        "<=": np.less_equal,
        "≥": np.greater_equal,
        "≤": np.less_equal,
    }
    if comparator not in ops:
        raise ValueError(f"unknown comparator {comparator!r}")
    return DyadicSet(f.grid, ops[comparator](f.values, threshold))
