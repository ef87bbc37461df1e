"""JSON fixture loading and deterministic report emission.

JSON is the source of truth for artifacts; CSV is derived plotting data.
Report bodies are canonical (sorted keys, fixed separators) so identical
inputs produce byte-identical files; the timestamp lives outside the
hashed body.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .grid import CubeFamilyPolicy, CubeSpec, DyadicSet, Grid, StepFunction, build_grid, set_from_cells
from .reports import to_jsonable

__all__ = [
    "Fixture",
    "load_grid",
    "load_function",
    "load_set",
    "load_fixture",
    "parse_cube",
    "parse_policy",
    "atomic_write_text",
    "report_document",
    "curves_to_csv",
]


@dataclass(frozen=True)
class Fixture:
    grid: Grid
    functions: dict[str, StepFunction] = field(default_factory=dict)
    weights: dict[str, StepFunction] = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    expectations: dict = field(default_factory=dict)

    def function(self, name: str) -> StepFunction:
        return _resolve(self.functions, name, "function")

    def weight(self, name: str) -> StepFunction:
        return _resolve(self.weights, name, "weight")


def _resolve(table: dict, name: str, kind: str) -> StepFunction:
    if not isinstance(name, str) or name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise KeyError(f"fixture has no {kind} named {name!r} (available: {known})")
    return table[name]


def read_field(obj: dict, key: str, convert, default=None, where: str = "grid file"):
    """convert(obj[key]), or convert(default) when obj has no key. A missing
    field without a default, or a value of a type or form convert rejects,
    is a ValueError naming the field."""
    if not isinstance(obj, dict) or (key not in obj and default is None):
        raise ValueError(f"{where} is missing field {key!r}")
    value = obj.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where} field {key!r} has a bad value {value!r}") from None


def list_of(convert, length: int | None = None):
    """A converter of a JSON list (of the given length) whose items each pass convert."""

    def read(value) -> list:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            raise TypeError(f"not a list of {length or 'any'} items")
        return [convert(x) for x in value]

    return read


def load_grid(obj: dict) -> Grid:
    n = read_field(obj, "n", int)
    return build_grid(n, read_field(obj, "depth", int), read_field(obj, "root_side", float),
                      origin=read_field(obj, "origin", list_of(float, n), (0.0,) * n))


def _floats(value) -> np.ndarray:
    """A JSON number array, of any nesting, as floats."""
    return np.asarray(value, dtype=float)


def load_function(obj: dict, grid: Grid) -> StepFunction:
    values = read_field(obj, "values", _floats, where="function")
    if values.shape == grid.shape:
        values = values.ravel()
    if values.shape != (grid.num_cells,):
        raise ValueError(
            f"function has {values.size} values; grid needs {grid.num_cells}"
        )
    return StepFunction(grid, values)


def load_set(obj: dict, grid: Grid) -> DyadicSet:
    obj = obj if isinstance(obj, dict) else {}
    if "cells" in obj:
        cells = read_field(obj, "cells", list_of(list_of(int)), where="set file")
        for cell in cells:
            if not all(0 <= c < grid.cells_per_axis for c in cell):
                raise ValueError(f"set file cell {cell} lies outside the grid")
        return set_from_cells(grid, [tuple(cell) for cell in cells])
    if "indicator" in obj:
        vals = read_field(obj, "indicator", _floats, where="set file").ravel()
        if vals.shape != (grid.num_cells,):
            raise ValueError("indicator length does not match the grid")
        return DyadicSet(grid, vals != 0)
    raise ValueError("set file needs either 'cells' or 'indicator'")


def load_fixture(path: str) -> Fixture:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "grid" not in obj:
        raise ValueError(f"fixture {path} has no grid")
    grid = load_grid(obj["grid"])

    def table(key):
        return read_field(obj, key, _object, {}, f"fixture {path}")

    def loaded(key):
        specs = table(key)
        return {name: load_function(read_field(specs, name, _object, where=key), grid) for name in specs}

    return Fixture(grid=grid, functions=loaded("functions"), weights=loaded("weights"),
                   parameters=table("parameters"), expectations=table("expectations"))


def _object(value) -> dict:
    """A JSON object as a dict."""
    if not isinstance(value, dict):
        raise TypeError("not an object")
    return dict(value)


def parse_cube(text: str, grid: Grid) -> CubeSpec:
    """Cube strings: 'root' or 'i,j:side' in cell coordinates."""
    if text == "root":
        return CubeSpec.root(grid)
    try:
        corner_part, side_part = text.rsplit(":", 1)
        corner = tuple(int(c) for c in corner_part.split(","))
        cube = CubeSpec(corner, int(side_part))
    except (ValueError, IndexError) as e:
        raise ValueError(f"bad cube spec {text!r}; expected 'i,j:side' or 'root'") from e
    cube.validate(grid)
    return cube


def parse_policy(text: str, seed: int = 0) -> CubeFamilyPolicy:
    """Family strings: 'dyadic', 'lattice', or 'sampled:N'."""
    if text in ("dyadic", "lattice"):
        return CubeFamilyPolicy(kind=text, rng_seed=seed)
    if text.startswith("sampled:"):
        count = int(text.split(":", 1)[1])
        return CubeFamilyPolicy(kind="sampled", sample_count=count, rng_seed=seed)
    raise ValueError(f"unknown cube family {text!r}")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def report_document(body, include_timestamp: bool = True) -> str:
    """Canonical report JSON: the body is deterministic and hashed; the
    timestamp sits outside it."""
    body_text = canonical_json(body)
    doc = {
        "body": json.loads(body_text),
        "body_sha256": hashlib.sha256(body_text.encode()).hexdigest(),
    }
    if include_timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def curves_to_csv(families) -> str:
    """One CSV row per sample of every curve of each SurvivalCurves in turn,
    read from its flat arrays."""
    lines = ["cube_id,t,survival,normalizer"]
    for curves in families:  # each cube's id and normaliser formatted once
        head, tail = [f"{Q.cube_id()}," for Q in curves.family], [f",{n!r}" for n in curves.normalizers.tolist()]
        rows = zip(curves.owners().tolist(), curves.samples.tolist(), curves.survival.tolist())
        lines += [f"{head[i]}{t!r},{s!r}{tail[i]}" for i, t, s in rows]
    return "\n".join(lines) + "\n"
