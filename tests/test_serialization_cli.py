import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import capbmo.fixtures
import capbmo.grid
import capbmo.weights
from capbmo.cli import main
from capbmo.grid import MAX_CELLS, CubeFamilyPolicy, CubeSpec, build_grid
from capbmo.serialization import (
    atomic_write_text,
    canonical_json,
    load_fixture,
    load_function,
    load_grid,
    load_set,
    parse_cube,
    parse_policy,
    report_document,
)
from capbmo.verify import survival_curves
from capbmo.serialization import curves_to_csv
from capbmo.content import ContentParams
from capbmo.grid import step_function


# ---------------------------------------------------------------- loaders


def test_load_grid_roundtrip_and_errors():
    g = load_grid({"n": 2, "depth": 3, "root_side": 4.0})
    assert g == build_grid(2, 3, 4.0)
    g2 = load_grid({"n": 1, "depth": 2, "root_side": 2.0, "origin": [-1.0]})
    assert g2.origin == (-1.0,)
    with pytest.raises(ValueError, match="missing field"):
        load_grid({"n": 2, "depth": 3})


def test_oversized_grid_is_rejected_before_allocation(files, capsys, tmp_path):
    # n=3, depth=20 would be 2**60 cells; the grid is refused from n and
    # depth alone, so none of these calls allocates anything grid-sized.
    assert build_grid(2, 10).num_cells == MAX_CELLS
    with pytest.raises(ValueError, match="MAX_CELLS"):
        build_grid(2, 11)
    huge = {"n": 3, "depth": 20, "root_side": 1.0}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_CELLS"):
            load_grid(huge)
        grid = write_json(tmp_path / "huge.json", huge)
        code, _, err = run_cli(capsys, ["content", "--grid", grid, "--set", files["set"]])
        assert code == 2 and "MAX_CELLS" in err
        # every depth is checked before the first one is computed
        fx = write_json(
            tmp_path / "fx.json",
            {
                "grid": {"n": 1, "depth": 1, "root_side": 2.0},
                "parameters": {"delta": 1.0, "n": 2, "depth_range": [3, 40]},
            },
        )
        code, _, err = run_cli(capsys, ["verify", "inclusions", "--fixture", fx])
        assert code == 2 and "depth=11" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_function_flat_and_nested():
    g = build_grid(2, 1, 1.0)
    flat = load_function({"values": [1.0, 2.0, 3.0, 4.0]}, g)
    nested = load_function({"values": [[1.0, 2.0], [3.0, 4.0]]}, g)
    assert flat.values == pytest.approx(nested.values)
    with pytest.raises(ValueError, match="values"):
        load_function({"values": [1.0, 2.0]}, g)


def test_load_set_both_forms():
    g = build_grid(2, 1, 1.0)
    by_cells = load_set({"cells": [[0, 1], [1, 1]]}, g)
    by_ind = load_set({"indicator": [0, 1, 0, 1]}, g)
    assert np.array_equal(by_cells.membership, by_ind.membership)
    with pytest.raises(ValueError):
        load_set({"indicator": [1, 0]}, g)
    with pytest.raises(ValueError, match="cells.*indicator|indicator.*cells"):
        load_set({}, g)


def test_load_fixture_and_resolvers(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(
        json.dumps(
            {
                "grid": {"n": 1, "depth": 1, "root_side": 2.0},
                "functions": {"f": {"values": [2.0, 0.0]}},
                "weights": {"w": {"values": [1.0, 1.0]}},
                "parameters": {"delta": 1.0},
                "expectations": {"bmo": 1.0},
            }
        )
    )
    fx = load_fixture(str(path))
    assert fx.grid == build_grid(1, 1, 2.0)
    assert fx.function("f").values == pytest.approx([2.0, 0.0])
    assert fx.weight("w").values == pytest.approx([1.0, 1.0])
    assert fx.parameters == {"delta": 1.0}
    assert fx.expectations == {"bmo": 1.0}
    with pytest.raises(KeyError, match="no function named 'g'"):
        fx.function("g")
    with pytest.raises(KeyError, match="available: w"):
        fx.weight("v")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"functions": {}}))
    with pytest.raises(ValueError, match="no grid"):
        load_fixture(str(bad))


def test_parse_cube():
    g = build_grid(2, 2, 4.0)
    assert parse_cube("root", g) == CubeSpec((0, 0), 4)
    assert parse_cube("1,2:2", g) == CubeSpec((1, 2), 2)
    with pytest.raises(ValueError, match="bad cube spec"):
        parse_cube("xyz", g)
    with pytest.raises(ValueError):
        parse_cube("3,3:2", g)  # sticks out of the grid


def test_parse_policy():
    assert parse_policy("dyadic") == CubeFamilyPolicy("dyadic")
    assert parse_policy("lattice", seed=7) == CubeFamilyPolicy("lattice", rng_seed=7)
    sampled = parse_policy("sampled:25", seed=3)
    assert sampled == CubeFamilyPolicy("sampled", sample_count=25, rng_seed=3)
    with pytest.raises(ValueError):
        parse_policy("grid")
    with pytest.raises(ValueError):
        parse_policy("sampled:many")


# ------------------------------------------------------- report emission


def test_atomic_write_overwrites_and_leaves_no_temps(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), "first")
    atomic_write_text(str(target), "second")
    assert target.read_text() == "second"
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".part")]
    assert leftovers == []


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [2.0, float("inf")]})
    b = canonical_json({"a": [2.0, float("inf")], "b": 1})
    assert a == b
    assert '"inf"' in a


def test_report_document_hash_and_timestamp():
    body = {"x": 1.5, "list": [1, 2]}
    doc1 = json.loads(report_document(body))
    doc2 = json.loads(report_document(body))
    assert doc1["body"] == doc2["body"]
    assert doc1["body_sha256"] == doc2["body_sha256"]
    want = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    assert doc1["body_sha256"] == want
    assert "generated_at" in doc1
    bare = report_document(body, include_timestamp=False)
    assert bare == report_document(body, include_timestamp=False)
    assert "generated_at" not in json.loads(bare)


def test_curves_to_csv_shape():
    g = build_grid(1, 1, 2.0)
    f = step_function(g, np.array([2.0, 0.0]))
    curves = survival_curves(f, [0.0], [CubeSpec((0,), 2)], None, ContentParams(delta=1.0))
    text = curves_to_csv([curves])
    curve = curves[0]
    lines = text.strip().splitlines()
    assert lines[0] == "cube_id,t,survival,normalizer"
    assert len(lines) == 1 + len(curve.t_samples)
    cube_id, t, s, norm = lines[1].split(",")
    assert float(norm) == curve.normalizer


# ----------------------------------------------------------------- CLI


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    grid = write_json(tmp_path / "grid.json", {"n": 1, "depth": 2, "root_side": 4.0})
    fn = write_json(tmp_path / "f.json", {"values": [8.0, 0.0, 0.0, 0.0]})
    wt = write_json(tmp_path / "w.json", {"values": [1.0, 1.0, 1.0, 1.0]})
    st = write_json(tmp_path / "set.json", {"cells": [[0]]})
    return {"grid": grid, "fn": fn, "wt": wt, "set": st, "dir": tmp_path}


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_content(files, capsys):
    code, out, _ = run_cli(
        capsys, ["content", "--grid", files["grid"], "--set", files["set"], "--delta", "1.0"]
    )
    assert code == 0
    assert json.loads(out)["content"] == 1.0


def test_cli_choquet_plain_and_weighted(files, capsys):
    code, out, _ = run_cli(capsys, ["choquet", "--grid", files["grid"], "--fn", files["fn"]])
    assert code == 0
    body = json.loads(out)
    assert body["integral"] == pytest.approx(8.0)
    assert body["weighted"] is False
    code, out, _ = run_cli(
        capsys,
        ["choquet", "--grid", files["grid"], "--fn", files["fn"], "--wt", files["wt"]],
    )
    assert code == 0
    assert json.loads(out)["weighted"] is True


def test_cli_choquet_overflowing_sum_is_inf(capsys, tmp_path):
    """Four layer-cake terms whose sum passes the largest float: the exact
    sum overflows, so the integral is inf, not an fsum traceback."""
    grid = write_json(tmp_path / "grid.json", {"n": 1, "depth": 2, "root_side": 4.0})
    fn = write_json(tmp_path / "f.json", {"values": [1.15e308, 1.25e308, 1.35e308, 1.45e308]})
    code, out, err = run_cli(capsys, ["choquet", "--grid", grid, "--fn", fn, "--delta", "0.2925"])
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["integral"] == "inf"


def test_cli_avg_and_seminorm(files, capsys):
    code, out, _ = run_cli(
        capsys, ["avg", "--grid", files["grid"], "--fn", files["fn"], "--cube", "root"]
    )
    assert code == 0
    assert json.loads(out)["average"] == pytest.approx(2.0)
    for kind in ("bmo", "bmo-signed", "blo"):
        code, out, _ = run_cli(
            capsys,
            ["seminorm", "--grid", files["grid"], "--fn", files["fn"], "--kind", kind],
        )
        assert code == 0
        assert json.loads(out)["value"] > 0
    code, out, _ = run_cli(
        capsys,
        [
            "seminorm", "--grid", files["grid"], "--fn", files["fn"],
            "--kind", "weighted", "--wt", files["wt"], "--q", "2.0",
        ],
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, ["seminorm", "--grid", files["grid"], "--fn", files["fn"], "--kind", "weighted"]
    )
    assert code == 2
    assert "--wt" in err


def test_cli_weight_and_czd(files, capsys):
    code, out, _ = run_cli(
        capsys, ["weight", "--grid", files["grid"], "--wt", files["fn"], "--p", "2.0"]
    )
    assert code == 2  # fn has zeros: not a valid weight
    code, out, _ = run_cli(
        capsys, ["weight", "--grid", files["grid"], "--wt", files["wt"], "--p", "1.0"]
    )
    assert code == 0
    assert json.loads(out)["constant"] == pytest.approx(1.0)
    code, out, _ = run_cli(
        capsys,
        [
            "czd", "--grid", files["grid"], "--fn", files["fn"], "--wt", files["wt"],
            "--threshold", "3.0",
        ],
    )
    assert code == 0
    body = json.loads(out)
    assert len(body["selected"]) == 1
    assert body["parent_ratios"] == [pytest.approx(2.0)]
    assert body["verification"]["passed"] is True
    code, _, err = run_cli(
        capsys,
        [
            "czd", "--grid", files["grid"], "--fn", files["fn"], "--wt", files["wt"],
            "--threshold", "0.1",
        ],
    )
    assert code == 2
    assert "root average" in err


@pytest.mark.parametrize("command", ["content", "seminorm"])
def test_cli_grid_side_read_as_inf_exits_2(files, capsys, tmp_path, command):
    """JSON reads root_side 1e400 as inf: content used to print "inf" and
    seminorm "nan", both with exit 0."""
    grid = tmp_path / "huge_side.json"
    grid.write_text('{"n": 1, "depth": 2, "root_side": 1e400}')
    flag, path = ("--set", files["set"]) if command == "content" else ("--fn", files["fn"])
    code, out, err = run_cli(capsys, [command, "--grid", str(grid), flag, path])
    assert (code, out) == (2, "")
    assert "root_side must be positive and finite" in err


@pytest.mark.parametrize("command", ["content", "seminorm", "weight"])
def test_cli_delta_underflowing_the_cell_side_exits_2(capsys, tmp_path, command):
    """(1e-170 / 4)**2 is 0: seminorm used to print "nan" and content 0.0
    (exit 0), and weight to fail its A_p invariant on a NaN product (exit 1)."""
    grid = write_json(tmp_path / "tiny.json", {"n": 2, "depth": 2, "root_side": 1e-170})
    values = write_json(tmp_path / "v.json", {"values": list(range(1, 17))})
    cell = write_json(tmp_path / "cell.json", {"cells": [[0, 0]]})
    args = {"content": ["--set", cell], "seminorm": ["--fn", values], "weight": ["--wt", values]}[command]
    code, out, err = run_cli(capsys, [command, "--grid", grid, *args, "--delta", "2"])
    assert (code, out) == (2, "")
    assert "float range" in err


def test_cli_delta_with_a_subnormal_cell_cap_exits_2(capsys, tmp_path):
    """(2**-532)**2 is subnormal, with fewer than 53 significant bits:
    content used to answer from it with exit 0."""
    grid = write_json(tmp_path / "small.json", {"n": 2, "depth": 2, "root_side": 2.0**-530})
    cell = write_json(tmp_path / "cell.json", {"cells": [[0, 0]]})
    code, out, err = run_cli(capsys, ["content", "--grid", grid, "--set", cell, "--delta", "2"])
    assert (code, out) == (2, "")
    assert "float range" in err


@pytest.mark.parametrize("q,exact", [("0.5", False), ("2", True)])
def test_cli_seminorm_reports_whether_its_centres_are_exact(files, capsys, q, exact):
    """The q < 1 dense scan may miss the minimum; the report says so."""
    argv = ["seminorm", "--grid", files["grid"], "--fn", files["fn"], "--kind", "weighted",
            "--wt", files["wt"], f"--q={q}"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["exact"] is exact


@pytest.mark.parametrize("q", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("kind", ["weighted", "blo"])
def test_cli_seminorm_bad_q_exits_2(files, capsys, kind, q):
    """q = 0 used to divide by zero, nan to print nan and inf to give 1.0
    on a constant cube (0 ** (1/inf) = 1)."""
    argv = ["seminorm", "--grid", files["grid"], "--fn", files["fn"], "--kind", kind,
            "--wt", files["wt"], f"--q={q}"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "q must be positive and finite" in err


@pytest.mark.parametrize("kind", ["weighted", "blo"])
def test_cli_seminorm_overflowing_q_exits_2(files, capsys, kind):
    """8**400 overflows: a q for which F overflows ends in exit 2, not in
    a value computed from inf and NaN."""
    argv = ["seminorm", "--grid", files["grid"], "--fn", files["fn"], "--kind", kind,
            "--wt", files["wt"], "--q=400"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "q = 400.0 is too large" in err


@pytest.mark.parametrize("q", ["-1", "0", "nan", "2"])
@pytest.mark.parametrize("kind", ["bmo", "bmo-signed"])
def test_cli_seminorm_bmo_kinds_reject_q_exits_2(files, capsys, kind, q):
    """The bmo kinds are q = 1 seminorms: another --q used to be written
    into the hashed report body with exit 0. --q 1 is the default."""
    argv = ["seminorm", "--grid", files["grid"], "--fn", files["fn"], "--kind", kind]
    code, out, err = run_cli(capsys, argv + [f"--q={q}"])
    assert (code, out) == (2, "")
    assert "--q" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, argv + ["--q=1"])
    assert code == 0 and json.loads(out) == json.loads(run_cli(capsys, argv)[1])


@pytest.mark.parametrize("p", ["inf", "nan", "0.5"])
def test_cli_weight_bad_p_exits_2(files, capsys, p):
    """p = inf used to report an A_p constant of 1.0."""
    code, out, err = run_cli(capsys, ["weight", "--grid", files["grid"], "--wt", files["wt"], f"--p={p}"])
    assert (code, out) == (2, "")
    assert "finite p > 1" in err


def test_cli_czd_nan_threshold_exits_2(files, capsys):
    """A NaN threshold used to pass the root check and fail verification (exit 1)."""
    argv = ["czd", "--grid", files["grid"], "--fn", files["fn"], "--wt", files["wt"],
            "--threshold", "nan"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "NaN" in err


@pytest.mark.parametrize("p,r,code,message", [
    ("Infinity", 0.5, 2, "need 0 < r < p < inf"),
    (1e308, 0.5, 2, "||f||_p = inf"),
    (2.0, 1e-300, 2, "left = 0.0"),
    (2.0, 1.0, 0, ""),
])
def test_cli_weak_strong_degenerate_parameters_exit_2(capsys, tmp_path, p, r, code, message):
    """p = inf and p = 1e308 used to exit 1 with right = nan (the latter
    after an overflow warning), and r = 1e-300 to pass with left = right = 0
    from underflow; the same fixture with p = 2, r = 1 passes."""
    fx = {
        "grid": {"n": 1, "depth": 3, "root_side": 0.5},
        "functions": {"f": {"values": [1.0, -2.0, 0.5, 3.0, 0.0, 1.5, -1.0, 2.0]},
                      "E": {"values": [1, 1, 0, 0, 1, 0, 0, 1]}},
        "parameters": {"delta": 0.5, "p": p, "r": r},
    }
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fx).replace('"Infinity"', "Infinity"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(capsys, ["verify", "weak-strong", "--fixture", str(path)])
    assert got == code and message in err
    assert ("PASS" in out) == (code == 0)


@pytest.mark.parametrize("r,code", [(1e-300, 2), (1e-15, 2), (1e-8, 2), (0.5, 0)])
def test_cli_weak_strong_rounding_decided_r_exits_2(capsys, tmp_path, r, code):
    """With content(E) = 1 the check used to pass at r = 1e-300 with
    left = 1.0, where (Mf)**r rounds to 1, and at r = 1e-15 with sides
    12.20 against 10.33, where r = 1e-6 gives 10.33; such r now exit 2."""
    fx = {
        "grid": {"n": 1, "depth": 3, "root_side": 1.0},
        "functions": {"f": {"values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]}, "E": {"values": [1] * 8}},
        "parameters": {"delta": 0.5, "p": 2.0, "r": r},
    }
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fx))
    got, out, err = run_cli(capsys, ["verify", "weak-strong", "--fixture", str(path)])
    assert got == code and ("too small" in err) == (code == 2)
    assert ("PASS" in out) == (code == 0)


def test_cli_verify_single_and_multi(files, capsys, tmp_path):
    fx = write_json(
        tmp_path / "fx.json",
        {
            "grid": {"n": 1, "depth": 2, "root_side": 4.0},
            "functions": {"f": {"values": [8.0, 0.0, 1.0, 3.0]}},
            "weights": {"w": {"values": [1.0, 2.0, 1.0, 0.5]}},
            "parameters": {"delta": 1.0, "seed": 11},
        },
    )
    out_path = tmp_path / "report.json"
    curves_path = tmp_path / "curves.csv"
    code, out, _ = run_cli(
        capsys,
        ["verify", "jn-bmo", "--fixture", fx, "--out", str(out_path), "--curves", str(curves_path)],
    )
    assert code == 0
    assert "john-nirenberg" in out
    doc = json.loads(out_path.read_text())
    assert doc["body"]["passed"] is True
    assert doc["body"]["seed"] == 11
    assert curves_path.read_text().startswith("cube_id,t,survival,normalizer")

    code, out, _ = run_cli(
        capsys, ["verify", "equiv", "--fixture", fx, "--fixture", fx, "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert isinstance(doc["body"], list) and len(doc["body"]) == 2


MALFORMED = [
    pytest.param("jn-bmo", {"parameters": {"delta": None}}, "'delta'", id="delta-null"),
    pytest.param("jn-weighted", {"parameters": {"q": None}}, "'q'", id="q-null"),
    pytest.param("thm-bmo-ap", {"parameters": {"p": None}}, "'p'", id="p-null"),
    pytest.param("factorization", {"parameters": {"alpha": None}}, "'alpha'", id="alpha-null"),
    pytest.param("inclusions", {"parameters": {"n": None}}, "'n'", id="n-null"),
    pytest.param("jn-weighted", {"parameters": {"q": [1.0]}}, "'q'", id="q-list"),
    pytest.param("thm-bmo-ap", {"parameters": {"reverse_family": "log_abs", "depths": 3}}, "'depths'",
                 id="depths-number"),
    pytest.param("thm-blo-a1", {"parameters": {"reverse_family": "log_abs", "gamma_grid": 0.5}}, "'gamma_grid'",
                 id="gamma_grid-number"),
    pytest.param("inclusions", {"parameters": {"depth_range": 3}}, "'depth_range'", id="depth_range-number"),
    pytest.param("equiv", {"parameters": {"q_list": 2}}, "'q_list'", id="q_list-number"),
    pytest.param("equiv", {"parameters": {"q_list": [None]}}, "'q_list'", id="q_list-null-item"),
    pytest.param("jn-bmo", {"grid": {"n": 1, "depth": 2, "root_side": None}}, "'root_side'", id="root_side-null"),
    pytest.param("jn-bmo", {"grid": {"n": 1, "depth": 2, "root_side": 4.0, "origin": 5}}, "'origin'",
                 id="origin-number"),
    pytest.param("jn-bmo", {"functions": {"f": [8.0, 1.0, 2.0, 3.0]}}, "'f'", id="function-list"),
    pytest.param("jn-bmo", {"parameters": 5}, "parameters", id="parameters-number"),
]


@pytest.mark.parametrize("check,change,field", MALFORMED)
def test_cli_verify_malformed_fixture_types_exit_2(capsys, tmp_path, check, change, field):
    """A field of the wrong JSON type is a usage error naming the field
    (exit 2), not a TypeError traceback (exit 1, the failed-check code)."""
    fx = {
        "grid": {"n": 1, "depth": 2, "root_side": 4.0},
        "functions": {name: {"values": [8.0, 1.0, 2.0, 3.0]} for name in ("f", "g1", "b")},
        "weights": {"w": {"values": [1.0, 2.0, 1.0, 0.5]}},
        "parameters": {},
    }
    fx.update(change)
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fx))
    code, out, err = run_cli(capsys, ["verify", check, "--fixture", str(path)])
    assert (code, out) == (2, "")
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("command,flag,obj,field", [
    pytest.param("choquet", "--fn", [1.0, 2.0, 3.0, 4.0], "'values'", id="function-list"),
    pytest.param("choquet", "--fn", {"values": {"a": 1.0}}, "'values'", id="values-object"),
    pytest.param("content", "--set", {"cells": 5}, "'cells'", id="cells-number"),
    pytest.param("content", "--set", {"cells": [[0], 5]}, "'cells'", id="cell-number"),
    pytest.param("content", "--set", {"indicator": {"a": 1}}, "'indicator'", id="indicator-object"),
    pytest.param("content", "--set", 7, "'cells'", id="set-number"),
])
def test_cli_malformed_function_and_set_files_exit_2(files, capsys, command, flag, obj, field):
    """The point commands' function and set files: a field of the wrong
    JSON type is a usage error naming the field (exit 2), not a traceback."""
    path = write_json(files["dir"] / "bad.json", obj)
    code, out, err = run_cli(capsys, [command, "--grid", files["grid"], flag, path])
    assert (code, out) == (2, "")
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("cell", [9, -1, 4])
def test_cli_set_cell_outside_the_grid_exits_2(files, capsys, cell):
    """A set file cell past either end of the 4-cell grid used to end in
    an IndexError traceback with exit 1."""
    path = write_json(files["dir"] / "outside.json", {"cells": [[0], [cell]]})
    code, out, err = run_cli(capsys, ["content", "--grid", files["grid"], "--set", path])
    assert (code, out) == (2, "")
    assert f"cell [{cell}] lies outside the grid" in err and "Traceback" not in err


def test_cli_verify_failure_exit_code(files, capsys, tmp_path, monkeypatch):
    fx = write_json(
        tmp_path / "fx.json",
        {
            "grid": {"n": 1, "depth": 1, "root_side": 2.0},
            "parameters": {"delta": 1.0, "n": 1, "depth_range": [3, 4]},
        },
    )
    monkeypatch.setattr(
        capbmo.fixtures,
        "INCLUSION_THRESHOLDS",
        dict(capbmo.fixtures.INCLUSION_THRESHOLDS, bmo_pos_max=1e-9),
    )
    code, out, _ = run_cli(capsys, ["verify", "inclusions", "--fixture", fx])
    assert code == 1
    assert "FAIL" in out or "passed=False" in out or "false" in out.lower()


def test_cli_rejects_one_depth_and_oversized_lattice_families(capsys, tmp_path, monkeypatch):
    fx = write_json(
        tmp_path / "fx.json",
        {
            "grid": {"n": 1, "depth": 1, "root_side": 2.0},
            "parameters": {"delta": 1.0, "n": 1, "depth_range": [3, 3]},
        },
    )
    code, out, err = run_cli(capsys, ["verify", "inclusions", "--fixture", fx])
    assert (code, out) == (2, "") and "at least two strictly increasing depths" in err

    def built(grid):
        raise AssertionError("the lattice family was built")

    # 2,098,176 lattice cubes on 2,048 cells: refused before it is built
    monkeypatch.setattr(capbmo.grid, "lattice_cubes", built)
    grid = write_json(tmp_path / "grid11.json", {"n": 1, "depth": 11, "root_side": 1.0})
    fn = write_json(tmp_path / "f11.json", {"values": [0.0] * 2048})
    code, out, err = run_cli(capsys, ["seminorm", "--grid", grid, "--fn", fn, "--family", "lattice"])
    assert (code, out) == (2, "") and "2098176 cubes" in err and "MAX_CELLS" in err


def test_cli_verify_error_paths(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["verify", "jn-bmo", "--fixture", "missing.json"])
    assert code == 2
    assert "missing" in err
    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"grid": ')
    code, _, err = run_cli(capsys, ["verify", "jn-bmo", "--fixture", str(mangled)])
    assert code == 2
    assert "line" in err and "column" in err


def test_cli_reproduce(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["reproduce"])
    assert code == 0
    assert "MISMATCH" not in out
    code, out, _ = run_cli(capsys, ["reproduce", "remark-average", "--delta", "1"])
    assert code == 0
    assert "-0.875" in out  # the delta = 1 signed average is -7/8
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, ["reproduce", "gamma-interval", "--out", str(out_path)])
    assert code == 0
    rows = json.loads(out_path.read_text())["body"]["rows"]
    assert all(r["ok"] for r in rows)
    assert {r["quantity"] for r in rows} == {
        "plateau lower end", "plateau upper end", "minimum value",
    }
    code, _, _ = run_cli(capsys, ["reproduce", "everything"])
    assert code == 2


def test_cli_help_and_usage_errors(capsys, files):
    assert run_cli(capsys, ["--help"])[0] == 0
    for sub in ("content", "choquet", "avg", "seminorm", "weight", "czd", "verify", "reproduce"):
        assert run_cli(capsys, [sub, "--help"])[0] == 0
    assert run_cli(capsys, ["content", "--grid", files["grid"], "--bogus"])[0] == 2
    assert run_cli(capsys, ["nonsense"])[0] == 2


def test_cli_reports_are_byte_identical_across_runs(files, capsys, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["seminorm", "--grid", files["grid"], "--fn", files["fn"], "--kind", "bmo"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["body"] == d2["body"]
    assert d1["body_sha256"] == d2["body_sha256"]
    assert canonical_json(d1["body"]) == canonical_json(d2["body"])


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "capbmo.cli", "reproduce", "remark-average"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "remark-average" in proc.stdout


def test_cli_invariant_violation_exits_1_with_witness(files, capsys, monkeypatch):
    monkeypatch.setattr(
        capbmo.weights,
        "cube_averages",
        lambda grid, arrays, cubes, params: np.full((len(cubes), len(arrays)), 0.5),
    )
    code, out, err = run_cli(
        capsys, ["weight", "--grid", files["grid"], "--wt", files["wt"], "--p", "2.0"]
    )
    assert code == 1
    assert out == ""
    message, witness = err.strip().splitlines()
    assert message.startswith("invariant violated: A_p product 0.25 < 1")
    assert json.loads(witness) == {
        "avg_dual": 0.5, "avg_w": 0.5, "cube": "0:4", "p": 2.0, "product": 0.25
    }


def test_oversized_sample_count_is_rejected_before_allocation(files, capsys, tmp_path):
    # a sampled family draws sample_count cubes; at most MAX_CELLS are allowed
    assert CubeFamilyPolicy("sampled", sample_count=MAX_CELLS).sample_count == MAX_CELLS
    assert parse_policy(f"sampled:{MAX_CELLS}") == CubeFamilyPolicy("sampled", sample_count=MAX_CELLS)
    for count in (0, -1, MAX_CELLS + 1):
        with pytest.raises(ValueError, match="MAX_CELLS"):
            CubeFamilyPolicy("sampled", sample_count=count)
    huge = f"sampled:{10**18}"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_CELLS"):
            parse_policy(f"sampled:{MAX_CELLS + 1}")
        code, _, err = run_cli(
            capsys, ["seminorm", "--grid", files["grid"], "--fn", files["fn"], "--family", huge]
        )
        assert code == 2 and "MAX_CELLS" in err
        fx = write_json(
            tmp_path / "fx.json",
            {
                "grid": {"n": 1, "depth": 2, "root_side": 4.0},
                "functions": {"f": {"values": [8.0, 0.0, 0.0, 0.0]}},
                "parameters": {"delta": 1.0, "family": huge},
            },
        )
        code, _, err = run_cli(capsys, ["verify", "jn-bmo", "--fixture", fx])
        assert code == 2 and "MAX_CELLS" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
