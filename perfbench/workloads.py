"""Inputs, tasks and output checks of the three benchmark workloads.

Every task calls capbmo through its public API (top-level names of the
``capbmo`` package) or through ``capbmo.cli.main``, looked up at call
time so that the tracer's wrappers see the call. Inputs are made here
from the workload seed; the package only receives the generated grids,
functions and fixture files.

Why these workloads:

- ``oscillation_log``: thousands of 1-4-job integrator calls per
  seminorm, so per-call overhead dominates and family-level batching
  shows here.
- ``content_bulk``: one or two integrator calls per task with hundreds
  to thousands of threshold rows, so the dense rows and the tree
  reduction dominate; batching should change nothing here.
- ``verify_cli``: the user path through the command line, with per-cube
  loops, the pure-Python CZ checks, report emission and the verify
  thread pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

WORKLOADS = ("oscillation_log", "content_bulk", "verify_cli")

# Relative tolerance for reference values; contents and hashes compare exactly.
REL_TOL = 1e-9

# Bounds of lhs / mid in the weighted L1 comparison: the classical 1/4
# below, and 1 above up to rounding.
WEIGHTED_L1_MIN_RATIO = 0.25
WEIGHTED_L1_MAX_RATIO = 1.0 + 1e-11

capbmo = None  # bound by import_capbmo


class CheckFailed(Exception):
    """An output of the program is wrong; the message names what."""


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    # Raises CheckFailed on a wrong output. Returns the values compared
    # with the stored reference, or None for seeded tasks.
    check: Callable[[Any], dict | None]
    exact: tuple[str, ...] = ()


def import_capbmo(root: str):
    """Import capbmo from the source tree under root, never from elsewhere."""
    global capbmo
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "capbmo", "__init__.py")):
        raise FileNotFoundError(f"no capbmo sources under {src}")
    sys.path.insert(0, src)
    import capbmo as package
    import capbmo.cli  # noqa: F401  (the verify_cli tasks call capbmo.cli.main)

    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"capbmo was imported from {package.__file__}, not {src}")
    capbmo = package
    return package


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _params():
    return capbmo.ContentParams(delta=1.0)


# ------------------------------------------------------------------ inputs


def _log_grid(depth: int):
    return capbmo.build_grid(2, depth, 2.0, origin=(-1.0, -1.0))


def _log_abs_values(depth: int) -> np.ndarray:
    """ln|x| at the cell centres of the 2**depth x 2**depth grid on [-1, 1]^2."""
    c = -1.0 + (np.arange(2**depth) + 0.5) * (2.0 / 2**depth)
    x, y = np.meshgrid(c, c, indexing="ij")
    return np.log(np.sqrt(x * x + y * y)).ravel()


def _log_abs(depth: int):
    return capbmo.step_function(_log_grid(depth), _log_abs_values(depth))


def _levels(rng: np.random.Generator, count: int, size: int):
    """Seeded values from `count` levels evenly spaced in log scale on [e^-2, e^2]."""
    table = np.exp(np.linspace(-2.0, 2.0, count))
    return table[rng.integers(0, count, size=size)]


def _content_oracle(mask: np.ndarray, cell_side: float) -> float:
    """Dyadic content (delta = 1) of a 2-D cell mask by its own tree recursion.

    With delta = 1 every cost is a dyadic rational, so the sums are exact
    in any order and the result must equal dyadic_content bit for bit.
    """
    cost = np.where(mask, cell_side, 0.0)
    side = cell_side
    while cost.shape[0] > 1:
        h = cost.shape[0] // 2
        side *= 2.0
        cost = np.minimum(cost.reshape(h, 2, h, 2).sum(axis=(1, 3)), side)
    return float(cost[0, 0])


def _close(name: str, got, want) -> None:
    if isinstance(want, list):
        _expect(isinstance(got, list) and len(got) == len(want), f"{name}: length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            _close(f"{name}[{i}]", g, w)
        return
    _expect(
        abs(got - want) <= REL_TOL * max(abs(got), abs(want)),
        f"{name}: got {got!r}, reference {want!r}",
    )


def compare_reference(task: Task, values: dict, reference: dict | None) -> None:
    _expect(reference is not None, f"no stored reference for {task.name}")
    _expect(sorted(values) == sorted(reference), f"reference keys differ for {task.name}")
    for key, want in reference.items():
        if key in task.exact:
            _expect(values[key] == want, f"{key}: got {values[key]!r}, reference {want!r} (exact)")
        else:
            _close(key, values[key], want)


# ----------------------------------------------------------- oscillation_log


def _seminorm_value(report) -> float:
    value = float(report.value)
    _expect(math.isfinite(value) and value >= 0, f"seminorm {value!r} is not finite and >= 0")
    return value


def _reference_seminorm(report) -> dict:
    return {"value": _seminorm_value(report)}


def _seeded_seminorm(report) -> None:
    _seminorm_value(report)


def oscillation_log(seed: int, workdir: str) -> list[Task]:
    rng = np.random.default_rng(seed)
    P = _params()
    f32 = _log_abs(5)
    negf32 = f32.with_values(-f32.values)
    f16 = _log_abs(4)
    w16 = capbmo.step_function(f16.grid, np.exp(rng.normal(size=f16.grid.num_cells)))
    f8 = _log_abs(3)
    lattice = capbmo.CubeFamilyPolicy("lattice")
    return [
        Task("bmo_log_32", lambda: capbmo.bmo_seminorm(f32, P), _reference_seminorm),
        Task(
            "bmo_signed_log_32",
            lambda: capbmo.bmo_seminorm(f32, P, centering="f_Q_delta"),
            _reference_seminorm,
        ),
        Task("blo_neglog_32", lambda: capbmo.blo_seminorm(negf32, P), _reference_seminorm),
        Task(
            "wbmo_q2_log_16",
            lambda: capbmo.weighted_bmo_seminorm(f16, w16, 2.0, P),
            _seeded_seminorm,
        ),
        Task("bmo_lattice_log_8", lambda: capbmo.bmo_seminorm(f8, P, lattice), _reference_seminorm),
    ]


# -------------------------------------------------------------- content_bulk


def _check_mean_bounds(name: str, value: float, lo: float, hi: float, content: float) -> None:
    """min(f) * content <= integral <= max(f) * content, by monotonicity."""
    slack = 1e-12 * max(abs(hi) * content, 1.0)
    _expect(
        lo * content - slack <= value <= hi * content + slack,
        f"{name}: {value!r} outside [{lo * content!r}, {hi * content!r}]",
    )


def content_bulk(seed: int, workdir: str) -> list[Task]:
    rng = np.random.default_rng(seed)
    P = _params()
    g64 = capbmo.build_grid(2, 6, 1.0)
    exp64 = rng.exponential(size=g64.num_cells)
    g3 = capbmo.build_grid(3, 4, 1.0)
    exp3 = rng.exponential(size=g3.num_cells)

    sets = []
    for density in (0.005, 0.02, 0.08):
        mask = rng.random(g64.num_cells) < density
        mask[rng.integers(g64.num_cells)] = True
        sets.append(mask)
    set_weight = np.exp(rng.normal(size=g64.num_cells))
    scales = [2.0 ** int(k) for k in rng.integers(-3, 4, size=len(sets))]
    logd = _log_abs_values(6)
    log_annulus = (logd > -2.5) & (logd < -1.5)  # an annulus around the origin

    l1_f = rng.integers(1, 33, size=g64.num_cells) * 0.125
    l1_w = _levels(rng, 256, g64.num_cells)
    sv_f = rng.integers(0, 16, size=g64.num_cells) * 0.25
    sv_w = _levels(rng, 256, g64.num_cells)
    sv_center = float(rng.uniform(1.0, 3.0))

    def choquet_task(f_values, grid):
        f = capbmo.step_function(grid, f_values)
        root = capbmo.full_set(grid)

        def check(value):
            # the root is the unit cube, whose content is 1 for delta = 1
            _check_mean_bounds("choquet", float(value), f_values.min(), f_values.max(), 1.0)

        return (lambda: capbmo.choquet(f, root, P)), check

    set_w = capbmo.step_function(g64, set_weight)
    set_inputs = [
        (capbmo.DyadicSet(g64, mask), capbmo.step_function(g64, np.full(g64.num_cells, c)))
        for mask, c in zip(sets, scales)
    ]
    g_log = _log_grid(6)
    annulus_set = capbmo.DyadicSet(g_log, log_annulus)

    def contents_run():
        out = [
            (
                capbmo.dyadic_content(g64, E, P),
                capbmo.weighted_content(g64, set_w, E, P),
                capbmo.choquet(const, E, P),
            )
            for E, const in set_inputs
        ]
        return out, capbmo.dyadic_content(g_log, annulus_set, P)

    def contents_check(output):
        per_set, annulus = output
        for i, ((content, weighted, const_int), mask, c) in enumerate(zip(per_set, sets, scales)):
            oracle = _content_oracle(mask.reshape(g64.shape), g64.cell_side)
            _expect(content == oracle, f"set {i}: content {content!r} != tree oracle {oracle!r}")
            _expect(
                const_int == c * content,
                f"set {i}: choquet of constant {c} is {const_int!r}, not c * content {c * content!r}",
            )
            inside = set_weight[mask]
            _check_mean_bounds(f"set {i} weighted content", weighted, inside.min(), inside.max(), content)
        oracle = _content_oracle(log_annulus.reshape(g_log.shape), g_log.cell_side)
        _expect(annulus == oracle, f"log annulus content {annulus!r} != tree oracle {oracle!r}")
        return {"log_annulus_content": annulus}

    l1_inputs = (capbmo.step_function(g64, l1_f), capbmo.step_function(g64, l1_w))
    sv_inputs = (
        capbmo.step_function(g64, sv_f),
        sv_center,
        capbmo.CubeSpec.root(g64),
        capbmo.step_function(g64, sv_w),
    )

    def l1_run():
        return capbmo.weighted_l1_comparison(*l1_inputs, P)

    def l1_check(output):
        lhs, mid = output
        _expect(lhs > 0 and mid > 0, f"weighted L1 sides {output!r} not positive")
        _expect(
            WEIGHTED_L1_MIN_RATIO * mid <= lhs <= WEIGHTED_L1_MAX_RATIO * mid,
            f"lhs/mid = {lhs / mid!r} outside [1/4, 1]",
        )

    def survival_run():
        return capbmo.survival_curve(*sv_inputs, P)

    sv_dev = np.abs(sv_f - sv_center)
    sv_root = capbmo.full_set(g64)

    def survival_check(curve):
        s = np.asarray(curve.survival)
        _expect(s.size == len(curve.t_samples) > 1, "survival curve has fewer than two samples, or not one per t")
        _expect(bool(np.all(np.diff(s) <= 0)), "survival curve is not non-increasing")
        # contents computed here one set at a time, not through the curve
        tol = 1e-12 * max(curve.normalizer, 1.0)
        norm = capbmo.weighted_content(g64, sv_inputs[3], sv_root, P)
        _expect(abs(curve.normalizer - norm) <= tol, f"normalizer {curve.normalizer!r} != w(root) {norm!r}")
        for k in (0, s.size // 2, s.size - 1):
            t = curve.t_samples[k]
            E = capbmo.DyadicSet(g64, sv_dev > t)
            want = capbmo.weighted_content(g64, sv_inputs[3], E, P)
            _expect(
                abs(s[k] - want) <= tol,
                f"survival at t={t!r} is {float(s[k])!r}, w({{|f - c| > t}}) is {want!r}",
            )

    choquet64 = choquet_task(exp64, g64)
    choquet3 = choquet_task(exp3, g3)
    return [
        Task("choquet_exp_64x64", *choquet64),
        Task("choquet_exp_16cubed", *choquet3),
        Task("contents_64x64", contents_run, contents_check, exact=("log_annulus_content",)),
        Task("weighted_l1_64x64", l1_run, l1_check),
        Task("survival_weighted_root", survival_run, survival_check),
    ]


# ---------------------------------------------------------------- verify_cli


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _grid_obj(grid) -> dict:
    return {"n": grid.n, "depth": grid.depth, "root_side": grid.root_side, "origin": list(grid.origin)}


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = capbmo.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read_report(path: str):
    """Parse a report document, check its body hash, and remove the file."""
    _expect(os.path.exists(path), f"report {os.path.basename(path)} was not written")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.unlink(path)
    canonical = json.dumps(doc["body"], sort_keys=True, separators=(",", ":"))
    _expect(
        hashlib.sha256(canonical.encode()).hexdigest() == doc["body_sha256"],
        "report body_sha256 does not match its body",
    )
    return doc["body"]


def _cli_ok(output) -> None:
    code, _, err = output
    _expect(code == 0, f"exit code {code}: {err.strip()[-300:]}")


def verify_cli(seed: int, workdir: str) -> list[Task]:
    rng = np.random.default_rng(seed)
    P = _params()
    path = lambda name: os.path.join(workdir, name)  # noqa: E731

    incl = _write_json(
        path("inclusions.json"),
        {"grid": _grid_obj(_log_grid(1)), "parameters": {"depth_range": [3, 5], "n": 2, "delta": 1.0}},
    )
    jn = []
    for delta in (1.0, 0.5):
        jn.append(
            _write_json(
                path(f"jn_log4_delta{delta:g}.json"),
                {
                    "grid": _grid_obj(_log_grid(4)),
                    "functions": {"f": {"values": _log_abs_values(4).tolist()}},
                    "parameters": {"delta": delta, "family": "dyadic"},
                },
            )
        )

    g64 = capbmo.build_grid(2, 6, 1.0)
    cz_f = rng.integers(0, 16, size=g64.num_cells) * 0.125
    spikes = rng.choice(g64.num_cells, size=12, replace=False)
    cz_f[spikes] = 40.0 + 5.0 * rng.integers(0, 8, size=spikes.size)
    cz_w = _levels(rng, 16, g64.num_cells)
    # The decomposition needs a threshold above the root average of |f|
    # against the w-content; twice that average leaves the spikes selected.
    full = capbmo.full_set(g64)
    root_avg = capbmo.choquet(capbmo.step_function(g64, cz_f * cz_w), full, P) / capbmo.weighted_content(
        g64, capbmo.step_function(g64, cz_w), full, P
    )
    cz_files = [
        _write_json(path("cz_grid.json"), _grid_obj(g64)),
        _write_json(path("cz_f.json"), {"values": cz_f.tolist()}),
        _write_json(path("cz_w.json"), {"values": cz_w.tolist()}),
    ]
    g16 = capbmo.build_grid(2, 4, 1.0)
    wt_files = [
        _write_json(path("wt_grid.json"), _grid_obj(g16)),
        _write_json(path("wt_w.json"), {"values": np.exp(rng.normal(size=g16.num_cells)).tolist()}),
    ]

    def inclusions_check(output):
        _cli_ok(output)
        body = _read_report(path("inclusions_report.json"))
        _expect(body["passed"] is True, "verify inclusions did not pass")
        return {k: body["constants"][k] for k in ("blo_neg", "bmo_pos", "origin_chain", "sup_neg")}

    def jn_check(output):
        _cli_ok(output)
        reports = _read_report(path("jn_report.json"))
        _expect(len(reports) == 2 and all(r["passed"] is True for r in reports), "verify jn-bmo did not pass")
        with open(path("jn_curves.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        os.unlink(path("jn_curves.csv"))
        # survival values and normalizers are contents of sets: exact
        contents = hashlib.sha256("\n".join(f"{r[2]},{r[3]}" for r in rows).encode()).hexdigest()
        values = {"curve_rows": len(rows), "curve_contents_sha256": contents}
        for i, rep in enumerate(reports):
            for k in ("c", "C", "seminorm", "max_bound_usage"):
                values[f"fixture{i}.{k}"] = rep["constants"][k]
        return values

    def czd_check(output):
        _cli_ok(output)
        body = _read_report(path("czd_report.json"))
        _expect(body["verification"]["passed"] is True, "cz_verify did not pass")

    def weight_check(output):
        _cli_ok(output)
        body = _read_report(path("weight_report.json"))
        constant = body["constant"]
        _expect(
            isinstance(constant, float) and 1.0 - 1e-9 <= constant < math.inf,
            f"A_2 constant {constant!r} is not finite and >= 1",
        )

    verify_incl = ["verify", "inclusions", "--fixture", incl, "--out", path("inclusions_report.json")]
    verify_jn = ["verify", "jn-bmo", "--fixture", jn[0], "--fixture", jn[1]]
    verify_jn += ["--out", path("jn_report.json"), "--curves", path("jn_curves.csv")]
    czd = ["czd", "--grid", cz_files[0], "--fn", cz_files[1], "--wt", cz_files[2]]
    czd += ["--threshold", repr(2.0 * root_avg), "--out", path("czd_report.json")]
    weight = ["weight", "--grid", wt_files[0], "--wt", wt_files[1], "--p", "2", "--family", "lattice"]
    weight += ["--out", path("weight_report.json")]
    return [
        Task("verify_inclusions_3_5", lambda: _cli(verify_incl), inclusions_check),
        Task(
            "verify_jn_bmo_log",
            lambda: _cli(verify_jn),
            jn_check,
            exact=("curve_rows", "curve_contents_sha256"),
        ),
        Task("czd_64x64", lambda: _cli(czd), czd_check),
        Task("weight_lattice_16", lambda: _cli(weight), weight_check),
    ]


BUILDERS = {
    "oscillation_log": oscillation_log,
    "content_bulk": content_bulk,
    "verify_cli": verify_cli,
}


def build(workload: str, seed: int, workdir: str) -> list[Task]:
    return BUILDERS[workload](seed, workdir)
