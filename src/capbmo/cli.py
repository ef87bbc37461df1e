"""Command-line front end: point computations, verification suites, and
reproduction of the closed-form reference examples.

Exit codes: 0 success, 1 a verification or reproduction check failed or
an internal invariant was violated (its witness goes to stderr), 2 usage
error (bad flags, missing or malformed files).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .choquet import choquet, signed_average, weighted_choquet
from .content import ContentParams, dyadic_content
from .czd import cz_decompose, cz_verify
from .fixtures import log_abs_function, spike_and_slab_example, two_cell_example
from .grid import CubeSpec, DyadicSet, StepFunction
from .oscillation import blo_seminorm, bmo_seminorm, gamma_interval, weighted_bmo_seminorm
from .reports import InvariantViolation, to_jsonable
from .serialization import (
    atomic_write_text, curves_to_csv, list_of, load_fixture, load_function, load_grid, load_set, parse_cube,
    parse_policy, read_field, report_document,
)
from .verify import (
    verify_characterization, verify_equivalences, verify_factorization, verify_inclusions, verify_jn,
    weak_restricted_strong_check,
)
from .weights import a1_constant, ap_constant

VERIFY_CHECKS = (
    "jn-bmo",
    "jn-blo",
    "jn-weighted",
    "thm-bmo-ap",
    "thm-blo-a1",
    "equiv",
    "inclusions",
    "factorization",
    "weak-strong",
)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, body, passed: bool = True) -> int:
    text = report_document(body)
    if args.out:
        atomic_write_text(args.out, text)
    print(json.dumps(to_jsonable(body), sort_keys=True, indent=2))
    return 0 if passed else 1


def _params(args) -> ContentParams:
    return ContentParams(delta=args.delta)


def _cmd_content(args) -> int:
    grid = load_grid(_read_json(args.grid))
    E = load_set(_read_json(args.set), grid)
    value = dyadic_content(grid, E, _params(args))
    return _emit(args, {"command": "content", "delta": args.delta, "content": value})


def _cmd_choquet(args) -> int:
    grid = load_grid(_read_json(args.grid))
    f = load_function(_read_json(args.fn), grid)
    E = load_set(_read_json(args.set), grid) if args.set else DyadicSet(grid, np.ones(grid.num_cells, dtype=bool))
    params = _params(args)
    body = {"command": "choquet", "delta": args.delta}
    if args.wt:
        w = load_function(_read_json(args.wt), grid)
        body["integral"] = weighted_choquet(f, E, w, params)
        body["weighted"] = True
    else:
        body["integral"] = choquet(f, E, params)
        body["weighted"] = False
    return _emit(args, body)


def _cmd_avg(args) -> int:
    grid = load_grid(_read_json(args.grid))
    f = load_function(_read_json(args.fn), grid)
    cube = parse_cube(args.cube, grid)
    avg = signed_average(f, cube, _params(args))
    return _emit(
        args,
        {
            "command": "avg",
            "delta": args.delta,
            "cube": cube.cube_id(),
            "average": avg.value,
            "pos_part_integral": avg.pos_part_integral,
            "neg_part_integral": avg.neg_part_integral,
            "pos_content": avg.pos_content,
            "neg_content": avg.neg_content,
        },
    )


def _cmd_seminorm(args) -> int:
    if args.kind in ("bmo", "bmo-signed") and args.q != 1.0:
        raise ValueError(f"seminorm --kind {args.kind} is the q = 1 seminorm and takes no other --q")
    grid = load_grid(_read_json(args.grid))
    f = load_function(_read_json(args.fn), grid)
    params = _params(args)
    policy = parse_policy(args.family, args.seed)
    if args.kind == "bmo":
        rep = bmo_seminorm(f, params, policy)
    elif args.kind == "bmo-signed":
        rep = bmo_seminorm(f, params, policy, centering="f_Q_delta")
    elif args.kind == "blo":
        rep = blo_seminorm(f, params, policy, q=args.q)
    else:
        if not args.wt:
            print("seminorm --kind weighted needs --wt", file=sys.stderr)
            return 2
        w = load_function(_read_json(args.wt), grid)
        rep = weighted_bmo_seminorm(f, w, args.q, params, policy)
    return _emit(
        args,
        {
            "command": "seminorm",
            "kind": args.kind,
            "q": args.q,
            "delta": args.delta,
            "family": args.family,
            "seed": args.seed,
            "value": rep.value,
            "worst_cube": rep.worst_cube.cube_id() if rep.worst_cube else None,
            "exact": rep.exact,
        },
    )


def _cmd_weight(args) -> int:
    grid = load_grid(_read_json(args.grid))
    w = load_function(_read_json(args.wt), grid)
    params = _params(args)
    policy = parse_policy(args.family, args.seed)
    if args.p == 1.0:
        rep = a1_constant(w, params, policy)
    else:
        rep = ap_constant(w, args.p, params, policy)
    return _emit(
        args,
        {
            "command": "weight",
            "p": args.p,
            "delta": args.delta,
            "family": args.family,
            "seed": args.seed,
            "constant": rep.ap_constant,
            "worst_cube": rep.worst_cube.cube_id() if rep.worst_cube else None,
        },
    )


def _cmd_czd(args) -> int:
    grid = load_grid(_read_json(args.grid))
    f = load_function(_read_json(args.fn), grid)
    w = load_function(_read_json(args.wt), grid)
    cube = parse_cube(args.cube, grid)
    params = _params(args)
    result = cz_decompose(f, w, cube, args.threshold, params)
    report = cz_verify(f, w, cube, result, params)
    body = {
        "command": "czd",
        "delta": args.delta,
        "threshold": args.threshold,
        "selected": [c.cube_id() for c in result.selected],
        "ratios": list(result.ratios),
        "parent_ratios": list(result.parent_ratios),
        "verification": report,
    }
    return _emit(args, body, passed=report.passed)


def _run_check(check: str, fixture_path: str):
    fx = load_fixture(fixture_path)
    par = fx.parameters

    def get(key, default, convert=float):
        return read_field(par, key, convert, default, "fixture parameters")

    params = ContentParams(delta=get("delta", 1.0))
    seed = get("seed", 0, int)
    policy = parse_policy(get("family", "dyadic", str), seed)
    curves: list = []
    if check.startswith("jn-"):
        kind = check[3:]  # bmo, blo or weighted; only the weighted check reads w and q
        f = fx.function(par.get("function", "f"))
        w, q = (fx.weight(par.get("weight", "w")), get("q", 1.0)) if kind == "weighted" else (None, 1.0)
        rep = verify_jn(kind, f, w, q, params, policy, curves)
    elif check in ("thm-bmo-ap", "thm-blo-a1"):
        kind, p = "bmo_ap" if check == "thm-bmo-ap" else "blo_a1", get("p", 2.0)
        if "reverse_family" in par:
            if par["reverse_family"] != "log_abs":
                raise ValueError(f"unknown reverse family {par['reverse_family']!r}")
            n = get("n", 2, int)
            rep = verify_characterization(kind, params, policy, function_family=lambda d: log_abs_function(n, d),
                                          depths=tuple(get("depths", (3, 4, 5), list_of(int))),
                                          gamma_grid=get("gamma_grid", [], lambda v: v and list_of(float)(v)), p=p)
        else:
            rep = verify_characterization(kind, params, policy, weight=fx.weight(par.get("weight", "w")), p=p)
    elif check == "equiv":
        rep = verify_equivalences(fx.function(par.get("function", "f")), fx.weight(par.get("weight", "w")),
                                  get("q_list", (0.5, 1.0, 2.0), list_of(float)), params, policy)
    elif check == "inclusions":
        lo, hi = get("depth_range", (3, 6), list_of(int, 2))
        rep = verify_inclusions(range(lo, hi + 1), params, n=get("n", 2, int), policy=policy)
    elif check == "factorization":
        g1 = fx.function(par.get("g1", "g1"))
        g2, b = fx.function(par.get("g2", par.get("g1", "g1"))), fx.function(par.get("b", "b"))
        rep = verify_factorization(get("alpha", 1.0), get("beta", 0.0), g1, g2, b, get("kind", "bmo", str),
                                   params, policy)
    elif check == "weak-strong":
        E = DyadicSet(fx.grid, fx.function(par.get("set_function", "E")).values != 0)
        rep = weak_restricted_strong_check(fx.function(par.get("function", "f")), E, get("p", 1.0), get("r", 0.5),
                                           params, policy)
    else:
        raise ValueError(f"unknown verify check {check!r}")
    rep = dataclasses.replace(rep, seed=seed)
    return rep, curves


def _cmd_verify(args) -> int:
    paths = args.fixture
    results = [_run_check(args.check, p) for p in paths]
    reports = [rep for rep, _ in results]
    for path, rep in zip(paths, reports):
        print(f"{path}: {rep.summary()}")
    body = reports[0] if len(reports) == 1 else reports
    if args.out:
        atomic_write_text(args.out, report_document(body))
    if args.curves:
        all_curves = [c for _, cs in results for c in cs]
        atomic_write_text(args.curves, curves_to_csv(all_curves))
    return 0 if all(r.passed for r in reports) else 1


def _reproduce_rows(deltas):
    rows = []
    grid, f = spike_and_slab_example()
    root = CubeSpec.root(grid)
    for delta in deltas:
        params = ContentParams(delta=delta)
        expected = (1.0 - 2.0 ** (1 + 2 * delta)) / 2.0 ** (1 + 2 * delta)
        got = signed_average(f, root, params).value
        rows.append(("remark-average", f"signed average, delta={delta:g}", expected, got, 1e-12, "closed-form"))
        neg = f.with_values(-f.values)
        expected_neg = (2.0 ** (1 + 2 * delta) - 1.0) / (1.0 + 4.0**delta)
        got_neg = signed_average(neg, root, params).value
        rows.append(("remark-average", f"negated average, delta={delta:g}", expected_neg, got_neg, 1e-12, "closed-form"))

        E = DyadicSet(grid, (f.values == 1.0))
        F = DyadicSet(grid, (f.values == -2.0))
        for label, S in (
            ("content E", E),
            ("content F", F),
            ("content Q minus F", F.complement()),
            ("content Q minus E", E.complement()),
        ):
            expected_c = 1.0 if label == "content E" else 4.0**delta
            got_c = dyadic_content(grid, S, params)
            rows.append(("content-identities", f"{label}, delta={delta:g}", expected_c, got_c, 1e-12, "closed-form"))

    g2, f2 = two_cell_example()
    gi = gamma_interval(f2, None, 1.0, CubeSpec.root(g2), ContentParams(delta=1.0))
    rows.append(("gamma-interval", "plateau lower end", 0.0, gi.lo, 5e-9, "closed-form"))
    rows.append(("gamma-interval", "plateau upper end", 2.0, gi.hi, 5e-9, "closed-form"))
    rows.append(("gamma-interval", "minimum value", 1.0, gi.min_value, 1e-12, "closed-form"))
    return rows


def _cmd_reproduce(args) -> int:
    deltas = args.delta_list or [0.25, 0.5, 1.0]
    rows = [r for r in _reproduce_rows(deltas) if args.case in ("all", r[0])]
    if not rows:
        print(f"unknown reproduction case {args.case!r}", file=sys.stderr)
        return 2
    ok = True
    header = f"{'case':<20} {'quantity':<34} {'expected':>22} {'computed':>22} {'status':>8}  tag"
    print(header)
    print("-" * len(header))
    results = []
    for case, label, expected, got, tol, tag in rows:
        good = abs(got - expected) <= tol
        ok &= good
        status = "ok" if good else "MISMATCH"
        print(f"{case:<20} {label:<34} {expected:>22.15g} {got:>22.15g} {status:>8}  [{tag}]")
        results.append(
            {
                "case": case,
                "quantity": label,
                "expected": expected,
                "computed": got,
                "tolerance": tol,
                "provenance": tag,
                "ok": good,
            }
        )
    if args.out:
        atomic_write_text(args.out, report_document({"command": "reproduce", "rows": results}))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capbmo",
        description="Capacitary BMO/BLO toolkit: dyadic contents, Choquet "
        "integrals, Muckenhoupt constants, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, grid=False, fn=False, wt=False, set_=False, cube=False):
        if grid:
            p.add_argument("--grid", required=True, help="grid JSON file")
        if fn:
            p.add_argument("--fn", required=True, help="function JSON file")
        if wt:
            p.add_argument("--wt", help="weight JSON file")
        if set_:
            p.add_argument("--set", help="set JSON file")
        if cube:
            p.add_argument("--cube", default="root", help="cube 'i,j:side' or 'root'")
        p.add_argument("--delta", type=float, default=1.0, help="content exponent")
        p.add_argument("--out", help="write a JSON report to this path")

    p = sub.add_parser("content", help="dyadic content of a set")
    add_common(p, grid=True, set_=True)
    p.set_defaults(handler=_cmd_content)

    p = sub.add_parser("choquet", help="Choquet integral over a set")
    add_common(p, grid=True, fn=True, wt=True, set_=True)
    p.set_defaults(handler=_cmd_choquet)

    p = sub.add_parser("avg", help="signed integral average over a cube")
    add_common(p, grid=True, fn=True, cube=True)
    p.set_defaults(handler=_cmd_avg)

    p = sub.add_parser("seminorm", help="oscillation seminorms")
    add_common(p, grid=True, fn=True, wt=True)
    p.add_argument("--kind", choices=("bmo", "bmo-signed", "blo", "weighted"), default="bmo")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--family", default="dyadic", help="dyadic|lattice|sampled:N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_seminorm)

    p = sub.add_parser("weight", help="Muckenhoupt constant of a weight")
    add_common(p, grid=True)
    p.add_argument("--wt", required=True, help="weight JSON file")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--family", default="dyadic", help="dyadic|lattice|sampled:N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_weight)

    p = sub.add_parser("czd", help="weighted Calderon-Zygmund decomposition")
    add_common(p, grid=True, fn=True, cube=True)
    p.add_argument("--wt", required=True, help="weight JSON file")
    p.add_argument("--threshold", type=float, required=True)
    p.set_defaults(handler=_cmd_czd)

    p = sub.add_parser("verify", help="run a verification suite on fixtures")
    p.add_argument("check", choices=VERIFY_CHECKS)
    p.add_argument("--fixture", action="append", required=True, help="fixture JSON (repeatable)")
    p.add_argument("--out", help="write the JSON report(s) here")
    p.add_argument("--curves", help="write survival curves CSV here")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("reproduce", help="reproduce built-in closed-form examples")
    p.add_argument("case", nargs="?", default="all",
                   choices=("all", "remark-average", "content-identities", "gamma-interval"))
    p.add_argument("--delta", dest="delta_list", type=float, action="append",
                   help="content exponent (repeatable; default 0.25, 0.5, 1)")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except json.JSONDecodeError as e:
        print(f"malformed JSON: {e.msg} at line {e.lineno} column {e.colno}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"missing file: {e.filename}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        print(json.dumps(to_jsonable(e.witness), sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
