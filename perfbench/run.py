"""The capbmo benchmark: three workloads, end-to-end timings, traced layers.

Run from the repository root:

    python3 perfbench/run.py                         # every workload, each in a fresh process
    python3 perfbench/run.py --workload oscillation_log --seed 1 --trace 0
    python3 perfbench/run.py --workload verify_cli --trace 1   # per-layer split

A workload run is a closed loop with one client: each task starts when
the previous one returns. One untimed warm-up pass is followed by timed
passes over the workload's tasks until --seconds (by default the
run_seconds of BENCHMARK.json) have gone by. Every output is checked
(see workloads.py); a wrong output or an exception counts as a failed
task and never stops the run.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: median pass
wall and CPU time, task latency p50/p90 over all timed tasks, set-up
time (median of five fresh processes that import capbmo and make the
inputs) and peak RSS. --trace 1 alternates untraced and traced passes
and prints the per-layer metrics from the spans recorded by tracer.py:
counts of one pass (they repeat exactly between passes and runs), the
median of the times, and trace.overhead_s, the traced minus the
untraced median pass wall time. All of them are printed; the JSON line
carries those listed in BENCHMARK.json, which leaves out the times of
layers that some workload never calls (they would read 0 on every run).
The spans of the traced passes are written to
perfbench/out/trace-<workload>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 5
SETUP_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.setup_once(sys.argv[2], int(sys.argv[3]))"


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_once(workload: str, seed: int) -> None:
    """One complete set-up: import capbmo, make the inputs and fixtures."""
    workloads.import_capbmo(ROOT)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        workloads.build(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of complete set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, BENCH_DIR, workload, str(seed)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ------------------------------------------------------------- environment


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if name.endswith((".pyc", ".so")):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        # the compiled tree kernel is loaded only when it is the one in use
        "compiled_kernel": "capbmo.kernels._tree" in sys.modules,
    }


# ------------------------------------------------------------------ passes


def run_pass(tasks, trace: tracer.Tracer | None):
    """Run every task once, back to back. Returns wall, CPU, task times, outputs."""
    outputs, times = [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for task in tasks:
        start = time.perf_counter()
        try:
            if trace is None:
                out = task.run()
            else:
                with trace.task_span(task.name):
                    out = task.run()
            outputs.append((out, None))
        except Exception:
            outputs.append((None, traceback.format_exc(limit=-3).strip().splitlines()[-1]))
        times.append(time.perf_counter() - start)
    return time.perf_counter() - t0, time.process_time() - cpu0, times, outputs


def check_pass(tasks, outputs, reference: dict) -> int:
    """Check every output of a pass; print and count the failed tasks."""
    failed = 0
    for task, (out, error) in zip(tasks, outputs):
        if error is None:
            try:
                values = task.check(out)
                if values is not None:
                    workloads.compare_reference(task, values, reference.get(task.name))
            except workloads.CheckFailed as e:
                error = f"wrong output: {e}"
            except Exception:
                error = "check raised " + traceback.format_exc(limit=-3).strip().splitlines()[-1]
        if error is not None:
            failed += 1
            print(f"FAILED {task.name}: {error}", flush=True)
    return failed


def run_loop(tasks, reference: dict, trace, seconds: float):
    """One untimed warm-up pass, then timed passes until `seconds` have gone
    by since the warm-up began. With a tracer, timed passes alternate
    between untraced and traced. Returns the passes by traced flag, and
    the attempted and failed task counts."""
    start = time.perf_counter()
    attempted = len(tasks)
    failed = check_pass(tasks, run_pass(tasks, None)[3], reference)
    schedule = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    walls = []
    while True:
        traced = schedule[len(walls) % len(schedule)]
        if traced:
            trace.install()
        try:
            wall, cpu, times, outputs = run_pass(tasks, trace if traced else None)
        finally:
            if traced:
                trace.uninstall()
        attempted += len(tasks)
        failed += check_pass(tasks, outputs, reference)
        record = {"wall": wall, "cpu": cpu, "times": times}
        if traced:
            record["spans"] = trace.take()
        passes[traced].append(record)
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if all(passes[k] for k in schedule) and elapsed + statistics.median(walls) > seconds:
            return passes, attempted, failed


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _combine_passes(per_pass: list[dict]) -> dict:
    """Counts of the first traced pass; times as medians over passes."""
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if tracer.is_count(name):
            if len(set(values)) > 1:
                print(f"note: {name} differs between traced passes: {values}", flush=True)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def run_workload(args, spec: dict) -> int:
    try:
        workloads.import_capbmo(ROOT)
    except (OSError, ImportError) as e:
        print(f"cannot import capbmo from this checkout: {e}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    reference = _load_json(os.path.join(BENCH_DIR, "reference.json")).get(args.workload, {})
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    trace = tracer.Tracer() if args.trace else None
    try:
        tasks = workloads.build(args.workload, args.seed, workdir)
        passes, attempted, failed = run_loop(tasks, reference, trace, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = passes[False]
    wall_s = statistics.median(r["wall"] for r in untraced)
    if trace:
        traced = passes[True]
        per_pass = [tracer.pass_metrics(r["spans"], trace.present) for r in traced]
        computed = _combine_passes([layers for layers, _ in per_pass])
        computed["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - wall_s
        wanted = spec["per_layer"]
        print(f"absent layers: {trace.absent_layers() or 'none'}")
        print("integrator calls per task: " + json.dumps(per_pass[0][1], sort_keys=True))
        _write_spans(args.workload, env, computed, [r["spans"] for r in traced])
    else:
        samples = [t for r in untraced for t in r["times"]]
        computed = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(r["cpu"] for r in untraced),
            "task_s_p50": statistics.median(samples),
            "task_s_p90": _p90(samples),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        print(f"timed passes: {len(untraced)}, task samples: {len(samples)}")
        for i, task in enumerate(tasks):
            own = [r["times"][i] for r in untraced]
            print(f"task {task.name}: median {statistics.median(own):.4f} s over {len(own)}")

    for m in wanted:
        value = f"{computed[m['name']]:>16.6f}" if m["name"] in computed else f"{'absent':>16}"
        print(f"{m['name']:<38} {value} {m['unit']}")
    listed = {m["name"] for m in wanted}
    extra = [name for name in computed if name not in listed]
    if extra:
        print("also measured, not in the JSON line:")
        for name in extra:
            print(f"{name:<38} {computed[name]:>16.6f} {tracer.unit_of(name)}")
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in computed
    }
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} tasks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _write_spans(workload: str, env: dict, metrics: dict, traced_spans: list) -> None:
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "metrics": metrics}, sort_keys=True) + "\n")
        for k, spans in enumerate(traced_spans):
            origin = min(s.start for s in spans)
            for rec in tracer.span_records(spans, origin):
                rec["pass"] = k
                fh.write(json.dumps(rec) + "\n")
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of all metrics."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])

    names = list(dict.fromkeys(n for r in results.values() for n in r["metrics"]))
    print(f"\n{'metric':<38}" + "".join(f"{w:>18}" for w in results) + "  unit")
    for name in names:
        cells, unit = "", ""
        for r in results.values():
            m = r["metrics"].get(name)
            cells += f"{m['value']:>18.6g}" if m else f"{'absent':>18}"
            unit = m["unit"] if m else unit
        print(f"{name:<38}{cells}  {unit}")
    fracs = "".join(f"{r['failed'] / r['attempted']:>18.6g}" for r in results.values())
    print(f"{'failed_frac':<38}{fracs}  fraction")
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description="capbmo benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
