"""Benchmark entry point for hopfly.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Runs passes of one workload, each in a fresh interpreter, one after
another, until the next pass would end well past ``--seconds``.  Every
op's output is checked (``gate.py``) outside the timed intervals.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The first
line holds the run context, and ``perfbench/out/`` keeps the per-pass
record and, for traced runs, the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 7      # set-up-only interpreters per run, beside each pass's own set-up
HARD_LIMIT_S = 165.0  # the run must end within 180 s, whatever the program does


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_context(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "git_sha": sha, "seed": seed, "loadavg_at_start": list(os.getloadavg())}


def spawn(workload: str, seed: int, *, setup_only=False, trace=False, spans=None,
          timeout: float) -> dict:
    """Run one worker; return its record plus the spawn stamp."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"timeout": True}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if not isinstance(record, dict) or "t_first" not in record:
        return {"crashed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    record["setup_s"] = record["t_first"] - t_spawn
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t_run = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfly", "cli.py")):
        fail(f"no hopfly sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gate
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    ops = workloads.make_ops(args.workload, args.seed)
    pins = gate.load_pins().get(args.workload)
    pinned = pins.get("any") or (pins.get("default") if args.seed == workloads.DEFAULT_SEED
                                 else None)
    checker = gate.Gate(pinned)
    context = run_context(args.seed)
    print("context: " + json.dumps(context), flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - t_run)

    # The first interpreter compiles bytecode; later ones, like a CLI user's,
    # find it cached.  Its set-up time is not counted.
    spawn(args.workload, args.seed, setup_only=True, timeout=max(1.0, remaining()))
    setups = []
    for _ in range(SETUP_PROBES):
        rec = spawn(args.workload, args.seed, setup_only=True, timeout=max(1.0, remaining()))
        if "setup_s" in rec:
            setups.append(rec["setup_s"])

    passes, failures = [], []
    attempted = failed = 0
    t_begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec = spawn(args.workload, args.seed, trace=traced,
                    spans=spans_path if traced else None, timeout=max(1.0, remaining()))
        rec["traced"] = traced
        results = rec.get("ops") or [None] * len(ops)
        attempted += len(ops)
        for i, (op, res) in enumerate(zip(ops, results)):
            reason = ("pass did not finish: " + (rec.get("crashed") or "timed out")
                      if res is None else checker.check(i, op, res))
            if reason is not None:
                failed += 1
                failures.append({"pass": len(passes), "op": " ".join(op["argv"]),
                                 "reason": reason})
            if res is not None:
                res.pop("out", None)
        passes.append(rec)
        if "ops" not in rec:
            break
        if not traced:
            setups.append(rec["setup_s"])
        elapsed = time.monotonic() - t_begin
        est = median([p["t_last"] - p["t_first"] + p["setup_s"] for p in passes if "ops" in p])
        need_traced = bool(args.trace) and not any(p["traced"] for p in passes)
        if est * 1.5 > remaining():
            break
        if not need_traced and elapsed + est / 2 > args.seconds:
            break

    done = [p for p in passes if "ops" in p]
    plain = [p for p in done if not p["traced"]]
    traced_passes = [p for p in done if p["traced"]]
    wall = [p["t_last"] - p["t_first"] for p in plain]
    if args.trace:
        metrics, drift = per_layer(traced_passes, wall, spec, tracing)
        if not traced_passes:
            failures.append({"pass": None, "op": "traced passes",
                             "reason": "no traced pass finished"})
        if drift:
            failures.append({"pass": None, "op": "traced passes",
                             "reason": f"counts differ between traced passes: {drift}"})
    else:
        metrics = end_to_end(setups, plain, attempted, failed)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        fail(f"metric names differ from BENCHMARK.json {section}: "
             f"{sorted(set(metrics) ^ set(units))}")
    result = {"correct": not failures and bool(done), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"context": context, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "setup_samples": setups, "failures": failures,
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
              "result": result}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for f in failures[:5]:
        print(f"failed op (pass {f['pass']}): {f['op']}: {f['reason']}")
    print(json.dumps(result))


def end_to_end(setups, plain, attempted, failed) -> dict:
    """Medians over the untraced passes, except ok_ratio, which counts every op."""
    return {
        "setup_s": median(setups),
        "wall_s": median([p["t_last"] - p["t_first"] for p in plain]),
        "slowest_op_s": median([max(r["s"] for r in p["ops"]) for p in plain]),
        "peak_rss_mib": median([p["rss_kib"] / 1024 for p in plain]),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(traced, untraced_wall, spec, tracing) -> tuple[dict, list[str]]:
    """Median of each timing over the traced passes and counts from the
    first, plus the names of counts another traced pass did not repeat."""
    layers = [p["layers"] for p in traced]
    if not layers:
        return {m["name"]: 0.0 for m in spec["per_layer"]}, []
    first = layers[0]
    drift = sorted({k for other in layers[1:] for k in tracing.EXACT_COUNTS
                    if other[k] != first[k]})
    metrics = {}
    for name in first:
        values = [layer[name] for layer in layers]
        metrics[name] = first[name] if name in tracing.EXACT_COUNTS else median(values)
    traced_wall = [p["t_last"] - p["t_first"] for p in traced]
    metrics["trace.overhead_ratio"] = (median(traced_wall) / median(untraced_wall) - 1
                                       if untraced_wall else 0.0)
    return metrics, drift


if __name__ == "__main__":
    main()
