"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py           # about 15 s
    python3 perfbench/selftest.py --full    # also two traced passes of each workload

Checks that

* layer counts (term products, division trials and failures, mismatched
  additions, cache hits and misses) repeat exactly across two traced passes;
* the untraced and traced passes produce the same outputs, and the
  wrappers leave no patched name behind;
* a corrupted output, a non-zero exit and a raised exception each count as
  a failed op, with and without a pinned digest;
* every metric name the benchmark emits is in BENCHMARK.json, and the
  reverse;
* without the package sources the benchmark exits non-zero and prints no
  result.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import gate
import run
import tracing
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

FAILURES = []


def expect(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def traced_pair(workload: str, seed: int):
    recs = [run.spawn(workload, seed, trace=True, timeout=600) for _ in range(2)]
    for rec in recs:
        if "layers" not in rec:
            sys.exit(f"traced pass of {workload} failed: {rec}")
    a, b = (r["layers"] for r in recs)
    drift = [k for k in tracing.EXACT_COUNTS if a[k] != b[k]]
    expect(not drift, f"{workload}: counts repeat across two traced passes {drift or ''}")
    expect(a["ring.poly_mul.term_products"] > 0, f"{workload}: term products were counted")


def corrupt(op: dict, out: str) -> str:
    """Flip one coefficient sign in the value, or one check verdict."""
    obj = json.loads(out)
    if op["kind"] == "verify":
        obj["checks"][0]["passed"] = False
        return json.dumps(obj)
    text = obj["value"]["text"]
    body = text[1:] if text.startswith("(") else text
    first_sign = "-" if body.startswith("-") else ""
    flipped = body[1:] if first_sign else "-" + body
    obj["value"]["text"] = (text[:1] + flipped) if text.startswith("(") else flipped
    return json.dumps(obj)


def check_gate():
    ops = workloads.make_ops("selftest", 0)
    plain = run.spawn("selftest", 0, timeout=600)
    traced = run.spawn("selftest", 0, trace=True, timeout=600)
    same = [a["out"] == b["out"] for a, b in zip(plain["ops"], traced["ops"])]
    expect(all(same), "traced and untraced passes print the same outputs")

    unpinned = gate.Gate(None)
    for i, (op, res) in enumerate(zip(ops, plain["ops"])):
        label = " ".join(op["argv"][:1] + op["argv"][2:5:2])
        expect(unpinned.check(i, op, res) is None, f"gate accepts the real output of {label}")
        bad = dict(res, out=corrupt(op, res["out"]))
        expect(unpinned.check(i, op, bad) is not None, f"gate rejects a corrupted {label}")
    op, res = ops[0], plain["ops"][0]
    expect(unpinned.check(0, op, dict(res, rc=2)) is not None, "gate rejects exit status 2")
    expect(unpinned.check(0, op, dict(res, rc=None, error="Traceback\nValueError: x"))
           is not None, "gate rejects an op that raised")

    # The first ladder rung on the default seed is the first selftest op.
    pinned = gate.Gate(gate.load_pins()["ladder"]["default"])
    expect(workloads.make_ops("ladder", 0)[0]["argv"] == op["argv"], "pinned rung is op 0")
    expect(pinned.check(0, op, res) is None, "pinned gate accepts the real output")
    text = json.loads(res["out"])["value"]["text"]
    reordered = json.loads(res["out"])
    reordered["value"]["text"] = text.replace("1*", "1 *", 1)
    expect(pinned.check(0, op, dict(res, out=json.dumps(reordered))) is not None,
           "pinned gate rejects a non-canonical spelling of the same value")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = run.end_to_end([0.1], [plain], len(ops), 0)
    expect(set(e2e) == {m["name"] for m in spec["end_to_end"]},
           "end-to-end metric names match BENCHMARK.json")
    layers, _ = run.per_layer([traced], [1.0], spec, tracing)
    expect(set(layers) == {m["name"] for m in spec["per_layer"]},
           "per-layer metric names match BENCHMARK.json")
    expect([n for n, _, _ in tracing.PER_LAYER] == [m["name"] for m in spec["per_layer"]],
           "BENCHMARK.json lists the per-layer metrics of tracing.PER_LAYER")


def check_uninstall():
    import hopfly.cli
    import hopfly.ring as ring

    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("hopfly")}
    add = ring.RingElem.__dict__["__add__"]
    tracer = tracing.Tracer().install()
    expect(ring.RingElem.__dict__["__add__"] is not add
           and ring.RingElem.__dict__["__radd__"] is ring.RingElem.__dict__["__add__"],
           "__add__ and __radd__ are wrapped together")
    with contextlib.redirect_stdout(io.StringIO()):
        hopfly.cli.main(["hopf", "--lambda", "2,1", "--mu", "2", "--format", "json"])
    tracer.uninstall()
    after = {name: dict(vars(sys.modules[name])) for name in before}
    expect(all(before[n][k] is after[n][k] for n in before for k in before[n]),
           "uninstall restores every module binding")
    expect(ring.RingElem.__dict__["__add__"] is add, "uninstall restores the methods")
    self_ns, _, _ = tracer.totals()
    expect(all(v >= 0 for v in self_ns.values()), "self times are non-negative")


def check_bare_directory():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without sources the benchmark exits non-zero and prints no result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="also compare two traced passes of every workload")
    args = parser.parse_args()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    check_bare_directory()
    check_uninstall()
    check_gate()
    traced_pair("selftest", 0)
    if args.full:
        for name in workloads.WORKLOADS:
            traced_pair(name, 1)
    print(f"{len(FAILURES)} self-test failures")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
