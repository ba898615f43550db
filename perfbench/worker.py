"""One pass of one workload in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  The pass imports
``hopfly`` from ``<checkout>/src``, builds its ops from the seed, runs each
through ``hopfly.cli.main`` with stdout captured, and prints one JSON
record: a CLOCK_MONOTONIC stamp just before the first op (the parent's
spawn stamp turns it into set-up time), per-op durations and outputs, and
peak RSS.  ``--setup-only`` stops at that first stamp.  With ``--trace``
the layer wrappers are installed before the first op, and the per-layer
numbers and the span dump are produced after the last one.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hopfly  # noqa: E402
import hopfly.cli  # noqa: E402

import workloads  # noqa: E402


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = hopfly.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    return {"rc": rc, "s": seconds, "out": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced pass writes its spans")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src", "hopfly", "")
    if not os.path.abspath(hopfly.__file__).startswith(src):
        raise SystemExit(f"imported hopfly from {hopfly.__file__}, not from {src}")
    ops = workloads.make_ops(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()

    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return
    results = [run_op(op["argv"]) for op in ops]
    t_last = time.monotonic()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {"t_first": t_first, "t_last": t_last, "rss_kib": rss_kib, "ops": results}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        record["spans"] = len(tracer.span_name)
        if args.spans:
            tracer.dump(args.spans)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
