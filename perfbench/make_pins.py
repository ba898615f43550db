"""Write pins.json: sha256 digests of every op's canonical text on the
default seed (and, for ``verify``, whose input ignores the seed, on every
seed).

    python3 perfbench/make_pins.py

Run it only to pin an output change that is intended and reviewed; the gate
exists to catch the unintended ones.
"""

import json
import os
import sys

import gate
import run
import workloads


def main():
    pins = {}
    for name in workloads.WORKLOADS:
        rec = run.spawn(name, workloads.DEFAULT_SEED, timeout=600)
        ops = workloads.make_ops(name, workloads.DEFAULT_SEED)
        if "ops" not in rec or any(r["rc"] != 0 for r in rec["ops"]):
            sys.exit(f"{name}: pass failed, nothing pinned: {rec.get('crashed')}")
        digests = [gate.digest(gate.canonical_text(op, r["out"]))
                   for op, r in zip(ops, rec["ops"])]
        pins[name] = {"any" if name == "verify" else "default": digests}
    with open(gate.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(gate.PINS_PATH)}")


if __name__ == "__main__":
    main()
