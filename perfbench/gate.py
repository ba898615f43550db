"""Output checks, run by the parent outside every timed interval.

An op passes when it exited 0 without raising and its output holds up:

* ``hopf``: the value's canonical text, parsed back, specialised by
  ``substitute_v`` at N = max(l(lambda), l(mu)) equals ``hopf_sln_minor``
  at that N, an independent route;
* ``sln``: ``routes_agree`` is true, and the two printed values, parsed
  back, are equal;
* ``verify``: every check passed.

On the default seed the sha256 of each op's canonical text must also match
``pins.json``, pinned from the package as it was when the benchmark was
written.  Verdicts are memoised on the output digest, since every pass of a
run repeats the same outputs.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")


def canonical_text(op: dict, out: str) -> str:
    """The part of an op's JSON output that must stay byte-identical."""
    obj = json.loads(out)
    if op["kind"] == "hopf":
        return obj["value"]["text"]
    if op["kind"] == "sln":
        return obj["value"]["text"] + "\n" + obj["minor_value"]["text"]
    return "\n".join(f"{c['name']}|{c['passed']}|{c['detail']}" for c in obj["checks"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


class Gate:
    def __init__(self, pinned: list[str] | None):
        self.pinned = pinned
        self._verdicts: dict = {}

    def check(self, index: int, op: dict, res: dict) -> str | None:
        """None when the op's output is correct, else the reason it is not."""
        if res.get("error"):
            return "raised: " + res["error"].strip().splitlines()[-1]
        if res.get("rc") != 0:
            return f"exit status {res.get('rc')}: {res.get('stderr', '').strip()[:200]}"
        key = (index, digest(res["out"]))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check_output(index, op, res["out"])
            except Exception as exc:  # a malformed output is a failed op
                self._verdicts[key] = f"output check raised {type(exc).__name__}: {exc}"
        return self._verdicts[key]

    def _check_output(self, index: int, op: dict, out: str) -> str | None:
        text = canonical_text(op, out)
        if self.pinned is not None and digest(text) != self.pinned[index]:
            return "canonical text differs from the pinned digest"
        obj = json.loads(out)
        if op["kind"] == "hopf":
            return _check_hopf(op, obj)
        if op["kind"] == "sln":
            return _check_sln(obj)
        checks = obj["checks"]
        bad = [c["name"] for c in checks if c["passed"] is not True]
        if bad or obj["failed"] != 0 or not checks:
            return f"verify checks failed: {bad}"
        return None


def _check_hopf(op: dict, obj: dict) -> str | None:
    from hopfly import Partition, hopf_sln_minor, parse_ring_elem

    lam, mu = Partition(op["lam"]), Partition(op["mu"])
    if obj["lambda"] != list(op["lam"]) or obj["mu"] != list(op["mu"]):
        return "output names other diagrams than the input"
    n = max(lam.length, mu.length, 1)
    value = parse_ring_elem(obj["value"]["text"])
    if value.substitute_v(n) != hopf_sln_minor(lam, mu, n).value:
        return f"substitute_v at N={n} differs from the minor route"
    return None


def _check_sln(obj: dict) -> str | None:
    from hopfly import parse_ring_elem

    if obj["routes_agree"] is not True:
        return "sl(N) routes disagree"
    sub = parse_ring_elem(obj["value"]["text"], univariate=True)
    if sub != parse_ring_elem(obj["minor_value"]["text"], univariate=True):
        return "the printed values of the two routes differ"
    return None
