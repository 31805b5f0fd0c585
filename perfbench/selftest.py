"""Seconds-long self-test of the benchmark harness at tiny sizes.

Run from the root of a forge checkout:

    python3 perfbench/selftest.py

It checks the self-time arithmetic of the tracer, that the metric lists
of BENCHMARK.json and the harness agree, and that a tampered
``metrics.json`` or a tampered run directory is counted as a failed
sample. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import checks
import run
import workloads
from tracer import Tracer, covered, span_metrics

ROOT = os.getcwd()

TINY = {
    "tiny-pipeline": workloads.Workload(
        name="tiny-pipeline", cells=80, genes=40, n_experts=2),
    "tiny-deliberation": workloads.Workload(
        name="tiny-deliberation", cells=60, genes=30, n_experts=2,
        critic_score=0.3, corpus_docs=400, cluster_docs=150, failing_revisions=3, r_max=3),
}
FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def test_self_time() -> None:
    # parent [0, 10]; children overlap and one runs past the parent's end
    spans = [
        ["p", 0.0, 10.0, -1],
        ["c", 1.0, 3.0, 0],
        ["c", 2.0, 5.0, 0],
        ["c", 9.0, 12.0, 0],
        ["g", 1.5, 2.5, 1],  # a grandchild never counts against the parent
    ]
    m = span_metrics(spans)
    expect(covered([(1, 3), (2, 5), (9, 12)], 0, 10) == 5.0, "covered() unions and clips")
    expect(m["p.self_s"] == 5.0, f"parent self time 5.0 (got {m['p.self_s']})")
    expect(m["c.calls"] == 3 and m["c.s"] == 8.0, "calls and inclusive seconds add up")
    expect(m["c.self_s"] == 7.0, f"child self time excludes its grandchild (got {m['c.self_s']})")

    tracer = Tracer("selftest")
    inner = tracer.traced(lambda: time.sleep(0.01), "inner")
    outer = tracer.traced(lambda: [inner(), inner()], "outer")
    outer()
    m = span_metrics(tracer.spans)
    gap = m["outer.s"] - m["inner.s"] - m["outer.self_s"]
    expect(m["inner.calls"] == 2 and abs(gap) < 1e-9,
           "traced nesting: outer self = outer - inner")


def test_spec() -> None:
    spec = run.load_spec(ROOT)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "metric names are unique")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the workload table")


class Tampering(run.Session):
    """A session whose next sample's run directory is altered before checks."""

    tamper = None

    def launch(self, kind, traced, index):
        result = super().launch(kind, traced, index)
        if self.tamper is not None and kind != "setup":
            self.tamper(result["job"]["out_dir"])
            self.tamper = None
        return result


def _nudge_metric(out_dir: str) -> None:
    path = os.path.join(out_dir, "metrics.json")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["metrics"]["mse"] *= 1.0 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _append_byte(out_dir: str) -> None:
    with open(os.path.join(out_dir, "events.jsonl"), "ab") as fh:
        fh.write(b"\n")


def test_tampering(name: str) -> None:
    session = Tampering(ROOT, name, seed=3, seconds=0, trace=False)
    try:
        session.prepare()
        os.makedirs(os.path.join(session.work, "runs"), exist_ok=True)
        first = session.sample(traced=False)
        expect(first["ok"], f"{name}: clean sample passes every check")
        traced = session.sample(traced=True)
        expect(traced["ok"], f"{name}: traced sample has the untraced digest")
        session.tamper = _nudge_metric
        expect(not session.sample(traced=False)["ok"], f"{name}: tampered metrics.json fails")
        session.tamper = _append_byte
        expect(not session.sample(traced=False)["ok"], f"{name}: tampered run directory fails")
        expect(session.failed() == 2 and session.end_to_end()["fail_ratio"] == 0.5,
               f"{name}: fail_ratio counts the two tampered samples")
        layers = traced["layers"]
        if session.w.corpus_docs:
            expect(layers.get("retrieval.layers") == 10.0 and
                   layers.get("execution.revisions") == 4.0,
                   f"{name}: trace counts 10 retrieval layers and 4 revisions")
    finally:
        if os.path.exists(session.work):
            shutil.rmtree(session.work)


def main() -> int:
    started = time.monotonic()
    test_self_time()
    test_spec()
    workloads.WORKLOADS.update(TINY)
    for name in TINY:
        test_tampering(name)
    print(f"{len(FAILURES)} failed in {time.monotonic() - started:.1f} s")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
