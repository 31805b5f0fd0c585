"""forge's benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a forge checkout:

    python3 perfbench/run.py --workload pipeline-20k --seed 1 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, both modes
    python3 perfbench/selftest.py                    # the harness's own checks

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

One invocation generates the workload's inputs from ``--seed``, then runs
samples for ``--seconds`` seconds in a closed loop with one client: each
sample is one fresh worker interpreter (``perfbench/worker.py``) that
performs one operation, and the next starts only after it has ended.
On workloads with short samples the first sample is a warm-up: its
outputs are checked like the others', but its timings enter no metric.
Every sample's outputs are checked; a failed check counts toward
``fail_ratio``. Run directories are deleted after their checks. Workers
run with one BLAS thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians
over the samples. ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics, medians over the traced samples, plus
``trace.overhead_s`` (traced minus untraced median ``run_s``). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import checks
from tracer import median_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
GEN = os.path.join(HERE, "gen.py")
OUT_ROOT = ".perfbench"
RESULTS = os.path.join(OUT_ROOT, "results.json")

MIN_SAMPLES = 3        # untraced samples per --trace 0 run
MIN_PAIRS = 2          # untraced/traced pairs per --trace 1 run
MIN_SETUPS = 5         # setup_s is the median of at least this many launches
RUN_BUDGET_S = 150.0   # no sample starts that would end after this
WORKER_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(root: str) -> Dict[str, object]:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found; run from the root of a forge checkout")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Session:
    """One workload, one seed, one mode: inputs, samples and checks."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.work = os.path.join(OUT_ROOT, "work", f"{workload}-{seed}-{os.getpid()}")
        self.samples: List[Dict[str, object]] = []
        self.setups: List[float] = []
        self.reference_digest: Optional[str] = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
        # One BLAS thread: on a host with few shared cores a threaded kernel
        # waits at its barriers for whatever else runs there, and the
        # timings measure the scheduler instead of forge.
        for var in BLAS_THREAD_VARS:
            self.env[var] = "1"

    # -- inputs ------------------------------------------------------------

    def prepare(self) -> None:
        """Build the inputs and expected values in a child process.

        A child's ``ru_maxrss`` starts from its parent's peak on Linux, so
        the numpy work of generation stays out of this process.
        """
        if os.path.exists(self.work):
            shutil.rmtree(self.work)
        os.makedirs(self.work)
        job = {
            "workload": dataclasses.asdict(self.w), "seed": self.seed,
            "directory": os.path.join(self.work, "inputs"),
            "result_path": os.path.join(self.work, "inputs.json"),
        }
        job_path = os.path.join(self.work, "prepare.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        proc = subprocess.run([sys.executable, GEN, job_path], cwd=self.root, env=self.env,
                              capture_output=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            raise RuntimeError(f"input generation failed: {' | '.join(tail)}")
        with open(job["result_path"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.inputs, self.expected = doc["inputs"], doc["expected"]
        # Every sample starts with no dirty pages queued for writeback, so
        # one sample's writes never throttle the next one.
        os.sync()

    # -- one worker --------------------------------------------------------

    def launch(self, kind: str, traced: bool, index: int) -> Dict[str, object]:
        run_id = f"{self.w.name}-{self.seed}-{index}"
        job = {
            "kind": kind, "trace": traced, "run_id": run_id,
            "config": self.inputs["config"],
            "task": self.inputs.get("task"), "bundle": self.inputs.get("bundle"),
            "corpus": self.inputs.get("corpus"),
            "out_dir": os.path.join(self.work, "runs", run_id),
            "spans_path": os.path.join(self.work, f"spans-{run_id}.jsonl"),
            "result_path": os.path.join(self.work, f"result-{run_id}.json"),
        }
        job_path = os.path.join(self.work, f"job-{run_id}.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        timeout = max(10.0, WORKER_TIMEOUT_S - (time.monotonic() - self.started))
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, job_path, repr(launched)],
                cwd=self.root, env=self.env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"problems": [f"worker timed out after {timeout:.0f} s"], "job": job}
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            return {"problems": [f"worker exited {proc.returncode}: {' | '.join(tail)}"],
                    "job": job}
        with open(job["result_path"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        result["problems"] = []
        result["job"] = job
        return result

    def sample(self, traced: bool, warmup: bool = False) -> Dict[str, object]:
        index = len(self.samples)
        started = time.monotonic()
        result = self.launch("pipeline", traced, index)
        result["traced"] = traced
        result["warmup"] = warmup
        problems = result["problems"]
        out_dir = result["job"]["out_dir"]
        if not problems:
            problems += checks.check_pipeline_run(out_dir, self.expected)
            digest = checks.tree_digest(out_dir)
            if self.reference_digest is None:
                self.reference_digest = digest
            elif digest != self.reference_digest:
                problems.append("run directory differs from the first sample of the set")
            result["run_dir_mb"] = checks.tree_bytes(out_dir) / 2**20
            try:
                result["tokens"] = checks.run_tokens(out_dir)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"usage.json unreadable: {exc}")
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        os.sync()
        if "setup_s" in result and not warmup:
            self.setups.append(result["setup_s"])
        result["ok"] = not problems
        result["wall_s"] = time.monotonic() - started
        self.samples.append(result)
        timing = " ".join(f"{k}={result[k]:.3f}" for k in ("setup_s", "run_s") if k in result)
        label = " warm-up" if warmup else " traced" if traced else ""
        print(f"perfbench: {self.w.name} sample {index}{label}: "
              f"{timing} {'ok' if result['ok'] else 'FAILED'}", file=sys.stderr)
        for problem in problems:
            print(f"perfbench: {self.w.name} sample {index}: {problem}", file=sys.stderr)
        return result

    # -- the closed loop ---------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fits(self, estimate: float) -> bool:
        return self.elapsed() + 1.2 * estimate < RUN_BUDGET_S

    def run(self) -> None:
        try:
            self.prepare()
            os.makedirs(os.path.join(self.work, "runs"), exist_ok=True)
            # Compile forge once up front so no sample pays for writing bytecode.
            compileall.compile_dir(os.path.join(self.root, "src", "forge"), quiet=1)
            measuring = time.monotonic()
            # A warm-up sample keeps whatever a first start pays (files not
            # yet in the page cache, a cold allocator) out of the medians.
            if self.w.warmup:
                self.sample(traced=False, warmup=True)
            floor = 2 * MIN_PAIRS if self.trace else MIN_SAMPLES
            while True:
                n = sum(1 for s in self.samples if not s["warmup"])
                if n >= floor and time.monotonic() - measuring >= self.seconds:
                    break
                cost = max((s["wall_s"] for s in self.samples), default=0.0)
                if self.trace:
                    cost *= 2
                if n and not self.fits(cost):
                    break
                if self.trace:
                    self.sample(traced=False)
                    self.sample(traced=True)
                else:
                    self.sample(traced=False)
            index = len(self.samples)
            while len(self.setups) < MIN_SETUPS and self.fits(3.0):
                result = self.launch("setup", False, index)
                index += 1
                if "setup_s" in result:
                    self.setups.append(result["setup_s"])
        finally:
            if os.path.exists(self.work):
                shutil.rmtree(self.work)

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        plain = [s for s in self.samples if s["ok"] and not s["traced"] and not s["warmup"]]
        out = {"setup_s": statistics.median(self.setups) if self.setups else 0.0}
        for name in ("run_s", "cpu_s", "peak_rss_mb", "run_dir_mb", "tokens"):
            values = [s[name] for s in plain if name in s]
            out[name] = statistics.median(values) if values else 0.0
        out["fail_ratio"] = self.failed() / max(1, len(self.samples))
        return out

    def per_layer(self) -> Dict[str, float]:
        traced = [s for s in self.samples if s["ok"] and s["traced"]]
        out = median_metrics([s["layers"] for s in traced]) if traced else {}
        e2e = self.end_to_end()
        traced_run = [s["run_s"] for s in traced]
        out["trace.overhead_s"] = (
            statistics.median(traced_run) - e2e["run_s"] if traced_run else 0.0)
        for name in ("run_dir_mb", "tokens", "fail_ratio"):
            out[name] = e2e[name]
        return out

    def failed(self) -> int:
        return sum(1 for s in self.samples if not s["ok"])


def report(spec, session: Session) -> Dict[str, object]:
    """Print every metric of the mode by name and unit; return the result line."""
    section = "per_layer" if session.trace else "end_to_end"
    values = session.per_layer() if session.trace else session.end_to_end()
    metrics = {}
    for entry in spec[section]:
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{session.w.name:14s} {entry['name']:40s} {value:16.6f} {entry['unit']}")
    if not session.trace:
        for name, unit in (("run_dir_mb", "MiB"), ("tokens", "count"), ("fail_ratio", "ratio")):
            print(f"{session.w.name:14s} {name:40s} {values[name]:16.6f} {unit}")
    attempted = len(session.samples)
    return {
        "correct": attempted > 0 and session.failed() == 0,
        "attempted": max(1, attempted),
        "failed": session.failed() if attempted else 1,
        "metrics": metrics,
    }


def machine() -> Dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; write the results")
    args = parser.parse_args(argv)

    # A terminated run still stops its worker and deletes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    spec = load_spec(root)
    if not os.path.isfile(os.path.join(root, "src", "forge", "__init__.py")):
        fail(f"no forge sources under {os.path.join(root, 'src')}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.all:
        results = {"seed": args.seed, "seconds": seconds, "workloads": {}}
        lines = []
        for name in WORKLOADS:
            for trace in (False, True):
                session = Session(root, name, args.seed, seconds, trace)
                try:
                    session.run()
                except RuntimeError as exc:
                    fail(str(exc))
                line = report(spec, session)
                lines.append(line)
                entry = results["workloads"].setdefault(name, {"attempted": 0, "failed": 0})
                entry["attempted"] += line["attempted"]
                entry["failed"] += line["failed"]
                if trace:
                    entry["per_layer"] = {k: v["value"] for k, v in line["metrics"].items()}
                else:
                    entry["end_to_end"] = session.end_to_end()
        results["machine"] = machine()  # imports numpy, so only after every sample
        os.makedirs(OUT_ROOT, exist_ok=True)
        with open(RESULTS, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {RESULTS}")
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {},
        }))
        return 0

    if args.workload not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    session = Session(root, args.workload, args.seed, seconds, bool(args.trace))
    try:
        session.run()
    except RuntimeError as exc:
        fail(str(exc))
    print(json.dumps(report(spec, session)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
