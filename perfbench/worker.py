"""One benchmark sample in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json LAUNCH_TIME``, run from the
root of a forge checkout. ``LAUNCH_TIME`` is the parent's
``time.monotonic()`` taken just before it started this process, so
``setup_s`` covers interpreter start, ``import forge.pipeline`` and
resolving the config. The worker then runs one ``run_pipeline`` call,
optionally traced, and
writes its measurements as JSON to the job's ``result_path``.
"""

import json
import os
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    job_path, launched = argv[1], float(argv[2])
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "forge", "__init__.py")):
        print(f"no forge sources under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, src)

    import forge.pipeline

    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    config = forge.pipeline.load_config(job["config"])
    setup_s = time.monotonic() - launched

    result = {"setup_s": setup_s}
    if os.path.dirname(os.path.abspath(forge.__file__)) != os.path.join(src, "forge"):
        print(f"forge imported from {forge.__file__}, not {src}", file=sys.stderr)
        return 3
    if job["kind"] != "setup":
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer(job["run_id"])
            tracer.install()

        self0 = resource.getrusage(resource.RUSAGE_SELF)
        child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        forge.pipeline.run_pipeline(
            job["task"], job["bundle"], config, job["out_dir"], corpus_path=job["corpus"])
        result["run_s"] = time.perf_counter() - start
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["cpu_s"] = (_cpu(self1) - _cpu(self0)) + (_cpu(child1) - _cpu(child0))
        result["peak_rss_mb"] = self1.ru_maxrss / 1024.0

        if tracer is not None:
            tracer.uninstall()
            tracer.write_spans(job["spans_path"])
            result["layers"] = tracer.layer_metrics()

    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
