"""Time ``forge.metrics.pointwise_metrics`` in two checkouts, side by side.

    python3 tools/bench_kernels.py PARENT_CHECKOUT CHANGE_CHECKOUT [--pairs 5]

Each reading is one fresh interpreter that imports forge from
``<checkout>/src``, builds a seeded pair of matrices, makes one warm-up
call and then times ``--calls`` calls; the reading is their median. The
two checkouts alternate which goes first, pair by pair, on a fresh seed
per pair, with one BLAS thread. The layouts:

- ``csr``: a 20,000 x 2,000 CSR pair at 10 % density;
- ``C/C``, ``F/F``, ``C/F``: dense 8,000 x 2,000 pairs in C or Fortran order.

It prints each layout's median and quartiles (inclusive method) per side,
in seconds per call, and as its last line the same as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

LAYOUTS = ("csr", "C/C", "F/F", "C/F")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _csr(rng, n: int, d: int, density: float):
    """A canonical CSR built a block of rows at a time, never dense whole."""
    from scipy import sparse

    blocks = []
    for start in range(0, n, 1000):
        rows = min(1000, n - start)
        block = rng.gamma(2.0, 1.5, size=(rows, d)) * (rng.random((rows, d)) < density)
        blocks.append(sparse.csr_array(block))
    return sparse.vstack(blocks, format="csr")


def _operands(layout: str, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    if layout == "csr":
        return _csr(rng, 20_000, 2_000, 0.1), _csr(rng, 20_000, 2_000, 0.1)
    y = rng.gamma(2.0, 1.5, size=(8_000, 2_000))
    yhat = y + rng.normal(scale=0.7, size=y.shape)
    orders = layout.split("/")
    return tuple(v if o == "C" else np.asfortranarray(v) for v, o in zip((y, yhat), orders))


def worker(layout: str, seed: int, calls: int) -> None:
    from forge.metrics import pointwise_metrics

    truth, pred = _operands(layout, seed)
    result = pointwise_metrics(truth, pred)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        pointwise_metrics(truth, pred)
        times.append(time.perf_counter() - start)
    print(json.dumps({"s": statistics.median(times), "result": result}))


def reading(checkout: str, layout: str, seed: int, calls: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", layout,
         "--seed", str(seed), "--calls", str(calls)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--calls", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--layouts", default=",".join(LAYOUTS))
    parser.add_argument("--worker", choices=LAYOUTS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker, args.seed, args.calls)
        return
    if not (args.parent and args.change):
        parser.error("give a parent and a change checkout")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    report = {}
    for layout in args.layouts.split(","):
        sides = {"parent": [], "change": []}
        wins = 0
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            got = {side: reading(getattr(args, side), layout, seed, args.calls) for side in order}
            if got["parent"]["result"] != got["change"]["result"]:
                sys.exit(f"{layout} seed {seed}: results differ: {got}")
            for side in order:
                sides[side].append(got[side]["s"])
            wins += got["change"]["s"] < got["parent"]["s"]
        report[layout] = {side: summary(v) for side, v in sides.items()}
        report[layout].update(change_lower_in_pairs=wins, pairs=args.pairs,
                              readings={side: [round(s, 4) for s in v] for side, v in sides.items()})
        p, c = report[layout]["parent"], report[layout]["change"]
        print(f"{layout:4s} parent {p['median']:.4f} s [{p['q1']:.4f}, {p['q3']:.4f}]  "
              f"change {c['median']:.4f} s [{c['q1']:.4f}, {c['q3']:.4f}]  "
              f"change lower in {wins} of {args.pairs}", flush=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
