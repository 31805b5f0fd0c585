"""The benchmark's workloads: what each one runs and why it was chosen.

This module imports nothing heavy, so the harness process that launches
every worker stays small (a child's ``ru_maxrss`` starts from its
parent's peak on Linux).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int = 0
    genes: int = 0
    n_experts: int = 2
    critic_score: float = 0.9
    corpus_docs: int = 0
    cluster_docs: int = 0
    failing_revisions: int = 0
    r_max: int = 10
    warmup: bool = True  # run one untimed sample before the timed ones


WORKLOADS: Dict[str, Workload] = {
    # Data-bound. A 20,000 x 2,000 bundle, 10% nonzero, that a 2-expert
    # panel plans for in 4 rounds and the scripted model solves at
    # revision 0. Bundle load, profiling, sandbox staging of a large input
    # and the evaluate stage (parse, align, control mask, metrics) do
    # nearly all of the work: the data path every matrix-side change acts on.
    # Its samples take about 10 s and the first is no slower than the rest,
    # so it skips the warm-up sample, which would cost a quarter of the run.
    "pipeline-20k": Workload(
        name="pipeline-20k", cells=20000, genes=2000,
        n_experts=2, critic_score=0.9, r_max=10, warmup=False,
    ),
    # Orchestration-bound. A tiny 500 x 200 bundle, but the default
    # 5-expert panel never reaches tau (the critic scores 0.3), so the
    # discussion runs to the 10-round cap (~300 provider calls); the
    # retrieval walk over 5,000 documents runs to its layer cap; and the
    # model fails three times, once per failure category, before revision 3
    # succeeds. Consensus, providers, protocol, retrieval and the
    # spawn/retry side of execution do the work; metrics and matrixio idle,
    # so every data-path change should leave this workload unchanged.
    "deliberation": Workload(
        name="deliberation", cells=500, genes=200,
        n_experts=5, critic_score=0.3, corpus_docs=5000, cluster_docs=400,
        failing_revisions=3, r_max=3,
    ),
}
