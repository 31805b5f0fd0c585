"""Shared fixture builders: dataset bundles, corpora, and scripted replies."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest
from scipy import io as spio
from scipy import sparse

from forge.task_analysis import AnalysisReport, assemble_report


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance scoreboard, one verdict line per criterion."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "SCOREBOARD", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


# Runs a memory probe from a small interpreter: a child's ru_maxrss starts
# from the peak of the process that launched it, and pytest's can be large.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"

BUNDLE_MATRIX = np.array(
    [
        [1.0, 2.0, 3.0],
        [2.0, 1.0, 4.0],
        [5.0, 2.0, 3.0],
        [4.0, 3.0, 2.0],
    ]
)

BUNDLE_CELLS = [
    ("c1", "control"),
    ("c2", "control"),
    ("c3", "KO_A"),
    ("c4", "KO_A"),
]

BUNDLE_GENES = ["g1", "g2", "g3"]


def write_bundle(
    directory: Path,
    matrix: Optional[np.ndarray] = None,
    cells: Optional[Sequence] = None,
    genes: Optional[Sequence[str]] = None,
    modality: str = "RNA",
) -> Path:
    """A dense-TSV bundle directory with obs/var tables and a manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    matrix = BUNDLE_MATRIX if matrix is None else np.asarray(matrix, dtype=float)
    cells = list(BUNDLE_CELLS if cells is None else cells)
    genes = list(BUNDLE_GENES if genes is None else genes)
    lines = ["\t".join(f"{v:.17g}" for v in row) for row in matrix]
    (directory / "matrix.tsv").write_text("\n".join(lines) + "\n")
    obs = ["cell_id\tperturbation"] + [f"{cid}\t{lab}" for cid, lab in cells]
    (directory / "obs.tsv").write_text("\n".join(obs) + "\n")
    var = ["feature_id"] + genes
    (directory / "var.tsv").write_text("\n".join(var) + "\n")
    (directory / "manifest.json").write_text(
        json.dumps({"modality": modality, "organism": "human", "name": "toy-pilot"})
    )
    return directory


@pytest.fixture
def bundle_dir(tmp_path: Path) -> Path:
    return write_bundle(tmp_path / "bundle")


def write_predictions(directory: Path, matrix) -> Path:
    """An ExpressionMatrix as ``predictions.mtx`` plus its row and column id
    files, the files a revision leaves for the validator."""
    directory.mkdir(parents=True, exist_ok=True)
    spio.mmwrite(str(directory / "predictions.mtx"), sparse.coo_matrix(matrix.values))
    for name, ids in (("rows", matrix.row_ids), ("cols", matrix.column_ids)):
        (directory / f"predictions_{name}.tsv").write_text("".join(f"{i}\n" for i in ids))
    return directory


def write_corpus(
    directory: Path,
    docs: Dict[str, str],
    citations: Optional[Sequence] = None,
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for doc_id, text in docs.items():
        (directory / f"{doc_id}.txt").write_text(text)
    if citations:
        rows = [f"{src}\t{dst}" for src, dst in citations]
        (directory / "citations.tsv").write_text("\n".join(rows) + "\n")
    return directory


REPORT_SECTIONS = {
    "introduction": "Predict perturbed expression from control profiles.",
    "data_properties": "Four cells by three genes, dense counts, no batches.",
    "quality_assessment": "No missing entries; depth is uniform.",
    "recommendations": "Use a mean-shift baseline before anything larger.",
    "task_definition": {
        "input": "control expression profiles",
        "output": "perturbed expression profiles",
        "task_type": "regression",
    },
    "baseline_models": "Per-gene control mean carried forward.",
    "constraints": "CPU-only, one-minute budget.",
    "evaluation": "MSE, PCC, and R2 on held-out perturbations.",
}


def make_report() -> AnalysisReport:
    return assemble_report(dict(REPORT_SECTIONS))


PLAN_JSON = '{"preprocessing":"none","architecture":"identity","implementation":"copy matrix to predictions","training":"none","evaluation":"mse"}'

ANALYSIS_REPLIES = [
    json.dumps(
        {
            "introduction": "A four-cell pilot of perturbation response prediction.",
            "data_properties": "4x3 dense matrix, two control and two KO_A cells.",
            "quality_assessment": "All entries positive; no dropout observed.",
            "recommendations": "Prefer simple baselines at this scale.",
        }
    ),
    json.dumps(
        {
            "problem_statement": "Map control expression to KO_A expression.",
            "prediction_target": "per-gene expression after perturbation",
            "challenges": "Tiny sample size; no replicate structure.",
        }
    ),
    json.dumps(
        {
            "candidate_baselines": "control mean; identity copy",
            "limitations": "No nonlinearity captured.",
        }
    ),
    json.dumps(
        {
            "task_definition": {
                "input": "control expression profiles",
                "output": "perturbed expression profiles",
                "task_type": "regression",
            },
            "baseline_models": "control-mean carry-forward",
            "constraints": "CPU-only sandbox, sixty seconds",
            "evaluation": "MSE, PCC, R2 plus DE-restricted variants",
        }
    ),
]

IDENTITY_SCRIPT = '''\
with open("matrix.tsv") as fh:
    rows = [ln.rstrip("\\n") for ln in fh if ln.strip()]
with open("predictions.tsv", "w") as fh:
    fh.write("\\n".join(rows) + "\\n")

def ids(path, col):
    with open(path) as fh:
        lines = [ln.rstrip("\\n").split("\\t") for ln in fh if ln.strip()]
    k = lines[0].index(col)
    return [row[k] for row in lines[1:]]

with open("predictions_rows.tsv", "w") as fh:
    fh.write("\\n".join(ids("obs.tsv", "cell_id")) + "\\n")
with open("predictions_cols.tsv", "w") as fh:
    fh.write("\\n".join(ids("var.tsv", "feature_id")) + "\\n")
print("predictions written")
'''

IDENTITY_ARTIFACT_REPLY = (
    "FILE: main.py\n```\n" + IDENTITY_SCRIPT + "```\nENTRYPOINT: python main.py\n"
)


def discussion_replies(
    n_experts: int,
    rounds: int,
    score: float = 0.9,
    refine_after_last: bool = False,
) -> List[str]:
    """Scripted replies for one discussion: proposals, scores, refinements.

    ``rounds`` is the number of scoring rounds the discussion will run;
    refinements happen after every round except the last (unless the
    round cap is hit before convergence, when the last round also skips
    refinement — which is the same call pattern).
    """
    replies = [PLAN_JSON] * n_experts
    per_round = n_experts + n_experts * (n_experts - 1)
    for rnd in range(1, rounds + 1):
        replies += [f"SCORE: {score}"] * per_round
        if rnd < rounds or refine_after_last:
            replies += [PLAN_JSON] * n_experts
    return replies


def golden_fixture(
    path: Path,
    n_experts: int = 2,
    design_rounds: int = 4,
    extra: Optional[List[str]] = None,
    artifact: str = IDENTITY_ARTIFACT_REPLY,
) -> Path:
    """Fixture file for a full run: analyze + design + one generation."""
    completions = list(ANALYSIS_REPLIES)
    completions += discussion_replies(n_experts, design_rounds)
    completions += [artifact]
    if extra:
        completions += extra
    path.write_text(json.dumps({"completions": completions}))
    return path


def write_config(path: Path, **profile) -> Path:
    path.write_text(json.dumps(profile))
    return path
