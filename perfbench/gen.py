"""Seeded inputs for the benchmark workloads.

Everything a workload feeds forge is built here from one integer seed:
dataset bundles (``matrix.mtx``, ``obs.tsv``, ``var.tsv``,
``manifest.json``), a citation-linked corpus with a precomputed
``embeddings.tsv``, the scripted provider fixture and the run config.
The same seed always yields the same bytes.

Usage: ``python3 perfbench/gen.py JOB.json`` from the root of a forge
checkout with ``src`` on ``PYTHONPATH``. The job names the workload, the
seed, the input directory and a ``result_path``, where the input paths
and the values the output checks expect are written as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import io as spio
from scipy import sparse

from forge.consensus import converged, update_confidence
from forge.providers import ScriptedEmbedder
from forge.retrieval import (
    STOPWORDS,
    Corpus,
    Document,
    construct_initial_query,
    write_embeddings,
)

import reference
from workloads import Workload

EMBED_DIM = 64
CONTROL = "control"
KNOCKOUTS = 19
CONTROL_FRACTION = 0.25
DENSITY = 0.1
PEER_SCORE = 0.9
T_MAX = 10  # forge's default round cap; tau and eps are its defaults too
TAU = 0.8
EPS = 0.03


TASK_TEXT = (
    "Predict the transcriptome response of single cells to CRISPR gene "
    "knockouts in a pooled perturbation screen. Use unperturbed control "
    "cells as the baseline, recover the differentially expressed genes of "
    "each knockout, and report accuracy with mse, pcc and r2 together with "
    "their restrictions to differentially expressed genes.\n"
)

# The three scripted failures of the deliberation workload, one failure
# category each, in revision order.
FAILURES = (
    ("computation-execution-error",
     'raise IndexError("index 2048 is out of bounds for axis 1 with size 2000")'),
    ("invalid-type-or-operation",
     "raise TypeError(\"unsupported operand type(s) for +: 'int' and 'str'\")"),
    ("model-configuration-error",
     "raise ValueError(\"invalid configuration: missing required hyperparameter 'hidden_dim'\")"),
)

# The scripted model: copy the bundle matrix as the predictions but list
# the columns in reverse, so align_predictions must undo a permutation and
# the scores are neither trivially perfect nor degenerate.
SUCCESS_PROGRAM = '''\
import shutil

shutil.copyfile("matrix.mtx", "predictions.mtx")


def ids(path, col):
    with open(path) as fh:
        lines = [ln.rstrip("\\n").split("\\t") for ln in fh if ln.strip()]
    k = lines[0].index(col)
    return [row[k] for row in lines[1:]]


with open("predictions_rows.tsv", "w") as fh:
    fh.write("\\n".join(ids("obs.tsv", "cell_id")) + "\\n")
with open("predictions_cols.tsv", "w") as fh:
    fh.write("\\n".join(reversed(ids("var.tsv", "feature_id"))) + "\\n")
print("predictions written")
'''

ANALYSIS_REPLIES = (
    {
        "introduction": "A pooled CRISPR knockout screen profiled by single-cell RNA.",
        "data_properties": "Sparse count-like matrix with one control group and 19 knockouts.",
        "quality_assessment": "No missing entries; roughly 90% zeros, as expected.",
        "recommendations": "Start from control-mean and identity baselines.",
    },
    {
        "problem_statement": "Map control expression to post-knockout expression.",
        "prediction_target": "per-gene expression after each knockout",
        "challenges": "Sparse counts and few strongly responding genes per knockout.",
    },
    {
        "candidate_baselines": "control mean; identity copy; linear shift",
        "limitations": "Baselines ignore gene-gene interactions.",
    },
    {
        "task_definition": {
            "input": "control expression profiles",
            "output": "perturbed expression profiles",
            "task_type": "regression",
        },
        "baseline_models": "control-mean carry-forward",
        "constraints": "CPU-only sandbox",
        "evaluation": "MSE, PCC, R2 plus DE-restricted variants",
    },
)


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(name.encode("utf-8"))])


def forge_seed(seed: int) -> int:
    return int(seed) % (2**31)


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------


def write_bundle(
    directory: str, rng: np.random.Generator, cells: int, genes: int, name: str
) -> Dict[str, object]:
    """A `.mtx` bundle with gamma values and planted knockout effects.

    ``DENSITY`` of the entries are nonzero; ``CONTROL_FRACTION`` of the
    cells are controls and the rest split evenly over ``KNOCKOUTS``
    labels. Returns the dense truth matrix, the control mask and the
    labels, which the output checks use as their independent reference.
    """
    os.makedirs(directory, exist_ok=True)
    knockouts = [f"KO_{i:02d}" for i in range(KNOCKOUTS)]
    n_control = int(round(cells * CONTROL_FRACTION))
    labels = np.array([CONTROL] * n_control + [
        knockouts[i % KNOCKOUTS] for i in range(cells - n_control)
    ])
    labels = labels[rng.permutation(cells)]
    # Each knockout triples the values of its own few planted genes.
    label_index = np.full(cells, -1)
    for k, lab in enumerate(knockouts):
        label_index[labels == lab] = k
    planted = np.zeros((KNOCKOUTS, genes), dtype=bool)
    for k in range(KNOCKOUTS):
        planted[k, rng.choice(genes, size=max(1, genes // 200), replace=False)] = True

    rows_parts, cols_parts, vals_parts = [], [], []
    block = max(1, 2_000_000 // genes)
    for start in range(0, cells, block):
        stop = min(cells, start + block)
        mask = rng.random((stop - start, genes)) < DENSITY
        r, c = np.nonzero(mask)
        v = rng.gamma(2.0, 1.0, size=r.size)
        li = label_index[start + r]
        v[(li >= 0) & planted[np.maximum(li, 0), c]] *= 3.0
        rows_parts.append(r + start)
        cols_parts.append(c)
        vals_parts.append(v)
    coo = sparse.coo_matrix(
        (np.concatenate(vals_parts), (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(cells, genes),
    )
    spio.mmwrite(os.path.join(directory, "matrix.mtx"), coo)

    cell_ids = [f"cell{i:06d}" for i in range(cells)]
    with open(os.path.join(directory, "obs.tsv"), "w", encoding="utf-8") as fh:
        fh.write("cell_id\tperturbation\n")
        fh.writelines(f"{cid}\t{lab}\n" for cid, lab in zip(cell_ids, labels))
    with open(os.path.join(directory, "var.tsv"), "w", encoding="utf-8") as fh:
        fh.write("feature_id\n")
        fh.writelines(f"gene{j:05d}\n" for j in range(genes))
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"modality": "RNA", "organism": "human", "name": name}, fh)
    return {"truth": coo.toarray(), "control": labels == CONTROL, "labels": labels}


def bundle_meta_text(name: str, labels: np.ndarray) -> str:
    """The dataset description the analyze stage embeds with the task."""
    inventory = " ".join(sorted(set(labels.tolist())))
    return f"{name} human RNA single-cell perturbation expression {inventory}"


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------


def _vocabulary(rng: np.random.Generator, size: int) -> List[str]:
    syllables = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]
    words: List[str] = []
    seen = set()
    while len(words) < size:
        parts = rng.integers(0, len(syllables), size=(size, 3))
        for row in parts:
            word = "".join(syllables[i] for i in row)
            if word not in seen and word not in STOPWORDS:
                seen.add(word)
                words.append(word)
                if len(words) == size:
                    break
    return words


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def write_corpus(
    directory: str,
    rng: np.random.Generator,
    n_docs: int,
    n_cluster: int,
    task_text: str,
    meta_text: str,
    embed_seed: int,
) -> None:
    """Documents, citations and embeddings whose walk hits the layer cap.

    ``n_cluster`` documents sit near the initial query that the analyze
    stage will build (same task, bundle metadata, embedder seed and corpus
    statistics) and cite one another, so every breadth and depth layer
    finds documents above the relevance floor. Every document draws its
    words from a large random vocabulary, so each layer brings fresh key
    terms and the query never stagnates.
    """
    os.makedirs(directory, exist_ok=True)
    vocab = _vocabulary(rng, 30000)
    ids = [f"doc{i:05d}" for i in range(n_docs)]
    texts = [" ".join(vocab[j] for j in rng.integers(0, len(vocab), size=80)) + "\n"
             for _ in ids]
    for doc_id, text in zip(ids, texts):
        with open(os.path.join(directory, doc_id + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(text)

    # The statistics depend only on the texts, so the corpus is built with
    # placeholder embeddings first and given its real ones below.
    placeholder = np.eye(EMBED_DIM)[0]
    corpus = Corpus([Document(id=i, text=t, embedding=placeholder)
                     for i, t in zip(ids, texts)])
    q0 = construct_initial_query(
        task_text, meta_text, ScriptedEmbedder(dim=EMBED_DIM, seed=embed_seed),
        stats=corpus.stats,
    ).vector

    cluster = set(rng.choice(n_docs, size=n_cluster, replace=False).tolist())
    cluster_list = sorted(cluster)
    embeddings = []
    edges = []
    for i in range(n_docs):
        noise = _unit(rng.standard_normal(EMBED_DIM))
        if i in cluster:
            embeddings.append(_unit(q0 + rng.uniform(0.3, 0.9) * noise))
            targets = rng.choice(cluster_list, size=4, replace=False).tolist()
            targets.append(int(rng.integers(0, n_docs)))
        else:
            embeddings.append(noise)
            targets = rng.integers(0, n_docs, size=3).tolist()
        edges.extend((ids[i], ids[t]) for t in targets if t != i)
    with open(os.path.join(directory, "citations.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{a}\t{b}\n" for a, b in edges)
    for doc_id, embedding in zip(ids, embeddings):
        corpus.get(doc_id).embedding = embedding
    write_embeddings(corpus, directory)


# ----------------------------------------------------------------------
# Scripted provider fixture
# ----------------------------------------------------------------------


def _plan(rng: np.random.Generator, expert: int, round_no: int) -> str:
    tag = int(rng.integers(0, 10**6))
    return json.dumps({
        "preprocessing": f"log1p and per-cell depth scaling (expert {expert}, draft {round_no})",
        "architecture": f"control-mean shift with a sparse linear head ({tag})",
        "implementation": "copy the bundle matrix to predictions",
        "training": "none for the copy baseline",
        "evaluation": "mse, pcc and r2 plus DE-restricted variants",
    }, sort_keys=True)


def discussion_outcome(n_experts: int, critic: float, peer: float, tau: float,
                       eps: float, t_max: int) -> Tuple[int, str]:
    """(rounds, reason) of the consensus loop when every reply carries these scores."""
    conf = [0.0] * n_experts
    for round_no in range(1, t_max + 1):
        peers = [peer] * (n_experts - 1)
        new = [update_confidence(c, critic, peers) for c in conf]
        done, _ = converged(new, conf, tau, eps)
        conf = new
        if done:
            return round_no, "converged"
    return t_max, "round-cap"


def _artifact(program: str) -> str:
    return "FILE: main.py\n```\n" + program + "```\nENTRYPOINT: python main.py\n"


def fixture_completions(w: Workload, rng: np.random.Generator) -> List[str]:
    """Every scripted reply of one run, in the order the pipeline asks."""
    out = [json.dumps(doc, sort_keys=True) for doc in ANALYSIS_REPLIES]
    n = w.n_experts
    out += [_plan(rng, e, 0) for e in range(n)]
    rounds, _ = discussion_outcome(n, w.critic_score, PEER_SCORE, TAU, EPS, T_MAX)
    for round_no in range(1, rounds + 1):
        out += [f"Covers the task.\nSCORE: {w.critic_score}"] * n
        out += [f"Sound plan.\nSCORE: {PEER_SCORE}"] * (n * (n - 1))
        if round_no < rounds:
            out += [_plan(rng, e, round_no) for e in range(n)]
    for _, statement in FAILURES[: w.failing_revisions]:
        out.append(_artifact("import json\n\n" + statement + "\n"))
    out.append(_artifact(SUCCESS_PROGRAM))
    return out


# ----------------------------------------------------------------------
# One workload's inputs
# ----------------------------------------------------------------------


def build(w: Workload, seed: int, directory: str) -> Dict[str, object]:
    """Write the workload's inputs under ``directory``; return their paths.

    The returned ``reference`` entry carries what the output checks
    compare against (dense truth and control mask).
    """
    rng = rng_for(seed, w.name)
    os.makedirs(directory, exist_ok=True)
    bundle = os.path.join(directory, "bundle")
    ref = write_bundle(bundle, rng, w.cells, w.genes, f"screen-{w.name}")
    task = os.path.join(directory, "task.txt")
    with open(task, "w", encoding="utf-8") as fh:
        fh.write(TASK_TEXT)
    corpus: Optional[str] = None
    if w.corpus_docs:
        corpus = os.path.join(directory, "corpus")
        write_corpus(corpus, rng, w.corpus_docs, w.cluster_docs, TASK_TEXT,
                     bundle_meta_text(f"screen-{w.name}", ref["labels"]), forge_seed(seed))
    fixture = os.path.join(directory, "fixture.json")
    with open(fixture, "w", encoding="utf-8") as fh:
        json.dump({"completions": fixture_completions(w, rng)}, fh)
    config = os.path.join(directory, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({
            "provider": {"type": "scripted", "fixture": fixture, "embed_dim": EMBED_DIM},
            "discussion": {"n_experts": w.n_experts, "t_max": T_MAX},
            "execution": {"r_max": w.r_max, "wall_seconds": 120.0},
            "seed": forge_seed(seed),
        }, fh)
    return {"task": task, "bundle": bundle, "corpus": corpus, "config": config,
            "reference": ref}


def expected_outputs(w: Workload, ref: Dict[str, object]) -> Dict[str, object]:
    """What the output checks compare each sample against."""
    rounds, reason = discussion_outcome(w.n_experts, w.critic_score, PEER_SCORE, TAU, EPS, T_MAX)
    return {
        "metrics": reference.expression_metrics(ref["truth"], ref["control"]),
        "rounds_used": rounds,
        "discussion_reason": reason,
        "refinements": w.failing_revisions,
        "failure_categories": [c for c, _ in FAILURES[: w.failing_revisions]],
        "retrieval_stop": "layer-cap" if w.corpus_docs else "no-documents",
    }


def main(argv) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    w = Workload(**job["workload"])
    inputs = build(w, job["seed"], job["directory"])
    ref = inputs.pop("reference")
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "expected": expected_outputs(w, ref)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
