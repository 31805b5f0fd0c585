"""Dataset ingestion and the task-analysis stage.

A perturbation dataset arrives as a bundle directory (expression matrix,
cell table, feature table, manifest). This module loads and cross-checks
the bundle, derives a numeric profile, builds train/test splits over
held-out perturbation labels, and drives the four analysis agents
(dataset analyst, problem investigator, baseline assessor, refiner) whose
JSON replies become the eight-section analysis report.

Agents run sequentially in that order; the refiner requires the other
three sections as context. Every agent reply must parse as a JSON object
with the role's required keys; one corrective re-prompt is allowed before
the stage fails with the raw reply attached.
"""

from __future__ import annotations

import functools
import json
import os
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from importlib import resources
from string import Template
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .errors import (
    AssemblyError,
    DependencyError,
    LoadError,
    StageError,
    ValidationError,
)
from .matrixio import find_matrix_file, read_json, read_matrix, read_table
from .metrics import ExpressionMatrix
from .protocol import build_record, canonical_json, decode_json
from .providers import Answer, ChatProvider, ReplyError, ask

CONTROL_LABEL = "control"
MODALITIES = ("RNA", "ATAC", "protein")

# Each analysis role, in run order, and the required top-level keys of its JSON reply.
ROLE_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "dataset-analyst": (
        "introduction",
        "data_properties",
        "quality_assessment",
        "recommendations",
    ),
    "problem-investigator": ("problem_statement", "prediction_target", "challenges"),
    "baseline-assessor": ("candidate_baselines", "limitations"),
    "refiner": ("task_definition", "baseline_models", "constraints", "evaluation"),
}
ANALYSIS_ROLES = tuple(ROLE_SCHEMAS)

ROLE_DEPENDENCIES: Dict[str, Tuple[str, ...]] = {
    "refiner": ("dataset-analyst", "problem-investigator", "baseline-assessor"),
}

# The roles whose replies make up the report, and its sections in order.
REPORT_ROLES = ("dataset-analyst", "refiner")
REPORT_SECTIONS = tuple(key for role in REPORT_ROLES for key in ROLE_SCHEMAS[role])

TASK_DEFINITION_KEYS = ("input", "output", "task_type")

# The values of a reply's, report's or plan's section that say nothing.
EMPTY_VALUES = (None, "", [], {})


@dataclass
class DatasetBundle:
    """Loaded bundle: matrix, per-row perturbation labels, manifest and files."""

    matrix: ExpressionMatrix
    perturbations: Tuple[str, ...]
    manifest: Dict[str, str]
    files: Dict[str, str]


def load_bundle(path: str) -> DatasetBundle:
    """Read and cross-validate a bundle directory.

    Expects matrix.mtx (or matrix.tsv), obs.tsv with a `perturbation`
    column, var.tsv with a `feature_id` column, and manifest.json naming
    modality, organism, and dataset name. ``files`` maps each file's name
    to its path, the matrix file's first.
    """
    if not os.path.isdir(path):
        raise LoadError(f"bundle directory not found: {path}")
    manifest_path = os.path.join(path, "manifest.json")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ValidationError("manifest must be a JSON object")
    modality = manifest.get("modality")
    if modality not in MODALITIES:
        raise ValidationError(
            f"unknown modality {modality!r}; expected one of {MODALITIES}"
        )
    for key in ("organism", "name"):
        if not manifest.get(key):
            raise ValidationError(f"manifest field {key!r} must be non-empty")

    matrix_path = find_matrix_file(path, "matrix")
    values = read_matrix(matrix_path)

    obs_path = os.path.join(path, "obs.tsv")
    var_path = os.path.join(path, "var.tsv")
    obs_header, cells = read_table(obs_path)
    var_header, features = read_table(var_path)

    if "perturbation" not in obs_header:
        raise ValidationError("obs.tsv must have a 'perturbation' column")
    if "feature_id" not in var_header:
        raise ValidationError("var.tsv must have a 'feature_id' column")
    if len(cells) != values.shape[0]:
        raise ValidationError(
            f"cell table has {len(cells)} rows for a {values.shape[0]}-row matrix"
        )
    if len(features) != values.shape[1]:
        raise ValidationError(
            f"feature table has {len(features)} rows for {values.shape[1]} columns"
        )
    labels = tuple(row["perturbation"] for row in cells)
    if "" in labels:
        raise ValidationError(f"obs.tsv row {labels.index('') + 1}: empty perturbation label")

    row_ids = [row.get("cell_id") or f"cell-{i}" for i, row in enumerate(cells)]
    col_ids = [row["feature_id"] for row in features]
    if len(set(row_ids)) != len(row_ids):
        raise ValidationError("duplicate cell ids in obs.tsv")
    if len(set(col_ids)) != len(col_ids):
        raise ValidationError("duplicate feature ids in var.tsv")

    matrix = ExpressionMatrix(values, row_ids=tuple(row_ids), column_ids=tuple(col_ids))
    files = {os.path.basename(p): p for p in (matrix_path, obs_path, var_path, manifest_path)}
    return DatasetBundle(matrix=matrix, perturbations=labels, manifest=dict(manifest), files=files)


@dataclass
class DatasetProfile:
    """Summary statistics used as deterministic agent context."""

    n_cells: int
    n_features: int
    perturbation_inventory: Dict[str, int]
    control_count: int
    sparsity: float
    modality: str
    organism: str

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


def profile_dataset(bundle: DatasetBundle) -> DatasetProfile:
    """Exact counts: zero-entry sparsity and the perturbation inventory."""
    inventory = Counter(bundle.perturbations)
    values = bundle.matrix.values
    n, d = values.shape
    stored = values.data if sparse.issparse(values) else values
    sparsity = float((n * d - np.count_nonzero(stored)) / (n * d)) if n * d else 0.0
    return DatasetProfile(
        n_cells=n,
        n_features=d,
        perturbation_inventory=dict(inventory),
        control_count=inventory.get(CONTROL_LABEL, 0),
        sparsity=sparsity,
        modality=bundle.manifest["modality"],
        organism=bundle.manifest["organism"],
    )


@dataclass
class HoldoutSplit:
    """Row-index split over held-out perturbation labels.

    Control rows sit on both sides: they are baseline inputs, not labels.
    """

    train_indices: Tuple[int, ...]
    test_indices: Tuple[int, ...]
    held_out_perturbations: Tuple[str, ...]

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


def split_holdout(bundle: DatasetBundle, held_out: Iterable[str]) -> HoldoutSplit:
    """Send all rows of the held-out labels to test, keep the rest in train.

    Control rows go to both sides. The split is fully determined by the labels.
    """
    held = sorted(set(held_out))
    if not held:
        raise ValidationError("held_out must name at least one perturbation")
    if CONTROL_LABEL in held:
        raise ValidationError("control rows cannot be held out")
    labels = bundle.perturbations
    present = set(labels)
    for lab in held:
        if lab not in present:
            raise ValidationError(f"held-out label {lab!r} not in the dataset")
    held_set = set(held)
    train, test = [], []
    for i, lab in enumerate(labels):
        if lab == CONTROL_LABEL:
            train.append(i)
            test.append(i)
        elif lab in held_set:
            test.append(i)
        else:
            train.append(i)
    return HoldoutSplit(
        train_indices=tuple(train),
        test_indices=tuple(test),
        held_out_perturbations=tuple(held),
    )


# ----------------------------------------------------------------------
# Analysis agents
# ----------------------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*\n(.*?)\n```", re.DOTALL)


def parse_json_reply(text: str) -> Any:
    """JSON from a model reply, tolerating one markdown code fence, decoded
    by :func:`protocol.decode_json`."""
    candidate = text.strip()
    fenced = _FENCE_RE.search(candidate)
    if fenced:
        candidate = fenced.group(1).strip()
    return decode_json(candidate)


@functools.cache
def load_template(name: str) -> Template:
    """The prompt template ``forge/data/prompts/<name>.txt``, read once per
    process (a ``Template`` is never changed by ``substitute``)."""
    text = resources.files("forge.data.prompts").joinpath(f"{name}.txt").read_text("utf-8")
    return Template(text)


def _format_documents(documents: Sequence[Dict[str, str]], limit: int = 600) -> str:
    if not documents:
        return "(no retrieved documents)"
    parts = []
    for doc in documents:
        body = doc.get("text", "").strip().replace("\r", "")
        if len(body) > limit:
            body = body[:limit] + " ..."
        parts.append(f"[{doc.get('id', '?')}] {body}")
    return "\n\n".join(parts)


def _parse_section(role: str, reply: str) -> Dict[str, Any]:
    """The reply's JSON section; :class:`ReplyError` says how it fails the
    role's schema."""
    try:
        parsed = parse_json_reply(reply)
    except json.JSONDecodeError as exc:
        raise ReplyError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(parsed, dict):
        raise ReplyError("reply is not a JSON object")
    required = ROLE_SCHEMAS[role]
    missing = [k for k in required if k not in parsed]
    if missing:
        raise ReplyError(f"missing keys: {', '.join(missing)}")
    empty = [k for k in required if parsed[k] in EMPTY_VALUES]
    if empty:
        raise ReplyError(f"empty values for: {', '.join(empty)}")
    if role == "refiner":
        td = parsed["task_definition"]
        if not isinstance(td, dict):
            raise ReplyError("task_definition must be an object")
        bad = [k for k in TASK_DEFINITION_KEYS if not td.get(k)]
        if bad:
            raise ReplyError(f"task_definition missing: {', '.join(bad)}")
    return parsed


def run_analysis_stage(role: str, context: Dict[str, Any], provider: ChatProvider) -> Answer:
    """Run one analysis agent; the answer's value is its parsed section.

    ``context`` carries "task" (text), "profile" (DatasetProfile or dict),
    "documents" (list of {id, text}), and "sections" (prior roles' parsed
    content keyed by role). The refiner refuses to run before the other
    three sections exist.
    """
    if role not in ROLE_SCHEMAS:
        raise ValidationError(f"unknown analysis role: {role!r}")
    sections: Dict[str, Any] = context.get("sections") or {}
    for dep in ROLE_DEPENDENCIES.get(role, ()):
        if dep not in sections:
            raise DependencyError(f"{role} requires the {dep} section first")

    profile = context.get("profile")
    if isinstance(profile, DatasetProfile):
        profile = profile.to_json()
    prompt = load_template(role).substitute(
        task=str(context.get("task", "")).strip() or "(no task text)",
        profile=canonical_json(profile) if profile is not None else "(no profile)",
        documents=_format_documents(context.get("documents") or []),
        sections=canonical_json(sections) if sections else "(none)",
    )

    try:
        answer = ask(
            provider, prompt, functools.partial(_parse_section, role),
            lambda reason: load_template("schema-retry").substitute(
                reason=reason, keys=", ".join(ROLE_SCHEMAS[role])),
        )
    except ReplyError as exc:
        raise StageError(role, f"reply failed schema after retry: {exc}",
                         raw_reply=exc.reply) from None
    return answer


@dataclass
class AnalysisReport:
    """The eight-section analysis report handed to the design stage."""

    sections: Dict[str, Any]
    provenance: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"sections": self.sections, "provenance": self.provenance}

    def summary_text(self) -> str:
        """Compact deterministic digest used by downstream prompts."""
        parts = []
        for name in REPORT_SECTIONS:
            value = self.sections[name]
            rendered = value if isinstance(value, str) else canonical_json(value)
            parts.append(f"{name}: {rendered}")
        return "\n".join(parts)

    @classmethod
    def from_json(cls, doc: Any) -> "AnalysisReport":
        """A report read back from ``report.json``; a malformed one is a
        :class:`LoadError`, and one missing a section an :class:`AssemblyError`."""
        report = build_record("report", cls, doc)
        return assemble_report(report.sections, report.provenance)


def assemble_report(
    sections: Dict[str, Any],
    provenance: Optional[Dict[str, Dict[str, Any]]] = None,
) -> AnalysisReport:
    """Validate the merged sections and produce the final report.

    Raises a naming error when any of the eight sections is absent or
    empty and checks the task definition names its input, output, and
    task type.
    """
    missing = [name for name in REPORT_SECTIONS if sections.get(name) in EMPTY_VALUES]
    if missing:
        raise AssemblyError(f"missing report sections: {', '.join(missing)}")
    td = sections["task_definition"]
    if not isinstance(td, dict) or any(not td.get(k) for k in TASK_DEFINITION_KEYS):
        raise AssemblyError(
            "task_definition must name input, output, and task_type"
        )
    return AnalysisReport(
        sections={name: sections[name] for name in REPORT_SECTIONS},
        provenance=dict(provenance or {}),
    )
