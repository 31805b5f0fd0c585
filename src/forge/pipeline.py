"""End-to-end orchestration: analyze → design → execute → evaluate.

Each stage is a standalone function over explicit inputs that writes its
own outputs into the run directory, so the CLI's stage commands produce
exactly the slice a full run would. A run owns a single run directory
holding every stage output, the provider event log, and the knowledge
store; re-running with the same config, fixture, seed, and bundle
reproduces the directory byte for byte.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, get_type_hints

from .consensus import (
    DiscussionParams,
    DiscussionTrace,
    ResearchPlan,
    load_registry,
    run_discussion,
    select_experts,
)
from .errors import EmptyQueryError, LoadError, LoopError, ValidationError
from .execution import (
    CodeArtifact,
    EvaluationParams,
    ExecutionParams,
    ExecutionResult,
    LoopTrace,
    ValidationReport,
    refinement_loop,
    validate_predictions,
)
from .matrixio import (
    align_predictions,
    find_matrix_file,
    read_json,
    read_predictions,
    write_json,
)
from .metrics import ExpressionMatrix
from .protocol import (
    Envelope,
    EventStream,
    KnowledgeEntity,
    MemoryStore,
    save_store,
)
from .providers import (
    ChatProvider,
    Embedder,
    GenerationParams,
    HttpChatProvider,
    HttpEmbedder,
    Usage,
    UsageLedger,
    load_fixture,
)
from .retrieval import (
    Corpus,
    RetrievalParams,
    RetrievalResult,
    RetrievalTrace,
    construct_initial_query,
    load_corpus,
    retrieve,
)
from .task_analysis import (
    AnalysisReport,
    DatasetBundle,
    DatasetProfile,
    assemble_report,
    load_bundle,
    profile_dataset,
    run_analysis_stage,
)

ENV_LLM_URL = "FORGE_LLM_URL"
ENV_LLM_KEY = "FORGE_LLM_KEY"
ENV_EMB_URL = "FORGE_EMB_URL"
ENV_EMB_KEY = "FORGE_EMB_KEY"


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


def _deep_merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _build_section(name: str, cls: type, doc: Any) -> Any:
    """A config section as its dataclass, which defines its keys and checks.

    Each given value converts to the type of its field's default: int,
    float and tuple convert the value, a dict default needs a JSON object,
    and other values pass as given. An unknown key, an unconvertible value
    or a value the dataclass rejects raises :class:`ValidationError` naming
    the section.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"config section {name!r} must be a JSON object")
    defaults = {
        f.name: f.default if f.default_factory is MISSING else f.default_factory()
        for f in fields(cls)
    }
    kwargs: Dict[str, Any] = {}
    for key, value in doc.items():
        if key not in defaults:
            raise ValidationError(f"unknown config key {name}.{key}")
        kind = type(defaults[key])
        if kind is dict and not isinstance(value, dict):
            raise ValidationError(f"config key {name}.{key} must be a JSON object")
        try:
            kwargs[key] = kind(value) if kind in (int, float, tuple) else value
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad value for config key {name}.{key}: {exc}") from exc
    try:
        return cls(**kwargs)
    except (ValidationError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad config section {name!r}: {exc}") from exc


@dataclass
class RunConfig:
    """Resolved knobs for one pipeline run."""

    provider: Dict[str, Any]
    generation: GenerationParams
    retrieval: RetrievalParams
    discussion: DiscussionParams
    execution: ExecutionParams
    evaluation: EvaluationParams
    pricing_table: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        kind = self.provider.get("type")
        if kind not in ("scripted", "http"):
            raise ValidationError(f"provider type must be scripted or http: {kind!r}")
        if kind == "scripted" and self.seed is None:
            raise ValidationError("scripted runs require a seed")

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_profile(cls, profile: Dict[str, Any]) -> "RunConfig":
        hints = get_type_hints(cls)
        known = {f.name for f in fields(cls)}
        unknown = sorted(key for key in profile if key not in known)
        if unknown:
            raise ValidationError(f"unknown config key {unknown[0]}")
        kwargs: Dict[str, Any] = {}
        for f in fields(cls):
            value = profile.get(f.name, {} if f.default is MISSING else f.default)
            if is_dataclass(hints[f.name]):
                value = _build_section(f.name, hints[f.name], value)
            elif isinstance(value, dict):
                value = dict(value)
            kwargs[f.name] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "RunConfig":
        return cls.from_profile(doc)


def load_config(
    path: Optional[str] = None, overrides: Optional[Dict[str, Any]] = None
) -> RunConfig:
    """The defaults, deep-merged with a user file, then with overrides.

    A user file may either be a flat profile or wrap one under a
    ``defaults`` key; overrides use the same nested shape. Every section but
    ``provider``, whose keys depend on its type, takes its defaults from its
    dataclass.
    """
    profile = {"provider": {"type": "scripted", "fixture": None, "embed_dim": 64}}
    if path is not None:
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ValidationError("config file must hold a JSON object")
        profile = _deep_merge(profile, doc.get("defaults", doc))
    if overrides:
        profile = _deep_merge(profile, overrides)
    return RunConfig.from_profile(profile)


# ----------------------------------------------------------------------
# Providers with event recording
# ----------------------------------------------------------------------


class RecordingChatProvider(ChatProvider):
    """Wraps a chat provider, logging each exchange on the event stream.

    The logged request/response pair carries only deterministic payload
    (character counts and synthesized token counts), never clocks.
    """

    def __init__(
        self,
        inner: ChatProvider,
        stream: EventStream,
        ledger: Optional[UsageLedger] = None,
        model: str = "scripted",
    ):
        self.inner = inner
        self.stream = stream
        self.ledger = ledger
        self.model = model
        self.label = "pipeline"
        self._next_id = 1

    def complete(self, turns, params) -> Tuple[str, Usage]:
        request_id = self._next_id
        self._next_id += 1
        self.stream.append(
            Envelope(
                kind="request",
                method="llm.complete",
                payload={
                    "turns": len(turns),
                    "chars": sum(len(t.text) for t in turns),
                    "stage": self.label,
                },
                id=request_id,
                sender=self.label,
                receiver="chat-provider",
            )
        )
        reply, usage = self.inner.complete(turns, params)
        self.stream.append(
            Envelope(
                kind="response",
                payload={
                    "chars": len(reply),
                    "prompt_tokens": usage.prompt_tokens,
                    "completion_tokens": usage.completion_tokens,
                },
                id=request_id,
                sender="chat-provider",
                receiver=self.label,
            )
        )
        if self.ledger is not None:
            self.ledger.record(self.label, self.model, usage)
        return reply, usage


def build_providers(
    config: RunConfig, require_fixture: bool = True
) -> Tuple[ChatProvider, Embedder]:
    """Construct the chat and embedding backends the config names.

    Stages that never call the chat provider (evaluate, corpus indexing)
    pass ``require_fixture=False`` so a scripted config without a fixture
    still yields the deterministic embedder.
    """
    kind = config.provider.get("type")
    if kind == "scripted":
        fixture = config.provider.get("fixture")
        dim = int(config.provider.get("embed_dim", 64))
        if fixture:
            return load_fixture(fixture, dim=dim, seed=config.seed)
        if require_fixture:
            raise ValidationError(
                "scripted provider requires provider.fixture in the config"
            )
        from .providers import ScriptedChatProvider, ScriptedEmbedder

        return (
            ScriptedChatProvider([]),
            ScriptedEmbedder(dim=dim, seed=config.seed),
        )
    chat_url = os.environ.get(ENV_LLM_URL)
    emb_url = os.environ.get(ENV_EMB_URL)
    if not chat_url or not emb_url:
        raise ValidationError(
            f"http provider requires {ENV_LLM_URL} and {ENV_EMB_URL}"
        )
    chat = HttpChatProvider(chat_url, api_key=os.environ.get(ENV_LLM_KEY))
    embedder = HttpEmbedder(
        emb_url,
        api_key=os.environ.get(ENV_EMB_KEY),
        model=config.provider.get("embed_model", "default"),
        dim=int(config.provider.get("embed_dim", 0)),
    )
    return chat, embedder


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------


@dataclass
class RunContext:
    """Shared machinery for one run directory."""

    config: RunConfig
    out_dir: str
    chat: RecordingChatProvider
    embedder: Embedder
    store: MemoryStore
    stream: EventStream
    ledger: UsageLedger

    def mark(self, method: str, payload: Dict[str, Any]) -> None:
        self.stream.append(
            Envelope(kind="event", method=method, payload=payload, sender="pipeline")
        )

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, *exc_info) -> None:
        close_run(self)


def open_run(
    config: RunConfig, out_dir: str, require_fixture: bool = True
) -> RunContext:
    """Create the run directory and wire providers, store, and stream.

    Use the context as a ``with`` block to run :func:`close_run` on exit. A
    directory that already holds a run's ``events.jsonl`` is refused before
    anything is written, so one run never appends to another's log.
    """
    path = Path(out_dir)
    if (path / "events.jsonl").exists():
        raise ValidationError(f"{out_dir} already holds a run; use a new output directory")
    path.mkdir(parents=True, exist_ok=True)
    stream = EventStream(str(path / "events.jsonl"))
    ledger = UsageLedger()
    chat_inner, embedder = build_providers(config, require_fixture=require_fixture)
    chat = RecordingChatProvider(
        chat_inner, stream, ledger, model=config.generation.model
    )
    write_json(str(path / "config.json"), config.to_json())
    return RunContext(
        config=config,
        out_dir=str(path),
        chat=chat,
        embedder=embedder,
        store=MemoryStore(),
        stream=stream,
        ledger=ledger,
    )


def close_run(ctx: RunContext) -> None:
    """Persist the knowledge store and the usage summary."""
    save_store(ctx.store, ctx.out_dir)
    total = ctx.ledger.total()
    write_json(
        os.path.join(ctx.out_dir, "usage.json"),
        {
            "records": ctx.ledger.to_json(),
            "total": {
                "prompt_tokens": total.prompt_tokens,
                "completion_tokens": total.completion_tokens,
            },
        },
    )


# ----------------------------------------------------------------------
# Stage: analyze
# ----------------------------------------------------------------------


def _bundle_meta_text(bundle: DatasetBundle, profile: DatasetProfile) -> str:
    labels = " ".join(sorted(profile.perturbation_inventory))
    return (
        f"{bundle.manifest['name']} {profile.organism} {profile.modality} "
        f"single-cell perturbation expression {labels}"
    )


def stage_analyze(
    task_text: str,
    bundle: DatasetBundle,
    ctx: RunContext,
    corpus: Optional[Corpus] = None,
) -> Tuple[AnalysisReport, RetrievalResult]:
    """Profile the bundle, retrieve context, run the four analysis agents.

    Writes ``report.json`` and ``retrieval_trace.json`` into the run directory.
    """
    ctx.mark("stage.start", {"stage": "analyze"})
    ctx.chat.label = "analyze"
    profile = profile_dataset(bundle)
    ctx.store.put_entity(
        KnowledgeEntity(
            id=ctx.store.new_id("dataset"),
            kind="dataset",
            body=profile.to_json(),
            provenance={"agent": "data-parser", "reasoning": "bundle profile"},
        )
    )

    if corpus is not None and len(corpus) > 0:
        try:
            q0 = construct_initial_query(
                task_text, _bundle_meta_text(bundle, profile), ctx.embedder,
                stats=corpus.stats,
            )
            retrieval = retrieve(q0, corpus, ctx.config.retrieval, ctx.embedder)
        except EmptyQueryError:
            retrieval = RetrievalResult(documents=[], trace=RetrievalTrace(
                stop_reason="no-documents", stop_layer=0))
    else:
        retrieval = RetrievalResult(
            documents=[], trace=RetrievalTrace(stop_reason="no-documents", stop_layer=0)
        )
    documents = [{"id": d.id, "text": d.text} for d in retrieval.documents]
    doc_entity_ids = []
    for doc in documents:
        doc_entity_ids.append(
            ctx.store.put_entity(
                KnowledgeEntity(
                    id=ctx.store.new_id("document"),
                    kind="document",
                    body={"id": doc["id"], "text": doc["text"]},
                    provenance={"agent": "retrieval", "reasoning": "retrieved context"},
                )
            )
        )

    sections: Dict[str, Any] = {}
    merged: Dict[str, Any] = {}
    provenance: Dict[str, Dict[str, Any]] = {}
    for role in ("dataset-analyst", "problem-investigator", "baseline-assessor", "refiner"):
        result = run_analysis_stage(
            role,
            {
                "task": task_text,
                "profile": profile,
                "documents": documents,
                "sections": sections,
            },
            ctx.chat,
            params=ctx.config.generation,
            store=ctx.store,
        )
        sections[role] = result.content
        if role in ("dataset-analyst", "refiner"):
            for key, value in result.content.items():
                merged[key] = value
                provenance[key] = {"role": role, "provider_calls": result.provider_calls}

    report = assemble_report(merged, provenance=provenance, store=ctx.store)
    report_entity = ctx.store.query_entities(kind="report")[-1]
    for doc_id in doc_entity_ids:
        ctx.store.link_entities(report_entity.id, doc_id, "cites")
    write_json(os.path.join(ctx.out_dir, "report.json"), report.to_json())
    write_json(
        os.path.join(ctx.out_dir, "retrieval_trace.json"),
        {"trace": retrieval.trace.to_json(), "documents": retrieval.document_ids},
    )
    ctx.mark("stage.complete", {"stage": "analyze"})
    return report, retrieval


# ----------------------------------------------------------------------
# Stage: design
# ----------------------------------------------------------------------


def stage_design(
    report: AnalysisReport, ctx: RunContext
) -> Tuple[ResearchPlan, DiscussionTrace]:
    """Select the panel and run the consensus discussion.

    Writes ``plan.json`` and ``discussion_trace.json`` into the run directory.
    """
    ctx.mark("stage.start", {"stage": "design"})
    ctx.chat.label = "design"
    panel = select_experts(
        load_registry(), report, ctx.config.discussion, ctx.config.seed, ctx.embedder
    )
    plan, trace = run_discussion(
        report,
        ctx.config.discussion,
        ctx.chat,
        experts=panel,
        store=ctx.store,
        gen_params=ctx.config.generation,
    )
    write_json(os.path.join(ctx.out_dir, "plan.json"), plan.to_json())
    write_json(os.path.join(ctx.out_dir, "discussion_trace.json"), trace.to_json())
    ctx.mark("stage.complete", {"stage": "design"})
    return plan, trace


# ----------------------------------------------------------------------
# Stage: execute
# ----------------------------------------------------------------------

_BUNDLE_FILES = ("obs.tsv", "var.tsv", "manifest.json")


def _bundle_inputs(bundle_path: str) -> Dict[str, str]:
    inputs: Dict[str, str] = {}
    matrix = find_matrix_file(bundle_path, "matrix")
    inputs[os.path.basename(matrix)] = matrix
    for name in _BUNDLE_FILES:
        source = os.path.join(bundle_path, name)
        if os.path.exists(source):
            inputs[name] = source
    return inputs


def _prediction_validator(truth: ExpressionMatrix):
    """Validator closure: predictions must exist, parse, and align."""

    def check(result: ExecutionResult, workdir: str) -> Optional[str]:
        try:
            predictions = read_predictions(workdir)
            align_predictions(predictions, truth)
        except (LoadError, ValidationError) as exc:
            return f"prediction output invalid: {exc}"
        return None

    return check


def stage_execute(
    plan: ResearchPlan,
    bundle: DatasetBundle,
    ctx: RunContext,
) -> Tuple[CodeArtifact, ExecutionResult, LoopTrace]:
    """Generate code from the plan and drive the refinement loop.

    Writes ``artifact/``, ``sandbox_logs/`` and ``predictions/`` into the
    run directory. When the loop exhausts its budget the loop trace and the
    rollback artifact are written before the :class:`LoopError` propagates:
    they are the run's outcome.
    """
    ctx.mark("stage.start", {"stage": "execute"})
    ctx.chat.label = "execute"
    sandbox_root = os.path.join(ctx.out_dir, "sandbox")
    try:
        artifact, result, trace = refinement_loop(
            plan,
            ctx.chat,
            r_max=ctx.config.execution.r_max,
            limits=ctx.config.execution,
            inputs=_bundle_inputs(bundle.path),
            validator=_prediction_validator(bundle.matrix),
            workdir_root=sandbox_root,
            store=ctx.store,
            gen_params=ctx.config.generation,
        )
    except LoopError as exc:
        if isinstance(exc.trace, LoopTrace):
            persist_loop_trace(exc.trace, ctx.out_dir)
        if exc.rollback is not None:
            persist_artifact(exc.rollback, ctx.out_dir)
        raise
    persist_artifact(artifact, ctx.out_dir)
    persist_loop_trace(trace, ctx.out_dir)
    persist_predictions(result.workdir, ctx.out_dir)
    ctx.mark("stage.complete", {"stage": "execute"})
    return artifact, result, trace


def persist_artifact(artifact: CodeArtifact, out_dir: str) -> str:
    """Write the artifact's files plus a manifest under ``artifact/``."""
    root = Path(out_dir) / "artifact"
    root.mkdir(parents=True, exist_ok=True)
    for rel, content in sorted(artifact.files.items()):
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(content, encoding="utf-8")
    write_json(str(root / "manifest.json"), artifact.to_json())
    return str(root)


def persist_predictions(workdir: str, out_dir: str) -> str:
    """Copy the run's prediction files into ``predictions/``."""
    dest = Path(out_dir) / "predictions"
    dest.mkdir(parents=True, exist_ok=True)
    copied = []
    for name in sorted(os.listdir(workdir)):
        if name.startswith("predictions"):
            shutil.copy(os.path.join(workdir, name), dest / name)
            copied.append(name)
    if not copied:
        raise LoadError(f"no prediction files found under {workdir}")
    return str(dest)


def persist_loop_trace(trace: LoopTrace, out_dir: str) -> None:
    logs = Path(out_dir) / "sandbox_logs"
    logs.mkdir(parents=True, exist_ok=True)
    for record in trace.revisions:
        write_json(str(logs / f"rev-{record.revision}.json"), record.to_json())
    write_json(str(logs / "loop.json"), trace.to_json())


# ----------------------------------------------------------------------
# Stage: evaluate
# ----------------------------------------------------------------------


def stage_evaluate(
    predictions_path: str,
    bundle: DatasetBundle,
    ctx: RunContext,
) -> ValidationReport:
    """Score predictions against the bundle with the config's ``de_k``,
    ``pseudo`` and thresholds; writes ``metrics.json`` into the run directory.
    """
    ctx.mark("stage.start", {"stage": "evaluate"})
    params = ctx.config.evaluation
    report = validate_predictions(
        predictions_path,
        bundle.matrix,
        control_rows=bundle.control_rows,
        de_k=params.de_k,
        pseudo=params.pseudo,
        thresholds=params.thresholds,
        store=ctx.store,
    )
    doc = report.to_json()
    doc["passed"] = report.passed
    write_json(os.path.join(ctx.out_dir, "metrics.json"), doc)
    ctx.mark("stage.complete", {"stage": "evaluate"})
    return report


# ----------------------------------------------------------------------
# Full run
# ----------------------------------------------------------------------


def read_task(path: str) -> str:
    """The task file's text; a missing, unreadable or blank file is an error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read task file {path}: {exc}") from exc
    if not text.strip():
        raise ValidationError(f"task file {path} is empty")
    return text


def run_pipeline(
    task_path: str,
    bundle_path: str,
    config: RunConfig,
    out_dir: str,
    corpus_path: Optional[str] = None,
) -> Dict[str, Any]:
    """The four stages in order, persisting every output into ``out_dir``.

    Returns a summary dict of the headline numbers (also on disk).
    """
    task_text = read_task(task_path)
    bundle = load_bundle(bundle_path)
    with open_run(config, out_dir) as ctx:
        corpus = (
            load_corpus(corpus_path, ctx.embedder) if corpus_path is not None else None
        )
        report, retrieval = stage_analyze(task_text, bundle, ctx, corpus)
        plan, _ = stage_design(report, ctx)
        _, _, loop_trace = stage_execute(plan, bundle, ctx)
        validation = stage_evaluate(os.path.join(ctx.out_dir, "predictions"), bundle, ctx)
        summary = {
            "rounds_used": plan.rounds_used,
            "refinements": loop_trace.refinements,
            "retrieval_stop": retrieval.trace.stop_reason,
            "metrics": validation.metrics.to_json(),
            "passed": validation.passed,
        }
        # The persisted summary stays location-free so identical runs
        # produce identical bytes; the caller still gets the directory.
        write_json(os.path.join(ctx.out_dir, "summary.json"), summary)
        return {**summary, "out_dir": ctx.out_dir}
