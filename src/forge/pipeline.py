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
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .consensus import (
    DiscussionParams,
    DiscussionTrace,
    ResearchPlan,
    load_registry,
    run_discussion,
    select_experts,
)
from .errors import DiscussionError, LoadError, LoopError, ValidationError
from .execution import (
    CodeArtifact,
    EvaluationParams,
    ExecutionParams,
    ExecutionResult,
    LoopTrace,
    ScoringView,
    ValidationReport,
    refinement_loop,
    scoring_view,
    validate_predictions,
)
from .matrixio import (
    PREDICTIONS_STEM,
    align_predictions,
    read_json,
    read_predictions,
    write_json,
)
from .metrics import ExpressionMatrix
from .protocol import (
    Envelope,
    EventStream,
    MemoryStore,
    build_record,
    read_text,
    save_store,
    writing,
)
from .providers import (
    ChatProvider,
    Embedder,
    GenerationParams,
    HttpChatProvider,
    HttpEmbedder,
    ProviderParams,
    Usage,
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
    ANALYSIS_ROLES,
    REPORT_ROLES,
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


@dataclass
class RunConfig:
    """Resolved knobs for one pipeline run: the whole config file's shape."""

    provider: ProviderParams = field(default_factory=ProviderParams)
    generation: GenerationParams = field(default_factory=GenerationParams)
    retrieval: RetrievalParams = field(default_factory=RetrievalParams)
    discussion: DiscussionParams = field(default_factory=DiscussionParams)
    execution: ExecutionParams = field(default_factory=ExecutionParams)
    evaluation: EvaluationParams = field(default_factory=EvaluationParams)
    pricing_table: Optional[str] = None
    seed: Optional[int] = 0

    def __post_init__(self):
        if self.provider.type == "scripted" and self.seed is None:
            raise ValidationError("scripted runs require a seed")
        if self.seed is not None and self.seed < 0:
            raise ValidationError(f"seed must be non-negative: got {self.seed}")

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


def load_config(
    path: Optional[str] = None, overrides: Optional[Dict[str, Any]] = None
) -> RunConfig:
    """The defaults, deep-merged with a user file, then with overrides.

    The file and the overrides are both shaped like :class:`RunConfig`;
    every key they leave unset takes its dataclass default.
    """
    profile = {} if path is None else read_json(path)
    if overrides and isinstance(profile, dict):  # build_record refuses any other file
        profile = _deep_merge(profile, overrides)
    return build_record("config", RunConfig, profile)


# ----------------------------------------------------------------------
# Providers with event recording
# ----------------------------------------------------------------------


class RecordingChatProvider(ChatProvider):
    """Wraps a chat provider, logging each exchange on the event stream.

    The logged request/response pair carries only deterministic payload
    (character counts and synthesized token counts), never clocks.
    """

    def __init__(self, inner: ChatProvider, stream: EventStream):
        self.inner = inner
        self.stream = stream
        self.label = "pipeline"
        self._next_id = 1

    def complete(self, turns) -> Tuple[str, Usage]:
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
        reply, usage = self.inner.complete(turns)
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
        return reply, usage


def build_providers(
    config: RunConfig, require_fixture: bool = True
) -> Tuple[ChatProvider, Embedder]:
    """Construct the chat and embedding backends the config names.

    Stages that never call the chat provider (evaluate, corpus indexing)
    pass ``require_fixture=False`` so a scripted config without a fixture
    still yields the deterministic embedder.
    """
    provider = config.provider
    if provider.type == "scripted":
        if provider.fixture:
            return load_fixture(provider.fixture, dim=provider.embed_dim, seed=config.seed)
        if require_fixture:
            raise ValidationError(
                "scripted provider requires provider.fixture in the config"
            )
        from .providers import ScriptedChatProvider, ScriptedEmbedder

        return (
            ScriptedChatProvider([]),
            ScriptedEmbedder(dim=provider.embed_dim, seed=config.seed),
        )
    chat_url = os.environ.get(ENV_LLM_URL)
    emb_url = os.environ.get(ENV_EMB_URL)
    if not chat_url or not emb_url:
        raise ValidationError(
            f"http provider requires {ENV_LLM_URL} and {ENV_EMB_URL}"
        )
    chat = HttpChatProvider(chat_url, config.generation, api_key=os.environ.get(ENV_LLM_KEY))
    embedder = HttpEmbedder(emb_url, provider.embed_model, provider.embed_dim,
                            api_key=os.environ.get(ENV_EMB_KEY))
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

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Frame one stage: its provider calls carry the label ``name``, and
        it appends ``stage.start``, then ``stage.complete`` only if it returns."""

        def mark(method: str) -> None:
            self.stream.append(Envelope(
                kind="event", method=method, payload={"stage": name}, sender="pipeline"))

        self.chat.label = name
        mark("stage.start")
        yield
        mark("stage.complete")

    def write(self, rel: str, doc: Any) -> None:
        """Write ``doc`` as JSON at ``rel`` in the run directory."""
        write_json(os.path.join(self.out_dir, rel), doc)

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            close_run(self)
        except LoadError:
            if exc is None:  # else the error already on its way out came first: keep it
                raise


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
    stream = EventStream(str(path / "events.jsonl"))
    chat_inner, embedder = build_providers(config, require_fixture=require_fixture)
    ctx = RunContext(config=config, out_dir=str(path),
                     chat=RecordingChatProvider(chat_inner, stream), embedder=embedder,
                     store=MemoryStore(), stream=stream)
    ctx.write("config.json", config.to_json())
    return ctx


def close_run(ctx: RunContext) -> None:
    """Persist the knowledge store and ``usage.json``, the stream's chat
    responses billed to their requests' stages, in stream order."""
    save_store(ctx.store, ctx.out_dir)
    stages: Dict[int, str] = {}
    records = []
    for env in ctx.stream.events:
        if env.kind == "request":
            stages[env.id] = env.payload["stage"]
        elif env.kind == "response":
            records.append({
                "label": stages[env.id],
                "model": ctx.config.generation.model,
                "prompt_tokens": env.payload["prompt_tokens"],
                "completion_tokens": env.payload["completion_tokens"],
            })
    ctx.write("usage.json", {"records": records, "total": {
        key: sum(r[key] for r in records) for key in ("prompt_tokens", "completion_tokens")}})


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

    Writes ``retrieval_trace.json`` into the run directory before the agents
    run, so a failed analysis still records the walk, then ``report.json``.
    """
    with ctx.stage("analyze"):
        profile = profile_dataset(bundle)
        ctx.store.record("dataset", profile.to_json(), "data-parser", "bundle profile")

        retrieval = RetrievalResult(
            documents=[], trace=RetrievalTrace(stop_reason="no-documents")
        )
        if corpus is not None and len(corpus) > 0:
            # The meta text always names the modality and the data kind, so q0 has terms.
            q0 = construct_initial_query(
                task_text, _bundle_meta_text(bundle, profile), ctx.embedder,
                stats=corpus.stats,
            )
            retrieval = retrieve(q0, corpus, ctx.config.retrieval, ctx.embedder)
        ctx.write("retrieval_trace.json",
                  {"trace": retrieval.trace.to_json(), "documents": retrieval.document_ids})
        documents = [{"id": d.id, "text": d.text} for d in retrieval.documents]
        for doc in documents:
            ctx.store.record("document", doc, "retrieval", "retrieved context")

        sections: Dict[str, Any] = {}
        merged: Dict[str, Any] = {}
        provenance: Dict[str, Dict[str, Any]] = {}
        context = {"task": task_text, "profile": profile, "documents": documents,
                   "sections": sections}
        citations = [doc["id"] for doc in documents]
        for role in ANALYSIS_ROLES:
            answer = run_analysis_stage(role, context, ctx.chat)
            ctx.store.record("report", {"role": role, "section": answer.value}, role,
                             "task-analysis stage output", citations=citations)
            sections[role] = answer.value
            if role in REPORT_ROLES:
                for key, value in answer.value.items():
                    merged[key] = value
                    provenance[key] = {"role": role, "provider_calls": answer.calls}

        report = assemble_report(merged, provenance=provenance)
        ctx.write("report.json", report.to_json())
    return report, retrieval


# ----------------------------------------------------------------------
# Stage: design
# ----------------------------------------------------------------------


def stage_design(
    report: AnalysisReport, ctx: RunContext
) -> Tuple[ResearchPlan, DiscussionTrace]:
    """Select the panel and run the consensus discussion.

    Writes ``plan.json`` and ``discussion_trace.json`` into the run directory.
    When the provider fails mid-discussion, the trace of the rounds completed
    is written before the :class:`DiscussionError` propagates.
    """
    with ctx.stage("design"):
        panel = select_experts(
            load_registry(), report, ctx.config.discussion, ctx.config.seed, ctx.embedder
        )
        try:
            plan, trace = run_discussion(
                report,
                ctx.config.discussion,
                ctx.chat,
                experts=panel,
                store=ctx.store,
            )
        except DiscussionError as exc:
            ctx.write("discussion_trace.json", exc.trace.to_json())
            raise
        ctx.write("plan.json", plan.to_json())
        ctx.write("discussion_trace.json", trace.to_json())
    return plan, trace


# ----------------------------------------------------------------------
# Stage: execute
# ----------------------------------------------------------------------

_NOT_REGULAR = {stat.S_IFLNK: "a symlink", stat.S_IFDIR: "a directory", stat.S_IFIFO: "a FIFO"}


def _prediction_files(workdir: str) -> List[str]:
    """The ``predictions*`` names under ``workdir``, each checked to be a
    regular file: the parent opens and moves them, and a FIFO would block
    the read while a symlink would leave a dangling link behind."""
    names = sorted(n for n in os.listdir(workdir) if n.startswith(PREDICTIONS_STEM))
    for name in names:
        mode = os.lstat(os.path.join(workdir, name)).st_mode
        if not stat.S_ISREG(mode):
            kind = _NOT_REGULAR.get(stat.S_IFMT(mode), "not a regular file")
            raise ValidationError(f"{name} is {kind}")
    return names


def _prediction_validator(truth: ExpressionMatrix):
    """Validator closure: the run's predictions, read and aligned to ``truth``."""

    def check(workdir: str) -> ExpressionMatrix:
        try:
            _prediction_files(workdir)
            return align_predictions(read_predictions(workdir), truth)
        except ValidationError as exc:
            raise ValidationError(f"prediction output invalid: {exc}") from exc

    return check


def stage_execute(
    plan: ResearchPlan, view: ScoringView, ctx: RunContext
) -> Tuple[CodeArtifact, ExecutionResult, LoopTrace]:
    """Generate code from the plan and drive the refinement loop.

    Revisions run in a temporary directory this stage removes however it
    ends, each given the view's inputs. The returned result's ``output``
    holds the run's predictions, read once and aligned to the view's truth
    by the loop's validator. Writes ``artifact/``, ``sandbox_logs/loop.json``
    and ``predictions/`` (the accepted revision's files, moved) into the run
    directory. When the loop exhausts its budget the loop trace and the
    rollback artifact are written before the :class:`LoopError` propagates:
    they are the run's outcome.
    """
    with ctx.stage("execute"), tempfile.TemporaryDirectory(prefix="forge-sandbox-") as sandbox:
        try:
            artifact, result, trace = refinement_loop(
                plan,
                ctx.chat,
                limits=ctx.config.execution,
                inputs=view.inputs,
                validator=_prediction_validator(view.truth),
                workdir_root=sandbox,
                store=ctx.store,
            )
        except LoopError as exc:
            persist_loop_trace(exc.trace, ctx)
            persist_artifact(exc.rollback, ctx)
            raise
        persist_artifact(artifact, ctx)
        persist_loop_trace(trace, ctx)
        persist_predictions(result.workdir, ctx)
    return artifact, result, trace


def persist_artifact(artifact: CodeArtifact, ctx: RunContext) -> None:
    """Write the artifact's files plus a manifest under ``artifact/``."""
    artifact.write_files(os.path.join(ctx.out_dir, "artifact"))
    ctx.write("artifact/manifest.json", artifact.to_json())


def persist_predictions(workdir: str, ctx: RunContext) -> str:
    """Move the run's prediction files from ``workdir`` into ``predictions/``."""
    dest = Path(ctx.out_dir) / "predictions"
    with writing(str(dest)):
        dest.mkdir(parents=True, exist_ok=True)
        moved = _prediction_files(workdir)
        for name in moved:
            shutil.move(os.path.join(workdir, name), dest / name)
    if not moved:
        raise LoadError(f"no prediction files found under {workdir}")
    return str(dest)


def persist_loop_trace(trace: LoopTrace, ctx: RunContext) -> None:
    """Write the loop trace as ``sandbox_logs/loop.json``."""
    ctx.write("sandbox_logs/loop.json", trace.to_json())


# ----------------------------------------------------------------------
# Stage: evaluate
# ----------------------------------------------------------------------


def stage_evaluate(
    predictions: ExpressionMatrix, view: ScoringView, ctx: RunContext
) -> ValidationReport:
    """Score predictions, aligned to the view's truth, by the view; writes
    ``metrics.json`` into the run directory."""
    with ctx.stage("evaluate"):
        report = validate_predictions(predictions, view)
        ctx.write("metrics.json", {**report.to_json(), "passed": report.passed})
    return report


# ----------------------------------------------------------------------
# Full run
# ----------------------------------------------------------------------


def read_task(path: str) -> str:
    """The task file's text; a missing, unreadable or blank file is an error."""
    text = read_text(path)
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

    The bundle's scoring view is built before the run directory exists, so
    a bundle the ``evaluation`` section cannot score spends no provider call.
    Returns a summary dict of the headline numbers (also on disk).
    """
    task_text = read_task(task_path)
    bundle = load_bundle(bundle_path)
    view = scoring_view(bundle, config.evaluation)
    with open_run(config, out_dir) as ctx:
        corpus = (
            load_corpus(corpus_path, ctx.embedder) if corpus_path is not None else None
        )
        report, retrieval = stage_analyze(task_text, bundle, ctx, corpus)
        plan, _ = stage_design(report, ctx)
        _, result, loop_trace = stage_execute(plan, view, ctx)
        validation = stage_evaluate(result.output, view, ctx)
        summary = {
            "rounds_used": plan.rounds_used,
            "refinements": loop_trace.refinements,
            "retrieval_stop": retrieval.trace.stop_reason,
            "metrics": validation.metrics.to_json(),
            "passed": validation.passed,
        }
        # The persisted summary stays location-free so identical runs
        # produce identical bytes; the caller still gets the directory.
        ctx.write("summary.json", summary)
        return {**summary, "out_dir": ctx.out_dir}
