"""forge: an autonomous research-pipeline engine for single-cell
perturbation prediction.

The package turns a task description plus a perturbation dataset bundle
into a structured analysis report, a consensus research plan negotiated
by a panel of expert agents, and an executed, validated prediction
artifact — all against pluggable chat/embedding providers whose scripted
variants make every pipeline step deterministic and replayable.
"""

from .errors import (
    AssemblyError,
    ConflictError,
    CorrelationError,
    DependencyError,
    DiscussionError,
    EmptyQueryError,
    FixtureUnderflowError,
    ForgeError,
    GenerationError,
    LoadError,
    LoopError,
    ProtocolError,
    ProviderError,
    SandboxError,
    StageError,
    ValidationError,
)
from .protocol import (
    Envelope,
    EventStream,
    KnowledgeEntity,
    MemoryStore,
    decode_message,
    encode_message,
    load_store,
    read_events,
    save_store,
)
from .providers import (
    ChatProvider,
    ChatTurn,
    Embedder,
    GenerationParams,
    HttpChatProvider,
    HttpEmbedder,
    ModelPricing,
    PricingTable,
    ScriptedChatProvider,
    ScriptedEmbedder,
    Usage,
    cost_of,
    extract_score,
    load_fixture,
    synthesize_usage,
)
from .metrics import (
    EmbeddingSet,
    ExpressionMatrix,
    MetricReport,
    deg_recall,
    knn_accuracy,
    log_fold_change,
    metric_report,
    pointwise_metrics,
    pr_auc,
    restrict,
    rmse,
    roc_auc,
    select_de_genes,
    structural_integrity,
)
from .retrieval import (
    Corpus,
    Document,
    QueryState,
    RetrievalParams,
    RetrievalResult,
    construct_initial_query,
    extract_key_terms,
    load_corpus,
    overlap,
    retrieve,
    update_query,
    write_embeddings,
)
from .task_analysis import (
    AnalysisReport,
    DatasetBundle,
    DatasetProfile,
    HoldoutSplit,
    assemble_report,
    load_bundle,
    profile_dataset,
    run_analysis_stage,
    split_holdout,
)
from .consensus import (
    DiscussionParams,
    DiscussionTrace,
    ExpertRole,
    ResearchPlan,
    converged,
    integration_weights,
    load_registry,
    relevance,
    run_discussion,
    select_experts,
    update_confidence,
)
from .execution import (
    CodeArtifact,
    ExecutionResult,
    FailureRecord,
    LoopTrace,
    ScoringView,
    ValidationReport,
    classify_failure,
    generate_code,
    parse_artifact,
    refinement_loop,
    run_sandbox,
    scoring_view,
    validate_predictions,
)
from .pipeline import (
    RunConfig,
    load_config,
    run_pipeline,
)

__version__ = "0.1.0"
