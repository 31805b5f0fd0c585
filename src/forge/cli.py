"""Command-line surface: full runs, single stages, and corpus indexing.

Exit codes are a stable contract: 0 success, 1 validation problems
(including missing inputs and bad config), 2 provider failures, 3 sandbox
or terminal refinement-loop failures. Every number a command prints also
lands in a machine-readable file inside the output directory.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Any, Callable, Dict, Optional

import click

from . import __version__
from .consensus import ResearchPlan
from .execution import scoring_view
from .errors import (
    DependencyError,
    ProviderError,
    SandboxError,
    ValidationError,
)
from .pipeline import (
    RunConfig,
    build_providers,
    load_config,
    open_run,
    read_task,
    run_pipeline,
    stage_analyze,
    stage_design,
    stage_evaluate,
    stage_execute,
)
from .matrixio import align_predictions, read_json, read_predictions
from .retrieval import index_corpus, load_corpus
from .task_analysis import AnalysisReport, load_bundle


def _die(code: int, exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _resolve_config(
    config_path: Optional[str], seed: Optional[int], fixture: Optional[str]
) -> RunConfig:
    overrides: Dict[str, Any] = {}
    if seed is not None:
        overrides["seed"] = seed
    if fixture is not None:
        overrides["provider"] = {"fixture": fixture}
    return load_config(config_path, overrides)


_FILE, _DIR = click.Path(), click.Path(file_okay=False)
_TASK = click.option("--task", "task_path", required=True, type=_FILE)
_BUNDLE = click.option("--bundle", "bundle_path", required=True, type=_DIR)
_CORPUS = click.option("--corpus", "corpus_path", default=None, type=_DIR)
_OUT = click.option("--out", "out_dir", required=True, type=_DIR)
# Every command takes these after its own options, in this --help order.
_CONFIG_OPTIONS = (
    click.option("--fixture", type=_FILE, default=None,
                 help="Scripted-provider fixture file (overrides the config)."),
    click.option("--seed", type=int, default=None, help="Run seed override."),
    click.option("--config", "config_path", type=_FILE, default=None,
                 help="JSON config file merged over the defaults."),
)


def _command(group: click.Group, name: str, *options: Callable) -> Callable:
    """Register ``fn`` as command ``name`` of ``group`` with ``options`` and
    the config options. ``fn`` gets the resolved config first, then its own
    options; forge errors exit 1 (validation), 2 (provider) or 3 (sandbox).
    """

    def register(fn: Callable[..., None]) -> click.Command:
        @functools.wraps(fn)
        def run(config_path, seed, fixture, **kwargs) -> None:
            try:
                fn(_resolve_config(config_path, seed, fixture), **kwargs)
            except ValidationError as exc:
                _die(1, exc)
            except ProviderError as exc:
                _die(2, exc)
            except SandboxError as exc:
                _die(3, exc)

        for option in reversed(options + _CONFIG_OPTIONS):
            run = option(run)
        return group.command(name)(run)

    return register


def _require(path: str, producer: str) -> None:
    if not os.path.exists(path):
        raise DependencyError(f"{path} not found — run `forge {producer}` first")


def _echo_metrics(metrics: Dict[str, Any]) -> None:
    for name in sorted(metrics):
        click.echo(f"  {name}={metrics[name]}")


class _Main(click.Group):
    """The ``forge`` group. A command line that does not parse is bad input,
    so it exits 1, not click's 2, which forge gives provider failures."""

    def make_context(self, *args: Any, **kwargs: Any) -> click.Context:
        return _usage_exits_1(super().make_context, *args, **kwargs)

    def invoke(self, ctx: click.Context) -> Any:  # parses the subcommand's arguments
        return _usage_exits_1(super().invoke, ctx)


def _usage_exits_1(call: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="forge")
def main() -> None:
    """Autonomous analysis, planning, execution, and scoring of
    single-cell perturbation prediction tasks."""


@_command(main, "run", _TASK, _BUNDLE, _CORPUS, _OUT)
def cmd_run(config, task_path, bundle_path, corpus_path, out_dir):
    """Full pipeline: analyze, design, execute, evaluate."""
    summary = run_pipeline(task_path, bundle_path, config, out_dir, corpus_path)
    click.echo(f"run complete: {summary['out_dir']}")
    click.echo(f"  rounds_used={summary['rounds_used']} refinements={summary['refinements']}"
               f" retrieval_stop={summary['retrieval_stop']}")
    _echo_metrics(summary["metrics"])


@_command(main, "analyze", _TASK, _BUNDLE, _CORPUS, _OUT)
def cmd_analyze(config, task_path, bundle_path, corpus_path, out_dir):
    """Task-analysis stage: profile, retrieve, and write report.json."""
    task_text = read_task(task_path)
    bundle = load_bundle(bundle_path)
    with open_run(config, out_dir) as ctx:
        corpus = load_corpus(corpus_path, ctx.embedder) if corpus_path is not None else None
        _, retrieval = stage_analyze(task_text, bundle, ctx, corpus)
    click.echo(f"report written: {os.path.join(out_dir, 'report.json')}")
    click.echo(f"  retrieved={len(retrieval.documents)} stop={retrieval.trace.stop_reason}")


@_command(
    main, "design",
    click.option("--report", "report_path", required=True, type=_FILE),
    _OUT,
)
def cmd_design(config, report_path, out_dir):
    """Design stage: expert discussion over a saved report.json."""
    _require(report_path, "analyze")
    report = AnalysisReport.from_json(read_json(report_path))
    with open_run(config, out_dir) as ctx:
        plan, trace = stage_design(report, ctx)
    click.echo(f"plan written: {os.path.join(out_dir, 'plan.json')}")
    click.echo(f"  rounds_used={plan.rounds_used} converged={trace.converged}"
               f" reason={trace.reason}")


@_command(
    main, "execute",
    click.option("--plan", "plan_path", required=True, type=_FILE),
    _BUNDLE, _OUT,
)
def cmd_execute(config, plan_path, bundle_path, out_dir):
    """Execution stage: generate code, run it, refine until it works."""
    _require(plan_path, "design")
    plan = ResearchPlan.from_json(read_json(plan_path))
    view = scoring_view(load_bundle(bundle_path), config.evaluation)
    with open_run(config, out_dir) as ctx:
        artifact, _, trace = stage_execute(plan, view, ctx)
    click.echo(f"predictions written: {os.path.join(ctx.out_dir, 'predictions')}")
    click.echo(f"  refinements={trace.refinements} revision={artifact.revision}")


@_command(
    main, "evaluate",
    click.option("--predictions", "predictions_path", required=True, type=_FILE),
    _BUNDLE, _OUT,
)
def cmd_evaluate(config, predictions_path, bundle_path, out_dir):
    """Evaluation stage: score a prediction file against the bundle."""
    _require(predictions_path, "execute")
    view = scoring_view(load_bundle(bundle_path), config.evaluation)
    predictions = align_predictions(read_predictions(predictions_path), view.truth)
    with open_run(config, out_dir, require_fixture=False) as ctx:
        validation = stage_evaluate(predictions, view, ctx)
    click.echo(f"metrics written: {os.path.join(out_dir, 'metrics.json')}")
    _echo_metrics(validation.metrics.to_json())
    click.echo(f"  passed={validation.passed}")


@main.group("corpus")
def corpus_group() -> None:
    """Corpus maintenance commands."""


@_command(corpus_group, "index", click.argument("corpus_dir", type=_DIR))
def cmd_corpus_index(config, corpus_dir):
    """Snapshot the documents, their citations and their embeddings into
    embeddings.npz, embedding only new or edited texts; an old index without
    texts, or an old embeddings.tsv alone, exits 1."""
    _, embedder = build_providers(config, require_fixture=False)
    count, path = index_corpus(corpus_dir, embedder)
    click.echo(f"indexed {count} documents -> {path}")


if __name__ == "__main__":
    main()
