"""Code generation, sandboxed execution, and the refinement loop.

The provider's replies carry a multi-file artifact in a plain envelope:
each file opens with a ``FILE: <path>`` header followed by its content
(optionally fenced), with ``ENTRYPOINT:`` and ``DEPENDENCIES:`` lines
naming the launch command and third-party requirements. The sandbox
materializes the artifact into a working directory, launches the
entrypoint as a child process under a scrubbed environment and a
wall-clock limit, and captures bounded stdout/stderr.

Failures are classified against a six-way taxonomy by first-match over
an ordered stderr pattern table; landing in the same category with the
same evidence twice in a row is itself a failure mode (the loop is stuck
repeating the same broken action). The refinement loop alternates
run → classify → patch at most ``r_max`` times and, on terminal failure,
rolls back to the revision that got furthest.
"""

from __future__ import annotations

import os
import shlex
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path, PurePosixPath
from typing import IO, Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .consensus import ResearchPlan
from .errors import (
    GenerationError,
    LoadError,
    LoopError,
    SandboxError,
    ValidationError,
)
from .metrics import (
    DEFAULT_DE_K,
    DEFAULT_DE_PSEUDO,
    METRIC_IDS,
    ExpressionMatrix,
    MetricReport,
    metric_report,
    select_de_genes,
)
from .protocol import MemoryStore, canonical_json, replacing, writing
from .providers import ChatProvider, ReplyError, ask
from .task_analysis import CONTROL_LABEL, DatasetBundle, load_template

EXIT_COMPLETED = "completed"
EXIT_TIMEOUT = "timeout"

FAILURE_CATEGORIES = (
    "model-configuration-error",
    "computation-execution-error",
    "invalid-type-or-operation",
    "data-access-failure",
    "error-recovery-failure",
    "other",
)

# Environment variables the sandbox passes through to the child process.
ENV_ALLOW_LIST = ("PATH", "HOME", "LANG", "LC_ALL", "LC_CTYPE")

# First match wins, top to bottom, within and across categories.
_PATTERN_TABLE: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "computation-execution-error",
        (
            "out of bounds",
            "shapes cannot be multiplied",
            "not aligned",
            "could not be broadcast",
            "IndexError",
            "index out of range",
        ),
    ),
    (
        "invalid-type-or-operation",
        (
            "can't convert",
            "unsupported operand",
            "TypeError",
            "invalid type",
        ),
    ),
    (
        "data-access-failure",
        (
            "FileNotFoundError",
            "No such file",
            "[Errno 2]",
            "KeyError",
            "AttributeError",
        ),
    ),
    (
        "model-configuration-error",
        (
            "mismatched layer",
            "size mismatch",
            "missing required hyperparameter",
            "missing required parameter",
            "invalid configuration",
        ),
    ),
)


# ----------------------------------------------------------------------
# Artifact envelope
# ----------------------------------------------------------------------


class _ArtifactParseError(ReplyError):
    """The reply held no usable FILE blocks (internal; triggers a retry)."""


@dataclass
class CodeArtifact:
    """A generated program: files, launch command, and dependency list."""

    files: Dict[str, str]
    entrypoint: str
    declared_dependencies: List[str] = field(default_factory=list)
    revision: int = 0

    def __post_init__(self):
        if not self.files:
            raise ValidationError("artifact must hold at least one file")
        if not self.entrypoint.strip():
            raise ValidationError("artifact entrypoint must be non-empty")
        if self.revision < 0:
            raise ValidationError("artifact revision must be non-negative")
        for path in self.files:
            _check_relative(path)
        try:
            tokens = shlex.split(self.entrypoint)
        except ValueError as exc:
            raise ValidationError(
                f"entrypoint {self.entrypoint!r} does not parse: {exc}"
            ) from exc
        if not any(tok in self.files for tok in tokens):
            raise ValidationError(
                f"entrypoint {self.entrypoint!r} references no artifact file"
            )

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    def write_files(self, root: Union[str, Path]) -> None:
        """Write each file under ``root`` through :func:`replacing`."""
        for rel, content in sorted(self.files.items()):
            with replacing(os.path.join(root, rel)) as fh:
                fh.write(content.encode("utf-8"))


def _check_relative(path: str) -> None:
    pure = PurePosixPath(path)
    if pure.is_absolute() or ".." in pure.parts or not pure.parts:
        raise ValidationError(f"artifact paths must be relative: {path!r}")


def parse_artifact(text: str, revision: int = 0) -> CodeArtifact:
    """Decode a FILE/ENTRYPOINT/DEPENDENCIES envelope from a reply.

    File content may sit inside a markdown fence or run bare until the
    next header line. A fence of n backticks closes only at a line holding
    nothing but at least n backticks. A reply with no FILE blocks raises
    the internal parse error the caller converts into a retry.
    """
    lines = text.splitlines()
    files: Dict[str, str] = {}
    entrypoint = ""
    dependencies: List[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        if stripped.startswith("FILE:"):
            path = stripped[len("FILE:"):].strip()
            if not path:
                raise _ArtifactParseError("FILE header with empty path")
            if path in files:
                raise _ArtifactParseError(f"duplicate FILE block for {path!r}")
            i += 1
            while i < len(lines) and not lines[i].strip():
                i += 1
            body: List[str] = []
            fence = _backtick_run(lines[i]) if i < len(lines) else 0
            if fence >= 3:
                i += 1
                while i < len(lines) and not _closes_fence(lines[i], fence):
                    body.append(lines[i])
                    i += 1
                if i >= len(lines):
                    raise _ArtifactParseError(f"unterminated fence in {path!r}")
                i += 1  # closing fence
            else:
                while i < len(lines):
                    head = lines[i].strip()
                    if head.startswith(("FILE:", "ENTRYPOINT:", "DEPENDENCIES:")):
                        break
                    body.append(lines[i])
                    i += 1
                while body and not body[-1].strip():
                    body.pop()
            files[path] = "\n".join(body) + "\n"
        elif stripped.startswith("ENTRYPOINT:"):
            if not entrypoint:
                entrypoint = stripped[len("ENTRYPOINT:"):].strip()
            i += 1
        elif stripped.startswith("DEPENDENCIES:"):
            raw = stripped[len("DEPENDENCIES:"):]
            dependencies.extend(
                dep.strip() for dep in raw.split(",") if dep.strip()
            )
            i += 1
        else:
            i += 1
    if not files:
        raise _ArtifactParseError("reply contains no FILE blocks")
    if not entrypoint:
        entrypoint = f"python {next(iter(files))}"
    try:
        return CodeArtifact(
            files=files,
            entrypoint=entrypoint,
            declared_dependencies=dependencies,
            revision=revision,
        )
    except ValidationError as exc:
        raise _ArtifactParseError(str(exc)) from exc


def _backtick_run(line: str) -> int:
    """How many backticks open ``line``, leading whitespace aside."""
    text = line.lstrip()
    return len(text) - len(text.lstrip("`"))


def _closes_fence(line: str, fence: int) -> bool:
    text = line.strip()
    return len(text) >= fence and not text.strip("`")


def render_artifact(artifact: CodeArtifact) -> str:
    """The inverse of :func:`parse_artifact`, used inside patch prompts.

    Each file's fence is one backtick longer than the longest run of
    backticks that opens one of its lines, and at least three long.
    """
    parts = []
    for path in sorted(artifact.files):
        body = artifact.files[path].rstrip()
        fence = "`" * max([3] + [_backtick_run(ln) + 1 for ln in body.splitlines()])
        parts.append(f"FILE: {path}\n{fence}\n{body}\n{fence}")
    parts.append(f"ENTRYPOINT: {artifact.entrypoint}")
    if artifact.declared_dependencies:
        parts.append("DEPENDENCIES: " + ", ".join(artifact.declared_dependencies))
    return "\n".join(parts)


def _request_artifact(
    prompt: str,
    provider: ChatProvider,
    revision: int,
    store: Optional[MemoryStore],
    reasoning: str,
) -> CodeArtifact:
    """Ask the provider for an artifact and record it in ``store``.

    One corrective retry is granted when the reply carries no usable
    envelope; a second failure raises a generation error.
    """
    try:
        artifact = ask(
            provider, prompt, lambda reply: parse_artifact(reply, revision),
            lambda reason: load_template("format-retry").substitute(reason=reason),
        ).value
    except ReplyError as exc:
        raise GenerationError(f"no parseable artifact after retry: {exc}") from exc
    if store is not None:
        store.record("artifact", artifact.to_json(), "code-generator", reasoning, revision)
    return artifact


def generate_code(
    plan: ResearchPlan,
    provider: ChatProvider,
    store: Optional[MemoryStore] = None,
) -> CodeArtifact:
    """Turn the plan into revision 0 of a code artifact."""
    prompt = load_template("generate-code").substitute(
        plan=canonical_json(plan.to_json()["sections"])
    )
    return _request_artifact(prompt, provider, 0, store, "plan realization")


# ----------------------------------------------------------------------
# Sandbox
# ----------------------------------------------------------------------


# The sandbox's wall-clock cap, (2**31 - 1) ms: far inside threading.TIMEOUT_MAX,
# so every valid wall_seconds is waited for as given.
MAX_WALL_SECONDS = (2**31 - 1) / 1000


@dataclass
class ExecutionParams:
    """The ``execution`` config section: the sandbox's wall-clock and
    output-capture bounds for one run, and ``r_max``, the number of
    refinements the loop may make."""

    wall_seconds: float = 60.0
    stdout_bytes: int = 65536
    stderr_bytes: int = 65536
    r_max: int = 10

    def __post_init__(self):
        if not 0 < self.wall_seconds <= MAX_WALL_SECONDS:
            raise ValidationError(
                f"wall_seconds must lie in (0, {MAX_WALL_SECONDS}]: got {self.wall_seconds!r}")
        if self.stdout_bytes < 0 or self.stderr_bytes < 0:
            raise ValidationError("stdout_bytes and stderr_bytes must be non-negative")
        if self.r_max < 0:
            raise ValidationError("r_max must be non-negative")


@dataclass
class ExecutionResult:
    """Observable outcome of one sandbox run."""

    exit_code: int
    stdout: str
    stderr: str
    wall_time: float
    produced_files: List[str]
    exit_path: str = EXIT_COMPLETED
    workdir: str = ""
    output: Any = None  # what the loop's validator accepted

    @property
    def succeeded(self) -> bool:
        return self.exit_path == EXIT_COMPLETED and self.exit_code == 0

    def to_json(self) -> Dict[str, Any]:
        # wall_time (a clock reading) and output (data) stay out of traces.
        return {
            "exit_code": self.exit_code,
            "stdout": self.stdout,
            "stderr": self.stderr,
            "produced_files": list(self.produced_files),
            "exit_path": self.exit_path,
        }


def _walk_files(root: Path) -> List[str]:
    return sorted(
        str(p.relative_to(root).as_posix())
        for p in root.rglob("*")
        if stat.S_ISREG(p.lstat().st_mode)
    )


def _read_capped(fh: IO[bytes], cap: int, workdir: str) -> str:
    """The first ``cap`` bytes of ``fh``, decoded and scrubbed of ``workdir``."""
    fh.seek(0)
    return _scrub(fh.read(cap).decode("utf-8", errors="replace"), workdir)


def _scrub(text: str, workdir: str) -> str:
    """``text`` with ``workdir``, as given and as resolved, shown as ``<workdir>``."""
    for root in (workdir, str(Path(workdir).resolve())):
        text = text.replace(root, "<workdir>")
    return text


InputSpec = Dict[str, str]


def run_sandbox(
    artifact: CodeArtifact,
    limits: Optional[ExecutionParams] = None,
    inputs: Optional[InputSpec] = None,
    *,
    workdir: str,
) -> ExecutionResult:
    """Materialize the artifact in ``workdir``, run it, capture the outcome.

    The caller owns ``workdir``. ``inputs`` maps a relative destination
    path to an existing file to copy in; any other source is a
    :class:`LoadError`. The child sees only the allow-listed environment
    and ``/dev/null`` as stdin. Its process group is killed once it exits
    or at the wall limit, and only the capped bytes of its output are read.
    Absolute paths of the working directory are scrubbed from captured
    output so persisted traces stay location-independent.
    """
    limits = limits or ExecutionParams()
    root = Path(workdir)
    with writing(workdir):
        root.mkdir(parents=True, exist_ok=True)
    artifact.write_files(root)
    for rel, source in (inputs or {}).items():
        _check_relative(rel)
        dest = root / rel
        with writing(str(dest.parent)):
            dest.parent.mkdir(parents=True, exist_ok=True)
        if not os.path.isfile(source):
            raise LoadError(f"sandbox input {rel!r} is not a file: {source}")
        with writing(str(dest)):
            shutil.copy(source, dest)

    before = set(_walk_files(root))
    env = {k: os.environ[k] for k in ENV_ALLOW_LIST if k in os.environ}
    tokens = shlex.split(artifact.entrypoint)
    if tokens and tokens[0] in ("python", "python3"):
        tokens[0] = sys.executable

    started = time.monotonic()
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        try:
            proc = subprocess.Popen(tokens, cwd=str(root), env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, start_new_session=True)
        except OSError as exc:
            raise SandboxError(f"failed to launch entrypoint: {exc}") from exc
        # WNOWAIT leaves the child unreaped, so its group id stays reserved
        # for the kill; the waiter is joined before wait() reaps it.
        waiter = threading.Thread(
            target=os.waitid, args=(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT), daemon=True)
        waiter.start()
        try:
            waiter.join(limits.wall_seconds)
            exit_path = EXIT_TIMEOUT if waiter.is_alive() else EXIT_COMPLETED
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            waiter.join()
            proc.wait()
        wall_time = time.monotonic() - started
        stdout = _read_capped(out, limits.stdout_bytes, str(root))
        stderr = _read_capped(err, limits.stderr_bytes, str(root))

    produced = sorted(set(_walk_files(root)) - before)
    return ExecutionResult(exit_code=proc.returncode, stdout=stdout, stderr=stderr,
                           wall_time=wall_time, produced_files=produced,
                           exit_path=exit_path, workdir=str(root))


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------


@dataclass
class FailureRecord:
    """A classified failure: category, supporting stderr excerpt, round."""

    category: str
    evidence: str
    round: int = 0

    def __post_init__(self):
        if self.category not in FAILURE_CATEGORIES:
            raise ValidationError(f"unknown failure category: {self.category!r}")

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


def _evidence_line(stderr: str, pattern: str) -> str:
    for line in stderr.splitlines():
        if pattern in line:
            return line.strip()
    return pattern


def _escalate(record: FailureRecord, previous: Optional[FailureRecord]) -> FailureRecord:
    """``record``, or an error-recovery-failure when it repeats ``previous``.

    The same category and evidence twice in a row is the signature of a
    loop stuck repeating the same broken fix.
    """
    repeated = previous is not None and previous.evidence == record.evidence
    if repeated and previous.category == record.category:
        return FailureRecord("error-recovery-failure", record.evidence, record.round)
    return record


def classify_failure(result: ExecutionResult, round_no: int = 0) -> Optional[FailureRecord]:
    """Map a failed run onto the taxonomy; success maps to None."""
    if result.succeeded:
        return None
    if result.exit_path == EXIT_TIMEOUT:
        return FailureRecord("other", "wall-clock limit exceeded", round_no)
    for category, patterns in _PATTERN_TABLE:
        for pattern in patterns:
            if pattern in result.stderr:
                return FailureRecord(
                    category, _evidence_line(result.stderr, pattern), round_no
                )
    tail = [ln.strip() for ln in result.stderr.splitlines() if ln.strip()]
    evidence = tail[-1] if tail else f"exit code {result.exit_code}"
    return FailureRecord("other", evidence, round_no)


# ----------------------------------------------------------------------
# Prediction validation
# ----------------------------------------------------------------------


@dataclass
class ValidationReport:
    """Metric values, thresholds, and derived pass/fail verdicts."""

    metrics: MetricReport
    thresholds: Dict[str, float]
    verdict: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.verdict.values())

    def to_json(self) -> Dict[str, Any]:
        return {
            "metrics": self.metrics.to_json(),
            "thresholds": dict(self.thresholds),
            "verdict": dict(self.verdict),
        }


@dataclass
class EvaluationParams:
    """The ``evaluation`` config section: the DE-gene count and fold-change
    pseudocount of :func:`scoring_view`, and pass/fail bounds by metric id."""

    de_k: int = DEFAULT_DE_K
    pseudo: float = DEFAULT_DE_PSEUDO
    thresholds: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.de_k < 1:
            raise ValidationError("de_k must be at least 1")
        if not self.pseudo >= 0:
            raise ValidationError("pseudo must be non-negative")
        for metric in self.thresholds:
            if metric not in METRIC_IDS:
                raise ValidationError(f"unknown metric {metric!r} in thresholds")


# Metrics where smaller is better; everything else passes by meeting a floor.
_LOWER_IS_BETTER = frozenset({"mse", "mse_de"})


def apply_thresholds(
    metrics: MetricReport, thresholds: Dict[str, float]
) -> Dict[str, bool]:
    """Pass/fail per thresholded metric; undefined values always fail."""
    verdict: Dict[str, bool] = {}
    for name, bound in thresholds.items():
        value = metrics.get(name) if name in metrics else None
        if value is None:
            verdict[name] = False
        elif name in _LOWER_IS_BETTER:
            verdict[name] = value <= bound
        else:
            verdict[name] = value >= bound
    return verdict


@dataclass(frozen=True)
class ScoringView:
    """What a revision is given and what it is scored against, decided once
    per run by :func:`scoring_view` before the first provider call."""

    inputs: Dict[str, str]  # sandbox name -> bundle file staged into each revision
    truth: ExpressionMatrix  # what the predictions are aligned to and scored against
    de_genes: Optional[List[int]]  # the truth's DE genes; None without both groups
    thresholds: Dict[str, float]


def scoring_view(bundle: DatasetBundle, evaluation: EvaluationParams) -> ScoringView:
    """Each revision is given the bundle's four files and is scored against
    its whole matrix, whose DE genes are the top-``de_k`` by |log2 fold
    change| of the pooled perturbed rows against the controls (ties by gene
    index), or none without both groups. A matrix whose fold changes are
    undefined at ``evaluation.pseudo`` is a :class:`ValidationError`."""
    truth = bundle.matrix
    control = np.array([lab == CONTROL_LABEL for lab in bundle.perturbations], dtype=bool)
    de_genes = None
    if control.any() and not control.all():
        try:
            de_genes = select_de_genes(truth.values, k=min(evaluation.de_k, truth.shape[1]),
                                       pseudo=evaluation.pseudo, control=control)
        except ValidationError as exc:
            raise ValidationError(f"cannot rank the DE genes of {next(iter(bundle.files.values()))}"
                                  f" at evaluation.pseudo = {evaluation.pseudo!r}: {exc}") from None
    return ScoringView(dict(bundle.files), truth, de_genes, dict(evaluation.thresholds))


def validate_predictions(predictions: ExpressionMatrix, view: ScoringView) -> ValidationReport:
    """Score predictions, already in the truth's row and column order
    (:func:`forge.matrixio.align_predictions` puts them there), by ``view``:
    the DE-restricted variants run over its DE genes, skipped when it has
    none, and its thresholds give the verdict."""
    truth = view.truth
    if (predictions.row_ids, predictions.column_ids) != (truth.row_ids, truth.column_ids):
        raise ValidationError("predictions are not in the truth's row and column order")
    metrics = metric_report(truth, predictions, de_genes=view.de_genes)
    thresholds = dict(view.thresholds)
    return ValidationReport(metrics, thresholds, apply_thresholds(metrics, thresholds))


# ----------------------------------------------------------------------
# Refinement loop
# ----------------------------------------------------------------------

# Progress milestones for rollback ranking: a timeout beats nothing, a
# clean crash beats a timeout, exit 0 with bad output beats a crash.
_MILESTONE_TIMEOUT = 0
_MILESTONE_CRASH = 1
_MILESTONE_EXIT0_INVALID = 2
_MILESTONE_SUCCESS = 3


@dataclass
class RevisionRecord:
    """One loop iteration: the artifact, its run, and the classification."""

    revision: int
    artifact: CodeArtifact
    result: ExecutionResult
    failure: Optional[FailureRecord]

    @property
    def milestone(self) -> int:
        if self.failure is None:
            return _MILESTONE_SUCCESS
        if self.result.succeeded:  # exit 0, output rejected
            return _MILESTONE_EXIT0_INVALID
        timed_out = self.result.exit_path == EXIT_TIMEOUT
        return _MILESTONE_TIMEOUT if timed_out else _MILESTONE_CRASH

    def to_json(self) -> Dict[str, Any]:
        return {
            "revision": self.revision,
            "entrypoint": self.artifact.entrypoint,
            "files": sorted(self.artifact.files),
            "result": self.result.to_json(),
            "failure": self.failure.to_json() if self.failure else None,
            "milestone": self.milestone,
        }


@dataclass
class LoopTrace:
    """Everything the refinement loop did, in order; its outcome is computed from it."""

    revisions: List[RevisionRecord] = field(default_factory=list)

    @property
    def refinements(self) -> int:
        return max(len(self.revisions) - 1, 0)

    @property
    def succeeded(self) -> bool:
        return bool(self.revisions) and self.revisions[-1].failure is None

    @property
    def rollback_revision(self) -> Optional[int]:
        """The furthest revision of a failed loop, the latest among equals."""
        if self.succeeded or not self.revisions:
            return None
        return max(self.revisions, key=lambda rec: (rec.milestone, rec.revision)).revision

    def to_json(self) -> Dict[str, Any]:
        return {
            "revisions": [r.to_json() for r in self.revisions],
            "refinements": self.refinements,
            "succeeded": self.succeeded,
            "rollback_revision": self.rollback_revision,
        }


Validator = Callable[[str], Any]


def refinement_loop(
    plan: ResearchPlan,
    provider: ChatProvider,
    limits: Optional[ExecutionParams] = None,
    inputs: Optional[InputSpec] = None,
    *,
    r_max: Optional[int] = None,
    validator: Optional[Validator] = None,
    workdir_root: str,
    store: Optional[MemoryStore] = None,
) -> Tuple[CodeArtifact, ExecutionResult, LoopTrace]:
    """Generate, run, and patch until success or ``limits.r_max`` refinements,
    which ``r_max`` overrides when given.

    Revision n runs in ``workdir_root/rev-n`` (removed once n fails); the caller owns the root.
    Success means exit 0 on the completed path plus a passing validator,
    when one is given. The validator, called with the revision's working
    directory, returns what it accepted, which becomes the result's
    ``output``, or raises :class:`ValidationError` or :class:`LoadError`,
    whose message (the directory shown as ``<workdir>``) is the evidence.
    On terminal failure the loop raises carrying the full trace and the
    rollback artifact: the revision with the highest milestone, latest
    revision winning ties.
    """
    limits = limits or ExecutionParams()
    if r_max is not None:
        limits = replace(limits, r_max=r_max)  # re-runs ExecutionParams' checks
    artifact = generate_code(plan, provider, store=store)
    trace = LoopTrace()
    previous_raw: Optional[FailureRecord] = None

    for round_no in range(limits.r_max + 1):
        workdir = os.path.join(workdir_root, f"rev-{round_no}")
        result = run_sandbox(artifact, limits, inputs, workdir=workdir)

        raw: Optional[FailureRecord] = None
        if not result.succeeded:
            raw = classify_failure(result, round_no=round_no)
        elif validator is not None:
            try:
                result.output = validator(result.workdir)
            except ValidationError as exc:
                evidence = _scrub(str(exc), result.workdir)
                raw = FailureRecord("data-access-failure", evidence, round_no)
        failure = None if raw is None else _escalate(raw, previous_raw)
        previous_raw = raw
        if failure is not None:  # its evidence is text now; free the disk its copies hold
            shutil.rmtree(workdir, ignore_errors=True)
        trace.revisions.append(
            RevisionRecord(
                revision=artifact.revision,
                artifact=artifact,
                result=result,
                failure=failure,
            )
        )

        if failure is None:
            return artifact, result, trace
        if round_no == limits.r_max:
            break
        prompt = load_template("patch-code").substitute(
            files=render_artifact(artifact),
            category=failure.category,
            evidence=failure.evidence,
            stderr=result.stderr[-4000:] if result.stderr else "(no stderr)",
        )
        artifact = _request_artifact(
            prompt, provider, artifact.revision + 1, store, f"patch for {failure.category}")

    best = trace.revisions[trace.rollback_revision]  # record n holds revision n
    raise LoopError(
        f"refinement loop exhausted after {limits.r_max} refinements; "
        f"rolling back to revision {best.revision}",
        trace=trace,
        rollback=best.artifact,
    )
