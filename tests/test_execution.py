"""Artifact envelopes, the sandbox, failure taxonomy, and the loop."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import BUNDLE_MATRIX, LAUNCHER, write_bundle, write_predictions
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import io as spio
from scipy import sparse

import forge
from forge.consensus import PLAN_SECTIONS, ResearchPlan
from forge.errors import (
    GenerationError,
    LoadError,
    LoopError,
    SandboxError,
    ValidationError,
)
from forge.execution import (
    ENV_ALLOW_LIST,
    EXIT_COMPLETED,
    EXIT_TIMEOUT,
    MAX_WALL_SECONDS,
    CodeArtifact,
    EvaluationParams,
    ExecutionParams,
    ExecutionResult,
    FailureRecord,
    LoopTrace,
    RevisionRecord,
    _ArtifactParseError,
    _escalate,
    apply_thresholds,
    classify_failure,
    generate_code,
    parse_artifact,
    refinement_loop,
    render_artifact,
    run_sandbox,
    scoring_view,
    validate_predictions,
)
from forge.matrixio import (
    align_predictions,
    read_predictions,
    write_json,
)
from forge.metrics import ExpressionMatrix, MetricReport
from forge.pipeline import _prediction_validator
from forge.protocol import MemoryStore, canonical_json
from forge.providers import ScriptedChatProvider
from forge.task_analysis import DatasetBundle, load_bundle


def make_plan():
    return ResearchPlan(
        sections={s: f"do {s}" for s in PLAN_SECTIONS},
        weights_at_finalization={"a": 1.0},
        rounds_used=1,
    )


def reply(code, entrypoint="python main.py", deps=""):
    text = f"FILE: main.py\n```\n{code}\n```\nENTRYPOINT: {entrypoint}\n"
    if deps:
        text += f"DEPENDENCIES: {deps}\n"
    return text


GOOD_REPLY = reply("print('ok')")
CRASH_CODE = "raise IndexError('index 28 is out of bounds for axis 0 with size 10')"
CRASH_REPLY = reply(CRASH_CODE)


# ---------------------------------------------------------------------------
# artifact envelope


def test_parse_artifact_fenced():
    artifact = parse_artifact(GOOD_REPLY)
    assert artifact.files == {"main.py": "print('ok')\n"}
    assert artifact.entrypoint == "python main.py"
    assert artifact.declared_dependencies == []
    assert artifact.revision == 0


def test_parse_artifact_bare_and_multi_file():
    text = textwrap.dedent(
        """\
        Here is the program.
        FILE: pkg/util.py
        def helper():
            return 1

        FILE: main.py
        ```python
        import sys
        print("go")
        ```
        ENTRYPOINT: python main.py --fast
        DEPENDENCIES: numpy, scipy
        """
    )
    artifact = parse_artifact(text, revision=3)
    assert artifact.files["pkg/util.py"] == "def helper():\n    return 1\n"
    assert artifact.files["main.py"] == 'import sys\nprint("go")\n'
    assert artifact.entrypoint == "python main.py --fast"
    assert artifact.declared_dependencies == ["numpy", "scipy"]
    assert artifact.revision == 3


def test_parse_artifact_default_entrypoint():
    artifact = parse_artifact("FILE: run.py\n```\nprint(1)\n```\n")
    assert artifact.entrypoint == "python run.py"


@pytest.mark.parametrize(
    "text",
    [
        "no envelope at all",
        "FILE:   \n```\nx\n```\n",  # empty path
        "FILE: a.py\n```\nx\n```\nFILE: a.py\n```\ny\n```\n",  # duplicate
        "FILE: a.py\n```\nnever closed\n",  # unterminated fence
        "FILE: /etc/a.py\n```\nx\n```\n",  # absolute path
        "FILE: ../a.py\n```\nx\n```\n",  # escape attempt
        "FILE: a.py\n```\nx\n```\nENTRYPOINT: python other.py\n",  # unknown file
    ],
)
def test_parse_artifact_rejects(text):
    with pytest.raises(ValueError):
        parse_artifact(text)


def test_render_parse_round_trip():
    artifact = CodeArtifact(
        files={"b.py": "print(2)\n", "a.py": "print(1)\n"},
        entrypoint="python a.py",
        declared_dependencies=["numpy"],
        revision=2,
    )
    again = parse_artifact(render_artifact(artifact), revision=2)
    assert again.files == artifact.files
    assert again.entrypoint == artifact.entrypoint
    assert again.declared_dependencies == artifact.declared_dependencies


# Envelope lines: headers with short payloads (quotes and backslashes
# included, which shlex cannot always split), fences and free text.
_payloads = st.text(alphabet='ab./ "\'\\,-', max_size=12)
_envelope_lines = st.one_of(
    st.builds("FILE: {}".format, _payloads),
    st.builds("ENTRYPOINT: {}".format, _payloads),
    st.builds("DEPENDENCIES: {}".format, _payloads),
    st.sampled_from(["```", "```python", "", "  "]),
    _payloads,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_envelope_lines, max_size=12))
def test_parse_artifact_fuzz(lines):
    try:
        artifact = parse_artifact("\n".join(lines))
    except _ArtifactParseError:
        return
    assert isinstance(artifact, CodeArtifact)


@pytest.mark.parametrize(
    "entrypoint", ['python "main.py', "python main.py\\", "python 'main.py"]
)
def test_unparseable_entrypoint_is_retried(entrypoint):
    bad = reply("print('ok')", entrypoint=entrypoint)
    provider = ScriptedChatProvider([bad, GOOD_REPLY])
    assert generate_code(make_plan(), provider).entrypoint == "python main.py"
    assert len(provider.calls) == 2
    assert "does not parse" in provider.calls[1][2].text
    with pytest.raises(GenerationError, match="does not parse"):
        generate_code(make_plan(), ScriptedChatProvider([bad, bad]))
    # the default entrypoint, python <path>, fails the same way
    with pytest.raises(_ArtifactParseError, match="does not parse"):
        parse_artifact("FILE: a\".py\n```\nprint(1)\n```\n")


_segments = st.text(alphabet="abcxyz019_", min_size=1, max_size=6)
_paths = st.lists(_segments, min_size=1, max_size=3).map("/".join)
_body_lines = st.text(alphabet="ab =()'\"#:`\t", max_size=10)
_bodies = st.lists(_body_lines, max_size=4).map(lambda ls: "\n".join(ls).rstrip() + "\n")
_dependencies = st.lists(st.text(alphabet="abc-_=<>.0", min_size=1, max_size=6), max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_paths, _bodies, min_size=1, max_size=3), st.data())
def test_render_parse_round_trip_fuzz(files, data):
    entrypoint = "python " + data.draw(st.sampled_from(sorted(files)))
    dependencies = data.draw(_dependencies)
    artifact = CodeArtifact(files, entrypoint, declared_dependencies=dependencies)
    again = parse_artifact(render_artifact(artifact))
    assert again.files == artifact.files
    assert again.entrypoint == entrypoint
    assert again.declared_dependencies == dependencies


def test_render_fences_files_holding_backtick_lines():
    # A body line of backticks must not close the rendered fence early.
    files = {"a.py": 's = """\n```\ncode\n```\n"""\n', "b.py": "  `````\n"}
    text = render_artifact(CodeArtifact(files, "python a.py"))
    assert "\n````\n" in text and "\n``````\n" in text
    assert parse_artifact(text).files == files
    # A line of fewer backticks than the opening fence, or one holding
    # more than backticks, stays in the body.
    parsed = parse_artifact("FILE: c.py\n````\n```\n```x\n````\n")
    assert parsed.files == {"c.py": "```\n```x\n"}


def test_code_artifact_validation_and_json():
    with pytest.raises(ValidationError):
        CodeArtifact(files={}, entrypoint="python x.py")
    with pytest.raises(ValidationError):
        CodeArtifact(files={"x.py": "pass\n"}, entrypoint="  ")
    with pytest.raises(ValidationError):
        CodeArtifact(files={"x.py": "pass\n"}, entrypoint="python x.py", revision=-1)
    with pytest.raises(ValidationError):
        CodeArtifact(files={"/abs.py": "pass\n"}, entrypoint="python /abs.py")
    artifact = CodeArtifact(
        files={"b.py": "2\n", "a.py": "1\n"}, entrypoint="python a.py"
    )
    doc = artifact.to_json()
    assert doc == {"files": {"a.py": "1\n", "b.py": "2\n"}, "entrypoint": "python a.py",
                   "declared_dependencies": [], "revision": 0}
    assert canonical_json(doc) == (  # written with the files sorted
        '{"declared_dependencies":[],"entrypoint":"python a.py",'
        '"files":{"a.py":"1\\n","b.py":"2\\n"},"revision":0}')


# ---------------------------------------------------------------------------
# sandbox


def art(code, entrypoint="python main.py"):
    return CodeArtifact(files={"main.py": code + "\n"}, entrypoint=entrypoint)


def test_sandbox_happy_path(tmp_path):
    artifact = art(
        "open('out.txt', 'w').write('made')\nprint('hello sandbox')"
    )
    result = run_sandbox(artifact, workdir=str(tmp_path / "run"))
    assert result.succeeded
    assert result.exit_code == 0
    assert result.exit_path == "completed"
    assert "hello sandbox" in result.stdout
    assert result.produced_files == ["out.txt"]
    assert (tmp_path / "run" / "out.txt").read_text() == "made"
    assert result.wall_time > 0.0


def test_sandbox_inputs_copied(tmp_path):
    src = tmp_path / "data.tsv"
    src.write_text("1\t2\n")
    note = tmp_path / "note.txt"
    note.write_text("staged-note")
    artifact = art(
        "print(open('data/input.tsv').read() + open('note.txt').read())"
    )
    result = run_sandbox(
        artifact,
        inputs={"data/input.tsv": str(src), "note.txt": str(note)},
        workdir=str(tmp_path / "run"),
    )
    assert result.succeeded
    assert "1\t2" in result.stdout and "staged-note" in result.stdout
    # pre-seeded inputs are not "produced"
    assert result.produced_files == []


def test_sandbox_missing_input_is_a_load_error(tmp_path):
    # a vanished source is an error, not a file holding its own path
    missing = tmp_path / "gone.tsv"
    with pytest.raises(LoadError, match="gone.tsv"):
        run_sandbox(art("print(1)"), inputs={"data.tsv": str(missing)},
                    workdir=str(tmp_path / "run"))
    assert not (tmp_path / "run" / "data.tsv").exists()
    with pytest.raises(LoadError, match="not a file"):
        run_sandbox(art("print(1)"), inputs={"data": str(tmp_path / "run")},
                    workdir=str(tmp_path / "run2"))


@pytest.mark.parametrize("workdir, rel, blocked", [
    ("file/run", "data.tsv", "file/run"),
    ("run", "main.py/data.tsv", "run/main.py"),
], ids=["workdir-below-a-file", "input-below-an-artifact-file"])
def test_sandbox_staging_failure_is_a_load_error(tmp_path, workdir, rel, blocked):
    # A directory staging cannot make is a LoadError naming it, not a bare OSError.
    (tmp_path / "file").write_text("")
    source = tmp_path / "data.tsv"
    source.write_text("1\n")
    with pytest.raises(LoadError) as info:
        run_sandbox(art("print(1)"), inputs={rel: str(source)}, workdir=str(tmp_path / workdir))
    message = str(info.value)
    assert message.startswith(f"cannot write {tmp_path / blocked}: ")
    assert message.count(str(tmp_path)) == 1


def test_sandbox_env_allow_list(tmp_path, monkeypatch):
    monkeypatch.setenv("FORGE_TEST_SECRET", "leak-me")
    artifact = art("import os\nprint(sorted(os.environ))")
    result = run_sandbox(artifact, workdir=str(tmp_path / "run"))
    assert result.succeeded
    assert "FORGE_TEST_SECRET" not in result.stdout
    for name in result.stdout.strip("[]'\n").replace("'", "").split(", "):
        if name:
            assert name in ENV_ALLOW_LIST


# Runs one sandbox in a child interpreter, so a sandbox that hangs fails the
# test at its timeout instead of stalling the suite. The child is started
# through LAUNCHER, so its peak RSS growth is its own.
_SANDBOX_CHILD = textwrap.dedent("""\
    import json, resource, sys, time
    from forge.execution import CodeArtifact, ExecutionParams, run_sandbox

    code, limits, workdir = json.loads(sys.argv[1])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.monotonic()
    result = run_sandbox(CodeArtifact(files={"main.py": code}, entrypoint="python main.py"),
                         ExecutionParams(**limits), workdir=workdir)
    seconds = time.monotonic() - started
    grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak) * 1024
    print(json.dumps({**result.to_json(), "seconds": seconds, "rss_growth": grown}))
""")


def sandbox_in_child(code, workdir, stdin=subprocess.DEVNULL, **limits):
    """``run_sandbox``'s result as JSON, with the seconds it took and how far
    it raised its caller's peak RSS, from a child interpreter."""
    src = str(Path(forge.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", _SANDBOX_CHILD,
         json.dumps([code, limits, str(workdir)])],
        stdin=stdin, capture_output=True, text=True,
        timeout=limits.get("wall_seconds", 60.0) + 15, env={**os.environ, "PYTHONPATH": src},
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def leaves_behind(grandchild, then, new_session=False):
    """Code that starts ``grandchild`` (in a new session if ``new_session``),
    waits until it has written ``alive``, then runs ``then``."""
    return textwrap.dedent(f"""\
        import os, subprocess, sys, time
        subprocess.Popen([sys.executable, "-c", {grandchild!r}], start_new_session={new_session})
        while not os.path.exists("alive"):
            time.sleep(0.01)
        {then}
    """)


# Writes ``late`` one second after ``alive``, unless it is killed first.
_LATE_WRITER = "import time; open('alive', 'w').close(); time.sleep(1); open('late', 'w').close()"


def test_sandbox_timeout_kills_process_group(tmp_path):
    result = sandbox_in_child(leaves_behind(_LATE_WRITER, "time.sleep(30)"), tmp_path / "run",
                              wall_seconds=1.0)
    assert result["exit_path"] == "timeout" and result["exit_code"] == -9
    assert result["seconds"] < 2.0
    time.sleep(1.5)
    assert (tmp_path / "run" / "alive").exists()
    assert not (tmp_path / "run" / "late").exists()


def test_sandbox_kills_what_a_finished_child_leaves_in_its_group(tmp_path):
    result = sandbox_in_child(leaves_behind(_LATE_WRITER, "pass"), tmp_path / "run",
                              wall_seconds=5.0)
    assert result["exit_path"] == "completed" and result["exit_code"] == 0
    assert result["seconds"] < 2.5
    time.sleep(1.5)
    assert (tmp_path / "run" / "alive").exists()
    assert not (tmp_path / "run" / "late").exists()


@pytest.mark.parametrize("then, exit_path, exit_code", [
    ("time.sleep(30)", "timeout", -9),
    ("pass", "completed", 0),
])
def test_sandbox_does_not_wait_for_a_new_session_grandchild(tmp_path, then, exit_path, exit_code):
    # The grandchild leaves the group, so it escapes the kill; it outlives
    # the wall limit by 3 s and then exits on its own.
    grandchild = "import time; open('alive', 'w').close(); time.sleep(6)"
    result = sandbox_in_child(leaves_behind(grandchild, then, new_session=True),
                              tmp_path / "run", wall_seconds=3.0)
    assert (result["exit_path"], result["exit_code"]) == (exit_path, exit_code)
    assert result["seconds"] < (4.0 if exit_path == "timeout" else 1.5)


def test_sandbox_stdin_is_empty(tmp_path):
    # The caller's stdin stays open and holds a line the child must not see.
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"a line typed to the caller\n")
        result = sandbox_in_child("import sys\nprint(repr(sys.stdin.read()))", tmp_path / "run",
                                  stdin=read_end, wall_seconds=3.0)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert result["exit_path"] == "completed" and result["stdout"] == "''\n"
    assert result["seconds"] < 1.5


def test_sandbox_reads_only_the_capped_output(tmp_path):
    code = "import sys\nsys.stdout.buffer.write(b'x' * (32 << 20))"
    result = sandbox_in_child(code, tmp_path / "run", stdout_bytes=1024)
    assert result["exit_path"] == "completed" and result["exit_code"] == 0
    assert result["stdout"] == "x" * 1024
    assert result["rss_growth"] < 8 << 20


def test_sandbox_waits_up_to_the_longest_wall_seconds(tmp_path):
    result = run_sandbox(art("print('done')"), ExecutionParams(wall_seconds=MAX_WALL_SECONDS),
                         workdir=str(tmp_path / "run"))
    assert result.succeeded and result.stdout == "done\n"


def test_sandbox_output_caps(tmp_path):
    artifact = art("import sys\nprint('x' * 100000)\nsys.stderr.write('\u00e9' * 3)")
    result = run_sandbox(
        artifact,
        ExecutionParams(stdout_bytes=10, stderr_bytes=3),
        workdir=str(tmp_path / "run"),
    )
    assert result.stdout == "x" * 10
    # the cap cuts the second two-byte character in half
    assert result.stderr == "\u00e9\ufffd"


def test_sandbox_scrubs_workdir_paths(tmp_path):
    artifact = art("import os\nprint(os.getcwd())")
    run_dir = tmp_path / "run"
    result = run_sandbox(artifact, workdir=str(run_dir))
    assert "<workdir>" in result.stdout
    assert str(run_dir) not in result.stdout


def test_sandbox_crash_captures_stderr(tmp_path):
    result = run_sandbox(art(CRASH_CODE), workdir=str(tmp_path / "run"))
    assert result.exit_code != 0
    assert not result.succeeded
    assert "out of bounds" in result.stderr


def test_sandbox_bad_interpreter(tmp_path):
    artifact = art("print(1)", entrypoint="definitely-not-a-binary main.py")
    with pytest.raises(SandboxError, match="failed to launch"):
        run_sandbox(artifact, workdir=str(tmp_path / "run"))


def test_sandbox_limit_validation():
    for wall_seconds in (0, math.nextafter(MAX_WALL_SECONDS, math.inf), float("nan")):
        with pytest.raises(ValidationError, match="wall_seconds must lie in"):
            ExecutionParams(wall_seconds=wall_seconds)
    with pytest.raises(ValidationError):
        ExecutionParams(stdout_bytes=-1)


def test_execution_result_json_excludes_wall_time():
    result = ExecutionResult(
        exit_code=0, stdout="s", stderr="", wall_time=1.23,
        produced_files=["f"], exit_path="completed", workdir="/tmp/x",
    )
    doc = result.to_json()
    assert "wall_time" not in doc
    assert "workdir" not in doc
    assert doc["exit_code"] == 0 and doc["produced_files"] == ["f"]


# ---------------------------------------------------------------------------
# failure taxonomy


def failed(stderr, exit_code=1, exit_path="completed"):
    return ExecutionResult(
        exit_code=exit_code, stdout="", stderr=stderr, wall_time=0.1,
        produced_files=[], exit_path=exit_path,
    )


def test_classify_success_is_none():
    ok = ExecutionResult(0, "fine", "", 0.1, [], "completed")
    assert classify_failure(ok) is None


def test_classify_timeout():
    record = classify_failure(failed("", exit_code=-9, exit_path="timeout"))
    assert record.category == "other"
    assert record.evidence == "wall-clock limit exceeded"


@pytest.mark.parametrize(
    "stderr, category",
    [
        (
            "IndexError: index 28 is out of bounds for axis 0 with size 10",
            "computation-execution-error",
        ),
        (
            "ValueError: shapes (3,4) and (5,6) not aligned",
            "computation-execution-error",
        ),
        (
            "TypeError: can't convert np.ndarray of type numpy.object_",
            "invalid-type-or-operation",
        ),
        (
            "TypeError: unsupported operand type(s) for +: 'int' and 'str'",
            "invalid-type-or-operation",
        ),
        (
            "FileNotFoundError: [Errno 2] No such file or directory: 'x.tsv'",
            "data-access-failure",
        ),
        ("KeyError: 'perturbation'", "data-access-failure"),
        (
            "RuntimeError: size mismatch for layer fc1",
            "model-configuration-error",
        ),
        ("something totally novel exploded", "other"),
    ],
)
def test_classify_signature_table(stderr, category):
    record = classify_failure(failed(stderr))
    assert record.category == category
    assert record.evidence == stderr.splitlines()[-1].strip()


def test_classify_table_order_wins():
    # both a type-error and an indexing signature: the earlier table row wins
    stderr = "TypeError: bad\nIndexError: index 5 is out of bounds for axis 0"
    record = classify_failure(failed(stderr))
    assert record.category == "computation-execution-error"
    assert "out of bounds" in record.evidence


def test_classify_evidence_prefers_matching_line():
    stderr = "Traceback (most recent call last):\n  boring\nKeyError: 'gene'"
    record = classify_failure(failed(stderr))
    assert record.evidence == "KeyError: 'gene'"


def test_classify_empty_stderr_uses_exit_code():
    record = classify_failure(failed("", exit_code=7))
    assert record.category == "other"
    assert record.evidence == "exit code 7"


def test_classify_repeat_upgrades_to_recovery_failure():
    first = classify_failure(failed("KeyError: 'x'"), round_no=0)
    assert first.category == "data-access-failure"
    again = classify_failure(failed("KeyError: 'x'"), round_no=1)
    second = _escalate(again, first)
    assert second.category == "error-recovery-failure"
    assert second.evidence == first.evidence
    # a different evidence line is a fresh failure, not a stuck loop
    other = classify_failure(failed("KeyError: 'y'"), round_no=1)
    assert _escalate(other, first) is other


def test_failure_record_rejects_unknown_category():
    with pytest.raises(ValidationError):
        FailureRecord("made-up-category", "e")


# ---------------------------------------------------------------------------
# thresholds and prediction validation


def test_apply_thresholds_directions():
    report = MetricReport()
    report.set("mse", 0.2)
    report.set("pcc", 0.85)
    report.set("r2", None)
    verdict = apply_thresholds(report, {"mse": 0.25, "pcc": 0.9, "r2": 0.0})
    assert verdict == {"mse": True, "pcc": False, "r2": False}
    assert apply_thresholds(report, {}) == {}
    # a thresholded metric the report never computed is undefined, so it fails
    assert apply_thresholds(report, {"mse_de": 1.0}) == {"mse_de": False}


def _view(truth, labels=None, **evaluation):
    """The scoring view of an in-memory bundle over ``truth``: every row is a
    perturbed row unless ``labels`` says otherwise."""
    bundle = DatasetBundle(truth, tuple(labels or ["KO_A"] * truth.shape[0]), {}, {})
    return scoring_view(bundle, EvaluationParams(**evaluation))


def test_validate_predictions_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 3))
    truth = ExpressionMatrix(values, row_ids=("r1", "r2", "r3", "r4"),
                             column_ids=("g1", "g2", "g3"))
    # write the same values with rows and columns permuted
    perm = ExpressionMatrix(
        values[::-1, ::-1],
        row_ids=("r4", "r3", "r2", "r1"),
        column_ids=("g3", "g2", "g1"),
    )
    write_predictions(tmp_path / "artifact", perm)
    aligned = align_predictions(read_predictions(str(tmp_path / "artifact")), truth)
    report = validate_predictions(aligned, _view(truth, thresholds={"mse": 1e-9, "pcc": 0.999}))
    assert report.metrics.get("mse") == pytest.approx(0.0, abs=1e-12)
    assert report.passed
    doc = report.to_json()
    assert doc["verdict"] == {"mse": True, "pcc": True}


# Row "c" is the control. Pooled perturbed means (a, b) against it give
# |log2 FC| of 2.17 (g1), 3 (g2), 2.17 (g3) and 1.42 (g4): the top 2 are
# g2 and g1, the g1/g3 tie going to the lower index. Contrasting all rows
# with the control would pick g1 and g3 instead.
DE_TRUTH = ExpressionMatrix(
    [[1.0, 8.0, 1.0, 4.0], [8.0, 1.0, 8.0, 1.0], [1.0, 1.0, 1.0, 2.0]],
    row_ids=("c", "a", "b"), column_ids=("g1", "g2", "g3", "g4"),
)
DE_LABELS = ("control", "KO_A", "KO_B")


def test_validate_predictions_de_variants():
    # a distinct error per gene, so mse_de names the DE set: {g1, g2} -> 0.5
    pred = ExpressionMatrix(
        DE_TRUTH.values + np.array([1.0, 0.0, 3.0, 2.0]),
        row_ids=DE_TRUTH.row_ids, column_ids=DE_TRUTH.column_ids,
    )
    view = _view(DE_TRUTH, DE_LABELS, de_k=2, thresholds={"mse_de": 0.5, "mse": 0.5})
    assert view.de_genes == [1, 0]
    report = validate_predictions(pred, view)
    assert report.metrics.get("mse_de") == pytest.approx(0.5)
    assert report.metrics.get("mse") == pytest.approx(3.5)
    assert report.verdict == {"mse_de": True, "mse": False}

    # without a control group (or with no perturbed rows) there are no DE
    # genes, and the DE variants are skipped
    for labels in (["KO_A", "KO_B", "KO_A"], ["control"] * 3):
        view = _view(DE_TRUTH, labels)
        assert view.de_genes is None
        skipped = validate_predictions(pred, view)
        assert "mse_de" not in skipped.metrics
        assert skipped.metrics.get("mse") == pytest.approx(3.5)


def test_scoring_view_clamps_de_k_to_the_gene_count():
    view = _view(DE_TRUTH, DE_LABELS, de_k=10)
    assert view.de_genes == [1, 0, 2, 3]
    assert view.de_genes == _view(DE_TRUTH, DE_LABELS, de_k=4).de_genes


@pytest.mark.parametrize("ext", [".tsv", ".mtx"])
def test_scoring_view_stages_the_bundle_files(tmp_path, ext):
    bundle_dir = write_bundle(tmp_path / "bundle")
    if ext == ".mtx":
        spio.mmwrite(str(bundle_dir / "matrix.mtx"), sparse.coo_matrix(BUNDLE_MATRIX))
        (bundle_dir / "matrix.tsv").unlink()
    bundle = load_bundle(str(bundle_dir))
    view = scoring_view(bundle, EvaluationParams(thresholds={"mse": 1.0}))
    names = ["matrix" + ext, "obs.tsv", "var.tsv", "manifest.json"]
    assert view.inputs == {name: str(bundle_dir / name) for name in names}
    assert list(view.inputs) == names
    assert view.truth is bundle.matrix
    assert view.thresholds == {"mse": 1.0}
    assert view.de_genes is not None


def test_scoring_view_names_the_matrix_of_an_unrankable_bundle(tmp_path):
    bundle_dir = write_bundle(tmp_path / "bundle", matrix=BUNDLE_MATRIX - 10.0)
    bundle = load_bundle(str(bundle_dir))
    message = re.escape(f"cannot rank the DE genes of {bundle_dir / 'matrix.tsv'} at"
                        " evaluation.pseudo = 1e-06: log fold change requires positive"
                        " shifted means")
    with pytest.raises(ValidationError, match=message):
        scoring_view(bundle, EvaluationParams())
    # without a control group there is nothing to rank
    assert _view(bundle.matrix).de_genes is None


def test_align_predictions_reorders_by_id():
    rng = np.random.default_rng(9)
    truth = ExpressionMatrix(
        rng.normal(size=(4, 3)), row_ids=("a", "b", "c", "d"), column_ids=("x", "y", "z")
    )
    cases = [
        (("a", "b", "c", "d"), ("z", "x", "y")),  # rows already in order
        (("c", "a", "d", "b"), ("x", "y", "z")),
        (("d", "c", "b", "a"), ("y", "z", "x")),  # both axes permuted
        (("a", "b", "c", "d", "e"), ("y", "z", "w", "x")),  # extra row and column
    ]
    for row_ids, col_ids in cases:
        for csr in (False, True):
            # About half zeros, so a CSR row holds some of the columns.
            dense = rng.normal(size=(len(row_ids), len(col_ids)))
            dense *= rng.random(dense.shape) < 0.5
            pred = ExpressionMatrix(
                sparse.csr_array(dense) if csr else dense, row_ids=row_ids, column_ids=col_ids
            )
            aligned = align_predictions(pred, truth)  # may reorder pred in place
            got = aligned.values.toarray() if csr else aligned.values
            for i, r in enumerate(truth.row_ids):
                for j, c in enumerate(truth.column_ids):
                    assert got[i, j] == dense[row_ids.index(r), col_ids.index(c)]
            assert (aligned.row_ids, aligned.column_ids) == (truth.row_ids, truth.column_ids)
            if csr:
                # Judged afresh, not from a flag align_predictions may have set.
                v = aligned.values
                fresh = sparse.csr_array((v.data, v.indices, v.indptr), shape=v.shape)
                assert fresh.has_canonical_format


@pytest.mark.parametrize(
    "row_ids, col_ids, message",
    [
        (("a", "b", "a"), ("x", "y"), "predictions_rows.tsv repeats id 'a'"),
        (("a", "b"), ("y", "x", "y", "x"), "predictions_cols.tsv repeats id 'y'"),
    ],
)
def test_align_predictions_rejects_repeated_ids(row_ids, col_ids, message):
    truth = ExpressionMatrix(np.ones((2, 2)), row_ids=("a", "b"), column_ids=("x", "y"))
    pred = ExpressionMatrix(
        np.arange(len(row_ids) * len(col_ids), dtype=float).reshape(len(row_ids), len(col_ids)),
        row_ids=row_ids, column_ids=col_ids,
    )
    with pytest.raises(ValidationError, match=message):
        align_predictions(pred, truth)


def test_validate_predictions_missing_ids():
    truth = ExpressionMatrix(
        [[1.0, 2.0]], row_ids=("r1",), column_ids=("g1", "g2")
    )
    pred = ExpressionMatrix(
        [[1.0, 2.0]], row_ids=("other",), column_ids=("g1", "g2")
    )
    with pytest.raises(ValidationError, match="missing rows"):
        align_predictions(pred, truth)


def test_validate_predictions_rejects_unaligned_matrix():
    truth = ExpressionMatrix(
        [[1.0, 2.0]], row_ids=("r1",), column_ids=("g1", "g2")
    )
    other_row = ExpressionMatrix([[1.0, 2.0]], row_ids=("other",), column_ids=("g1", "g2"))
    swapped = ExpressionMatrix([[2.0, 1.0]], row_ids=("r1",), column_ids=("g2", "g1"))
    view = _view(truth)
    for unaligned in (other_row, swapped):
        with pytest.raises(ValidationError, match="not in the truth's row and column order"):
            validate_predictions(unaligned, view)
    assert validate_predictions(align_predictions(swapped, truth), view).metrics.get("mse") == 0.0


def test_write_json_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "metrics.json"
    write_json(str(path), {"mse": 0.5})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(str(path), {"mse": object()})  # not serialisable
    assert path.read_bytes() == before == b'{"mse":0.5}\n'
    assert os.listdir(tmp_path) == ["metrics.json"]


# ---------------------------------------------------------------------------
# code generation


def test_generate_code_first_try(tmp_path):
    store = MemoryStore()
    provider = ScriptedChatProvider([GOOD_REPLY])
    artifact = generate_code(make_plan(), provider, store=store)
    assert artifact.files == {"main.py": "print('ok')\n"}
    assert artifact.revision == 0
    entities = store.query_entities(kind="artifact")
    assert len(entities) == 1 and entities[0].round == 0
    # the prompt carries the plan sections
    assert "do preprocessing" in provider.calls[0][0].text


def test_generate_code_retry_then_success():
    provider = ScriptedChatProvider(["no envelope here", GOOD_REPLY])
    artifact = generate_code(make_plan(), provider)
    assert artifact.entrypoint == "python main.py"
    retry_turns = provider.calls[1]
    assert [t.role for t in retry_turns] == ["user", "assistant", "user"]
    assert "no FILE blocks" in retry_turns[2].text


def test_generate_code_two_failures_raise():
    provider = ScriptedChatProvider(["nope", "still nope"])
    with pytest.raises(GenerationError, match="after retry"):
        generate_code(make_plan(), provider)


# ---------------------------------------------------------------------------
# refinement loop


def test_loop_succeeds_immediately(tmp_path):
    provider = ScriptedChatProvider([GOOD_REPLY])
    artifact, result, trace = refinement_loop(
        make_plan(), provider, r_max=3, workdir_root=str(tmp_path)
    )
    assert trace.succeeded and trace.refinements == 0
    assert result.succeeded
    assert [r.milestone for r in trace.revisions] == [3]
    assert trace.rollback_revision is None
    assert (tmp_path / "rev-0" / "main.py").exists()


def test_loop_recovers_after_one_patch(tmp_path):
    provider = ScriptedChatProvider([CRASH_REPLY, GOOD_REPLY])
    artifact, result, trace = refinement_loop(
        make_plan(), provider, r_max=3, workdir_root=str(tmp_path)
    )
    assert trace.succeeded and trace.refinements == 1
    assert artifact.revision == 1
    assert [r.revision for r in trace.revisions] == [0, 1]
    categories = [r.failure.category if r.failure else None for r in trace.revisions]
    assert categories == ["computation-execution-error", None]
    # the patch prompt carried the failing file and the evidence line
    patch_prompt = provider.calls[1][0].text
    assert CRASH_CODE in patch_prompt
    assert "out of bounds" in patch_prompt


def test_loop_exhaustion_rolls_back_to_latest_crash(tmp_path):
    provider = ScriptedChatProvider([CRASH_REPLY] * 3)
    with pytest.raises(LoopError) as excinfo:
        refinement_loop(make_plan(), provider, r_max=2, workdir_root=str(tmp_path))
    err = excinfo.value
    assert "exhausted after 2 refinements" in str(err)
    assert "rolling back to revision 2" in str(err)
    trace = err.trace
    assert isinstance(trace, LoopTrace)
    assert trace.refinements == 2
    assert trace.rollback_revision == 2
    assert err.rollback.revision == 2
    categories = [r.failure.category for r in trace.revisions]
    assert categories == [
        "computation-execution-error",
        "error-recovery-failure",
        "error-recovery-failure",
    ]


def test_loop_removes_each_failed_revision(tmp_path):
    # A failed revision's evidence is text, so only an accepted revision's
    # directory, which the stage reads its predictions from, outlives the loop.
    with pytest.raises(LoopError):
        refinement_loop(make_plan(), ScriptedChatProvider([CRASH_REPLY] * 4), r_max=3,
                        workdir_root=str(tmp_path / "exhausted"))
    assert os.listdir(tmp_path / "exhausted") == []
    refinement_loop(make_plan(), ScriptedChatProvider([CRASH_REPLY, GOOD_REPLY]), r_max=3,
                    workdir_root=str(tmp_path / "patched"))
    assert os.listdir(tmp_path / "patched") == ["rev-1"]


def test_loop_rollback_prefers_furthest_milestone(tmp_path):
    # revision 0 exits 0 but fails validation; later patches crash outright
    print_only = reply("print('quiet success')")
    provider = ScriptedChatProvider([print_only, CRASH_REPLY, CRASH_REPLY])

    def validator(workdir):
        if not os.path.exists(os.path.join(workdir, "predictions.tsv")):
            raise ValidationError("predictions.tsv missing")

    with pytest.raises(LoopError) as excinfo:
        refinement_loop(
            make_plan(), provider, r_max=2,
            validator=validator, workdir_root=str(tmp_path),
        )
    trace = excinfo.value.trace
    assert [r.milestone for r in trace.revisions] == [2, 1, 1]
    assert trace.rollback_revision == 0
    assert excinfo.value.rollback.revision == 0
    assert trace.revisions[0].failure.category == "data-access-failure"
    assert trace.revisions[0].failure.evidence == "predictions.tsv missing"


def test_loop_validator_complaint_then_fix(tmp_path):
    writes = reply("open('predictions.tsv', 'w').write('0.0\\n')")
    print_only = reply("print('no file')")
    provider = ScriptedChatProvider([print_only, writes])

    def validator(workdir):
        if not os.path.exists(os.path.join(workdir, "predictions.tsv")):
            raise ValidationError("predictions.tsv missing")

    artifact, result, trace = refinement_loop(
        make_plan(), provider, r_max=2,
        validator=validator, workdir_root=str(tmp_path),
    )
    assert trace.succeeded and trace.refinements == 1
    assert trace.revisions[0].milestone == 2
    assert trace.revisions[1].milestone == 3


def _revision(n, exit_code=0, exit_path=EXIT_COMPLETED, rejected=False):
    """A hand-built loop record of revision ``n``; ``rejected`` marks an
    exit-0 run whose output the validator turned down."""
    result = ExecutionResult(exit_code, "", "", 0.0, [], exit_path)
    failure = classify_failure(result, n)
    if rejected:
        failure = FailureRecord("data-access-failure", "rejected", n)
    artifact = CodeArtifact({"main.py": ""}, "python main.py", revision=n)
    return RevisionRecord(n, artifact, result, failure)


def test_loop_trace_reads_its_outcome_off_the_revisions():
    invalid, crash = _revision(0, rejected=True), _revision(1, exit_code=1)
    timeout, success = _revision(2, -9, EXIT_TIMEOUT), _revision(3)
    assert [r.milestone for r in (timeout, crash, invalid, success)] == [0, 1, 2, 3]
    done = LoopTrace([invalid, crash, timeout, success])
    assert (done.succeeded, done.refinements, done.rollback_revision) == (True, 3, None)
    assert done.to_json()["succeeded"] is True and done.to_json()["refinements"] == 3
    failed = LoopTrace([crash, timeout, _revision(4, exit_code=1)])
    assert (failed.succeeded, failed.refinements, failed.rollback_revision) == (False, 2, 4)
    assert LoopTrace([timeout, invalid, crash]).rollback_revision == 0
    empty = LoopTrace()
    assert (empty.succeeded, empty.refinements, empty.rollback_revision) == (False, 0, None)


def test_loop_keeps_what_the_validator_accepted(tmp_path):
    provider = ScriptedChatProvider([GOOD_REPLY])
    accepted = object()
    _, result, trace = refinement_loop(
        make_plan(), provider, r_max=0,
        validator=lambda workdir: accepted, workdir_root=str(tmp_path),
    )
    assert result.output is accepted
    assert trace.revisions[0].result.output is accepted
    assert "output" not in result.to_json()


def test_loop_patches_undecodable_prediction_ids(tmp_path):
    truth = ExpressionMatrix(np.zeros((1, 1)), row_ids=("c1",), column_ids=("g1",))
    write = textwrap.dedent("""\
        open("predictions.tsv", "w").write("0.0\\n")
        open("predictions_cols.tsv", "w").write("g1\\n")
        open("predictions_rows.tsv", "wb").write({rows!r})
    """)
    latin1 = reply(write.format(rows="café\n".encode("latin-1")))
    utf8 = reply(write.format(rows=b"c1\n"))
    provider = ScriptedChatProvider([latin1, utf8])
    _, result, trace = refinement_loop(
        make_plan(), provider, r_max=1,
        validator=_prediction_validator(truth), workdir_root=str(tmp_path),
    )
    failure = trace.revisions[0].failure
    assert failure.category == "data-access-failure"
    assert failure.evidence.startswith(
        "prediction output invalid: cannot read <workdir>/predictions_rows.tsv"
    )
    assert result.output.row_ids == ("c1",)


# One refinement loop, run in a child interpreter so that a parent blocked
# on a FIFO fails the test by timeout instead of hanging it. The two replies
# come on stdin: revision 0 runs the bad program, revision 1 writes good
# predictions, and the child prints what the loop recorded of revision 0.
_LOOP_CHILD = textwrap.dedent("""\
    import json, sys
    import numpy as np
    from forge.consensus import PLAN_SECTIONS, ResearchPlan
    from forge.execution import refinement_loop
    from forge.metrics import ExpressionMatrix
    from forge.pipeline import _prediction_validator
    from forge.providers import ScriptedChatProvider

    replies, workdir_root = json.loads(sys.stdin.read())
    plan = ResearchPlan(sections={s: s for s in PLAN_SECTIONS},
                        weights_at_finalization={"a": 1.0}, rounds_used=1)
    truth = ExpressionMatrix(np.zeros((1, 1)), row_ids=("c1",), column_ids=("g1",))
    _, result, trace = refinement_loop(
        plan, ScriptedChatProvider(replies), r_max=1,
        validator=_prediction_validator(truth), workdir_root=workdir_root,
    )
    first = trace.revisions[0]
    print(json.dumps({"category": first.failure.category,
                      "evidence": first.failure.evidence,
                      "produced": first.result.produced_files,
                      "rows": list(result.output.row_ids)}))
""")

_PREDICTION_IDS = """\
import os
open("predictions_rows.tsv", "w").write("c1\\n")
open("predictions_cols.tsv", "w").write("g1\\n")
"""


@pytest.mark.parametrize("make, evidence", [
    ('os.mkfifo("predictions.tsv")', "predictions.tsv is a FIFO"),
    ('open("values.tsv", "w").write("0.0\\n")\nos.symlink("values.tsv", "predictions.tsv")',
     "predictions.tsv is a symlink"),
    ("os.symlink({bundle_file!r}, 'predictions.tsv')", "predictions.tsv is a symlink"),
    ('os.mkdir("predictions.mtx")', "predictions.mtx is a directory"),
], ids=["fifo", "relative-symlink", "absolute-symlink", "directory"])
def test_loop_patches_predictions_that_are_not_regular_files(tmp_path, make, evidence):
    bundle_file = tmp_path / "bundle" / "matrix.tsv"
    bundle_file.parent.mkdir()
    bundle_file.write_text("0.0\n")
    bad = reply(_PREDICTION_IDS + make.format(bundle_file=str(bundle_file)))
    good = reply(_PREDICTION_IDS + 'open("predictions.tsv", "w").write("0.0\\n")')
    src = str(Path(forge.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _LOOP_CHILD],
        input=json.dumps([[bad, good], str(tmp_path / "revisions")]),
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert child.returncode == 0, child.stderr
    first = json.loads(child.stdout)
    assert first["category"] == "data-access-failure"
    assert first["evidence"] == f"prediction output invalid: {evidence}"
    # only regular files count as produced
    assert first["produced"] == ["predictions_cols.tsv", "predictions_rows.tsv"] + (
        ["values.tsv"] if "values.tsv" in make else []
    )
    assert first["rows"] == ["c1"]


def test_loop_repeated_validator_complaint_upgrades(tmp_path):
    print_only = reply("print('still no file')")
    provider = ScriptedChatProvider([print_only, print_only])

    def validator(workdir):
        raise ValidationError("predictions.tsv missing")

    with pytest.raises(LoopError) as excinfo:
        refinement_loop(
            make_plan(), provider, r_max=1,
            validator=validator, workdir_root=str(tmp_path),
        )
    categories = [r.failure.category for r in excinfo.value.trace.revisions]
    assert categories == ["data-access-failure", "error-recovery-failure"]


def test_loop_r_max_zero_single_run(tmp_path):
    provider = ScriptedChatProvider([CRASH_REPLY])
    with pytest.raises(LoopError) as excinfo:
        refinement_loop(make_plan(), provider, r_max=0, workdir_root=str(tmp_path))
    assert excinfo.value.trace.refinements == 0
    assert len(excinfo.value.trace.revisions) == 1
    with pytest.raises(ValidationError):
        refinement_loop(make_plan(), provider, r_max=-1, workdir_root=str(tmp_path))


def test_loop_budget_is_limits_r_max(tmp_path):
    provider = ScriptedChatProvider([CRASH_REPLY] * 6)
    with pytest.raises(LoopError) as excinfo:
        refinement_loop(make_plan(), provider, limits=ExecutionParams(r_max=1),
                        workdir_root=str(tmp_path / "limits"))
    assert "exhausted after 1 refinements" in str(excinfo.value)
    assert len(excinfo.value.trace.revisions) == 2
    assert provider.remaining == 4
    # r_max= overrides limits.r_max, through ExecutionParams' own check
    provider = ScriptedChatProvider([CRASH_REPLY] * 6)
    with pytest.raises(LoopError) as excinfo:
        refinement_loop(make_plan(), provider, limits=ExecutionParams(r_max=1), r_max=2,
                        workdir_root=str(tmp_path / "override"))
    assert len(excinfo.value.trace.revisions) == 3
    with pytest.raises(ValidationError, match="r_max must be non-negative"):
        refinement_loop(make_plan(), provider, limits=ExecutionParams(r_max=1), r_max=-1,
                        workdir_root=str(tmp_path / "negative"))


def test_loop_stores_each_revision_artifact_only(tmp_path):
    store = MemoryStore()
    provider = ScriptedChatProvider([CRASH_REPLY, GOOD_REPLY])
    refinement_loop(
        make_plan(), provider, r_max=2, workdir_root=str(tmp_path), store=store
    )
    # the loop's outcome lives in its trace (sandbox_logs/loop.json) only
    assert [(a.kind, a.round) for a in store.query_entities()] == [
        ("artifact", 0), ("artifact", 1)]


def test_loop_trace_serializes(tmp_path):
    provider = ScriptedChatProvider([CRASH_REPLY, GOOD_REPLY])
    _, _, trace = refinement_loop(
        make_plan(), provider, r_max=2, workdir_root=str(tmp_path)
    )
    doc = trace.to_json()
    assert doc["succeeded"] is True and doc["refinements"] == 1
    assert [r["revision"] for r in doc["revisions"]] == [0, 1]
    assert "wall_time" not in doc["revisions"][0]["result"]
    assert json.loads(json.dumps(doc)) == doc
