"""Command-line behavior: stages, exit codes, and reproducible run dirs."""

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import io as spio
from scipy import sparse

from conftest import (
    ANALYSIS_REPLIES,
    BUNDLE_MATRIX,
    IDENTITY_ARTIFACT_REPLY,
    PLAN_JSON,
    REPORT_SECTIONS,
    discussion_replies,
    golden_fixture,
    write_bundle,
    write_config,
    write_corpus,
    write_predictions,
)
import forge
import forge.cli
import forge.matrixio
import forge.retrieval
from forge.cli import main
from forge.errors import LoadError
from forge.protocol import EventStream, canonical_json, load_store
from forge.retrieval import Corpus, Document, write_embeddings
from forge.pipeline import (
    load_config,
    open_run,
    run_pipeline,
    stage_analyze,
    stage_design,
)
from forge.task_analysis import ANALYSIS_ROLES, load_bundle

CRASH_REPLY = (
    "FILE: main.py\n```\nraise IndexError('index 28 is out of bounds "
    "for axis 0 with size 10')\n```\nENTRYPOINT: python main.py\n"
)

# Copies the bundle's matrix file, .mtx or .tsv, as the predictions but
# lists the columns in reverse, so the scores are not trivially perfect.
REVERSED_COLUMNS_REPLY = """FILE: main.py
```
import os
import shutil

ext = ".mtx" if os.path.exists("matrix.mtx") else ".tsv"
shutil.copyfile("matrix" + ext, "predictions" + ext)

def ids(path, col):
    with open(path) as fh:
        lines = [ln.rstrip("\\n").split("\\t") for ln in fh if ln.strip()]
    k = lines[0].index(col)
    return [row[k] for row in lines[1:]]

with open("predictions_rows.tsv", "w") as fh:
    fh.write("\\n".join(ids("obs.tsv", "cell_id")) + "\\n")
with open("predictions_cols.tsv", "w") as fh:
    fh.write("\\n".join(reversed(ids("var.tsv", "feature_id"))) + "\\n")
```
ENTRYPOINT: python main.py
"""

QUIET_REPLY = "FILE: main.py\n```\nprint('no predictions')\n```\nENTRYPOINT: python main.py\n"

TASK_TEXT = "Predict perturbed expression for KO_A cells from control profiles.\n"


def everything(result):
    text = result.output
    try:
        text += result.stderr
    except ValueError:
        pass
    return text


def profile(fixture=None, n_experts=2, r_max=2, thresholds=None):
    provider = {"type": "scripted"}
    if fixture is not None:
        provider["fixture"] = str(fixture)
    return dict(
        provider=provider,
        discussion={"n_experts": n_experts},
        execution={"r_max": r_max, "wall_seconds": 30.0},
        evaluation={"thresholds": thresholds or {}},
    )


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path):
    write_bundle(tmp_path / "bundle")
    (tmp_path / "task.txt").write_text(TASK_TEXT)
    return tmp_path


def run_cli(runner, args):
    return runner.invoke(main, [str(a) for a in args])


def stage_events(out):
    """(method, stage) of every stage event in ``out``'s events.jsonl, in order."""
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    return [(e["method"], e["params"]["stage"]) for e in events
            if e.get("method", "").startswith("stage.")]


def tree_digest(root):
    digests = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            rel = str(path.relative_to(root))
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# full pipeline


def test_run_full_pipeline(runner, workdir):
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    out = workdir / "out"
    result = run_cli(
        runner,
        ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
         "--out", out, "--config", cfg],
    )
    assert result.exit_code == 0, everything(result)
    assert "run complete" in result.output
    assert "rounds_used=4" in result.output
    assert "refinements=0" in result.output
    for name in (
        "config.json", "events.jsonl", "report.json", "retrieval_trace.json",
        "plan.json", "discussion_trace.json", "metrics.json", "summary.json",
        "usage.json",
    ):
        assert (out / name).exists(), name
    assert (out / "artifact" / "main.py").exists()
    # One copy of the predictions; the revisions ran outside the run directory.
    assert sorted(os.listdir(out / "predictions")) == [
        "predictions.tsv", "predictions_cols.tsv", "predictions_rows.tsv"
    ]
    assert sorted(os.listdir(out / "sandbox_logs")) == ["loop.json"]
    assert not (out / "sandbox").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["mse"] == 0.0
    assert summary["metrics"]["pcc"] == 1.0
    assert summary["metrics"]["r2"] == 1.0
    assert summary["passed"] is True
    assert summary["retrieval_stop"] == "no-documents"
    assert "out_dir" not in summary  # persisted summary stays location-free
    # every stage is framed by one start/complete pair, in pipeline order
    stages = ["analyze", "design", "execute", "evaluate"]
    assert stage_events(out) == [
        (method, stage) for stage in stages for method in ("stage.start", "stage.complete")
    ]
    # each provider call is billed to the stage that made it
    labels = [r["label"] for r in json.loads((out / "usage.json").read_text())["records"]]
    assert labels == sorted(labels, key=stages.index)
    assert list(dict.fromkeys(labels)) == ["analyze", "design", "execute"]


def test_mtx_run_scores_like_tsv_run(runner, tmp_path):
    # .mtx matrices stay CSR from load to score and .tsv ones dense; both
    # must give the same metrics.json bytes.
    rng = np.random.default_rng(41)
    matrix = rng.gamma(2.0, 1.5, size=(40, 30)) * (rng.random((40, 30)) < 0.3)
    cells = [(f"c{i}", "control" if i < 10 else f"KO_{'AB'[i % 2]}") for i in range(40)]
    genes = [f"g{j}" for j in range(30)]
    scored = {}
    for ext in (".tsv", ".mtx"):
        base = tmp_path / ext[1:]
        bundle = write_bundle(base / "bundle", matrix, cells, genes)
        if ext == ".mtx":
            (bundle / "matrix.tsv").unlink()
            spio.mmwrite(str(bundle / "matrix.mtx"), sparse.coo_matrix(matrix))
        (base / "task.txt").write_text(TASK_TEXT)
        fixture = golden_fixture(base / "fixture.json", artifact=REVERSED_COLUMNS_REPLY)
        cfg = write_config(base / "config.json", **profile(fixture))
        result = run_cli(
            runner,
            ["run", "--task", base / "task.txt", "--bundle", bundle,
             "--out", base / "out", "--config", cfg],
        )
        assert result.exit_code == 0, everything(result)
        assert (base / "out" / "predictions" / f"predictions{ext}").exists()
        scored[ext] = (base / "out" / "metrics.json").read_bytes()
    assert scored[".mtx"] == scored[".tsv"]
    values = json.loads(scored[".mtx"])["metrics"]
    assert sorted(values) == ["mse", "mse_de", "pcc", "pcc_de", "r2", "r2_de"]
    assert values["mse"] > 0.0 and values["mse_de"] > 0.0


def test_run_directories_are_byte_identical(runner, workdir):
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    digests = []
    for name in ("out1", "out2"):
        result = run_cli(
            runner,
            ["run", "--task", workdir / "task.txt", "--bundle",
             workdir / "bundle", "--out", workdir / name, "--config", cfg],
        )
        assert result.exit_code == 0, everything(result)
        digests.append(tree_digest(workdir / name))
    assert digests[0] == digests[1]


def test_written_config_reproduces_the_run(runner, workdir):
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    args = ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle"]
    result = run_cli(runner, args + ["--out", workdir / "out1", "--config", cfg])
    assert result.exit_code == 0, everything(result)
    written = workdir / "out1" / "config.json"
    assert canonical_json(load_config(str(written)).to_json()) + "\n" == written.read_text()
    result = run_cli(runner, args + ["--out", workdir / "out2", "--config", written])
    assert result.exit_code == 0, everything(result)
    assert tree_digest(workdir / "out2") == tree_digest(workdir / "out1")


@pytest.mark.parametrize("empty, exit_code", [(1, 0), (2, 2)])
def test_empty_analysis_reply_is_reprompted(runner, workdir, empty, exit_code):
    # One empty reply gets the corrective re-prompt; a second fails the stage.
    fixture = golden_fixture(workdir / "fixture.json")
    completions = json.loads(fixture.read_text())["completions"]
    fixture.write_text(json.dumps({"completions": [""] * empty + completions}))
    cfg = write_config(workdir / "config.json", **profile(fixture))
    result = run_cli(
        runner,
        ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
         "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == exit_code, everything(result)
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_validator_evidence_is_location_free(runner, workdir):
    # Revision 0 writes no predictions; the validator's complaint names its
    # working directory, a fresh temporary one in every run.
    fixture = golden_fixture(workdir / "fixture.json")
    completions = json.loads(fixture.read_text())["completions"]
    completions[-1:-1] = [QUIET_REPLY]
    fixture.write_text(json.dumps({"completions": completions}))
    cfg = write_config(workdir / "config.json", **profile(fixture))
    digests = []
    for out in (workdir / "out", workdir / "elsewhere" / "out2"):
        result = run_cli(
            runner,
            ["run", "--task", workdir / "task.txt", "--bundle",
             workdir / "bundle", "--out", out, "--config", cfg],
        )
        assert result.exit_code == 0, everything(result)
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]
    loop = json.loads((out / "sandbox_logs" / "loop.json").read_text())
    assert loop["revisions"][0]["failure"] == {
        "category": "data-access-failure",
        "evidence": "prediction output invalid: no predictions.mtx or "
                    "predictions.tsv under <workdir>",
        "round": 0,
    }


@pytest.mark.parametrize(
    "outcome, replies, exit_code",
    [
        pytest.param(outcome, replies, code, id=outcome)
        for outcome, replies, code in (
            ("success", [IDENTITY_ARTIFACT_REPLY], 0),
            ("loop-error", [CRASH_REPLY, CRASH_REPLY], 3),
            ("provider-error", [CRASH_REPLY], 2),  # the fixture ends before the patch
            ("validator-crash", [IDENTITY_ARTIFACT_REPLY], 1),
        )
    ],
)
def test_sandbox_is_removed_however_execute_ends(
    runner, workdir, monkeypatch, outcome, replies, exit_code
):
    scratch = workdir / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    roots = []
    loop = forge.pipeline.refinement_loop

    def spy(*args, **kwargs):
        roots.append(kwargs["workdir_root"])
        return loop(*args, **kwargs)

    monkeypatch.setattr(forge.pipeline, "refinement_loop", spy)
    if outcome == "validator-crash":
        def crashing(truth):
            def check(workdir):
                raise RuntimeError("validator crashed")
            return check

        monkeypatch.setattr(forge.pipeline, "_prediction_validator", crashing)
    upstream = json.loads(golden_fixture(workdir / "golden.json").read_text())
    fx = workdir / "fx.json"
    fx.write_text(json.dumps({"completions": upstream["completions"][:-1] + replies}))
    cfg = write_config(workdir / "config.json", **profile(fx, r_max=1))
    out = workdir / "out"
    result = run_cli(
        runner,
        ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
         "--out", out, "--config", cfg],
    )
    assert result.exit_code == exit_code, everything(result)
    assert len(roots) == 1 and Path(roots[0]).parent == scratch
    assert Path(roots[0]).name.startswith("forge-sandbox-")
    assert list(scratch.iterdir()) == []
    assert not (out / "sandbox").exists()


def test_run_reads_predictions_once(workdir, monkeypatch):
    # The execute stage's validator reads and aligns the predictions; the
    # evaluate stage scores that matrix instead of reading the files again.
    calls = []
    for name in ("read_predictions", "align_predictions"):
        original = getattr(forge.matrixio, name)

        def counted(*args, _name=name, _fn=original):
            calls.append(_name)
            return _fn(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("forge") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    fixture = golden_fixture(workdir / "fixture.json")
    config = load_config(str(write_config(workdir / "config.json", **profile(fixture))))
    summary = run_pipeline(
        str(workdir / "task.txt"), str(workdir / "bundle"), config, str(workdir / "out")
    )
    assert summary["metrics"]["mse"] == 0.0
    assert calls == ["read_predictions", "align_predictions"]


# ---------------------------------------------------------------------------
# stage commands produce the same slice as the full run


def test_stage_commands_match_full_run(runner, workdir):
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    full = workdir / "full"
    assert (
        run_cli(
            runner,
            ["run", "--task", workdir / "task.txt", "--bundle",
             workdir / "bundle", "--out", full, "--config", cfg],
        ).exit_code
        == 0
    )

    # analyze: same report bytes
    fx_a = workdir / "fx-analyze.json"
    fx_a.write_text(json.dumps({"completions": ANALYSIS_REPLIES}))
    cfg_a = write_config(workdir / "cfg-a.json", **profile(fx_a))
    out_a = workdir / "stage-analyze"
    result = run_cli(
        runner,
        ["analyze", "--task", workdir / "task.txt", "--bundle",
         workdir / "bundle", "--out", out_a, "--config", cfg_a],
    )
    assert result.exit_code == 0, everything(result)
    assert "stop=no-documents" in result.output
    assert (out_a / "report.json").read_bytes() == (full / "report.json").read_bytes()

    # design: same plan bytes from the saved report
    fx_d = workdir / "fx-design.json"
    fx_d.write_text(json.dumps({"completions": discussion_replies(2, 4)}))
    cfg_d = write_config(workdir / "cfg-d.json", **profile(fx_d))
    out_d = workdir / "stage-design"
    result = run_cli(
        runner,
        ["design", "--report", out_a / "report.json", "--out", out_d,
         "--config", cfg_d],
    )
    assert result.exit_code == 0, everything(result)
    assert "rounds_used=4" in result.output and "reason=converged" in result.output
    assert (out_d / "plan.json").read_bytes() == (full / "plan.json").read_bytes()

    # execute: same prediction bytes from the saved plan
    fx_e = workdir / "fx-exec.json"
    fx_e.write_text(json.dumps({"completions": [IDENTITY_ARTIFACT_REPLY]}))
    cfg_e = write_config(workdir / "cfg-e.json", **profile(fx_e))
    out_e = workdir / "stage-execute"
    result = run_cli(
        runner,
        ["execute", "--plan", out_d / "plan.json", "--bundle",
         workdir / "bundle", "--out", out_e, "--config", cfg_e],
    )
    assert result.exit_code == 0, everything(result)
    assert "refinements=0" in result.output
    for name in ("predictions.tsv", "predictions_rows.tsv", "predictions_cols.tsv"):
        assert (out_e / "predictions" / name).read_bytes() == (
            full / "predictions" / name
        ).read_bytes()

    # evaluate: same metric values for the same predictions
    cfg_v = write_config(workdir / "cfg-v.json", **profile())
    out_v = workdir / "stage-evaluate"
    result = run_cli(
        runner,
        ["evaluate", "--predictions", out_e / "predictions", "--bundle",
         workdir / "bundle", "--out", out_v, "--config", cfg_v],
    )
    assert result.exit_code == 0, everything(result)
    assert "passed=True" in result.output
    stage_doc = json.loads((out_v / "metrics.json").read_text())
    full_doc = json.loads((full / "metrics.json").read_text())
    assert stage_doc["metrics"] == full_doc["metrics"]
    assert stage_doc["metrics"]["mse"] == 0.0

    # library use: the stage functions write the same files themselves
    lib = workdir / "lib"
    bundle = load_bundle(str(workdir / "bundle"))
    with open_run(load_config(str(cfg)), str(lib)) as ctx:
        report, _ = stage_analyze(TASK_TEXT, bundle, ctx)
        stage_design(report, ctx)
    for name in ("report.json", "retrieval_trace.json", "plan.json",
                 "discussion_trace.json"):
        assert (lib / name).read_bytes() == (full / name).read_bytes(), name


# ---------------------------------------------------------------------------
# exit codes


def test_missing_bundle_exits_1(runner, workdir):
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    result = run_cli(
        runner,
        ["run", "--task", workdir / "task.txt", "--bundle",
         workdir / "missing", "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 1
    assert "error:" in everything(result)


def test_empty_task_exits_1(runner, workdir):
    (workdir / "empty.txt").write_text("   \n")
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    result = run_cli(
        runner,
        ["run", "--task", workdir / "empty.txt", "--bundle",
         workdir / "bundle", "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 1


@pytest.mark.parametrize("name, as_dir", [
    pytest.param(name, as_dir, id=f"{Path(name).name}-{'directory' if as_dir else 'missing'}")
    for name, as_dir in [
        (name, as_dir)
        for name in ("task.txt", "config.json", "bundle/manifest.json", "bundle/obs.tsv",
                     "bundle/var.tsv")
        for as_dir in (False, True)] + [("bundle/matrix.tsv", True), ("bundle/matrix.mtx", True)]
])
def test_unreadable_input_exits_1(runner, workdir, name, as_dir):
    # Every input file is read through one path, so each fault reads the same.
    cfg = write_config(workdir / "config.json", **profile())
    path = workdir / name
    path.unlink(missing_ok=True)  # a bundle has no matrix.mtx, but one is read before matrix.tsv
    if as_dir:
        path.mkdir()
    result = run_cli(
        runner,
        ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
         "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: cannot read {path}: " in everything(result)
    assert result.stderr.count(str(path)) == 1
    assert not (workdir / "out").exists()


def test_second_run_into_same_out_is_refused(runner, workdir):
    fx = workdir / "fx.json"
    fx.write_text(json.dumps({"completions": ANALYSIS_REPLIES}))
    cfg = write_config(workdir / "config.json", **profile(fx))
    out = workdir / "out"
    args = ["analyze", "--task", workdir / "task.txt", "--bundle",
            workdir / "bundle", "--out", out, "--config", cfg]
    assert run_cli(runner, args).exit_code == 0
    first = tree_digest(out)
    result = run_cli(runner, args)
    assert result.exit_code == 1
    assert f"{out} already holds a run" in everything(result)
    assert tree_digest(out) == first


def test_non_utf8_bundle_table_exits_1(runner, workdir):
    (workdir / "bundle" / "obs.tsv").write_bytes(
        "cell_id\tperturbation\ncafé\tKO_A\n".encode("latin-1")
    )
    result = run_cli(
        runner,
        ["analyze", "--task", workdir / "task.txt", "--bundle",
         workdir / "bundle", "--out", workdir / "out"],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in everything(result) and "obs.tsv" in everything(result)


def test_fixture_underflow_exits_2(runner, workdir):
    fx = workdir / "short.json"
    fx.write_text(json.dumps({"completions": ANALYSIS_REPLIES[:2]}))
    cfg = write_config(workdir / "config.json", **profile(fx))
    result = run_cli(
        runner,
        ["analyze", "--task", workdir / "task.txt", "--bundle",
         workdir / "bundle", "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 2
    assert "error:" in everything(result)


def test_deeply_nested_analysis_reply_exits_2(runner, workdir):
    fx = workdir / "nested.json"
    fx.write_text(json.dumps({"completions": ["[" * 100000] * 2}))
    cfg = write_config(workdir / "config.json", **profile(fx))
    result = run_cli(
        runner,
        ["analyze", "--task", workdir / "task.txt", "--bundle",
         workdir / "bundle", "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 2, everything(result)
    assert "reply failed schema after retry: invalid JSON (nesting too deep)" in everything(result)


def test_nan_analysis_reply_is_retried_then_exits_2(runner, workdir):
    # Schema-complete apart from the number, which no JSON file may hold.
    doc = {**json.loads(ANALYSIS_REPLIES[0]), "introduction": 1.5}
    nan_reply = json.dumps(doc).replace("1.5", "NaN")
    fixture = golden_fixture(workdir / "fixture.json")
    golden = json.loads(fixture.read_text())["completions"]
    fixture.write_text(json.dumps({"completions": [nan_reply] + golden}))
    cfg = write_config(workdir / "config.json", **profile(fixture))
    args = ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
            "--config", cfg]
    result = run_cli(runner, args + ["--out", workdir / "retried"])
    assert result.exit_code == 0, everything(result)
    fixture.write_text(json.dumps({"completions": [nan_reply] * 2}))
    result = run_cli(runner, args + ["--out", workdir / "failed"])
    assert result.exit_code == 2, everything(result)
    assert isinstance(result.exception, SystemExit)
    assert "invalid JSON (number NaN is out of range)" in everything(result)


def test_loop_exhaustion_exits_3_with_rollback(runner, workdir):
    crashes = [CRASH_REPLY, CRASH_REPLY]
    plan_doc = {
        "sections": {
            "preprocessing": "none", "architecture": "identity",
            "implementation": "copy", "training": "none", "evaluation": "mse",
        },
        "weights_at_finalization": {"a": 1.0},
        "rounds_used": 1,
    }
    (workdir / "plan.json").write_text(json.dumps(plan_doc))
    # a full run reaches the same rollback once analyze and design are done
    upstream = json.loads(golden_fixture(workdir / "golden.json").read_text())
    cases = {
        "execute": (["--plan", workdir / "plan.json"], crashes),
        "run": (["--task", workdir / "task.txt"], upstream["completions"][:-1] + crashes),
    }
    for command, (inputs, completions) in cases.items():
        fx = workdir / f"crash-{command}.json"
        fx.write_text(json.dumps({"completions": completions}))
        cfg = write_config(workdir / f"config-{command}.json", **profile(fx, r_max=1))
        out = workdir / f"out-{command}"
        result = run_cli(
            runner,
            [command, *inputs, "--bundle", workdir / "bundle", "--out", out,
             "--config", cfg],
        )
        assert result.exit_code == 3, command
        assert "refinement loop exhausted" in everything(result)
        loop = json.loads((out / "sandbox_logs" / "loop.json").read_text())
        assert loop["refinements"] == 1
        assert loop["rollback_revision"] == 1
        # the rollback artifact is persisted for inspection
        manifest = json.loads((out / "artifact" / "manifest.json").read_text())
        assert manifest["revision"] == 1
        # an unmatched stage.start names the stage that failed
        events = stage_events(out)
        assert events[-1] == ("stage.start", "execute")
        assert ("stage.complete", "execute") not in events
        assert not [e for e in events if e[1] == "evaluate"]


def test_design_failure_writes_the_partial_discussion_trace(runner, workdir):
    # the fixture ends during round 2's refinements, after its scores
    fx = workdir / "cut.json"
    fx.write_text(json.dumps(
        {"completions": ANALYSIS_REPLIES + discussion_replies(2, 4)[:12]}))
    cfg = write_config(workdir / "config.json", **profile(fx))
    out = workdir / "out"
    result = run_cli(runner, ["run", "--task", workdir / "task.txt", "--bundle",
                              workdir / "bundle", "--out", out, "--config", cfg])
    assert result.exit_code == 2, everything(result)
    assert "provider failed after 2 completed rounds" in everything(result)
    trace = json.loads((out / "discussion_trace.json").read_text())
    assert (trace["rounds_used"], trace["reason"]) == (2, "provider-failure")
    assert [r["round"] for r in trace["rounds"]] == [1, 2]
    assert not (out / "plan.json").exists()


def usage_from_events(out):
    """The usage records ``out``'s events.jsonl implies: every chat response,
    in stream order, billed to its request's stage with its own tokens."""
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    stages = {e["id"]: e["params"]["stage"] for e in events
              if e.get("method") == "llm.complete"}
    return [
        {"label": stages[e["id"]], "model": "scripted",
         "prompt_tokens": e["result"]["prompt_tokens"],
         "completion_tokens": e["result"]["completion_tokens"]}
        for e in events if "result" in e
    ]


def test_usage_json_is_read_off_the_event_stream(runner, workdir):
    analysis, design = list(ANALYSIS_REPLIES), discussion_replies(2, 4)
    retried = (["this is not json"] + analysis + design[:2] + ["no score here"]
               + design[2:] + ["no envelope at all", IDENTITY_ARTIFACT_REPLY])
    cases = {  # completions, exit code, provider calls per stage
        "golden": (analysis + design + [IDENTITY_ARTIFACT_REPLY], 0, (4, 24, 1)),
        "retries": (retried, 0, (5, 25, 2)),
        "exhausted": (analysis + design + [CRASH_REPLY] * 2, 3, (4, 24, 2)),
    }
    for name, (completions, code, calls) in cases.items():
        fx = workdir / f"{name}.json"
        fx.write_text(json.dumps({"completions": completions}))
        cfg = write_config(workdir / f"config-{name}.json", **profile(fx, r_max=1))
        out = workdir / name
        result = run_cli(runner, ["run", "--task", workdir / "task.txt", "--bundle",
                                  workdir / "bundle", "--out", out, "--config", cfg])
        assert result.exit_code == code, (name, everything(result))
        usage = json.loads((out / "usage.json").read_text())
        records = usage_from_events(out)
        assert usage["records"] == records, name
        labels = [r["label"] for r in records]
        assert tuple(map(labels.count, ("analyze", "design", "execute"))) == calls, name
        assert usage["total"] == {
            key: sum(r[key] for r in records) for key in ("prompt_tokens", "completion_tokens")
        }, name


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("retrieval", "bogus", 1, "retrieval.bogus"),
        ("generation", "temperature", "hot", "generation.temperature"),
        ("discussion", "lambdas", ["a", 0.5, 0.5], "discussion.lambdas must be a number"),
        ("execution", "r_max", "x", "execution.r_max"),
        ("evaluation", "de_k", "many", "evaluation.de_k"),
        ("retreival", "l_max", 2, "retreival"),  # unknown top-level key
        # values the section's dataclass rejects
        ("execution", "r_max", -1, "'execution': r_max must be non-negative"),
        ("evaluation", "de_k", 0, "'evaluation': de_k must be at least 1"),
        ("evaluation", "thresholds", {"bogus": 1},
         "'evaluation': unknown metric 'bogus' in thresholds"),
        ("retrieval", "l_max", 0, "'retrieval': l_max must be positive"),
        # one past the longest wait poll() accepts; 2147483.647 itself loads
        ("execution", "wall_seconds", 2147483.648,
         "'execution': wall_seconds must lie in (0, 2147483.647]: got 2147483.648"),
        ("execution", "wall_seconds", 1e12, "'execution': wall_seconds must lie in"),
        # values of the wrong JSON type
        ("generation", "max_tokens", "x", "generation.max_tokens must be an integer"),
        ("generation", "model", 5, "generation.model must be a string"),
        ("retrieval", "l_max", True, "retrieval.l_max must be an integer"),
        pytest.param("discussion", "lambdas", [True, False, False],
                     "discussion.lambdas must be a number: got True",
                     id="discussion-lambdas-bools"),
        pytest.param("discussion", "lambdas", [0.3, 0.4, "0.3"],
                     "discussion.lambdas must be a number: got '0.3'",
                     id="discussion-lambdas-string"),
        pytest.param("discussion", "lambdas", [10**400, 0, 0],
                     "discussion.lambdas is out of range", id="discussion-lambdas-beyond-float"),
        pytest.param("discussion", "tau", 10**400, "discussion.tau is out of range",
                     id="discussion-tau-beyond-float"),
        # an id no metric reports, not one that fails every verdict
        pytest.param("evaluation", "thresholds", {"top1_lin": 0.5},
                     "'evaluation': unknown metric 'top1_lin' in thresholds",
                     id="evaluation-thresholds-retired-metric"),
        # a metric with a scorer that no stage runs would fail every verdict
        pytest.param("evaluation", "thresholds", {"top1_knn": 0.5},
                     "'evaluation': unknown metric 'top1_knn' in thresholds",
                     id="evaluation-thresholds-uncomputed-metric"),
    ],
)
def test_bad_config_key_exits_1(runner, workdir, section, key, value, named):
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    result = run_cli(
        runner,
        ["analyze", "--task", workdir / "task.txt", "--bundle",
         workdir / "bundle", "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an escaped exception
    assert named in everything(result)


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"seed": "abc"}, "config key seed must be an integer"),
        ({"seed": True}, "config key seed must be an integer"),
        ({"pricing_table": 7}, "config key pricing_table must be a string"),
        ({"provider": "x"}, "config key provider must be a JSON object"),
        ({"provider": {"fixtur": "f"}}, "unknown config key provider.fixtur"),
        ({"provider": {"embed_dim": "64"}}, "config key provider.embed_dim must be an integer"),
        ({"provider": {"type": "http", "fixture": "f"}}, "provider.fixture must be null"),
        ({"provider": {"type": "local"}}, "provider type must be scripted or http"),
        ({"evaluation": {"thresholds": {"mse": float("nan")}}},
         "is not valid JSON: number NaN is out of range"),
        ({"generation": {"temperature": float("inf")}},
         "is not valid JSON: number Infinity is out of range"),
        ({"seed": -1}, "seed must be non-negative: got -1"),
        ({"provider": {"embed_model": "m"}}, 'provider.embed_model must be "default"'),
        # one file shape: a "defaults" wrapper is an unknown key like any other
        ({"defaults": 3}, "unknown config key defaults"),
        ({"defaults": {"seed": 1}, "seed": 5}, "unknown config key defaults"),
    ],
)
def test_bad_top_level_config_value_exits_1(runner, workdir, doc, named):
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(doc))
    result = run_cli(
        runner,
        ["analyze", "--task", workdir / "task.txt", "--bundle",
         workdir / "bundle", "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an escaped exception
    assert named in everything(result)


@pytest.mark.parametrize(
    "command, flag, doc, named",
    [
        pytest.param("design", "--report", [1, 2], "report must be a JSON object",
                     id="report-list"),
        pytest.param("design", "--report", {"sections": [1, 2]},
                     "report key sections must be a JSON object: got [1, 2]",
                     id="report-sections-list"),
        pytest.param("design", "--report", {"sections": {}, "provenance": 5},
                     "report key provenance must be a JSON object: got 5",
                     id="report-provenance-number"),
        # an empty list is as empty as an empty string, as in an agent's reply
        pytest.param("design", "--report",
                     {"sections": {**REPORT_SECTIONS, "constraints": []}},
                     "missing report sections: constraints", id="report-empty-section"),
        pytest.param("execute", "--plan", [1, 2], "plan must be a JSON object",
                     id="plan-list"),
        pytest.param("execute", "--plan", {"sections": {}},
                     "plan key weights_at_finalization is missing", id="plan-missing-keys"),
        pytest.param("execute", "--plan",
                     {"sections": {}, "weights_at_finalization": 1, "rounds_used": 1},
                     "plan key weights_at_finalization must be a JSON object: got 1",
                     id="plan-weights-number"),
        pytest.param("execute", "--plan",
                     {"sections": {}, "weights_at_finalization": {}, "rounds_used": "1"},
                     "plan key rounds_used must be an integer: got '1'", id="plan-rounds-string"),
        pytest.param("execute", "--plan",
                     {"sections": {}, "weights_at_finalization": {"a": "1"}, "rounds_used": 1},
                     "plan key weights_at_finalization.a must be a number: got '1'",
                     id="plan-weight-string"),
        # forge never writes a NaN or an infinity, so neither reads back
        pytest.param("design", "--report", {"sections": {"task_definition": float("nan")}},
                     "saved.json is not valid JSON: number NaN is out of range",
                     id="report-nan"),
        pytest.param("execute", "--plan", {"weights_at_finalization": {"a": float("inf")}},
                     "saved.json is not valid JSON: number Infinity is out of range",
                     id="plan-infinite-weight"),
    ],
)
def test_malformed_saved_stage_output_exits_1(runner, workdir, command, flag, doc, named):
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    saved = workdir / "saved.json"
    saved.write_text(json.dumps(doc))
    args = [command, flag, saved, "--out", workdir / "out", "--config", cfg]
    if command == "execute":
        args += ["--bundle", workdir / "bundle"]
    result = run_cli(runner, args)
    assert result.exit_code == 1, everything(result)
    assert isinstance(result.exception, SystemExit)  # not an escaped exception
    assert everything(result).startswith("error: ") and named in everything(result)


@pytest.mark.parametrize(
    "blocked",
    [("artifact",), ("sandbox_logs",), ("predictions",), ("entities",), ("artifact", "entities")],
    ids=["artifact", "loop-trace", "predictions", "store", "artifact-then-store"],
)
def test_run_directory_write_failure_exits_1(runner, workdir, blocked):
    # A regular file where the run needs a directory fails that write. When
    # closing the run fails too, the first failure is the one reported.
    out = workdir / "out"
    out.mkdir()
    for name in blocked:
        (out / name).write_text("")
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    result = run_cli(runner, ["run", "--task", workdir / "task.txt", "--bundle",
                              workdir / "bundle", "--out", out, "--config", cfg])
    assert result.exit_code == 1, everything(result)
    assert isinstance(result.exception, SystemExit)  # not an escaped exception
    assert everything(result).startswith(f"error: cannot write {out / blocked[0]}")


def forge_in_child(args, fsize=None):
    """``forge ARGS`` in a child interpreter, with a timeout. With ``fsize``,
    that child alone gets a file-size limit of ``fsize`` bytes and ignores
    SIGXFSZ, so a longer write fails with EFBIG, as on a full disk."""

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))

    return subprocess.run(
        [sys.executable, "-m", "forge.cli", *map(str, args)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")), timeout=120,
        preexec_fn=None if fsize is None else limit_file_size,
    )


@pytest.mark.parametrize("fsize, victim", [(500, "config.json"), (2000, "events.jsonl")])
def test_full_disk_exits_1(workdir, fsize, victim):
    # config.json is 577 bytes; events.jsonl passes 2,000 bytes in the design stage.
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    out = workdir / "out"
    done = forge_in_child(["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
                           "--out", out, "--config", cfg], fsize)
    assert done.returncode == 1, done.stderr[-2000:]
    [line] = done.stderr.splitlines()
    assert line.startswith(f"error: cannot write {out / victim}: ") and "too large" in line
    if victim == "events.jsonl":  # the refused line left no torn part behind
        assert len(EventStream(str(out / victim))) > 0


def test_full_disk_keeps_the_corpus_index(runner, tmp_path):
    # One document's index (2,639 bytes) fits in 3,300 bytes; three documents' (3,942) do not.
    corpus = write_corpus(tmp_path / "corpus", {"doc-a": "Perturbation atlases."})
    cfg = write_config(tmp_path / "config.json", **profile())
    assert run_cli(runner, ["corpus", "index", corpus, "--config", cfg]).exit_code == 0
    index = corpus / "embeddings.npz"
    before = index.read_bytes()
    assert len(before) < 3300
    write_corpus(corpus, {"doc-b": "Linear baselines.", "doc-c": "Control means."})
    done = forge_in_child(["corpus", "index", corpus, "--config", cfg], 3300)
    assert done.returncode == 1, done.stderr[-2000:]
    [line] = done.stderr.splitlines()
    assert line.startswith(f"error: cannot write {index}: ") and "too large" in line
    assert sorted(os.listdir(corpus)) == ["doc-a.txt", "doc-b.txt", "doc-c.txt", index.name]
    assert index.read_bytes() == before


def test_out_below_a_regular_file_exits_1(workdir):
    (workdir / "F").write_text("")
    out = workdir / "F" / "sub"
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    done = forge_in_child(["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
                           "--out", out, "--config", cfg])
    assert done.returncode == 1, done.stderr[-2000:]
    [line] = done.stderr.splitlines()
    assert line.startswith(f"error: cannot write {out}: ")


def test_http_provider_config_loads():
    config = load_config(overrides={"provider": {"type": "http", "embed_model": "m"}, "seed": None})
    assert canonical_json(config.to_json()["provider"]) == (
        '{"embed_dim":64,"embed_model":"m","fixture":null,"type":"http"}')
    assert config.seed is None


def test_wall_seconds_loads_up_to_the_longest_wait():
    config = load_config(overrides={"execution": {"wall_seconds": 2147483.647}})
    assert config.execution.wall_seconds == 2147483.647


def test_readme_config_block_is_the_defaults():
    # The README's configuration block documents every key and default.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    defaults = json.loads(json.dumps(load_config().to_json()))
    assert json.loads(block) == defaults


def test_readme_run_directory_table_matches_a_run(runner, workdir):
    # Every path the README's run-directory table names is in a golden run,
    # and every top-level entry of the run is in the table.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("A run directory holds:", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    paths = [p.rstrip("/") for row in rows for p in row.split("`")[1::2]]
    assert "metrics.json" in paths and "entities" in paths
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    out = workdir / "out"
    result = run_cli(runner, ["run", "--task", workdir / "task.txt", "--bundle",
                              workdir / "bundle", "--out", out, "--config", cfg])
    assert result.exit_code == 0, everything(result)
    assert [p for p in paths if not (out / p).exists()] == []
    tops = {p.split("/")[0] for p in paths}
    assert sorted(set(os.listdir(out)) - tops) == []


def test_execute_requires_plan(runner, workdir):
    cfg = write_config(workdir / "config.json", **profile())
    result = run_cli(
        runner,
        ["execute", "--plan", workdir / "plan.json", "--bundle",
         workdir / "bundle", "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 1
    assert "run `forge design` first" in everything(result)


def test_evaluate_requires_predictions(runner, workdir):
    cfg = write_config(workdir / "config.json", **profile())
    result = run_cli(
        runner,
        ["evaluate", "--predictions", workdir / "predictions", "--bundle",
         workdir / "bundle", "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 1
    assert "run `forge execute` first" in everything(result)


@pytest.mark.parametrize("command", ["run", "execute", "evaluate"])
def test_unrankable_bundle_exits_1_before_the_run(runner, workdir, command):
    # Every value is negative, so no gene has a log fold change at the
    # default pseudocount: the scoring view refuses the bundle before the
    # run directory exists, and no reply of the fixture is spent.
    bundle = write_bundle(workdir / "negative", matrix=BUNDLE_MATRIX - 10.0)
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    (workdir / "plan.json").write_text(json.dumps({
        "sections": json.loads(PLAN_JSON), "weights_at_finalization": {"a": 1.0},
        "rounds_used": 1}))
    write_predictions(workdir / "predictions", load_bundle(str(bundle)).matrix)
    given = {"run": ["--task", workdir / "task.txt"], "execute": ["--plan", workdir / "plan.json"],
             "evaluate": ["--predictions", workdir / "predictions"]}[command]
    out = workdir / "out"
    result = run_cli(runner, [command, *given, "--bundle", bundle, "--out", out, "--config", cfg])
    assert result.exit_code == 1, everything(result)
    assert result.output.splitlines() == [
        f"error: cannot rank the DE genes of {bundle / 'matrix.tsv'} at evaluation.pseudo"
        " = 1e-06: log fold change requires positive shifted means"]
    assert not out.exists()  # so no events.jsonl either


# ---------------------------------------------------------------------------
# corpus indexing


def test_corpus_index_is_idempotent(runner, tmp_path):
    corpus = write_corpus(
        tmp_path / "corpus",
        {"doc-a": "Perturbation atlases describe expression shifts.",
         "doc-b": "Linear baselines are hard to beat at small scale."},
    )
    cfg = write_config(tmp_path / "config.json", **profile())
    result = run_cli(runner, ["corpus", "index", corpus, "--config", cfg])
    assert result.exit_code == 0, everything(result)
    assert "indexed 2 documents" in result.output
    first = (corpus / "embeddings.npz").read_bytes()
    result = run_cli(runner, ["corpus", "index", corpus, "--config", cfg])
    assert result.exit_code == 0
    assert (corpus / "embeddings.npz").read_bytes() == first


def test_corpus_index_missing_dir_exits_1(runner, tmp_path):
    cfg = write_config(tmp_path / "config.json", **profile())
    result = run_cli(
        runner, ["corpus", "index", tmp_path / "nowhere", "--config", cfg]
    )
    assert result.exit_code == 1
    assert "corpus directory not found" in everything(result)


def test_corpus_index_unreadable_document_exits_1(runner, tmp_path):
    corpus = write_corpus(tmp_path / "corpus", {"doc-a": "fine text"})
    (corpus / "broken.txt").mkdir()
    cfg = write_config(tmp_path / "config.json", **profile())
    result = run_cli(runner, ["corpus", "index", corpus, "--config", cfg])
    assert result.exit_code == 1
    assert "error:" in everything(result)


@pytest.mark.parametrize("command", ["run", "corpus-index"])
def test_unlistable_corpus_exits_1(runner, workdir, monkeypatch, command):
    # Root ignores permission bits, so the listing itself is made to fail.
    corpus = write_corpus(workdir / "corpus", {"doc-a": "Mean-shift baselines."})
    listdir = os.listdir

    def refuse(path="."):
        if os.fspath(path) == str(corpus):
            raise PermissionError(13, "Permission denied", str(corpus))
        return listdir(path)

    monkeypatch.setattr(forge.retrieval.os, "listdir", refuse)
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    args = {"run": ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
                    "--corpus", corpus, "--out", workdir / "out"],
            "corpus-index": ["corpus", "index", corpus]}[command]
    result = run_cli(runner, [*args, "--config", cfg])
    assert result.exit_code == 1, everything(result)
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.splitlines() == [
        f"error: cannot list corpus directory {corpus}: "
        f"[Errno 13] Permission denied: '{corpus}'"]


@pytest.mark.parametrize("vector", [["a"], [[1, 2]], 5, [], [0, 0]],
                         ids=["string", "nested", "scalar", "empty", "zero"])
def test_corpus_index_bad_fixture_embedding_exits_1(runner, tmp_path, vector):
    corpus = write_corpus(tmp_path / "corpus", {"doc-a": "fine text"})
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"completions": [], "embeddings": {"fine text": vector}}))
    cfg = write_config(tmp_path / "config.json", **profile(fixture))
    result = run_cli(runner, ["corpus", "index", corpus, "--config", cfg])
    assert result.exit_code == 1, everything(result)
    assert isinstance(result.exception, SystemExit)  # not an escaped exception
    assert f"fixture {fixture}: embedding override for 'fine text'" in everything(result)
    assert not (corpus / "embeddings.npz").exists()


def test_text_index_alone_exits_1(runner, workdir):
    # The text index of older versions is neither read nor replaced by
    # embedding every document again, which an HTTP embedder bills for.
    corpus = write_corpus(workdir / "corpus", {"doc-a": "Mean-shift baselines."})
    (corpus / "embeddings.tsv").write_text("doc-a\t1 0 0\n")
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    out = workdir / "out"
    for args in (["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
                  "--corpus", corpus, "--out", out], ["corpus", "index", corpus]):
        result = run_cli(runner, [*args, "--config", cfg])
        assert result.exit_code == 1, everything(result)
        assert everything(result).startswith(
            f"error: {corpus / 'embeddings.tsv'} is a text index, which forge no longer reads: "
            f"delete it and run `forge corpus index {corpus}` again\n")
    assert json.loads((out / "usage.json").read_text())["records"] == []  # fixture unconsumed
    assert sorted(os.listdir(corpus)) == ["doc-a.txt", "embeddings.tsv"]


def write_index(corpus, vectors):
    """Index the documents of ``corpus`` named by ``vectors`` (id -> vector) at those vectors."""
    write_embeddings(Corpus([Document(id=i, text=(corpus / f"{i}.txt").read_text(), embedding=v)
                             for i, v in vectors.items()]), str(corpus))


IDS_MESSAGE = "'ids' must be a 1-D unicode array of distinct ids"
VECTORS_MESSAGE = "'vectors' must be a 2-D float64 array with one row per id"
OFFSETS_MESSAGE = ("'offsets' must be int64 offsets, one more than 'ids', rising from 0 to"
                   " the end of 'texts'")
CITATIONS_MESSAGE = "'citations' must be a 2-D int32 array of (citing, cited) rows of 'ids'"
TERMS_MESSAGE = "'terms' must be a 1-D bytes array of sorted terms"
COUNTS_MESSAGE = "'counts' must be one count per term, each in [1, the number of ids]"


# Each case replaces members of the index of doc-a ("fine text") and doc-b
# ("rare text"); None drops the member.
@pytest.mark.parametrize("members, reason", [
    (None, "not a zip archive"),
    ({"vectors": None}, "'vectors is not a file in the archive'"),
    ({"ids": np.array(["doc-a", "doc-b"], dtype=object)},
     "Object arrays cannot be loaded when allow_pickle=False"),
    ({"ids": np.array([b"doc-a", b"doc-b"])}, IDS_MESSAGE),
    ({"ids": np.array([["doc-a", "doc-b"]])}, IDS_MESSAGE),
    ({"ids": np.array(["doc-a", "doc-a"])}, IDS_MESSAGE),
    ({"vectors": np.ones((2, 4), dtype=np.float32)}, VECTORS_MESSAGE),
    ({"vectors": np.ones(8)}, VECTORS_MESSAGE),
    ({"vectors": np.ones((3, 4))}, VECTORS_MESSAGE),
    ({"texts": np.frombuffer(b"fine textrare text", dtype=np.int8)},
     "'texts' must be a 1-D uint8 array of UTF-8 bytes"),
    ({"texts": np.frombuffer(b"fine text\xffare text", dtype=np.uint8)},
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ({"offsets": np.array([0, 9, 18], dtype=np.int32)}, OFFSETS_MESSAGE),
    ({"offsets": np.array([0, 18])}, OFFSETS_MESSAGE),
    ({"offsets": np.array([0, 19, 18])}, OFFSETS_MESSAGE),
    ({"offsets": np.array([0, 9, 17])}, OFFSETS_MESSAGE),
    ({"offsets": np.array([1, 9, 18])}, OFFSETS_MESSAGE),
    ({"sha256": np.array(["0" * 64] * 2)}, "'sha256' must be one 64-byte hex digest per id"),
    ({"sha256": np.array([b"0" * 64])}, "'sha256' must be one 64-byte hex digest per id"),
    ({"citations": np.array([[0, 1]])}, CITATIONS_MESSAGE),
    ({"citations": np.array([0, 1], dtype=np.int32)}, CITATIONS_MESSAGE),
    ({"citations": np.array([[0, 2]], dtype=np.int32)}, CITATIONS_MESSAGE),
    ({"citations": np.array([[-1, 0]], dtype=np.int32)}, CITATIONS_MESSAGE),
    ({"terms": np.array(["fine", "rare", "text"])}, TERMS_MESSAGE),
    ({"terms": np.array([b"fine", b"text", b"rare"])}, TERMS_MESSAGE),
    ({"terms": np.array([b"fine", b"fine", b"text"])}, TERMS_MESSAGE),
    ({"counts": np.array([1, 1, 2])}, COUNTS_MESSAGE),
    ({"counts": np.array([1, 2], dtype=np.int32)}, COUNTS_MESSAGE),
    ({"counts": np.array([1, 1, 3], dtype=np.int32)}, COUNTS_MESSAGE),
    ({"counts": np.array([0, 1, 2], dtype=np.int32)}, COUNTS_MESSAGE),
], ids=["not-zip", "no-vectors", "object-ids", "bytes-ids", "2-d-ids", "repeated-id",
        "float32-vectors", "1-d-vectors", "extra-row", "int8-texts", "non-utf8-text",
        "int32-offsets", "short-offsets", "falling-offsets", "offsets-short-of-texts",
        "offsets-not-from-0", "unicode-sha256", "one-sha256", "int64-citations",
        "1-d-citations", "citation-out-of-range", "negative-citation", "unicode-terms",
        "unsorted-terms", "repeated-term", "int64-counts", "short-counts", "count-above-docs",
        "count-of-0"])
def test_corrupt_index_exits_1(runner, tmp_path, members, reason):
    corpus = write_corpus(tmp_path / "corpus", {"doc-a": "fine text", "doc-b": "rare text"},
                          citations=[("doc-a", "doc-b")])
    index = corpus / "embeddings.npz"
    if members is None:
        index.write_text("doc-a\t1 0 0 0\n")
    else:
        write_index(corpus, {"doc-a": [1.0, 0, 0, 0], "doc-b": [0, 1.0, 0, 0]})
        with np.load(index, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        assert arrays["terms"].tolist() == [b"fine", b"rare", b"text"]
        for name, array in members.items():
            del arrays[name]
            if array is not None:
                arrays[name] = array
        np.savez(index, **arrays)
    before = index.read_bytes()
    cfg = write_config(tmp_path / "config.json", **profile())
    result = run_cli(runner, ["corpus", "index", corpus, "--config", cfg])
    assert result.exit_code == 1, everything(result)
    assert isinstance(result.exception, SystemExit)  # not an escaped exception
    assert everything(result).startswith(f"error: cannot read {index}: {reason}\n")
    assert index.read_bytes() == before


def test_corpus_index_of_differing_dimensions_exits_1(runner, tmp_path):
    # doc-a's row is 3-d; doc-b, which has none, is embedded at 64.
    corpus = write_corpus(tmp_path / "corpus", {"doc-a": "fine text"})
    write_index(corpus, {"doc-a": [1.0, 1.0, 1.0]})
    write_corpus(corpus, {"doc-b": "more text"})
    before = (corpus / "embeddings.npz").read_bytes()
    cfg = write_config(tmp_path / "config.json", **profile())
    result = run_cli(runner, ["corpus", "index", corpus, "--config", cfg])
    assert result.exit_code == 1, everything(result)
    assert everything(result).startswith("error: cannot index embeddings of differing dimensions\n")
    assert (corpus / "embeddings.npz").read_bytes() == before


@pytest.mark.parametrize("change", ["added", "removed"])
def test_stale_index_exits_1(runner, workdir, change):
    # A document added or removed after indexing is not loaded with a guess
    # at the index; the run asks for a re-index, which then loads.
    corpus = write_corpus(workdir / "corpus", {"doc-a": "Mean-shift baselines.",
                                               "doc-b": "Knockout profiles."})
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    assert run_cli(runner, ["corpus", "index", corpus, "--config", cfg]).exit_code == 0
    if change == "added":
        write_corpus(corpus, {"doc-c": "Control means."})
    else:
        (corpus / "doc-b.txt").unlink()
    run = ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
           "--corpus", corpus, "--out", workdir / "out", "--config", cfg]
    result = run_cli(runner, run)
    assert result.exit_code == 1, everything(result)
    assert everything(result).startswith(
        f"error: {corpus / 'embeddings.npz'} is out of date, as documents were added or removed"
        f" since it was written: run `forge corpus index {corpus}` again\n")
    assert json.loads((workdir / "out" / "usage.json").read_text())["records"] == []
    assert run_cli(runner, ["corpus", "index", corpus, "--config", cfg]).exit_code == 0
    assert len(forge.retrieval.load_corpus(str(corpus), forge.providers.ScriptedEmbedder())) == {
        "added": 3, "removed": 1}[change]


def test_index_without_texts_exits_1(runner, workdir):
    # An index of older versions holds ids and vectors only; neither a run
    # nor a re-index embeds every document again in its place.
    corpus = write_corpus(workdir / "corpus", {"doc-a": "Mean-shift baselines."})
    index = corpus / "embeddings.npz"
    np.savez(index, ids=np.array(["doc-a"]), vectors=np.ones((1, 64)))
    before = index.read_bytes()
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    out = workdir / "out"
    for args in (["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
                  "--corpus", corpus, "--out", out], ["corpus", "index", corpus]):
        result = run_cli(runner, [*args, "--config", cfg])
        assert result.exit_code == 1, everything(result)
        assert everything(result).startswith(
            f"error: {index} is an index without texts, which forge no longer reads: "
            f"delete it and run `forge corpus index {corpus}` again\n")
    assert json.loads((out / "usage.json").read_text())["records"] == []  # fixture unconsumed
    assert index.read_bytes() == before


def test_analyze_with_indexed_corpus(runner, workdir):
    corpus = write_corpus(
        workdir / "corpus",
        {"doc-a": "Mean-shift baselines for perturbation prediction.",
         "doc-b": "Expression profiles of knockout cells."},
    )
    cfg0 = write_config(workdir / "cfg0.json", **profile())
    assert run_cli(runner, ["corpus", "index", corpus, "--config", cfg0]).exit_code == 0
    fx = workdir / "fx.json"
    fx.write_text(json.dumps({"completions": ANALYSIS_REPLIES}))
    cfg = write_config(workdir / "config.json", **profile(fx))
    out = workdir / "out"
    result = run_cli(
        runner,
        ["analyze", "--task", workdir / "task.txt", "--bundle",
         workdir / "bundle", "--corpus", corpus, "--out", out, "--config", cfg],
    )
    assert result.exit_code == 0, everything(result)
    trace = json.loads((out / "retrieval_trace.json").read_text())
    assert trace["trace"]["stop_reason"] in (
        "overlap", "relevance-floor", "layer-cap", "no-documents"
    )


def test_stages_record_their_agents_outputs(workdir):
    # the golden run with a corpus; hash-derived embeddings score near 0,
    # so a relevance floor under -1 retrieves documents
    corpus = write_corpus(
        workdir / "corpus",
        {"doc-a": "Predict knockout expression from control profiles with a mean shift.",
         "doc-b": "Control expression profiles of knockout cells in perturbation screens."},
    )
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", retrieval={"relevance_eps": -1.0},
                       **profile(fixture, thresholds={"mse": 0.5, "pcc": 2.0}))
    out = workdir / "out"
    run_pipeline(str(workdir / "task.txt"), str(workdir / "bundle"), load_config(str(cfg)),
                 str(out), corpus_path=str(corpus))
    store = load_store(str(out))
    retrieved = json.loads((out / "retrieval_trace.json").read_text())["documents"]
    assert retrieved
    # what the agents wrote, and nothing a run file already holds
    assert [e.kind for e in store.query_entities()] == (
        ["dataset"] + ["document"] * len(retrieved) + ["report"] * len(ANALYSIS_ROLES)
        + ["proposal"] * 8 + ["artifact"])
    assert [e.body["id"] for e in store.query_entities(kind="document")] == retrieved
    # analyze: one section per role, each citing the retrieved documents
    sections = store.query_entities(kind="report")
    assert [(e.body["role"], e.provenance["agent"]) for e in sections] == [
        (role, role) for role in ANALYSIS_ROLES]
    assert all(e.provenance["citations"] == retrieved for e in sections)
    metrics = json.loads((out / "metrics.json").read_text())
    products = [json.loads((out / name).read_text()) for name in ("report.json", "plan.json")]
    assert not [e.id for e in store.query_entities()
                if e.body in products + [metrics["metrics"]]]
    assert "critique_ref" not in metrics and metrics["verdict"]["pcc"] is False
    assert not (out / "relations.jsonl").exists()
    # design: every critic score, peer score and confidence is in the trace
    discussion = json.loads((out / "discussion_trace.json").read_text())
    members = discussion["experts"][:-1]
    for rnd in discussion["rounds"]:
        assert sorted(rnd["critic_scores"]) == sorted(rnd["confidences"]) == sorted(members)
        assert {m: sorted(p) for m, p in rnd["peer_scores"].items()} == {
            m: sorted(o for o in members if o != m) for m in members}
    scores = sum(len(rnd["critic_scores"]) + sum(map(len, rnd["peer_scores"].values()))
                 for rnd in discussion["rounds"])
    assert scores == discussion_replies(2, 4).count("SCORE: 0.9")


# The documents are indexed at 3 dimensions; the query is embedded at embed_dim (64).
@pytest.mark.parametrize("rows", [
    pytest.param({"doc-a": [0.0, 1.0, 0.0], "doc-b": [1.0, 0.0, 0.0]}, id="not-embed-dim"),
])
def test_run_with_corpus_of_wrong_dimension_exits_1(runner, workdir, rows):
    corpus = write_corpus(
        workdir / "corpus",
        {"doc-a": "Mean-shift baselines for perturbation prediction.",
         "doc-b": "Expression profiles of knockout cells."},
    )
    write_index(corpus, rows)
    fixture = golden_fixture(workdir / "fixture.json")
    cfg = write_config(workdir / "config.json", **profile(fixture))
    result = run_cli(
        runner,
        ["run", "--task", workdir / "task.txt", "--bundle", workdir / "bundle",
         "--corpus", corpus, "--out", workdir / "out", "--config", cfg],
    )
    assert result.exit_code == 1, everything(result)
    assert "dimension mismatch" in everything(result)


# ---------------------------------------------------------------------------
# option plumbing


def test_seed_and_fixture_flags_override_config(runner, workdir):
    fixture = golden_fixture(workdir / "fixture.json")
    fx_a = workdir / "fx-analyze.json"
    fx_a.write_text(json.dumps({"completions": ANALYSIS_REPLIES}))
    cfg = write_config(workdir / "config.json", **profile(fixture))
    out = workdir / "out"
    result = run_cli(
        runner,
        ["analyze", "--task", workdir / "task.txt", "--bundle",
         workdir / "bundle", "--out", out, "--config", cfg,
         "--seed", 7, "--fixture", fx_a],
    )
    assert result.exit_code == 0, everything(result)
    saved = json.loads((out / "config.json").read_text())
    assert saved["seed"] == 7
    assert saved["provider"]["fixture"] == str(fx_a)


@pytest.mark.parametrize("args", [
    [], ["run"], ["run", "--task", "task.txt", "--seed", "abc"], ["bogus"], ["--bogus"],
    ["corpus", "bogus"], ["corpus", "index"],
], ids=["no-command", "missing-option", "bad-int", "unknown-command", "unknown-option",
        "unknown-subcommand", "missing-argument"])
def test_a_command_line_that_does_not_parse_exits_1(runner, args):
    # Exit 2 is the provider-failure code, so click's usage errors exit 1.
    result = run_cli(runner, args)
    assert result.exit_code == 1, everything(result)
    assert isinstance(result.exception, SystemExit)
    assert "Usage:" in result.stderr


def test_help_and_interrupt_keep_their_exit_codes(runner, workdir, monkeypatch):
    for args in (["--help"], ["run", "--help"], ["corpus", "--help"]):
        result = run_cli(runner, args)
        assert result.exit_code == 0, everything(result)
        assert result.output.startswith("Usage:")

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(forge.cli, "run_pipeline", interrupt)
    cfg = write_config(workdir / "config.json", **profile(golden_fixture(workdir / "fx.json")))
    result = run_cli(runner, ["run", "--task", workdir / "task.txt", "--bundle",
                              workdir / "bundle", "--out", workdir / "out", "--config", cfg])
    assert result.exit_code == 1
    assert "Aborted!" in result.stderr


def test_version_flag(runner):
    result = run_cli(runner, ["--version"])
    assert result.exit_code == 0, everything(result)
    assert result.output.strip() == f"forge, version {forge.__version__}"


def test_import_leaves_scipy_stats_unloaded():
    # Every CLI call pays forge's import; scipy.stats alone costs about a second.
    root = Path(__file__).parents[1]
    probe = (
        "import sys, forge, forge.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
