"""Bundle loading, profiling, holdout splits, and the analysis agents."""

import json
from importlib import resources

import numpy as np
import pytest

from conftest import ANALYSIS_REPLIES, REPORT_SECTIONS, make_report, write_bundle
from forge.errors import (
    AssemblyError,
    DependencyError,
    LoadError,
    StageError,
    ValidationError,
)
from forge.protocol import canonical_json
from forge.providers import ScriptedChatProvider
from forge.task_analysis import (
    AnalysisReport,
    assemble_report,
    load_bundle,
    load_template,
    parse_json_reply,
    profile_dataset,
    run_analysis_stage,
    split_holdout,
)

ANALYST_CONTEXT = {
    "task": "predict KO_A response",
    "profile": {"n_cells": 4},
    "documents": [{"id": "doc-1", "text": "relevant prior work"}],
    "sections": {},
}


# ---------------------------------------------------------------------------
# bundle loading


def test_load_bundle_happy_path(bundle_dir):
    bundle = load_bundle(str(bundle_dir))
    assert bundle.matrix.shape == (4, 3)
    assert bundle.matrix.row_ids == ("c1", "c2", "c3", "c4")
    assert bundle.matrix.column_ids == ("g1", "g2", "g3")
    assert bundle.perturbations == ("control", "control", "KO_A", "KO_A")
    assert bundle.manifest["modality"] == "RNA"
    names = ["matrix.tsv", "obs.tsv", "var.tsv", "manifest.json"]
    assert bundle.files == {name: str(bundle_dir / name) for name in names}
    assert list(bundle.files) == names


def test_load_bundle_synthesizes_row_ids(tmp_path):
    directory = write_bundle(tmp_path / "bundle")
    (directory / "obs.tsv").write_text(
        "perturbation\ncontrol\ncontrol\nKO_A\nKO_A\n"
    )
    bundle = load_bundle(str(directory))
    assert bundle.matrix.row_ids == ("cell-0", "cell-1", "cell-2", "cell-3")


def test_load_bundle_missing_pieces(tmp_path):
    with pytest.raises(LoadError):
        load_bundle(str(tmp_path / "nowhere"))
    directory = write_bundle(tmp_path / "bundle")
    (directory / "manifest.json").unlink()
    with pytest.raises(LoadError):
        load_bundle(str(directory))
    write_bundle(directory)
    (directory / "obs.tsv").unlink()
    with pytest.raises(LoadError):
        load_bundle(str(directory))
    write_bundle(directory)
    (directory / "var.tsv").unlink()
    with pytest.raises(LoadError):
        load_bundle(str(directory))


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: (d / "manifest.json").write_text('{"modality": "imaging", "organism": "human", "name": "x"}'), "modality"),
        (lambda d: (d / "manifest.json").write_text('{"modality": "RNA", "organism": "", "name": "x"}'), "organism"),
        (lambda d: (d / "obs.tsv").write_text("cell_id\tlabel\nc1\tx\nc2\tx\nc3\tx\nc4\tx\n"), "perturbation"),
        (lambda d: (d / "var.tsv").write_text("gene\ng1\ng2\ng3\n"), "feature_id"),
        (lambda d: (d / "obs.tsv").write_text("cell_id\tperturbation\nc1\tcontrol\n"), "1 rows"),
        (lambda d: (d / "var.tsv").write_text("feature_id\ng1\ng2\n"), "2 rows"),
        (lambda d: (d / "obs.tsv").write_text("cell_id\tperturbation\nc1\tcontrol\nc2\t\nc3\tKO_A\nc4\tKO_A\n"), "empty perturbation"),
        (lambda d: (d / "obs.tsv").write_text("cell_id\tperturbation\nc1\tcontrol\nc1\tcontrol\nc3\tKO_A\nc4\tKO_A\n"), "duplicate cell ids"),
        (lambda d: (d / "var.tsv").write_text("feature_id\ng1\ng1\ng3\n"), "duplicate feature ids"),
    ],
)
def test_load_bundle_validation_errors(tmp_path, mangle, message):
    directory = write_bundle(tmp_path / "bundle")
    mangle(directory)
    with pytest.raises(ValidationError, match=message):
        load_bundle(str(directory))


# ---------------------------------------------------------------------------
# profile and holdout split


def test_profile_counts_exactly(tmp_path):
    matrix = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [4.0, 5.0, 6.0]])
    directory = write_bundle(tmp_path / "bundle", matrix=matrix)
    profile = profile_dataset(load_bundle(str(directory)))
    assert profile.n_cells == 4 and profile.n_features == 3
    assert profile.sparsity == pytest.approx(6 / 12)
    assert profile.perturbation_inventory == {"control": 2, "KO_A": 2}
    assert profile.control_count == 2
    assert (profile.modality, profile.organism) == ("RNA", "human")
    text = canonical_json(profile.to_json())
    assert '"perturbation_inventory":{"KO_A":2,"control":2}' in text  # written sorted


def test_split_holdout_duplicates_controls(bundle_dir):
    bundle = load_bundle(str(bundle_dir))
    split = split_holdout(bundle, ["KO_A"])
    assert split.train_indices == (0, 1)
    assert split.test_indices == (0, 1, 2, 3)
    assert split.held_out_perturbations == ("KO_A",)
    # control rows appear on both sides; held-out rows only in test
    controls = {i for i, lab in enumerate(bundle.perturbations) if lab == "control"}
    assert controls <= set(split.train_indices)
    assert controls <= set(split.test_indices)
    held_rows = {i for i, lab in enumerate(bundle.perturbations) if lab == "KO_A"}
    assert held_rows.isdisjoint(split.train_indices)
    assert held_rows <= set(split.test_indices)


def test_split_holdout_errors(bundle_dir):
    bundle = load_bundle(str(bundle_dir))
    with pytest.raises(ValidationError):
        split_holdout(bundle, [])
    with pytest.raises(ValidationError):
        split_holdout(bundle, ["control"])
    with pytest.raises(ValidationError):
        split_holdout(bundle, ["KO_B"])


# ---------------------------------------------------------------------------
# reply parsing


def test_parse_json_reply_forms():
    assert parse_json_reply('{"a": 1}') == {"a": 1}
    assert parse_json_reply('```json\n{"a": 1}\n```') == {"a": 1}
    assert parse_json_reply('prose first\n```\n{"a": [1, 2]}\n```\ntrailing') == {
        "a": [1, 2]
    }
    with pytest.raises(json.JSONDecodeError):
        parse_json_reply("not json")


# ---------------------------------------------------------------------------
# the analysis agents


def test_stage_parses_valid_reply():
    provider = ScriptedChatProvider([ANALYSIS_REPLIES[0]])
    result = run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)
    assert result.calls == 1
    assert result.value["introduction"].startswith("A four-cell pilot")
    # the prompt embeds the task text and the retrieved document
    prompt = provider.calls[0][0].text
    assert "predict KO_A response" in prompt
    assert "relevant prior work" in prompt


def test_stage_retries_once_then_succeeds():
    provider = ScriptedChatProvider(["this is not json", ANALYSIS_REPLIES[0]])
    result = run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)
    assert result.calls == 2
    assert result.value["quality_assessment"]
    # the retry keeps the conversation: user, assistant, corrective user
    retry_turns = provider.calls[1]
    assert [t.role for t in retry_turns] == ["user", "assistant", "user"]
    assert "invalid JSON" in retry_turns[2].text


def test_deeply_nested_reply_is_invalid_json():
    nested = "[" * 100000
    with pytest.raises(json.JSONDecodeError):
        parse_json_reply(nested)
    provider = ScriptedChatProvider([nested, ANALYSIS_REPLIES[0]])
    result = run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)
    assert result.calls == 2
    assert "invalid JSON (nesting too deep)" in provider.calls[1][2].text
    provider = ScriptedChatProvider([nested, nested])
    with pytest.raises(StageError, match="nesting too deep") as excinfo:
        run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)
    assert excinfo.value.raw_reply == nested
    # a non-finite number is bad JSON too, and gets the same one retry
    for number in ("NaN", "Infinity", "1e999"):
        doc = {**json.loads(ANALYSIS_REPLIES[0]), "introduction": 1.5}
        reply = json.dumps(doc).replace("1.5", number)
        with pytest.raises(json.JSONDecodeError):
            parse_json_reply(reply)
        provider = ScriptedChatProvider([reply, ANALYSIS_REPLIES[0]])
        result = run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)
        assert result.calls == 2
        assert f"invalid JSON (number {number} is out of range)" in provider.calls[1][2].text
        provider = ScriptedChatProvider([reply, reply])
        with pytest.raises(StageError, match=f"number {number} is out of range"):
            run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)


def test_stage_retry_names_missing_keys():
    incomplete = json.dumps({"introduction": "only one key"})
    provider = ScriptedChatProvider([incomplete, ANALYSIS_REPLIES[0]])
    run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)
    assert "missing keys: data_properties" in provider.calls[1][2].text


def test_stage_fails_after_two_bad_replies():
    provider = ScriptedChatProvider(["nope", "still nope"])
    with pytest.raises(StageError) as excinfo:
        run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)
    assert excinfo.value.stage == "dataset-analyst"
    assert excinfo.value.raw_reply == "still nope"


def test_stage_rejects_empty_section_values():
    empty_value = json.dumps(
        {
            "introduction": "",
            "data_properties": "x",
            "quality_assessment": "x",
            "recommendations": "x",
        }
    )
    provider = ScriptedChatProvider([empty_value, ANALYSIS_REPLIES[0]])
    result = run_analysis_stage("dataset-analyst", dict(ANALYST_CONTEXT), provider)
    assert result.calls == 2
    assert "empty values for: introduction" in provider.calls[1][2].text


def test_refiner_requires_prior_sections():
    provider = ScriptedChatProvider([ANALYSIS_REPLIES[3]])
    with pytest.raises(DependencyError, match="dataset-analyst"):
        run_analysis_stage("refiner", dict(ANALYST_CONTEXT), provider)


def test_refiner_checks_task_definition_shape():
    bad_td = json.dumps(
        {
            "task_definition": {"input": "x"},
            "baseline_models": "m",
            "constraints": "c",
            "evaluation": "e",
        }
    )
    provider = ScriptedChatProvider([bad_td, bad_td])
    context = dict(ANALYST_CONTEXT)
    context["sections"] = {
        "dataset-analyst": {"introduction": "i"},
        "problem-investigator": {"problem_statement": "p"},
        "baseline-assessor": {"candidate_baselines": "b"},
    }
    with pytest.raises(StageError, match="task_definition missing"):
        run_analysis_stage("refiner", context, provider)


def test_unknown_role_rejected():
    with pytest.raises(ValidationError):
        run_analysis_stage("poet", dict(ANALYST_CONTEXT), ScriptedChatProvider([]))


def test_load_template_reads_each_file_once():
    first = load_template("proposal")
    assert load_template("proposal") is first
    packaged = resources.files("forge.data.prompts").joinpath("proposal.txt")
    assert first.template == packaged.read_text("utf-8")


# ---------------------------------------------------------------------------
# report assembly


def test_assemble_report_round_trip():
    report = make_report()
    assert list(report.sections) == [
        "introduction",
        "data_properties",
        "quality_assessment",
        "recommendations",
        "task_definition",
        "baseline_models",
        "constraints",
        "evaluation",
    ]
    doc = report.to_json()
    rebuilt = AnalysisReport.from_json(doc)
    assert rebuilt.sections == report.sections
    assert canonical_json(rebuilt.to_json()) == canonical_json(doc)


def test_assemble_report_names_missing_sections():
    sections = dict(REPORT_SECTIONS)
    del sections["constraints"]
    sections["evaluation"] = ""
    with pytest.raises(AssemblyError, match="constraints, evaluation"):
        assemble_report(sections)


def test_assemble_report_checks_task_definition():
    sections = dict(REPORT_SECTIONS)
    sections["task_definition"] = {"input": "x", "output": "y"}
    with pytest.raises(AssemblyError, match="task_type"):
        assemble_report(sections)
    sections["task_definition"] = "free text"
    with pytest.raises(AssemblyError):
        assemble_report(sections)


def test_summary_text_is_ordered_and_deterministic():
    report = make_report()
    lines = report.summary_text().splitlines()
    assert lines[0].startswith("introduction: ")
    assert lines[4].startswith("task_definition: ")
    # objects render as canonical JSON
    assert canonical_json(report.sections["task_definition"]) in lines[4]
    assert report.summary_text() == make_report().summary_text()
