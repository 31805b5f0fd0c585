"""Check that two forge checkouts write the same run directories.

    python3 tools/digest_runs.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each checkout runs a fixed set of scripted scenarios in one fresh
interpreter that imports forge from ``<checkout>/src``. Both write their
inputs and run directories under the same fixed directory, emptied before
each checkout, so the paths a run records (the fixture's, in
``config.json``) read the same on both sides. The scenarios' inputs come
from this file's own checkout: the builders of ``tests/conftest.py`` and
the seed-1 inputs of ``perfbench/gen.py``. The scenarios:

- ``golden`` and ``golden-corpus``: the scripted golden run, without and
  with a small corpus;
- ``indexed-corpus``: ``golden-corpus`` after ``forge corpus index``, so
  the run reads the corpus from its index;
- ``relevance-floor``: ``golden-corpus`` at the default relevance floor,
  which the first layer's best score misses, so the walk stops there;
- ``corpus-terms``: the golden run with a corpus whose documents hold the
  task's terms in upper case, hyphenated, as possessives and inside longer
  words, so the query's term order rests on exact token counts;
- ``thresholds``: the golden run judged by thresholds it partly fails, so
  the per-metric ``verdict`` in ``metrics.json`` is pinned;
- ``retries``: one analysis, one score and one artifact reply rejected,
  each accepted on its corrective re-prompt;
- ``empty-reply``: the golden run with an empty reply before the first
  analysis reply and before the first score, each re-prompted;
- ``patched``: revision 0 crashes and the patch succeeds;
- ``exhausted``: every revision crashes and the loop rolls back;
- ``rollback-furthest``: revision 0 exits 0 with predictions the validator
  rejects, revision 1 crashes, and the loop rolls back to revision 0;
- ``timeout``: revision 0 prints a line and sleeps past a 1 s wall limit,
  and the patch succeeds;
- ``chatty``: revision 0 prints more than the 65,536 bytes the sandbox
  keeps, with a two-byte character across the cap, then crashes, and the
  patch succeeds;
- ``invalid-output``: revision 0 exits 0 but its predictions miss the
  bundle's last row, so the validator records a ``data-access-failure``,
  and the patch succeeds;
- ``schema-failure``: the first analysis agent fails its retry too;
- ``schema-failure-corpus``: ``schema-failure`` with ``golden-corpus``'s
  corpus, so the failed run still records its retrieval walk;
- ``design-failure``: the fixture ends after 12 of the 24 design replies;
- ``negative-values``: the golden run on a bundle whose every value is
  negative, which the default DE ranking cannot score;
- ``pipeline-20k`` and ``deliberation``: the benchmark workloads, seed 1;
- ``stage-commands``: ``forge analyze``, ``design``, ``execute`` and
  ``evaluate`` in turn, each a ``python -m forge.cli`` child with its own
  fixture, each reading the one before's output.

For every scenario it prints the outcome (``ok`` or the error's class;
for ``stage-commands`` the four exit codes and a digest of their joined
stdout) and the ``perfbench/checks.tree_digest`` of the run directory on
each side (for ``stage-commands``, of the four output directories), and
exits 1 when any pair differs. Under a scenario that differs it lists the
files, by path relative to the run directory, that only one side wrote or
whose sha256 differs, and the empty directories only one side left: first
one count per change mark and top-level file or directory
(``removed  entities/  301``), then the first 20 paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.join(tempfile.gettempdir(), "forge-digest-runs")
SEED = 1


def _reply(code: str) -> str:
    """An artifact reply whose one file, ``main.py``, holds ``code``."""
    return f"FILE: main.py\n```\n{code}\n```\nENTRYPOINT: python main.py\n"


CRASH_CODE = "raise IndexError('index 28 is out of bounds for axis 0 with size 10')"
CRASH_REPLY = _reply(CRASH_CODE)
SLEEPY_REPLY = _reply("import time\nprint('started', flush=True)\ntime.sleep(30)")
# 65,535 bytes of x, then a two-byte character across the 65,536-byte cap.
CHATTY_REPLY = _reply("print('x' * 65535 + '\\u00e9' + 'y' * 1000, flush=True)\n" + CRASH_CODE)
# The identity predictions without the bundle's last row.
SHORT_REPLY = _reply("""\
rows = [line for line in open("matrix.tsv") if line.strip()]
open("predictions.tsv", "w").writelines(rows[:-1])
cells = [line.split("\\t")[0] for line in open("obs.tsv")][1:-1]
open("predictions_rows.tsv", "w").write("\\n".join(cells) + "\\n")
open("predictions_cols.tsv", "w").writelines(list(open("var.tsv"))[1:])""")
TASK_TEXT = "Predict KO_A expression from control expression profiles.\n"
CORPUS = {
    "doc-a": "Predict knockout expression from control profiles with a mean shift.",
    "doc-b": "Control expression profiles of knockout cells in perturbation screens.",
    "doc-c": "Baselines for expression prediction carry the control mean forward.",
}
# Each task term counts only where it is a whole token: "ko-a", "control's",
# "non-control", "uncontrolled" and "expressions" hold a term but do not
# count for it.
CORPUS_TERMS = {
    "doc-a": "PREDICT knockout Expression from CONTROL profiles.",
    "doc-b": "The ko-a screen's uncontrolled expressions: control's profiles-matched cells.",
    "doc-c": "Ko cells PREDICT KO_A's shift; predict-ahead predictions.",
    "doc-d": "Single-cell perturbation expression-profile baselines of non-control cells.",
}


def _scripted(name: str, completions, corpus=None, r_max: int = 2, thresholds=None,
              wall_seconds: float = 30.0, matrix=None, admit_all: bool = True):
    """Inputs of one conftest-built scenario: (task, bundle, config, corpus).
    With a corpus, ``admit_all`` lowers the relevance floor under every score."""
    from conftest import write_bundle, write_config, write_corpus

    base = Path(ROOT, "inputs", name)
    base.mkdir(parents=True)
    (base / "task.txt").write_text(TASK_TEXT, encoding="utf-8")
    fixture = base / "fixture.json"
    fixture.write_text(json.dumps({"completions": list(completions)}), encoding="utf-8")
    config = write_config(
        base / "config.json",
        provider={"type": "scripted", "fixture": str(fixture)},
        discussion={"n_experts": 2},
        execution={"r_max": r_max, "wall_seconds": wall_seconds},
        evaluation={"thresholds": thresholds or {}},
        # hash-derived embeddings score near 0: a floor under -1 admits them
        retrieval={"relevance_eps": -1.0} if corpus and admit_all else {},
    )
    return (str(base / "task.txt"), str(write_bundle(base / "bundle", matrix)), str(config),
            str(write_corpus(base / "corpus", corpus)) if corpus else None)


def _indexed(inputs):
    """``inputs`` after ``forge corpus index`` of their corpus, by the forge under test."""
    from forge.cli import main

    _, _, config, corpus = inputs
    main(["corpus", "index", corpus, "--config", config], standalone_mode=False)
    return inputs


def scenarios():
    """(name, inputs) for every scenario, building the inputs as it goes."""
    from conftest import ANALYSIS_REPLIES, BUNDLE_MATRIX, IDENTITY_ARTIFACT_REPLY, discussion_replies

    analysis = list(ANALYSIS_REPLIES)
    design = discussion_replies(2, 4)
    golden = analysis + design + [IDENTITY_ARTIFACT_REPLY]
    yield "golden", _scripted("golden", golden)
    yield "golden-corpus", _scripted("golden-corpus", golden, corpus=CORPUS)
    yield "indexed-corpus", _indexed(_scripted("indexed-corpus", golden, corpus=CORPUS))
    yield "relevance-floor", _scripted("relevance-floor", golden, corpus=CORPUS, admit_all=False)
    yield "corpus-terms", _scripted("corpus-terms", golden, corpus=CORPUS_TERMS)
    yield "thresholds", _scripted(
        "thresholds", golden, thresholds={"mse": 0.5, "pcc": 2.0, "mse_de": -1.0})
    retried = (["this is not json"] + analysis + design[:2] + ["no score here"]
               + design[2:] + ["no envelope at all", IDENTITY_ARTIFACT_REPLY])
    yield "retries", _scripted("retries", retried)
    emptied = [""] + analysis + design[:2] + [""] + design[2:] + [IDENTITY_ARTIFACT_REPLY]
    yield "empty-reply", _scripted("empty-reply", emptied)
    patched = analysis + design + [CRASH_REPLY, IDENTITY_ARTIFACT_REPLY]
    yield "patched", _scripted("patched", patched)
    yield "exhausted", _scripted("exhausted", analysis + design + [CRASH_REPLY] * 2, r_max=1)
    yield "rollback-furthest", _scripted(
        "rollback-furthest", analysis + design + [SHORT_REPLY, CRASH_REPLY], r_max=1)
    yield "timeout", _scripted(
        "timeout", analysis + design + [SLEEPY_REPLY, IDENTITY_ARTIFACT_REPLY], wall_seconds=1.0)
    yield "chatty", _scripted("chatty", analysis + design + [CHATTY_REPLY, IDENTITY_ARTIFACT_REPLY])
    yield "invalid-output", _scripted(
        "invalid-output", analysis + design + [SHORT_REPLY, IDENTITY_ARTIFACT_REPLY])
    yield "schema-failure", _scripted("schema-failure", ["nope", "still nope"])
    yield "schema-failure-corpus", _scripted(
        "schema-failure-corpus", ["nope", "still nope"], corpus=CORPUS)
    yield "design-failure", _scripted("design-failure", analysis + design[:12])
    yield "negative-values", _scripted("negative-values", golden, matrix=BUNDLE_MATRIX - 10.0)

    import gen
    from workloads import WORKLOADS

    for name in ("pipeline-20k", "deliberation"):
        inputs = gen.build(WORKLOADS[name], SEED, os.path.join(ROOT, "inputs", name))
        yield name, (inputs["task"], inputs["bundle"], inputs["config"], inputs["corpus"])


def stage_commands(src: str, runs: Path) -> str:
    """Run the four stage commands against ``src`` into ``runs/<stage>``.

    Each command gets its fixture as ``test_stage_commands_match_full_run``
    builds them; evaluate needs none. Returns the outcome: the exit codes
    and the sha256 of the commands' stdout, joined in order.
    """
    from conftest import (
        ANALYSIS_REPLIES, IDENTITY_ARTIFACT_REPLY, discussion_replies, write_bundle, write_config,
    )

    base = Path(ROOT, "inputs", "stage-commands")
    base.mkdir(parents=True)
    (base / "task.txt").write_text(TASK_TEXT, encoding="utf-8")
    bundle = str(write_bundle(base / "bundle"))
    commands = {
        "analyze": (ANALYSIS_REPLIES, ["--task", base / "task.txt", "--bundle", bundle]),
        "design": (discussion_replies(2, 4), ["--report", runs / "analyze" / "report.json"]),
        "execute": ([IDENTITY_ARTIFACT_REPLY],
                    ["--plan", runs / "design" / "plan.json", "--bundle", bundle]),
        "evaluate": (None, ["--predictions", runs / "execute" / "predictions", "--bundle", bundle]),
    }
    codes, stdout = [], hashlib.sha256()
    for stage, (replies, args) in commands.items():
        provider = {"type": "scripted"}
        if replies is not None:
            provider["fixture"] = str(base / f"fixture-{stage}.json")
            Path(provider["fixture"]).write_text(
                json.dumps({"completions": list(replies)}), encoding="utf-8")
        config = write_config(base / f"config-{stage}.json", provider=provider,
                              discussion={"n_experts": 2},
                              execution={"r_max": 2, "wall_seconds": 30.0})
        done = subprocess.run(
            [sys.executable, "-m", "forge.cli", stage, *map(str, args),
             "--out", str(runs / stage), "--config", str(config)],
            capture_output=True, text=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": src},
        )
        codes.append(str(done.returncode))
        stdout.update(done.stdout.encode("utf-8"))
    return f"exits {','.join(codes)} stdout {stdout.hexdigest()[:16]}"


def worker(checkout: str) -> None:
    """Run every scenario against ``checkout``'s forge; print the digests as JSON."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path[:0] = [src, os.path.join(REPO, "tests"), os.path.join(REPO, "perfbench")]
    import forge.pipeline
    from checks import tree_digest
    from forge.errors import ForgeError

    if not os.path.abspath(forge.__file__).startswith(src + os.sep):
        sys.exit(f"forge imported from {forge.__file__}, not {src}")

    def record(outcome: str, run_dir: str) -> dict:
        hashes = {}
        for base, dirs, files in os.walk(run_dir):
            if base != run_dir and not (dirs or files):  # tree_digest sees no empty directory
                hashes[os.path.relpath(base, run_dir) + "/"] = "empty directory"
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    hashes[os.path.relpath(path, run_dir)] = hashlib.file_digest(
                        fh, "sha256").hexdigest()
        return {"outcome": outcome, "digest": tree_digest(run_dir)[:16],
                "files": len(hashes), "sha256": hashes}

    out = {}
    for name, (task, bundle, config, corpus) in scenarios():
        run_dir = os.path.join(ROOT, "runs", name)
        try:
            forge.pipeline.run_pipeline(
                task, bundle, forge.pipeline.load_config(config), run_dir, corpus_path=corpus)
            outcome = "ok"
        except ForgeError as exc:
            outcome = type(exc).__name__
        out[name] = record(outcome, run_dir)
    run_dir = os.path.join(ROOT, "runs", "stage-commands")
    out["stage-commands"] = record(stage_commands(src, Path(run_dir)), run_dir)
    print(json.dumps(out))


def digests(checkout: str) -> dict:
    shutil.rmtree(ROOT, ignore_errors=True)
    os.makedirs(ROOT)
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker", checkout],
            capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(ROOT, ignore_errors=True)
    if done.returncode != 0:
        sys.exit(f"scenarios failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.parent and args.change):
        parser.error("give a parent and a change checkout")
    sides = {side: digests(getattr(args, side)) for side in ("parent", "change")}
    mismatches = 0
    for name, parent in sides["parent"].items():
        change = sides["change"].get(name, {})
        same = parent == change
        mismatches += not same
        old, new = parent.pop("sha256"), change.pop("sha256", {})
        print(f"{name:17s} {'same' if same else 'DIFFERENT':9s} parent {parent}  change {change}")
        marks = changed_files(old, new)
        for line in change_counts(marks) + marks[:20]:
            print(f"    {line}")
    return 1 if mismatches else 0


def changed_files(parent: dict, change: dict) -> list:
    """The paths of ``parent`` and ``change`` (path -> sha256) that only one
    side holds or whose hashes differ, each marked added, removed or changed."""
    marks = []
    for path in sorted(parent.keys() | change.keys()):
        if path not in parent:
            marks.append(f"added    {path}")
        elif path not in change:
            marks.append(f"removed  {path}")
        elif parent[path] != change[path]:
            marks.append(f"changed  {path}")
    return marks


def change_counts(marks: list) -> list:
    """One ``<mark> <top-level path>  <count>`` line per change mark and
    top-level file or directory of ``marks``, as :func:`changed_files` gives
    them, in their order."""
    counts = Counter()
    for line in marks:
        top, sep, _ = line[9:].partition("/")
        counts[f"{line[:9]}{top}{sep}"] += 1
    return [f"{key}  {count}" for key, count in counts.items()]


if __name__ == "__main__":
    sys.exit(main())
