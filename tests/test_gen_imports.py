"""The benchmark's input generator still builds against forge's API.

``perfbench/gen.py`` writes every bundle, corpus and fixture the benchmark
feeds forge, using a handful of forge names. No other test imports it, so
a removed or renamed name would otherwise surface only in a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GEN_PATH = PERFBENCH / "gen.py"


def _forge_imports():
    """(module, name) for every ``from forge... import name`` in gen.py."""
    tree = ast.parse(GEN_PATH.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "forge"
        for alias in node.names
    ]


def test_gen_forge_names_resolve():
    names = _forge_imports()
    assert names, "gen.py no longer imports from forge"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_gen_loads_and_builds_a_document(monkeypatch):
    # gen.py imports its sibling modules by bare name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    doc = gen.Document(id="d0", text="perturbation response", embedding=np.eye(3)[0])
    assert doc.id == "d0" and doc.citations == ()
