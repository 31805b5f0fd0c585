"""The names the benchmark's tracer wraps exist where it looks for them.

``perfbench/tracer.py`` patches forge from the outside, by module and
attribute name, and reads some arguments by position. A rename in forge
fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from forge import execution, matrixio, pipeline, protocol, providers

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _, _ in tracer.FUNCTION_TARGETS]
    + [("forge.pipeline", "_prediction_validator")],
)
def test_function_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_prediction_validator_takes_only_the_truth():
    # The tracer wraps the factory as ``traced_factory(truth)``.
    assert list(inspect.signature(pipeline._prediction_validator).parameters) == ["truth"]


@pytest.mark.parametrize(
    "owner, attr",
    [
        (pipeline.RecordingChatProvider, "complete"),
        (providers.ScriptedEmbedder, "embed"),
        (protocol.EventStream, "append"),
    ],
)
def test_method_target_is_defined_on_its_class(owner, attr):
    # The tracer swaps the entry in the class's own namespace.
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize(
    "fn, index, name",
    [
        (execution.run_sandbox, 0, "artifact"),
        (execution.run_sandbox, 2, "inputs"),
        (providers.ScriptedEmbedder.embed, 1, "texts"),
        (protocol.save_store, 1, "directory"),
        (matrixio.read_matrix, 0, "path"),
        (matrixio.write_json, 0, "path"),
    ],
)
def test_counted_argument_keeps_its_position(fn, index, name):
    assert list(inspect.signature(fn).parameters)[index] == name
