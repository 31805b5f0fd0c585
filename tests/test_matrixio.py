"""File and wire readers: bad bytes end in LoadError or ProtocolError, and
.mtx matrices stay sparse in memory."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import LAUNCHER, write_predictions
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import io as spio
from scipy import sparse

import forge
from forge.errors import LoadError, ProtocolError
from forge.matrixio import (
    read_id_list,
    read_json,
    read_matrix,
    read_predictions,
    read_table,
)
from forge.metrics import ExpressionMatrix
from forge.protocol import EVENT, NOTIFICATION, REQUEST, RESPONSE, decode_message
from forge.providers import ScriptedEmbedder, load_fixture
from forge.retrieval import load_corpus

LATIN1 = "cell_id\tcondition\ncafé\tKO_å\n".encode("latin-1")


def _load_corpus_of(path):
    return load_corpus(os.path.dirname(path), ScriptedEmbedder(dim=4))


@pytest.mark.parametrize(
    "name, reader",
    [
        ("obs.tsv", read_table),
        ("ids.tsv", read_id_list),
        ("manifest.json", read_json),
        ("fixture.json", load_fixture),
        ("d1.txt", _load_corpus_of),
        ("citations.tsv", _load_corpus_of),
        ("embeddings.npz", _load_corpus_of),
    ],
)
def test_non_utf8_file_is_a_load_error(tmp_path, name, reader):
    (tmp_path / "d1.txt").write_text("a document\n")
    path = tmp_path / name
    path.write_bytes(LATIN1)
    with pytest.raises(LoadError, match="cannot read"):
        reader(str(path))


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b'{"jsonrpc":"2.0","method":"caf\xe9"}', id="latin-1"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
    ],
)
def test_undecodable_envelope_is_a_protocol_error(raw):
    with pytest.raises(ProtocolError, match="malformed envelope"):
        decode_message(raw)


def test_deeply_nested_json_is_a_load_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000)
    with pytest.raises(LoadError, match="not valid JSON"):
        read_json(str(path))


_cells = st.text(alphabet="abé \r", max_size=3)
_tables = st.one_of(
    st.binary(max_size=48),
    st.lists(st.lists(_cells, max_size=3).map("\t".join), max_size=5).map(
        lambda rows: "\n".join(rows).encode("utf-8")
    ),
)


@settings(max_examples=200, deadline=None)
@given(raw=_tables)
def test_read_table_fuzz(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz-table.tsv"
    path.write_bytes(raw)
    try:
        header, rows = read_table(str(path))
    except LoadError:
        return
    assert header and len(set(header)) == len(header)
    assert all(list(row) == header for row in rows)


@pytest.mark.parametrize(
    "text, repeated",
    [
        ("cell_id\tcell_id\n1\t2\n", "'cell_id'"),
        ("a\tb\ta\tb\n", "'a', 'b'"),
        ("perturbation\tcell_id\tperturbation\n", "'perturbation'"),
    ],
)
def test_read_table_rejects_repeated_column_names(tmp_path, text, repeated):
    path = tmp_path / "obs.tsv"
    path.write_text(text)
    with pytest.raises(LoadError, match=f"repeated column name {repeated}$"):
        read_table(str(path))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_envelope_docs = st.fixed_dictionaries(
    {},
    optional={
        key: st.sampled_from(["2.0", "event", "m", 1]) | _json_values
        for key in ("jsonrpc", "kind", "id", "method", "params", "result",
                    "sender", "receiver", "ts")
    },
)
_wire = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=32),
    _envelope_docs.map(lambda doc: json.dumps(doc).encode("utf-8")),
    _json_values.map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(_wire)
def test_decode_message_fuzz(raw):
    try:
        env = decode_message(raw)
    except ProtocolError:
        return
    assert env.kind in (REQUEST, RESPONSE, NOTIFICATION, EVENT)
    assert env.method is None or isinstance(env.method, str)
    assert env.timestamp is None or type(env.timestamp) is int


def test_csr_predictions_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    dense = rng.gamma(2.0, 1.5, size=(30, 12)) * (rng.random((30, 12)) < 0.3)
    written = ExpressionMatrix(
        sparse.csr_array(dense),
        row_ids=tuple(f"c{i}" for i in range(30)),
        column_ids=tuple(f"g{j}" for j in range(12)),
    )
    write_predictions(tmp_path, written)
    read = read_predictions(str(tmp_path / "predictions.mtx"))
    assert sparse.issparse(read.values) and read.values.has_canonical_format
    assert np.array_equal(read.values.toarray(), dense)
    assert (read.row_ids, read.column_ids) == (written.row_ids, written.column_ids)


def _mtx_text(field, symmetry, shape, entries):
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}",
             f"{shape[0]} {shape[1]} {len(entries)}"]
    for i, j, v in entries:
        lines.append(f"{i + 1} {j + 1}" + ("" if field == "pattern" else f" {v}"))
    return "\n".join(lines) + "\n"


def _random_entries(rng, shape, nnz, repeats=0):
    flat = np.sort(rng.choice(shape[0] * shape[1], size=nnz, replace=False))
    flat = np.sort(np.concatenate([flat, rng.choice(flat, size=repeats)]))
    values = rng.choice([0.1, 0.2, 0.3, 1e16, -1.0, 2.5], size=flat.size)
    return [(int(f) // shape[1], int(f) % shape[1], float(v)) for f, v in zip(flat, values)]


def _mtx_cases():
    rng = np.random.default_rng(53)
    shape = (40, 25)
    ordered = _random_entries(rng, shape, 300)
    shuffled = [ordered[k] for k in rng.permutation(len(ordered))]
    # Repeats in row order, but in any order within a row: their sums
    # depend on the order they are added in.
    repeated = _random_entries(rng, shape, 200, repeats=150)
    repeated = sorted(repeated, key=lambda e: (e[0], rng.random()))
    lower = [(i, j, v) for i, j, v in _random_entries(rng, (25, 25), 120) if i >= j]
    integer = [(i, j, int(v * 10) % 7 - 3) for i, j, v in ordered]
    trailing = [(i, j, v) for i, j, v in ordered if i < 30]
    return {
        "row-sorted": _mtx_text("real", "general", shape, ordered),
        "shuffled": _mtx_text("real", "general", shape, shuffled),
        "duplicates": _mtx_text("real", "general", shape, repeated),
        "symmetric": _mtx_text("real", "symmetric", (25, 25), lower),
        "integer": _mtx_text("integer", "general", shape, integer),
        "pattern": _mtx_text("pattern", "general", shape, ordered),
        "no-entries": _mtx_text("real", "general", shape, []),
        "trailing-empty-rows": _mtx_text("real", "general", shape, trailing),
    }


@pytest.mark.parametrize("text", [pytest.param(t, id=k) for k, t in _mtx_cases().items()])
def test_read_matrix_equals_scipy_csr(tmp_path, text):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    want = sparse.csr_array(spio.mmread(str(path)), dtype=np.float64)
    want.sum_duplicates()
    got = read_matrix(str(path))
    assert isinstance(got, sparse.csr_array) and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    # Judged afresh, not from a flag the reader may have set.
    fresh = sparse.csr_array((got.data, got.indices, got.indptr), shape=got.shape)
    assert fresh.has_canonical_format


@pytest.mark.parametrize("name", ["missing.tsv", "missing.mtx"])
def test_missing_matrix_names_its_path_once(tmp_path, name):
    path = str(tmp_path / name)
    with pytest.raises(LoadError) as excinfo:
        read_matrix(path)
    message = str(excinfo.value)
    assert message == f"cannot read {path}: No such file or directory"
    assert message.count(name) == 1


# Loads a bundle and builds its scoring view, reads and aligns predictions
# and scores them by the view, then prints how far its peak RSS rose over
# the peak it had after the imports. scipy's .mtx reader holds a text buffer
# per thread, several MiB each, so it reads with one thread: the bound is on
# what forge keeps, not on the host's core count.
_MEMORY_PROBE = """
import resource, sys
import scipy.io._fast_matrix_market
from forge.execution import EvaluationParams, scoring_view, validate_predictions
from forge.matrixio import align_predictions, read_predictions
from forge.task_analysis import load_bundle

scipy.io._fast_matrix_market.PARALLELISM = 1

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

before = peak()
view = scoring_view(load_bundle(sys.argv[1]), EvaluationParams())
predictions = align_predictions(read_predictions(sys.argv[2]), view.truth)
validate_predictions(predictions, view)
print(peak() - before)
"""


def test_mtx_bundle_stays_sparse_in_memory(tmp_path):
    n, d = 20000, 500
    rng = np.random.default_rng(47)
    nnz = n * d // 10
    # Rows in order, as perfbench/gen.py and mmwrite of a CSR write them.
    flat = np.sort(rng.choice(n * d, size=nnz, replace=False))
    values = sparse.coo_matrix((rng.gamma(2.0, 1.5, size=nnz), divmod(flat, d)), shape=(n, d))
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    spio.mmwrite(str(bundle / "matrix.mtx"), values)
    labels = ["control" if i % 10 == 0 else f"KO_{i % 7}" for i in range(n)]
    (bundle / "obs.tsv").write_text(
        "cell_id\tperturbation\n" + "".join(f"c{i}\t{lab}\n" for i, lab in enumerate(labels))
    )
    (bundle / "var.tsv").write_text("feature_id\n" + "".join(f"g{j}\n" for j in range(d)))
    (bundle / "manifest.json").write_text(
        json.dumps({"modality": "RNA", "organism": "human", "name": "sparse-guard"})
    )
    # The bundle's matrix with the columns listed in reverse, as the
    # benchmark's scripted model writes its predictions.
    predictions = tmp_path / "predictions"
    predictions.mkdir()
    spio.mmwrite(str(predictions / "predictions.mtx"), values)
    (predictions / "predictions_rows.tsv").write_text("".join(f"c{i}\n" for i in range(n)))
    (predictions / "predictions_cols.tsv").write_text(
        "".join(f"g{j}\n" for j in reversed(range(d)))
    )
    probe = tmp_path / "probe.py"
    probe.write_text(_MEMORY_PROBE)
    src = os.path.dirname(os.path.dirname(os.path.abspath(forge.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, str(probe), str(bundle),
         str(predictions)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # The bundle's CSR, the predictions' CSR and one read's coordinate
    # arrays come to half the dense size (12 + 12 + 16 of 80 MB); a further
    # copy of either CSR during the read, the alignment or the DE step
    # takes the peak past five eighths of it.
    dense_bytes = n * d * 8
    assert int(proc.stdout.split()[-1]) < dense_bytes * 5 // 8
