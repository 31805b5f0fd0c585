"""File and wire readers: bad bytes end in LoadError or ProtocolError."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.errors import LoadError, ProtocolError
from forge.matrixio import read_id_list, read_json, read_table
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
        ("embeddings.tsv", _load_corpus_of),
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
