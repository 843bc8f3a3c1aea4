import hashlib
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from mixedhg import MixedHypergraph, TargetSet, construct_one, construct_two
from mixedhg.documents import VERTEX_CAP, dumps, from_document, load, load_hashed, loads, save, to_document

from _oracles import per_row_dumps


SAMPLES = [
    MixedHypergraph(1, [], []),
    MixedHypergraph(2, [], [(0, 1)]),
    MixedHypergraph(5, [(0, 1, 2), (2, 3, 4)], [(0, 4)], labels=[(i, 0) for i in range(5)]),
    construct_one(TargetSet((4, 2))),
    construct_two(TargetSet((4, 3))),
    construct_one(TargetSet((5, 3, 2))),
    construct_two(TargetSet((6, 5, 3, 2))),
    construct_one(TargetSet((8, 4, 3, 2))),
]


@pytest.mark.parametrize("h", SAMPLES)
def test_round_trip_preserves_value(h):
    assert loads(dumps(h)) == h


@pytest.mark.parametrize("h", SAMPLES)
def test_serialization_is_byte_stable(h):
    text = dumps(h)
    assert dumps(loads(text)) == text
    assert text.endswith("\n")


@st.composite
def labeled_hypergraphs(draw):
    """Hypergraphs with labels of up to three ints each, negative ints and the
    empty tuple among them."""
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([])
    label = st.lists(st.integers(-300, 300), max_size=3).map(tuple)
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n, unique=True))
    return MixedHypergraph(n, draw(edges), draw(edges), labels)


@given(labeled_hypergraphs())
def test_rendering_matches_the_per_row_renderer(h):
    assert dumps(h) == per_row_dumps(h)


@pytest.mark.parametrize("h", SAMPLES + [MixedHypergraph(3, [(0, 1, 2)], [], labels=[(), (-1,), (-2, 0, 7)])])
def test_samples_render_as_the_per_row_renderer(h):
    assert dumps(h) == per_row_dumps(h)


def test_document_is_plain_json_with_sorted_edges():
    h = construct_one(TargetSet((4, 2)))
    doc = json.loads(dumps(h))
    assert doc["format_version"] == 1
    assert doc["vertex_count"] == 6
    assert doc["c_edges"] == sorted(doc["c_edges"])
    assert doc["d_edges"] == sorted(doc["d_edges"])
    assert all(e == sorted(e) for e in doc["c_edges"] + doc["d_edges"])
    assert doc["labels"][0] == [1, 1]


def test_labels_are_optional():
    doc = to_document(MixedHypergraph(2, [], [(0, 1)]))
    assert "labels" not in doc


def test_file_round_trip(tmp_path):
    h = construct_one(TargetSet((4, 2)))
    path = tmp_path / "h.json"
    save(h, path)
    assert load(path) == h


def test_load_hashed_reads_like_load(tmp_path):
    path = tmp_path / "crlf.json"
    path.write_bytes(dumps(construct_one(TargetSet((4, 2)))).replace("\n", "\r\n").encode())
    assert load_hashed(path) == (load(path), hashlib.sha256(path.read_bytes()).hexdigest())
    # a parse error points at the same place as load's
    path.write_bytes(b'{\r\n "a":\r\n  x}\r\n')
    with pytest.raises(ValueError) as by_load:
        load(path)
    with pytest.raises(ValueError) as by_load_hashed:
        load_hashed(path)
    assert str(by_load_hashed.value) == str(by_load.value)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("vertex_count"), "missing"),
        (lambda d: d.update(format_version=99), "format_version"),
        (lambda d: d.update(format_version=True), "unsupported format_version True"),
        (lambda d: d.update(format_version=1.0), "unsupported format_version 1.0"),
        (lambda d: d.update(vertex_count="six"), "integer"),
        (lambda d: d.update(vertex_count=True), "positive integer"),
        (lambda d: d.update(vertex_count=2.0), "positive integer"),
        (lambda d: d.update(vertex_count=None), "positive integer"),
        # explicit ids keep these two test ids stable; the expected message is core's
        pytest.param(lambda d: d.update(c_edges=[[0, "x"]]), "out of range", id="<lambda>-integer lists0"),
        pytest.param(lambda d: d.update(d_edges="nope"), "out of range", id="<lambda>-integer lists1"),
        (lambda d: d.update(c_edges=[[0, 1.0]]), "vertex 1.0 out of range"),
        (lambda d: d.update(d_edges={"a": 1}), "vertex 'a' out of range"),
        (lambda d: d.update(c_edges=None), "C-edges must be a list"),
        (lambda d: d.update(c_edges=5), "C-edges must be a list"),
        (lambda d: d.update(d_edges=[5]), "D-edges must be a list"),
        (lambda d: d.update(d_edges=[None]), "D-edges must be a list"),
        (lambda d: d.update(labels=[[1]]), "labels"),
        (lambda d: d.update(labels=5), "labels must be a list"),
        (lambda d: d.update(labels=[5]), "labels must be a list"),
        (lambda d: d.update(labels=[[True], [2]]), "tuple of integers"),
        (lambda d: d.update(d_edges=[[0, 9]]), "out of range"),
        (lambda d: d.update(c_edges=[[1]]), "at least two"),
    ],
)
def test_malformed_documents_rejected(mutate, message):
    doc = to_document(MixedHypergraph(2, [], [(0, 1)]))
    mutate(doc)
    with pytest.raises(ValueError, match=message):
        from_document(doc)


def test_not_json_rejected():
    with pytest.raises(ValueError, match="JSON"):
        loads("{oops")
    with pytest.raises(ValueError, match="object"):
        loads("[1, 2]")
    with pytest.raises(ValueError, match="not valid JSON"):  # deeper than the recursion limit
        loads("[" * 100_000)


def test_vertex_cap():
    assert VERTEX_CAP == 512
    assert from_document({"format_version": 1, "vertex_count": 512, "c_edges": [], "d_edges": []}).n == 512
    with pytest.raises(ValueError, match="vertex_count exceeds the document cap of 512"):
        from_document({"format_version": 1, "vertex_count": 513, "c_edges": [], "d_edges": []})
    # the package never writes a document it cannot read
    assert to_document(MixedHypergraph(512, [], []))["vertex_count"] == 512
    with pytest.raises(ValueError, match="513 vertices exceed the document cap of 512"):
        to_document(MixedHypergraph(513, [], []))
