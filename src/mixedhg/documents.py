"""Canonical JSON document format for hypergraphs.

One format, one byte-exact serialization: keys sorted, one edge per line,
edges sorted ascending inside and lexicographically between edges, trailing
newline.  ``loads(dumps(h)) == h`` and ``dumps(loads(text)) == text`` for any
canonical document.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Union

from .core import MixedHypergraph, _quote

FORMAT_VERSION = 1
# above every hypergraph the package builds (``construct`` writes at most 257
# vertices) and far below counts whose spectra no longer print
VERTEX_CAP = 512


def to_document(h: MixedHypergraph) -> dict[str, Any]:
    if h.n > VERTEX_CAP:
        raise ValueError(f"{h.n} vertices exceed the document cap of {VERTEX_CAP}")
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "vertex_count": h.n,
        "c_edges": [list(e) for e in h.c_edges],
        "d_edges": [list(e) for e in h.d_edges],
    }
    if h.labels is not None:
        doc["labels"] = [list(lab) for lab in h.labels]
    return doc


def from_document(doc: Any) -> MixedHypergraph:
    """The hypergraph of a parsed document.  Only the file format and the
    vertex cap are checked here; ``MixedHypergraph`` checks the vertex count,
    edges and labels."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    for key in ("format_version", "vertex_count", "c_edges", "d_edges"):
        if key not in doc:
            raise ValueError(f"document is missing '{key}'")
    v = doc["format_version"]
    if type(v) is not int or v != FORMAT_VERSION:  # true and 1.0 equal 1 but are not version 1
        raise ValueError(f"unsupported format_version {_quote(v)}")
    if type(doc["vertex_count"]) is int and doc["vertex_count"] > VERTEX_CAP:
        raise ValueError(f"vertex_count exceeds the document cap of {VERTEX_CAP}")
    return MixedHypergraph(doc["vertex_count"], doc["c_edges"], doc["d_edges"], doc.get("labels"))


def _row_list(rows: list[list[int]]) -> str:
    """One row per line: the rows hold only ints, so every ``"], ["`` in their
    one-line JSON is a boundary between two rows."""
    if not rows:
        return "[]"
    return "[\n    " + json.dumps(rows)[1:-1].replace("], [", "],\n    [") + "\n  ]"


def dumps(h: MixedHypergraph) -> str:
    doc = to_document(h)
    fields = []
    for key in sorted(doc):
        value = doc[key]
        rendered = _row_list(value) if isinstance(value, list) else json.dumps(value)
        fields.append(f'  "{key}": {rendered}')
    return "{\n" + ",\n".join(fields) + "\n}\n"


def loads(text: str) -> MixedHypergraph:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting is the latter
        raise ValueError(f"not valid JSON: {exc}") from exc
    return from_document(doc)


def save(h: MixedHypergraph, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps(h), encoding="utf-8")


def load(path: Union[str, Path]) -> MixedHypergraph:
    return loads(Path(path).read_text(encoding="utf-8"))


def load_hashed(path: Union[str, Path]) -> tuple[MixedHypergraph, str]:
    """The hypergraph of a document and the SHA-256 of the very bytes it was
    parsed from, read once.  Newlines are translated as ``load`` reads them."""
    data = Path(path).read_bytes()
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return loads(text), hashlib.sha256(data).hexdigest()
