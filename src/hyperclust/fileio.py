"""The file layer: every file the program reads or writes goes through here.

``read_text`` reads UTF-8 and drops a leading byte-order mark; ``write_text``
and ``write_csv`` create missing parent directories and write UTF-8, the
latter through ``csv.writer``. On top of them sit the interaction and
community file formats.

Interaction files are UTF-8 text with one interaction per line given as
whitespace-separated positive integer node ids. Lines starting with ``#`` are
comments, except for an optional ``#n=<N>`` header fixing the node count;
without a header the node count is the largest id seen. Community files hold
one integer class label per node per line.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import InteractionHypergraph

__all__ = [
    "FileFormatError",
    "read_text",
    "write_text",
    "write_csv",
    "read_interactions",
    "write_interactions",
    "read_communities",
    "write_communities",
]

_HEADER_RE = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")
_MAX_ID = np.iinfo(np.int64).max  # node ids are stored as int64


class FileFormatError(ValueError):
    """Raised on malformed input files; carries the path and line number."""

    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{self.path}:{line_no}" if line_no is not None else self.path
        super().__init__(f"{where}: {message}")


def read_text(path) -> str:
    """The UTF-8 text of a file, without a leading byte-order mark."""
    return Path(path).read_text(encoding="utf-8-sig")


def _with_parent(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, creating missing parent directories."""
    _with_parent(path).write_text(text, encoding="utf-8")


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header row and then ``rows`` as UTF-8 CSV, creating missing
    parent directories."""
    with _with_parent(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_interactions(path) -> InteractionHypergraph:
    """Parse an interaction file into a hypergraph."""
    path = Path(path)
    text = read_text(path)
    declared_n: int | None = None
    interactions: list[list[int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        header = _HEADER_RE.match(stripped)
        if header:
            value = int(header.group(1))
            if value > _MAX_ID:
                raise FileFormatError(path, line_no, f"node count {value} exceeds the int64 limit {_MAX_ID}")
            if declared_n is not None and value != declared_n:
                raise FileFormatError(path, line_no, f"conflicting #n= headers ({declared_n} vs {value})")
            declared_n = value
            continue
        if stripped.startswith("#"):
            continue
        verts = []
        for token in stripped.split():
            try:
                v = int(token)
            except ValueError:
                raise FileFormatError(path, line_no, f"not an integer node id: {token!r}") from None
            if v < 1:
                raise FileFormatError(path, line_no, f"node ids must be positive, got {v}")
            verts.append(v)
        if len(set(verts)) != len(verts):
            raise FileFormatError(path, line_no, f"repeated vertex in interaction: {sorted(verts)}")
        if max(verts) > _MAX_ID:
            raise FileFormatError(path, line_no, f"node id {max(verts)} exceeds the int64 limit {_MAX_ID}")
        interactions.append(verts)
    if not interactions:
        raise FileFormatError(path, None, "no interactions found")
    max_id = max(max(e) for e in interactions)
    n = declared_n if declared_n is not None else max_id
    if max_id > n:
        raise FileFormatError(path, None, f"node id {max_id} exceeds declared node count {n}")
    try:
        return InteractionHypergraph(n=n, interactions=interactions)
    except ValueError as exc:
        raise FileFormatError(path, None, str(exc)) from None


def write_interactions(h: InteractionHypergraph, path) -> None:
    """Write ``h`` with an explicit ``#n=`` header, one interaction per line."""
    lines = [f"#n={h.n}"]
    lines.extend(" ".join(map(str, e)) for e in h.interactions)
    write_text(path, "\n".join(lines) + "\n")


def read_communities(path) -> np.ndarray:
    """Read one class label per line; labels are canonicalized to 1..d.

    Arbitrary integer labels are accepted (0-based files are common); distinct
    values are mapped to 1..d in sorted order.
    """
    path = Path(path)
    raw: list[int] = []
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            raw.append(int(stripped))
        except ValueError:
            raise FileFormatError(path, line_no, f"not an integer label: {stripped!r}") from None
    if not raw:
        raise FileFormatError(path, None, "no labels found")
    values = np.asarray(raw)
    _, inverse = np.unique(values, return_inverse=True)
    return inverse + 1


def write_communities(z: Sequence[int], path) -> None:
    write_text(path, "\n".join(str(int(v)) for v in z) + "\n")
