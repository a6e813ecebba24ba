"""Readers and writers for matrix and edge-set files.

Two formats per object: JSON ({"n": ..., "entries": [[...]]} for matrices,
{"n": ..., "pairs": [[i, j], ...]} for edge sets) and whitespace-separated
text.  Pair indices in files are 1-based; in memory they are 0-based.
Writers round-trip bit-exactly: Python's shortest-repr float formatting is
used for reals, which preserves all 17 significant digits that matter.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import EdgeSet, WeightMatrix


class ParseError(ValueError):
    """Input file could not be parsed as a matrix or edge set."""


def matrix_to_dict(A: WeightMatrix) -> dict:
    d: dict = {}
    if A.is_square:
        d["n"] = A.n_rows
    else:
        d["n_rows"] = A.n_rows
        d["n_cols"] = A.n_cols
    d["entries"] = [[float(x) for x in row] for row in A.entries]
    d["symmetric"] = bool(A.symmetric)
    return d


def edges_to_dict(E: EdgeSet) -> dict:
    return {"n": E.n, "pairs": E.to_one_based()}


def _header(d: dict, key: str, kind: type):
    """d[key] as read from JSON, which must be a `kind` (bool is not an int)."""
    value = d[key]
    if type(value) is not kind:
        raise ParseError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def matrix_from_dict(d: dict) -> WeightMatrix:
    try:
        entries = np.asarray(d["entries"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix entries: {exc}") from exc
    if "n" in d:
        n = _header(d, "n", int)
        if entries.shape != (n, n):
            raise ParseError(f"entries shape {entries.shape} does not match n={n}")
    elif "n_rows" in d and "n_cols" in d:
        if entries.shape != (_header(d, "n_rows", int), _header(d, "n_cols", int)):
            raise ParseError("entries shape does not match n_rows/n_cols")
    symmetric = _header(d, "symmetric", bool) if "symmetric" in d else False
    try:
        return WeightMatrix(entries, symmetric=symmetric)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _index(value):
    """One pair index as read from JSON: an integer, not a bool or float."""
    if type(value) is not int:
        raise ParseError(f"pair indices must be JSON integers, got {value!r}")
    return value


def edges_from_dict(d: dict) -> EdgeSet:
    try:
        n = _header(d, "n", int)
        pairs = [(_index(i), _index(j)) for i, j in d["pairs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad edge set: {exc}") from exc
    try:
        return EdgeSet.from_one_based(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_json(path) -> WeightMatrix | EdgeSet:
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(d, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if "pairs" in d:
        return edges_from_dict(d)
    if "entries" in d:
        return matrix_from_dict(d)
    raise ParseError(f"{path}: neither 'entries' nor 'pairs' present")


def dump_json(obj: WeightMatrix | EdgeSet, path) -> None:
    d = matrix_to_dict(obj) if isinstance(obj, WeightMatrix) else edges_to_dict(obj)
    Path(path).write_text(json.dumps(d) + "\n")


def matrix_to_text(A: WeightMatrix) -> str:
    lines = [f"{A.n_rows} {A.n_cols}"]
    for row in A.entries:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> WeightMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    head = lines[0].split()
    try:
        if len(head) == 1:
            rows = cols = int(head[0])
        elif len(head) == 2:
            rows, cols = int(head[0]), int(head[1])
        else:
            raise ValueError("header must hold one or two integers")
        body = [[float(x) for x in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if len(body) != rows or any(len(r) != cols for r in body):
        raise ParseError(f"expected {rows} rows of {cols} entries")
    return WeightMatrix(np.asarray(body))


def edges_to_text(E: EdgeSet) -> str:
    lines = [f"{E.n} {len(E.pairs)}"]
    for i, j in E.to_one_based():
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def edges_from_text(text: str) -> EdgeSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty edge file")
    head = lines[0].split()
    try:
        n = int(head[0])
        m = int(head[1]) if len(head) > 1 else len(lines) - 1
        pairs = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if len(pairs) != m or any(len(p) != 2 for p in pairs):
        raise ParseError(f"expected {m} 'i j' lines")
    return EdgeSet.from_one_based(n, pairs)


def load_input(path) -> WeightMatrix | EdgeSet:
    """Load a matrix or edge set, dispatching on extension and content.

    Text files are tried as matrices first ('rows cols' header, that many
    body rows) and as edge lists ('n m' header, m lines of 'i j') second;
    a file valid under both readings parses as a matrix.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return load_json(path)
    text = path.read_text()
    if text.lstrip()[:1] == "{":
        return load_json(path)
    try:
        return matrix_from_text(text)
    except ParseError:
        pass
    return edges_from_text(text)
