"""Canonical JSON persistence for polytopes, characteristic maps, and reports.

Files are UTF-8 JSON with sorted keys, two-space indent, and a trailing
newline; integers only, never floats. Loading normalizes vertex order, so
save(load(x)) is byte-identical for canonical files.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import shutil
from dataclasses import fields
from json.encoder import encode_basestring
from pathlib import Path

from .charmap import CharMap, _check_aligned
from .polytope import InvariantError, Polytope, require_valid
from .resolution import TERMINATED, ResolutionReport, Step


class SchemaError(ValueError):
    """A JSON document does not match the expected shape: its keys, lists, vertex rows or
    trace steps. What CharMap or validate refuses in a well-shaped one is an InvariantError."""


_json = functools.partial(json.dumps, indent=2, sort_keys=True, ensure_ascii=False)


def dumps(data) -> str:
    """_json(data) + "\\n", byte for byte. Ints, str-keyed dicts and lists skip json's
    pure-Python encoder; data too deep for _write, or cyclic, gets _json's result or error."""
    try:
        return _write(data, "") + "\n"
    except RecursionError:
        return _json(data) + "\n"


def _write(x, pad: str) -> str:
    """x as the indented json encoder writes it at indent pad."""
    inner, sep = pad + "  ", f",\n{pad}  "
    if type(x) is int:
        return int.__repr__(x)
    if isinstance(x, dict) and x and set(map(type, x)) <= {str}:
        body = sep.join(f"{encode_basestring(k)}: {_write(x[k], inner)}" for k in sorted(x))
        return f"{{\n{inner}{body}\n{pad}}}"
    if not isinstance(x, (list, tuple)) or not x:
        return _json(x).replace("\n", "\n" + pad)  # JSON strings hold no raw newline
    kinds = set(map(type, x))
    if kinds <= {int}:
        body = sep.join(map(int.__repr__, x))
    elif (kinds <= {list, tuple} and len(set(map(len, x))) == 1 and x[0]
          and set(map(type, flat := tuple(itertools.chain(*x)))) <= {int}):
        # rows of ints of one length: one %d template per row, filled by one % at C speed
        row = f"[\n{inner}  " + f"{sep}  ".join(["%d"] * len(x[0])) + f"\n{inner}]"
        body = sep.join([row] * len(x)) % flat
    else:
        body = sep.join(_write(v, inner) for v in x)
    return f"[\n{inner}{body}\n{pad}]"


def save_json(data, path) -> None:
    """Write dumps(data) to path whole or not at all. The text goes to a new file beside
    path (beside a symlink's target), which then takes an existing path's permission bits
    and replaces it; a write that fails, on a full disk say, removes that file, so no stray
    file is left and an existing path keeps its old bytes. A path that exists but is no
    regular file (/dev/stdout, a pipe) is written in place. Errors name path itself."""
    text, target = dumps(data), Path(os.path.realpath(path))
    if os.path.exists(path) and not os.path.isfile(path):  # nothing there to replace
        Path(path).write_text(text, encoding="utf-8")
        return
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        f = open(tmp, "x", encoding="utf-8")  # exclusive: a new file, so ours to remove
        try:
            with f:
                f.write(text)
            if target.exists():
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink()
            raise
    except OSError as exc:
        if exc.filename is None:  # a failed write names no file
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:  # name the file as well as the position
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    except (UnicodeDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: {exc}") from None


def _load(path, from_dict):
    data = load_json(path)
    try:
        return from_dict(data)
    except (SchemaError, InvariantError) as exc:  # name the file, keep the class
        raise type(exc)(f"{path}: {exc}") from None


def _expect_keys(d, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(d, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    missing = sorted(set(keys) - set(d))
    extra = sorted(set(d) - set(keys))
    if missing:
        raise SchemaError(f"{what}: missing fields {missing}")
    if extra:
        raise SchemaError(f"{what}: unexpected fields {extra}")


def _expect_int(x, what: str) -> int:
    if type(x) is not int:  # a bool is no integer here
        raise SchemaError(f"{what}: expected an integer, got {x!r}")
    return x


def _expect_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"{what}: expected a list, got {x!r}")
    return x


def _expect_int_list(x, what: str) -> tuple[int, ...]:
    x = _expect_list(x, what)  # types checked at C speed; the walk only names the first bad one
    return tuple(x) if set(map(type, x)) <= {int} else tuple(_expect_int(v, what) for v in x)


# -- Polytope ---------------------------------------------------------------

def polytope_to_dict(P: Polytope) -> dict:
    return {
        "dim": P.dim,
        "facets": list(P.facet_labels),
        "vertices": [list(v) for v in P.vertices],
    }


def polytope_from_dict(d) -> Polytope:
    """Checks int rows, which the constructor sorts, and leaves dim and labels to validate."""
    _expect_keys(d, ("dim", "facets", "vertices"), "polytope")
    labels = _expect_list(d["facets"], "polytope.facets")
    rows = _expect_list(d["vertices"], "polytope.vertices")
    if not (set(map(type, rows)) <= {list} and set(map(type, itertools.chain(*rows))) <= {int}):
        rows = [_expect_int_list(row, f"polytope.vertices[{i}]") for i, row in enumerate(rows)]
    return require_valid(Polytope(d["dim"], labels, rows), "polytope: ")


def save_polytope(P: Polytope, path) -> None:
    save_json(polytope_to_dict(P), path)


def load_polytope(path) -> Polytope:
    return _load(path, polytope_from_dict)


# -- CharMap ----------------------------------------------------------------

def charmap_to_dict(L: CharMap) -> dict:
    return {"n": L.n, "mode": L.mode, "vectors": list(L.vectors)}


def charmap_from_dict(d) -> CharMap:
    _expect_keys(d, ("n", "mode", "vectors"), "charmap")
    return CharMap(d["n"], _expect_list(d["vectors"], "charmap.vectors"), d["mode"])


def save_charmap(L: CharMap, path) -> None:
    save_json(charmap_to_dict(L), path)


def load_charmap(path) -> CharMap:
    return _load(path, charmap_from_dict)


# -- ResolutionReport ---------------------------------------------------------

_REPORT_KEYS = ("final_map", "final_polytope", "initial_bad_count", "steps", "terminated")


def _expect_pair_list(x, what: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for j, p in enumerate(_expect_list(x, what)):
        pair = _expect_int_list(p, f"{what}[{j}]")
        if len(pair) != 2:
            raise SchemaError(f"{what}[{j}]: expected an [int, int] pair, got {p!r}")
        pairs.append(pair)
    return tuple(pairs)


# one parser per Step field annotation; a new field type fails at import
_FIELD_PARSERS = {
    "int": _expect_int,
    "tuple[int, ...]": _expect_int_list,
    "tuple[tuple[int, int], ...]": _expect_pair_list,
}
_STEP_FIELDS = tuple((f.name, _FIELD_PARSERS[f.type]) for f in fields(Step))
_STEP_KEYS = tuple(name for name, _ in _STEP_FIELDS)


def _as_json(x):
    return [_as_json(v) for v in x] if isinstance(x, tuple) else x


def report_to_dict(r: ResolutionReport) -> dict:
    return {
        "initial_bad_count": r.initial_bad_count,
        "steps": [{name: _as_json(getattr(s, name)) for name, _ in _STEP_FIELDS} for s in r.steps],
        "final_polytope": polytope_to_dict(r.final_polytope),
        "final_map": charmap_to_dict(r.final_map),
        "terminated": r.terminated,
    }


def report_from_dict(d) -> ResolutionReport:
    _expect_keys(d, _REPORT_KEYS, "report")
    steps = []
    for i, sd in enumerate(_expect_list(d["steps"], "report.steps")):
        _expect_keys(sd, _STEP_KEYS, f"report.steps[{i}]")
        steps.append(
            Step(**{name: parse(sd[name], f"report.steps[{i}].{name}")
                    for name, parse in _STEP_FIELDS})
        )
    if (terminated := d["terminated"]) not in TERMINATED:
        raise SchemaError(f"report.terminated: expected one of {TERMINATED}, got {terminated!r}")
    initial = _expect_int(d["initial_bad_count"], "report.initial_bad_count")
    P, L = polytope_from_dict(d["final_polytope"]), charmap_from_dict(d["final_map"])
    try:
        _check_aligned(P, L)
    except ValueError as exc:
        raise SchemaError(f"report.final_map: {exc}") from None
    first = P.num_facets - len(steps)  # the facet the first step created
    for i, s in enumerate(steps):
        for name, value, expected in (
            ("circuit_size", s.circuit_size, len(s.face)),
            ("vertices_added", s.vertices_added, s.vertices_removed * s.circuit_size),
            ("new_facet_index", s.new_facet_index, first + i),
            ("chosen_vector", s.chosen_vector, L.vectors[first + i] if first >= 0 else None),
            ("bad_by_size", sum(count for _, count in s.bad_by_size), initial - i),
        ):
            if value != expected:
                raise SchemaError(f"report.steps[{i}].{name}: expected {expected}, got {value}")
        face, top = list(s.face), s.new_facet_index  # a run cuts only facets it already has
        if not 2 <= len(face) <= P.dim or face != sorted(set(face).intersection(range(top))):
            raise SchemaError(f"report.steps[{i}].face: expected 2 to {P.dim} increasing "
                              f"facets below {top}, got {face}")
    if len(steps) > initial or (len(steps) == initial) != (terminated == "success"):
        raise SchemaError(f"report.terminated: {terminated!r} after {len(steps)} of {initial} cuts")
    return ResolutionReport(initial, tuple(steps), P, L, terminated)


def save_report(r: ResolutionReport, path) -> None:
    save_json(report_to_dict(r), path)


def load_report(path) -> ResolutionReport:
    return _load(path, report_from_dict)
