import errno
import functools
import json
import operator
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychrome.charmap import CharMap, preset
from polychrome.generators import dual_cyclic, product, segment
from polychrome.polytope import InvariantError, Polytope, validate
from polychrome import serialize
from polychrome.resolution import resolve
from polychrome.serialize import (
    SchemaError,
    charmap_from_dict,
    charmap_to_dict,
    dumps,
    load_charmap,
    load_polytope,
    load_report,
    polytope_from_dict,
    polytope_to_dict,
    report_from_dict,
    report_to_dict,
    save_charmap,
    save_json,
    save_polytope,
    save_report,
)


@pytest.fixture()
def fixtures(tmp_path):
    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    small = dual_cyclic(4, 5)
    report = resolve(small, preset("identity-first", small))
    return tmp_path, P, L, report


def test_polytope_roundtrip_byte_identical(fixtures):
    tmp, P, _, _ = fixtures
    path = tmp / "poly.json"
    save_polytope(P, path)
    first = path.read_bytes()
    save_polytope(load_polytope(path), path)
    assert path.read_bytes() == first
    assert load_polytope(path) == P


def test_charmap_roundtrip_byte_identical(fixtures):
    tmp, _, L, _ = fixtures
    path = tmp / "map.json"
    save_charmap(L, path)
    first = path.read_bytes()
    save_charmap(load_charmap(path), path)
    assert path.read_bytes() == first
    assert load_charmap(path) == L


def test_report_roundtrip_byte_identical(fixtures):
    tmp, _, _, report = fixtures
    path = tmp / "report.json"
    save_report(report, path)
    first = path.read_bytes()
    save_report(load_report(path), path)
    assert path.read_bytes() == first
    assert load_report(path) == report


def test_a_write_that_fails_after_its_file_opened_keeps_the_old_bytes(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n", encoding="utf-8")

    def full_disk(*args, **kwargs):  # the file opens, then its first write fails
        f = open(*args, **kwargs)
        def write(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        f.write = write
        return f

    monkeypatch.setattr(serialize, "open", full_disk, raising=False)
    with pytest.raises(OSError) as exc:
        save_json({"new": 1}, target)
    assert exc.value.errno == errno.ENOSPC
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]  # no stray file


def test_a_save_replaces_the_file_a_path_or_symlink_names_and_keeps_its_mode(tmp_path):
    target, link = tmp_path / "out.json", tmp_path / "link.json"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link.symlink_to(target.name)
    save_json({"new": 1}, link)
    assert link.is_symlink() and target.read_text(encoding="utf-8") == dumps({"new": 1})
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "out.json"]


def test_a_save_that_cannot_open_its_file_names_the_path_given(tmp_path):
    missing = tmp_path / "nodir" / "out.json"
    with pytest.raises(FileNotFoundError) as exc:
        save_json({}, missing)
    assert str(exc.value) == f"[Errno 2] No such file or directory: '{missing}'"


def test_a_save_to_a_pipe_writes_into_the_pipe(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so the save's open returns
    try:
        save_json({"new": 1}, fifo)
        assert os.read(fd, 1 << 16).decode() == dumps({"new": 1})
    finally:
        os.close(fd)
    assert fifo.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_unsorted_vertices_normalized_on_load(tmp_path):
    path = tmp_path / "poly.json"
    data = {
        "dim": 1,
        "facets": ["F0", "F1"],
        "vertices": [[1], [0]],
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    P = load_polytope(path)
    assert P.vertices == ((0,), (1,))
    assert P == segment()


def test_no_floats_anywhere(fixtures):
    tmp, P, L, report = fixtures
    for obj, save in ((P, save_polytope), (L, save_charmap), (report, save_report)):
        path = tmp / "x.json"
        save(obj, path)
        text = path.read_text()
        assert "." not in text.replace('"', "")  # integers only


def test_missing_and_extra_fields_rejected():
    with pytest.raises(SchemaError, match="missing"):
        polytope_from_dict({"dim": 1, "facets": ["a", "b"]})
    with pytest.raises(SchemaError, match="unexpected"):
        polytope_from_dict(
            {"dim": 1, "facets": ["a", "b"], "vertices": [[0], [1]], "extra": 1}
        )
    with pytest.raises(SchemaError, match="missing"):
        charmap_from_dict({"n": 4, "vectors": [1]})


def test_wrong_types_rejected():
    with pytest.raises(InvariantError, match="dim"):
        polytope_from_dict({"dim": "4", "facets": [], "vertices": []})
    with pytest.raises(InvariantError, match="vectors"):
        charmap_from_dict({"n": 4, "mode": "general", "vectors": [1.5]})
    with pytest.raises(InvariantError, match="mode"):
        charmap_from_dict({"n": 4, "mode": 3, "vectors": [1]})


def test_zero_vector_rejected_naming_index():
    with pytest.raises(InvariantError, match=r"vectors\[2\]"):
        charmap_from_dict({"n": 4, "mode": "general", "vectors": [1, 2, 0, 4]})


def test_invalid_polytope_rejected_with_diagnostic():
    square = product(segment(), segment())
    data = {
        "dim": 2,
        "facets": list(square.facet_labels),
        "vertices": [list(v) for v in square.vertices] + [[0, 2]],
    }
    with pytest.raises(InvariantError, match="duplicate-vertex"):
        polytope_from_dict(data)
    data = {
        "dim": 2,
        "facets": list(square.facet_labels),
        "vertices": [[0], [0, 2], [0, 3], [1, 2], [1, 3]],
    }
    with pytest.raises(InvariantError, match="vertex-arity"):
        polytope_from_dict(data)


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as exc:
        load_polytope(path)
    assert str(exc.value) == (
        f"{path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [0, True]], "polytope.vertices[1]: expected an integer, got True"),
    ([[0, 1], "01"], "polytope.vertices[1]: expected a list, got '01'"),
    ([[0, 1.0], [0, "x"]], "polytope.vertices[0]: expected an integer, got 1.0"),
])
def test_a_bad_vertex_row_is_named(rows, message):
    with pytest.raises(SchemaError) as exc:
        polytope_from_dict({"dim": 2, "facets": ["a", "b", "c"], "vertices": rows})
    assert str(exc.value) == message


def test_report_terminated_value_checked(fixtures):
    tmp, _, _, report = fixtures
    path = tmp / "report.json"
    save_report(report, path)
    data = json.loads(path.read_text())
    data["terminated"] = "maybe"
    with pytest.raises(SchemaError, match="terminated"):
        report_from_dict(data)


def test_dumps_is_canonical():
    # keys sorted, indent 2, trailing newline
    assert dumps({"b": 1, "a": [1, 2]}) == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def _json_outcome(encode, data):
    try:
        return encode(data)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _indented_json(data):
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# quotes, escapes, control characters, non-ASCII, then any character
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀') | st.characters())
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**80), 2**80), st.floats(), _TEXT,
    st.just(frozenset()),  # not encodable: the TypeError must be json's own
)
_INT_ROWS = st.lists(st.lists(st.integers(-3, 2**70), max_size=4), max_size=4)
_DOCUMENTS = st.recursive(
    st.one_of(_SCALARS, _INT_ROWS, _INT_ROWS.map(lambda rows: tuple(map(tuple, rows)))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=30,
)


@given(_DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_dumps_writes_the_bytes_of_the_indented_json_encoder(data):
    assert _json_outcome(dumps, data) == _json_outcome(_indented_json, data)


class _Int(int):
    """An int subclass whose repr is not its digits: json writes int.__repr__'s."""

    def __repr__(self) -> str:
        return "_Int()"


@st.composite
def _equal_int_rows(draw):
    """Up to 50 rows of k = 1..7 ints each, each row a list or a tuple, with negative
    ints and ints above 2^64; one entry may become a bool or an int subclass."""
    k = draw(st.integers(1, 7))
    entry = st.integers(-(2**70), 2**70) | st.integers(2**64, 2**80) | st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), max_size=50))
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, k - 1))
        rows[i][j] = draw(st.sampled_from([True, False, _Int(rows[i][j])]))
    rows = [tuple(row) if draw(st.booleans()) else row for row in rows]
    return draw(st.sampled_from([rows, tuple(rows), {"vertices": rows}]))


@given(_equal_int_rows())
@settings(max_examples=300, deadline=None)
def test_dumps_writes_rows_of_one_length_as_the_indented_json_encoder_does(rows):
    assert dumps(rows) == _indented_json(rows)


# data that contains itself, and data nested deeper than dumps' own writer goes
_SELF_LIST, _SELF_DICT, _DEEP = [], {}, [1]
_SELF_LIST.append(_SELF_LIST)
_SELF_DICT["self"] = _SELF_DICT
for _ in range(500):
    _DEEP = [_DEEP]


@pytest.mark.parametrize("data", [_SELF_LIST, _SELF_DICT, {"rows": [[1, 2], _SELF_LIST]}, _DEEP],
                         ids=["self-list", "self-dict", "self-list-in-a-dict", "depth-500"])
def test_dumps_matches_json_on_data_that_contains_itself_or_nests_deep(data):
    # json refuses the first three with "Circular reference detected"; it writes the last
    assert _json_outcome(dumps, data) == _json_outcome(_indented_json, data)


@pytest.mark.parametrize("bad_by_size", [
    [3, 14],                 # flat, not pairs
    [[3, 14, 1]],            # a triple
    [[3]],                   # a single
    [[3, True]],             # a bool is not an int
    [["3", 14]],             # a string is not an int
    [[3, 14.0]],             # a float is not an int
    "[[3, 14]]",             # not a list
])
def test_report_bad_by_size_shape_checked(fixtures, bad_by_size):
    tmp, _, _, report = fixtures
    path = tmp / "report.json"
    save_report(report, path)
    data = json.loads(path.read_text())
    data["steps"][0]["bad_by_size"] = bad_by_size
    with pytest.raises(SchemaError, match=r"report\.steps\[0\]\.bad_by_size"):
        report_from_dict(data)


def test_report_without_bad_by_size_rejected(fixtures):
    tmp, _, _, report = fixtures
    path = tmp / "report.json"
    save_report(report, path)
    data = json.loads(path.read_text())
    del data["steps"][0]["bad_by_size"]
    with pytest.raises(SchemaError, match="missing"):
        report_from_dict(data)


@pytest.mark.parametrize("change", [
    pytest.param(lambda m: m["vectors"].pop(), id="a-vector-short"),
    pytest.param(lambda m: m.update(n=5), id="too-wide"),
])
def test_report_final_map_must_fit_the_final_polytope(tmp_path, change):
    P = dual_cyclic(4, 8)
    path = tmp_path / "report.json"
    save_report(resolve(P, preset("identity-first", P)), path)
    data = json.loads(path.read_text())
    change(data["final_map"])
    with pytest.raises(SchemaError, match=r"^report\.final_map: map "):
        report_from_dict(data)


TRIANGLE = dual_cyclic(2, 3)


@pytest.mark.parametrize("build, message, accepted", [
    pytest.param(lambda: CharMap(2, (True, 2, 3)), "vectors[0]: expected an integer, got True",
                 CharMap(2, (1, 2, 3)), id="bool-vector"),
    pytest.param(lambda: CharMap(True, (1, 1)), "n: expected an integer width, got True",
                 CharMap(1, (1, 1)), id="bool-width"),
    pytest.param(lambda: CharMap(2, (1.0, 2, 3)), "vectors[0]: expected an integer, got 1.0",
                 CharMap(2, (1, 2, 3)), id="float-vector"),
    pytest.param(lambda: CharMap(0, (1, 1)), "n: width must be in [1, 16], got 0",
                 CharMap(1, (1, 1)), id="width-0"),
    pytest.param(lambda: CharMap(17, (1, 1)), "n: width must be in [1, 16], got 17",
                 CharMap(16, (1, 1)), id="width-17"),
])
def test_a_charmap_that_could_not_reload_is_refused(tmp_path, build, message, accepted):
    with pytest.raises(InvariantError) as exc:
        build()
    assert str(exc.value) == message
    path = tmp_path / "map.json"
    save_charmap(accepted, path)
    assert load_charmap(path) == accepted


@pytest.mark.parametrize("P, diagnostic, accepted", [
    pytest.param(Polytope(True, ("a", "b"), ((0,), (1,))),
                 "dimension: dim must be an integer, got True",
                 Polytope(1, ("a", "b"), ((0,), (1,))), id="bool-dim"),
    pytest.param(Polytope(2.0, TRIANGLE.facet_labels, TRIANGLE.vertices),
                 "dimension: dim must be an integer, got 2.0", TRIANGLE, id="float-dim"),
    pytest.param(Polytope(0, ("a", "b"), ((), ())), "dimension: dim must be at least 1, got 0",
                 Polytope(1, ("a", "b"), ((0,), (1,))), id="zero-dim"),
    pytest.param(Polytope(2, TRIANGLE.facet_labels,
                          tuple(tuple(map(float, V)) for V in TRIANGLE.vertices)),
                 "index-type: facet indices must be integers, got float", TRIANGLE,
                 id="float-indices"),
    pytest.param(Polytope(1, ("a", "b"), ((False,), (True,))),
                 "index-type: facet indices must be integers, got bool",
                 Polytope(1, ("a", "b"), ((0,), (1,))), id="bool-indices"),
    pytest.param(Polytope(2, (1, 2, 3), TRIANGLE.vertices),
                 "label-type: facet labels must be strings, got int", TRIANGLE, id="int-labels"),
])
def test_a_polytope_that_could_not_reload_does_not_validate(tmp_path, P, diagnostic, accepted):
    assert validate(P) == [diagnostic]
    path = tmp_path / "poly.json"
    save_polytope(accepted, path)
    assert validate(accepted) == [] and load_polytope(path) == accepted


@pytest.mark.parametrize("n, m, name, budget, terminated", [
    (4, 8, "identity-first", 1000, "success"),
    (4, 15, "paper-example", 3, "budget_exhausted"),
    (5, 31, "identity-first", 1000, "no_vector_found"),
])
def test_a_trace_of_each_ending_reloads(tmp_path, n, m, name, budget, terminated):
    P = dual_cyclic(n, m)
    report = resolve(P, preset(name, P), budget=budget)
    assert report.terminated == terminated
    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report


def _set_step0(**fields):
    return lambda d: d["steps"][0].update(fields)


@pytest.mark.parametrize("tamper, field", [
    pytest.param(_set_step0(circuit_size=7), r"steps\[0\]\.circuit_size",
                 id="circuit-size"),  # the face has 3 facets
    pytest.param(_set_step0(vertices_added=5), r"steps\[0\]\.vertices_added",
                 id="vertices-added"),  # 2 hosts x 3 facets
    pytest.param(_set_step0(new_facet_index=99), r"steps\[0\]\.new_facet_index",
                 id="new-facet-out-of-range"),
    pytest.param(_set_step0(new_facet_index=9), r"steps\[0\]\.new_facet_index",
                 id="new-facet-of-step-1"),
    pytest.param(lambda d: d.update(steps=d["steps"] * 5), r"steps\[0\]\.new_facet_index",
                 id="more-steps-than-facets"),  # 40 steps, 16 facets: no index wraps around
    pytest.param(_set_step0(chosen_vector=13), r"steps\[0\]\.chosen_vector",
                 id="chosen-vector"),  # final_map.vectors[8] is 12
    pytest.param(_set_step0(bad_by_size=[[3, 4], [4, 5]]), r"steps\[0\]\.bad_by_size",
                 id="bad-by-size"),
    pytest.param(lambda d: d.update(initial_bad_count=0), r"steps\[0\]\.bad_by_size",
                 id="initial-bad-count"),
    pytest.param(lambda d: d.update(terminated="budget_exhausted"), "terminated",
                 id="not-success-after-the-last-cut"),
    # step 0 cuts (0, 1, 4) and creates facet 8
    pytest.param(_set_step0(face=[0, 99, 4]), r"steps\[0\]\.face", id="face-out-of-range"),
    pytest.param(_set_step0(face=[1, 1, 4]), r"steps\[0\]\.face", id="face-repeats"),
    pytest.param(_set_step0(face=[4, 1, 0]), r"steps\[0\]\.face", id="face-unsorted"),
    pytest.param(_set_step0(face=[0, 1, 8]), r"steps\[0\]\.face", id="face-own-new-facet"),
])
def test_a_trace_that_contradicts_itself_is_refused(tmp_path, tamper, field):
    P = dual_cyclic(4, 8)
    path = tmp_path / "report.json"
    save_report(resolve(P, preset("identity-first", P)), path)
    data = json.loads(path.read_text())
    tamper(data)
    with pytest.raises(SchemaError, match=r"^report\." + field + ": "):
        report_from_dict(data)


def test_a_trace_claiming_success_before_the_last_cut_is_refused(tmp_path):
    P = dual_cyclic(4, 15)
    path = tmp_path / "report.json"
    save_report(resolve(P, preset("paper-example", P), budget=3), path)
    data = json.loads(path.read_text())
    data["terminated"] = "success"
    with pytest.raises(SchemaError, match=r"^report\.terminated: 'success' after 3 of 31 cuts$"):
        report_from_dict(data)


# a square whose map is singular at the vertex of facets 0 and 1: a one-step trace
_SQUARE, _SQUARE_MAP = dual_cyclic(2, 4), CharMap(2, (1, 1, 2, 3))
_VALID_DOCUMENTS = {
    "polytope": (polytope_from_dict, polytope_to_dict(_SQUARE)),
    "charmap": (charmap_from_dict, charmap_to_dict(_SQUARE_MAP)),
    "report": (report_from_dict, report_to_dict(resolve(_SQUARE, _SQUARE_MAP))),
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


def _paths(x, path=()):
    """The key or index path of every value in a JSON document, the root's first."""
    yield path
    if isinstance(x, (dict, list)):
        for key, value in x.items() if isinstance(x, dict) else enumerate(x):
            yield from _paths(value, path + (key,))


@pytest.mark.parametrize("kind", _VALID_DOCUMENTS)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_loader_refuses_any_value_anywhere_with_a_value_error(kind, data):
    # the loaders check only a document's shape and leave its content to CharMap and
    # validate; those checks must still turn every misfit into a ValueError
    from_dict, valid = _VALID_DOCUMENTS[kind]
    path = data.draw(st.sampled_from(list(_paths(valid))))
    value = data.draw(_JSON_VALUES)
    doc = json.loads(json.dumps(valid))
    if path:
        *head, last = path
        functools.reduce(operator.getitem, head, doc)[last] = value
    else:
        doc = value
    try:
        from_dict(doc)
    except ValueError:
        pass
