import json

import pytest

from polychrome.charmap import preset
from polychrome.generators import dual_cyclic, product, segment
from polychrome.polytope import InvariantError
from polychrome.resolution import resolve
from polychrome.serialize import (
    SchemaError,
    charmap_from_dict,
    dumps,
    load_charmap,
    load_polytope,
    load_report,
    polytope_from_dict,
    report_from_dict,
    save_charmap,
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
    with pytest.raises(SchemaError, match="dim"):
        polytope_from_dict({"dim": "4", "facets": [], "vertices": []})
    with pytest.raises(SchemaError, match="vectors"):
        charmap_from_dict({"n": 4, "mode": "general", "vectors": [1.5]})
    with pytest.raises(SchemaError, match="mode"):
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
    with pytest.raises(json.JSONDecodeError):
        load_polytope(path)


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
