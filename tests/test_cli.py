import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polychrome import cli, serialize
from polychrome.cli import main
from polychrome.serialize import load_charmap, load_polytope, load_report


@pytest.fixture()
def simplex_flow(tmp_path):
    poly = tmp_path / "poly.json"
    cmap = tmp_path / "map.json"
    assert main(["gen", "dual-cyclic", "--dim", "4", "--facets", "5", "-o", str(poly)]) == 0
    assert main(["decorate", str(poly), "--preset", "identity-first", "-o", str(cmap)]) == 0
    return tmp_path, poly, cmap


def test_gen_writes_valid_file(simplex_flow):
    _, poly, _ = simplex_flow
    P = load_polytope(poly)
    assert (P.dim, P.num_facets, len(P.vertices)) == (4, 5, 5)


def test_gen_segment_and_product(tmp_path, capsys):
    seg = tmp_path / "seg.json"
    out = tmp_path / "sq.json"
    assert main(["gen", "segment", "-o", str(seg)]) == 0
    assert main(["gen", "product", str(seg), str(seg), "-o", str(out)]) == 0
    P = load_polytope(out)
    assert (P.dim, P.num_facets, len(P.vertices)) == (2, 4, 4)


def test_decorate_mode_overrides_the_preset_mode(tmp_path, capsys):
    poly, cmap = tmp_path / "poly.json", tmp_path / "map.json"
    assert main(["gen", "dual-cyclic", "--dim", "4", "--facets", "8", "-o", str(poly)]) == 0
    assert main(["decorate", str(poly), "--preset", "odd-bijection", "--mode", "general",
                 "-o", str(cmap)]) == 0
    L = load_charmap(cmap)
    assert (L.mode, L.vectors) == ("general", (1, 2, 4, 7, 8, 11, 13, 14))
    assert main(["gen", "dual-cyclic", "--dim", "4", "--facets", "15", "-o", str(poly)]) == 0
    capsys.readouterr()
    assert main(["decorate", str(poly), "--preset", "paper-example", "--mode", "oriented",
                 "-o", str(cmap)]) == 1
    err = capsys.readouterr().err
    assert "vectors[1]: 3 has even weight; oriented maps need odd weights" in err
    assert load_charmap(cmap) == L  # the refused map is not written


def test_check_finds_bad_faces_and_exits_2(simplex_flow, capsys):
    _, poly, cmap = simplex_flow
    assert main(["check", str(poly), str(cmap)]) == 2
    out = capsys.readouterr().out
    assert "{F0,F1,F4}" in out
    assert main(["check", str(poly), str(cmap), "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data == [
        {"face": [0, 1, 4], "circuit_size": 3, "witness_vertex": [0, 1, 2, 4]}
    ]


def test_check_json_formats_no_table_row(simplex_flow, monkeypatch, capsys):
    _, poly, cmap = simplex_flow

    def refuse(v):
        raise AssertionError("check --format json formatted a table row")

    monkeypatch.setattr(cli.gf2, "vector_str", refuse)
    assert main(["check", str(poly), str(cmap), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)[0]["face"] == [0, 1, 4]


def test_resolve_then_check_clean(simplex_flow, capsys):
    tmp, poly, cmap = simplex_flow
    rpoly, rmap, trace = tmp / "r.json", tmp / "rm.json", tmp / "t.json"
    assert main([
        "resolve", str(poly), str(cmap),
        "-o", str(rpoly), str(rmap), "--trace", str(trace),
    ]) == 0
    assert main(["check", str(rpoly), str(rmap)]) == 0
    out = capsys.readouterr().out
    assert "non-singular at every vertex" in out
    report = load_report(trace)
    assert report.terminated == "success"
    assert load_polytope(rpoly) == report.final_polytope
    assert load_charmap(rmap) == report.final_map


@pytest.mark.parametrize("missing", ["polytope", "map", "trace"])
def test_a_resolve_that_cannot_write_one_output_leaves_none(simplex_flow, capsys, missing):
    tmp, poly, cmap = simplex_flow
    outputs = {"polytope": tmp / "r.json", "map": tmp / "rm.json", "trace": tmp / "t.json"}
    outputs[missing] = tmp / "nodir" / outputs[missing].name
    capsys.readouterr()
    assert main(["resolve", str(poly), str(cmap), "-o", str(outputs["polytope"]),
                 str(outputs["map"]), "--trace", str(outputs["trace"])]) == 1
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{outputs[missing]}'\n"
    )
    assert sorted(p.name for p in tmp.iterdir()) == ["map.json", "poly.json"]


def test_a_resolve_whose_last_write_fails_removes_the_files_it_wrote(simplex_flow, monkeypatch,
                                                                   capsys):
    tmp, poly, cmap = simplex_flow
    trace = tmp / "t.json"

    def disk_full(report, path):
        written = sorted(p.name for p in tmp.iterdir())
        assert written == ["map.json", "poly.json", "r.json", "rm.json"]
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(serialize, "save_report", disk_full)
    capsys.readouterr()
    assert main(["resolve", str(poly), str(cmap), "-o", str(tmp / "r.json"), str(tmp / "rm.json"),
                 "--trace", str(trace)]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 28] No space left on device: '{trace}'\n")
    assert sorted(p.name for p in tmp.iterdir()) == ["map.json", "poly.json"]


@pytest.mark.parametrize("outputs, named", [
    (["-o", "out.json", "out.json"], "out.json"),
    (["--trace", "a.json", "-o", "a.json", "b.json"], "a.json"),
    (["-o", "out.json", "m.json", "--trace", "sub/../m.json"], "sub/../m.json"),
], ids=["polytope-and-map", "polytope-and-trace", "map-and-trace"])
def test_a_resolve_whose_outputs_share_a_file_writes_none(simplex_flow, capsys, outputs, named):
    tmp, poly, cmap = simplex_flow
    capsys.readouterr()
    args = [str(tmp / a) if a.endswith(".json") else a for a in outputs]
    assert main(["resolve", str(poly), str(cmap), *args]) == 1
    assert capsys.readouterr() == ("", f"error: two outputs name the same file: {tmp / named}\n")
    assert sorted(p.name for p in tmp.iterdir()) == ["map.json", "poly.json"]


def test_fvector_output(simplex_flow, capsys):
    _, poly, _ = simplex_flow
    assert main(["fvector", str(poly)]) == 0
    out = capsys.readouterr().out
    assert "f = [5, 10, 10, 5]" in out
    assert main(["fvector", str(poly), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [5, 10, 10, 5]
    assert data["euler_consistent"] is True


def test_chromatic_command(simplex_flow, capsys):
    _, poly, _ = simplex_flow
    assert main(["chromatic", str(poly), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chi"] == 5
    assert data["status"] == "exact"


def test_chromatic_bounds_only_exits_2(tmp_path, capsys):
    poly = tmp_path / "pent.json"
    main(["gen", "dual-cyclic", "--dim", "2", "--facets", "5", "-o", str(poly)])
    assert main(["chromatic", str(poly), "--time-budget", "0"]) == 2


def test_lift_check(simplex_flow, capsys):
    tmp, poly, cmap = simplex_flow
    # the unresolved identity-first simplex has a singular vertex: det 0 there
    assert main(["lift-check", str(poly), str(cmap), "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["all_unimodular"] is False
    rpoly, rmap = tmp / "r.json", tmp / "rm.json"
    main(["resolve", str(poly), str(cmap), "-o", str(rpoly), str(rmap)])
    capsys.readouterr()
    code = main(["lift-check", str(rpoly), str(rmap), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["all_odd"] is True
    assert code in (0, 2)  # unimodularity of the naive lift is reported, not promised


def test_lift_check_runs_in_six_dimensions(tmp_path, capsys):
    poly, cmap = tmp_path / "poly.json", tmp_path / "map.json"
    assert main(["gen", "dual-cyclic", "--dim", "6", "--facets", "8", "-o", str(poly)]) == 0
    assert main(["decorate", str(poly), "--preset", "identity-first", "-o", str(cmap)]) == 0
    capsys.readouterr()
    code = main(["lift-check", str(poly), str(cmap), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == (0 if data["all_unimodular"] else 2)
    assert len(data["determinants"]) == 16


def test_reproduce_main2(capsys):
    assert main(["reproduce", "main2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chi"] == 8
    assert data["oriented"] is True
    assert data["ok"] is True


@pytest.mark.parametrize("target", ["main2", "main3"])
def test_reproduce_with_product_adds_a_dimension_two_facets_and_one_colour(target, capsys):
    assert main(["reproduce", target, "--with-product", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chi_status"] == "exact"
    assert data["product_with_segment"] == {
        "dim": len(data["f_vector"]) + 1,
        "facets": data["final_facets"] + 2,
        "f0": 2 * data["f_vector"][0],
        "chi": data["chi"] + 1,
        "chi_status": "exact",
    }


def test_reproduce_writes_summary(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["reproduce", "main2", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["chi"] == 8


def test_usage_and_io_errors_exit_1(tmp_path, monkeypatch, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["gen", "dual-cyclic", "--dim", "4", "--facets", "4",
                 "-o", str(tmp_path / "x.json")]) == 1
    assert main(["fvector", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["fvector", str(bad)]) == 1
    poly = tmp_path / "pent.json"
    assert main(["gen", "dual-cyclic", "--dim", "2", "--facets", "5", "-o", str(poly)]) == 0
    capsys.readouterr()
    assert main(["chromatic", str(poly), "--time-budget", "nan"]) == 1
    assert capsys.readouterr().err == "error: time budget must be a number at least 0, got nan\n"
    # an empty path option is a path, as an empty positional one is: '.', a directory
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "dual-cyclic", "--dim", "4", "--facets", "5", "-o", "poly.json"]) == 0
    assert main(["decorate", "poly.json", "--preset", "identity-first", "-o", "map.json"]) == 0
    for argv in (["resolve", "poly.json", "map.json", "-o", "r.json", "rm.json", "--trace", ""],
                 ["chromatic", "poly.json", "--hint", ""],
                 ["reproduce", "main2", "-o", ""]):
        files = sorted(os.listdir())
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: [Errno 21] Is a directory: '.'\n")
        assert sorted(os.listdir()) == files


UNWRITABLE = {
    ".": "[Errno 21] Is a directory: '.'",
    "nodir/x.json": "[Errno 2] No such file or directory: 'nodir/x.json'",
    "poly.json/x.json": "[Errno 20] Not a directory: 'poly.json/x.json'",
    "poly.json/a/x.json": "[Errno 20] Not a directory: 'poly.json/a/x.json'",
}


@pytest.mark.parametrize("argv, work", [  # {} is the output path; work must not be reached
    ("gen dual-cyclic --dim 4 --facets 5 -o {}", "dual_cyclic"),
    ("gen dual-cyclic --dim 4 --facets 4 -o {}", None),  # the path is refused before the arguments
    ("gen segment -o {}", "segment"),
    ("gen product poly.json poly.json -o {}", "product"),
    ("decorate poly.json --preset identity-first -o {}", "preset"),
    ("resolve poly.json map.json -o {} out-map.json", "resolve"),
    ("resolve poly.json map.json -o out.json {}", "resolve"),
    ("resolve poly.json map.json -o out.json out-map.json --trace {}", "resolve"),
    ("reproduce main3 -o {}", "reproduce"),
], ids=["gen-dual-cyclic", "gen-bad-arguments", "gen-segment", "gen-product", "decorate",
        "resolve-polytope", "resolve-map", "resolve-trace", "reproduce"])
@pytest.mark.parametrize("path", UNWRITABLE, ids=["directory", "missing-parent", "file-parent",
                                              "file-ancestor"])
def test_an_output_that_cannot_be_written_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                                    argv, work, path):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "dual-cyclic", "--dim", "4", "--facets", "5", "-o", "poly.json"]) == 0
    assert main(["decorate", "poly.json", "--preset", "identity-first", "-o", "map.json"]) == 0

    def reached(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    if work is not None:
        monkeypatch.setattr(cli, work, reached)
    capsys.readouterr()
    assert main(argv.format(path).split()) == 1
    assert capsys.readouterr() == ("", f"error: {UNWRITABLE[path]}\n")
    assert sorted(os.listdir()) == ["map.json", "poly.json"]


def test_every_file_goes_through_the_serialize_module(tmp_path, monkeypatch, capsys):
    # replaced as perfbench/tracer.py replaces them; a table of the functions built at
    # import time would bypass the replacements
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "dual-cyclic", "--dim", "4", "--facets", "5", "-o", "poly.json"]) == 0
    assert main(["decorate", "poly.json", "--preset", "identity-first", "-o", "map.json"]) == 0
    assert main(["gen", "segment", "-o", "seg.json"]) == 0
    seen = []
    for name in ("load_polytope", "load_charmap", "save_polytope", "save_charmap"):
        def counted(*args, name=name, original=getattr(serialize, name)):
            seen.append((name, str(args[-1])))  # the path is the last argument
            return original(*args)
        monkeypatch.setattr(serialize, name, counted)
    for argv, files in (
        ("gen product seg.json seg.json -o sq.json",
         [("load_polytope", "seg.json"), ("load_polytope", "seg.json"),
          ("save_polytope", "sq.json")]),
        ("chromatic poly.json --hint map.json",
         [("load_polytope", "poly.json"), ("load_charmap", "map.json")]),
        ("check poly.json map.json",
         [("load_polytope", "poly.json"), ("load_charmap", "map.json")]),
        ("decorate poly.json --preset identity-first -o if.json",
         [("load_polytope", "poly.json"), ("save_charmap", "if.json")]),
        ("resolve poly.json map.json -o r.json rm.json",
         [("load_polytope", "poly.json"), ("load_charmap", "map.json"),
          ("save_polytope", "r.json"), ("save_charmap", "rm.json")]),
    ):
        seen.clear()
        assert main(argv.split()) in (0, 2)
        assert seen == files, argv


DEEP = "[" * 100_000  # nested past the recursion limit of any interpreter


def _recursion_message(text):
    try:
        json.loads(text)
    except RecursionError as exc:  # the interpreter's own wording, which varies by version
        return str(exc)


LOAD_ERRORS = {
    "missing.json": "[Errno 2] No such file or directory: 'missing.json'",
    "malformed.json": "malformed.json: Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)",
    "zero.json": "zero.json: vectors[2]: zero vector is not allowed",
    "bin.json": "bin.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "deep.json": f"deep.json: {_recursion_message(DEEP)}",
    "dup.json": "dup.json: polytope: duplicate-vertex: vertex [0, 1, 2, 3] appears 2 times",
}
POLYTOPE_READS = [  # {} is the polytope file the command reads
    "check {} map.json", "fvector {}", "decorate {} --preset identity-first -o out.json",
    "resolve {} map.json -o out.json out-map.json", "chromatic {}", "lift-check {} map.json",
    "gen product {} poly.json -o out.json", "gen product poly.json {} -o out.json",
]
MAP_READS = [  # {} is the map file the command reads
    "check poly.json {}", "resolve poly.json {} -o out.json out-map.json",
    "chromatic poly.json --hint {}", "lift-check poly.json {}",
]
UNREADABLE = ("missing.json", "malformed.json", "bin.json", "deep.json")


@pytest.mark.parametrize("argv, broken", [
    *((line.format(f), f) for line in POLYTOPE_READS for f in (*UNREADABLE, "dup.json")),
    *((line.format(f), f) for line in MAP_READS for f in (*UNREADABLE, "zero.json")),
    # the polytope is read before the map
    ("check missing.json malformed.json", "missing.json"),
    ("lift-check malformed.json zero.json", "malformed.json"),
    ("chromatic missing.json --hint zero.json", "missing.json"),
])
def test_a_file_that_does_not_load_exits_1_naming_why(tmp_path, monkeypatch, capsys, argv, broken):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "dual-cyclic", "--dim", "4", "--facets", "5", "-o", "poly.json"]) == 0
    assert main(["decorate", "poly.json", "--preset", "identity-first", "-o", "map.json"]) == 0
    Path("malformed.json").write_text("{not json", encoding="utf-8")
    Path("bin.json").write_bytes(b"\xff\xfe")
    Path("zero.json").write_text('{"n": 4, "mode": "general", "vectors": [1, 2, 0, 4, 8]}',
                                 encoding="utf-8")
    Path("deep.json").write_text(DEEP, encoding="utf-8")
    simplex = json.loads(Path("poly.json").read_text(encoding="utf-8"))
    simplex["vertices"].append(simplex["vertices"][0])
    Path("dup.json").write_text(json.dumps(simplex), encoding="utf-8")
    capsys.readouterr()
    assert main(argv.split()) == 1
    assert capsys.readouterr() == ("", f"error: {LOAD_ERRORS[broken]}\n")
    assert not Path("out.json").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def test_python_dash_m_runs_the_console_entry_point():
    # __main__ calls cli.app, the console script's target, which exits with main's code
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "polychrome", *argv],
                              capture_output=True, env=env, check=False)

    done = run("reproduce", "main2", "--format", "json")
    assert done.returncode == 0
    assert done.stdout == (root / "tests" / "goldens" / "reproduce-main2.json").read_bytes()
    assert run("frobnicate").returncode == 1
