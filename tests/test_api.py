import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polychrome
from polychrome import gf2
from polychrome.polytope import hosts, require_valid
from polychrome.serialize import polytope_from_dict

ROOT = Path(__file__).parent.parent

PUBLIC = [
    "BadFace", "CharMap", "ChromaticCertificate", "Coloring", "InvariantError", "LiftReport",
    "NoVectorFound", "Polytope", "ReproduceResult", "ResolutionReport", "SchemaError", "Step",
    "bad_faces", "chromatic_number", "chromatic_of_graph", "dual_cyclic", "f_vector",
    "facet_adjacency", "induced_coloring", "is_nonsingular_at", "lift_determinant_report",
    "load_charmap", "load_polytope", "load_report", "preset", "product", "product_with_segment",
    "replay_bad_history", "reproduce", "resolution_vector", "resolve", "save_charmap",
    "save_polytope", "save_report", "segment", "segment_map", "stack", "truncate_face",
    "validate",
]


def test_the_public_surface_is_pinned():
    assert polychrome.__all__ == PUBLIC and len(PUBLIC) == 39
    for name in PUBLIC:
        assert getattr(polychrome, name).__name__ == name
    own = {name for name, f in vars(gf2).items()
           if inspect.isfunction(f) and f.__module__ == gf2.__name__ and not name.startswith("_")}
    assert own == {"rank", "parity", "circuits", "vector_str"}


def test_the_runtime_imports_only_the_standard_library():
    # a fresh interpreter, as the test extras (pytest, hypothesis) are loaded in this one
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import polychrome, polychrome.cli\n"
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(done.stdout.split())
    assert "polychrome" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"polychrome"}


def test_the_readme_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})  # the block asserts chi = 15, exact


class Int(int):
    """An int subclass: refused wherever a bool is, as neither is a plain int."""


SEGMENT = ("a", "b"), ((0,), (1,))
PENTAGON = polychrome.dual_cyclic(2, 5)
OCTAHEDRAL = polychrome.dual_cyclic(4, 8)


@pytest.mark.parametrize("x", [True, Int(1)], ids=["bool", "int-subclass"])
@pytest.mark.parametrize("call, message", [
    (lambda x: polychrome.CharMap(x, (1, 1)), "n: expected an integer width, got {x!r}"),
    (lambda x: polychrome.CharMap(2, (x, 2, 3)), "vectors[0]: expected an integer, got {x!r}"),
    (lambda x: gf2.rank([1], x), "vector width must be an integer in [1, 16], got {x!r}"),
    (lambda x: gf2.rank([x], 1), "vector 0 = {x!r} is not an integer"),
    (lambda x: gf2.parity(x), "vector must be a nonnegative integer, got {x!r}"),
    (lambda x: hosts(PENTAGON, (0, x)), "face [0, {x!r}]: facet {x!r} is not an integer"),
    (lambda x: polychrome.truncate_face(PENTAGON, (0, x)),
     "face [0, {x!r}]: facet {x!r} is not an integer"),
    (lambda x: require_valid(polychrome.Polytope(x, *SEGMENT), ""),
     "dimension: dim must be an integer, got {x!r}"),
    (lambda x: require_valid(polychrome.Polytope(1, SEGMENT[0], ((0,), (x,))), ""),
     "index-type: facet indices must be integers, got {x.__class__.__name__}"),
    (lambda x: polychrome.resolve(OCTAHEDRAL, polychrome.preset("odd-bijection", OCTAHEDRAL), x),
     "budget must be an integer at least 1, got {x!r}"),
    (lambda x: polychrome.dual_cyclic(x, 3), "sizes must be integers, got n={x!r}, m=3"),
    (lambda x: polychrome.chromatic_of_graph(x, []), "node count must be an integer, got {x!r}"),
    (lambda x: polychrome.chromatic_of_graph(2, [(0, x)]),
     "edge (0, {x!r}) has an endpoint that is not an integer"),
    (lambda x: polytope_from_dict({"dim": 1, "facets": ["a", "b"], "vertices": [[0], [x]]}),
     "polytope.vertices[1]: expected an integer, got {x!r}"),
], ids=["charmap-n", "charmap-vector", "rank-width", "rank-vector", "parity", "hosts",
        "truncate-face", "validate-dim", "validate-index", "resolve-budget", "dual-cyclic",
        "graph-nodes", "graph-edge", "load-vertex"])
def test_every_integer_input_refuses_a_bool_and_an_int_subclass(call, message, x):
    with pytest.raises(ValueError) as exc:
        call(x)
    assert str(exc.value) == message.format(x=x)
