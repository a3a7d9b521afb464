import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import polychrome
from polychrome import gf2

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
