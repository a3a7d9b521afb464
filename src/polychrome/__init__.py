"""Simple polytopes with GF(2) characteristic maps: construction, bad-face
resolution by truncation, and exact chromatic-number certification."""

from .charmap import (
    BadFace,
    CharMap,
    Coloring,
    LiftReport,
    bad_faces,
    induced_coloring,
    is_nonsingular_at,
    lift_determinant_report,
    preset,
    segment_map,
    stack,
)
from .chromatic import ChromaticCertificate, chromatic_number, chromatic_of_graph
from .generators import dual_cyclic, product, segment
from .pipelines import ReproduceResult, product_with_segment, replay_bad_history, reproduce
from .polytope import (
    InvariantError,
    Polytope,
    f_vector,
    facet_adjacency,
    truncate_face,
    validate,
)
from .resolution import (
    NoVectorFound,
    ResolutionReport,
    Step,
    resolution_vector,
    resolve,
)
from .serialize import (
    SchemaError,
    load_charmap,
    load_polytope,
    load_report,
    save_charmap,
    save_polytope,
    save_report,
)

__version__ = "0.1.0"

__all__ = [
    "BadFace",
    "CharMap",
    "ChromaticCertificate",
    "Coloring",
    "InvariantError",
    "LiftReport",
    "NoVectorFound",
    "Polytope",
    "ReproduceResult",
    "ResolutionReport",
    "SchemaError",
    "Step",
    "bad_faces",
    "chromatic_number",
    "chromatic_of_graph",
    "dual_cyclic",
    "f_vector",
    "facet_adjacency",
    "induced_coloring",
    "is_nonsingular_at",
    "lift_determinant_report",
    "load_charmap",
    "load_polytope",
    "load_report",
    "preset",
    "product",
    "product_with_segment",
    "replay_bad_history",
    "reproduce",
    "resolution_vector",
    "resolve",
    "save_charmap",
    "save_polytope",
    "save_report",
    "segment",
    "segment_map",
    "stack",
    "truncate_face",
    "validate",
]
