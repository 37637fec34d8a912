"""Canonical polyhedral decompositions of cusped hyperbolic manifolds
with totally geodesic boundary.

Two independent constructions are provided and cross-validated: the
Minkowski-space convex hull of the decorated horoball-center orbit, and
the dual of the cut locus of the decorations.  Quotients by the
boundary-wall reflections produce mixed decompositions whose cells are
ideal or singly-truncated polyhedra.
"""

from .minkowski import (CausalClass, GeometryError, Model, ModelPoint,
                        classify, hyperbolic_distance, is_isometry,
                        lorentz_product, model_convert)
from .group import (GroupSpec, OrbitPoint, OrbitSet, orbit, validate_group,
                    validate_reflection)
from .decorations import horoball_distance, shadow_radius
from .ep_hull import (Decomposition, HullFace, IdealCell, assemble_decomposition,
                      certified_faces, count_face_classes, dihedral_angles,
                      hull_faces, project_face, stability_certificate,
                      support_vector)
from .doubling import (MixedCell, MixedDecomposition, check_hull_symmetry,
                       polar_vertex, quotient_classify, symmetrize_decorations,
                       symmetry_direction_check)
from .cutlocus import (CutComplex, ReturnPath, cross_validate,
                       cut_locus_complex, dual_decomposition,
                       enumerate_return_paths, return_pairs)
from .io_cli import ManifoldSpec, RunReport, emit, load_spec, run

# The public API.  Besides the pipeline (load_spec, run, emit) and its
# stages, it holds the paper's formulas that a run does not call but
# the acceptance suite checks: shadow_radius, the model conversions,
# hyperbolic_distance, dihedral_angles and symmetry_direction_check.
# tests/test_reachability.py fails on a function in the package that a
# run never enters unless it is declared here or allowlisted there.
__all__ = [
    "CausalClass", "GeometryError", "Model", "ModelPoint", "classify",
    "hyperbolic_distance", "is_isometry", "lorentz_product", "model_convert",
    "GroupSpec", "OrbitPoint", "OrbitSet", "orbit", "validate_group",
    "validate_reflection",
    "horoball_distance", "shadow_radius",
    "Decomposition", "HullFace", "IdealCell", "assemble_decomposition",
    "certified_faces", "count_face_classes", "dihedral_angles", "hull_faces",
    "project_face", "stability_certificate", "support_vector",
    "MixedCell", "MixedDecomposition", "check_hull_symmetry", "polar_vertex",
    "quotient_classify", "symmetrize_decorations", "symmetry_direction_check",
    "CutComplex", "ReturnPath", "cross_validate", "cut_locus_complex",
    "dual_decomposition", "enumerate_return_paths", "return_pairs",
    "ManifoldSpec", "RunReport", "emit", "load_spec", "run",
]

__version__ = "0.1.0"
