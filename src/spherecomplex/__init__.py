"""Finite combinatorial machinery for sphere complexes of doubled
handlebodies: genus-zero partition models, pants decompositions and flip
graphs, dual multigraphs with link classification, edge-isomorphism
lifting, integer simplicial homology, and exhaustive rigidity
certification.

Importing the package loads none of its modules: each public name is
imported from the module that defines it on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dual": ("DualMultigraph", "JoinDecomposition", "classify_link", "dual_of_pants",
             "ih_flip", "signature_of_dual", "slot_id", "split_slot"),
    "flagcomplex": ("FVector", "FlagComplex", "cliques_of_size", "complex_id",
                    "f_vector", "flag_from_adjacency", "has_cycle", "is_connected",
                    "link_of", "maximal_cliques"),
    "genus_zero": ("NONSEPARATING", "SEPARATING", "CaterpillarWindow", "CutLabeling",
                   "GoodPairCensus", "ManifoldSignature", "SpherePartition", "all_spheres",
                   "build_caterpillar_window", "build_genus_zero_complex", "catalog",
                   "catalog_names", "good_pair_census", "spheres_disjoint"),
    "homology": ("ChainBoundary", "HomologyReport", "SNFResult", "betti_numbers",
                 "boundary_matrices", "boundary_matrix", "smith_normal_form"),
    "multigraph": ("Multigraph", "dual_to_multigraph", "random_connected_multigraph",
                   "scramble"),
    "pants": ("FlipGraph", "PantsDecomposition", "SphereSystem", "enumerate_pants",
              "flip_partners", "is_maximal_system", "pants_flip_graph"),
    "rigidity": ("OVER_MAXIMAL_MAPS", "PLAIN", "CaterpillarWitness", "LinkClass",
                 "LinkClasses", "RigidityCertificate", "TransitivityError",
                 "build_x_sigma", "caterpillar_witness", "detect_x_detectable",
                 "find_split_pairs", "find_split_spheres", "link_equivalence_classes",
                 "nonpants_regions", "verify_rigidity"),
    "search": ("AutomorphismGroup", "VertexMap", "automorphism_group",
               "enumerate_automorphisms", "enumerate_locally_injective_maps",
               "search_embedding"),
    "whitney": ("AMBIGUOUS_ORDER_2", "LIFTED", "OBSTRUCTED", "EdgeBijection",
                "LiftResult", "find_k3_k13_pair", "is_edge_isomorphism",
                "lift_edge_isomorphism", "pair_type"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
