"""Import cost: ``import spherecomplex`` loads no submodule, the CLI
loads only ``cli`` and ``serialization`` until a command runs, and each
command loads exactly the library modules it runs.  The public names
resolve lazily to the objects their modules define."""

import importlib
import os
import subprocess
import sys

import pytest

import spherecomplex
from spherecomplex import flagcomplex, rigidity

M5 = "p:1,2|s=5;p:1,2,3|s=5"
CLI = {"cli", "serialization"}

# the benchmark's CLI commands, on small inputs: which modules a command
# loads depends on its code path, not on the input size
COMMANDS = [
    (["complex", "homology", "--genus-zero", "5"], {"flagcomplex", "genus_zero", "homology"}),
    (["complex", "stats", "--genus-zero", "5"], {"flagcomplex", "genus_zero"}),
    (["rigidity", "aut", "--genus-zero", "5"], {"flagcomplex", "genus_zero", "search"}),
    (["rigidity", "verify", "--genus-zero", "5"],
     {"flagcomplex", "genus_zero", "pants", "rigidity", "search"}),
    (["pants", "flip-graph", "--s", "5", "--check-connected"],
     {"flagcomplex", "genus_zero", "pants"}),
    (["pants", "dual", "--s", "5", "--members", M5],
     {"dual", "flagcomplex", "genus_zero", "pants"}),
    (["dual", "classify", "--s", "5", "--members", M5, "--edges", "0"],
     {"dual", "flagcomplex", "genus_zero", "pants"}),
    (["whitney", "check", "--random-roundtrip", "2", "--seed", "3"],
     {"flagcomplex", "multigraph", "whitney"}),
    (["nonembed", "--source", "k33", "--target", "petersen"],
     {"flagcomplex", "genus_zero", "search"}),
    (["census", "good-pairs", "--n", "1", "--s", "4"], {"flagcomplex", "genus_zero"}),
    (["catalog"], {"flagcomplex", "genus_zero"}),
]

# the names ``spherecomplex`` exported when every module was imported
# eagerly, less ``label_action_automorphisms``, ``rank_mod_p`` and
# ``join_of``, now test oracles (``tests/oracles.py``), and
# ``connected_components`` and ``extend_lift``, deleted
PUBLIC = {
    "AMBIGUOUS_ORDER_2", "AutomorphismGroup", "CaterpillarWindow",
    "CaterpillarWitness", "ChainBoundary", "CutLabeling", "DualMultigraph",
    "EdgeBijection", "FVector", "FlagComplex", "FlipGraph", "GoodPairCensus",
    "HomologyReport", "JoinDecomposition", "LIFTED", "LiftResult", "LinkClass",
    "LinkClasses", "ManifoldSignature", "Multigraph", "NONSEPARATING",
    "OBSTRUCTED", "OVER_MAXIMAL_MAPS", "PLAIN", "PantsDecomposition",
    "RigidityCertificate", "SNFResult", "SEPARATING", "SpherePartition",
    "SphereSystem", "TransitivityError", "VertexMap", "all_spheres",
    "automorphism_group", "betti_numbers", "boundary_matrices",
    "boundary_matrix", "build_caterpillar_window", "build_genus_zero_complex",
    "build_x_sigma", "catalog", "catalog_names", "caterpillar_witness",
    "classify_link", "cliques_of_size", "complex_id", "detect_x_detectable", "dual_of_pants", "dual_to_multigraph",
    "enumerate_automorphisms", "enumerate_locally_injective_maps",
    "enumerate_pants", "f_vector", "find_k3_k13_pair",
    "find_split_pairs", "find_split_spheres", "flag_from_adjacency",
    "flip_partners", "good_pair_census", "has_cycle", "ih_flip", "is_connected",
    "is_edge_isomorphism", "is_maximal_system", "lift_edge_isomorphism",
    "link_of", "link_equivalence_classes", "maximal_cliques", "nonpants_regions",
    "pair_type", "pants_flip_graph",
    "random_connected_multigraph", "scramble", "search_embedding", "signature_of_dual",
    "slot_id", "smith_normal_form", "spheres_disjoint",
    "split_slot", "verify_rigidity",
}


def loaded_after(code: str, *argv: str) -> set[str]:
    """The ``spherecomplex`` submodules a fresh interpreter holds after
    running ``code`` with ``argv``."""
    src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
    probe = (code + "\nprint(' '.join(m[len('spherecomplex.'):] for m in sys.modules"
             " if m.startswith('spherecomplex.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestImportGraph:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import sys, spherecomplex") == set()

    def test_cli_import_loads_only_cli_and_serialization(self):
        assert loaded_after("import sys, spherecomplex.cli") == CLI

    @pytest.mark.parametrize("argv, modules", COMMANDS,
                             ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
    def test_command_loads_only_its_modules(self, argv, modules):
        code = ("import sys\nfrom spherecomplex.cli import main\n"
                "if main(sys.argv[1:]) != 0:\n    sys.exit('command failed')")
        assert loaded_after(code, *argv) == CLI | modules


class TestLazyNamespace:
    def test_public_names_are_unchanged(self):
        assert set(spherecomplex.__all__) == PUBLIC
        assert len(spherecomplex.__all__) == len(PUBLIC)

    def test_names_resolve_to_their_module_objects(self):
        for name in spherecomplex.__all__:
            module = importlib.import_module("spherecomplex." + spherecomplex._MODULE_OF[name])
            value = getattr(spherecomplex, name)
            assert value is getattr(module, name), name
            # classes and functions live in the module the table names
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
            assert vars(spherecomplex)[name] is value, name

    def test_dir_lists_every_public_name(self):
        assert set(dir(spherecomplex)) >= set(spherecomplex.__all__) | {"__all__", "__version__"}

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from spherecomplex import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(spherecomplex.__all__)

    def test_unknown_attribute_raises_and_names_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            spherecomplex.no_such_name

    def test_complex_id_moved_to_flagcomplex(self):
        assert rigidity.complex_id is flagcomplex.complex_id is spherecomplex.complex_id
