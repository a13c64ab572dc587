"""Import cost: ``import spherecomplex`` loads no submodule, the CLI
loads only ``cli`` and ``serialization`` until a command runs, and each
command loads exactly its handler module and the library modules it
runs.  No module and no command loads ``dataclasses``, ``inspect``,
``importlib.resources`` or OpenSSL's ``_hashlib``, which cost a fresh
process tens of milliseconds.  The public names resolve lazily to the
objects their modules define."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import spherecomplex
from spherecomplex import flagcomplex, rigidity

M5 = "p:1,2|s=5;p:1,2,3|s=5"
CLI = {"cli", "serialization"}
LIBRARY = ["cli", "commands.catalog", "commands.complex", "commands.pants",
           "commands.rigidity", "commands.whitney", "dual", "flagcomplex", "genus_zero",
           "homology", "multigraph", "pants", "rigidity", "search", "serialization", "whitney"]
# standard-library modules no import or command may load
HEAVY = ("dataclasses", "inspect", "importlib.resources", "_hashlib")
RUN_MAIN = ("import sys\nfrom spherecomplex.cli import main\n"
            "if main(sys.argv[1:]) != 0:\n    sys.exit('command failed')")
RUN_HELP = ("import sys\nfrom spherecomplex.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            "    if exc.code != 0:\n        raise\nelse:\n    sys.exit('no help printed')")

# the benchmark's CLI commands, on small inputs: which modules a command
# loads depends on its code path, not on the input size
COMMANDS = [
    (["complex", "homology", "--genus-zero", "5"],
     {"commands.complex", "flagcomplex", "genus_zero", "homology"}),
    (["complex", "stats", "--genus-zero", "5"], {"commands.complex", "flagcomplex", "genus_zero"}),
    (["rigidity", "aut", "--genus-zero", "5"],
     {"commands.rigidity", "flagcomplex", "genus_zero", "search"}),
    (["rigidity", "verify", "--genus-zero", "5"],
     {"commands.rigidity", "flagcomplex", "genus_zero", "pants", "rigidity", "search"}),
    (["pants", "flip-graph", "--s", "5", "--check-connected"],
     {"commands.pants", "flagcomplex", "genus_zero", "pants"}),
    (["pants", "dual", "--s", "5", "--members", M5],
     {"commands.pants", "dual", "flagcomplex", "genus_zero", "pants"}),
    (["dual", "classify", "--s", "5", "--members", M5, "--edges", "0"],
     {"commands.pants", "dual", "flagcomplex", "genus_zero", "pants"}),
    (["whitney", "check", "--random-roundtrip", "2", "--seed", "3"],
     {"commands.whitney", "flagcomplex", "multigraph", "whitney"}),
    (["nonembed", "--source", "k33", "--target", "petersen"],
     {"commands.catalog", "flagcomplex", "genus_zero", "search"}),
    (["census", "good-pairs", "--n", "1", "--s", "4"],
     {"commands.catalog", "flagcomplex", "genus_zero"}),
    (["catalog"], {"commands.catalog", "flagcomplex", "genus_zero"}),
]
# ``catalog``'s input digest, on every supported interpreter
CATALOG = "sha256:d4c7cbbb1a1c3208e7801270b05ec3ee7ad067ee13c5c9cb897e532490aa5230"
# help texts come from the parser alone
HELP = [["--help"], ["rigidity", "--help"], ["rigidity", "verify", "--help"]]

# the names ``spherecomplex`` exported when every module was imported
# eagerly, less ``label_action_automorphisms``, ``rank_mod_p`` and
# ``join_of``, now test oracles (``tests/oracles.py``), and
# ``connected_components`` and ``extend_lift``, deleted
PUBLIC = {
    "AMBIGUOUS_ORDER_2", "AutomorphismGroup", "CaterpillarWindow",
    "CaterpillarWitness", "ChainBoundary", "CutLabeling", "DualMultigraph",
    "EdgeBijection", "FVector", "FlagComplex", "FlipGraph", "GoodPairCensus",
    "HomologyReport", "JoinDecomposition", "LIFTED", "LiftResult", "LinkClass",
    "LinkClasses", "ManifoldSignature", "MapOrbit", "Multigraph", "NONSEPARATING",
    "OBSTRUCTED", "OVER_MAXIMAL_MAPS", "PLAIN", "PantsDecomposition",
    "RigidityCertificate", "SNFResult", "SEPARATING", "SpherePartition",
    "SphereSystem", "TransitivityError", "VertexMap", "all_spheres",
    "automorphism_group", "betti_numbers", "boundary_matrices",
    "boundary_matrix", "build_caterpillar_window", "build_genus_zero_complex",
    "build_x_sigma", "catalog", "catalog_names", "caterpillar_witness",
    "certificate_extensions", "classify_link", "cliques_of_size", "complex_id", "detect_x_detectable", "dual_of_pants", "dual_to_multigraph",
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


def fresh_run(code: str, *argv: str,
              flags: tuple[str, ...] = ()) -> tuple[set[str], set[str]]:
    """The ``spherecomplex`` submodules a fresh interpreter (started with
    ``flags``) holds after running ``code`` with ``argv``, and the
    ``HEAVY`` modules it loaded that were not loaded at start-up."""
    src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
    probe = ("import sys\nheavy = [m for m in %r if m not in sys.modules]\n" % (HEAVY,)
             + code + "\nprint(' '.join(m[len('spherecomplex.'):] for m in sys.modules"
             " if m.startswith('spherecomplex.')))\n"
             "print(' '.join(m for m in heavy if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, *flags, "-c", probe, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, heavy = proc.stdout.splitlines()[-2:]
    return set(modules.split()), set(heavy.split())


def loaded_after(code: str, *argv: str) -> set[str]:
    """The ``spherecomplex`` submodules a fresh interpreter holds after
    running ``code`` with ``argv``; it loaded no ``HEAVY`` module."""
    modules, heavy = fresh_run(code, *argv)
    assert heavy == set()
    return modules


class TestImportGraph:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import sys, spherecomplex") == set()

    def test_cli_import_loads_only_cli_and_serialization(self):
        assert loaded_after("import sys, spherecomplex.cli") == CLI

    @pytest.mark.parametrize("argv, modules", COMMANDS,
                             ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
    def test_command_loads_only_its_modules(self, argv, modules):
        # the package ``commands`` holds one handler module per group
        assert loaded_after(RUN_MAIN, *argv) == CLI | {"commands"} | modules

    def test_whole_parser_loads_no_handler(self):
        code = "from spherecomplex.cli import build_parser\nbuild_parser()"
        assert loaded_after(code) == CLI

    @pytest.mark.parametrize("argv", HELP, ids=" ".join)
    def test_help_loads_no_handler(self, argv):
        assert loaded_after(RUN_HELP, *argv) == CLI


class TestHeavyStdlib:
    """Under ``python -S`` no site hook has loaded any ``HEAVY`` module
    before the probe starts, so each one a module or command loads shows."""

    @pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS],
                             ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
    def test_command_loads_none(self, argv):
        assert fresh_run(RUN_MAIN, *argv, flags=("-S",))[1] == set()

    def test_reading_a_document_loads_none(self, tmp_path):
        """A reader checks its document against a schema it opens as a
        file, not through ``importlib.resources``."""
        doc = tmp_path / "k2.json"
        doc.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')
        argv = ("complex", "build", "--input", str(doc))
        assert fresh_run(RUN_MAIN, *argv, flags=("-S",))[1] == set()

    def test_digest_falls_back_to_hashlib(self):
        """Without ``_sha2`` and ``_sha256`` the digest comes from
        ``hashlib``, and it is the same."""
        code = ("import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                "from spherecomplex.cli import _digest\n"
                "if _digest('catalog', {}) != %r:\n    sys.exit('digest changed')" % CATALOG)
        assert "cli" in fresh_run(code)[0]

    @pytest.mark.parametrize("module", LIBRARY)
    def test_module_loads_none(self, module):
        modules, heavy = fresh_run("import spherecomplex.%s" % module, flags=("-S",))
        assert module in modules and heavy == set()

    def test_library_list_is_complete(self):
        package = pathlib.Path(spherecomplex.__file__).parent
        assert sorted(".".join(path.relative_to(package).with_suffix("").parts)
                      for path in package.rglob("*.py") if path.name != "__init__.py") == LIBRARY


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
