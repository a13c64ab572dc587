"""The genus-zero sphere complex model: boundary 2-block partitions,
disjointness, the complexes S(M_{0,s}), the caterpillar window, and the
named catalog."""

import os
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from spherecomplex import (
    FlagComplex,
    PantsDecomposition,
    SpherePartition,
    SphereSystem,
    all_spheres,
    build_caterpillar_window,
    build_genus_zero_complex,
    catalog,
    catalog_names,
    dual_of_pants,
    enumerate_pants,
    f_vector,
    is_connected,
    link_equivalence_classes,
    maximal_cliques,
    nonpants_regions,
    pants_flip_graph,
    spheres_disjoint,
)
from spherecomplex.flagcomplex import _bits
from spherecomplex.genus_zero import _clusters, _label_generators, _laminar_tree

from oracles import (label_action_automorphisms, search_isomorphism, string_label_generators,
                     tree_f_vector,
                     string_laminar_tree)


def closure(gens) -> set[tuple[int, ...]]:
    """Every product of the index permutations ``gens``, the identity
    included."""
    identity = tuple(range(len(gens[0])))
    group, todo = {identity}, [identity]
    while todo:
        h = todo.pop()
        for g in gens:
            gh = tuple(g[i] for i in h)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


def oracle_disjoint(p: SpherePartition, q: SpherePartition) -> bool:
    """Disjointness by direct case analysis on all four block pairs:
    some block of p must be nested in a block of q or vice versa."""
    full = frozenset(range(1, p.s + 1))
    blocks_p = (p.block, full - p.block)
    blocks_q = (q.block, full - q.block)
    return any(a <= b or b <= a for a in blocks_p for b in blocks_q)


class TestSpherePartition:
    def test_canonical_block_contains_one(self):
        p = SpherePartition(6, [4, 5, 6])
        assert 1 in p.block
        assert p.block == frozenset({1, 2, 3})

    def test_vertex_id_roundtrip(self):
        p = SpherePartition(6, [1, 3, 5])
        assert p.vertex_id() == "p:1,3,5|s=6"
        assert SpherePartition.from_vertex_id(p.vertex_id()) == p

    @pytest.mark.parametrize("vid", [
        "p:2,1|s=6", "p:1,02|s=6", "p: 1,2|s=6", "p:1,2,|s=6", "p:1,2|s=06",
        "p:3,4|s=6", "p:1,1,2|s=6", "p:1,2|s=+6", "p:1,2|s=\u0666", "p:|s=6", "p:1,2",
        "q:1,2|s=6", "p:1,2|s=6|s=6",
    ])
    def test_only_the_written_id_is_accepted(self, vid):
        """Another spelling of a sphere, or of no sphere, is refused:
        labels out of order, padded or repeated, a trailing comma, the
        block without label 1, a signed or non-ASCII size."""
        with pytest.raises(ValueError, match=r"^not a partition vertex id: "):
            SpherePartition.from_vertex_id(vid)

    @pytest.mark.parametrize("vid", ["p:1,9|s=5", "p:1|s=5", "p:1,2|s=3"],
                             ids=["label-above-s", "one-label", "other-block-one-label"])
    def test_well_formed_ids_of_no_sphere_are_named(self, vid):
        """Written like an id, but no sphere of s: a label above s, or a
        side with fewer than two labels; the message names the id, not
        the constructor's rule."""
        with pytest.raises(ValueError) as info:
            SpherePartition.from_vertex_id(vid)
        assert str(info.value) == "not a partition vertex id: %r" % (vid,)

    @pytest.mark.parametrize("vid, sphere", [
        ("p:1,2|s=1000000", True),
        ("p:2,3|s=1000000", False),
        ("p:1,2|s=" + "9" * 5000, False),
        ("p:1," + "2" * 5000 + "|s=9", False),
    ], ids=["large-s", "large-s-other-block", "long-size", "long-label"])
    def test_parsing_costs_nothing_linear_in_s(self, vid, sphere):
        """An id is read without building a set of size s, and an integer
        with more digits than ``int`` reads is refused like any other
        text that is not an id."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            if sphere:
                assert SpherePartition.from_vertex_id(vid).block == {1, 2}
            else:
                with pytest.raises(ValueError, match=r"^not a partition vertex id: "):
                    SpherePartition.from_vertex_id(vid)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 0.1 and peak < 2 ** 20

    def test_block_size_bounds(self):
        with pytest.raises(ValueError):
            SpherePartition(6, [1])
        with pytest.raises(ValueError):
            SpherePartition(6, [2])  # complement {1,3,4,5,6} leaves a singleton
        with pytest.raises(ValueError):
            SpherePartition(3, [1, 2])

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError):
            SpherePartition(5, [1, 7])

    @settings(max_examples=80)
    @given(st.integers(min_value=4, max_value=8), st.data())
    def test_disjointness_matches_case_analysis(self, s, data):
        spheres = all_spheres(s)
        p = data.draw(st.sampled_from(spheres))
        q = data.draw(st.sampled_from([x for x in spheres if x != p]))
        got = spheres_disjoint(p, q)
        assert got == oracle_disjoint(p, q), f"{p.vertex_id()} vs {q.vertex_id()}"
        assert got == spheres_disjoint(q, p), "disjointness must be symmetric"

    def test_equal_spheres_rejected(self):
        p = SpherePartition(5, [1, 2])
        with pytest.raises(ValueError):
            spheres_disjoint(p, p)


class TestSphereCounts:
    def test_count_formula(self):
        """Unordered proper 2-block partitions with no singleton block:
        2^(s-1) - s - 1 of them."""
        for s in range(4, 10):
            assert len(all_spheres(s)) == 2 ** (s - 1) - s - 1, f"s={s}"

    @pytest.mark.parametrize("s", [4, 5, 6, 7, 8])
    def test_f_vector_counts_trees(self, s):
        assert f_vector(build_genus_zero_complex(s)).counts == tree_f_vector(s)

    @pytest.mark.parametrize("s", range(4, 13))
    def test_tree_count_closed_forms(self, s):
        """(2s-5)!! trivalent trees, and the Euler characteristic of tree
        space, 1 + (-1)^(s-4) (s-2)!."""
        f = tree_f_vector(s)
        assert f[-1] == prod(range(1, 2 * s - 4, 2))
        assert sum((-1) ** k * x for k, x in enumerate(f)) == 1 + (-1) ** (s - 4) * factorial(s - 2)

    def test_tree_count_at_nine(self):
        assert sum(tree_f_vector(9)) == 660031

    def test_small_complexes(self, c4, c5, c6):
        assert (c4.n_vertices, c4.n_edges) == (3, 0)
        assert (c5.n_vertices, c5.n_edges) == (10, 15)
        assert c6.n_vertices == 25

    def test_vertex_ids_are_canonical(self, c6):
        for vid in c6.vertices:
            p = SpherePartition.from_vertex_id(vid)
            assert p.vertex_id() == vid

    def test_s5_is_the_petersen_graph(self, c5, petersen):
        assert search_isomorphism(c5, petersen) is not None

    def test_s5_is_triangle_free(self, c5):
        assert f_vector(c5).counts == (10, 15)

    def test_s6_face_counts(self, c6):
        assert f_vector(c6).counts == (25, 105, 105)

    def test_connected_from_five_labels(self, c5, c6):
        assert is_connected(c5) and is_connected(c6)


class TestCaterpillarWindow:
    def test_structure(self):
        win = build_caterpillar_window(3)
        c = win.complex
        assert c.n_vertices == 2 * 7
        # spine path plus one pendant leaf per spine vertex
        assert c.n_edges == 6 + 7
        assert c.adjacent("z:0", "z:1") and c.adjacent("z:-1", "w:-1")
        assert not c.adjacent("w:0", "w:1")
        assert win.frontier == frozenset({"z:-3", "z:3"})

    def test_types(self):
        win = build_caterpillar_window(2)
        assert win.is_spine("z:2") and not win.is_spine("w:0")
        assert win.spine_index("z:-2") == -2
        assert win.spine_index("w:1") == 1
        with pytest.raises(ValueError, match="not a caterpillar vertex id"):
            win.spine_index("x:1")

    def test_interior_excludes_frontier(self):
        win = build_caterpillar_window(2)
        inner = win.interior_vertices()
        assert "z:2" not in inner and "z:-2" not in inner
        assert "w:2" in inner, "leaves are interior even at the ends"

    def test_is_a_tree(self):
        win = build_caterpillar_window(4)
        assert is_connected(win.complex)
        assert win.complex.n_edges == win.complex.n_vertices - 1


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) >= {"petersen", "k33", "k3", "k13", "m11", "m04"}

    def test_petersen_shape(self):
        p = catalog("petersen")
        assert p.n_vertices == 10 and p.n_edges == 15
        assert all(p.degree(v) == 3 for v in p.vertices)
        # girth 5: no triangles, no 4-cycles
        for u, v in combinations(p.vertices, 2):
            if not p.adjacent(u, v):
                common = set(p.neighbors(u)) & set(p.neighbors(v))
                assert len(common) <= 1

    def test_k33_shape(self):
        k = catalog("k33")
        assert k.n_vertices == 6 and k.n_edges == 9
        assert all(k.degree(v) == 3 for v in k.vertices)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("dodecahedron")


class TestClusterTable:
    @pytest.mark.parametrize("s", [3, 4, 5, 6, 7, 8])
    def test_built_table_is_the_parsed_one(self, s):
        """The table built with the complex equals the one parsed, on
        first use, from the vertex ids of a copy, which keeps it."""
        c = build_genus_zero_complex(s)
        copy = FlagComplex(c.vertices, c._adj, c.meta)
        assert copy._clusters is None
        want = tuple(sum(1 << x for x in SpherePartition.from_vertex_id(v).other_block)
                     for v in c.vertices)
        assert c._clusters == want == _clusters(copy)
        assert _clusters(copy) is copy._clusters

    def test_no_id_is_parsed_after_the_build(self, monkeypatch):
        """Duals, flip graphs, label generators and link classes read
        the table kept on a built complex."""
        c = build_genus_zero_complex(6)
        P = enumerate_pants(6)[7]

        def refuse(vid):
            raise AssertionError("parsed %r" % (vid,))

        monkeypatch.setattr(SpherePartition, "from_vertex_id", refuse)
        dual_of_pants(P)
        pants_flip_graph(6)
        _label_generators(c)
        sigma = SphereSystem(c, sorted(P.members)[:1])
        link_equivalence_classes(sigma)
        nonpants_regions(sigma)

    def test_untagged_complexes_are_rejected(self, c5):
        """The one model check, in ``_clusters``: an induced copy has no
        meta, so duals, link classes and regions of a pants decomposition
        in it raise; so does a genus-zero tag without an integer s."""
        sub = c5.induced(c5.vertices)
        P = PantsDecomposition(sub, maximal_cliques(sub)[0])
        for call in (dual_of_pants, link_equivalence_classes, nonpants_regions):
            with pytest.raises(ValueError,
                               match=r"^need a genus-zero complex, not complex:10v,15e$"):
                call(P)
        for meta in ({"model": "genus-zero"}, {"model": "genus-zero", "s": "5"}):
            bad = FlagComplex(c5.vertices, c5._adj, meta)
            with pytest.raises(ValueError, match=r"^need a genus-zero complex, not meta "):
                dual_of_pants(PantsDecomposition(bad, maximal_cliques(bad)[0]))


    @pytest.mark.parametrize("vertices, message", [
        # one sphere under two spellings used to give the table (120, 120)
        (["p:1,2|s=6", "p:2,1|s=6"], "not a partition vertex id: 'p:2,1|s=6'"),
        (["p:1,2|s=5", "p:1,3|s=5"], "vertex 'p:1,2|s=5' is not a sphere of s = 6"),
    ], ids=["two-spellings", "other-s"])
    def test_table_of_a_document_needs_written_ids_of_its_s(self, vertices, message):
        c = FlagComplex(vertices, [0] * len(vertices), {"model": "genus-zero", "s": 6})
        with pytest.raises(ValueError) as info:
            _clusters(c)
        assert str(info.value) == message and c._clusters is None


class TestLaminarTree:
    @pytest.mark.parametrize("s", [5, 6, 7, 8])
    def test_every_pants_decomposition_matches_the_string_tree(self, s):
        """Clusters and regions equal those parsed from the member ids,
        for every pants decomposition."""
        c = build_genus_zero_complex(s)
        table = _clusters(c)
        for members in maximal_cliques(c):
            clusters = [table[c.index_of(v)] for v in members]
            blocks, regions = string_laminar_tree(members, s)
            assert [frozenset(_bits(b)) for b in clusters] == blocks
            assert _laminar_tree(clusters, s) == regions, members

    def test_empty_system_is_one_root_region(self):
        assert _laminar_tree([], 6) == [(None, (1, 2, 3, 4, 5, 6), ())]


class TestLabelGenerators:
    @pytest.mark.parametrize("s", [5, 6, 7, 8])
    def test_generate_all_label_permutations(self, s):
        assert len(closure(_label_generators(build_genus_zero_complex(s)))) == factorial(s)

    @pytest.mark.parametrize("s", [4, 5, 6, 7, 8])
    def test_equal_the_id_parsing_generators(self, s):
        c = build_genus_zero_complex(s)
        assert _label_generators(c) == string_label_generators(c)

    @pytest.mark.parametrize("s", [4, 5, 6])
    def test_generate_the_oracle_action(self, s):
        """At s = 4 the three pairwise-crossing spheres are isolated and
        the action factors through S3, which the generators still give."""
        c = build_genus_zero_complex(s)
        gens = _label_generators(c)
        assert all(sorted(g) == list(range(c.n_vertices)) for g in gens)
        oracle = set(label_action_automorphisms(s))
        assert closure(gens) == oracle

    def test_flipped_adjacency_bit_raises(self, c5):
        """A genus-zero tag on c5 with the edge between its first two
        vertices toggled."""
        masks = [c5._adj[0] ^ 2, c5._adj[1] ^ 1, *c5._adj[2:]]
        with pytest.raises(AssertionError, match="not an automorphism"):
            _label_generators(FlagComplex(c5.vertices, masks, c5.meta))

    def test_check_runs_under_optimize(self):
        """The automorphism check raises AssertionError itself, so
        ``python -O`` keeps it."""
        import spherecomplex
        src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
        code = (
            "from spherecomplex import FlagComplex, build_genus_zero_complex\n"
            "from spherecomplex.genus_zero import _label_generators\n"
            "c = build_genus_zero_complex(5)\n"
            "masks = [c._adj[0] ^ 2, c._adj[1] ^ 1, *c._adj[2:]]\n"
            "try:\n"
            "    _label_generators(FlagComplex(c.vertices, masks, c.meta))\n"
            "except AssertionError as exc:\n"
            "    print('AssertionError:', exc)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("AssertionError: label permutation is not an automorphism")

    @pytest.mark.parametrize("build", [lambda: catalog("petersen"),
                                       lambda: build_caterpillar_window(2).complex],
                             ids=["catalog", "caterpillar"])
    def test_other_models_rejected(self, build):
        with pytest.raises(ValueError, match="genus-zero complex"):
            _label_generators(build())
