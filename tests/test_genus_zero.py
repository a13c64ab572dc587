"""The genus-zero sphere complex model: boundary 2-block partitions,
disjointness, the complexes S(M_{0,s}), the caterpillar window, and the
named catalog."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from spherecomplex import (
    SpherePartition,
    all_spheres,
    build_caterpillar_window,
    build_genus_zero_complex,
    catalog,
    catalog_names,
    f_vector,
    is_connected,
    search_isomorphism,
    spheres_disjoint,
)


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
