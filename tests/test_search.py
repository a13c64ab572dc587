"""Backtracking search: embeddings, isomorphisms, automorphism groups,
and locally injective map enumeration.

Automorphism counts and element sets are cross-checked against
networkx's VF2 matcher, and the groups of fixed complexes against
digests recorded from the element-listing implementation; embeddings and locally injective maps against brute force over all
vertex assignments on small instances.
"""

import hashlib
from itertools import permutations, product
from math import factorial, prod

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from spherecomplex import (
    FlagComplex,
    VertexMap,
    automorphism_group,
    build_caterpillar_window,
    build_genus_zero_complex,
    catalog,
    enumerate_automorphisms,
    enumerate_locally_injective_maps,
    flag_from_adjacency,
    maximal_cliques,
    search_embedding,
)
from spherecomplex.search import _dist2_masks, _placements, _stabiliser_chain

from oracles import _iso_precheck, search_isomorphism


def to_nx(c: FlagComplex) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(c.vertices)
    g.add_edges_from(c.edges())
    return g


def oracle_embeds(src: FlagComplex, dst: FlagComplex) -> bool:
    """Try every injection of the source vertices into the target."""
    for images in permutations(dst.vertices, src.n_vertices):
        phi = dict(zip(src.vertices, images))
        if all(dst.adjacent(phi[u], phi[v]) for u, v in src.edges()):
            return True
    return src.n_vertices == 0


def small_graph(draw, lo, hi, prefix):
    n = draw(st.integers(min_value=lo, max_value=hi))
    vs = ["%s%d" % (prefix, i) for i in range(n)]
    pairs = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    return flag_from_adjacency(vs, pairs)


sources = st.composite(lambda draw: small_graph(draw, 1, 4, "s"))
targets = st.composite(lambda draw: small_graph(draw, 1, 6, "t"))
graphs7 = st.composite(lambda draw: small_graph(draw, 1, 7, "g"))


@st.composite
def graph_pairs(draw):
    """A graph and a relabelled copy, with one vertex pair's adjacency
    toggled half of the time (so the two may or may not be isomorphic)."""
    g = draw(graphs7())
    n = g.n_vertices
    perm = draw(st.permutations(range(n)))
    ren = {v: "h%d" % perm[i] for i, v in enumerate(g.vertices)}
    pairs = {frozenset((ren[u], ren[v])) for u, v in g.edges()}
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        pairs ^= {frozenset(("h%d" % i, "h%d" % j))}
    h = flag_from_adjacency(["h%d" % i for i in range(n)],
                            [tuple(sorted(p)) for p in pairs])
    return g, h


def cycle(n, prefix):
    vs = ["%s%d" % (prefix, i) for i in range(n)]
    return vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)]


class TestVertexMap:
    def test_simplicial_and_injective_flags(self, petersen):
        ident = VertexMap(petersen, petersen, {v: v for v in petersen.vertices})
        assert ident.is_simplicial() and ident.is_injective()
        assert ident.is_locally_injective()

    def test_collapsing_an_edge_is_simplicial_but_not_locally_injective(self):
        k3 = catalog("k3")
        m = VertexMap(k3, k3, {"t1": "t1", "t2": "t1", "t3": "t3"})
        assert m.is_simplicial(), "vertex collapses are allowed"
        assert not m.is_locally_injective()

    def test_locally_injective_but_not_injective(self):
        """Wrapping a 6-path around a triangle is injective on every
        closed star but not globally."""
        path = flag_from_adjacency(
            ["a", "b", "c", "d", "e", "f"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")])
        k3 = catalog("k3")
        wrap = {"a": "t1", "b": "t2", "c": "t3", "d": "t1", "e": "t2", "f": "t3"}
        m = VertexMap(path, k3, wrap)
        assert m.is_simplicial()
        assert m.is_locally_injective()
        assert not m.is_injective()

    def test_missing_vertex_rejected(self, petersen):
        with pytest.raises(ValueError):
            VertexMap(petersen, petersen, {"k:12": "k:12"})

    @pytest.mark.parametrize("assignment, message", [
        ({"t1": "t1", "t2": "t2"}, "not total"),
        ({"t1": "t1", "t2": "t2", "t3": "nope"}, "unknown target vertex"),
        ({"t1": "t1", "t2": "t2", "t3": "t3", "nope": "t1"}, "unknown source vertex"),
    ], ids=["non-total", "unknown-target", "unknown-source"])
    def test_public_constructor_checks_every_assignment(self, assignment, message):
        """Engine maps skip the checks; the public constructor keeps them."""
        k3 = catalog("k3")
        with pytest.raises(ValueError, match=message):
            VertexMap(k3, k3, assignment)

    def test_engine_maps_equal_checked_maps(self, petersen):
        for m in enumerate_automorphisms(petersen):
            assert m == VertexMap(petersen, petersen, m.assignment)


class TestEmbedding:
    @settings(max_examples=60)
    @given(sources(), targets())
    def test_matches_brute_force(self, src, dst):
        found = search_embedding(src, dst)
        assert (found is not None) == oracle_embeds(src, dst)
        if found is not None:
            assert found.is_injective() and found.is_simplicial()

    def test_k33_does_not_embed_in_petersen(self, petersen):
        k33 = catalog("k33")
        assert search_embedding(k33, petersen) is None
        assert search_embedding(k33, petersen, use_acyclicity_shortcut=False) is None

    def test_vertex_count_precheck(self, petersen):
        k33 = catalog("k33")
        assert petersen.n_vertices > k33.n_vertices
        assert search_embedding(petersen, k33) is None

    def test_acyclicity_shortcut_agrees_on_tree_target(self, petersen):
        win = build_caterpillar_window(4)
        with_shortcut = search_embedding(petersen, win.complex)
        without = search_embedding(petersen, win.complex,
                                   use_acyclicity_shortcut=False)
        assert with_shortcut is None and without is None

    def test_k13_embeds_in_petersen(self, petersen):
        m = search_embedding(catalog("k13"), petersen)
        assert m is not None, "a 3-star sits inside any cubic graph"

    def test_self_check_raises_without_assert(self, petersen, monkeypatch):
        """The closing check raises AssertionError itself, so ``python -O``
        keeps it."""
        monkeypatch.setattr(VertexMap, "is_simplicial", lambda m: False)
        with pytest.raises(AssertionError, match="not an embedding"):
            search_embedding(catalog("k13"), petersen)


class TestIsomorphism:
    def test_petersen_self(self, petersen):
        assert search_isomorphism(petersen, petersen) is not None

    def test_distinguishes_k33_from_petersen(self, petersen):
        assert search_isomorphism(catalog("k33"), petersen) is None

    @settings(max_examples=60)
    @given(graph_pairs())
    def test_matches_networkx(self, pair):
        g, h = pair
        m = search_isomorphism(g, h)
        assert (m is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))
        if m is not None:
            assert m.is_injective()
            assert sorted(tuple(sorted((m[u], m[v]))) for u, v in g.edges()) == h.edges()

    def test_c8_is_not_two_c4(self):
        """Same vertex and edge counts, degrees and f-vector, so the
        precheck passes and the search alone must refute it."""
        c8 = flag_from_adjacency(*cycle(8, "a"))
        va, ea = cycle(4, "b")
        vb, eb = cycle(4, "c")
        two_c4 = flag_from_adjacency(va + vb, ea + eb)
        assert _iso_precheck(c8, two_c4)
        assert search_isomorphism(c8, two_c4) is None
        assert search_isomorphism(two_c4, c8) is None

    def test_relabelled_copy(self, petersen):
        renamed = flag_from_adjacency(
            ["x" + v for v in petersen.vertices],
            [("x" + u, "x" + v) for u, v in petersen.edges()])
        m = search_isomorphism(petersen, renamed)
        assert m is not None and m.is_injective()


class TestAutomorphisms:
    def test_petersen_count_matches_vf2(self, petersen):
        auts = enumerate_automorphisms(petersen)
        gm = nx.algorithms.isomorphism.GraphMatcher(to_nx(petersen), to_nx(petersen))
        assert len(auts) == sum(1 for _ in gm.isomorphisms_iter()) == 120

    def test_k33_count_matches_vf2(self):
        k33 = catalog("k33")
        auts = enumerate_automorphisms(k33)
        gm = nx.algorithms.isomorphism.GraphMatcher(to_nx(k33), to_nx(k33))
        assert len(auts) == sum(1 for _ in gm.isomorphisms_iter()) == 72

    @settings(max_examples=60)
    @given(graphs7())
    def test_count_matches_vf2_on_random_graphs(self, g):
        auts = enumerate_automorphisms(g)
        gm = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
        assert len(auts) == sum(1 for _ in gm.isomorphisms_iter())
        assert len({a.key() for a in auts}) == len(auts)

    def test_group_closure(self, petersen):
        g = automorphism_group(petersen)
        assert g.order == 120
        keys = {a.key() for a in enumerate_automorphisms(petersen)}
        assert len(keys) == 120

    def test_generators_generate(self, petersen):
        g = automorphism_group(petersen)
        assert 1 <= len(g.generators) < g.order

    @pytest.mark.parametrize("n", [256, 300])
    @pytest.mark.parametrize("closed", [True, False], ids=["cycle", "path"])
    def test_dihedral_groups_either_side_of_the_byte_rows(self, n, closed):
        """The cycle's automorphisms are its n rotations and n
        reflections, the path's the identity and the reversal, as bytes
        rows at 256 vertices and index tuples at 300.  The greedy walk
        picks the first two reflections of the cycle and the reversal of
        the path, and they generate the group."""
        vs = ["v%03d" % i for i in range(n)]
        pairs = list(zip(vs, vs[1:])) + ([(vs[-1], vs[0])] if closed else [])
        c = flag_from_adjacency(vs, pairs)
        if closed:
            dihedral = [tuple((k + e * i) % n for i in range(n))
                        for k in range(n) for e in (1, -1)]
            first_gens = [tuple(-i % n for i in range(n)), tuple((1 - i) % n for i in range(n))]
        else:
            dihedral = [tuple(range(n)), tuple(range(n - 1, -1, -1))]
            first_gens = dihedral[1:]
        expected = sorted(dihedral)
        assert len(set(expected)) == len(expected) == (2 * n if closed else 2)

        def indices(maps):
            return [tuple(map(c.index_of, m.key())) for m in maps]

        group = automorphism_group(c)
        assert indices(enumerate_automorphisms(c)) == expected
        gens = indices(group.generators)
        assert gens == first_gens
        closure, queue = {tuple(range(n))}, [tuple(range(n))]
        while queue:
            a = queue.pop()
            for g in gens:
                b = tuple(map(g.__getitem__, a))
                if b not in closure:
                    closure.add(b)
                    queue.append(b)
        assert len(closure) == group.order == len(expected)
        assert sorted(closure) == expected

    @staticmethod
    def assert_matches_vf2(c: FlagComplex):
        """The chain's order and element set against VF2's isomorphisms."""
        gm = nx.algorithms.isomorphism.GraphMatcher(to_nx(c), to_nx(c))
        vf2 = {tuple(iso[v] for v in c.vertices) for iso in gm.isomorphisms_iter()}
        group = automorphism_group(c)
        assert group.order == len(vf2)
        assert [a.key() for a in enumerate_automorphisms(c)] == sorted(vf2)

    @settings(max_examples=60)
    @given(graphs7())
    def test_chain_matches_vf2_on_random_graphs(self, g):
        self.assert_matches_vf2(g)

    @settings(max_examples=60)
    @given(st.composite(lambda draw: small_graph(draw, 1, 3, "a"))(),
           st.composite(lambda draw: small_graph(draw, 1, 4, "b"))())
    def test_chain_matches_vf2_on_disjoint_unions(self, g, h):
        """Two random graphs side by side: disconnected, often with
        isolated vertices and isomorphic components."""
        self.assert_matches_vf2(flag_from_adjacency(
            g.vertices + h.vertices, list(g.edges()) + list(h.edges())))

    @pytest.mark.parametrize("n", range(6))
    def test_edgeless_graphs_and_the_empty_complex(self, n):
        """n isolated vertices: the full symmetric group, one element
        for the empty complex (n = 0)."""
        self.assert_matches_vf2(flag_from_adjacency(["v%d" % i for i in range(n)], []))


def index_digest(c: FlagComplex, maps) -> str:
    """sha256 of the maps as index tuples, in the given order."""
    return hashlib.sha256(repr([tuple(map(c.index_of, m.key())) for m in maps]).encode()).hexdigest()


def complex_named(name: str) -> FlagComplex:
    return build_genus_zero_complex(int(name)) if name.isdigit() else catalog(name)


class TestFrozenGroups:
    """Digests recorded from the element-listing implementation that the
    stabiliser chain replaced: the same elements in the same canonical
    order, and the same greedy generators, which `rigidity aut` prints."""

    ELEMENTS = {
        "5": "3c337e55cc8f51b53b14cfce5e71b32979c963651f2190aa53dfbde5527622ab",
        "6": "30e784c7ebe4f83f18643ad306cf03c468a89a71e5668675ad263043901acf10",
        "7": "f3024f8fdc8963b7c81369a115817deb8e191699dc40a945c3826c97d70f3c01",
    }
    GENERATORS = {
        "5": "82308ef6e8f85b5fe7ad84b5d811b27e5866c464e46cafcd8925f33223e1f08a",
        "6": "385cd328a362e5d6e57a23298dd916d30168ee573074464380f8130570e46f77",
        "7": "965df8eacc0bb3774a80cd22a48fa85f0b2fc4e87ef88eba7c5a894e84c71b60",
        "8": "545bbab953ec1452388489eed94da19acd1f687b3bbea0a5b800dcd746c7de21",
        "petersen": "fb0fbe2179818fcce7264aedd8557521eccd153abcbcf6506079c10e776ece82",
        "k33": "7b732b74ca3f4e6cfb909d592fa04920ccb2e2ba419c52990e937aea2c15db88",
    }

    @pytest.mark.parametrize("name", sorted(ELEMENTS))
    def test_elements(self, name):
        c = complex_named(name)
        assert index_digest(c, enumerate_automorphisms(c)) == self.ELEMENTS[name]

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generators(self, name):
        c = complex_named(name)
        assert index_digest(c, automorphism_group(c).generators) == self.GENERATORS[name]

    def test_order_at_eight_builds_no_element_list(self):
        """Above ``ELEMENT_CAP`` the order comes from the chain alone:
        no elements and no generators are built."""
        group = automorphism_group(build_genus_zero_complex(8))
        assert group.order == 40320
        assert group._kept is None and group._generators is None


class TestStabiliserChain:
    @pytest.mark.parametrize("s, orbits, searches", [
        (5, [10, 3, 2, 2], 4),
        (6, [15, 6, 4, 2], 7),
        (7, [21, 10, 6, 2, 2], 8),
        (8, [28, 15, 8, 3, 2, 2], 10),
    ])
    def test_orbits_and_search_counts(self, s, orbits, searches):
        """The orbit lengths multiply to s!, and the number of first-hit
        searches is exact: it guards the adjacency-to-base filter and
        the orbit closure against regression."""
        chain, n = _stabiliser_chain(build_genus_zero_complex(s))
        assert [len(t) for t in chain] == orbits
        assert n == searches
        assert prod(orbits) == factorial(s)


class TestLocallyInjectiveMaps:
    def oracle(self, X: FlagComplex, target: FlagComplex, require_maximal: bool):
        """Brute force; over-maximal maps carry every maximal clique of
        X onto a maximal clique of the target."""
        target_maximal = set(maximal_cliques(target))
        out = []
        for images in product(target.vertices, repeat=X.n_vertices):
            phi = dict(zip(X.vertices, images))
            m = VertexMap(X, target, phi)
            if not (m.is_simplicial() and m.is_locally_injective()):
                continue
            if require_maximal and not all(
                    tuple(sorted(phi[v] for v in q)) in target_maximal
                    for q in maximal_cliques(X)):
                continue
            out.append(m.key())
        return sorted(out)

    @settings(max_examples=50)
    @given(sources(), st.composite(lambda draw: small_graph(draw, 1, 5, "t"))(),
           st.booleans())
    def test_matches_brute_force(self, X, target, require_maximal):
        got = sorted(m.key() for m in enumerate_locally_injective_maps(
            X, target, require_maximal, maximal_cliques(X)))
        assert got == self.oracle(X, target, require_maximal)

    def test_path_wraps_around_a_triangle(self):
        """Maps injective on closed stars need not be injective: the
        6-path has 3 * 2 maps into K3, each fixed by its first edge."""
        path = flag_from_adjacency(
            ["a", "b", "c", "d", "e", "f"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")])
        maps = enumerate_locally_injective_maps(path, catalog("k3"))
        assert len(maps) == 6
        assert not any(m.is_injective() for m in maps)

    def test_all_results_validate(self, petersen):
        star = petersen.induced(["k:12", "k:34", "k:35", "k:45"])
        maps = enumerate_locally_injective_maps(star, petersen)
        assert maps, "a star must map somewhere"
        for m in maps:
            assert m.is_simplicial() and m.is_locally_injective()

    def test_require_maximal_needs_cliques(self, petersen):
        with pytest.raises(ValueError):
            enumerate_locally_injective_maps(petersen, petersen, require_maximal=True)

    def test_require_maximal_rejects_a_non_clique(self, petersen):
        with pytest.raises(ValueError, match="not a clique"):
            enumerate_locally_injective_maps(petersen, petersen, require_maximal=True,
                                             ambient_maximal_cliques=[("k:12", "k:13")])


class TestFirstImageMask:
    """Per-vertex candidate masks, which generalise the old first-image
    mask: they replace degree feasibility, which only prunes, so any
    masks must give exactly the masked subset of the unrestricted
    search."""

    @settings(max_examples=80)
    @given(graphs7(), graphs7(),
           st.lists(st.one_of(st.just((1 << 7) - 1), st.integers(0, (1 << 7) - 1)),
                    min_size=7, max_size=7),
           st.booleans())
    def test_keeps_exactly_the_masked_placements(self, src, dst, masks, local):
        """Restricting every source vertex to its mask yields the
        unrestricted placements whose every image lies in its vertex's
        mask, in the same order, for injective and for locally injective
        placements."""
        scope = _dist2_masks(src) if local else None
        masks = [m & ((1 << dst.n_vertices) - 1) for m in masks[:src.n_vertices]]
        want = [p for p in _placements(src, dst, scope)
                if all(m >> j & 1 for m, j in zip(masks, p))]
        assert list(_placements(src, dst, scope, masks)) == want
