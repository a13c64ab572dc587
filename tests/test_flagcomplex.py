"""Flag complexes: construction, links, joins, clique enumeration,
f-vectors, and the connectivity helpers.

The clique enumerators are cross-checked against a brute-force oracle
that tests every vertex subset directly.
"""

import os
import subprocess
import sys
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from spherecomplex import (
    FlagComplex,
    catalog,
    cliques_of_size,
    connected_components,
    f_vector,
    flag_from_adjacency,
    has_cycle,
    is_connected,
    join_of,
    link_of,
    maximal_cliques,
)


def random_graph(draw, max_n=8):
    """Hypothesis helper: a small graph as (vertices, pairs)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    vs = ["v%d" % i for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((vs[i], vs[j]))
    return vs, pairs


graphs = st.composite(random_graph)


def oracle_maximal_cliques(c: FlagComplex) -> list[tuple[str, ...]]:
    """All subsets, filtered for cliqueness and maximality.  Mirrors the
    documented boundary convention: the empty complex has the empty
    clique as its unique maximal clique."""
    vs = c.vertices
    if not vs:
        return [()]
    cliques = [frozenset(sub) for k in range(1, len(vs) + 1)
               for sub in combinations(vs, k) if c.is_clique(sub)]
    out = []
    for q in cliques:
        if not any(q < r for r in cliques):
            out.append(tuple(sorted(q)))
    return sorted(out)


class TestConstruction:
    def test_symmetrized_and_deduplicated(self):
        c = flag_from_adjacency(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "b")])
        assert c.n_edges == 1
        assert c.adjacent("a", "b") and c.adjacent("b", "a")
        assert not c.adjacent("a", "c")

    def test_vertices_sorted_canonically(self):
        c = flag_from_adjacency(["b", "a", "c"], [])
        assert c.vertices == ("a", "b", "c")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            flag_from_adjacency(["a"], [("a", "zz")])

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            flag_from_adjacency(["a", "b"], [("a", "a")])

    @pytest.mark.parametrize("vertices, masks, message", [
        (["a", "a"], [0, 0], "duplicate vertex ids"),
        (["b", "a"], [0, 0], "vertices not in canonical order"),
        (["a", "b"], [0b100, 0], "adjacency mask out of range"),
        (["a", "b"], [0b01, 0], "self-adjacency is not allowed"),
        (["a", "b"], [0b10, 0], "adjacency not symmetric"),
    ], ids=["duplicate", "unsorted", "out-of-range", "self-adjacent", "asymmetric"])
    def test_raw_constructor_validates(self, vertices, masks, message):
        with pytest.raises(ValueError, match=message):
            FlagComplex(vertices, masks)

    def test_validation_runs_under_optimize(self):
        """The constructor's checks are not asserts, so ``python -O``
        keeps them."""
        import spherecomplex
        src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
        code = (
            "from spherecomplex import FlagComplex\n"
            "for vs, masks in [(['b', 'a'], [0, 0]), (['a', 'b'], [0b10, 0]),\n"
            "                  (['a', 'b'], [0b01, 0])]:\n"
            "    try:\n"
            "        FlagComplex(vs, masks)\n"
            "    except ValueError as exc:\n"
            "        print('ValueError:', exc)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "ValueError: vertices not in canonical order",
            "ValueError: adjacency not symmetric",
            "ValueError: self-adjacency is not allowed",
        ]

    def test_neighbors_and_degree(self):
        c = catalog("k13")
        assert c.neighbors("c") == ("l1", "l2", "l3")
        assert c.degree("c") == 3 and c.degree("l1") == 1

    def test_induced_subcomplex(self, petersen):
        sub = petersen.induced(["k:12", "k:34", "k:35"])
        assert sub.vertices == ("k:12", "k:34", "k:35")
        assert sub.adjacent("k:12", "k:34") and sub.adjacent("k:12", "k:35")
        assert not sub.adjacent("k:34", "k:35")

    def test_edges_listing_matches_count(self, petersen):
        es = petersen.edges()
        assert len(es) == petersen.n_edges == 15
        assert all(u < v for u, v in es)
        assert es == sorted(es)


class TestLinkAndJoin:
    def test_link_of_vertex(self, petersen):
        lk = link_of(petersen, ["k:12"])
        assert set(lk.vertices) == {"k:34", "k:35", "k:45"}
        assert lk.n_edges == 0, "petersen is triangle-free"

    def test_link_requires_clique(self, petersen):
        with pytest.raises(ValueError):
            link_of(petersen, ["k:12", "k:13"])

    def test_join_of_edgeless_pair_is_complete_bipartite(self):
        a = flag_from_adjacency(["a1", "a2"], [])
        b = flag_from_adjacency(["b1", "b2"], [])
        j = join_of(a, b)
        assert j.n_vertices == 4 and j.n_edges == 4
        assert not j.adjacent("a1", "a2") and not j.adjacent("b1", "b2")

    def test_join_three_and_three_is_k33(self):
        a = flag_from_adjacency(["a1", "a2", "a3"], [])
        b = flag_from_adjacency(["b1", "b2", "b3"], [])
        j = join_of(a, b)
        k = catalog("k33")
        assert j.vertices == k.vertices
        assert sorted(j.edges()) == sorted(k.edges())


class TestCliqueEnumeration:
    @settings(max_examples=60)
    @given(graphs())
    def test_maximal_cliques_match_brute_force(self, g):
        """Bron-Kerbosch output equals the all-subsets oracle."""
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        got = sorted(tuple(sorted(q)) for q in maximal_cliques(c))
        assert got == oracle_maximal_cliques(c), f"mismatch on {len(vs)} vertices"

    @settings(max_examples=40)
    @given(graphs(), st.integers(min_value=0, max_value=4))
    def test_cliques_of_size_match_combinations(self, g, k):
        """The list itself, not only its set: canonical order is the
        order in which combinations() walks the sorted vertices."""
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        want = [sub for sub in combinations(c.vertices, k) if c.is_clique(sub)]
        assert cliques_of_size(c, k) == want

    def test_petersen_maximal_cliques_are_the_edges(self, petersen):
        qs = maximal_cliques(petersen)
        assert len(qs) == 15
        assert all(len(q) == 2 for q in qs)


class TestFVector:
    def test_petersen(self, petersen):
        fv = f_vector(petersen)
        assert fv.counts == (10, 15)
        assert fv.euler == -5

    def test_truncation(self, petersen):
        assert f_vector(petersen, max_dim=0).counts == (10,)

    def test_pads_with_zeros_above_the_dimension(self, petersen):
        assert f_vector(petersen, max_dim=3).counts == (10, 15, 0, 0)

    def test_empty_complex(self):
        empty = flag_from_adjacency([], [])
        assert f_vector(empty).counts == (0,)
        assert f_vector(empty, max_dim=1).counts == (0, 0)

    @settings(max_examples=40)
    @given(graphs(max_n=7), st.integers(min_value=0, max_value=5))
    def test_counts_are_the_clique_levels(self, g, max_dim):
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        want = tuple(len(cliques_of_size(c, k + 1)) for k in range(max_dim + 1))
        assert f_vector(c, max_dim).counts == want

    @settings(max_examples=40)
    @given(graphs(max_n=6))
    def test_euler_is_alternating_sum(self, g):
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        fv = f_vector(c)
        assert fv.euler == sum((-1) ** k * n for k, n in enumerate(fv.counts))


class TestConnectivity:
    def test_empty_complex_is_connected(self):
        assert is_connected(flag_from_adjacency([], []))

    @settings(max_examples=60)
    @given(graphs())
    def test_components_partition_the_vertices(self, g):
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        comps = connected_components(c)
        flat = sorted(v for comp in comps for v in comp)
        assert flat == sorted(c.vertices)
        assert is_connected(c) == (len(comps) <= 1)

    @settings(max_examples=60)
    @given(graphs())
    def test_has_cycle_matches_edge_count_criterion(self, g):
        """has_cycle is the negation of networkx's forest test (the
        empty graph counts as a forest)."""
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        nxg = nx.Graph()
        nxg.add_nodes_from(vs)
        nxg.add_edges_from(pairs)
        forest = not vs or nx.is_forest(nxg)
        assert has_cycle(c) == (not forest)
