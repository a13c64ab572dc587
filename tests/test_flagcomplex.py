"""Flag complexes: construction, links, joins, clique enumeration,
f-vectors, and the connectivity helpers.

The clique enumerators are cross-checked against a brute-force oracle
that tests every vertex subset directly.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles import join_of
from spherecomplex import (
    FlagComplex,
    SphereSystem,
    build_genus_zero_complex,
    build_x_sigma,
    catalog,
    cliques_of_size,
    detect_x_detectable,
    enumerate_pants,
    f_vector,
    find_split_pairs,
    flag_from_adjacency,
    has_cycle,
    is_connected,
    link_of,
    maximal_cliques,
    verify_rigidity,
)
from spherecomplex.flagcomplex import _clique_levels, _maximal_cliques, mask_components


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

    @settings(max_examples=60)
    @given(graphs(), st.data())
    def test_induced_equals_the_validated_constructor(self, g, data):
        """``induced`` builds its result without the constructor's
        checks; it is the complex the checked path builds from the kept
        ids and the edges among them, and passes every check."""
        vs, pairs = g
        keep = data.draw(st.sets(st.sampled_from(vs))) if vs else set()
        sub = flag_from_adjacency(vs, pairs).induced(keep)
        want = flag_from_adjacency(keep, [(u, v) for u, v in pairs if {u, v} <= keep])
        assert (sub.vertices, sub._adj, sub._index, sub.meta) == \
            (want.vertices, want._adj, want._index, want.meta)
        assert FlagComplex(sub.vertices, sub._adj) == sub

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


@pytest.mark.parametrize("call, named", [
    (lambda c, ids: link_of(c, ids), "nope"),
    (lambda c, ids: c.is_clique(ids), "zz"),
    (lambda c, ids: c.induced(ids), "nope"),
    (lambda c, ids: SphereSystem(c, ids), "nope"),
    (lambda c, ids: verify_rigidity(ids, c), "nope"),
    (lambda c, ids: find_split_pairs(ids[0], ids, c), "nope"),
    (lambda c, ids: detect_x_detectable(ids, c, ids[0], ids[1]), "nope"),
], ids=["link_of", "is_clique", "induced", "SphereSystem", "verify_rigidity",
        "find_split_pairs", "detect_x_detectable"])
def test_unknown_vertex_id_is_a_value_error(petersen, call, named):
    """Every entry point names the first unknown id: in the order given
    for is_clique, the least id for the others, which sort first."""
    with pytest.raises(ValueError, match="^unknown vertex id: '%s'$" % named):
        call(petersen, ["k:12", "zz", "nope"])


class TestCliqueEnumeration:
    @settings(max_examples=60)
    @given(graphs())
    def test_maximal_cliques_match_brute_force(self, g):
        """The clique walk equals the all-subsets oracle, list for
        list: canonical order is part of the contract."""
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        assert maximal_cliques(c) == oracle_maximal_cliques(c), f"mismatch on {len(vs)} vertices"

    @settings(max_examples=60)
    @given(graphs(), st.data())
    def test_restricted_walk_is_the_filtered_list(self, g, data):
        """The walk over ids lists exactly the maximal cliques inside
        ids, in order, for a random subset (with an id that is not a
        vertex), the empty set and every vertex."""
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        sub = [v for v in vs if data.draw(st.booleans())]
        for ids in (sub + ["not-a-vertex"], [], vs):
            want = [q for q in maximal_cliques(c) if set(q) <= set(ids)]
            assert _maximal_cliques(c, ids) == want

    def test_restricted_walk_on_the_empty_complex(self):
        empty = flag_from_adjacency([], [])
        assert maximal_cliques(empty) == [()]
        assert _maximal_cliques(empty, []) == [()]

    @pytest.mark.parametrize("s", [5, 6])
    def test_restricted_walk_on_every_x_sigma(self, s):
        c = build_genus_zero_complex(s)
        cliques = maximal_cliques(c)
        for P in enumerate_pants(s):
            ids = build_x_sigma(P).vertices
            got = _maximal_cliques(c, ids)
            assert got == [q for q in cliques if set(q) <= set(ids)]
            assert tuple(sorted(P.members)) in got

    @pytest.mark.parametrize("source, digest", [
        ("genus-zero:4", "58767db160318d5a50521e00e57fd7d760bf2c70f2f1d78478b1d4e18f9fdeeb"),
        ("genus-zero:5", "5e42309b77bc6146d1b11b69d127e2ceb698b3b5d3b8a08c53c159e07ca87922"),
        ("genus-zero:6", "0a84d0a8f7e76af9636ddf778360dedb223f8dcb86fb9feffb7c012ee23fb570"),
        ("genus-zero:7", "c0295725845dbc7d92b94c45696dd1f4bcfee3e211364e0976fc7ca7a747dacb"),
        ("genus-zero:8", "adc957020da5e099acd360b5dcb166a580779edb0917be00fe51f38653a69ef0"),
        ("k13", "ff4b4b2d08413e1fd2288f1801fc4c5408403beb2011d223a3a0dadb50c04608"),
        ("k3", "0ec61dd53e953e661526835dbc09465647f4495894c01901715cde38a1799ec3"),
        ("k33", "1759234881030a7992cbba8d63aa90fc15e3bd3d80498f6088174f8ffafd2759"),
        ("m04", "5e9e3bc565616dc528a123def884087e451d3215c2831bfc343e2181e200a94c"),
        ("m11", "9056d7275092ae5a3605ebfec360b4354d321e1d33de2dfec7f88efef6a97806"),
        ("petersen", "a099c752217eff9a984fefa9c9eab669a45a7aad904e784b298bc29d4099397a"),
    ])
    def test_frozen_maximal_cliques(self, source, digest):
        """sha256 of the JSON list, recorded from the Bron-Kerbosch
        implementation, so list and order are both pinned."""
        model, _, s = source.partition(":")
        c = build_genus_zero_complex(int(s)) if s else catalog(model)
        got = hashlib.sha256(json.dumps(maximal_cliques(c)).encode()).hexdigest()
        assert got == digest

    @settings(max_examples=40)
    @given(graphs(), st.integers(min_value=0, max_value=4))
    def test_cliques_of_size_match_combinations(self, g, k):
        """The list itself, not only its set: canonical order is the
        order in which combinations() walks the sorted vertices."""
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        want = [sub for sub in combinations(c.vertices, k) if c.is_clique(sub)]
        assert cliques_of_size(c, k) == want

    @settings(max_examples=40)
    @given(graphs(), st.integers(min_value=0, max_value=9))
    def test_clique_levels_stop_at_the_clique_number(self, g, top):
        """Level k lists the k-cliques as vertex bitmasks in canonical
        order, and no level is allocated past the clique number."""
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        want = [[sub for sub in combinations(c.vertices, k) if c.is_clique(sub)]
                for k in range(top + 1)]
        want = [level for level in want if level]  # cliques are closed under subsets
        got = [[tuple(c.vertices[i] for i in range(c.n_vertices) if m >> i & 1) for m in level]
               for level in _clique_levels(c, top)]
        assert got == want

    def test_petersen_maximal_cliques_are_the_edges(self, petersen):
        qs = maximal_cliques(petersen)
        assert len(qs) == 15
        assert all(len(q) == 2 for q in qs)

    @pytest.mark.parametrize("walk", [
        lambda c: _clique_levels(c, c.n_vertices),
        lambda c: _clique_levels(c, 3, (1 << c.n_vertices) - 2),
    ], ids=["levels", "levels-within"])
    def test_a_walk_leaves_no_reference_cycle(self, c5, walk):
        """The clique walk unbinds its nested helper, so the levels it
        returns are freed with the caller's reference, not at the next
        full collection: with gc off, a walk leaves nothing for
        gc.collect() to find."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            walk(c5)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


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

    def test_equality_with_sequences_and_other_values(self, petersen):
        """Equal to an f-vector or a sequence with the same counts, and
        unequal to a value that is not iterable instead of raising."""
        fv = f_vector(petersen)
        assert fv == f_vector(petersen)
        assert fv == (10, 15) and fv == [10, 15]
        assert fv != (10, 16)
        for other in (None, 25, 2.5):
            assert not fv == other
            assert fv != other

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
        comps = mask_components(c._adj)
        union = 0
        for m in comps:
            assert m and not m & union
            union |= m
        assert union == (1 << c.n_vertices) - 1
        assert is_connected(c) == (len(comps) <= 1)

    @settings(max_examples=60)
    @given(graphs(), st.data())
    def test_components_inside_a_mask_are_the_induced_ones(self, g, data):
        """Inside a vertex mask the components are those of the induced
        subcomplex, mapped back to the ambient's bits and in the same
        order; set self bits (as on a complement graph) change nothing."""
        vs, pairs = g
        c = flag_from_adjacency(vs, pairs)
        full = (1 << c.n_vertices) - 1
        within = data.draw(st.sampled_from([0, full]) | st.integers(0, full))
        sub = c._induced(within)
        want = [sum(1 << i for i in c._indices(sub._ids(m))) for m in mask_components(sub._adj)]
        assert mask_components(c._adj, within) == want
        looped = [m | 1 << i for i, m in enumerate(c._adj)]
        assert mask_components(looped, within) == want

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
