"""Edge isomorphisms of multigraphs and lifting them to vertex maps.

The central property: for a scrambled copy of a random connected
multigraph on three or more vertices, lifting the induced edge
bijection recovers the scrambling vertex map exactly.  On every small
connected multigraph, each verdict is checked against a brute-force
count of the vertex bijections that induce the edge bijection.
"""

import random
from collections import Counter
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from spherecomplex import (
    AMBIGUOUS_ORDER_2,
    EdgeBijection,
    LIFTED,
    Multigraph,
    OBSTRUCTED,
    find_k3_k13_pair,
    is_edge_isomorphism,
    lift_edge_isomorphism,
    pair_type,
    random_connected_multigraph,
    scramble,
)
from spherecomplex import whitney


def triangle() -> Multigraph:
    return Multigraph(["x", "y", "z"],
                      {"e1": ("x", "y"), "e2": ("y", "z"), "e3": ("x", "z")})


def three_star() -> Multigraph:
    return Multigraph(["c", "l1", "l2", "l3"],
                      {"f1": ("c", "l1"), "f2": ("c", "l2"), "f3": ("c", "l3")})


def identity_bijection(g: Multigraph) -> EdgeBijection:
    return EdgeBijection(g, g, {e: e for e in g.edge_ids})


class TestConnectivity:
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_is_connected_matches_networkx(self, seed):
        """Connected random multigraphs (loops and parallel edges
        included) and copies with random edges deleted, against
        networkx's components of the same multigraph."""
        rng = random.Random(seed)
        g = random_connected_multigraph(rng, 1, 9)
        kept = rng.sample(g.edge_ids, rng.randint(0, g.n_edges))
        for h in (g, Multigraph(g.vertices, {e: g.edges[e] for e in kept})):
            oracle = nx.MultiGraph()
            oracle.add_nodes_from(h.vertices)
            oracle.add_edges_from(h.edges.values())
            assert h.is_connected() == nx.is_connected(oracle), f"seed {seed}"

    def test_empty_graph_is_connected(self):
        assert Multigraph([], {}).is_connected()


class TestPairType:
    def test_loop_flags_and_shared_count(self):
        g = Multigraph(["u", "v"], {"a": ("u", "u"), "b": ("u", "v"),
                                    "c": ("u", "v")})
        assert pair_type(g, "a", "b") == (True, False, 1)
        assert pair_type(g, "b", "c") == (False, False, 2)
        assert pair_type(g, "b", "a") == (False, True, 1)

    def test_disjoint_edges(self):
        g = Multigraph(["u", "v", "w", "x"], {"a": ("u", "v"), "b": ("w", "x")})
        assert pair_type(g, "a", "b") == (False, False, 0)


class TestEdgeIsomorphism:
    def test_identity_accepted(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_connected_multigraph(rng)
            assert is_edge_isomorphism(identity_bijection(g))

    def test_triangle_to_star_is_an_edge_isomorphism(self):
        """The classical exceptional pair: every two edges share exactly
        one vertex on both sides."""
        psi = EdgeBijection(triangle(), three_star(),
                            {"e1": "f1", "e2": "f2", "e3": "f3"})
        assert is_edge_isomorphism(psi)
        assert find_k3_k13_pair(psi) == ("e1", "e2", "e3")

    def test_path_relabeling_has_no_exceptional_triple(self):
        p = Multigraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "c")})
        psi = identity_bijection(p)
        assert find_k3_k13_pair(psi) is None

    def test_type_mismatch_detected(self):
        loop = Multigraph(["u", "v"], {"a": ("u", "u"), "b": ("u", "v")})
        path = Multigraph(["a", "b", "c"], {"a": ("a", "b"), "b": ("b", "c")})
        psi = EdgeBijection(loop, path, {"a": "a", "b": "b"})
        assert not is_edge_isomorphism(psi)

    def test_partial_mapping_rejected(self):
        g = triangle()
        with pytest.raises(ValueError):
            EdgeBijection(g, g, {"e1": "e1"})


class TestLift:
    def test_triangle_to_star_is_obstructed(self):
        psi = EdgeBijection(triangle(), three_star(),
                            {"e1": "f1", "e2": "f2", "e3": "f3"})
        res = lift_edge_isomorphism(psi)
        assert res.verdict == OBSTRUCTED
        assert res.obstruction == ("e1", "e2", "e3")
        assert res.vertex_map is None

    def test_two_vertex_bundle_is_ambiguous(self):
        g = Multigraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v"),
                                    "c": ("u", "v")})
        res = lift_edge_isomorphism(identity_bijection(g))
        assert res.verdict == AMBIGUOUS_ORDER_2

    def test_two_vertices_with_a_loop_is_not_ambiguous(self):
        g = Multigraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "u")})
        res = lift_edge_isomorphism(identity_bijection(g))
        assert res.verdict == LIFTED
        assert res.vertex_map == {"u": "u", "v": "v"}

    def test_disconnected_source_rejected(self):
        g = Multigraph(["u", "v", "w", "x"], {"a": ("u", "v"), "b": ("w", "x")})
        with pytest.raises(ValueError):
            lift_edge_isomorphism(identity_bijection(g))

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_scramble_roundtrip_recovers_the_vertex_map(self, seed):
        rng = random.Random(seed)
        g = random_connected_multigraph(rng)
        h, vmap, emap = scramble(g, rng)
        psi = EdgeBijection(g, h, emap)
        assert is_edge_isomorphism(psi)
        res = lift_edge_isomorphism(psi)
        assert res.verdict == LIFTED, f"seed {seed}"
        assert res.vertex_map == vmap, f"seed {seed}"

    def test_scramble_is_deterministic(self):
        a = scramble(random_connected_multigraph(random.Random(11)),
                     random.Random(17))
        b = scramble(random_connected_multigraph(random.Random(11)),
                     random.Random(17))
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


class TestExtendLift:
    """Lifting along a nested exhaustion: the lift of a larger graph is
    either refused or restricts to the lift of a subgraph."""

    def paw(self) -> Multigraph:
        """A triangle with one pendant edge at x.  The edges p, t1, t3
        form a 3-star at x while t1, t2, t3 form the triangle, so the
        edge bijection swapping p with t2 carries a 3-star onto a
        triangle and cannot come from a vertex map."""
        return Multigraph(
            ["p", "x", "y", "z"],
            {"t1": ("x", "y"), "t2": ("y", "z"), "t3": ("x", "z"),
             "p": ("p", "x")})

    def test_extension_can_hit_a_fresh_obstruction(self):
        """The y-x-z path lifts, but the paw swap that fixes the path's
        edges is refused: the two added edges complete a star/triangle
        pair."""
        path = Multigraph(["x", "y", "z"], {"t1": ("x", "y"), "t3": ("x", "z")})
        first = lift_edge_isomorphism(identity_bijection(path))
        assert first.verdict == LIFTED
        assert first.vertex_map == {"x": "x", "y": "y", "z": "z"}
        swap = EdgeBijection(self.paw(), self.paw(),
                             {"t1": "t1", "t2": "p", "t3": "t3", "p": "t2"})
        assert is_edge_isomorphism(swap)
        res = lift_edge_isomorphism(swap)
        assert res.verdict == OBSTRUCTED
        assert res.obstruction == ("p", "t1", "t3")
        assert res.vertex_map is None

    def test_extension_restricts_to_the_previous_lift(self):
        rng = random.Random(23)
        g = random_connected_multigraph(rng, n_min=5, n_max=8)
        h, vmap, emap = scramble(g, rng)
        # grow a connected subgraph on >2 vertices
        v0 = g.vertices[0]
        sub_vs = {v0}
        sub_edges = {}
        for e in sorted(g.edge_ids):
            u, v = g.endpoints(e)
            if u in sub_vs or v in sub_vs:
                sub_vs.update((u, v))
                sub_edges[e] = g.endpoints(e)
            if len(sub_vs) >= 4:
                break
        small = Multigraph(sorted(sub_vs), sub_edges)
        assert small.is_connected() and small.n_vertices > 2
        sub_target_edges = {emap[e]: tuple(sorted((vmap[u], vmap[v])))
                            for e, (u, v) in sub_edges.items()}
        small_target = Multigraph(sorted(vmap[v] for v in sub_vs),
                                  sub_target_edges)
        first = lift_edge_isomorphism(
            EdgeBijection(small, small_target,
                          {e: emap[e] for e in sub_edges}))
        assert first.verdict == LIFTED
        res = lift_edge_isomorphism(EdgeBijection(g, h, emap))
        assert res.verdict == LIFTED
        for v, w in first.vertex_map.items():
            assert res.vertex_map[v] == w


def small_multigraphs(max_edges: int) -> list[Multigraph]:
    """One connected multigraph per isomorphism class with at most
    ``max_edges`` edges, loops and parallel edges included.  Each is
    grown from a smaller one by an edge between old vertices (a loop or
    a parallel one allowed) or a pendant edge to a new vertex, and kept
    in the least form over all vertex relabelings."""
    def least_form(n, pairs):
        return min((n, tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in pairs)))
                   for p in permutations(range(n)))

    level = {(1, ())}
    forms = set(level)
    for _ in range(max_edges):
        level = {least_form(n + (j == n), pairs + ((i, j),))
                 for n, pairs in level for i in range(n) for j in range(i, n + 1)}
        forms |= level
    return [Multigraph([str(k) for k in range(n)],
                       {"e%d" % k: (str(u), str(v)) for k, (u, v) in enumerate(pairs)})
            for n, pairs in sorted(forms)]


def inducing_vertex_maps(psi: EdgeBijection) -> list[dict[str, str]]:
    """Every vertex bijection that carries each edge's endpoints onto
    its image's endpoints."""
    src, dst = psi.source, psi.target
    if src.n_vertices != dst.n_vertices:
        return []
    maps = []
    for image in permutations(dst.vertices):
        phi = dict(zip(src.vertices, image))
        if all(tuple(sorted((phi[u], phi[v]))) == dst.endpoints(psi[e])
               for e, (u, v) in src.edges.items()):
            maps.append(phi)
    return maps


def pair_census(g: Multigraph) -> Counter:
    """How many unordered edge pairs there are of each kind (loop flags,
    shared vertex count).  An edge isomorphism preserves it, so two
    graphs with different censuses have no edge isomorphism between
    them."""
    return Counter((tuple(sorted((g.is_loop(e), g.is_loop(f)))),
                    len(set(g.endpoints(e)) & set(g.endpoints(f))))
                   for e, f in combinations(g.edge_ids, 2))


class TestStarRule:
    def test_pendant_bundle_takes_the_end_its_neighbour_does_not(self):
        """Both edges at v are parallel to vu, so their images share both
        ends of the bundle; v gets the end that u does not."""
        g = Multigraph(["u", "v", "w"], {"a": ("u", "v"), "b": ("u", "v"),
                                         "c": ("u", "w")})
        h = Multigraph(["x", "y", "z"], {"p": ("y", "z"), "q": ("y", "z"),
                                         "r": ("x", "y")})
        res = lift_edge_isomorphism(EdgeBijection(g, h, {"a": "q", "b": "p",
                                                         "c": "r"}))
        assert res.verdict == LIFTED
        assert res.vertex_map == {"u": "y", "v": "z", "w": "x"}

    def test_verdicts_match_brute_force_on_small_multigraphs(self):
        """Every edge isomorphism between connected multigraphs with at
        most five edges: no inducing vertex bijection means obstructed,
        one means lifted to exactly that map, two means the order-2
        ambiguity."""
        graphs = small_multigraphs(5)
        assert len(graphs) == 143
        verdicts = {0: OBSTRUCTED, 1: LIFTED, 2: AMBIGUOUS_ORDER_2}
        tally = Counter()
        for g in graphs:
            for h in graphs:
                if (g.n_edges, pair_census(g)) != (h.n_edges, pair_census(h)):
                    continue
                for image in permutations(h.edge_ids):
                    psi = EdgeBijection(g, h, dict(zip(g.edge_ids, image)))
                    if not is_edge_isomorphism(psi):
                        continue
                    maps = inducing_vertex_maps(psi)
                    res = lift_edge_isomorphism(psi)
                    assert res.verdict == verdicts[len(maps)], (g, h, image)
                    if res.verdict == LIFTED:
                        assert res.vertex_map == maps[0]
                    tally[res.verdict] += 1
        assert tally == {LIFTED: 895, OBSTRUCTED: 76, AMBIGUOUS_ORDER_2: 153}


class TestSelfChecks:
    """The lift's closing checks and the generator's connectivity check
    raise AssertionError themselves, so ``python -O`` keeps them; each is
    forced to fail here.  Skipping the obstruction scan, which validates
    the edge isomorphism, lets a bijection that is not one reach them."""

    def test_unassigned_vertex(self, monkeypatch):
        monkeypatch.setattr(whitney, "find_k3_k13_pair", lambda psi: None)
        path = Multigraph(["x", "y", "z"], {"f1": ("x", "y"), "f2": ("y", "z"),
                                            "f3": ("z", "z")})
        psi = EdgeBijection(triangle(), path, {"e1": "f3", "e2": "f1", "e3": "f2"})
        with pytest.raises(AssertionError, match="unassigned"):
            lift_edge_isomorphism(psi)

    def test_lift_not_bijective(self, monkeypatch):
        monkeypatch.setattr(whitney, "find_k3_k13_pair", lambda psi: None)
        looped = Multigraph(["a", "b"], {"e1": ("a", "b"), "e2": ("b", "b")})
        path = Multigraph(["x", "y", "z"], {"f1": ("x", "y"), "f2": ("y", "z")})
        psi = EdgeBijection(looped, path, {"e1": "f1", "e2": "f2"})
        with pytest.raises(AssertionError, match="not bijective"):
            lift_edge_isomorphism(psi)

    def test_lift_does_not_induce(self, monkeypatch):
        monkeypatch.setattr(whitney, "_induces", lambda psi, phi: False)
        with pytest.raises(AssertionError, match="does not induce"):
            lift_edge_isomorphism(identity_bijection(triangle()))

    def test_random_multigraph_connectivity(self, monkeypatch):
        monkeypatch.setattr(Multigraph, "is_connected", lambda g: False)
        with pytest.raises(AssertionError, match="connected"):
            random_connected_multigraph(random.Random(1))
