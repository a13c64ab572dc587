"""Pants decompositions, the flip graph, dual multigraphs, and link
classification."""

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from spherecomplex import (
    DualMultigraph,
    JoinDecomposition,
    ManifoldSignature,
    PantsDecomposition,
    SpherePartition,
    SphereSystem,
    classify_link,
    cliques_of_size,
    dual_of_pants,
    dual_to_multigraph,
    enumerate_pants,
    flag_from_adjacency,
    flip_partners,
    ih_flip,
    is_maximal_system,
    maximal_cliques,
    pants_flip_graph,
    signature_of_dual,
    slot_id,
    split_slot,
)
from spherecomplex import pants

from spherecomplex.flagcomplex import _bits, pair_components
from spherecomplex.serialization import dual_to_dict, dual_to_dot
from spherecomplex.genus_zero import _clusters
from oracles import (StringDual, cluster_flips, flip_graph_shape, string_dual_of_pants,
                     string_ih_flip)


def chain_pants(c6) -> PantsDecomposition:
    """The nested chain {1,2} < {1,2,3} < {1,2,3,4} in S(M_{0,6})."""
    return PantsDecomposition(
        c6, ["p:1,2|s=6", "p:1,2,3|s=6", "p:1,2,3,4|s=6"])


def random_dual(rng: random.Random, n_pants: int, n_bonds: int) -> DualMultigraph:
    """A trivalent multigraph with legs: bonds on random slot pairs, so
    loops and parallel bonds occur, and the remaining slots as legs."""
    pants = ["u%d" % k for k in range(n_pants)]
    slots = [slot_id(p, k) for p in pants for k in range(3)]
    rng.shuffle(slots)
    bonds = [(slots[2 * i], slots[2 * i + 1]) for i in range(n_bonds)]
    legs = [(sl, str(k + 1)) for k, sl in enumerate(slots[2 * n_bonds:])]
    return DualMultigraph(pants, bonds, legs)


def without_bond(d: DualMultigraph, i: int) -> DualMultigraph:
    """Delete bond i, turning its two ends into legs."""
    a, b = d.bonds[i]
    legs = list(d.legs) + [(a, "x"), (b, "y")]
    return DualMultigraph(d.pants, d.bonds[:i] + d.bonds[i + 1:], legs)


def eta_multigraph(d: DualMultigraph, eta) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(d.pants)
    g.add_edges_from(d.bond_endpoints(i) for i in eta)
    return g


def oracle_classify(d: DualMultigraph, eta) -> list[tuple[int, int]]:
    """Factors from networkx's components of the eta-subgraph: rank is
    the component's cycle rank (edges - vertices + 1, loops and parallel
    bonds counted), boundary its legs plus the non-eta bond ends in it."""
    g = eta_multigraph(d, eta)
    factors = []
    for comp in nx.connected_components(g):
        rank = g.subgraph(comp).number_of_edges() - len(comp) + 1
        boundary = sum(split_slot(sl)[0] in comp for sl, _ in d.legs)
        boundary += sum(p in comp for i in range(len(d.bonds)) if i not in eta
                        for p in d.bond_endpoints(i))
        if (rank, boundary) != (0, 3):
            factors.append((rank, boundary))
    return sorted(factors)


def assert_same_dual(d: DualMultigraph, oracle: StringDual) -> None:
    assert d.pants == oracle.pants
    assert d.bonds == oracle.bonds and d.legs == oracle.legs
    assert d.bond_labels == oracle.bond_labels
    assert dual_to_dict(d) == dual_to_dict(oracle)
    assert dual_to_dot(d) == dual_to_dot(oracle)


def leg_partition(d: DualMultigraph, i: int) -> set[frozenset[int]]:
    """The leg labels on either side of bond i of a tree."""
    comps = pair_components(d.pants, (d.bond_endpoints(j) for j in range(len(d.bonds)) if j != i))
    side = {d.pants[k]: c for c, m in enumerate(comps) for k in _bits(m)}
    blocks = [set() for _ in comps]
    for sl, lb in d.legs:
        blocks[side[split_slot(sl)[0]]].add(int(lb))
    return set(map(frozenset, blocks))


def assert_every_bond_subset_matches(duals) -> None:
    for d in duals:
        for k in range(len(d.bonds) + 1):
            for eta in combinations(range(len(d.bonds)), k):
                assert classify_link(d, eta).as_pairs() == oracle_classify(d, eta)


class TestPantsEnumeration:
    def test_counts(self):
        assert len(enumerate_pants(4)) == 3
        assert len(enumerate_pants(5)) == 15
        assert len(enumerate_pants(6)) == 105

    @pytest.mark.parametrize("s", range(4, 9))
    def test_system_id_order(self, s):
        """pants_flip_graph keys its nodes on this order without sorting."""
        ids = [P.system_id() for P in enumerate_pants(s)]
        assert ids == sorted(ids)

    def test_size_and_maximality(self, c6):
        for P in enumerate_pants(6):
            assert len(P) == 3
            assert is_maximal_system(P)

    def test_pants_are_exactly_the_maximal_cliques(self, c6):
        got = {P.system_id() for P in enumerate_pants(6)}
        want = {";".join(sorted(q)) for q in maximal_cliques(c6)}
        assert got == want

    def test_every_top_clique_has_top_size(self, c5, c6):
        # all maximal cliques share the size s - 3, so the flip move
        # never leaves the pants stratum
        assert {len(q) for q in maximal_cliques(c5)} == {2}
        assert {len(q) for q in maximal_cliques(c6)} == {3}

    def test_nonmaximal_system_detected(self, c6):
        sub = SphereSystem(c6, ["p:1,2|s=6"])
        assert not is_maximal_system(sub)

    def test_empty_system_is_maximal_only_in_the_empty_complex(self, c5):
        assert is_maximal_system(SphereSystem(flag_from_adjacency([], []), []))
        assert not is_maximal_system(SphereSystem(c5, []))

    def test_non_clique_rejected(self, c6):
        with pytest.raises(ValueError):
            SphereSystem(c6, ["p:1,2|s=6", "p:1,3|s=6"])

    def test_first_unknown_member_is_named(self, c6):
        """Members are checked in sorted order, so with several unknown
        ids the error names the least, whatever the set order."""
        members = ["p:5,6|s=7", "p:1,2|s=6", "p:3,4|s=7", "p:4,5|s=7"]
        with pytest.raises(ValueError, match=r"unknown vertex id: 'p:3,4\|s=7'"):
            SphereSystem(c6, members)


class TestFlipMoves:
    @settings(max_examples=50)
    @given(st.integers(min_value=4, max_value=6), st.data())
    def test_every_member_has_exactly_two_partners(self, s, data):
        P = data.draw(st.sampled_from(enumerate_pants(s)))
        a = data.draw(st.sampled_from(sorted(P.members)))
        partners = flip_partners(P, a)
        assert len(partners) == 2, f"{P.system_id()} at {a}"
        for b in partners:
            assert b not in P.members
            flipped = PantsDecomposition(P.complex, (P.members - {a}) | {b})
            assert is_maximal_system(flipped)

    def test_unknown_member_rejected(self, c5):
        P = enumerate_pants(5)[0]
        outside = next(v for v in c5.vertices if v not in P.members)
        with pytest.raises(ValueError):
            flip_partners(P, outside)

    def test_flip_graph_s4_is_a_triangle(self):
        fg = pants_flip_graph(4)
        assert len(fg.nodes) == 3 and len(fg.edges) == 3
        assert fg.connected and fg.diameter == 1

    def test_flip_graph_s5(self):
        fg = pants_flip_graph(5)
        assert len(fg.nodes) == 15
        assert fg.connected and fg.diameter == 3
        degrees = {}
        for u, v in fg.edges:
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
        # 2 partners per member, 2 members per node, no multi-edges
        assert all(d == 4 for d in degrees.values())

    def test_flip_graph_s6(self):
        fg = pants_flip_graph(6)
        assert len(fg.nodes) == 105 and len(fg.edges) == 315
        assert fg.connected and fg.diameter == 5

    @pytest.mark.parametrize("s, digest", [
        (6, "7722ed210545c5ab70fb73069b04fcb4c1acbb520e24c62f889d4c2c8616acf9"),
        (7, "587cd065ebc4ed174f08734e45aec280500ff2176ff6e9ffe066f2e6d7e516f1"),
    ])
    def test_flip_graph_digest(self, s, digest):
        """sha256 of all five fields as sorted-key JSON, so a change to
        the nodes, members, edges or their order, connectivity or
        diameter shows here."""
        fg = pants_flip_graph(s)
        text = json.dumps(fg._asdict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestClusterFlips:
    @pytest.mark.parametrize("s", [4, 5, 6, 7])
    def test_tree_rule_and_graph_edges_are_the_flip_partners(self, s):
        """For every node and member: the two clusters the tree rule
        gives are those of the member's flip partners, and the flip graph
        joins the node to exactly the pants that swap a member for one
        of its partners."""
        fg = pants_flip_graph(s)
        nbrs = {u: set() for u in fg.nodes}
        for u, v in fg.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for P in enumerate_pants(s):
            table, index_of = _clusters(P.complex), P.complex.index_of
            members = P.sorted_members()
            flips = cluster_flips([table[index_of(a)] for a in members], s)
            across = set()
            for a, pair in zip(members, flips):
                partners = flip_partners(P, a)
                assert set(pair) == {table[index_of(b)] for b in partners}, (P, a)
                across |= {";".join(sorted(P.members - {a} | {b})) for b in partners}
            assert nbrs[P.system_id()] == across

    @pytest.mark.parametrize("s", [5, 6, 7])
    def test_searches_run_over_the_graph(self, s, monkeypatch):
        """Every breadth-first search gets each node's neighbours in the
        flip graph, each once."""
        searched, bfs = [], pants._eccentricity

        def recording_bfs(nbrs, start):
            searched.append(nbrs)
            return bfs(nbrs, start)

        monkeypatch.setattr(pants, "_eccentricity", recording_bfs)
        fg = pants_flip_graph(s)
        index = {u: i for i, u in enumerate(fg.nodes)}
        want = [[] for _ in fg.nodes]
        for u, v in fg.edges:
            want[index[u]].append(index[v])
            want[index[v]].append(index[u])
        assert searched and all([sorted(js) for js in nbrs] == [sorted(w) for w in want]
                                for nbrs in searched)

    def test_below_four_labels_rejected(self):
        with pytest.raises(ValueError, match="need s >= 4"):
            pants_flip_graph(3)


def double_factorial(n: int) -> int:
    return 1 if n <= 1 else n * double_factorial(n - 2)


class TestFlipGraphOrbits:
    """One breadth-first search per orbit of the boundary-label action:
    the roots are the unrooted binary tree shapes with s leaves (OEIS
    A000672), and the orbit sizes add up to the (2s-5)!! nodes.  The
    counts are deterministic, so they guard the orbit reduction without
    a clock."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """The BFS roots and the orbit sizes of each flip graph built."""
        record = {"roots": [], "orbits": []}
        bfs, orbits = pants._eccentricity, pants._label_orbits

        def counting_bfs(nbrs, start):
            record["roots"].append(start)
            return bfs(nbrs, start)

        def recording_orbits(*args):
            sizes = orbits(*args)
            record["orbits"].append(sizes)
            return sizes

        monkeypatch.setattr(pants, "_eccentricity", counting_bfs)
        monkeypatch.setattr(pants, "_label_orbits", recording_orbits)
        return record

    @pytest.mark.parametrize("s, sizes", [
        (4, [3]), (5, [15]), (6, [90, 15]), (7, [630, 315]),
    ])
    def test_one_root_per_orbit(self, s, sizes, runs):
        fg = pants_flip_graph(s)
        [orbits] = runs["orbits"]
        assert runs["roots"] == list(orbits) and runs["roots"][0] == 0
        assert sorted(orbits.values(), reverse=True) == sizes
        assert sum(sizes) == len(fg.nodes) == double_factorial(2 * s - 5)

    def test_s8(self, runs):
        """10395 nodes, all of degree 2(s - 3) = 10, four roots, diameter 10."""
        fg = pants_flip_graph(8)
        assert len(fg.nodes) == 10395 and len(fg.edges) == 51975
        degrees = {u: 0 for u in fg.nodes}
        for u, v in fg.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert set(degrees.values()) == {10}
        assert fg.connected and fg.diameter == 10
        [orbits] = runs["orbits"]
        assert runs["roots"] == list(orbits) and len(orbits) == 4
        assert sorted(orbits.values(), reverse=True) == [5040, 2520, 2520, 315]

    @pytest.mark.parametrize("s", [4, 5, 6, 7])
    def test_matches_the_all_roots_oracle(self, s):
        fg = pants_flip_graph(s)
        assert (fg.connected, fg.diameter) == flip_graph_shape(fg)

    def test_eccentricity_on_a_disconnected_graph(self):
        """A path 0-1-2 and an edge 3-4: the search sees only its own
        component."""
        nbrs = [[1], [0, 2], [1], [4], [3]]
        assert pants._eccentricity(nbrs, 0) == (2, 3)
        assert pants._eccentricity(nbrs, 1) == (1, 3)
        assert pants._eccentricity(nbrs, 4) == (1, 2)


class TestDualMultigraph:
    def test_chain_example(self, c6):
        d = dual_of_pants(chain_pants(c6))
        assert d.pants == ("q0", "q1", "q2", "q3")
        assert d.bond_labels == ("p:1,2,3,4|s=6", "p:1,2,3|s=6", "p:1,2|s=6")
        assert sorted(tuple(sorted(b)) for b in d.bonds) == [
            ("q0.0", "q1.0"), ("q1.1", "q2.0"), ("q2.1", "q3.0")]
        legs = {}
        for sl, lb in d.legs:
            legs.setdefault(sl.split(".")[0], set()).add(lb)
        assert legs == {"q0": {"1", "2"}, "q1": {"3"}, "q2": {"4"},
                        "q3": {"5", "6"}}

    @settings(max_examples=40)
    @given(st.sampled_from(enumerate_pants(6)))
    def test_duals_of_pants_are_trees_with_s_legs(self, P):
        d = dual_of_pants(P)
        assert d.n_pants == 4
        assert len(d.bonds) == 3 and len(d.legs) == 6
        assert d.is_connected()
        assert signature_of_dual(d).as_pair() == (0, 6)
        g = dual_to_multigraph(d)
        assert g.n_edges == g.n_vertices - 1

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_is_connected_matches_networkx(self, seed):
        """Random duals with loops and parallel bonds, and each of them
        with one bond deleted, against networkx's components."""
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        d = random_dual(rng, n, rng.randint(0, 3 * n // 2))
        for h in [d] + [without_bond(d, i) for i in range(len(d.bonds))]:
            oracle = eta_multigraph(h, range(len(h.bonds)))
            assert h.is_connected() == nx.is_connected(oracle), f"seed {seed}"

    @pytest.mark.parametrize("pants, bonds, legs, labels, message", [
        (["u", "u"], [], [], None, "duplicate pants ids"),
        (["u.v"], [], [], None, "pants id may not contain '.': 'u.v'"),
        (["u"], [("u.0", "u.1")], [("u.2", "1")], ["x", "y"], "bond_labels length mismatch"),
        (["u"], [("u.0", "w.1")], [("u.2", "1")], None, "slot on unknown pants: 'w.1'"),
        (["u"], [("u.0", "u.3")], [("u.2", "1")], None, "slot index out of range: 'u.3'"),
        (["u"], [("u.0", "u.1")], [("u.1", "1")], None, "slot used twice: 'u.1'"),
        (["u"], [("u.0", "u.1")], [("u.01", "1")], None, "malformed slot id: 'u.01'"),
        (["u", "v"], [("u.0", "u.1")], [("u.2", "1")], None,
         "slots must be used exactly once each (missing ['v.0', 'v.1', 'v.2'], extra [])"),
    ])
    def test_constructor_messages(self, pants, bonds, legs, labels, message):
        """Each malformed input is named as it was when slots were kept
        as strings."""
        for cls in (DualMultigraph, StringDual):
            with pytest.raises(ValueError) as info:
                cls(pants, bonds, legs, labels)
            assert str(info.value) == message

    def test_integer_slots_checked(self):
        """The integer constructor behind dual_of_pants and ih_flip still
        refuses a slot used twice or left out, with a ValueError that
        ``python -O`` keeps."""
        for bonds, legs in [(((0, 0),), ((1, "1"), (2, "2"))),
                            (((0, 1),), ((2, "1"), (3, "2"))),
                            (((0, 1),), ())]:
            with pytest.raises(ValueError, match="slots must be used exactly once each"):
                DualMultigraph._from_slots(("u",), bonds, legs, None)

    def test_trivalence_enforced(self):
        with pytest.raises(ValueError):
            DualMultigraph(["q0"], [("q0.0", "q0.1")], [])  # q0.2 unused

    def test_slot_reuse_rejected(self):
        with pytest.raises(ValueError):
            DualMultigraph(["q0"], [("q0.0", "q0.0")], [("q0.1", "1"), ("q0.2", "2")])

    def test_loop_signature(self):
        d = DualMultigraph(["q0"], [("q0.0", "q0.1")], [("q0.2", "1")])
        assert d.is_loop_bond(0)
        assert signature_of_dual(d).as_pair() == (1, 1)

    def test_bond_labels_roundtrip(self, c6):
        d = dual_of_pants(chain_pants(c6))
        for i in range(len(d.bonds)):
            assert d.bond_label(i) == d.bond_labels[i]


class TestSplitSlot:
    @pytest.mark.parametrize("slot, parts", [
        ("q0.0", ("q0", 0)), ("q0.2", ("q0", 2)), ("q0.10", ("q0", 10)), ("a.b.1", ("a.b", 1)),
    ])
    def test_canonical_ids(self, slot, parts):
        assert split_slot(slot) == parts
        assert slot_id(*parts) == slot

    @pytest.mark.parametrize("slot", [
        "q0.01", "q0. 1", "q0.-1", "q0.+1", "q0.x", "q0.", "q0", ".1", "q0.1 ", "q0.\u0661",
    ])
    def test_non_canonical_ids_rejected(self, slot):
        with pytest.raises(ValueError) as info:
            split_slot(slot)
        assert str(info.value) == "malformed slot id: %r" % (slot,)


class TestClassifyLink:
    def two_pants_bridge(self):
        return DualMultigraph(
            ["u", "v"], [("u.0", "v.0")],
            [("u.1", "1"), ("u.2", "2"), ("v.1", "3"), ("v.2", "4")])

    def test_unsorted_join_factors_rejected(self):
        with pytest.raises(ValueError, match="canonical order"):
            JoinDecomposition((ManifoldSignature(1, 1), ManifoldSignature(0, 4)))
        ok = JoinDecomposition((ManifoldSignature(0, 4), ManifoldSignature(1, 1)))
        assert ok.as_pairs() == [(0, 4), (1, 1)]

    def test_join_validation_runs_under_optimize(self):
        """The factor-order check is not an assert, so ``python -O``
        keeps it."""
        import spherecomplex
        src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
        code = (
            "from spherecomplex import JoinDecomposition, ManifoldSignature\n"
            "try:\n"
            "    JoinDecomposition((ManifoldSignature(1, 1), ManifoldSignature(0, 4)))\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["ValueError: join factors not in canonical order"]

    def test_empty_system_gives_no_factors(self):
        d = self.two_pants_bridge()
        assert classify_link(d, []).as_pairs() == []

    def test_full_system_recovers_the_signature(self, c6):
        d = dual_of_pants(chain_pants(c6))
        assert classify_link(d, range(3)).as_pairs() == [(0, 6)]

    def test_single_bridge(self):
        assert classify_link(self.two_pants_bridge(), [0]).as_pairs() == [(0, 4)]

    def test_loop(self):
        d = DualMultigraph(["q0"], [("q0.0", "q0.1")], [("q0.2", "1")])
        assert classify_link(d, [0]).as_pairs() == [(1, 1)]

    def test_bigon(self):
        d = DualMultigraph(
            ["u", "v"], [("u.0", "v.0"), ("u.1", "v.1")],
            [("u.2", "1"), ("v.2", "2")])
        # one bond cut: the complement is a 4-holed sphere; both cut:
        # the full bigon system with first Betti number 1
        assert classify_link(d, [0]).as_pairs() == [(0, 4)]
        assert classify_link(d, [0, 1]).as_pairs() == [(1, 2)]

    def test_factors_are_sorted(self, c6):
        d = dual_of_pants(chain_pants(c6))
        dec = classify_link(d, [0, 2])
        assert dec.factors == tuple(sorted(dec.factors))

    @pytest.mark.parametrize("s", [6, 7])
    def test_every_bond_subset_matches_networkx(self, s):
        rng = random.Random(s)
        duals = [dual_of_pants(P) for P in rng.sample(enumerate_pants(s), 12)]
        duals += [ih_flip(d, 0, 1) for d in duals[:4]]
        assert_every_bond_subset_matches(duals)

    def test_loop_and_bigon_duals_match_networkx(self):
        rng = random.Random(5)
        duals = [
            DualMultigraph(["q0"], [("q0.0", "q0.1")], [("q0.2", "1")]),
            DualMultigraph(["u", "v"], [("u.0", "v.0"), ("u.1", "v.1")],
                           [("u.2", "1"), ("v.2", "2")]),
            DualMultigraph(["u", "v"], [("u.0", "v.0"), ("u.1", "v.1"), ("u.2", "v.2")], []),
        ]
        duals += [random_dual(rng, n, rng.randint(n, 3 * n // 2)) for n in (2, 3, 4, 5) * 5]
        assert any(d.is_loop_bond(i) for d in duals[3:] for i in range(len(d.bonds)))
        assert_every_bond_subset_matches(duals)

    def test_bad_bond_index(self):
        with pytest.raises(ValueError):
            classify_link(self.two_pants_bridge(), [5])


class TestIHFlip:
    def test_s4_flip_reaches_both_other_pairings(self, c4):
        P = PantsDecomposition(c4, [c4.vertices[0]])
        d = dual_of_pants(P)
        pairings = set()
        for choice in (0, 1):
            flipped = ih_flip(d, 0, choice)
            legs = {}
            for sl, lb in flipped.legs:
                legs.setdefault(sl.split(".")[0], set()).add(lb)
            pairings.add(frozenset(frozenset(v) for v in legs.values()))
            assert signature_of_dual(flipped).as_pair() == (0, 4)
        original = {}
        for sl, lb in d.legs:
            original.setdefault(sl.split(".")[0], set()).add(lb)
        pairings.add(frozenset(frozenset(v) for v in original.values()))
        assert len(pairings) == 3, "the three pairings of four boundary labels"

    def test_preserves_signature_and_legs(self, c6):
        d = dual_of_pants(chain_pants(c6))
        for i in range(3):
            for choice in (0, 1):
                f = ih_flip(d, i, choice)
                assert signature_of_dual(f) == signature_of_dual(d)
                assert sorted(lb for _, lb in f.legs) == sorted(lb for _, lb in d.legs)

    def test_bigon_flip_gives_loop_plus_bridge(self):
        d = DualMultigraph(
            ["u", "v"], [("u.0", "v.0"), ("u.1", "v.1")],
            [("u.2", "1"), ("v.2", "2")])
        f = ih_flip(d, 0, 0)
        loops = [i for i in range(len(f.bonds)) if f.is_loop_bond(i)]
        bridges = [i for i in range(len(f.bonds)) if not f.is_loop_bond(i)]
        assert len(loops) == 1 and len(bridges) == 1
        assert signature_of_dual(f).as_pair() == (1, 2)

    def test_loop_bond_rejected(self):
        d = DualMultigraph(["q0"], [("q0.0", "q0.1")], [("q0.2", "1")])
        with pytest.raises(ValueError):
            ih_flip(d, 0, 0)

    def test_bad_choice_rejected(self, c6):
        d = dual_of_pants(chain_pants(c6))
        with pytest.raises(ValueError):
            ih_flip(d, 0, 2)

    def test_bond_labels_dropped(self, c6):
        d = dual_of_pants(chain_pants(c6))
        assert d.bond_labels is not None
        for i in range(3):
            f = ih_flip(d, i, 0)
            assert f.bond_labels is None
            assert "bond_labels" not in dual_to_dict(f)
            assert [f.bond_label(j) for j in range(3)] == ["b0", "b1", "b2"]

    @pytest.mark.parametrize("s", [5, 6, 7])
    def test_flips_are_the_flip_partners(self, s):
        """Across the flipped bond the legs split as the blocks of the
        two spheres that can replace its member, one per pairing."""
        for P in enumerate_pants(s):
            d = dual_of_pants(P)
            for i, a in enumerate(d.bond_labels):
                want = {frozenset(map(frozenset, (sp.block, sp.other_block)))
                        for sp in map(SpherePartition.from_vertex_id, flip_partners(P, a))}
                got = {frozenset(leg_partition(ih_flip(d, i, choice), i)) for choice in (0, 1)}
                assert got == want, f"{P.system_id()} at {a}"


class TestStringOracle:
    """Integer slots give the same graphs as slot-id strings did."""

    @pytest.mark.parametrize("s", [5, 6, 7])
    def test_pants_duals_and_flips(self, s):
        """Every pants decomposition, every bond, both pairings, and then
        a second flip of the next bond with either pairing."""
        for P in enumerate_pants(s):
            d, oracle = dual_of_pants(P), string_dual_of_pants(P)
            assert_same_dual(d, oracle)
            n = len(d.bonds)
            for i in range(n):
                for choice in (0, 1):
                    f, g = ih_flip(d, i, choice), string_ih_flip(oracle, i, choice)
                    assert_same_dual(f, g)
                    j = (i + 1) % n
                    if f.is_loop_bond(j):
                        continue
                    for second in (0, 1):
                        assert_same_dual(ih_flip(f, j, second), string_ih_flip(g, j, second))

    def test_random_duals_with_loops_and_bigons(self):
        rng = random.Random(20)
        duals = [
            DualMultigraph(["u", "v"], [("u.0", "v.0"), ("u.1", "v.1")],
                           [("u.2", "1"), ("v.2", "2")]),
            DualMultigraph(["u", "v"], [("u.0", "u.1"), ("u.2", "v.0")],
                           [("v.1", "1"), ("v.2", "2")]),
        ]
        duals += [random_dual(rng, n, rng.randint(n - 1, 3 * n // 2))
                  for n in (2, 3, 4, 5, 6) * 8]
        loops = bigons = 0
        for d in duals:
            oracle = StringDual(d.pants, d.bonds, d.legs)
            assert_same_dual(d, oracle)
            ends = [frozenset(d.bond_endpoints(i)) for i in range(len(d.bonds))]
            loops += sum(d.is_loop_bond(i) for i in range(len(d.bonds)))
            bigons += len(ends) - len(set(ends))
            for i in range(len(d.bonds)):
                if d.is_loop_bond(i):
                    continue
                for choice in (0, 1):
                    assert_same_dual(ih_flip(d, i, choice), string_ih_flip(oracle, i, choice))
        assert loops and bigons
