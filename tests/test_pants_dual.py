"""Pants decompositions, the flip graph, dual multigraphs, and link
classification."""

import dataclasses
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
        text = json.dumps(dataclasses.asdict(fg), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
