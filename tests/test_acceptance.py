"""Acceptance suite: one test per published capability, each printing a
single PASS/FAIL line and holding a wall-clock budget.

Run with output enabled to see the lines:

    pytest -s tests/test_acceptance.py
"""

import random
import time
from contextlib import contextmanager

from spherecomplex import (
    DualMultigraph,
    EdgeBijection,
    LIFTED,
    OBSTRUCTED,
    AMBIGUOUS_ORDER_2,
    Multigraph,
    PLAIN,
    SphereSystem,
    CutLabeling,
    betti_numbers,
    build_caterpillar_window,
    build_genus_zero_complex,
    catalog,
    caterpillar_witness,
    classify_link,
    enumerate_automorphisms,
    enumerate_pants,
    f_vector,
    find_k3_k13_pair,
    flip_partners,
    good_pair_census,
    is_edge_isomorphism,
    lift_edge_isomorphism,
    link_equivalence_classes,
    maximal_cliques,
    nonpants_regions,
    pants_flip_graph,
    random_connected_multigraph,
    scramble,
    search_embedding,
    verify_rigidity,
)

from oracles import label_action_automorphisms, search_isomorphism


@contextmanager
def criterion(n: int, label: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print("\nACCEPTANCE %2d %-38s FAIL" % (n, label))
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget else "FAIL"
    print("\nACCEPTANCE %2d %-38s %s (%.2fs / %.0fs)"
          % (n, label, verdict, elapsed, budget))
    assert elapsed < budget, \
        f"criterion {n} over budget: {elapsed:.2f}s >= {budget:.0f}s"


def test_criterion_01_four_holed_skeleton():
    with criterion(1, "four-holed sphere complex", 1.0):
        c = build_genus_zero_complex(4)
        assert c.n_vertices == 3 and c.n_edges == 0
        fg = pants_flip_graph(4)
        assert len(fg.nodes) == 3 and len(fg.edges) == 3, \
            "all three sphere pairs must be flip-related"
        assert fg.connected and fg.diameter == 1
        for P in enumerate_pants(4):
            (a,) = P.sorted_members()
            partners = flip_partners(P, a)
            assert sorted(partners) == sorted(
                v for v in c.vertices if v != a)


def test_criterion_02_five_holed_is_petersen():
    with criterion(2, "five-holed complex is the Petersen graph", 5.0):
        c = build_genus_zero_complex(5)
        assert c.n_vertices == 10 and c.n_edges == 15
        assert search_isomorphism(c, catalog("petersen")) is not None
        auts = {a.key() for a in enumerate_automorphisms(c)}
        action = {a.key() for a in label_action_automorphisms(5)}
        assert len(auts) == 120
        assert action == auts, \
            "the label action must realize the whole automorphism group"


def test_criterion_03_six_holed_counts_and_homology():
    with criterion(3, "six-holed f-vector and homology", 30.0):
        c = build_genus_zero_complex(6)
        fv = f_vector(c)
        assert fv.counts == (25, 105, 105)
        assert fv.euler == 25
        rep = betti_numbers(c, 2)
        b0, b1, b2 = rep.betti
        assert b0 == 1
        assert b2 >= 1
        assert b0 - b1 + b2 == 25


def test_criterion_04_non_embeddings():
    with criterion(4, "certified non-embeddings", 10.0):
        petersen = catalog("petersen")
        k33 = catalog("k33")
        cat = build_caterpillar_window(10).complex
        assert search_embedding(k33, petersen) is None
        assert search_embedding(k33, petersen,
                                use_acyclicity_shortcut=False) is None
        assert petersen.n_vertices > k33.n_vertices, \
            "vertex-count precheck applies"
        assert search_embedding(petersen, k33) is None
        for src in (k33, petersen):
            quick = search_embedding(src, cat)
            slow = search_embedding(src, cat, use_acyclicity_shortcut=False)
            assert quick is None and slow is None, \
                "shortcut and exhaustive search must agree"


def test_criterion_05_pants_and_flip_graphs():
    with criterion(5, "pants counts and flip connectivity", 20.0):
        assert len(enumerate_pants(5)) == 15
        assert len(enumerate_pants(6)) == 105
        for s in (4, 5, 6):
            fg = pants_flip_graph(s)
            assert fg.connected, f"flip graph disconnected at s={s}"
            for P in enumerate_pants(s):
                for a in P.sorted_members():
                    assert len(flip_partners(P, a)) == 2, \
                        f"{P.system_id()} at {a}"


def test_criterion_06_link_classification_table():
    with criterion(6, "link classification table", 1.0):
        loop = DualMultigraph(["q0"], [("q0.0", "q0.1")], [("q0.2", "1")])
        bridge = DualMultigraph(
            ["u", "v"], [("u.0", "v.0")],
            [("u.1", "1"), ("u.2", "2"), ("v.1", "3"), ("v.2", "4")])
        chain = DualMultigraph(
            ["q0", "q1", "q2", "q3"],
            [("q2.1", "q3.0"), ("q1.1", "q2.0"), ("q0.0", "q1.0")],
            [("q0.1", "1"), ("q0.2", "2"), ("q1.2", "3"),
             ("q2.2", "4"), ("q3.1", "5"), ("q3.2", "6")])
        bigon = DualMultigraph(
            ["u", "v"], [("u.0", "v.0"), ("u.1", "v.1")],
            [("u.2", "1"), ("v.2", "2")])
        loop_adjacent = DualMultigraph(
            ["u", "v"], [("u.0", "u.1"), ("u.2", "v.0")],
            [("v.1", "1"), ("v.2", "2")])
        loop_disjoint = DualMultigraph(
            ["u", "v", "w"],
            [("u.0", "u.1"), ("u.2", "v.0"), ("v.1", "w.0")],
            [("v.2", "1"), ("w.1", "2"), ("w.2", "3")])
        star = DualMultigraph(
            ["c", "x", "y", "z"],
            [("c.0", "x.0"), ("c.1", "y.0"), ("c.2", "z.0")],
            [("x.1", "1"), ("x.2", "2"), ("y.1", "3"),
             ("y.2", "4"), ("z.1", "5"), ("z.2", "6")])
        triangle = DualMultigraph(
            ["u", "v", "w"],
            [("u.0", "v.0"), ("v.1", "w.0"), ("w.1", "u.1")],
            [("u.2", "1"), ("v.2", "2"), ("w.2", "3")])
        table = [
            (loop, [0], [(1, 1)]),
            (bridge, [0], [(0, 4)]),
            (chain, [0, 2], [(0, 4), (0, 4)]),
            (chain, [1, 2], [(0, 5)]),
            (bigon, [0, 1], [(1, 2)]),
            (loop_adjacent, [0, 1], [(1, 2)]),
            (loop_disjoint, [0, 2], [(0, 4), (1, 1)]),
            (star, [0, 1, 2], [(0, 6)]),
            (triangle, [0, 1, 2], [(1, 3)]),
        ]
        for d, eta, want in table:
            got = classify_link(d, eta).as_pairs()
            assert sorted(got) == sorted(want), (eta, got, want)


def test_criterion_07_edge_isomorphism_lifting():
    with criterion(7, "edge-isomorphism lifting roundtrips", 10.0):
        rng = random.Random(20260816)
        for trial in range(100):
            g = random_connected_multigraph(rng)  # 3..12 vertices
            h, vmap, emap = scramble(g, rng)
            psi = EdgeBijection(g, h, emap)
            assert is_edge_isomorphism(psi), f"trial {trial}"
            res = lift_edge_isomorphism(psi)
            assert res.verdict == LIFTED, f"trial {trial}: {res.verdict}"
            assert res.vertex_map == vmap, f"trial {trial}: wrong recovery"
        k3 = Multigraph(["x", "y", "z"],
                        {"e1": ("x", "y"), "e2": ("y", "z"), "e3": ("x", "z")})
        k13 = Multigraph(["c", "l1", "l2", "l3"],
                         {"f1": ("c", "l1"), "f2": ("c", "l2"),
                          "f3": ("c", "l3")})
        psi = EdgeBijection(k3, k13, {"e1": "f1", "e2": "f2", "e3": "f3"})
        assert is_edge_isomorphism(psi), "the exceptional pair is accepted"
        assert find_k3_k13_pair(psi) == ("e1", "e2", "e3")
        assert lift_edge_isomorphism(psi).verdict == OBSTRUCTED
        bundle = Multigraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v")})
        res = lift_edge_isomorphism(
            EdgeBijection(bundle, bundle, {"a": "a", "b": "b"}))
        assert res.verdict == AMBIGUOUS_ORDER_2


def test_criterion_08_exhaustive_rigidity():
    with criterion(8, "exhaustive rigidity of s=5 and s=6", 60.0):
        for s, order in ((5, 120), (6, 720)):
            c = build_genus_zero_complex(s)
            cert = verify_rigidity(c.vertices, c, PLAIN)
            assert cert.total_maps == order, \
                f"s={s}: {cert.total_maps} locally injective self-maps"
            assert cert.all_extend
            assert len(set(cert.extensions)) == order, \
                f"s={s}: extensions must be pairwise distinct"


def connected_interior_subsets(c, max_size):
    level = {frozenset([v]) for v in c.vertices}
    out = []
    for _ in range(2, max_size + 1):
        grown = set()
        for sub in level:
            for v in sub:
                for u in c.neighbors(v):
                    if u not in sub:
                        grown.add(sub | {u})
        level = grown
        out.extend(level)
    return out


def test_criterion_09_caterpillar_witnesses():
    with criterion(9, "caterpillar witnesses for all windows", 10.0):
        win = build_caterpillar_window(6)
        interior = win.complex.induced(win.interior_vertices())
        subsets = connected_interior_subsets(interior, 8)
        assert len(subsets) == 609
        for sub in subsets:
            w = caterpillar_witness(sorted(sub), win)
            vm = w.vertex_map
            assert vm.is_simplicial() and vm.is_locally_injective()
            assert win.types[w.moved_vertex] == w.from_type
            assert win.types[w.moved_to] == w.to_type
            assert w.from_type != w.to_type, \
                "the moved vertex must change type"


def test_criterion_10_good_pair_threshold():
    with criterion(10, "good-pair census threshold", 1.0):
        for n in (1, 2, 3):
            for s in range(0, 9):
                cut = CutLabeling.from_signature(n, s)
                cen = good_pair_census(cut, 1)
                assert cen.nonempty == (2 * n + s >= 6), (n, s)
                assert cen.threshold_met == (2 * n + s >= 6), (n, s)


def test_criterion_11_link_classes_vs_regions():
    with criterion(11, "link classes match laminar regions", 20.0):
        c = build_genus_zero_complex(7)
        cliques = maximal_cliques(c)
        rng = random.Random(7)
        for _ in range(200):
            clique = rng.choice(cliques)
            sub = rng.sample(sorted(clique), rng.randint(1, len(clique)))
            sigma = SphereSystem(c, sub)
            lc = link_equivalence_classes(sigma)  # raises on intransitivity
            regions = nonpants_regions(sigma)
            assert len(lc.classes) == len(regions)
            got = sorted((cl.region_labels, cl.region_spheres)
                         for cl in lc.classes)
            want = sorted((labels, spheres) for labels, spheres, _ in regions)
            assert got == want
