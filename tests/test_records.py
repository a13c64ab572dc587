"""The result records: named tuples with the field names and order, the
defaults and the repr of the frozen dataclasses they replaced, and the
rigidity certificate and its map orbits."""

import pickle

import pytest

from spherecomplex import (
    CaterpillarWindow,
    CaterpillarWitness,
    ChainBoundary,
    CutLabeling,
    EdgeBijection,
    FlipGraph,
    GoodPairCensus,
    HomologyReport,
    JoinDecomposition,
    LiftResult,
    LinkClass,
    LinkClasses,
    ManifoldSignature,
    MapOrbit,
    Multigraph,
    RigidityCertificate,
    SNFResult,
    SphereSystem,
    betti_numbers,
    boundary_matrix,
    build_caterpillar_window,
    build_genus_zero_complex,
    caterpillar_witness,
    flag_from_adjacency,
    good_pair_census,
    lift_edge_isomorphism,
    link_equivalence_classes,
    pants_flip_graph,
    smith_normal_form,
    verify_rigidity,
)

# field order of each record as ``dataclasses.fields`` listed it
FIELDS = {
    ManifoldSignature: ("n", "s"),
    CaterpillarWindow: ("complex", "types", "frontier", "m"),
    CutLabeling: ("n", "s", "labels", "delta"),
    GoodPairCensus: ("pair_index", "spare_labels", "good_spheres", "good_pairs",
                     "nonempty", "threshold_met"),
    ChainBoundary: ("dim", "rows", "cols", "columns"),
    SNFResult: ("rank", "factors"),
    HomologyReport: ("max_dim", "simplex_counts", "boundary_ranks", "betti", "torsion",
                     "euler_from_f", "betti_alternating_sum"),
    FlipGraph: ("nodes", "node_members", "edges", "connected", "diameter"),
    RigidityCertificate: ("subcomplex_id", "ambient_id", "mode", "total_maps",
                          "all_extend", "orbits", "counterexample",
                          "automorphism_order"),
    MapOrbit: ("least", "size", "extends"),
    LinkClass: ("members", "region_labels", "region_spheres", "factor"),
    LinkClasses: ("classes",),
    CaterpillarWitness: ("vertex_map", "moved_vertex", "moved_to", "from_type",
                         "to_type", "reason"),
    JoinDecomposition: ("factors",),
    LiftResult: ("verdict", "bijection", "vertex_map", "obstruction"),
}


def path3():
    return flag_from_adjacency(["a", "b", "c"], [("a", "b"), ("b", "c")])


def edge():
    return Multigraph(["x", "y"], {"e": ("x", "y")})


# one instance of each record and its repr, as the dataclasses wrote it
REPRS = [
    (lambda: boundary_matrix(path3(), 1),
     "ChainBoundary(dim=1, rows=(('a',), ('b',), ('c',)), cols=(('a', 'b'), ('b', 'c')), "
     "columns=(((1, 1), (0, -1)), ((2, 1), (1, -1))))"),
    (lambda: smith_normal_form([[2, 0], [0, 3]]), "SNFResult(rank=2, factors=(1, 6))"),
    (lambda: betti_numbers(path3(), 1),
     "HomologyReport(max_dim=1, simplex_counts=(3, 2), boundary_ranks=(0, 2, 0), "
     "betti=(1, 0), torsion=((), ()), euler_from_f=1, betti_alternating_sum=1)"),
    (lambda: pants_flip_graph(4),
     "FlipGraph(nodes=('p:1,2|s=4', 'p:1,3|s=4', 'p:1,4|s=4'), node_members="
     "{'p:1,2|s=4': ('p:1,2|s=4',), 'p:1,3|s=4': ('p:1,3|s=4',), 'p:1,4|s=4': "
     "('p:1,4|s=4',)}, edges=(('p:1,2|s=4', 'p:1,3|s=4'), ('p:1,2|s=4', 'p:1,4|s=4'), "
     "('p:1,3|s=4', 'p:1,4|s=4')), connected=True, diameter=1)"),
    (lambda: CutLabeling.from_signature(1, 1),
     "CutLabeling(n=1, s=1, labels=('A1+', 'A1-', 'B1'), delta={'A1+': ('cut-sphere', 1), "
     "'A1-': ('cut-sphere', 1), 'B1': ('boundary', 1)})"),
    (lambda: good_pair_census(CutLabeling.from_signature(1, 2), 1),
     "GoodPairCensus(pair_index=1, spare_labels=('B1', 'B2'), good_spheres=(('B1', 'B2'), "
     "('B2', 'B1')), good_pairs=(), nonempty=False, threshold_met=False)"),
    (lambda: build_caterpillar_window(0),
     "CaterpillarWindow(complex=FlagComplex(2 vertices, 1 edges), types={'z:0': "
     "'nonseparating', 'w:0': 'separating'}, frontier=frozenset({'z:0'}), m=0)"),
    (lambda: caterpillar_witness(["z:0", "w:0"], build_caterpillar_window(2)),
     "CaterpillarWitness(vertex_map=VertexMap(2 -> 10 vertices), moved_vertex='w:0', "
     "moved_to='z:1', from_type='separating', to_type='nonseparating', reason='w:0 "
     "(separating) is sent to z:1 (nonseparating); automorphisms of the ideal caterpillar "
     "preserve vertex types, so no automorphism restricts to this map')"),
    (lambda: link_equivalence_classes(SphereSystem(build_genus_zero_complex(5),
                                                   ["p:1,2|s=5"])),
     "LinkClasses(classes=(LinkClass(members=('p:1,2,3|s=5', 'p:1,2,4|s=5', "
     "'p:1,2,5|s=5'), region_labels=(3, 4, 5), region_spheres=('p:1,2|s=5',), "
     "factor=ManifoldSignature(n=0, s=4)),))"),
    (lambda: ManifoldSignature(1, 2), "ManifoldSignature(n=1, s=2)"),
    (lambda: JoinDecomposition((ManifoldSignature(0, 3), ManifoldSignature(1, 2))),
     "JoinDecomposition(factors=(ManifoldSignature(n=0, s=3), "
     "ManifoldSignature(n=1, s=2)))"),
    (lambda: lift_edge_isomorphism(EdgeBijection(edge(), edge(), {"e": "e"})),
     "LiftResult(verdict='ambiguous-order-2', bijection=EdgeBijection(1 edges), "
     "vertex_map=None, obstruction=None)"),
    (lambda: verify_rigidity(["p:1,2|s=5"], build_genus_zero_complex(5)),
     "RigidityCertificate(subcomplex_id='p:1,2|s=5', ambient_id='genus-zero:s=5', "
     "mode='plain', total_maps=10, all_extend=False, orbits=(MapOrbit(least=(0,), size=10, "
     "extends=False),), counterexample={'p:1,2|s=5': 'p:1,2,3|s=5'}, "
     "automorphism_order=120)"),
    (lambda: verify_rigidity(["p:1,2|s=5", "p:1,3|s=5"], build_genus_zero_complex(5)).orbits[1],
     "MapOrbit(least=(0, 1), size=60, extends=False)"),
]


def test_field_order_is_the_dataclass_order():
    for record, fields in FIELDS.items():
        assert record._fields == fields, record.__name__


def test_only_lift_results_have_defaults():
    for record in FIELDS:
        defaults = getattr(record, "_field_defaults", {})
        expected = {"vertex_map": None, "obstruction": None} if record is LiftResult else {}
        assert defaults == expected, record.__name__


REPR_IDS = [text.partition("(")[0] for _, text in REPRS]


@pytest.mark.parametrize("make, text", REPRS, ids=REPR_IDS)
def test_repr_is_the_dataclass_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", REPRS, ids=REPR_IDS)
def test_records_are_immutable(make, text):
    record = make()
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        setattr(record, "no_such_field", None)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_every_record_has_a_repr_case():
    assert {type(make()) for make, _ in REPRS} | {LinkClass} == set(FIELDS)


class TestManifoldSignature:
    def test_negative_entries_rejected(self):
        for n, s in [(-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="nonnegative"):
                ManifoldSignature(n, s)
        with pytest.raises(ValueError, match="nonnegative"):
            ManifoldSignature(1, 2)._replace(s=-1)

    def test_ordered_as_the_pair(self):
        sigs = [ManifoldSignature(n, s) for n in (2, 0, 1) for s in (3, 0)]
        assert [sig.as_pair() for sig in sorted(sigs)] == sorted(sig.as_pair() for sig in sigs)
        assert ManifoldSignature(0, 9) < ManifoldSignature(1, 0) <= ManifoldSignature(1, 0)

    def test_value_semantics(self):
        sig = ManifoldSignature(1, 2)
        assert sig == ManifoldSignature(1, 2) != ManifoldSignature(2, 1)
        assert hash(sig) == hash(ManifoldSignature(1, 2))
        assert (str(sig), sig.pants_size, sig.as_pair()) == ("(1,2)", 2, (1, 2))
        assert pickle.loads(pickle.dumps(sig)) == sig
        assert not hasattr(sig, "__dict__")


class TestJoinDecomposition:
    def test_unsorted_factors_rejected(self):
        a, b = ManifoldSignature(0, 3), ManifoldSignature(1, 2)
        with pytest.raises(ValueError, match="canonical order"):
            JoinDecomposition((b, a))
        join = JoinDecomposition((a, b))
        with pytest.raises(ValueError, match="canonical order"):
            join._replace(factors=(b, a))
        assert join.as_pairs() == [(0, 3), (1, 2)]
        assert pickle.loads(pickle.dumps(join)) == join
        assert not hasattr(join, "__dict__")


class TestRigidityCertificate:
    def test_value_semantics(self):
        args = ("a", "c", "plain", 1, True, (MapOrbit((0,), 1, True),), None, 2)
        cert = RigidityCertificate(*args)
        assert cert == RigidityCertificate(*args) != RigidityCertificate(*args[:-1], 3)
        assert hash(cert) == hash(RigidityCertificate(*args))
        assert tuple(getattr(cert, f) for f in cert._fields) == args
        assert pickle.loads(pickle.dumps(cert)) == cert
        assert not hasattr(cert, "__dict__")

    def test_hash_needs_hashable_fields(self):
        orbits = (MapOrbit((0,), 1, False),)
        cert = RigidityCertificate("a", "c", "plain", 1, False, orbits, {"a": "b"}, 2)
        with pytest.raises(TypeError):
            hash(cert)
