"""Rigidity machinery: locally injective maps checked against the
automorphism list, split spheres and pairs, detectability witnesses,
link equivalence classes, caterpillar witnesses, and the good-pair
census."""

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from spherecomplex import (
    OVER_MAXIMAL_MAPS,
    PLAIN,
    AutomorphismGroup,
    CutLabeling,
    PantsDecomposition,
    RigidityCertificate,
    SpherePartition,
    SphereSystem,
    VertexMap,
    automorphism_group,
    build_caterpillar_window,
    build_genus_zero_complex,
    build_x_sigma,
    catalog,
    catalog_names,
    caterpillar_witness,
    complex_id,
    detect_x_detectable,
    enumerate_automorphisms,
    enumerate_locally_injective_maps,
    enumerate_pants,
    flag_from_adjacency,
    find_split_pairs,
    find_split_spheres,
    flip_partners,
    good_pair_census,
    link_equivalence_classes,
    maximal_cliques,
    nonpants_regions,
    verify_rigidity,
)
from spherecomplex import rigidity, search

from oracles import label_action_automorphisms


def vid(s, *labels):
    return SpherePartition(s, labels).vertex_id()


def assert_split_spheres_are_flip_partners(P):
    """A vertex outside the maximal clique P that is adjacent to every
    member but a cannot be adjacent to a, or P would not be maximal; so
    the split spheres of a are its flip partners, and X_sigma is P plus
    the partners of every member."""
    partners = set()
    for a in sorted(P.members):
        found = find_split_spheres(P, a)
        assert found == list(flip_partners(P, a))
        partners.update(found)
    assert build_x_sigma(P) == P.complex.induced(P.members | partners)


class TestLabelAction:
    def test_surjective_onto_the_automorphism_group(self, c4, c5):
        """Every simplicial automorphism comes from a boundary-label
        permutation (s = 4 and 5; s = 6 is covered by the acceptance
        suite)."""
        for s, c in ((4, c4), (5, c5)):
            acts = {a.key() for a in label_action_automorphisms(s)}
            auts = {a.key() for a in enumerate_automorphisms(c)}
            assert acts == auts, f"s={s}"

    def test_faithful_from_five_labels(self):
        assert len(label_action_automorphisms(5)) == factorial(5)
        assert len(label_action_automorphisms(6)) == factorial(6)

    def test_s4_kernel_is_the_double_transpositions(self):
        """On three pairwise-crossing spheres the label action factors
        through S3: swapping both blocks of a partition fixes it."""
        assert len(label_action_automorphisms(4)) == 6
        assert automorphism_group(build_genus_zero_complex(4)).order == 6


class TestVerifyRigidity:
    def test_whole_s5_complex(self, c5):
        cert = verify_rigidity(c5.vertices, c5, PLAIN)
        assert cert.total_maps == 120
        assert cert.all_extend
        assert cert.automorphism_order == 120
        assert len(set(cert.extensions)) == 120, "extensions are distinct"

    def test_over_maximal_maps_mode(self, c5):
        cert = verify_rigidity(c5.vertices, c5, OVER_MAXIMAL_MAPS)
        assert cert.mode == OVER_MAXIMAL_MAPS
        assert cert.total_maps == 120 and cert.all_extend

    def test_group_above_the_element_cap_raises(self, c5, monkeypatch):
        monkeypatch.setattr(AutomorphismGroup, "ELEMENT_CAP", 10)
        with pytest.raises(ValueError, match="too large to list"):
            verify_rigidity(c5.vertices, c5, PLAIN)

    def test_element_cap_check_runs_under_optimize(self):
        """The cap check is not an assert, so ``python -O`` keeps it."""
        import spherecomplex
        src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
        code = (
            "from spherecomplex import AutomorphismGroup, build_genus_zero_complex, verify_rigidity\n"
            "AutomorphismGroup.ELEMENT_CAP = 10\n"
            "c = build_genus_zero_complex(5)\n"
            "try:\n"
            "    verify_rigidity(c.vertices, c)\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ValueError: ambient automorphism group")

    def test_single_vertex_is_not_rigid(self, c5):
        cert = verify_rigidity([c5.vertices[0]], c5, PLAIN)
        assert cert.total_maps == 10
        assert not cert.all_extend
        assert cert.counterexample is not None

    def test_unknown_mode_rejected(self, c5):
        with pytest.raises(ValueError):
            verify_rigidity(c5.vertices, c5, "fancy")


def reference_certificate(X_vertices, ambient, mode):
    """The certificate as the unpruned search gives it: every locally
    injective map from the public enumerator, each looked up among the
    restrictions of every element of the automorphism group."""
    xs = sorted(set(X_vertices))
    X = ambient.induced(xs)
    kwargs = {}
    if mode == OVER_MAXIMAL_MAPS:
        inside = [q for q in maximal_cliques(ambient) if set(q) <= set(xs)]
        kwargs = {"require_maximal": True, "ambient_maximal_cliques": inside}
    group = automorphism_group(ambient)
    restrictions = {}
    for k, g in enumerate(enumerate_automorphisms(ambient)):
        restrictions.setdefault(tuple(g[v] for v in xs), []).append(k)
    extensions, counterexample = [], None
    for m in enumerate_locally_injective_maps(X, ambient, **kwargs):
        ks = restrictions.get(tuple(m[v] for v in xs), [])
        extensions.append(ks[0] if len(ks) == 1 else None)
        if len(ks) != 1 and counterexample is None:
            counterexample = dict(m.assignment)
    return RigidityCertificate(
        ";".join(xs), complex_id(ambient), mode, len(extensions),
        None not in extensions, tuple(extensions), counterexample, group.order)


def cherries(members, s):
    """Members cutting off exactly two labels."""
    sizes = [len(SpherePartition.from_vertex_id(v).block) for v in members]
    return sum(1 for b in sizes if min(b, s - b) == 2)


def certificate_digest(cert):
    payload = json.dumps([cert.total_maps, list(cert.extensions), cert.counterexample],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@st.composite
def ambient_and_subset(draw):
    """A random graph on at most 7 vertices and a vertex subset of it."""
    n = draw(st.integers(min_value=1, max_value=7))
    vs = ["g%d" % i for i in range(n)]
    pairs = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    xs = draw(st.lists(st.sampled_from(vs), unique=True))
    return flag_from_adjacency(vs, pairs), xs


def cycle_or_path(n, closed):
    """The cycle or the path on n vertices, ids in vertex order."""
    vs = ["v%03d" % i for i in range(n)]
    pairs = list(zip(vs, vs[1:])) + ([(vs[-1], vs[0])] if closed else [])
    return flag_from_adjacency(vs, pairs)


class TestOrbitPruning:
    """The orbit-pruned certificate equals the unpruned reference field
    for field: maps, their order, extensions and the counterexample."""

    @pytest.mark.parametrize("s", [4, 5, 6])
    @pytest.mark.parametrize("mode", [PLAIN, OVER_MAXIMAL_MAPS])
    def test_whole_complex(self, s, mode):
        c = build_genus_zero_complex(s)
        assert verify_rigidity(c.vertices, c, mode) == reference_certificate(c.vertices, c, mode)

    @pytest.mark.parametrize("mode", [PLAIN, OVER_MAXIMAL_MAPS])
    def test_every_x_sigma_at_five(self, c5, mode):
        for P in enumerate_pants(5):
            xs = build_x_sigma(P).vertices
            assert verify_rigidity(xs, c5, mode) == reference_certificate(xs, c5, mode)

    @pytest.mark.parametrize("mode", [PLAIN, OVER_MAXIMAL_MAPS])
    def test_sampled_x_sigma_at_six(self, c6, mode):
        pants = enumerate_pants(6)
        sample = random.Random(6).sample(pants, 3)
        sample.append(next(P for P in pants if cherries(P.members, 6) == 3))
        for P in sample:
            xs = build_x_sigma(P).vertices
            assert verify_rigidity(xs, c6, mode) == reference_certificate(xs, c6, mode)

    @pytest.mark.parametrize("mode", [PLAIN, OVER_MAXIMAL_MAPS])
    def test_small_subsets(self, c5, mode):
        """A disconnected X (two crossing spheres plus a third), one
        vertex, and the empty set."""
        a, b = vid(5, 1, 2), vid(5, 1, 3)
        assert not c5.adjacent(a, b)
        for xs in ([a, b], [a, b, vid(5, 4, 5)], [a], []):
            assert verify_rigidity(xs, c5, mode) == reference_certificate(xs, c5, mode)
        # no constraint ties the two components: any pair of images
        disconnected = verify_rigidity([a, b], c5, mode)
        assert disconnected.total_maps == 10 * 10 and not disconnected.all_extend

    @pytest.mark.parametrize("name", ["petersen", "k13", "k33"])
    def test_catalog_complexes(self, name):
        c = catalog(name)
        xs = c.vertices[:4]
        for mode in (PLAIN, OVER_MAXIMAL_MAPS):
            assert verify_rigidity(xs, c, mode) == reference_certificate(xs, c, mode)

    @settings(max_examples=60)
    @given(ambient_and_subset(), st.sampled_from([PLAIN, OVER_MAXIMAL_MAPS]))
    def test_random_ambients(self, case, mode):
        """Random ambients have several orbits, trivial groups and
        disconnected subsets."""
        ambient, xs = case
        assert verify_rigidity(xs, ambient, mode) == reference_certificate(xs, ambient, mode)

    @pytest.mark.parametrize("n", [256, 300])
    @pytest.mark.parametrize("closed", [True, False], ids=["cycle", "path"])
    def test_either_side_of_the_byte_rows(self, n, closed):
        """Maps are bytes rows up to 256 ambient vertices and index
        tuples above; both give the reference certificate.  On the path
        most maps do not extend, so both build a counterexample."""
        c = cycle_or_path(n, closed)
        xs = c.vertices[:3]
        cert = verify_rigidity(xs, c)
        assert cert == reference_certificate(xs, c, PLAIN)
        kept = automorphism_group(c)._kept
        assert {type(g) for g in kept} == {bytes if n <= 256 else tuple}
        expected = (2 * n, True, 2 * n) if closed else (2 * n - 4, False, 2)
        assert (cert.total_maps, cert.all_extend, cert.automorphism_order) == expected
        assert (cert.counterexample is None) == closed


class TestFrozenCertificates:
    """sha256 of (total_maps, extensions, counterexample), recorded from
    the unpruned search before orbit pruning."""

    @pytest.mark.parametrize("mode", [PLAIN, OVER_MAXIMAL_MAPS])
    def test_whole_s6(self, c6, mode):
        cert = verify_rigidity(c6.vertices, c6, mode)
        assert certificate_digest(cert) == (
            "72b443eb7d486ced5554f32f77139f95dd5d3ee0ecff1b7aa706a47a1a02656b")

    def test_x_sigma_s7(self):
        """The first three-cherry pants decomposition at s = 7, as in the
        benchmark's rigidity workload."""
        P = next(P for P in enumerate_pants(7) if cherries(P.members, 7) == 3)
        assert sorted(P.members) == [vid(7, 1, 2, 3, 4, 5), vid(7, 1, 2, 3, 4),
                                     vid(7, 1, 2, 5, 6, 7), vid(7, 1, 2)]
        cert = verify_rigidity(build_x_sigma(P).vertices, P.complex, PLAIN)
        assert (cert.total_maps, cert.all_extend, cert.automorphism_order) == (50400, False, 5040)
        assert certificate_digest(cert) == (
            "96cf5b2698d9b3b72da8502efedc1c6931bed6f9c011d605fdd724b3e50af110")


def test_x_sigma_s7_certificate_memory():
    """tracemalloc peak of the three-cherry X_sigma certificate at s = 7
    once the group's stabiliser chain is built, so listing its elements
    is counted.  Every map listed: 11.3 MB as index tuples, 7.8 MB as
    bytes rows beside the group's index tuples.  Summed per orbit, with
    the group kept only as bytes rows: 2.07 MB, and 5.20 MB once
    ``extensions`` is read (Python 3.11; the same under every hash
    seed).  The bounds leave 25% for other Python versions."""
    P = next(P for P in enumerate_pants(7) if cherries(P.members, 7) == 3)
    xs = build_x_sigma(P).vertices
    automorphism_group(P.complex)
    tracemalloc.start()
    try:
        cert = verify_rigidity(xs, P.complex)
        summary = tracemalloc.get_traced_memory()[1]
        cert.extensions
        listed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary <= 2_600_000
    assert listed <= 6_500_000


class TestLazyExtensions:
    """``extensions`` is listed on its first read; the other fields come
    from one found map per orbit."""

    def test_summary_leaves_extensions_unbuilt(self, c5):
        a, b = vid(5, 1, 2), vid(5, 1, 3)
        cert = verify_rigidity([a, b], c5)
        assert (cert.total_maps, cert.all_extend) == (100, False)
        assert cert.counterexample is not None
        assert "extensions" not in vars(cert)
        assert cert == reference_certificate([a, b], c5, PLAIN)
        assert "extensions" in vars(cert) and "_expand" not in vars(cert)

    def test_copies_carry_the_listed_extensions(self, c5):
        cert = verify_rigidity([vid(5, 1, 2)], c5)
        clone = pickle.loads(pickle.dumps(cert))
        assert "extensions" in vars(cert) and "_expand" not in vars(clone)
        assert clone == cert and copy.copy(cert) == cert

    def test_unknown_attribute_raises(self, c5):
        cert = verify_rigidity([vid(5, 1, 2)], c5)
        with pytest.raises(AttributeError, match="no_such_field"):
            cert.no_such_field
        assert "extensions" not in vars(cert)


class TestOrbitRepresentatives:
    """The search yields exactly one map per orbit of the ambient
    automorphism group; every other map is rebuilt from it.  The counts
    are deterministic, so they guard the pruning without a clock."""

    @pytest.fixture
    def found(self, monkeypatch):
        """How many placements each search yielded, in call order."""
        counts = []
        real = rigidity._locally_injective_placements

        def counting(*args):
            placements = list(real(*args))
            counts.append(len(placements))
            return placements

        monkeypatch.setattr(rigidity, "_locally_injective_placements", counting)
        return counts

    def test_x_sigma_s7_three_cherries(self, found):
        P = next(P for P in enumerate_pants(7) if cherries(P.members, 7) == 3)
        cert = verify_rigidity(build_x_sigma(P).vertices, P.complex, PLAIN)
        assert found == [10] and cert.total_maps == 10 * 5040

    @pytest.mark.parametrize("k, reps", [(2, 2), (3, 7)])
    def test_x_sigma_s6(self, c6, k, reps, found):
        P = next(P for P in enumerate_pants(6) if cherries(P.members, 6) == k)
        cert = verify_rigidity(build_x_sigma(P).vertices, c6, PLAIN)
        assert found == [reps] and cert.total_maps == reps * 720

    @pytest.mark.parametrize("s", [5, 6, 7])
    @pytest.mark.parametrize("mode", [PLAIN, OVER_MAXIMAL_MAPS])
    def test_whole_complex(self, s, mode, found):
        c = build_genus_zero_complex(s)
        cert = verify_rigidity(c.vertices, c, mode)
        assert found == [1] and cert.total_maps == cert.automorphism_order

    @pytest.mark.parametrize("mode", [PLAIN, OVER_MAXIMAL_MAPS])
    def test_empty_x(self, c5, mode, found):
        cert = verify_rigidity([], c5, mode)
        assert found == [1] and cert.total_maps == 1 and cert.all_extend is False


class TestGroupCache:
    """The automorphism group is computed once per complex object and
    kept on it; certificates read the kept group."""

    @pytest.fixture
    def chain_calls(self, monkeypatch):
        """The complexes ``search._stabiliser_chain`` ran on, in call order."""
        calls = []
        real = search._stabiliser_chain

        def counting(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(search, "_stabiliser_chain", counting)
        return calls

    def test_one_chain_for_twenty_certificates(self, chain_calls):
        c = build_genus_zero_complex(6)
        xs = build_x_sigma(enumerate_pants(6)[0]).vertices
        first = verify_rigidity(xs, c)
        for _ in range(19):
            assert verify_rigidity(xs, c) == first
        assert chain_calls == [c]

    def test_each_complex_object_computes_its_own_group(self, chain_calls):
        c = build_genus_zero_complex(6)
        group = automorphism_group(c)
        assert automorphism_group(c) is group
        twin = build_genus_zero_complex(6)
        sub = c.induced(c.vertices)
        assert twin == c and sub == c and twin is not c and sub is not c
        for other in (twin, sub):
            assert automorphism_group(other) is not group
            assert automorphism_group(other).order == group.order
        assert [id(x) for x in chain_calls] == [id(c), id(twin), id(sub)]

    @pytest.mark.parametrize("mode", [PLAIN, OVER_MAXIMAL_MAPS])
    @pytest.mark.parametrize("size", [0, 1, 9], ids=["empty", "one-vertex", "x-sigma"])
    def test_repeat_certificates_equal_the_first(self, mode, size, chain_calls):
        c = build_genus_zero_complex(6)
        xs = build_x_sigma(enumerate_pants(6)[0]).vertices[:size]
        first = verify_rigidity(xs, c, mode)
        assert verify_rigidity(xs, c, mode) == first
        assert verify_rigidity(xs, build_genus_zero_complex(6), mode) == first
        assert len(chain_calls) == 2

    def test_two_certificates_share_the_byte_rows(self, monkeypatch):
        seen = []
        real = AutomorphismGroup._elements

        def recording(group):
            seen.append(real(group))
            return seen[-1]

        monkeypatch.setattr(AutomorphismGroup, "_elements", recording)
        c = build_genus_zero_complex(6)
        xs = build_x_sigma(enumerate_pants(6)[0]).vertices
        first = verify_rigidity(xs, c)
        assert verify_rigidity(xs, c) == first
        assert len(seen) == 2 and seen[0] is seen[1]
        assert len(seen[0]) == automorphism_group(c).order
        assert all(len(row) == 256 for row in seen[0])

    def test_certificates_keep_each_element_once(self):
        """Up to 256 vertices the group keeps one list, of bytes rows in
        the index tuples' order, and the enumerator reads the same list."""
        c = build_genus_zero_complex(6)
        verify_rigidity(build_x_sigma(enumerate_pants(6)[0]).vertices, c)
        group = automorphism_group(c)
        rows = group._kept
        assert rows is not None
        n, tail = c.n_vertices, bytes(range(c.n_vertices, 256))
        perms = [tuple(map(c.index_of, a.key())) for a in enumerate_automorphisms(c)]
        assert group._kept is rows
        assert [row[:n] for row in rows] == list(map(bytes, perms))
        assert all(row[n:] == tail for row in rows)

    def test_element_cap_is_read_at_call_time(self, monkeypatch):
        """A group kept from an earlier call still meets a lowered cap."""
        c = build_genus_zero_complex(5)
        assert verify_rigidity(c.vertices, c).all_extend
        monkeypatch.setattr(AutomorphismGroup, "ELEMENT_CAP", 10)
        with pytest.raises(ValueError, match="too large to list"):
            verify_rigidity(c.vertices, c)


class TestSplitSpheres:
    def test_nested_chain_example(self, c6):
        P = PantsDecomposition(
            c6, [vid(6, 1, 2), vid(6, 1, 2, 3), vid(6, 5, 6)])
        found = find_split_spheres(P, vid(6, 1, 2, 3))
        assert vid(6, 3, 4) in found
        assert sorted(found) == [vid(6, 1, 2, 4), vid(6, 3, 4)]

    def test_s4_both_other_vertices_split(self, c4):
        a = c4.vertices[0]
        found = find_split_spheres(PantsDecomposition(c4, [a]), a)
        assert sorted(found) == sorted(v for v in c4.vertices if v != a)

    def test_member_required(self, c6):
        P = PantsDecomposition(
            c6, [vid(6, 1, 2), vid(6, 1, 2, 3), vid(6, 5, 6)])
        with pytest.raises(ValueError):
            find_split_spheres(P, vid(6, 1, 3))

    @settings(max_examples=40)
    @given(st.data())
    def test_matches_direct_scan(self, c5, data):
        """Independent re-derivation: b splits (a, P) iff b is outside
        P, crosses a, and is disjoint from the rest of P."""
        from spherecomplex import enumerate_pants
        P = data.draw(st.sampled_from(enumerate_pants(5)))
        a = data.draw(st.sampled_from(sorted(P.members)))
        want = [b for b in c5.vertices
                if b not in P.members and not c5.adjacent(a, b)
                and all(c5.adjacent(b, m) for m in P.members if m != a)]
        assert sorted(find_split_spheres(P, a)) == sorted(want)


    @pytest.mark.parametrize("s", [4, 5, 6, 7])
    def test_are_the_flip_partners(self, s):
        for P in enumerate_pants(s):
            assert_split_spheres_are_flip_partners(P)

    @pytest.mark.parametrize("name", catalog_names())
    def test_are_the_flip_partners_on_the_catalog(self, name):
        c = catalog(name)
        for q in maximal_cliques(c):
            assert_split_spheres_are_flip_partners(PantsDecomposition(c, q))


class TestSplitPairs:
    def test_pairs_are_disjoint_split_spheres(self, c6):
        a = vid(6, 1, 2, 3)
        pairs = find_split_pairs(a, c6.vertices, c6)
        assert pairs
        for b1, b2 in pairs:
            assert b1 != b2 and c6.adjacent(b1, b2)
            assert not c6.adjacent(a, b1) and not c6.adjacent(a, b2)

    def test_bare_vertex_has_no_pairs(self, c6):
        a = vid(6, 1, 2, 3)
        assert find_split_pairs(a, [a], c6) == []

    def test_every_sphere_splits_over_the_full_complex(self, c6):
        for a in c6.vertices[:6]:
            assert find_split_pairs(a, c6.vertices, c6)


class TestFrozenSplitAndDetect:
    """find_split_pairs for every member a of every sigma, and
    detect_x_detectable for a against every other vertex of X_sigma,
    with X = X_sigma; sha256 of the JSON list, recorded from the
    implementation that filtered every maximal clique of the ambient."""

    @pytest.mark.parametrize("s, pairs, witnesses, digest", [
        (5, 180, 60, "8797e92d0b907843dc639c8b751287021c87160782a7147e68a278a77709396c"),
        (6, 6840, 630, "967a5efb8185dac2bdc99aae3b795de8cb7168f6810058122b97626aafbf85d9"),
    ])
    def test_every_member_of_every_x_sigma(self, s, pairs, witnesses, digest):
        c = build_genus_zero_complex(s)
        out = []
        for P in enumerate_pants(s):
            xs = build_x_sigma(P).vertices
            for a in P.sorted_members():
                out.append([find_split_pairs(a, xs, c),
                            [detect_x_detectable(xs, c, a, a2) for a2 in xs if a2 != a]])
        assert sum(len(split) for split, _ in out) == pairs
        assert sum(w is not None for _, found in out for w in found) == witnesses
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == digest


class TestDetectability:
    def test_flip_witness(self, c5):
        a, a2 = vid(5, 1, 2), vid(5, 1, 5)
        X = [a, a2, vid(5, 3, 4)]
        w = detect_x_detectable(X, c5, a, a2)
        assert w == (tuple(sorted((vid(5, 1, 2), vid(5, 3, 4)))),
                     tuple(sorted((vid(5, 1, 5), vid(5, 3, 4)))))

    def test_disjoint_pair_gives_nothing(self, c5):
        a, b = vid(5, 1, 2), vid(5, 1, 2, 3)
        assert c5.adjacent(a, b)
        assert detect_x_detectable(c5.vertices, c5, a, b) is None

    def test_requires_the_shared_co_member(self, c5):
        a, a2 = vid(5, 1, 2), vid(5, 1, 5)
        assert detect_x_detectable([a, a2], c5, a, a2) is None

    def test_self_check_raises_without_assert(self, c5, monkeypatch):
        """A flip partner disjoint from a fails the closing check, which
        raises AssertionError itself, so ``python -O`` keeps it."""
        a, b = vid(5, 1, 2), vid(5, 1, 2, 3)
        monkeypatch.setattr(rigidity, "flip_partners", lambda P, a: {b})
        with pytest.raises(AssertionError, match="must intersect"):
            detect_x_detectable(c5.vertices, c5, a, b)


class TestXSigma:
    def test_pants_neighborhood_s5(self, c5):
        sigma = PantsDecomposition(c5, [vid(5, 1, 2), vid(5, 1, 2, 5)])
        xs = build_x_sigma(sigma)
        assert xs.n_vertices == 6
        assert set(sigma.members) <= set(xs.vertices)

    def test_s4_neighborhood_is_everything(self, c4):
        sigma = PantsDecomposition(c4, [c4.vertices[0]])
        assert build_x_sigma(sigma).n_vertices == 3

    @pytest.mark.parametrize("blocks, cherries, maps", [
        (((1, 2), (1, 2, 3), (1, 2, 3, 4)), 2, 1440),
        (((1, 2), (3, 4), (5, 6)), 3, 5040),
    ])
    def test_s6_map_count_follows_the_cherry_count(self, c6, blocks, cherries, maps):
        """Locally injective maps of X_sigma into the s = 6 complex: 1440
        for the two-cherry (caterpillar) tree, 5040 for the three-cherry
        one.  A cherry is a member cutting off exactly two labels."""
        assert sum(1 for b in blocks if min(len(b), 6 - len(b)) == 2) == cherries
        sigma = PantsDecomposition(c6, [vid(6, *b) for b in blocks])
        cert = verify_rigidity(build_x_sigma(sigma).vertices, c6, PLAIN)
        assert cert.total_maps == maps
        assert not cert.all_extend
        assert cert.automorphism_order == 720


class TestLinkClasses:
    def test_middle_sphere_of_six(self, c6):
        lc = link_equivalence_classes(SphereSystem(c6, [vid(6, 1, 2, 3)]))
        assert len(lc.classes) == 2
        assert all(cl.factor.as_pair() == (0, 4) for cl in lc.classes)

    def test_outer_sphere_of_six(self, c6):
        lc = link_equivalence_classes(SphereSystem(c6, [vid(6, 1, 2)]))
        assert len(lc.classes) == 1
        assert lc.classes[0].factor.as_pair() == (0, 5)

    def test_maximal_system_has_empty_link(self, c6):
        sigma = SphereSystem(
            c6, [vid(6, 1, 2), vid(6, 1, 2, 3), vid(6, 5, 6)])
        assert link_equivalence_classes(sigma).classes == ()

    def test_classes_partition_the_link(self, c6):
        lc = link_equivalence_classes(SphereSystem(c6, [vid(6, 1, 2, 3)]))
        seen = [v for cl in lc.classes for v in cl.members]
        assert len(seen) == len(set(seen))
        from spherecomplex import link_of
        lk = link_of(c6, [vid(6, 1, 2, 3)])
        assert sorted(seen) == sorted(lk.vertices)

    @settings(max_examples=60)
    @given(st.integers(min_value=5, max_value=7), st.integers(min_value=0, max_value=10 ** 6))
    def test_classes_biject_with_nonpants_regions(self, s, seed):
        """One equivalence class per complementary region that is not a
        pants, with matching label and sphere content."""
        rng = random.Random(seed)
        c = build_genus_zero_complex(s)
        clique = rng.choice(maximal_cliques(c))
        sub = rng.sample(sorted(clique), rng.randint(1, len(clique)))
        sigma = SphereSystem(c, sub)
        lc = link_equivalence_classes(sigma)
        regions = nonpants_regions(sigma)
        got = sorted((cl.region_labels, cl.region_spheres) for cl in lc.classes)
        want = sorted((labels, spheres) for labels, spheres, _ in regions)
        assert got == want


@pytest.fixture(scope="module")
def win():
    return build_caterpillar_window(6)


class TestCaterpillarWitness:
    def test_leaf_moves_up_the_spine(self, win):
        w = caterpillar_witness(["z:0", "w:0"], win)
        assert w.vertex_map.assignment == {"z:0": "z:0", "w:0": "z:1"}
        assert w.from_type != w.to_type

    def test_highest_leaf_moves(self, win):
        w = caterpillar_witness(["z:0", "z:1", "w:1"], win)
        assert w.vertex_map.assignment == {"z:0": "z:0", "z:1": "z:1", "w:1": "z:2"}

    def test_spine_end_drops_to_a_leaf(self, win):
        w = caterpillar_witness(["z:0", "z:1"], win)
        assert w.vertex_map.assignment == {"z:0": "z:0", "z:1": "w:0"}

    def test_swap_case(self, win):
        w = caterpillar_witness(["z:0", "z:1", "w:0"], win)
        m = w.vertex_map.assignment
        assert m["z:1"] == "w:0" and m["w:0"] == "z:1"

    def test_every_witness_is_locally_injective_and_type_flipping(self, win):
        for X in (["z:0", "w:0"], ["z:-2", "z:-1", "z:0", "w:-1"],
                  ["z:1", "z:2", "w:1", "w:2"]):
            w = caterpillar_witness(X, win)
            assert w.vertex_map.is_simplicial()
            assert w.vertex_map.is_locally_injective()
            assert {w.from_type, w.to_type} == {"separating", "nonseparating"}
            assert w.vertex_map[w.moved_vertex] == w.moved_to
            for v in X:
                if w.vertex_map[v] != v:
                    assert v in (w.moved_vertex, w.moved_to), \
                        "only the cited vertex moves (or swaps with its image)"

    def test_frontier_vertices_rejected(self, win):
        with pytest.raises(ValueError):
            caterpillar_witness(["z:6", "w:6"], win)

    def test_singletons_and_disconnected_sets_rejected(self, win):
        with pytest.raises(ValueError):
            caterpillar_witness(["z:0"], win)
        with pytest.raises(ValueError):
            caterpillar_witness(["w:0", "w:1"], win)

    def test_self_checks_raise_without_assert(self, win, monkeypatch):
        """The three checks raise AssertionError themselves, so
        ``python -O`` keeps them; each is forced to fail."""
        one_type = dataclasses.replace(win, types=dict.fromkeys(win.types, "nonseparating"))
        with pytest.raises(AssertionError, match="keeps its type"):
            caterpillar_witness(["z:0", "w:0"], one_type)
        with monkeypatch.context() as m:
            m.setattr(VertexMap, "is_simplicial", lambda vm: False)
            with pytest.raises(AssertionError, match="not a locally injective"):
                caterpillar_witness(["z:0", "w:0"], win)
        monkeypatch.setattr(type(win), "is_spine", lambda window, v: False)
        with pytest.raises(AssertionError, match="meets the spine"):
            caterpillar_witness(["z:0", "w:0"], win)


class TestGoodPairCensus:
    def test_labels(self):
        cut = CutLabeling.from_signature(1, 4)
        assert cut.labels == ("A1+", "A1-", "B1", "B2", "B3", "B4")
        assert cut.delta["A1+"] == ("cut-sphere", 1)
        assert cut.delta["B3"] == ("boundary", 3)

    def test_counts_follow_the_falling_factorials(self):
        cen = good_pair_census(CutLabeling.from_signature(1, 4), 1)
        L = 2 * 1 + 4 - 2
        assert len(cen.good_spheres) == L * (L - 1)
        assert len(cen.good_pairs) == L * (L - 1) * (L - 2) * (L - 3) // 2
        assert cen.nonempty and cen.threshold_met

    def test_good_pairs_use_four_distinct_labels(self):
        cen = good_pair_census(CutLabeling.from_signature(2, 2), 1)
        for (p1, q1), (p2, q2) in cen.good_pairs:
            assert len({p1, q1, p2, q2}) == 4

    def test_threshold_law(self):
        for n in (1, 2, 3):
            for s in range(0, 9):
                cen = good_pair_census(CutLabeling.from_signature(n, s), n)
                assert cen.nonempty == cen.threshold_met == (2 * n + s >= 6), (n, s)

    def test_pair_index_bounds(self):
        cut = CutLabeling.from_signature(2, 3)
        with pytest.raises(ValueError):
            good_pair_census(cut, 3)
