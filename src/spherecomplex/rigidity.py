"""Rigidity certification and the surrounding machinery.

A subcomplex X of an ambient sphere complex is strongly rigid when every
locally injective simplicial map X -> ambient extends uniquely to an
ambient automorphism; over maximal maps the candidate set is restricted
to maps carrying maximal sphere systems inside X to maximal systems.
This module certifies that by exhaustive enumeration, and computes the
supporting objects: split spheres and split pairs, X-detectable
intersections, X_sigma, link equivalence classes with their complementary
regions, and the caterpillar non-rigidity witness.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .flagcomplex import (FlagComplex, _bits, _maximal_cliques, complex_id,
                          is_connected, link_of, mask_components)
from .genus_zero import CaterpillarWindow, ManifoldSignature, _clusters, _laminar_tree
from .pants import PantsDecomposition, SphereSystem, flip_partners
from .search import VertexMap, _locally_injective_placements, automorphism_group

PLAIN = "plain"
OVER_MAXIMAL_MAPS = "over-maximal-maps"


class MapOrbit(NamedTuple):
    """One orbit of the locally injective maps X -> ambient under
    post-composition by G = Aut(ambient).

    ``least`` is the orbit's least map, as ambient vertex indices in X's
    sorted-id order; ``size`` is its number of maps; ``extends`` holds
    iff every map of the orbit extends to exactly one automorphism (the
    verdict is the same on an orbit).
    """

    least: tuple[int, ...]
    size: int
    extends: bool


class RigidityCertificate(NamedTuple):
    """Outcome of exhaustive rigidity verification.

    ``orbits`` holds one :class:`MapOrbit` per orbit of the maps under
    the ambient automorphism group, sorted by least map; ``total_maps``
    is the sum of their sizes, and ``all_extend`` holds iff every orbit
    extends.  ``counterexample`` is the first failing orbit's least map
    as a vertex assignment, or None.  Every field is canonical, so equal
    inputs give equal certificates whatever the search order;
    :func:`certificate_extensions` lists the maps one by one.
    """

    subcomplex_id: str
    ambient_id: str
    mode: str
    total_maps: int
    all_extend: bool
    orbits: tuple[MapOrbit, ...]
    counterexample: Optional[dict[str, str]]
    automorphism_order: int


def verify_rigidity(X_vertices: Iterable[str], ambient: FlagComplex,
                    mode: str = PLAIN) -> RigidityCertificate:
    """Enumerate all locally injective simplicial maps of the induced
    subcomplex into the ambient complex and test unique extension.

    The search finds one map per orbit of G = Aut(ambient) acting by
    post-composition (see ``search._placements``): along the search
    order, each image must be the least in its orbit under the pointwise
    stabiliser of the earlier images.  Post-composing with an
    automorphism preserves local injectivity, the over-maximal condition
    and extendability (h restricts to p iff g∘h restricts to g∘p), so
    every map is g∘p for a found p and some g in G, the orbits of two
    found maps are disjoint, and the verdict is the same on an orbit.
    The orbit of p has |G| / |H| maps, H the pointwise stabiliser of the
    images of p.

    The group's walks (``AutomorphismGroup._walks``) give the search its
    orbit minima, and each found map p its orbit's least map q = g∘p and
    |H|.  p extends to some automorphism iff q is the inclusion's least
    image, and then to exactly those of a coset of the pointwise
    stabiliser of X, a conjugate of H; so p extends uniquely iff both
    that holds and |H| = 1.  The counterexample is the least of the
    failing orbits' least maps.
    """
    if mode not in (PLAIN, OVER_MAXIMAL_MAPS):
        raise ValueError("unknown mode: %r" % (mode,))
    xs = sorted(set(X_vertices))
    X = ambient.induced(xs)
    group = automorphism_group(ambient)
    walks = group._walks()
    inside = _maximal_cliques(ambient, xs) if mode == OVER_MAXIMAL_MAPS else None
    least_inclusion = walks.least_image(ambient._indices(xs))[0]
    orbits = []
    for p in _locally_injective_placements(X, ambient, inside, walks.orbit_minima):
        least, fixing = walks.least_image(p)
        orbits.append(MapOrbit(least, group.order // fixing,
                               fixing == 1 and least == least_inclusion))
    # vertex ids are sorted, so index order is the canonical map order
    orbits.sort()
    failing = next((orbit.least for orbit in orbits if not orbit.extends), None)
    counterexample = None
    if failing is not None:
        counterexample = dict(zip(xs, map(ambient.vertices.__getitem__, failing)))
    return RigidityCertificate(";".join(xs), complex_id(ambient), mode,
                               sum(orbit.size for orbit in orbits), failing is None,
                               tuple(orbits), counterexample, group.order)


def certificate_extensions(X_vertices: Iterable[str], ambient: FlagComplex,
                           cert: RigidityCertificate) -> tuple[Optional[int], ...]:
    """Every map of a certificate of X in ``ambient``, in canonical map
    order, as the index of the unique ambient automorphism restricting
    to it (in the group's element order), or None when none or several
    do.  Each orbit is listed as {g∘q : g in G} from its least map q,
    deduplicated only when it has fewer than |G| maps, and each map is
    looked up among the restrictions of the elements to X.  Raises
    ValueError when X, the ambient's id or its group order are not the
    certificate's.
    """
    xs = sorted(set(X_vertices))
    if ";".join(xs) != cert.subcomplex_id:
        raise ValueError("the certificate is for X = %s, not %s"
                         % (cert.subcomplex_id, ";".join(xs)))
    group = automorphism_group(ambient)
    if (complex_id(ambient), group.order) != (cert.ambient_id, cert.automorphism_order):
        raise ValueError("the certificate is for %s with |Aut| = %d, not %s with |Aut| = %d"
                         % (cert.ambient_id, cert.automorphism_order,
                            complex_id(ambient), group.order))
    # the element restricting to each map, None when several do
    extending: dict[Sequence[int], Optional[int]] = {}
    for k, key in enumerate(group._images(ambient._indices(xs))):
        extending[key] = None if key in extending else k
    maps: list[Sequence[int]] = []
    for orbit in cert.orbits:
        images = group._images(orbit.least)
        # every element fixing the images of q sends it to the same map
        maps += images if orbit.size == group.order else set(images)
    maps.sort()
    return tuple(map(extending.get, maps))


def find_split_spheres(P: PantsDecomposition, a: str) -> list[str]:
    """All spheres b outside P that intersect a and are disjoint from
    every other member of P: the spheres for which a is the unique
    member of P they intersect."""
    # a flip partner b misses a, or P + b would be a larger clique
    return list(flip_partners(P, a))


def find_split_pairs(a: str, X_vertices: Iterable[str],
                     ambient: FlagComplex) -> list[tuple[str, str]]:
    """All pairs of distinct, disjoint split spheres for a arising from
    pants decompositions contained in X.  Pairs are unordered and
    canonically sorted."""
    xs = set(X_vertices)
    ambient._indices(sorted(xs))  # names the least id that is not a vertex
    if a not in xs:
        raise ValueError("a must lie in X")
    candidates: set[str] = set()
    for q in _maximal_cliques(ambient, xs):
        if a in q:
            candidates.update(find_split_spheres(PantsDecomposition(ambient, q), a))
    return [(b1, b2) for b1, b2 in combinations(sorted(candidates), 2)
            if ambient.adjacent(b1, b2)]


def detect_x_detectable(X_vertices: Iterable[str], ambient: FlagComplex,
                        a: str, a2: str) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
    """A witness that a and a2 have an X-detectable intersection: two
    pants decompositions inside X differing exactly by the flip a -> a2,
    or None.  Any witness implies the two spheres intersect (checked).
    """
    xs = set(X_vertices)
    ambient._indices(sorted(xs))  # names the least id that is not a vertex
    if a not in xs or a2 not in xs:
        raise ValueError("a and a2 must lie in X")
    if a == a2:
        raise ValueError("a and a2 must differ")
    for q in _maximal_cliques(ambient, xs):
        if a not in q:
            continue
        P = PantsDecomposition(ambient, q)
        if a2 in flip_partners(P, a):
            other = tuple(sorted((P.members - {a}) | {a2}))
            if ambient.adjacent(a, a2):
                raise AssertionError("flip-related spheres must intersect")
            return (q, other)
    return None


def build_x_sigma(sigma: PantsDecomposition) -> FlagComplex:
    """The induced subcomplex on sigma plus the flip partners of every
    member a: the link of the co-member set sigma minus a is a and its
    partners (in genus zero, exactly two)."""
    vs = set(sigma.members)
    for a in sigma.members:
        vs.update(flip_partners(sigma, a))
    return sigma.complex.induced(vs)


class TransitivityError(AssertionError):
    """The link relation failed transitivity on an instance; this would
    falsify the complementary-component correspondence in-model and is
    a modeling bug, not a data error."""


class LinkClass(NamedTuple):
    members: tuple[str, ...]
    region_labels: tuple[int, ...]   # boundary labels inside the region
    region_spheres: tuple[str, ...]  # sphere ids cutting the region off
    factor: ManifoldSignature


class LinkClasses(NamedTuple):
    classes: tuple[LinkClass, ...]


def _regions(sigma: SphereSystem):
    """The member clusters of a genus-zero sphere system and its
    complementary regions, each as (key, labels, spheres, boundary
    count); see :func:`genus_zero._laminar_tree` for keys and order."""
    table = _clusters(sigma.complex)
    vids = sorted(sigma.members)
    clusters = list(map(table.__getitem__, sigma.complex._indices(vids)))
    regions = []
    for key, labels, children in _laminar_tree(clusters, sigma.complex.meta["s"]):
        spheres = [vids[ch] for ch in children] + ([] if key is None else [vids[key]])
        regions.append((key, labels, tuple(sorted(spheres)), len(labels) + len(spheres)))
    return clusters, regions


def link_equivalence_classes(sigma: SphereSystem) -> LinkClasses:
    """Classes of the relation a ~ b on link(sigma): related when some
    link sphere intersects both.  Transitivity is verified on the
    instance and failure is a hard error; each class is annotated with
    the complementary region it fills and that region's factor.
    """
    clusters, regions = _regions(sigma)
    table, position = _clusters(sigma.complex), {b: i for i, b in enumerate(clusters)}
    lk = link_of(sigma.complex, sigma.members)
    verts = lk.vertices
    n = len(verts)

    # a ~ b  iff  some c in the link is non-adjacent to both (c = a or
    # c = b is allowed; adjacency is irreflexive, so the relation is
    # reflexive by taking c = a); nonadj[i] therefore contains i
    nonadj = []
    full = (1 << n) - 1
    for i, v in enumerate(verts):
        nonadj.append(full & ~lk.adjacency_mask(v))
    related = [0] * n
    for i in range(n):
        for j in range(i, n):
            if nonadj[i] & nonadj[j]:
                related[i] |= 1 << j
                related[j] |= 1 << i

    region_info = {key: (labels, spheres, boundary)
                   for key, labels, spheres, boundary in regions}
    classes = []
    for comp in mask_components(related):
        # transitivity: each component of ~ must be a clique of ~
        for i in _bits(comp):
            j = next(_bits(comp & ~related[i]), None)
            if j is not None:
                raise TransitivityError(
                    "link relation not transitive between %r and %r"
                    % (verts[i], verts[j]))
        members = tuple(verts[i] for i in _bits(comp))
        # each lies in the region of the least member cluster holding its own
        keys = {position.get(min([b for b in clusters if x & b == x], default=None))
                for x in map(table.__getitem__, sigma.complex._indices(members))}
        if len(keys) != 1:
            raise TransitivityError(
                "class %r spans several complementary regions" % (members,))
        labels, spheres, boundary = region_info[keys.pop()]
        classes.append(LinkClass(members, labels, spheres,
                                 ManifoldSignature(0, boundary)))
    classes.sort(key=lambda cl: cl.members)
    return LinkClasses(tuple(classes))


def nonpants_regions(sigma: SphereSystem) -> list[tuple[tuple[int, ...], tuple[str, ...], int]]:
    """The complementary regions of sigma with more than three boundary
    items (the ones that can still contain spheres)."""
    _, regions = _regions(sigma)
    return [(labels, spheres, boundary)
            for _, labels, spheres, boundary in regions if boundary >= 4]


class CaterpillarWitness(NamedTuple):
    """A locally injective simplicial map of an interior subcomplex of
    a caterpillar window that no automorphism of the ideal caterpillar
    restricts to: the cited vertex changes type, and ideal automorphisms
    preserve the valence-1 separating / trivalent nonseparating split.
    """

    vertex_map: VertexMap
    moved_vertex: str
    moved_to: str
    from_type: str
    to_type: str
    reason: str


def caterpillar_witness(X_vertices: Iterable[str],
                        window: CaterpillarWindow) -> CaterpillarWitness:
    """Construct a non-extendable map on a connected interior subcomplex
    with at least two vertices.

    Let j be the largest spine index meeting X.  If the leaf w:j lies in
    X it is sent to the spine vertex z:j+1; otherwise the frontier spine
    vertex z:j is sent onto the leaf side, swapping with w:j-1 when that
    leaf is present.  The moved vertex changes type, which certifies
    non-extendability.
    """
    xs = sorted(set(X_vertices))
    c = window.complex
    sub = c.induced(xs)
    for v in xs:
        if v in window.frontier:
            raise ValueError("X must avoid the boundary-effect vertices, got %r" % (v,))
    if len(xs) < 2:
        raise ValueError("X needs at least two vertices")
    if not is_connected(sub):
        raise ValueError("X must be connected")

    spine = [window.spine_index(v) for v in xs if window.is_spine(v)]
    if not spine:
        raise AssertionError("a connected subcomplex with two vertices meets the spine")
    j = max(spine)
    assignment = {v: v for v in xs}
    if "w:%d" % j in xs:
        moved, target = "w:%d" % j, "z:%d" % (j + 1)
    else:
        moved, target = "z:%d" % j, "w:%d" % (j - 1)
        if target in xs:
            # swap the frontier spine vertex with its predecessor's leaf
            assignment[target] = moved
    assignment[moved] = target
    vm = VertexMap(sub, c, assignment)
    if not (vm.is_simplicial() and vm.is_locally_injective()):
        raise AssertionError("the witness is not a locally injective simplicial map")
    from_type = window.types[moved]
    to_type = window.types[target]
    if from_type == to_type:
        raise AssertionError("the moved vertex keeps its type")
    reason = ("%s (%s) is sent to %s (%s); automorphisms of the ideal "
              "caterpillar preserve vertex types, so no automorphism "
              "restricts to this map" % (moved, from_type, target, to_type))
    return CaterpillarWitness(vm, moved, target, from_type, to_type, reason)
