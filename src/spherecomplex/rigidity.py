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

from dataclasses import dataclass
from itertools import combinations, compress
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .flagcomplex import (FlagComplex, _bits, _link_mask, _maximal_cliques,
                          complex_id, is_connected, link_of, mask_components)
from .genus_zero import (CaterpillarWindow, ManifoldSignature, SpherePartition,
                         _innermost_block, _laminar_tree)
from .pants import PantsDecomposition, SphereSystem, flip_partners
from .search import (AutomorphismGroup, VertexMap, _after, _encoding,
                     _locally_injective_placements, _search_order, automorphism_group)

PLAIN = "plain"
OVER_MAXIMAL_MAPS = "over-maximal-maps"


@dataclass(frozen=True)
class RigidityCertificate:
    """Outcome of exhaustive rigidity verification.

    ``extensions`` lists, per enumerated map in canonical order, the
    index of the unique ambient automorphism it restricts, or None;
    ``all_extend`` holds iff every map matches exactly one automorphism.
    ``counterexample`` is the assignment of the first failing map, if
    any.  ``verify_rigidity`` leaves ``extensions`` to be built on its
    first read, since it lists every map.
    """

    subcomplex_id: str
    ambient_id: str
    mode: str
    total_maps: int
    all_extend: bool
    extensions: tuple[Optional[int], ...]
    counterexample: Optional[dict[str, str]]
    automorphism_order: int

    @classmethod
    def _deferred(cls, expand: Callable[[], tuple[Optional[int], ...]],
                  **fields) -> "RigidityCertificate":
        """A certificate with every field but ``extensions``, which
        ``expand()`` builds on first read."""
        cert = cls.__new__(cls)
        vars(cert).update(fields, _expand=expand)
        return cert

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks
        expand = vars(self).get("_expand") if name == "extensions" else None
        if expand is None:
            raise AttributeError("%r object has no attribute %r"
                                 % (type(self).__name__, name))
        value = vars(self)["extensions"] = expand()
        vars(self).pop("_expand", None)
        return value

    def __getstate__(self) -> dict:
        # pickles and copies carry the tuple, not its builder
        self.extensions
        return vars(self)


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
    The certificate is therefore summed over the found maps: the orbit
    of p has |G| / |H| maps, H the pointwise stabiliser of the images of
    p; p's verdict is its orbit's; and the counterexample is the least
    map of the failing orbits.  Each stabiliser is filtered from its
    parent's element list and kept, for this call only, by the images
    it fixes, in search order.  ``extensions`` lists every map of every
    orbit, sorted, on its first read.

    Maps and group elements are encoded as ``search._encoding`` says
    (``bytes`` up to 256 ambient vertices, index tuples above), the
    elements are the group's one kept list, and g∘p is
    ``search._after(p)(g)``.  Every map has len(X) entries, each below
    the vertex count, so the two encodings sort, compare and hash alike
    and give the same certificate.
    """
    if mode not in (PLAIN, OVER_MAXIMAL_MAPS):
        raise ValueError("unknown mode: %r" % (mode,))
    xs = sorted(set(X_vertices))
    X = ambient.induced(xs)
    group = automorphism_group(ambient)
    if group.order > AutomorphismGroup.ELEMENT_CAP:
        raise ValueError("ambient automorphism group of order %d is too large "
                         "to list (cap %d)" % (group.order, AutomorphismGroup.ELEMENT_CAP))
    inside = _maximal_cliques(ambient, xs) if mode == OVER_MAXIMAL_MAPS else None
    order = _search_order(X)

    encode = _encoding(ambient.n_vertices)
    elements = group._elements()

    # the pointwise stabilisers of the images fixed so far; the search
    # asks for each one after its parent
    stabilisers = {(): elements}

    def stabiliser(fixed: tuple[int, ...]) -> list[Sequence[int]]:
        h = stabilisers.get(fixed)
        if h is None:
            x = fixed[-1]
            parent = stabilisers[fixed[:-1]]
            fixes_x = map(x.__eq__, map(itemgetter(x), parent))
            h = stabilisers[fixed] = list(compress(parent, fixes_x))
        return h

    def orbit_minima(fixed: tuple[int, ...], candidates: int) -> Optional[int]:
        h = stabiliser(fixed)
        if len(h) == 1:
            return None
        # the orbit of y is {g[y] : g in h}
        least = 0
        seen: set[int] = set()
        for y in _bits(candidates):
            if y not in seen:
                orbit = set(map(itemgetter(y), h))
                seen |= orbit
                if min(orbit) == y:
                    least |= 1 << y
        return least

    def orbit_size(p: tuple[int, ...]) -> int:
        # |G| / |H|, H fixing every image of p; walking the images in
        # search order reuses the stabilisers the search filtered
        h, fixed = elements, ()
        for x in map(p.__getitem__, order):
            if len(h) == 1:
                break
            fixed += (x,)
            h = stabiliser(fixed)
        return group.order // len(h)

    # the element restricting to each map, None when several do
    extending: dict[Sequence[int], Optional[int]] = {}
    restrict = _after(encode(ambient.index_of(v) for v in xs))
    for k, key in enumerate(map(restrict, elements)):
        extending[key] = None if key in extending else k

    # one found map per orbit, with its orbit size; vertex ids are
    # sorted, so index order is the canonical map order
    found: list[tuple[Sequence[int], int]] = []
    total_maps = 0
    failing = None
    for p in _locally_injective_placements(X, ambient, inside, orbit_minima):
        size = orbit_size(p)
        p = encode(p)
        found.append((p, size))
        total_maps += size
        if extending.get(p) is None:
            # every map of the orbit fails; its least one is a candidate
            least = min(map(_after(p), elements))
            failing = least if failing is None else min(failing, least)

    def expand() -> tuple[Optional[int], ...]:
        maps: list[Sequence[int]] = []
        for p, size in found:
            orbit = map(_after(p), elements)
            # every element fixing the images of p sends it to the same map
            maps += orbit if size == group.order else set(orbit)
        maps.sort()
        return tuple(map(extending.get, maps))

    counterexample: Optional[dict[str, str]] = None
    if failing is not None:
        counterexample = dict(zip(xs, (ambient.vertices[j] for j in failing)))
    return RigidityCertificate._deferred(
        expand,
        subcomplex_id=";".join(xs),
        ambient_id=complex_id(ambient),
        mode=mode,
        total_maps=total_maps,
        all_extend=failing is None,
        counterexample=counterexample,
        automorphism_order=group.order,
    )


def find_split_spheres(P: PantsDecomposition, a: str) -> list[str]:
    """All spheres b outside P that intersect a and are disjoint from
    every other member of P: the spheres for which a is the unique
    member of P they intersect."""
    if a not in P.members:
        raise ValueError("%r is not a member of the decomposition" % (a,))
    # a flip partner b misses a, or P + b would be a larger clique
    return list(flip_partners(P, a))


def find_split_pairs(a: str, X_vertices: Iterable[str],
                     ambient: FlagComplex) -> list[tuple[str, str]]:
    """All pairs of distinct, disjoint split spheres for a arising from
    pants decompositions contained in X.  Pairs are unordered and
    canonically sorted."""
    xs = set(X_vertices)
    if a not in xs:
        raise ValueError("a must lie in X")
    candidates: set[str] = set()
    for q in _maximal_cliques(ambient, xs):
        if a in q:
            candidates.update(find_split_spheres(PantsDecomposition(ambient, q), a))
    pairs = [(b1, b2) for b1, b2 in combinations(sorted(candidates), 2)
             if ambient.adjacent(b1, b2)]
    return pairs


def detect_x_detectable(X_vertices: Iterable[str], ambient: FlagComplex,
                        a: str, a2: str) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
    """A witness that a and a2 have an X-detectable intersection: two
    pants decompositions inside X differing exactly by the flip a -> a2,
    or None.  Any witness implies the two spheres intersect (checked).
    """
    xs = set(X_vertices)
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
    """The induced subcomplex on sigma plus the link of every co-member
    set sigma minus a.  In genus zero each such link has exactly three
    vertices: a and its two flip partners."""
    c = sigma.complex
    vs = 0
    for a in sigma.members:
        vs |= _link_mask(c, sigma.members - {a})
    return c.induced(c.vertices[i] for i in _bits(vs))


class TransitivityError(AssertionError):
    """The link relation failed transitivity on an instance; this would
    falsify the complementary-component correspondence in-model and is
    a modeling bug, not a data error."""


@dataclass(frozen=True)
class LinkClass:
    members: tuple[str, ...]
    region_labels: tuple[int, ...]   # boundary labels inside the region
    region_spheres: tuple[str, ...]  # sphere ids cutting the region off
    factor: ManifoldSignature


@dataclass(frozen=True)
class LinkClasses:
    classes: tuple[LinkClass, ...]

    def as_partition(self) -> list[tuple[str, ...]]:
        return [cl.members for cl in self.classes]


def _regions(sigma: SphereSystem, what: str):
    """The member blocks of a genus-zero sphere system and its
    complementary regions, each as (key, labels, spheres, boundary
    count); see :func:`genus_zero._laminar_tree` for keys and order."""
    s = sigma.complex.meta.get("s")
    if sigma.complex.meta.get("model") != "genus-zero" or s is None:
        raise ValueError("%s needs the genus-zero model" % what)
    vids = sorted(sigma.members)
    blocks, tree = _laminar_tree(vids, s)
    regions = []
    for key, labels, children in tree:
        spheres = [vids[ch] for ch in children] + ([] if key is None else [vids[key]])
        regions.append((key, labels, tuple(sorted(spheres)), len(labels) + len(spheres)))
    return blocks, regions


def link_equivalence_classes(sigma: SphereSystem) -> LinkClasses:
    """Classes of the relation a ~ b on link(sigma): related when some
    link sphere intersects both.  Transitivity is verified on the
    instance and failure is a hard error; each class is annotated with
    the complementary region it fills and that region's factor.
    """
    blocks, regions = _regions(sigma, "link_equivalence_classes")
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
        keys = {_innermost_block(SpherePartition.from_vertex_id(v).other_block, blocks)
                for v in members}
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
    _, regions = _regions(sigma, "nonpants_regions")
    return [(labels, spheres, boundary)
            for _, labels, spheres, boundary in regions if boundary >= 4]


@dataclass(frozen=True)
class CaterpillarWitness:
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
    for v in xs:
        if v not in c:
            raise ValueError("unknown vertex id: %r" % (v,))
        if v in window.frontier:
            raise ValueError("X must avoid the boundary-effect vertices, got %r" % (v,))
    if len(xs) < 2:
        raise ValueError("X needs at least two vertices")
    sub = c.induced(xs)
    if not is_connected(sub):
        raise ValueError("X must be connected")

    spine = [window.spine_index(v) for v in xs if window.is_spine(v)]
    if not spine:
        raise AssertionError("a connected subcomplex with two vertices meets the spine")
    j = max(spine)
    assignment = {v: v for v in xs}
    if "w:%d" % j in xs:
        moved, target = "w:%d" % j, "z:%d" % (j + 1)
    elif "w:%d" % (j - 1) not in xs:
        moved, target = "z:%d" % j, "w:%d" % (j - 1)
    else:
        # swap the frontier spine vertex with its predecessor's leaf
        moved, target = "z:%d" % j, "w:%d" % (j - 1)
        assignment["w:%d" % (j - 1)] = "z:%d" % j
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
