"""Pants decompositions and the flip graph in the genus-zero model.

A pants decomposition is a maximal sphere system, i.e. an inclusion-
maximal clique of the sphere complex; in genus zero it always has s - 3
members.  A flip move replaces one member a by one of the two other
spheres living in the four-holed piece that a cuts; two pants
decompositions are joined in the flip graph when they differ in exactly
one member.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .flagcomplex import FlagComplex, _bits, _link_mask, maximal_cliques
from .genus_zero import _label_generators, build_genus_zero_complex


class SphereSystem:
    """A finite sphere system: a clique of an ambient flag complex."""

    __slots__ = ("complex", "members")

    def __init__(self, complex_: FlagComplex, members: Iterable[str]):
        self.complex = complex_
        self.members: frozenset[str] = frozenset(members)
        if not complex_.is_clique(sorted(self.members)):
            raise ValueError("members are not pairwise disjoint")

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    def system_id(self) -> str:
        return ";".join(self.sorted_members())

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return "SphereSystem(%s)" % (self.system_id(),)


def is_maximal_system(sys: SphereSystem) -> bool:
    """Whether no ambient vertex is disjoint from every member."""
    c = sys.complex
    return _link_mask(c, c._indices(sys.members)) == 0


class PantsDecomposition(SphereSystem):
    """An inclusion-maximal sphere system."""

    def __init__(self, complex_: FlagComplex, members: Iterable[str]):
        super().__init__(complex_, members)
        if not is_maximal_system(self):
            raise ValueError("system is not maximal")


def enumerate_pants(s: int) -> list[PantsDecomposition]:
    """All pants decompositions of the genus-zero complex, in canonical
    order."""
    if s < 4:
        raise ValueError("need s >= 4")
    c = build_genus_zero_complex(s)
    return [PantsDecomposition(c, q) for q in maximal_cliques(c)]


def flip_partners(P: PantsDecomposition, a: str) -> tuple[str, ...]:
    """The spheres that can replace a in P: vertices outside P adjacent
    to every member of P minus a.  In the genus-zero model there are
    always exactly two.

    Self-adjacency cannot occur in a flag complex, so the loop-edge
    degeneracy of the flip move never arises here.
    """
    if a not in P.members:
        raise ValueError("%r is not a member of the decomposition" % (a,))
    c = P.complex
    partners = _link_mask(c, c._indices(P.members - {a})) & ~(1 << c.index_of(a))
    return tuple(c.vertices[i] for i in _bits(partners))


class FlipGraph(NamedTuple):
    """The pants/flip graph: nodes are pants decompositions (by system
    id), edges are flip moves."""

    nodes: tuple[str, ...]
    node_members: dict[str, tuple[str, ...]]
    edges: tuple[tuple[str, str], ...]
    connected: bool
    diameter: Optional[int]


def pants_flip_graph(s: int) -> FlipGraph:
    """Build the flip graph, check its connectivity and, when connected,
    find its diameter.

    Nodes are the maximal cliques, keyed by vertex-index masks.  Pants
    sharing a codimension-1 face are joined; in genus zero each face
    lies in exactly three pants (the four-holed sphere it leaves holds
    three spheres), so the faces, keyed by mask, give the edges three at
    a time.  The boundary-label permutations act by automorphisms
    (``genus_zero._label_generators`` checks its generators), and
    eccentricity is constant on an orbit: the diameter is the largest
    eccentricity over the least node of each orbit, one breadth-first
    search each.  The first, from node 0, decides connectivity.
    """
    if s < 4:
        raise ValueError("need s >= 4")
    c = build_genus_zero_complex(s)
    members = maximal_cliques(c)  # in system-id order
    bit = {v: 1 << i for i, v in enumerate(c.vertices)}
    keys = [sum(map(bit.__getitem__, q)) for q in members]
    nbrs: list[list[int]] = [[] for _ in keys]
    pending: dict[int, tuple[int, ...]] = {}  # face -> the pants seen on it
    for i, (q, key) in enumerate(zip(members, keys)):
        for v in q:
            seen = pending.pop(face := key ^ bit[v], ())
            if len(seen) < 2:
                pending[face] = seen + (i,)
            else:  # the face's third pants: join all three
                nbrs[i] += seen
                nbrs[seen[0]] += (seen[1], i)
                nbrs[seen[1]] += (seen[0], i)
    if pending:
        raise AssertionError("a codimension-1 face lies in fewer than three pants")
    depth, reached = _eccentricity(nbrs, 0)
    connected = reached == len(nbrs)
    diameter = None
    if connected:
        images = [{v: 1 << j for v, j in zip(c.vertices, g)} for g in _label_generators(c)]
        reps = _label_orbits(members, {key: i for i, key in enumerate(keys)}, images)
        diameter = max([depth] + [_eccentricity(nbrs, r)[0] for r in reps if r])
    nodes = tuple(map(";".join, members))
    edges = tuple([(u, nodes[j]) for i, (u, js) in enumerate(zip(nodes, nbrs))
                   for j in sorted(js) if j > i])
    return FlipGraph(nodes, dict(zip(nodes, members)), edges, connected, diameter)


def _label_orbits(members: Sequence[Sequence[str]], index: dict[int, int],
                  images: Sequence[dict[str, int]]) -> dict[int, int]:
    """The orbits of the nodes ``members`` under vertex permutations, as
    {least node index: orbit size} in ascending order.  Each of
    ``images`` maps a vertex id to the bit of its image; ``index`` maps
    node keys, vertex masks, to node indices.  In a finite group the
    forward images under the generators already reach the whole orbit."""
    moves = list(zip(*[[index[sum(map(image.__getitem__, q))] for q in members]
                       for image in images]))
    sizes, seen = {}, bytearray(len(members))
    for rep in range(len(members)):
        if not seen[rep]:
            seen[rep], todo, size = 1, [rep], 0
            while todo:
                size += 1
                for j in moves[todo.pop()]:
                    if not seen[j]:
                        seen[j] = 1
                        todo.append(j)
            sizes[rep] = size
    return sizes


def _eccentricity(nbrs: Sequence[Sequence[int]], start: int) -> tuple[int, int]:
    """Breadth-first search from ``start`` over index adjacency lists:
    the number of layers beyond it and of nodes reached, fewer than
    ``len(nbrs)`` when the graph is disconnected."""
    seen = layer = {start}
    depth = -1
    while layer:
        depth += 1
        layer = set().union(*map(nbrs.__getitem__, layer)) - seen
        seen |= layer
    return depth, len(seen)
