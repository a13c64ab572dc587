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
    return _link_mask(sys.complex, sys.members) == 0


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
    partners = _link_mask(c, P.members - {a}) & ~(1 << c.index_of(a))
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

    Nodes are keyed by the frozenset of their members' vertex indices;
    neighbours are kept as sorted index lists.  The permutations of the
    boundary labels act on the graph by automorphisms (each generator
    from ``genus_zero._label_generators`` is checked to be a complex
    automorphism, so it maps pants to pants and flips to flips), and
    eccentricity is constant on an orbit.  So the diameter is the
    largest eccentricity over the least index of each orbit, one
    breadth-first search each; the graph is connected when the first
    search, from node 0, reaches every node.
    """
    decomps = enumerate_pants(s)  # in system-id order
    c = decomps[0].complex
    keys = [frozenset(map(c.index_of, P.members)) for P in decomps]
    index = {key: i for i, key in enumerate(keys)}
    nbrs = []
    for P, key in zip(decomps, keys):
        out = []
        for a in P.sorted_members():
            rest = key - {c.index_of(a)}
            out += [index[rest | {c.index_of(b)}] for b in flip_partners(P, a)]
        nbrs.append(sorted(out))
    nodes = tuple(P.system_id() for P in decomps)
    edges = tuple((nodes[i], nodes[j]) for i, js in enumerate(nbrs) for j in js if j > i)
    depth, reached = _eccentricity(nbrs, 0)
    connected = reached == len(nbrs)
    diameter = None
    if connected:
        reps = _label_orbits(keys, index, _label_generators(c))
        diameter = max([depth] + [_eccentricity(nbrs, r)[0] for r in reps if r])
    members = {u: P.sorted_members() for u, P in zip(nodes, decomps)}
    return FlipGraph(nodes, members, edges, connected, diameter)


def _label_orbits(keys: list[frozenset[int]], index: dict[frozenset[int], int],
                  gens: Sequence[Sequence[int]]) -> dict[int, int]:
    """The orbits of the nodes ``keys`` under the vertex permutations
    ``gens``, as {least node index: orbit size} in ascending order.  In a
    finite group the forward images under the generators already reach
    the whole orbit."""
    seen = bytearray(len(keys))
    sizes = {}
    for rep in range(len(keys)):
        if seen[rep]:
            continue
        seen[rep] = 1
        todo, size = [rep], 0
        while todo:
            key = keys[todo.pop()]
            size += 1
            for g in gens:
                j = index[frozenset([g[v] for v in key])]
                if not seen[j]:
                    seen[j] = 1
                    todo.append(j)
        sizes[rep] = size
    return sizes


def _eccentricity(nbrs: list[list[int]], start: int) -> tuple[int, int]:
    """Breadth-first search from ``start`` over index adjacency lists:
    the number of layers beyond ``start`` and the number of nodes
    reached, which is less than ``len(nbrs)`` when the graph is
    disconnected."""
    seen = bytearray(len(nbrs))
    seen[start] = 1
    layer = [start]
    depth, reached = -1, 0
    while layer:
        depth, reached = depth + 1, reached + len(layer)
        nxt = []
        for i in layer:
            for j in nbrs[i]:
                if not seen[j]:
                    seen[j] = 1
                    nxt.append(j)
        layer = nxt
    return depth, reached
