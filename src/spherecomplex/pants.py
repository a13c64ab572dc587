"""Pants decompositions and the flip graph in the genus-zero model.

A pants decomposition is a maximal sphere system, i.e. an inclusion-
maximal clique of the sphere complex; in genus zero it always has s - 3
members.  A flip move replaces one member a by one of the two other
spheres living in the four-holed piece that a cuts; two pants
decompositions are joined in the flip graph when they differ in exactly
one member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .flagcomplex import FlagComplex, _bits, _link_mask, mask_components, maximal_cliques
from .genus_zero import build_genus_zero_complex


class SphereSystem:
    """A finite sphere system: a clique of an ambient flag complex."""

    __slots__ = ("complex", "members")

    def __init__(self, complex_: FlagComplex, members: Iterable[str]):
        self.complex = complex_
        self.members: frozenset[str] = frozenset(members)
        for v in self.members:
            if v not in complex_:
                raise ValueError("unknown vertex id: %r" % (v,))
        if not complex_.is_clique(self.members):
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


@dataclass(frozen=True)
class FlipGraph:
    """The pants/flip graph: nodes are pants decompositions (by system
    id), edges are flip moves."""

    nodes: tuple[str, ...]
    node_members: dict[str, tuple[str, ...]]
    edges: tuple[tuple[str, str], ...]
    connected: bool
    diameter: Optional[int]


def pants_flip_graph(s: int) -> FlipGraph:
    """Build the flip graph and check its connectivity; the diameter is
    the largest breadth-first eccentricity when connected."""
    decomps = sorted(enumerate_pants(s), key=PantsDecomposition.system_id)
    nodes = tuple(P.system_id() for P in decomps)
    index = {P.members: i for i, P in enumerate(decomps)}
    adj = [0] * len(nodes)
    for i, P in enumerate(decomps):
        for a in P.sorted_members():
            for b in flip_partners(P, a):
                adj[i] |= 1 << index[P.members - {a} | {b}]
    edges = tuple((nodes[i], nodes[j]) for i, m in enumerate(adj)
                  for j in _bits(m) if j > i)
    connected = len(mask_components(adj)) <= 1
    diameter = max((_eccentricity(adj, i) for i in range(len(adj))),
                   default=0) if connected else None
    members = {u: P.sorted_members() for u, P in zip(nodes, decomps)}
    return FlipGraph(nodes, members, edges, connected, diameter)


def _eccentricity(adj: list[int], start: int) -> int:
    """The number of breadth-first layers beyond ``start`` on ``adj``."""
    seen = layer = 1 << start
    depth = -1
    while layer:
        reach = 0
        for i in _bits(layer):
            reach |= adj[i]
        layer, depth = reach & ~seen, depth + 1
        seen |= layer
    return depth
