"""Pants decompositions and the flip graph in the genus-zero model.

A pants decomposition is a maximal sphere system, i.e. an inclusion-
maximal clique of the sphere complex; in genus zero it always has s - 3
members.  A flip move replaces one member a by one of the two other
spheres living in the four-holed piece that a cuts; two pants
decompositions are joined in the flip graph when they differ in exactly
one member.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .flagcomplex import FlagComplex, link_of, maximal_cliques
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
    c = sys.complex
    full = (1 << c.n_vertices) - 1
    common = full
    for v in sys.members:
        common &= c.adjacency_mask(v)
    for v in sys.members:
        common &= ~(1 << c.index_of(v))
    return common == 0


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
    rest = P.members - {a}
    lk = link_of(P.complex, rest)
    return tuple(v for v in lk.vertices if v not in P.members)


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
    """Build the flip graph and check its connectivity by breadth-first
    search; the diameter is computed when connected."""
    decomps = enumerate_pants(s)
    by_id = {P.system_id(): P.sorted_members() for P in decomps}
    nodes = tuple(sorted(by_id))
    edge_set: set[tuple[str, str]] = set()
    for P in decomps:
        pid = P.system_id()
        for a in P.sorted_members():
            for b in flip_partners(P, a):
                other = ";".join(sorted((P.members - {a}) | {b}))
                assert other in by_id, "flip produced a non-maximal system"
                if other != pid:
                    edge_set.add(tuple(sorted((pid, other))))
    edges = tuple(sorted(edge_set))

    index = {v: i for i, v in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    for u, v in edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])

    def bfs(start: int) -> list[int]:
        dist = [-1] * len(nodes)
        dist[start] = 0
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        return dist

    connected = True
    diameter: Optional[int] = 0
    if nodes:
        ecc = []
        for i in range(len(nodes)):
            dist = bfs(i)
            if min(dist) < 0:
                connected = False
                diameter = None
                break
            ecc.append(max(dist))
        else:
            diameter = max(ecc) if ecc else 0
    return FlipGraph(nodes, by_id, edges, connected, diameter)
