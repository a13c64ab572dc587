"""Plain finite multigraphs with edge ids.

Loops and parallel edges are first-class: every edge has its own id and
an unordered endpoint pair (equal endpoints for a loop).  This is the
carrier for edge-isomorphism checking and lifting; dual multigraphs
convert losslessly via :func:`dual_to_multigraph` (legs are dropped,
bonds become edges).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .flagcomplex import pair_components

if TYPE_CHECKING:
    from .dual import DualMultigraph


class Multigraph:
    """Vertices are opaque string ids; ``edges`` maps edge id to a
    sorted endpoint pair."""

    __slots__ = ("vertices", "edges", "edge_ids")

    def __init__(self, vertices: Iterable[str],
                 edges: Mapping[str, tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        fixed: dict[str, tuple[str, str]] = {}
        for eid, (u, v) in edges.items():
            if u not in vset or v not in vset:
                raise ValueError("edge %r has an unknown endpoint" % (eid,))
            fixed[str(eid)] = (u, v) if u <= v else (v, u)
        self.edges = fixed
        self.edge_ids: tuple[str, ...] = tuple(sorted(fixed))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def endpoints(self, eid: str) -> tuple[str, str]:
        return self.edges[eid]

    def endpoint_set(self, eid: str) -> frozenset[str]:
        return frozenset(self.edges[eid])

    def is_loop(self, eid: str) -> bool:
        u, v = self.edges[eid]
        return u == v

    def is_connected(self) -> bool:
        """Connectivity on vertices; the empty graph is connected."""
        return len(pair_components(self.vertices, self.edges.values())) <= 1

    def relabel(self, vertex_map: Mapping[str, str],
                edge_map: Optional[Mapping[str, str]] = None) -> "Multigraph":
        """Apply bijective renamings to vertices and (optionally) edge ids."""
        if sorted(vertex_map) != list(self.vertices) or \
                len(set(vertex_map.values())) != len(self.vertices):
            raise ValueError("vertex_map must be a bijection on the vertex set")
        em = dict(edge_map) if edge_map else {e: e for e in self.edge_ids}
        if sorted(em) != list(self.edge_ids) or len(set(em.values())) != len(em):
            raise ValueError("edge_map must be a bijection on the edge ids")
        edges = {em[e]: (vertex_map[u], vertex_map[v])
                 for e, (u, v) in self.edges.items()}
        return Multigraph([vertex_map[v] for v in self.vertices], edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return "Multigraph(%d vertices, %d edges)" % (self.n_vertices, self.n_edges)


def dual_to_multigraph(d: DualMultigraph) -> Multigraph:
    """Forget slots and legs: pants become vertices, bonds become edges
    named by their bond labels."""
    edges = {}
    for i in range(len(d.bonds)):
        edges[d.bond_label(i)] = d.bond_endpoints(i)
    if len(edges) != len(d.bonds):
        raise ValueError("bond labels are not distinct")
    return Multigraph(d.pants, edges)


def random_connected_multigraph(rng: random.Random, n_min: int = 3,
                                n_max: int = 12) -> Multigraph:
    """A random connected multigraph: a random spanning tree plus a
    random number of extra edges, which may be loops or parallels.
    Deterministic for a given generator state."""
    n = rng.randint(n_min, n_max)
    vertices = ["v%d" % i for i in range(n)]
    edges: dict[str, tuple[str, str]] = {}
    counter = 0
    for i in range(1, n):
        j = rng.randrange(i)
        edges["e%d" % counter] = (vertices[j], vertices[i])
        counter += 1
    for _ in range(rng.randint(0, n)):
        roll = rng.random()
        u = rng.randrange(n)
        if roll < 0.25:
            v = u  # loop
        else:
            v = rng.randrange(n)  # may duplicate an existing pair
        edges["e%d" % counter] = (vertices[u], vertices[v])
        counter += 1
    g = Multigraph(vertices, edges)
    if not g.is_connected():
        raise AssertionError("a multigraph with a spanning tree is connected")
    return g


def scramble(g: Multigraph, rng: random.Random) -> tuple[Multigraph, dict[str, str], dict[str, str]]:
    """Randomly permute vertex names and edge ids.

    Returns (scrambled graph, vertex bijection, edge bijection); the
    vertex bijection is the isomorphism the scramble realizes.
    """
    vperm = list(g.vertices)
    rng.shuffle(vperm)
    vertex_map = dict(zip(g.vertices, vperm))
    eperm = list(g.edge_ids)
    rng.shuffle(eperm)
    edge_map = dict(zip(g.edge_ids, eperm))
    return g.relabel(vertex_map, edge_map), vertex_map, edge_map
