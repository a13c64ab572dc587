"""Edge isomorphisms of multigraphs and their lifts to vertex maps.

An edge bijection is an edge isomorphism when every two-edge subgraph is
carried to an isomorphic two-edge subgraph compatibly: the cases are
disjoint edges, edges sharing one vertex, a parallel (bigon) pair, a
loop with a disjoint or an incident edge, and loop pairs.  The singleton
case is included, so a loop must map to a loop.

An edge isomorphism of a connected multigraph is induced by a vertex
isomorphism unless it maps a triangle to a 3-star or vice versa (the
triangle/3-star pair is the sole obstruction), and the inducing map is
unique except when the source has exactly two vertices and edges only
between them.  :func:`lift_edge_isomorphism` decides these cases
constructively.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, NamedTuple, Optional

from .multigraph import Multigraph

LIFTED = "lifted"
OBSTRUCTED = "obstructed"
AMBIGUOUS_ORDER_2 = "ambiguous-order-2"


class EdgeBijection:
    """A bijection between the full edge-id sets of two multigraphs."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: Multigraph, target: Multigraph,
                 mapping: Mapping[str, str]):
        self.source = source
        self.target = target
        self.mapping = {str(k): str(v) for k, v in mapping.items()}
        if sorted(self.mapping) != list(source.edge_ids):
            raise ValueError("mapping domain must be the full source edge set")
        if sorted(self.mapping.values()) != list(target.edge_ids):
            raise ValueError("mapping image must be the full target edge set")

    def __getitem__(self, eid: str) -> str:
        return self.mapping[eid]

    def __repr__(self) -> str:
        return "EdgeBijection(%d edges)" % (len(self.mapping),)


def pair_type(g: Multigraph, e: str, f: str) -> tuple[bool, bool, int]:
    """Isomorphism type of the ordered two-edge configuration: the loop
    flags of e and f plus how many vertices they share."""
    shared = len(g.endpoint_set(e) & g.endpoint_set(f))
    return (g.is_loop(e), g.is_loop(f), shared)


def is_edge_isomorphism(psi: EdgeBijection) -> bool:
    """Check every edge pair, including the singleton loop case."""
    src, dst = psi.source, psi.target
    ids = src.edge_ids
    for e in ids:
        if src.is_loop(e) != dst.is_loop(psi[e]):
            return False
    for e, f in combinations(ids, 2):
        if pair_type(src, e, f) != pair_type(dst, psi[e], psi[f]):
            return False
    return True


def _is_triangle(g: Multigraph, triple: tuple[str, str, str]) -> bool:
    if any(g.is_loop(e) for e in triple):
        return False
    ends = [g.endpoint_set(e) for e in triple]
    if ends[0] == ends[1] or ends[0] == ends[2] or ends[1] == ends[2]:
        return False
    support = ends[0] | ends[1] | ends[2]
    return len(support) == 3


def _is_three_star(g: Multigraph, triple: tuple[str, str, str]) -> bool:
    if any(g.is_loop(e) for e in triple):
        return False
    ends = [g.endpoint_set(e) for e in triple]
    if ends[0] == ends[1] or ends[0] == ends[2] or ends[1] == ends[2]:
        return False
    center = ends[0] & ends[1] & ends[2]
    if len(center) != 1:
        return False
    support = ends[0] | ends[1] | ends[2]
    return len(support) == 4


def find_k3_k13_pair(psi: EdgeBijection) -> Optional[tuple[str, str, str]]:
    """The first (in lexicographic edge-id order) 3-edge subset whose
    union is a triangle mapped to a 3-star or vice versa, else None.

    Precondition: psi is an edge isomorphism.
    """
    if not is_edge_isomorphism(psi):
        raise ValueError("not an edge isomorphism")
    src, dst = psi.source, psi.target
    for triple in combinations(src.edge_ids, 3):
        image = tuple(psi[e] for e in triple)
        if _is_triangle(src, triple) and _is_three_star(dst, image):
            return triple
        if _is_three_star(src, triple) and _is_triangle(dst, image):
            return triple
    return None


class LiftResult(NamedTuple):
    """Outcome of lifting an edge isomorphism.

    verdict is one of ``lifted``, ``obstructed``, ``ambiguous-order-2``.
    When lifted, ``vertex_map`` induces the edge bijection exactly; when
    obstructed, ``obstruction`` is the witnessing 3-edge subset.
    """

    verdict: str
    bijection: EdgeBijection
    vertex_map: Optional[dict[str, str]] = None
    obstruction: Optional[tuple[str, str, str]] = None


def _induces(psi: EdgeBijection, phi: Mapping[str, str]) -> bool:
    src, dst = psi.source, psi.target
    for e in src.edge_ids:
        u, v = src.endpoints(e)
        image = tuple(sorted((phi[u], phi[v])))
        if image != dst.endpoints(psi[e]):
            return False
    return True


def _order2_case(g: Multigraph) -> bool:
    return g.n_vertices == 2 and not any(g.is_loop(e) for e in g.edge_ids)


def lift_edge_isomorphism(psi: EdgeBijection) -> LiftResult:
    """Lift an edge isomorphism of a connected multigraph to the vertex
    isomorphism inducing it.

    Obstructed when a triangle/3-star pair exists; ambiguous when the
    source is two vertices with edges only between them (two lifts
    exist).  Otherwise the unique lift is read off vertex stars: the
    images of the edges at v have exactly phi(v) in common, except when
    every edge at v is parallel to one edge vu.  Then they share
    {phi(v), phi(u)}, and phi(v) is the one that is not phi(u); u has a
    loop or another neighbour, so phi(u) is known.
    """
    src, dst = psi.source, psi.target
    if not src.is_connected() or src.n_vertices == 0:
        raise ValueError("source must be connected and nonempty")
    if not dst.is_connected() or dst.n_vertices == 0:
        raise ValueError("target must be connected and nonempty")
    obstruction = find_k3_k13_pair(psi)  # validates the edge isomorphism
    if obstruction is not None:
        return LiftResult(OBSTRUCTED, psi, obstruction=obstruction)
    if _order2_case(src):
        return LiftResult(AMBIGUOUS_ORDER_2, psi)

    # the image vertices common to every edge at v: {phi(v)}, unless all
    # edges at v are parallel to one edge vu, when they are {phi(v), phi(u)}
    common = dict.fromkeys(src.vertices, frozenset(dst.vertices))
    other: dict[str, str] = {}
    for e in src.edge_ids:
        u, v = src.endpoints(e)
        image = dst.endpoint_set(psi[e])
        common[u] &= image
        common[v] &= image
        other[u], other[v] = v, u
    phi = {v: w for v, ends in common.items() if len(ends) == 1 for w in ends}
    for v, ends in common.items():
        if len(ends) == 2:
            (phi[v],) = ends - {phi[other[v]]}
    if len(phi) != src.n_vertices:
        raise AssertionError("lift left a vertex unassigned")
    if len(set(phi.values())) != dst.n_vertices:
        raise AssertionError("lift is not bijective")
    if not _induces(psi, phi):
        raise AssertionError("constructed map does not induce the bijection")
    return LiftResult(LIFTED, psi, vertex_map=dict(sorted(phi.items())))

