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
constructively; :func:`extend_lift` carries a lift up one step of a
nested exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional

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


@dataclass(frozen=True)
class LiftResult:
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
    exist); otherwise the unique lift is constructed by anchoring loops,
    reading shared endpoints off pairs of incident edges, and
    propagating along edges.
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

    phi: dict[str, str] = {}

    def anchor(v: str, w: str) -> None:
        prev = phi.get(v)
        assert prev is None or prev == w, "inconsistent anchoring"
        phi[v] = w

    if src.n_vertices == 1:
        # all edges are loops, and the connected target is then a
        # single vertex as well
        anchor(src.vertices[0], dst.vertices[0])

    # loops anchor their vertex; incident pairs sharing exactly one
    # vertex anchor it to the unique shared image vertex
    for e in src.edge_ids:
        if src.is_loop(e):
            (u,) = src.endpoint_set(e)
            (x,) = dst.endpoint_set(psi[e])
            anchor(u, x)
    for e, f in combinations(src.edge_ids, 2):
        common = src.endpoint_set(e) & src.endpoint_set(f)
        if len(common) != 1:
            continue
        image_common = dst.endpoint_set(psi[e]) & dst.endpoint_set(psi[f])
        assert len(image_common) == 1, "pair type not preserved"
        (v,) = common
        (w,) = image_common
        anchor(v, w)

    # propagate along edges until every vertex is assigned
    changed = True
    while changed:
        changed = False
        for e in src.edge_ids:
            u, v = src.endpoints(e)
            x, y = dst.endpoints(psi[e])
            for a, b in ((u, v), (v, u)):
                if a in phi and b not in phi:
                    if phi[a] == x:
                        anchor(b, y)
                    else:
                        assert phi[a] == y, "edge image does not cover anchor"
                        anchor(b, x)
                    changed = True
    assert len(phi) == src.n_vertices, "propagation left a vertex unassigned"
    assert len(set(phi.values())) == dst.n_vertices, "lift is not bijective"
    assert _induces(psi, phi), "constructed map does not induce the bijection"
    return LiftResult(LIFTED, psi, vertex_map=dict(sorted(phi.items())))


def _is_subgraph(small: Multigraph, big: Multigraph) -> bool:
    if not set(small.vertices) <= set(big.vertices):
        return False
    return all(e in big.edges and big.edges[e] == ends
               for e, ends in small.edges.items())


def extend_lift(prev: LiftResult, psi: EdgeBijection) -> LiftResult:
    """Extend a lift along one inclusion step of an exhaustion.

    ``prev`` must be a lifted result on a subgraph of psi's source with
    more than two vertices, and psi must restrict to prev's edge
    bijection.  The extended vertex map restricts to prev's map; this is
    forced by uniqueness, and checked.
    """
    if prev.verdict != LIFTED:
        raise ValueError("previous result is not lifted")
    small = prev.bijection.source
    if small.n_vertices == 2:
        raise ValueError("previous stage must have more than two vertices")
    if not _is_subgraph(small, psi.source):
        raise ValueError("previous source is not a subgraph of the new source")
    for e, img in prev.bijection.mapping.items():
        if psi.mapping.get(e) != img:
            raise ValueError("restriction mismatch on edge %r" % (e,))
    result = lift_edge_isomorphism(psi)
    if result.verdict == LIFTED:
        assert prev.vertex_map is not None
        for v, w in prev.vertex_map.items():
            assert result.vertex_map is not None and result.vertex_map[v] == w, \
                "extension failed to restrict to the previous lift"
    return result
