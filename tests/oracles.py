"""Independent oracles shared by the test modules."""

from itertools import permutations
from typing import Optional

from spherecomplex import (FlagComplex, FlipGraph, SpherePartition, VertexMap,
                           build_genus_zero_complex, flag_from_adjacency)
from spherecomplex.flagcomplex import _bits, mask_components


def label_action_automorphisms(s: int) -> list[VertexMap]:
    """The automorphisms of the genus-zero complex induced by permuting
    the boundary labels 1..s, each once, in canonical order.  Built from
    the partition model alone, with no search: s! relabelings, so keep s
    small."""
    c = build_genus_zero_complex(s)
    out = []
    seen = set()
    for perm in permutations(range(1, s + 1)):
        relabel = dict(zip(range(1, s + 1), perm))
        assignment = {}
        for vid in c.vertices:
            sp = SpherePartition.from_vertex_id(vid)
            assignment[vid] = SpherePartition(s, [relabel[x] for x in sp.block]).vertex_id()
        key = tuple(sorted(assignment.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(VertexMap(c, c, assignment))
    out.sort(key=VertexMap.key)
    return out


def flip_graph_shape(fg: FlipGraph) -> tuple[bool, Optional[int]]:
    """Connectivity and diameter of a flip graph from its edges alone:
    components of the bitmask adjacency, then one breadth-first search
    from every node, each layer the OR of its nodes' whole masks."""
    index = {u: i for i, u in enumerate(fg.nodes)}
    adj = [0] * len(fg.nodes)
    for u, v in fg.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    if len(mask_components(adj)) > 1:
        return False, None
    diameter = 0
    for start in range(len(adj)):
        seen = layer = 1 << start
        depth = -1
        while layer:
            reach = 0
            for i in _bits(layer):
                reach |= adj[i]
            layer, depth = reach & ~seen, depth + 1
            seen |= layer
        diameter = max(diameter, depth)
    return True, diameter


def rank_mod_p(matrix, p: int) -> int:
    """Rank over the field with p elements, by Gaussian elimination."""
    a = [[int(x) % p for x in row] for row in matrix]
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(n_rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def join_of(c1: FlagComplex, c2: FlagComplex) -> FlagComplex:
    """The join: disjoint union of the vertex sets plus every cross edge.
    Vertex id spaces must already be disjoint."""
    collision = set(c1.vertices) & set(c2.vertices)
    if collision:
        raise ValueError("vertex id collision: %r" % (sorted(collision)[0],))
    pairs = c1.edges() + c2.edges()
    pairs += [(u, v) for u in c1.vertices for v in c2.vertices]
    return flag_from_adjacency(list(c1.vertices) + list(c2.vertices), pairs)
