"""Independent oracles shared by the test modules."""

from itertools import permutations

from spherecomplex import SpherePartition, VertexMap, build_genus_zero_complex


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
