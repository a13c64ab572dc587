"""Independent oracles shared by the test modules."""

from itertools import permutations
from typing import Optional

from spherecomplex import (ChainBoundary, FlagComplex, FlipGraph, HomologyReport, LinkClass,
                           LinkClasses, ManifoldSignature, SNFResult, SpherePartition,
                           build_genus_zero_complex, f_vector, flag_from_adjacency,
                           slot_id, smith_normal_form, split_slot)
from spherecomplex.flagcomplex import _bits, mask_components, pair_components
from spherecomplex.search import _placements


def _iso_precheck(c1: FlagComplex, c2: FlagComplex) -> bool:
    if c1.n_vertices != c2.n_vertices or c1.n_edges != c2.n_edges:
        return False
    d1 = sorted(c1._adj[i].bit_count() for i in range(c1.n_vertices))
    d2 = sorted(c2._adj[i].bit_count() for i in range(c2.n_vertices))
    if d1 != d2:
        return False
    dim = min(2, max(c1.n_vertices - 1, 0))
    return f_vector(c1, dim) == f_vector(c2, dim)


def search_isomorphism(c1: FlagComplex, c2: FlagComplex) -> Optional[tuple[int, ...]]:
    """Find a bijection preserving and reflecting adjacency, as an index
    tuple, or certify absence (after a cheap f-vector and degree-sequence
    precheck).

    No check that non-adjacency is reflected is needed: between
    complexes with equal vertex and edge counts, an adjacency-preserving
    bijection maps the E source edges injectively into the E target
    edges, so onto them, and no non-edge can map to an edge."""
    if not _iso_precheck(c1, c2):
        return None
    return next(_placements(c1, c2), None)


def label_action_automorphisms(s: int) -> list[tuple[int, ...]]:
    """The automorphisms of the genus-zero complex induced by permuting
    the boundary labels 1..s, each once, as index tuples in canonical
    order.  Built from the partition model alone, with no search: s!
    relabelings, so keep s small."""
    c = build_genus_zero_complex(s)
    out = set()
    for perm in permutations(range(1, s + 1)):
        relabel = dict(zip(range(1, s + 1), perm))
        out.add(tuple(
            c.index_of(SpherePartition(s, [relabel[x] for x in sp.block]).vertex_id())
            for sp in map(SpherePartition.from_vertex_id, c.vertices)))
    return sorted(out)


def tree_f_vector(s: int) -> tuple[int, ...]:
    """The f-vector of the genus-zero complex at ``s`` from counting trees
    by internal edges alone: f_k = T(s, k + 2), where T(3, 1) = 1 and
    T(n + 1, m) = (n + m - 2) T(n, m - 1) + m T(n, m) for 1 <= m <= n - 1."""
    row = {1: 1}  # T(n, m) by m, from n = 3
    for n in range(3, s):
        row = {m: (n + m - 2) * row.get(m - 1, 0) + m * row.get(m, 0) for m in range(1, n)}
    return tuple(row[m] for m in range(2, s - 1))


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


def reference_cliques(c: FlagComplex, top: int) -> list[list[tuple[str, ...]]]:
    """The k-cliques for k = 0..top as sorted id tuples, level by level:
    each clique is extended by every common neighbour above its last
    vertex, so every level comes out in canonical order."""
    nbrs = {v: set(c.neighbors(v)) for v in c.vertices}
    levels: list[list[tuple[str, ...]]] = [[()]]
    for _ in range(top):
        levels.append([s + (v,) for s in levels[-1] for v in sorted(
            set.intersection(*(nbrs[u] for u in s)) if s else c.vertices)
            if not s or v > s[-1]])
    return levels


def reference_boundary(levels: list[list[tuple[str, ...]]], k: int) -> ChainBoundary:
    """d_k over id-tuple bases: its columns are the k-simplices
    ``levels[k + 1]`` and its rows the (k-1)-simplices ``levels[k]``,
    and the face omitting the vertex in position j has sign (-1)^j."""
    rows, cols = levels[k], levels[k + 1]
    row_index = {s: i for i, s in enumerate(rows)}
    columns = tuple(
        tuple((row_index[simplex[:omit] + simplex[omit + 1:]], -1 if omit % 2 else 1)
              for omit in range(k + 1))
        for simplex in cols)
    return ChainBoundary(k, tuple(rows), tuple(cols), columns)


def reference_boundaries(c: FlagComplex, max_dim: int) -> list[ChainBoundary]:
    """d_1..d_max_dim from ``reference_cliques`` and ``reference_boundary``,
    sharing no clique walk or assembly with the library."""
    levels = reference_cliques(c, max_dim + 1)
    return [reference_boundary(levels, k) for k in range(1, max_dim + 1)]


def plain_homology(c: FlagComplex, max_dim: int) -> HomologyReport:
    """The homology report with every boundary map of ``c`` built by
    ``reference_boundaries`` and reduced by ``smith_normal_form``, joins
    included: b_k = f_k - rank d_k - rank d_{k+1}, torsion in H_k from
    the invariant factors of d_{k+1}."""
    ds = reference_boundaries(c, max_dim + 1)
    counts = [len(d.rows) for d in ds]
    snf = [SNFResult(0, ())] + [smith_normal_form(d) for d in ds]
    ranks = [r.rank for r in snf]
    betti = [counts[k] - ranks[k] - ranks[k + 1] for k in range(max_dim + 1)]
    torsion = [tuple(f for f in r.factors if f not in (0, 1)) for r in snf[1:]]
    return HomologyReport(max_dim, tuple(counts), tuple(ranks), tuple(betti), tuple(torsion),
                          sum((-1) ** k * f for k, f in enumerate(counts)),
                          sum((-1) ** k * b for k, b in enumerate(betti)))


class StringDual:
    """A dual multigraph kept by slot-id strings, as ``dual.DualMultigraph``
    was before it stored slots as integers: the same validation, the
    same ``pants``/``bonds``/``legs``/``bond_labels`` and the queries
    ``serialization.dual_to_dict`` and ``dual_to_dot`` read."""

    def __init__(self, pants, bonds, legs, bond_labels=None):
        self.pants = tuple(pants)
        self.bonds = tuple((a, b) for a, b in bonds)
        self.legs = tuple((sl, str(lb)) for sl, lb in legs)
        self.bond_labels = tuple(bond_labels) if bond_labels is not None else None
        if len(set(self.pants)) != len(self.pants):
            raise ValueError("duplicate pants ids")
        for pid in self.pants:
            if "." in pid:
                raise ValueError("pants id may not contain '.': %r" % (pid,))
        if self.bond_labels is not None and len(self.bond_labels) != len(self.bonds):
            raise ValueError("bond_labels length mismatch")
        used = {}  # slot id -> pants id
        for sl in [sl for pair in self.bonds for sl in pair] + [sl for sl, _ in self.legs]:
            pid, idx = split_slot(sl)
            if pid not in self.pants:
                raise ValueError("slot on unknown pants: %r" % (sl,))
            if not 0 <= idx <= 2:
                raise ValueError("slot index out of range: %r" % (sl,))
            if sl in used:
                raise ValueError("slot used twice: %r" % (sl,))
            used[sl] = pid
        expected = {slot_id(p, k) for p in self.pants for k in range(3)}
        if used.keys() != expected:
            missing = sorted(expected - used.keys())
            extra = sorted(used.keys() - expected)
            raise ValueError("slots must be used exactly once each"
                             " (missing %r, extra %r)" % (missing, extra))
        self._slot_pants = used

    def bond_endpoints(self, i):
        a, b = self.bonds[i]
        return self._slot_pants[a], self._slot_pants[b]

    def is_loop_bond(self, i):
        u, v = self.bond_endpoints(i)
        return u == v

    def bond_label(self, i):
        return "b%d" % i if self.bond_labels is None else self.bond_labels[i]

    def is_connected(self):
        sp = self._slot_pants
        return len(pair_components(self.pants, ((sp[a], sp[b]) for a, b in self.bonds))) <= 1


def _innermost_block(block, blocks):
    """Index of the smallest of ``blocks`` strictly containing ``block``,
    or None when none does (the root region).  In a laminar family the
    strictly containing blocks form a chain, so the smallest is unique."""
    best = None
    for i, b in enumerate(blocks):
        if block < b and (best is None or len(b) < len(blocks[best])):
            best = i
    return best


def string_laminar_tree(members, s: int):
    """``genus_zero._laminar_tree`` from vertex ids, as it was before the
    cluster table: each member's block away from label 1 parsed from its
    id as a frozenset.  Returns (blocks, regions): blocks in member
    vertex-id order, and the regions as ``_laminar_tree`` gives them."""
    blocks = [SpherePartition.from_vertex_id(v).other_block for v in sorted(members)]
    keys = [None, *sorted(range(len(blocks)), key=lambda i: (-len(blocks[i]), sorted(blocks[i])))]
    children = {key: [] for key in keys}
    for i, b in enumerate(blocks):
        children[_innermost_block(b, blocks)].append(i)
    regions = []
    for key in keys:
        zone = frozenset(range(1, s + 1)) if key is None else blocks[key]
        labels = zone.difference(*(blocks[ch] for ch in children[key]))
        regions.append((key, tuple(sorted(labels)), tuple(children[key])))
    return blocks, regions


def string_regions(sigma):
    """``rigidity._regions`` from vertex ids: the members' blocks and, by
    region key, each region's (labels, spheres, boundary count)."""
    vids = sorted(sigma.members)
    blocks, tree = string_laminar_tree(vids, sigma.complex.meta["s"])
    regions = {}
    for key, labels, children in tree:
        spheres = [vids[ch] for ch in children] + ([] if key is None else [vids[key]])
        regions[key] = (labels, tuple(sorted(spheres)), len(labels) + len(spheres))
    return blocks, regions


def string_nonpants_regions(sigma):
    """``rigidity.nonpants_regions`` from vertex ids."""
    return [r for r in string_regions(sigma)[1].values() if r[2] >= 4]


def string_link_classes(sigma) -> LinkClasses:
    """``rigidity.link_equivalence_classes`` from its definition and
    vertex ids: two link spheres are related when some link sphere
    crosses both (a sphere crosses itself); each component, sorted, is
    annotated with the region holding its least member, the innermost
    member block strictly containing that member's block."""
    c = sigma.complex
    link = [v for v in c.vertices
            if v not in sigma.members and all(c.adjacent(v, m) for m in sigma.members)]

    def related(a, b):
        return any((x == a or not c.adjacent(x, a)) and (x == b or not c.adjacent(x, b))
                   for x in link)

    blocks, regions = string_regions(sigma)
    classes, left = [], sorted(link)
    while left:
        comp, todo = {left[0]}, [left[0]]
        while todo:
            a = todo.pop()
            new = [b for b in left if b not in comp and related(a, b)]
            comp.update(new)
            todo += new
        left = [v for v in left if v not in comp]
        members = tuple(sorted(comp))
        key = _innermost_block(SpherePartition.from_vertex_id(members[0]).other_block, blocks)
        labels, spheres, boundary = regions[key]
        classes.append(LinkClass(members, labels, spheres, ManifoldSignature(0, boundary)))
    return LinkClasses(tuple(classes))


def cluster_flips(clusters, s: int):
    """The two flip partners of each member of a genus-zero pants
    decomposition, as clusters, read off the tree rooted at label 1
    (bit x for label x): member E has the children A, the largest member
    strictly inside E or else E's lowest label, and B = E - A; with C =
    P - E, where P is the smallest member containing E or else the
    labels 2..s, the partners are A + C and B + C."""
    out = []
    for e in clusters:
        inside = [b for b in clusters if b & e == b != e]
        a = max(inside, default=e & -e)
        p = min([b for b in clusters if b & e == e != b], default=(2 << s) - 4)
        out.append((a | (p ^ e), (e ^ a) | (p ^ e)))
    return out


def string_label_generators(c: FlagComplex):
    """``genus_zero._label_generators`` from vertex ids, without its
    automorphism check: the transposition (1 2) and the s-cycle, each
    applied to every parsed block and looked up by its vertex id."""
    s = c.meta["s"]
    gens = []
    for relabel in ({1: 2, 2: 1}, {x: x % s + 1 for x in range(1, s + 1)}):
        blocks = (SpherePartition.from_vertex_id(v).block for v in c.vertices)
        gens.append(tuple(c.index_of(SpherePartition(s, [relabel.get(x, x) for x in b]).vertex_id())
                          for b in blocks))
    return gens[0], gens[1]


def string_dual_of_pants(P) -> StringDual:
    """``dual.dual_of_pants`` assembled from slot-id strings."""
    members = P.sorted_members()
    _, regions = string_laminar_tree(members, P.complex.meta["s"])
    pants_ids = ["q%d" % k for k in range(len(regions))]
    up, down, legs = {}, {}, []
    for pid, (key, labels, children) in zip(pants_ids, regions):
        slots = (slot_id(pid, k) for k in range(3))
        if key is not None:
            up[key] = next(slots)
        for ch in children:
            down[ch] = next(slots)
        legs += [(next(slots), str(lb)) for lb in labels]
    legs.sort(key=lambda t: int(t[1]))
    bonds = [(down[i], up[i]) for i in range(len(members))]
    return StringDual(pants_ids, bonds, legs, members)


def string_ih_flip(d: StringDual, bond_index: int, pairing_choice: int) -> StringDual:
    """``dual.ih_flip`` by renaming slot-id strings: the flipped bond
    takes slot 2 of both its pants, and the four surrounding slots,
    paired up by ``pairing_choice``, take slots 0 and 1.  Bond labels
    are dropped, as the library drops them."""
    fu, fv = d.bonds[bond_index]
    u, v = d.bond_endpoints(bond_index)
    if u == v:
        raise ValueError("flip is undefined on a loop bond")
    su = [slot_id(u, k) for k in range(3) if slot_id(u, k) != fu]
    sv = [slot_id(v, k) for k in range(3) if slot_id(v, k) != fv]
    rename = {fu: slot_id(u, 2), fv: slot_id(v, 2)}
    if pairing_choice == 0:
        grouping = [(su[0], sv[0]), (su[1], sv[1])]
    else:
        grouping = [(su[0], sv[1]), (su[1], sv[0])]
    rename[grouping[0][0]] = slot_id(u, 0)
    rename[grouping[0][1]] = slot_id(u, 1)
    rename[grouping[1][0]] = slot_id(v, 0)
    rename[grouping[1][1]] = slot_id(v, 1)
    bonds = [(rename.get(a, a), rename.get(b, b)) for a, b in d.bonds]
    legs = [(rename.get(sl, sl), lb) for sl, lb in d.legs]
    return StringDual(d.pants, bonds, legs)
