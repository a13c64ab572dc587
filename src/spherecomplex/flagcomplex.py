"""Finite flag (clique) complexes.

A flag complex is completely determined by its 1-skeleton: the simplices
are exactly the cliques of the adjacency relation.  Every complex in this
package is flag, so we store only vertices and a symmetric irreflexive
adjacency relation and answer all simplex queries through clique
membership.

Vertex ids are opaque strings.  The canonical vertex order is
lexicographic on ids; every enumeration in this module emits its results
in that order, so repeated runs produce identical output.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence


class FlagComplex:
    """A finite flag complex, stored as its 1-skeleton.

    Instances are immutable after construction.  Use
    :func:`flag_from_adjacency` rather than calling the constructor with
    raw bitmasks.
    """

    __slots__ = ("vertices", "_index", "_adj", "meta")

    def __init__(self, vertices: Sequence[str], adj_masks: Sequence[int],
                 meta: Optional[Mapping] = None):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self._index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        self._adj: tuple[int, ...] = tuple(adj_masks)
        self.meta = dict(meta) if meta else {}
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if list(self.vertices) != sorted(self.vertices):
            raise ValueError("vertices not in canonical order")
        for i, m in enumerate(self._adj):
            if m >> len(self.vertices):
                raise ValueError("adjacency mask out of range")
            if m & (1 << i):
                raise ValueError("self-adjacency is not allowed")
        if not all(((self._adj[j] >> i) & 1) == ((self._adj[i] >> j) & 1)
                   for i in range(len(self._adj)) for j in range(i)):
            raise ValueError("adjacency not symmetric")

    # -- basic queries -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def index_of(self, v: str) -> int:
        return self._index[v]

    def adjacency_mask(self, v: str) -> int:
        return self._adj[self._index[v]]

    def adjacent(self, u: str, v: str) -> bool:
        return bool((self._adj[self._index[u]] >> self._index[v]) & 1)

    def neighbors(self, v: str) -> tuple[str, ...]:
        m = self._adj[self._index[v]]
        return tuple(self.vertices[i] for i in _bits(m))

    def degree(self, v: str) -> int:
        return self._adj[self._index[v]].bit_count()

    def edges(self) -> list[tuple[str, str]]:
        """All edges as sorted pairs, in canonical order."""
        out = []
        for i, m in enumerate(self._adj):
            for j in _bits(m):
                if j > i:
                    out.append((self.vertices[i], self.vertices[j]))
        return out

    def is_clique(self, vs: Iterable[str]) -> bool:
        idx = [self._index[v] for v in vs]
        return all((self._adj[a] >> b) & 1 for k, a in enumerate(idx) for b in idx[:k])

    def induced(self, vs: Iterable[str]) -> "FlagComplex":
        """The induced subcomplex on the given vertex set (ids preserved)."""
        keep = sorted(set(vs))
        for v in keep:
            if v not in self._index:
                raise ValueError("unknown vertex id: %r" % (v,))
        old = [self._index[v] for v in keep]
        pos = {o: k for k, o in enumerate(old)}
        masks = []
        for o in old:
            m = 0
            for j in _bits(self._adj[o]):
                if j in pos:
                    m |= 1 << pos[j]
            masks.append(m)
        return FlagComplex(keep, masks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.vertices, self._adj))

    def __repr__(self) -> str:
        return "FlagComplex(%d vertices, %d edges)" % (self.n_vertices, self.n_edges)


def _bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def flag_from_adjacency(vertices: Iterable[str],
                        adjacency_pairs: Iterable[tuple[str, str]],
                        meta: Optional[Mapping] = None) -> FlagComplex:
    """Build a flag complex from vertex ids and adjacency pairs.

    Pairs are symmetrized and deduplicated.  Unknown vertex ids and
    self-pairs are rejected.
    """
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    if len(index) != len(vs):
        raise ValueError("duplicate vertex ids")
    masks = [0] * len(vs)
    for u, v in adjacency_pairs:
        if u not in index:
            raise ValueError("unknown vertex id: %r" % (u,))
        if v not in index:
            raise ValueError("unknown vertex id: %r" % (v,))
        if u == v:
            raise ValueError("self-loop pair: %r" % (u,))
        i, j = index[u], index[v]
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return FlagComplex(vs, masks, meta)


def link_of(c: FlagComplex, simplex: Iterable[str]) -> FlagComplex:
    """The link of a clique: the induced subcomplex on the vertices
    adjacent to every vertex of the clique and not in it.

    The link of the empty simplex is the whole complex.
    """
    s = sorted(set(simplex))
    if not c.is_clique(s):
        raise ValueError("not a clique: %r" % (s,))
    return c.induced(c.vertices[i] for i in _bits(_link_mask(c, s)))


def _link_mask(c: FlagComplex, ids: Iterable[str]) -> int:
    """Mask of the vertices adjacent to every vertex in ``ids``: all
    vertices for the empty set, and never a vertex of a nonempty
    ``ids`` (adjacency is irreflexive)."""
    common = (1 << c.n_vertices) - 1
    for v in ids:
        common &= c._adj[c._index[v]]
    return common


def join_of(c1: FlagComplex, c2: FlagComplex) -> FlagComplex:
    """The join: disjoint union of the vertex sets plus every cross edge.

    Vertex id spaces must already be disjoint; the caller relabels.
    """
    collision = set(c1.vertices) & set(c2.vertices)
    if collision:
        raise ValueError("vertex id collision: %r" % (sorted(collision)[0],))
    pairs = c1.edges() + c2.edges()
    pairs += [(u, v) for u in c1.vertices for v in c2.vertices]
    return flag_from_adjacency(list(c1.vertices) + list(c2.vertices), pairs)


def maximal_cliques(c: FlagComplex) -> list[tuple[str, ...]]:
    """All inclusion-maximal cliques, each a sorted id tuple, in
    canonical (lexicographic) order.

    Bron-Kerbosch with pivoting on bitmask adjacency.  The empty complex
    has the empty clique as its unique maximal clique.
    """
    n = c.n_vertices
    if n == 0:
        return [()]
    adj = c._adj
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot_candidates = p | x
        pivot = max(_bits(pivot_candidates), key=lambda i: (adj[i] & p).bit_count())
        for v in _bits(p & ~adj[pivot]):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << n) - 1, 0)
    cliques = [tuple(c.vertices[i] for i in _bits(m)) for m in out]
    cliques.sort()
    return cliques


def cliques_of_size(c: FlagComplex, k: int) -> list[tuple[str, ...]]:
    """All cliques with exactly k vertices, as sorted id tuples in
    canonical order.  k = 0 yields the empty simplex."""
    if k < 0:
        raise ValueError("negative clique size")
    if k == 0:
        return [()]
    n = c.n_vertices
    adj = c._adj
    out: list[tuple[str, ...]] = []
    stack: list[int] = []

    def extend(start_mask: int, depth: int) -> None:
        if depth == k:
            out.append(tuple(c.vertices[i] for i in stack))
            return
        for v in _bits(start_mask):
            stack.append(v)
            higher = ~((1 << (v + 1)) - 1)
            extend(start_mask & adj[v] & higher, depth + 1)
            stack.pop()

    extend((1 << n) - 1, 0)
    return out


class FVector:
    """Simplex counts by dimension plus the Euler characteristic."""

    __slots__ = ("counts", "euler")

    def __init__(self, counts: Sequence[int]):
        self.counts: tuple[int, ...] = tuple(counts)
        self.euler: int = sum((-1) ** k * f for k, f in enumerate(self.counts))

    def __eq__(self, other) -> bool:
        if isinstance(other, FVector):
            return self.counts == other.counts
        return self.counts == tuple(other)

    def __iter__(self):
        return iter(self.counts)

    def __repr__(self) -> str:
        return "FVector(%r, euler=%d)" % (self.counts, self.euler)


def f_vector(c: FlagComplex, max_dim: Optional[int] = None) -> FVector:
    """Count simplices per dimension, up to ``max_dim`` (or to the full
    dimension of the complex when omitted)."""
    if max_dim is not None and max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    counts = []
    k = 1
    while True:
        n = len(cliques_of_size(c, k))
        if max_dim is None and n == 0:
            break
        counts.append(n)
        if max_dim is not None and k == max_dim + 1:
            break
        k += 1
    if max_dim is None and not counts:
        counts = [0]
    return FVector(counts)


def mask_components(adj: Sequence[int]) -> list[int]:
    """Connected components of the graph with symmetric bitmask
    adjacency ``adj`` (set self bits are ignored), as vertex masks in
    order of their lowest vertex."""
    full = (1 << len(adj)) - 1
    seen = 0
    comps = []
    while seen != full:
        comp = todo = ~seen & (seen + 1)
        while todo:
            new = adj[(todo & -todo).bit_length() - 1] & ~comp
            todo = (todo & (todo - 1)) | new
            comp |= new
        seen |= comp
        comps.append(comp)
    return comps


def pair_components(vertices: Sequence[Hashable],
                    pairs: Iterable[tuple[Hashable, Hashable]]) -> list[int]:
    """Connected components of a multigraph given by vertex ids and edge
    endpoint pairs (loops and parallel pairs allowed), as masks over
    positions in ``vertices``, in order of their lowest position."""
    index = {v: k for k, v in enumerate(vertices)}
    adj = [0] * len(vertices)
    for u, v in pairs:
        i, j = index[u], index[v]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return mask_components(adj)


def is_connected(c: FlagComplex) -> bool:
    """Connectivity of the 1-skeleton.  The empty complex counts as
    connected."""
    return len(mask_components(c._adj)) <= 1


def has_cycle(c: FlagComplex) -> bool:
    """Whether the 1-skeleton contains a cycle (is not a forest): a
    forest has exactly one edge fewer than vertices per component."""
    return c.n_edges > c.n_vertices - len(mask_components(c._adj))


def connected_components(c: FlagComplex) -> list[tuple[str, ...]]:
    """Vertex sets of the connected components, canonically ordered."""
    return [tuple(c.vertices[i] for i in _bits(m)) for m in mask_components(c._adj)]
