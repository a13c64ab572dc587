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
    raw bitmasks.  ``_aut``, ``_clusters`` and ``_profile_classes`` keep
    the automorphism group, the genus-zero cluster table and the
    degree-profile classes of the search once computed.
    """

    __slots__ = ("vertices", "_index", "_adj", "meta", "_aut", "_clusters",
                 "_profile_classes")

    def __init__(self, vertices: Sequence[str], adj_masks: Sequence[int],
                 meta: Optional[Mapping] = None):
        self._fill(vertices, adj_masks, meta)
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

    def _fill(self, vertices: Sequence[str], adj_masks: Sequence[int],
              meta: Optional[Mapping]) -> None:
        self.vertices: tuple[str, ...] = tuple(vertices)
        self._index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        self._adj: tuple[int, ...] = tuple(adj_masks)
        self.meta = dict(meta) if meta else {}
        self._aut = self._clusters = self._profile_classes = None

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
        return self._ids(self._adj[self._index[v]])

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

    def _indices(self, ids: Iterable[str]) -> list[int]:
        """The indices of ``ids`` in the order given; ``ValueError``
        names the first id that is not a vertex."""
        try:
            return [self._index[v] for v in ids]
        except KeyError as exc:
            raise ValueError("unknown vertex id: %r" % (exc.args[0],)) from None

    def _ids(self, mask: int) -> tuple[str, ...]:
        """The ids of the vertices in ``mask``, sorted."""
        return tuple(self.vertices[i] for i in _bits(mask))

    def is_clique(self, vs: Iterable[str]) -> bool:
        idx = self._indices(vs)
        return all((self._adj[a] >> b) & 1 for k, a in enumerate(idx) for b in idx[:k])

    def induced(self, vs: Iterable[str]) -> "FlagComplex":
        """The induced subcomplex on the given vertex set (ids preserved)."""
        return self._induced(sum(1 << i for i in self._indices(sorted(set(vs)))))

    def _induced(self, mask: int) -> "FlagComplex":
        """The induced subcomplex on the vertices in ``mask``.  It is
        built without the constructor's checks: a sub-sequence of sorted
        distinct ids, restricted symmetric irreflexive adjacency."""
        old = list(_bits(mask))
        pos = {o: k for k, o in enumerate(old)}
        masks = []
        for o in old:
            m = 0
            for j in _bits(self._adj[o] & mask):
                m |= 1 << pos[j]
            masks.append(m)
        sub = FlagComplex.__new__(FlagComplex)
        sub._fill([self.vertices[o] for o in old], masks, None)
        return sub

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


def complex_id(c: FlagComplex) -> str:
    """The id reports print: meta name, model and size, or the counts."""
    name = c.meta.get("name")
    if name:
        return str(name)
    if c.meta.get("model") == "genus-zero":
        return "genus-zero:s=%d" % (c.meta["s"],)
    if c.meta.get("model") == "caterpillar":
        return "caterpillar:m=%d" % (c.meta["m"],)
    return "complex:%dv,%de" % (c.n_vertices, c.n_edges)


def link_of(c: FlagComplex, simplex: Iterable[str]) -> FlagComplex:
    """The link of a clique: the induced subcomplex on the vertices
    adjacent to every vertex of the clique and not in it.

    The link of the empty simplex is the whole complex.
    """
    s = sorted(set(simplex))
    if not c.is_clique(s):
        raise ValueError("not a clique: %r" % (s,))
    return c._induced(_link_mask(c, c._indices(s)))


def _link_mask(c: FlagComplex, indices: Iterable[int]) -> int:
    """Mask of the vertices adjacent to every vertex in ``indices``: all
    vertices for the empty set, and never a vertex of a nonempty
    ``indices`` (adjacency is irreflexive)."""
    common = (1 << c.n_vertices) - 1
    for i in indices:
        common &= c._adj[i]
    return common


def maximal_cliques(c: FlagComplex) -> list[tuple[str, ...]]:
    """All inclusion-maximal cliques, each a sorted id tuple, in
    canonical (lexicographic) order.  The empty complex has the empty
    clique as its unique maximal clique."""
    return _maximal_cliques(c, c.vertices)


def _maximal_cliques(c: FlagComplex, ids: Iterable[str]) -> list[tuple[str, ...]]:
    """The maximal cliques of ``c`` whose vertices all lie in ``ids``,
    in canonical order because ids are sorted: one preorder walk of
    increasing index sequences over ``ids`` that carries each clique's
    common-neighbour mask and emits the clique when that mask is 0.
    Ids that are not vertices of ``c`` are ignored."""
    vertices, adj = c.vertices, c._adj
    inside = set(ids)
    out: list[tuple[str, ...]] = []

    def extend(clique: tuple[str, ...], common: int, candidates: int) -> None:
        if not common:
            out.append(clique)
        for v in _bits(candidates):
            extend(clique + (vertices[v],), common & adj[v],
                   candidates & adj[v] & ~((2 << v) - 1))

    extend((), (1 << c.n_vertices) - 1,
           sum(1 << i for i, v in enumerate(vertices) if v in inside))
    return out


def _clique_levels(c: FlagComplex, top: int, within: Optional[int] = None) -> list[list[int]]:
    """The cliques with at most ``top`` vertices, all inside the vertex
    mask ``within`` (all vertices when omitted), from one preorder walk
    of increasing index sequences: ``levels[k]`` lists the k-cliques as
    vertex bitmasks, in canonical order because ids are sorted (ascending
    bits are the sorted id tuple).  Levels stop at the clique number, so
    there are at most ``top + 1`` of them.  The cliques inside a mask are
    those of the induced subcomplex, with the ambient's bits."""
    levels: list[list[int]] = [[0]]
    adj = c._adj

    def extend(prefix: int, size: int, candidates: int) -> None:
        if size == len(levels):
            levels.append([])
        level = levels[size]
        while candidates:
            low = candidates & -candidates
            candidates ^= low  # what is left lies above ``low``
            clique = prefix | low
            level.append(clique)
            if size < top:
                common = candidates & adj[low.bit_length() - 1]
                if common:
                    extend(clique, size + 1, common)

    start = (1 << c.n_vertices) - 1 if within is None else within
    if top and start:
        extend(0, 1, start)
    del extend  # it refers to itself: unbound, the lists are freed with the caller's
    return levels


def cliques_of_size(c: FlagComplex, k: int) -> list[tuple[str, ...]]:
    """All cliques with exactly k vertices, as sorted id tuples in
    canonical order.  k = 0 yields the empty simplex."""
    if k < 0:
        raise ValueError("negative clique size")
    levels = _clique_levels(c, k)
    return [c._ids(m) for m in levels[k]] if k < len(levels) else []


class FVector:
    """Simplex counts by dimension plus the Euler characteristic."""

    __slots__ = ("counts", "euler")

    def __init__(self, counts: Sequence[int]):
        self.counts: tuple[int, ...] = tuple(counts)
        self.euler: int = sum((-1) ** k * f for k, f in enumerate(self.counts))

    def __eq__(self, other) -> bool:
        if isinstance(other, FVector):
            return self.counts == other.counts
        try:
            return self.counts == tuple(other)
        except TypeError:  # not iterable, as None or an int
            return NotImplemented

    def __iter__(self):
        return iter(self.counts)

    def __repr__(self) -> str:
        return "FVector(%r, euler=%d)" % (self.counts, self.euler)


def f_vector(c: FlagComplex, max_dim: Optional[int] = None) -> FVector:
    """Count simplices per dimension, up to ``max_dim`` (or to the full
    dimension of the complex when omitted)."""
    if max_dim is not None and max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    counts = [len(level) for level in _clique_levels(
        c, c.n_vertices if max_dim is None else max_dim + 1)[1:]]
    if max_dim is None:
        return FVector(counts or [0])
    return FVector(counts + [0] * (max_dim + 1 - len(counts)))


def mask_components(adj: Sequence[int], within: Optional[int] = None) -> list[int]:
    """Connected components of the graph with symmetric bitmask
    adjacency ``adj`` (set self bits are ignored), as vertex masks in
    order of their lowest vertex.

    With a vertex mask ``within`` (all vertices when omitted), they are
    the components of the subgraph induced on it, with the ambient's
    bits: the walk visits only the vertices of ``within`` and follows
    only the edges between them, as the clique walk inside a mask does."""
    rest = (1 << len(adj)) - 1 if within is None else within  # not yet reached
    comps = []
    while rest:
        comp = todo = rest & -rest
        rest ^= comp
        while todo:
            new = adj[(todo & -todo).bit_length() - 1] & rest
            rest ^= new
            todo = (todo & (todo - 1)) | new
            comp |= new
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
