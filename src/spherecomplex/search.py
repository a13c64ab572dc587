"""Backtracking search over flag complexes.

Embeddings here are injective simplicial maps: adjacent vertices must map
to adjacent vertices, but non-adjacency need not be reflected.
Isomorphisms preserve and reflect adjacency.  Locally injective maps are
simplicial maps injective on every closed star, which for graphs is the
same as being injective on every pair of vertices at distance at most 2.

One engine, ``_placements``, serves all three.  It places source
vertices in breadth-first order; a vertex's candidates are its degree
feasibility mask, cut down by the adjacency masks of the images of its
placed neighbors and by the images that its injectivity scope forbids
(all placed vertices for embeddings and isomorphisms, placed vertices at
distance 1 or 2 for locally injective maps).

Isomorphisms need no check that non-adjacency is reflected: between
complexes with equal vertex and edge counts (``_iso_precheck``), an
adjacency-preserving bijection maps the E source edges injectively into
the E target edges, so onto them, and no non-edge can map to an edge.

Degree feasibility is sound for every search, locally injective maps
included: such a map f sends N(v) injectively into N(f(v)), so
deg f(v) >= deg v, and the neighbors of f(v) hit by N(v) dominate the
neighbors of v degree by degree, so the sorted neighbor degrees of f(v)
dominate those of v.

All searches are deterministic: candidates are tried in canonical
(lexicographic id) order and results are emitted in canonical order.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .flagcomplex import FlagComplex, _bits, f_vector, has_cycle, maximal_cliques


class VertexMap:
    """A total map between the vertex sets of two flag complexes."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: FlagComplex, target: FlagComplex,
                 assignment: Mapping[str, str]):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        missing = set(source.vertices) - set(self.assignment)
        if missing:
            raise ValueError("assignment not total, missing %r" % (sorted(missing)[0],))
        for v, w in self.assignment.items():
            if v not in source:
                raise ValueError("unknown source vertex %r" % (v,))
            if w not in target:
                raise ValueError("unknown target vertex %r" % (w,))

    def __getitem__(self, v: str) -> str:
        return self.assignment[v]

    def is_simplicial(self) -> bool:
        """Images of adjacent vertices are adjacent or equal."""
        for u, v in self.source.edges():
            fu, fv = self.assignment[u], self.assignment[v]
            if fu != fv and not self.target.adjacent(fu, fv):
                return False
        return True

    def is_injective(self) -> bool:
        return len(set(self.assignment.values())) == len(self.assignment)

    def is_locally_injective(self) -> bool:
        """Injective on every closed star of the source."""
        for v in self.source.vertices:
            star = (v,) + self.source.neighbors(v)
            images = [self.assignment[u] for u in star]
            if len(set(images)) != len(images):
                return False
        return True

    def key(self) -> tuple[str, ...]:
        """Canonical sort key: images in source vertex order."""
        return tuple(self.assignment[v] for v in self.source.vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.assignment == other.assignment)

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.assignment.items())),))

    def __repr__(self) -> str:
        return "VertexMap(%d -> %d vertices)" % (
            self.source.n_vertices, self.target.n_vertices)


def _search_order(c: FlagComplex) -> list[int]:
    """Vertex processing order: breadth-first from a highest-degree
    vertex, restarting per component, so each vertex after the first in
    its component has an already-placed neighbor."""
    n = c.n_vertices
    degs = [c._adj[i].bit_count() for i in range(n)]
    seen = [False] * n
    order: list[int] = []
    remaining = sorted(range(n), key=lambda i: (-degs[i], i))
    for start in remaining:
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            i = queue.popleft()
            order.append(i)
            nbrs = sorted(_bits(c._adj[i]), key=lambda j: (-degs[j], j))
            for j in nbrs:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
    return order


def _degree_feasible(src: FlagComplex, dst: FlagComplex) -> list[int]:
    """Candidate masks for a simplicial map injective on closed stars:
    feasible[i] has bit j set when source vertex i may map to target
    vertex j, judged by degree and sorted neighbor-degree domination."""
    ns, nt = src.n_vertices, dst.n_vertices
    sdeg = [src._adj[i].bit_count() for i in range(ns)]
    tdeg = [dst._adj[j].bit_count() for j in range(nt)]
    snbr = [sorted((sdeg[k] for k in _bits(src._adj[i])), reverse=True) for i in range(ns)]
    tnbr = [sorted((tdeg[k] for k in _bits(dst._adj[j])), reverse=True) for j in range(nt)]
    feas = []
    for i in range(ns):
        m = 0
        for j in range(nt):
            if tdeg[j] < sdeg[i]:
                continue
            if any(t < s for s, t in zip(snbr[i], tnbr[j])):
                continue
            m |= 1 << j
        feas.append(m)
    return feas


def _placements(src: FlagComplex, dst: FlagComplex,
                scope: Optional[Sequence[int]] = None,
                first_images: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Every placement of src on dst that sends edges to edges, depth
    first along ``_search_order`` with candidates in ascending order.

    A placement is an index tuple: entry i is the image of source vertex
    i.  With ``scope`` None placements are injective; otherwise vertex v
    must differ in image from every vertex of the mask ``scope[v]``.
    With ``first_images`` set, the first vertex of ``_search_order``
    may only map into that mask.
    """
    n = src.n_vertices
    if n == 0:
        yield ()
        return
    order = _search_order(src)
    feas = _degree_feasible(src, dst)
    adj_t = dst._adj
    # per position: the already-placed neighbors and scope members
    nbrs, scoped = [], []
    done = 0
    for v in order:
        nbrs.append(tuple(_bits(src._adj[v] & done)))
        scoped.append(tuple(_bits(scope[v] & done)) if scope is not None else ())
        done |= 1 << v
    placed = [0] * n
    used = [0] * n    # used[pos]: images taken by positions before pos
    cands = [0] * n

    def candidates(pos: int) -> int:
        cand = feas[order[pos]]
        for u in nbrs[pos]:
            cand &= adj_t[placed[u]]
        if scope is None:
            return cand & ~used[pos]
        for u in scoped[pos]:
            cand &= ~(1 << placed[u])
        return cand

    pos = 0
    cands[0] = candidates(0)
    if first_images is not None:
        cands[0] &= first_images
    while pos >= 0:
        cand = cands[pos]
        if not cand:
            pos -= 1
            continue
        low = cand & -cand
        cands[pos] = cand ^ low
        placed[order[pos]] = low.bit_length() - 1
        if pos == n - 1:
            yield tuple(placed)
        else:
            pos += 1
            used[pos] = used[pos - 1] | low
            cands[pos] = candidates(pos)


def _to_map(src: FlagComplex, dst: FlagComplex, placement: Sequence[int]) -> VertexMap:
    return VertexMap(src, dst, {v: dst.vertices[j]
                                for v, j in zip(src.vertices, placement)})


def search_embedding(src: FlagComplex, dst: FlagComplex,
                     use_acyclicity_shortcut: bool = True) -> Optional[VertexMap]:
    """Find an injective simplicial map src -> dst, or certify absence.

    Absence is certified by exhausting the search tree, except for two
    sound shortcuts: a vertex-count precheck, and (on by default) the
    acyclicity shortcut -- an injective simplicial map carries cycles to
    cycles, so a cyclic source never embeds into an acyclic target.
    """
    if src.n_vertices > dst.n_vertices:
        return None
    if use_acyclicity_shortcut and not has_cycle(dst) and has_cycle(src):
        return None
    placement = next(_placements(src, dst), None)
    if placement is None:
        return None
    m = _to_map(src, dst, placement)
    assert m.is_injective() and m.is_simplicial()
    return m


def _iso_precheck(c1: FlagComplex, c2: FlagComplex) -> bool:
    if c1.n_vertices != c2.n_vertices or c1.n_edges != c2.n_edges:
        return False
    d1 = sorted(c1._adj[i].bit_count() for i in range(c1.n_vertices))
    d2 = sorted(c2._adj[i].bit_count() for i in range(c2.n_vertices))
    if d1 != d2:
        return False
    dim = min(2, max(c1.n_vertices - 1, 0))
    return f_vector(c1, dim) == f_vector(c2, dim)


def search_isomorphism(c1: FlagComplex, c2: FlagComplex) -> Optional[VertexMap]:
    """Find a bijection preserving and reflecting adjacency, or certify
    absence (after a cheap f-vector and degree-sequence precheck)."""
    if not _iso_precheck(c1, c2):
        return None
    placement = next(_placements(c1, c2), None)
    return None if placement is None else _to_map(c1, c2, placement)


def enumerate_automorphisms(c: FlagComplex) -> list[VertexMap]:
    """All automorphisms, in canonical order."""
    maps = [_to_map(c, c, p) for p in _placements(c, c)]
    maps.sort(key=VertexMap.key)
    return maps


class AutomorphismGroup:
    """The automorphism group of a finite flag complex.

    ``elements`` is the full list when the order is at most
    ``ELEMENT_CAP``, else None.  Generators are chosen greedily in
    canonical element order, so they are deterministic.
    """

    ELEMENT_CAP = 10_000

    __slots__ = ("complex", "order", "generators", "elements")

    def __init__(self, complex_: FlagComplex, order: int,
                 generators: list[VertexMap], elements: Optional[list[VertexMap]]):
        self.complex = complex_
        self.order = order
        self.generators = generators
        self.elements = elements


def automorphism_group(c: FlagComplex) -> AutomorphismGroup:
    """Compute the automorphism group by exhaustive backtracking."""
    elements = enumerate_automorphisms(c)
    order = len(elements)
    verts = c.vertices
    perms = [tuple(m.assignment[v] for v in verts) for m in elements]
    perm_set = set(perms)
    identity = tuple(verts)
    index = {v: i for i, v in enumerate(verts)}

    def compose(p: tuple[str, ...], q: tuple[str, ...]) -> tuple[str, ...]:
        # apply q after p
        return tuple(q[index[x]] for x in p)

    def close(gens: list[tuple[str, ...]]) -> set[tuple[str, ...]]:
        closure = {identity}
        queue = [identity]
        while queue:
            a = queue.pop()
            for g in gens:
                b = compose(a, g)
                if b not in closure:
                    closure.add(b)
                    queue.append(b)
        return closure

    generators: list[tuple[str, ...]] = []
    closure = {identity}
    for p in perms:
        if p in closure:
            continue
        generators.append(p)
        closure = close(generators)
        if len(closure) == order:
            break
    assert closure <= perm_set and len(closure) == order
    gen_maps = [VertexMap(c, c, dict(zip(verts, p))) for p in generators]
    kept = elements if order <= AutomorphismGroup.ELEMENT_CAP else None
    return AutomorphismGroup(c, order, gen_maps, kept)


def _dist2_masks(c: FlagComplex) -> list[int]:
    """For each vertex, the mask of other vertices at distance 1 or 2."""
    n = c.n_vertices
    out = []
    for i in range(n):
        m = c._adj[i]
        for j in _bits(c._adj[i]):
            m |= c._adj[j]
        out.append(m & ~(1 << i))
    return out


def _locally_injective_placements(
        X: FlagComplex, target: FlagComplex,
        inside: Optional[Iterable[Sequence[str]]] = None,
        first_images: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Placements of X on target injective on closed stars.  With
    ``inside`` given (cliques of X as vertex sequences), only placements
    carrying each of them onto a maximal clique of target are kept."""
    placements = _placements(X, target, _dist2_masks(X), first_images)
    if inside is None:
        return placements
    target_maximal = {frozenset(map(target.index_of, q)) for q in maximal_cliques(target)}
    cliques = [tuple(map(X.index_of, q)) for q in inside]
    return (p for p in placements
            if all(frozenset(p[i] for i in q) in target_maximal for q in cliques))


def enumerate_locally_injective_maps(
        X: FlagComplex, target: FlagComplex,
        require_maximal: bool = False,
        ambient_maximal_cliques: Optional[Iterable[Sequence[str]]] = None,
) -> list[VertexMap]:
    """All simplicial maps X -> target that are injective on closed
    stars, in canonical order.

    When ``require_maximal`` is set, the caller supplies the maximal
    sphere systems of the ambient complex that lie inside X (as vertex
    sequences); only maps carrying each of them onto a maximal clique of
    the target are kept.
    """
    if require_maximal and ambient_maximal_cliques is None:
        raise ValueError("require_maximal needs ambient_maximal_cliques")
    placements = _locally_injective_placements(
        X, target, ambient_maximal_cliques if require_maximal else None)
    maps = [_to_map(X, target, p) for p in placements]
    maps.sort(key=VertexMap.key)
    return maps
