"""Backtracking search over flag complexes.

Embeddings here are injective simplicial maps: adjacent vertices must map
to adjacent vertices, but non-adjacency need not be reflected.
Automorphisms preserve and reflect adjacency.  Locally injective maps are
simplicial maps injective on every closed star, which for graphs is the
same as being injective on every pair of vertices at distance at most 2.

One engine, ``_placements``, serves all three.  It places source
vertices in breadth-first order; a vertex's candidates are its degree
feasibility mask, cut down by the adjacency masks of the images of its
placed neighbors and by the images that its injectivity scope forbids
(all placed vertices for embeddings and automorphisms, placed vertices
at distance 1 or 2 for locally injective maps).  Given the orbit minima
of pointwise stabilisers in a group of target automorphisms, it emits
one placement per orbit of that group (``verify_rigidity`` uses this).

Automorphisms need no check that non-adjacency is reflected: an
adjacency-preserving bijection of a complex onto itself maps its E
edges injectively into the same E edges, so onto them, and no non-edge
can map to an edge.

Degree feasibility is sound for every search, locally injective maps
included: such a map f sends N(v) injectively into N(f(v)), so
deg f(v) >= deg v, and the neighbors of f(v) hit by N(v) dominate the
neighbors of v degree by degree, so the sorted neighbor degrees of f(v)
dominate those of v.

Automorphism groups are built as a stabiliser chain (Sims 1970; Seress,
*Permutation Group Algorithms*, 2003): along a base b_1, b_2, ... taken
in search order, level i holds one automorphism fixing b_1..b_{i-1} for
each point of the orbit of b_i, each found by one first-hit search of
the same engine (McKay & Piperno 2014).  Candidate images are cut down
by adjacency to the fixed base points, which automorphisms reflect.

All searches are deterministic: candidates are tried in canonical
(lexicographic id) order and results are emitted in canonical order.
"""

from __future__ import annotations

from collections import deque
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .flagcomplex import FlagComplex, _bits, _link_mask, has_cycle


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
    vertex j, judged by degree and sorted neighbor-degree domination.

    Target vertices are grouped by profile (degree and sorted neighbor
    degrees), so the domination test runs once per source profile and
    distinct target profile."""
    def profiles(c: FlagComplex) -> list[tuple[int, ...]]:
        deg = [c._adj[i].bit_count() for i in range(c.n_vertices)]
        return [(d,) + tuple(sorted((deg[k] for k in _bits(c._adj[i])), reverse=True))
                for i, d in enumerate(deg)]

    targets: dict[tuple[int, ...], int] = {}
    for j, prof in enumerate(profiles(dst)):
        targets[prof] = targets.get(prof, 0) | 1 << j
    # t dominates prof when it is at least as large entry by entry; the
    # first entries compare degrees, so t is then at least as long
    memo: dict[tuple[int, ...], int] = {}
    feas = []
    for prof in profiles(src):
        m = memo.get(prof)
        if m is None:
            m = memo[prof] = sum(mask for t, mask in targets.items()
                                 if all(a <= b for a, b in zip(prof, t)))
        feas.append(m)
    return feas


def _placements(src: FlagComplex, dst: FlagComplex,
                scope: Optional[Sequence[int]] = None,
                masks: Optional[Sequence[int]] = None,
                minima: Optional[Callable[[tuple[int, ...], int], Optional[int]]] = None,
                ) -> Iterator[tuple[int, ...]]:
    """Every placement of src on dst that sends edges to edges, depth
    first along ``_search_order`` with candidates in ascending order.

    A placement is an index tuple: entry i is the image of source vertex
    i.  With ``scope`` None placements are injective; otherwise vertex v
    must differ in image from every vertex of the mask ``scope[v]``.
    With ``masks`` given, source vertex v may only map into the target
    vertices of ``masks[v]``; the masks then replace ``_degree_feasible``,
    so a caller restricting the search starts from it once and ANDs its
    restrictions in.

    With ``minima`` given, only one placement per orbit of a group G of
    automorphisms of dst is emitted.  ``minima(images, cand)`` is called
    with the images of the positions placed so far, in search order, and
    the candidate mask of the next position; it returns the candidates
    that are least in their orbit under the pointwise stabiliser in G of
    ``images``, or None when that stabiliser is trivial, after which the
    branch is searched in full.  Every G-orbit of placements then has
    exactly one member emitted, the one whose image at each position is
    the least in its orbit under the stabiliser of the earlier images
    (McKay 1998), provided the constraints are G-invariant: ``masks``
    (degree masks are), adjacency and ``scope`` are, and so is any
    filter the caller applies to the output that post-composing with G
    preserves.  If p and g∘p are both emitted, g fixes every image of p,
    so g∘p = p.
    """
    n = src.n_vertices
    if n == 0:
        yield ()
        return
    order = _search_order(src)
    feas = _degree_feasible(src, dst) if masks is None else masks
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
    # fixed[pos]: the images of the positions before pos while their
    # stabiliser is nontrivial, else None
    fixed: list[Optional[tuple[int, ...]]] = [None] * n
    if minima is not None:
        fixed[0] = ()

    def candidates(pos: int) -> int:
        cand = feas[order[pos]]
        for u in nbrs[pos]:
            cand &= adj_t[placed[u]]
        if scope is None:
            cand &= ~used[pos]
        else:
            for u in scoped[pos]:
                cand &= ~(1 << placed[u])
        if fixed[pos] is not None and cand:
            least = minima(fixed[pos], cand)
            if least is None:
                fixed[pos] = None
            else:
                cand = least
        return cand

    pos = 0
    cands[0] = candidates(0)
    while pos >= 0:
        cand = cands[pos]
        if not cand:
            pos -= 1
            continue
        low = cand & -cand
        cands[pos] = cand ^ low
        image = placed[order[pos]] = low.bit_length() - 1
        if pos == n - 1:
            yield tuple(placed)
        else:
            pos += 1
            used[pos] = used[pos - 1] | low
            prefix = fixed[pos - 1]
            fixed[pos] = None if prefix is None else prefix + (image,)
            cands[pos] = candidates(pos)


def _to_map(src: FlagComplex, dst: FlagComplex, placement: Sequence[int]) -> VertexMap:
    images = map(dst.vertices.__getitem__, placement)
    return VertexMap(src, dst, dict(zip(src.vertices, images)))


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
    if not (m.is_injective() and m.is_simplicial()):
        raise AssertionError("the search found a map that is not an embedding")
    return m


def _encoding(n: int) -> type:
    """How an element of the automorphism group of an n-vertex complex
    is held.  Up to 256 vertices it is ``bytes``: a 256-byte row, the
    images of the n vertices followed by the identity on n..255, so a
    row is a ``bytes.translate`` table and g∘p is ``p.translate(g)``.
    Above 256 vertices, where an index does not fit a byte, it is an
    index tuple.  Rows share their padding, so they sort, compare and
    hash as the index tuples do."""
    return bytes if n <= 256 else tuple


def _after(p: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """g ↦ g∘p: apply p, then g.  p is ``bytes`` or an index tuple, as
    ``_encoding`` chose; it may be shorter than g (a map of a
    subcomplex), and g∘p then has p's length and encoding."""
    if isinstance(p, bytes):
        return p.translate
    if len(p) > 1:
        return itemgetter(*p)
    # itemgetter returns a bare item for one index and needs at least one
    if p:
        i = p[0]
        return lambda g: (g[i],)
    return lambda g: ()


def _fix(c: FlagComplex, masks: Sequence[int], v: int, t: int) -> list[int]:
    """``masks`` cut down to automorphisms sending v to t: v maps to t
    alone, and every other vertex only to vertices whose adjacency to t
    matches its own adjacency to v."""
    row = c._adj[t]
    off = ~(row | 1 << t)
    out = [m & (row if c._adj[u] >> v & 1 else off) for u, m in enumerate(masks)]
    out[v] = 1 << t
    return out


def _stabiliser_chain(c: FlagComplex) -> tuple[list[list[tuple[int, ...]]], int]:
    """The transversals of a stabiliser chain of Aut(c), and the number
    of first-hit searches that found them.

    The base b_1, b_2, ... is ``_search_order``.  Level i's transversal
    holds, for each point t of the orbit of b_i under the pointwise
    stabiliser of b_1..b_{i-1}, one element of that stabiliser sending
    b_i to t, the identity first.  Levels whose only candidate image is
    b_i itself are left out.  Levels are solved deepest first, so the
    generators found below close orbits above without a search; every
    candidate left over gets one search, which finds an element or
    proves the candidate outside the orbit.
    """
    masks = _degree_feasible(c, c)
    levels = []
    for b in _search_order(c):
        if masks[b] != 1 << b:
            levels.append((b, masks))
        masks = _fix(c, masks, b, b)
    identity = tuple(range(c.n_vertices))
    gens: list[tuple[int, ...]] = []
    chain = []
    searches = 0
    for b, masks in reversed(levels):
        orbit = {b: identity}
        for t in _bits(masks[b]):
            if t in orbit:
                continue
            searches += 1
            g = next(_placements(c, c, None, _fix(c, masks, b, t)), None)
            if g is None:
                continue
            gens.append(g)
            queue = list(orbit)
            while queue:
                x = queue.pop()
                for h in gens:
                    y = h[x]
                    if y not in orbit:
                        orbit[y] = _after(orbit[x])(h)
                        queue.append(y)
        if len(orbit) > 1:
            chain.append(list(orbit.values()))
    chain.reverse()
    return chain, searches


def _chain_elements(n: int, chain: list[list[tuple[int, ...]]]) -> list[Sequence[int]]:
    """Every product u_1∘u_2∘...∘u_k of one element per transversal,
    that is every automorphism of an n-vertex complex once, encoded as
    ``_encoding(n)`` says and sorted.  Vertex ids are sorted, so index
    order is the canonical order.  The padding of a row is fixed by
    every product, so it stays the identity."""
    encode = _encoding(n)
    identity = encode(range(256 if encode is bytes else n))
    tail = identity[n:]
    elements = [identity]
    for transversal in reversed(chain):
        us = [encode(u) + tail for u in transversal]
        elements = [g for p in elements for g in map(_after(p), us)]
    elements.sort()
    return elements


def _greedy_generators(elements: list[Sequence[int]]) -> list[Sequence[int]]:
    """Walking the sorted elements, each one outside the subgroup
    generated so far, until that subgroup is the whole group.

    Adding g to the subgroup H closes it incrementally: the coset g∘H
    lies outside H, and a breadth-first search from it under all
    generators reaches the rest of the new subgroup.  The walk stops as
    soon as the closure holds more than half of the elements, since no
    proper subgroup does.
    """
    half = len(elements) // 2
    gens: list[Sequence[int]] = []
    closure = {elements[0]}  # the identity sorts first
    for p in elements:
        if len(closure) > half:
            break
        if p in closure:
            continue
        gens.append(p)
        queue = deque(_after(h)(p) for h in closure)
        closure.update(queue)
        while queue and len(closure) <= half:
            for b in map(_after(queue.popleft()), gens):
                if b not in closure:
                    closure.add(b)
                    queue.append(b)
    return gens


def enumerate_automorphisms(c: FlagComplex) -> list[VertexMap]:
    """All automorphisms, in canonical order."""
    n = c.n_vertices
    return [_to_map(c, c, g[:n]) for g in automorphism_group(c)._elements()]


class AutomorphismGroup:
    """The automorphism group of a finite flag complex, held as the
    transversals of a stabiliser chain.

    ``order`` is the product of the orbit lengths.  The elements are
    listed from the chain in canonical order on first need, each encoded
    as ``_encoding`` says (``bytes.translate`` rows up to 256 vertices,
    index tuples above), and the list is kept when the order is at most
    ``ELEMENT_CAP``; the cap is read when the list is asked for.  That
    one list serves ``verify_rigidity``, the generators and
    ``enumerate_automorphisms``.  Generators are chosen greedily in
    canonical element order, so they are deterministic, and are built
    on first access.
    """

    ELEMENT_CAP = 10_000

    __slots__ = ("complex", "order", "_chain", "_kept", "_generators")

    def __init__(self, complex_: FlagComplex, chain: list[list[tuple[int, ...]]]):
        self.complex = complex_
        self.order = prod(map(len, chain))
        self._chain = chain
        self._kept: Optional[list[Sequence[int]]] = None
        self._generators: Optional[list[VertexMap]] = None

    def _elements(self) -> list[Sequence[int]]:
        """Every element in canonical order (see ``_chain_elements``),
        kept after the first call when the order is at most
        ``ELEMENT_CAP``."""
        if self._kept is not None:
            return self._kept
        elements = _chain_elements(self.complex.n_vertices, self._chain)
        if self.order <= self.ELEMENT_CAP:
            self._kept = elements
        return elements

    @property
    def generators(self) -> list[VertexMap]:
        if self._generators is None:
            c = self.complex
            n = c.n_vertices
            self._generators = [_to_map(c, c, g[:n])
                                for g in _greedy_generators(self._elements())]
        return self._generators


def automorphism_group(c: FlagComplex) -> AutomorphismGroup:
    """The automorphism group as a stabiliser chain.  A complex is
    immutable, so the group is computed on the first call for ``c``,
    kept on it and returned by every later call; callers share it and
    its lists, and must not modify them."""
    if c._aut is None:
        c._aut = AutomorphismGroup(c, _stabiliser_chain(c)[0])
    return c._aut


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
        minima: Optional[Callable[[tuple[int, ...], int], Optional[int]]] = None,
) -> Iterator[tuple[int, ...]]:
    """Placements of X on target injective on closed stars, one per
    orbit when ``minima`` is given (see ``_placements``).  With
    ``inside`` given (cliques of X as vertex sequences), only placements
    carrying each of them onto a maximal clique of target are kept."""
    placements = _placements(X, target, _dist2_masks(X), None, minima)
    if inside is None:
        return placements
    # a placement carries a clique onto a clique of the same size, which
    # is maximal when no target vertex is adjacent to all of it
    inside = [tuple(q) for q in inside]
    if not all(map(X.is_clique, inside)):
        raise ValueError("not a clique of the source")
    ids = target.vertices
    cliques = [tuple(map(X.index_of, q)) for q in inside]
    return (p for p in placements
            if not any(_link_mask(target, [ids[p[i]] for i in q]) for q in cliques))


def enumerate_locally_injective_maps(
        X: FlagComplex, target: FlagComplex,
        require_maximal: bool = False,
        ambient_maximal_cliques: Optional[Iterable[Sequence[str]]] = None,
) -> list[VertexMap]:
    """All simplicial maps X -> target that are injective on closed
    stars, in canonical order.

    When ``require_maximal`` is set, the caller supplies the maximal
    sphere systems of the ambient complex that lie inside X (cliques of
    X, as vertex sequences); only maps carrying each of them onto a
    maximal clique of the target are kept.
    """
    if require_maximal and ambient_maximal_cliques is None:
        raise ValueError("require_maximal needs ambient_maximal_cliques")
    placements = _locally_injective_placements(
        X, target, ambient_maximal_cliques if require_maximal else None)
    maps = [_to_map(X, target, p) for p in placements]
    maps.sort(key=VertexMap.key)
    return maps
