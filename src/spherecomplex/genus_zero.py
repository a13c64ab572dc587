"""The partition model of sphere complexes in genus zero.

A sphere in the s-holed ball model is determined by the unordered
2-block partition of the boundary labels {1..s} that it induces, with
both blocks of size at least 2.  Two distinct spheres can be realized
disjointly exactly when their partitions are nested: one block of one is
contained in one block of the other.

The canonical representative of a partition is its block containing
label 1; vertex ids read ``p:1,2|s=6``.  The module also provides the
caterpillar model of the rank-one two-boundary sphere complex (an
infinite tree, represented by finite windows), the boundary labels of
the genus-zero complement of a maximal nonseparating sphere system with
their good-pair census, and a catalog of named reference complexes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .flagcomplex import FlagComplex, _bits, complex_id, flag_from_adjacency


class _Signature(NamedTuple):
    n: int
    s: int


class ManifoldSignature(_Signature):
    """Rank and boundary count (n, s) of a doubled handlebody, ordered
    as the pair (n, s).

    Pants decompositions have 3n + s - 3 spheres when 3n + s >= 4;
    below that there are no essential spheres (a pair of pants contains
    none, and the once-holed model has a single sphere).
    """

    __slots__ = ()

    def __new__(cls, n: int, s: int):
        if n < 0 or s < 0:
            raise ValueError("signature entries must be nonnegative")
        return super().__new__(cls, n, s)

    @classmethod
    def _make(cls, iterable) -> "ManifoldSignature":
        # so that _replace validates too
        return cls(*iterable)

    @property
    def pants_size(self) -> int:
        return 3 * self.n + self.s - 3

    def as_pair(self) -> tuple[int, int]:
        return (self.n, self.s)

    def __str__(self) -> str:
        return "(%d,%d)" % (self.n, self.s)


class SpherePartition:
    """An essential sphere in the genus-zero model: a 2-block partition
    of {1..s} with both blocks of size >= 2, stored by the block that
    contains label 1."""

    __slots__ = ("s", "block")

    def __init__(self, s: int, labels: Iterable[int]):
        block = frozenset(int(x) for x in labels)
        if not all(1 <= x <= s for x in block):
            raise ValueError("labels outside 1..%d: %r" % (s, sorted(block)))
        if 1 not in block:
            block = frozenset(range(1, s + 1)) - block
        if not (2 <= len(block) <= s - 2):
            raise ValueError("block sizes must be >= 2 on both sides")
        self.s = s
        self.block = block

    @property
    def other_block(self) -> frozenset[int]:
        return frozenset(range(1, self.s + 1)) - self.block

    def vertex_id(self) -> str:
        return "p:%s|s=%d" % (",".join(str(x) for x in sorted(self.block)), self.s)

    @classmethod
    def from_vertex_id(cls, vid: str) -> "SpherePartition":
        """The sphere whose ``vertex_id`` is ``vid``; no other spelling
        of it is accepted."""
        body, sep, size = vid.partition("|s=")
        labels = body[2:].split(",")
        # vertex_id writes the block holding label 1, so no other block
        # is complemented, which would take time and memory linear in s
        if body[:2] == "p:" and sep and labels[0] == "1" and size.isdecimal() \
                and all(map(str.isdecimal, labels)):
            try:
                p = cls(int(size), [int(x) for x in labels])
            except ValueError:  # more digits than int() reads, or no sphere of s
                raise ValueError("not a partition vertex id: %r" % (vid,)) from None
            if p.vertex_id() == vid:
                return p
        raise ValueError("not a partition vertex id: %r" % (vid,))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpherePartition):
            return NotImplemented
        return self.s == other.s and self.block == other.block

    def __hash__(self) -> int:
        return hash((self.s, self.block))

    def __repr__(self) -> str:
        return "SpherePartition(s=%d, block=%r)" % (self.s, sorted(self.block))


def spheres_disjoint(p: SpherePartition, q: SpherePartition) -> bool:
    """Whether two distinct spheres can be realized disjointly: their
    partitions must be nested.

    With A, B the canonical blocks (both contain label 1, so they always
    meet), nestedness reduces to A <= B, B <= A, or A union B = {1..s}.
    """
    if p.s != q.s:
        raise ValueError("mismatched boundary counts: %d vs %d" % (p.s, q.s))
    if p == q:
        raise ValueError("disjointness is undefined for equal spheres; caller filters")
    a, b = p.block, q.block
    return a <= b or b <= a or len(a | b) == p.s


def all_spheres(s: int) -> list[SpherePartition]:
    """Every sphere of the genus-zero model, canonically ordered by
    vertex id.  Count: 2^(s-1) - s - 1."""
    rest = range(2, s + 1)
    out = []
    for k in range(1, s - 2):
        for extra in combinations(rest, k):
            out.append(SpherePartition(s, (1,) + extra))
    out.sort(key=lambda sp: sp.vertex_id())
    return out


def _clusters(c: FlagComplex) -> tuple[int, ...]:
    """The cluster table of a genus-zero complex: ``clusters[i]`` is the
    label mask (bit x for label x) of vertex i's ``other_block``.  Built
    with the complex, or parsed once from the vertex ids, and kept.
    Raises ValueError unless ``c.meta`` names the genus-zero model and
    an integer s, which every caller reads, and each vertex id is one
    that ``SpherePartition.vertex_id`` writes for that s."""
    model, s = c.meta.get("model"), c.meta.get("s")
    if model != "genus-zero" or type(s) is not int:
        # complex_id reads s of a genus-zero complex
        name = complex_id(c) if model != "genus-zero" else "meta %r" % (c.meta,)
        raise ValueError("need a genus-zero complex, not %s" % (name,))
    if c._clusters is None:
        c._clusters = tuple(sum(1 << x for x in p.other_block)
                            for p in _spheres(c.vertices, s))
    return c._clusters


def _spheres(vertex_ids: Sequence[str], s: int) -> list[SpherePartition]:
    """The spheres that ``vertex_ids`` name, each checked to be one whose
    ``vertex_id`` it is and to be a sphere of ``s``; nothing linear in s
    is built, so a reader can check a document's ids for any s."""
    spheres = list(map(SpherePartition.from_vertex_id, vertex_ids))
    for v, p in zip(vertex_ids, spheres):
        if p.s != s:
            raise ValueError("vertex %r is not a sphere of s = %d" % (v, s))
    return spheres


def _laminar_tree(clusters: Sequence[int], s: int):
    """The dual tree of a genus-zero sphere system from its members'
    clusters, in member vertex-id order: pairwise nested or disjoint,
    with the root {1..s} they form a tree whose nodes are the
    complementary regions.  Returns one region (key, labels, children)
    per node, the root (key None) first, then the region inside each
    cluster (key = its position) by descending size and label tuple.
    ``labels`` are the region's own boundary labels, ascending;
    ``children`` the positions of the clusters directly inside it,
    ascending."""
    keys = sorted(range(len(clusters)),
                  key=lambda i: (-clusters[i].bit_count(), tuple(_bits(clusters[i]))))
    children: dict[Optional[int], list[int]] = {key: [] for key in (None, *keys)}
    for n, i in enumerate(keys):
        # the larger clusters holding b form a chain; its last is b's parent
        b = clusters[i]
        children[next((j for j in reversed(keys[:n]) if b & clusters[j] == b), None)].append(i)
    regions = []
    for key in (None, *keys):
        inside = sorted(children[key])
        own = (2 << s) - 2 if key is None else clusters[key]
        own &= ~sum(map(clusters.__getitem__, inside))  # clear the children's labels
        regions.append((key, tuple(_bits(own)), tuple(inside)))
    return regions


def build_genus_zero_complex(s: int) -> FlagComplex:
    """The sphere complex of the s-holed genus-zero model as a flag
    complex.  s = 3 yields the empty complex (a pair of pants contains
    no essential spheres)."""
    if s < 3:
        raise ValueError("need s >= 3")
    spheres = all_spheres(s)
    clusters = [sum(1 << x for x in sp.other_block) for sp in spheres]
    # distinct spheres are disjoint when their clusters are nested or disjoint
    masks = [sum(1 << j for j, b in enumerate(clusters) if a & b in (0, a, b) and a != b)
             for a in clusters]
    c = FlagComplex([sp.vertex_id() for sp in spheres], masks, {"model": "genus-zero", "s": s})
    c._clusters = tuple(clusters)
    return c


def _label_generators(c: FlagComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The boundary-label transposition (1 2) and s-cycle (1 2 ... s)
    acting on a genus-zero complex, as vertex-index permutations: ``g[i]``
    is the index of the image of vertex i.  Together they generate the
    action of all s! label permutations.

    Each is checked to map every adjacency mask onto its image's mask,
    so each is a complex automorphism whatever the partition model says:
    it maps maximal cliques to maximal cliques and flips to flips.
    Raises ValueError for a complex not tagged genus-zero (see
    :func:`_clusters`) and AssertionError when the check fails.
    """
    position = {b: i for i, b in enumerate(_clusters(c))}
    s = c.meta["s"]
    full = (2 << s) - 2
    gens = []
    for relabel in ({1: 2, 2: 1}, {x: x % s + 1 for x in range(1, s + 1)}):
        images = (sum(1 << relabel.get(x, x) for x in _bits(b)) for b in position)
        # an image holding label 1 is the other block of its sphere
        g = tuple(position[m ^ full if m & 2 else m] for m in images)
        for i, m in enumerate(c._adj):
            if c._adj[g[i]] != sum(1 << g[j] for j in _bits(m)):
                raise AssertionError("label permutation is not an automorphism at %s"
                                     % (c.vertices[i],))
        gens.append(g)
    return gens[0], gens[1]


NONSEPARATING = "nonseparating"
SEPARATING = "separating"


class CaterpillarWindow(NamedTuple):
    """A finite window of the caterpillar tree: spine vertices ``z:k``
    (nonseparating type, trivalent in the ideal tree) for -m <= k <= m,
    each carrying one pendant leaf ``w:k`` (separating type, valence 1).

    The two frontier spine vertices are flagged so tests can exclude
    boundary effects: their ideal degree 3 is truncated to 2.
    """

    complex: FlagComplex
    types: Mapping[str, str]
    frontier: frozenset[str]
    m: int

    def interior_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.complex.vertices if v not in self.frontier)

    def spine_index(self, vid: str) -> int:
        kind, k = vid.split(":", 1)
        if kind not in ("z", "w"):
            raise ValueError("not a caterpillar vertex id: %r" % (vid,))
        return int(k)

    def is_spine(self, vid: str) -> bool:
        return self.types[vid] == NONSEPARATING


def build_caterpillar_window(m: int) -> CaterpillarWindow:
    """Build the window with spine z:-m .. z:m."""
    if m < 0:
        raise ValueError("need m >= 0")
    spine = ["z:%d" % k for k in range(-m, m + 1)]
    leaves = ["w:%d" % k for k in range(-m, m + 1)]
    pairs = [("z:%d" % k, "z:%d" % (k + 1)) for k in range(-m, m)]
    pairs += [("z:%d" % k, "w:%d" % k) for k in range(-m, m + 1)]
    c = flag_from_adjacency(spine + leaves, pairs, meta={"model": "caterpillar", "m": m})
    types = {v: NONSEPARATING for v in spine}
    types.update({v: SEPARATING for v in leaves})
    frontier = frozenset({"z:%d" % (-m), "z:%d" % m})
    return CaterpillarWindow(c, types, frontier, m)


class CutLabeling(NamedTuple):
    """Boundary labels of the genus-zero complement of a maximal
    nonseparating sphere system: n pairs A_i+/A_i- from the cut spheres
    plus the s original boundary labels, with the source record delta.
    """

    n: int
    s: int
    labels: tuple[str, ...]
    delta: dict[str, tuple[str, int]]

    @classmethod
    def from_signature(cls, n: int, s: int) -> "CutLabeling":
        if n < 1:
            raise ValueError("cut labelings need n >= 1")
        if s < 0:
            raise ValueError("s must be >= 0")
        labels = []
        delta: dict[str, tuple[str, int]] = {}
        for i in range(1, n + 1):
            for sign in "+-":
                lab = "A%d%s" % (i, sign)
                labels.append(lab)
                delta[lab] = ("cut-sphere", i)
        for j in range(1, s + 1):
            lab = "B%d" % j
            labels.append(lab)
            delta[lab] = ("boundary", j)
        return cls(n, s, tuple(labels), delta)

    def pair_labels(self, i: int) -> tuple[str, str]:
        if not 1 <= i <= self.n:
            raise ValueError("pair index out of range")
        return ("A%d+" % i, "A%d-" % i)


class GoodPairCensus(NamedTuple):
    pair_index: int
    spare_labels: tuple[str, ...]
    good_spheres: tuple[tuple[str, str], ...]
    good_pairs: tuple[tuple[tuple[str, str], tuple[str, str]], ...]
    nonempty: bool
    threshold_met: bool  # 2n + s >= 6


def good_pair_census(cut: CutLabeling, pair_index: int) -> GoodPairCensus:
    """Enumerate good spheres and good pairs for one cut-sphere pair.

    A good sphere for A_i groups one spare label with A_i- and another
    with A_i+, so it is an ordered pair (p, q) of distinct labels drawn
    from the 2n + s - 2 labels other than A_i+/A_i-.  A good pair is two
    good spheres using four distinct labels.  Nonempty exactly when
    2n + s >= 6.
    """
    a_plus, a_minus = cut.pair_labels(pair_index)
    spare = tuple(l for l in cut.labels if l not in (a_plus, a_minus))
    spheres = tuple((p, q) for p in spare for q in spare if p != q)
    pairs = []
    for g1, g2 in combinations(spheres, 2):
        if not set(g1) & set(g2):
            pairs.append((g1, g2))
    nonempty = bool(pairs)
    return GoodPairCensus(pair_index, spare, spheres, tuple(pairs),
                          nonempty, 2 * cut.n + cut.s >= 6)


def _petersen() -> FlagComplex:
    """Kneser construction: vertices are the 2-subsets of {1..5}, named
    ``k:ij``; adjacency is disjointness."""
    subsets = list(combinations(range(1, 6), 2))
    ids = {ss: "k:%d%d" % ss for ss in subsets}
    pairs = [(ids[a], ids[b]) for a in subsets for b in subsets
             if a < b and not set(a) & set(b)]
    return flag_from_adjacency(ids.values(), pairs, meta={"name": "petersen"})


def _k33() -> FlagComplex:
    sides = ["a1", "a2", "a3"], ["b1", "b2", "b3"]
    pairs = [(u, v) for u in sides[0] for v in sides[1]]
    return flag_from_adjacency(sides[0] + sides[1], pairs, meta={"name": "k33"})


_CATALOG = {
    "petersen": _petersen,
    "k33": _k33,
    "k3": lambda: flag_from_adjacency(
        ["t1", "t2", "t3"], [("t1", "t2"), ("t2", "t3"), ("t1", "t3")],
        meta={"name": "k3"}),
    "k13": lambda: flag_from_adjacency(
        ["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")],
        meta={"name": "k13"}),
    "m11": lambda: flag_from_adjacency(["y"], [], meta={"name": "m11"}),
    "m04": lambda: flag_from_adjacency(["a0", "a1", "a2"], [], meta={"name": "m04"}),
}


def catalog(name: str) -> FlagComplex:
    """Named reference complexes.

    petersen: the Petersen graph on 2-subset ids ``k:ij``.
    k33: join of two 3-vertex edgeless complexes (sides a*, b*).
    k3: a triangle.  k13: a 3-star with center ``c``.
    m11: the one-sphere complex (single vertex).
    m04: three pairwise-intersecting spheres (edgeless, a0 a1 a2).
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError("unknown catalog name: %r (have %s)"
                         % (name, ", ".join(sorted(_CATALOG)))) from None
    return builder()


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))
