"""The partition model of sphere complexes in genus zero.

A sphere in the s-holed ball model is determined by the unordered
2-block partition of the boundary labels {1..s} that it induces, with
both blocks of size at least 2.  Two distinct spheres can be realized
disjointly exactly when their partitions are nested: one block of one is
contained in one block of the other.

The canonical representative of a partition is its block containing
label 1; vertex ids read ``p:1,2|s=6``.  The module also provides the
caterpillar model of the rank-one two-boundary sphere complex (an
infinite tree, represented by finite windows) and a catalog of named
reference complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .flagcomplex import FlagComplex, flag_from_adjacency


@dataclass(frozen=True, order=True)
class ManifoldSignature:
    """Rank and boundary count (n, s) of a doubled handlebody.

    Pants decompositions have 3n + s - 3 spheres when 3n + s >= 4;
    below that there are no essential spheres (a pair of pants contains
    none, and the once-holed model has a single sphere).
    """

    n: int
    s: int

    def __post_init__(self):
        if self.n < 0 or self.s < 0:
            raise ValueError("signature entries must be nonnegative")

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
        if not block <= set(range(1, s + 1)):
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
        if not vid.startswith("p:") or "|s=" not in vid:
            raise ValueError("not a partition vertex id: %r" % (vid,))
        body, s_part = vid[2:].split("|s=", 1)
        labels = [int(x) for x in body.split(",") if x]
        return cls(int(s_part), labels)

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


def _innermost_block(block: frozenset[int],
                     blocks: Sequence[frozenset[int]]) -> Optional[int]:
    """Index of the smallest of ``blocks`` strictly containing ``block``,
    or None when none does (the root region).  In a laminar family the
    strictly containing blocks form a chain, so the smallest is unique."""
    best: Optional[int] = None
    for i, b in enumerate(blocks):
        if block < b and (best is None or len(b) < len(blocks[best])):
            best = i
    return best


def _laminar_tree(members: Iterable[str], s: int):
    """The dual tree of a genus-zero sphere system.

    The members' blocks away from label 1 are pairwise nested or
    disjoint; with the root {1..s} they form a tree whose nodes are the
    complementary regions.  Returns (blocks, regions): blocks in member
    vertex-id order, and one region (key, labels, children) per node,
    the root (key None) first, then the region inside each block (key =
    block index) by descending size and label tuple.  ``labels`` are the
    region's own boundary labels, ascending; ``children`` the indices of
    the blocks directly inside it, ascending.
    """
    blocks = [SpherePartition.from_vertex_id(v).other_block for v in sorted(members)]
    keys = [None, *sorted(range(len(blocks)), key=lambda i: (-len(blocks[i]), sorted(blocks[i])))]
    children: dict[Optional[int], list[int]] = {key: [] for key in keys}
    for i, b in enumerate(blocks):
        children[_innermost_block(b, blocks)].append(i)
    regions = []
    for key in keys:
        zone = frozenset(range(1, s + 1)) if key is None else blocks[key]
        labels = zone.difference(*(blocks[ch] for ch in children[key]))
        regions.append((key, tuple(sorted(labels)), tuple(children[key])))
    return blocks, regions


def build_genus_zero_complex(s: int) -> FlagComplex:
    """The sphere complex of the s-holed genus-zero model as a flag
    complex.  s = 3 yields the empty complex (a pair of pants contains
    no essential spheres)."""
    if s < 3:
        raise ValueError("need s >= 3")
    spheres = all_spheres(s)
    ids = [sp.vertex_id() for sp in spheres]
    pairs = []
    for i, p in enumerate(spheres):
        for j in range(i):
            if spheres_disjoint(p, spheres[j]):
                pairs.append((ids[i], ids[j]))
    return flag_from_adjacency(ids, pairs, meta={"model": "genus-zero", "s": s})


NONSEPARATING = "nonseparating"
SEPARATING = "separating"


@dataclass(frozen=True)
class CaterpillarWindow:
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
