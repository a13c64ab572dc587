"""Integer simplicial homology of finite flag complexes.

Simplices are clique bitmasks, listed in canonical order by one clique
walk, and the orientation is fixed by sorted-vertex order: the faces of
a simplex m are m ^ bit for its bits in ascending vertex order, with
signs alternating from +1, so the face omitting the vertex in position j
enters with sign (-1)^j.  Each boundary map is stored sparsely, as the
k + 1 signed row indices of each column, and goes from the masks
straight into the Smith normal form; id tuples are built only for the
public ``ChainBoundary``.

Ranks and torsion come from an exact Smith normal form over unbounded
Python integers, computed in two stages (Dumas, Saunders & Villard,
"On efficient sparse integer matrix Smith normal form computations",
2001).  First every +-1 pivot is cleared by sparse unimodular column
operations, choosing the pivot whose row has the fewest entries so that
fill-in stays small; each contributes an invariant factor 1.  Whatever
has no unit entry left is a small residual block, reduced densely: each
round pivots on an entry of least absolute value and reduces its row and
column by floor division until the pivot stands alone, and pairwise
(gcd, lcm) swaps then order the diagonal into a divisor chain.  Every
remainder is smaller than the pivot, so the least entry shrinks each
round, and no step adds rows back to restore divisibility, which can
make coefficients explode (Kannan & Bachem, 1979).

Two kinds of map skip the elimination.  A map with no columns has rank 0
and no invariant factors.  When the clique walk lists no triangle (the
complex is a graph, or max_dim = 0 leaves d_1 the only map), d_1 has
rank V - c for V vertices and c components, and no invariant factor
above 1: the incidence matrix of a graph is totally unimodular, and a
spanning forest pairs every vertex but one per component with an edge
(the collapse of discrete Morse theory, Forman 1998).  d_1 of a complex
with triangles is still reduced.

Every flag complex is the join of the subcomplexes induced on the
components of its complement graph; one that is not a join has a single
such component and is a join of one factor.  Links of sphere systems
are joins of the complexes of their complementary pieces.
``betti_numbers`` reduces each factor on the ambient's own masks: the
clique walk (``_clique_levels``) and the d_1 rule (``mask_components``)
both take the factor's vertex mask as their ``within`` argument and stay
inside it, so no factor complex is built.  It folds them by the join
formula (Milnor, "Construction of universal bundles II", 1956):
H~_{n+1}(A*B) is the sum of H~_i(A) (x) H~_j(B) over i + j = n and of
Tor(H~_i(A), H~_j(B)) over i + j = n - 1.  Shifted by one degree, so
that entry k stands for degree k - 1, the simplex counts with f_{-1} = 1
and the reduced free ranks with H~_{-1} = Z of the empty complex both
join by one plain convolution: entry k of the join is the sum of
a_p b_q over p + q = k.  Torsion is kept as lists of cyclic orders for
the degrees that carry any, and comes only from copies of torsion (x)
free, from the gcds of torsion pairs and from their Tor one degree up.
The boundary ranks follow from the counts and Betti numbers.
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import NamedTuple

from .flagcomplex import FlagComplex, _clique_levels, mask_components


class ChainBoundary(NamedTuple):
    """The boundary map from k-chains to (k-1)-chains.

    rows index the (k-1)-simplex basis, cols the k-simplex basis, both
    in canonical order; columns[j] lists the nonzero entries of column j
    as (row index, sign) pairs with sign in {-1, +1}.
    """

    dim: int
    rows: tuple[tuple[str, ...], ...]
    cols: tuple[tuple[str, ...], ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]


def boundary_matrix(c: FlagComplex, k: int) -> ChainBoundary:
    """The single boundary map in dimension k >= 1."""
    if k < 1:
        raise ValueError("boundary matrices start at dimension 1")
    return _chain_boundary(c, _clique_levels(c, k + 1), k)


def boundary_matrices(c: FlagComplex, max_dim: int) -> list[ChainBoundary]:
    """Boundary maps for dimensions 1..max_dim, from one clique pass."""
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    levels = _clique_levels(c, max_dim + 1)
    return [_chain_boundary(c, levels, k) for k in range(1, max_dim + 1)]


def _chain_boundary(c: FlagComplex, levels: list[list[int]], k: int) -> ChainBoundary:
    """d_k from one clique pass, with its bases as sorted id tuples."""
    rows, cols = _level(levels, k), _level(levels, k + 1)
    return ChainBoundary(k, tuple(map(c._ids, rows)), tuple(map(c._ids, cols)),
                         tuple(tuple(col.items()) for col in _columns(rows, cols)))


def _level(levels: list[list[int]], k: int) -> list[int]:
    """The k-cliques of a clique pass, empty past the clique number."""
    return levels[k] if k < len(levels) else []


def _columns(rows: list[int], cols: list[int]) -> list[dict[int, int]]:
    """The boundary map from the simplices ``cols`` to ``rows``, both
    clique bitmasks in canonical order: column j maps the row of each
    face m ^ bit of m = cols[j] to its sign, the bits taken in ascending
    vertex order with signs alternating from +1, so the face omitting
    the vertex in position i has sign (-1)^i."""
    index = {m: i for i, m in enumerate(rows)}
    out = []
    for m in cols:
        col = {}
        sign, rest = 1, m
        while rest:
            bit = rest & -rest
            rest ^= bit
            col[index[m ^ bit]] = sign
            sign = -sign
        out.append(col)
    return out


class SNFResult(NamedTuple):
    rank: int
    factors: tuple[int, ...]


def smith_normal_form(matrix) -> SNFResult:
    """Exact Smith normal form over the integers.

    Returns the rank and the invariant factors (positive, each dividing
    the next).  Accepts a ChainBoundary or any nested row sequence of
    integers (lists, tuples, an integer ndarray), and raises ValueError
    on rows that are not sequences of equal length or on an entry that
    is not an integer (None, a fraction, an infinity or NaN); all
    arithmetic is unbounded-precision.  Unit pivots are cleared sparsely
    first; only the block left without a unit entry is eliminated
    densely.
    """
    if isinstance(matrix, ChainBoundary):
        return _snf([dict(col) for col in matrix.columns], len(matrix.rows))
    try:
        rows = [list(row) for row in matrix]
    except TypeError:  # a row that is not a sequence, as in a flat list
        raise ValueError("matrix rows differ in length") from None
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows differ in length")
    try:
        exact = all(int(x) == x for row in rows for x in row)
    except (TypeError, ValueError, OverflowError):  # None, NaN, an infinity
        exact = False
    if not exact:
        raise ValueError("matrix entries must be integers")
    n_rows = len(rows)
    cols: list[dict[int, int]] = [{} for _ in range(len(rows[0]) if n_rows else 0)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = int(x)
    return _snf(cols, n_rows)


def _snf(cols: list[dict[int, int]], n_rows: int) -> SNFResult:
    """The Smith normal form of the sparse matrix with ``n_rows`` rows
    and columns ``cols`` ({row index: nonzero entry}), which it clears:
    unit pivots sparsely, then the residual block densely."""
    units = _clear_unit_pivots(cols, n_rows)
    live = [col for col in cols if col]
    live_rows = sorted({i for col in live for i in col})
    residual = _dense_snf([[col.get(i, 0) for col in live] for i in live_rows])
    return SNFResult(units + residual.rank, (1,) * units + residual.factors)


def _clear_unit_pivots(cols: list[dict[int, int]], n_rows: int) -> int:
    """Clear +-1 pivots in place; return how many were cleared.

    A pivot (r, c) is cleared by subtracting multiples of column c from
    every other column meeting row r, then dropping row r and column c
    (the row operations that would clear column c touch nothing else).
    The next pivot lies in the row with the fewest entries, the lowest
    row index among equals, and in the lowest column of that row with a
    unit entry.  Cleared columns are left empty.
    """
    in_row: list[set[int]] = [set() for _ in range(n_rows)]
    for j, col in enumerate(cols):
        for i in col:
            in_row[i].add(j)
    heap = [(len(js), i) for i, js in enumerate(in_row) if js]
    heapq.heapify(heap)
    units = 0
    while heap:
        size, r = heapq.heappop(heap)
        row = in_row[r]
        if size != len(row):
            continue  # stale: the row changed and was pushed again
        c = min((j for j in row if cols[j][r] in (1, -1)), default=None)
        if c is None:
            continue  # pushed again if a later pivot changes this row
        pivot, cols[c] = cols[c], {}
        sign = pivot.pop(r)
        row.discard(c)
        for i in pivot:
            in_row[i].discard(c)
        plus = list(pivot.items())
        minus = [(i, -x) for i, x in plus]
        for j in row:
            col = cols[j]
            f = col.pop(r) * sign
            delta = minus if f == 1 else plus if f == -1 else [(i, -f * x) for i, x in plus]
            for i, d in delta:
                y = col.get(i)
                if y is None:
                    col[i] = d
                    in_row[i].add(j)
                elif y + d:
                    col[i] = y + d
                else:
                    del col[i]
                    in_row[i].discard(j)
        row.clear()
        units += 1
        for i in pivot:
            if in_row[i]:
                heapq.heappush(heap, (len(in_row[i]), i))
    return units


def _dense_snf(a: list[list[int]]) -> SNFResult:
    """Smith normal form of a dense integer matrix, modified in place.

    Each round pivots on a nonzero entry of least absolute value and
    reduces its column by row operations, then its row by column
    operations, with floor-division quotients.  Every remainder left in
    that row and column is smaller than the pivot, so the least entry
    shrinks until the pivot stands alone; then its absolute value is
    recorded and its row and column deleted.  Pairwise (gcd, lcm) swaps
    turn the recorded diagonal into a divisor chain with the same
    invariant factors.
    """
    diag: list[int] = []
    while any(any(row) for row in a):
        _, r, c = min((abs(x), i, j) for i, row in enumerate(a)
                      for j, x in enumerate(row) if x)
        top, p = a[r], a[r][c]
        for i, row in enumerate(a):
            if i != r and row[c]:
                q = row[c] // p
                a[i] = [x - q * y for x, y in zip(row, top)]
        for j in range(len(top)):
            if j != c and top[j]:
                q = top[j] // p
                for row in a:
                    row[j] -= q * row[c]
        if sum(1 for row in a if row[c]) + sum(1 for x in top if x) == 2:
            diag.append(abs(p))
            del a[r]
            for row in a:
                del row[c]
    return SNFResult(len(diag), _divisor_chain(diag))


def _divisor_chain(diag: list[int]) -> tuple[int, ...]:
    """The invariant factors of the direct sum of the cyclic groups
    Z/d for d in ``diag`` (all positive), each dividing the next:
    pairwise (gcd, lcm) swaps, in place, keeping any 1 they leave."""
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag)


class HomologyReport(NamedTuple):
    """Betti numbers, boundary ranks, torsion, and the Euler cross-check
    for dimensions 0..max_dim."""

    max_dim: int
    simplex_counts: tuple[int, ...]
    boundary_ranks: tuple[int, ...]       # rank of d_k for k = 0..max_dim+1 (d_0 = 0)
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]  # nontrivial invariant factors of d_{k+1}
    euler_from_f: int
    betti_alternating_sum: int


def betti_numbers(c: FlagComplex, max_dim: int) -> HomologyReport:
    """Integer homology in dimensions 0..max_dim.

    Every complex is read off its join factors, the components of its
    complement graph (one for a non-join), by one fold: see
    ``_join_homology``, and ``_snf_homology`` for each factor.  No
    simplex reaches dimension n_vertices, so the report is computed up
    to there at most and padded with zeros.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    top = min(max_dim, c.n_vertices)
    full = (1 << c.n_vertices) - 1
    parts = mask_components([full ^ m for m in c._adj])  # self bits are ignored
    r = _report(top, *_join_homology(c, parts, top))
    if top == max_dim:
        return r
    zeros = (0,) * (max_dim - top)
    return r._replace(max_dim=max_dim, simplex_counts=r.simplex_counts + zeros,
                      boundary_ranks=r.boundary_ranks + zeros, betti=r.betti + zeros,
                      torsion=r.torsion + ((),) * len(zeros))


def _counts(levels: list[list[int]], max_dim: int) -> list[int]:
    """The simplex counts in dimensions 0..max_dim of a clique walk."""
    counts = [len(level) for level in levels[1:max_dim + 2]]
    return counts + [0] * (max_dim + 1 - len(counts))


def _snf_homology(c: FlagComplex, within: int, max_dim: int) -> tuple:
    """Simplex counts, Betti numbers and torsion in dimensions
    0..max_dim of the join factor induced on the vertex mask ``within``,
    reduced on the ambient's masks: b_k = (#k-simplices) - rank d_k -
    rank d_{k+1}, and torsion in H_k is read off the invariant factors
    of d_{k+1}."""
    levels = _clique_levels(c, max_dim + 2, within)
    counts = _counts(levels, max_dim)
    ranks, torsion = [0], []
    for k in range(1, min(max_dim + 2, len(levels) - 1)):  # the maps with columns
        rows, cols = levels[k], levels[k + 1]
        if k == 1 and len(levels) < 4:  # no triangle listed: d_1 of a graph
            ranks.append(within.bit_count() - len(mask_components(c._adj, within)))
            torsion.append(())
        else:
            # d_k is built right before its reduction, so one map is alive
            # at a time (full homology at s = 9 peaks near 1 GB)
            r = _snf(_columns(rows, cols), len(rows))
            ranks.append(r.rank)
            torsion.append(tuple(f for f in r.factors if f > 1))
    empty = max_dim + 2 - len(ranks)  # maps with no columns: rank 0, no factors
    ranks += [0] * empty
    torsion += [()] * empty
    betti = [counts[k] - ranks[k] - ranks[k + 1] for k in range(max_dim + 1)]
    return counts, betti, torsion


def _join_homology(c: FlagComplex, parts: list[int], max_dim: int) -> tuple:
    """Simplex counts, boundary ranks, Betti numbers and torsion of
    ``c``, the join of the subcomplexes induced on the vertex masks
    ``parts``, the components of its complement graph (so no factor is
    a join; a non-join has one), from those of the factors.

    Joins are folded one factor at a time from the empty complex, the
    unit of the join, on vectors indexed by degree -1, 0, 1, ...
    (shifted by one).  Simplex counts with f_{-1} = 1 for the empty face
    and reduced free ranks with H~_{-1} = Z for the empty complex fold
    alike, as plain convolutions of the shifted vectors:
    f_k(A*B) = sum of f_i(A) f_j(B) over i + j = k - 1, and the free
    part of the join formula (Milnor, "Construction of universal
    bundles II", 1956),

        H~_{n+1}(A*B) = (+)_{i+j=n} H~_i(A) (x) H~_j(B)
                        (+) (+)_{i+j=n-1} Tor(H~_i(A), H~_j(B)),

    multiplies free ranks.  Torsion is kept as lists of cyclic orders
    for the degrees that carry any, and only those degrees are visited:
    Z/t (x) Z^b is b copies of Z/t, and both Z/p (x) Z/q and
    Tor(Z/p, Z/q) are Z/gcd(p, q), the latter one degree up, while Tor
    vanishes when either side is free.  A cone, a join with a single
    vertex, is acyclic, so then no factor's homology is computed.  H_0
    is H~_0 + Z except in the empty complex, which has no factor.  The
    boundary ranks follow from r_0 = 0 and r_{k+1} = f_k - r_k - b_k.
    """
    size = max_dim + 2
    unit = [1] + [0] * (size - 1)  # the empty complex: f_{-1} = 1, H~_{-1} = Z
    faces, free, tors = unit, unit, {}
    cone = any(not part & (part - 1) for part in parts)
    for part in parts:
        if cone:  # only the simplex counts are needed
            counts = _counts(_clique_levels(c, max_dim + 1, part), max_dim)
        else:
            counts, betti, torsion = _snf_homology(c, part, max_dim)
            reduced = [0, betti[0] - 1, *betti[1:]]
            tors = _fold_torsion(free, tors, reduced,
                                 {k: group for k, group in enumerate(torsion, 1) if group})
            free = _convolve(free, reduced)
        faces = _convolve(faces, [1, *counts])
    betti = free[1:]
    if parts:
        betti[0] += 1
    torsion = [()] * (max_dim + 1)
    for k, group in tors.items():
        torsion[k - 1] = tuple(t for t in _divisor_chain([a for a in group if a > 1]) if t > 1)
    ranks = [0]
    for f_k, b in zip(faces[1:], betti):
        ranks.append(f_k - ranks[-1] - b)
    return faces[1:], ranks, betti, torsion


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The first len(a) terms of the convolution of a and b, which is
    at least as long: term k is the sum of a[p] b[k - p]."""
    size = len(a)
    out = [0] * size
    for p, x in enumerate(a):
        if x:
            for q in range(size - p):
                out[p + q] += x * b[q]
    return out


def _fold_torsion(free_a: list[int], tors_a: dict, free_b: list[int], tors_b: dict) -> dict:
    """The torsion of A*B by the join formula, from the free ranks of A
    and B per shifted degree and their torsion, lists of cyclic orders
    keyed by the shifted degrees that carry any, all cut at one length."""
    size = len(free_a)
    out: dict[int, list[int]] = {}
    for tors, free in ((tors_a, free_b), (tors_b, free_a)):
        for p, group in tors.items():
            for q, y in enumerate(free[:size - p]):
                if y:  # Z/t (x) Z^y is y copies of Z/t
                    out.setdefault(p + q, []).extend(group * y)
    for p, group in tors_a.items():
        for q, other in tors_b.items():
            gcds = [gcd(u, v) for u in group for v in other]
            for k in range(p + q, min(p + q + 2, size)):  # (x), and Tor one degree up
                out.setdefault(k, []).extend(gcds)
    return out


def _report(max_dim: int, counts: list[int], ranks: list[int], betti: list[int],
            torsion: list[tuple[int, ...]]) -> HomologyReport:
    euler_from_f = sum((-1) ** k * f for k, f in enumerate(counts))
    alt = sum((-1) ** k * b for k, b in enumerate(betti))
    return HomologyReport(max_dim, tuple(counts), tuple(ranks), tuple(betti),
                          tuple(torsion), euler_from_f, alt)


def report_as_dict(r: HomologyReport) -> dict:
    """JSON-ready form of a homology report."""
    return {
        "max_dim": r.max_dim,
        "simplex_counts": list(r.simplex_counts),
        "boundary_ranks": list(r.boundary_ranks),
        "betti": list(r.betti),
        "torsion": [list(t) for t in r.torsion],
        "euler_from_f": r.euler_from_f,
        "betti_alternating_sum": r.betti_alternating_sum,
    }
