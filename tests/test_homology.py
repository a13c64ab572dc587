"""Integer simplicial homology via Smith normal form and the join rule.

Independent oracles: matrix rank by exact Gaussian elimination over the
rationals, invariant factors by gcds of k-by-k minors, the Betti numbers
of tree space and of its vertex and edge links in closed form, the Z/2
torsion of the real projective plane, and, for joins and non-joins, the
report with every boundary map built over id tuples by a reference
builder that shares no assembly with the library and reduced by the
Smith normal form.
"""

from fractions import Fraction
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from math import factorial, gcd, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (join_of, plain_homology, rank_mod_p, reference_boundaries,
                     reference_cliques)
from spherecomplex import (
    HomologyReport,
    SpherePartition,
    betti_numbers,
    boundary_matrices,
    boundary_matrix,
    build_genus_zero_complex,
    catalog,
    f_vector,
    flag_from_adjacency,
    cliques_of_size,
    homology,
    link_of,
    smith_normal_form,
)


def rank_over_q(rows) -> int:
    m = [[Fraction(int(x)) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def minor_gcds(rows, upto: int) -> list[int]:
    """d_k = gcd of all k-by-k minors, for k = 1..upto."""
    m = [[int(x) for x in row] for row in rows]
    out = []
    for k in range(1, upto + 1):
        g = 0
        for rsel in combinations(range(len(m)), k):
            for csel in combinations(range(len(m[0])), k):
                sub = [[Fraction(m[r][c]) for c in csel] for r in rsel]
                det = exact_det(sub)
                g = gcd(g, abs(det))
        out.append(g)
    return out


def exact_det(m) -> int:
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    assert det.denominator == 1
    return det.numerator


def dense(d) -> list[list[int]]:
    """The dense matrix of a sparse ChainBoundary, one entry per face."""
    m = [[0] * len(d.cols) for _ in d.rows]
    for j, column in enumerate(d.columns):
        for i, sign in column:
            assert m[i][j] == 0, "face entered twice"
            m[i][j] = sign
    return m


def snf_from_minors(rows) -> tuple[int, ...]:
    """Invariant factors as ratios d_k / d_(k-1) of minor gcds."""
    d = [1] + [g for g in minor_gcds(rows, min(len(rows), len(rows[0]))) if g]
    return tuple(b // a for a, b in zip(d, d[1:]))


def matrices(entries):
    return st.lists(
        st.lists(entries, min_size=1, max_size=4), min_size=1, max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)


small_matrices = matrices(st.integers(min_value=-9, max_value=9))
# no +-1 entry: everything goes to the dense residual elimination
unitless_matrices = matrices(st.sampled_from([0, 0, 2, -2, 3, -3, 4, 6, -6, 9, -10]))

# a unit-free 6x6 block on which an elimination that restores divisibility
# by adding rows grew its entries to millions of bits
STALLING_6X6 = [[9, 2, -28, -6, -18, -8], [-24, -17, 6, 13, 27, -3],
                [7, -18, 1, -24, 30, 12], [-6, -12, 2, 1, -29, -10],
                [9, 25, -5, 27, -12, -29], [-20, -18, 24, -10, 21, 6]]


class TestSmithNormalForm:
    def test_known_matrix(self):
        """Invariant factors of a fixed 3x3 matrix, checked against the
        minor-gcd characterization."""
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        res = smith_normal_form(m)
        assert res.rank == 3
        d1, d2, d3 = minor_gcds(m, 3)
        want = (d1, d2 // d1, d3 // d2)
        assert res.factors == want
        assert abs(exact_det(m)) == res.factors[0] * res.factors[1] * res.factors[2]

    def test_zero_and_empty(self):
        assert smith_normal_form([[0, 0], [0, 0]]).rank == 0
        assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
        assert smith_normal_form(np.zeros((0, 3), dtype=np.int64)).rank == 0

    @settings(max_examples=60)
    @given(small_matrices)
    def test_rank_matches_gaussian_elimination(self, rows):
        res = smith_normal_form(rows)
        assert res.rank == rank_over_q(rows)
        assert len(res.factors) == res.rank

    @settings(max_examples=60)
    @given(small_matrices)
    def test_divisibility_chain(self, rows):
        factors = smith_normal_form(rows).factors
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0, f"{factors} is not a divisor chain"

    @settings(max_examples=30)
    @given(small_matrices)
    def test_first_factor_is_entry_gcd(self, rows):
        factors = smith_normal_form(rows).factors
        g = 0
        for row in rows:
            for x in row:
                g = gcd(g, abs(x))
        if g == 0:
            assert factors == ()
        else:
            assert factors[0] == g

    @settings(max_examples=60)
    @given(st.one_of(small_matrices, unitless_matrices))
    def test_factors_are_minor_gcd_ratios(self, rows):
        assert smith_normal_form(rows).factors == snf_from_minors(rows)

    def test_unit_pivots_then_residual(self):
        """Two unit pivots are cleared sparsely; a residual with no unit
        entry is left for dense elimination."""
        m = [[1, 2, 0, 0], [0, 2, 4, 0], [0, 0, 6, 4], [3, 0, 0, -1]]
        assert smith_normal_form(m).factors == snf_from_minors(m) == (1, 1, 2, 54)

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]]])
    def test_rejects_ragged_rows(self, rows):
        with pytest.raises(ValueError, match="differ in length"):
            smith_normal_form(rows)

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError, match="integers"):
            smith_normal_form([[1.5, 2]])

    @pytest.mark.parametrize("entry", [None, float("inf"), float("-inf"), float("nan"), "1", 1j])
    def test_rejects_other_non_integer_entries(self, entry):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            smith_normal_form([[entry, 2]])

    def test_rejects_a_flat_list(self):
        with pytest.raises(ValueError, match="matrix rows differ in length"):
            smith_normal_form([1, 2])

    def test_accepts_integer_arrays(self):
        m = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], dtype=np.int64)
        assert smith_normal_form(m) == smith_normal_form(m.tolist())

    def test_unit_free_block_does_not_stall(self):
        """Run in a child process so that a stall fails the test at the
        timeout instead of hanging the suite."""
        import spherecomplex
        src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
        code = ("from spherecomplex import smith_normal_form\n"
                f"print(*smith_normal_form({STALLING_6X6!r}).factors)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        factors = tuple(int(f) for f in proc.stdout.split())
        assert factors == snf_from_minors(STALLING_6X6) == (1, 1, 1, 1, 1, 299593646)
        assert factors[-1] == abs(exact_det(STALLING_6X6))

    def test_seeded_8x8_blocks(self):
        """Random 8x8 matrices with entries in [-30, 30]: few unit
        entries, so most of each goes to the dense residual."""
        rng = random.Random(15)
        for _ in range(40):
            m = [[rng.randint(-30, 30) for _ in range(8)] for _ in range(8)]
            res = smith_normal_form(m)
            assert res.rank == len(res.factors) == rank_over_q(m)
            assert all(b % a == 0 for a, b in zip(res.factors, res.factors[1:]))
            assert res.factors[0] == gcd(*(abs(x) for row in m for x in row))
            det = exact_det(m)
            if det:
                assert prod(res.factors) == abs(det)

    def test_rank_mod_p(self):
        m = [[2, 0], [0, 3]]
        assert rank_mod_p(m, 5) == 2
        assert rank_mod_p(m, 2) == 1
        assert rank_mod_p(m, 3) == 1

    @settings(max_examples=40)
    @given(small_matrices)
    def test_rank_mod_large_prime_matches_integer_rank(self, rows):
        # no entry of a 4x4 integer matrix with entries in [-9,9] has an
        # invariant factor divisible by a prime above its Hadamard bound
        assert rank_mod_p(rows, 1000003) == rank_over_q(rows)


class TestBoundaryMatrices:
    def test_bases_are_canonical(self, c6):
        basis1 = cliques_of_size(c6, 2)
        assert basis1 == sorted(basis1)
        assert len(basis1) == 105

    def test_shapes_follow_the_f_vector(self, c6):
        fv = f_vector(c6)
        for k, d in enumerate(boundary_matrices(c6, 2), start=1):
            assert (len(d.rows), len(d.cols)) == (fv.counts[k - 1], fv.counts[k])
            assert len(d.columns) == len(d.cols)
            for simplex, column in zip(d.cols, d.columns):
                faces = [(simplex[:j] + simplex[j + 1:], (-1) ** j)
                         for j in range(k + 1)]
                assert [(d.rows[i], sign) for i, sign in column] == faces

    def test_boundary_of_boundary_is_zero(self, c6):
        c7 = build_genus_zero_complex(7)
        for c, top in ((c6, 2), (c7, 3)):
            ds = boundary_matrices(c, top)
            for lower, upper in zip(ds, ds[1:]):
                for column in upper.columns:
                    image: dict[int, int] = {}
                    for i, sign in column:
                        for r, x in lower.columns[i]:
                            image[r] = image.get(r, 0) + sign * x
                    assert not any(image.values())

    @pytest.mark.parametrize("spec, digest", [
        ("genus-zero:4", "c8a1209ba82165db754d5b7bf2befa14a1240c137ff3ac4c344fb4e108b079b2"),
        ("genus-zero:5", "ac83ba0ee36315a04b0f918b329da967f90e07426f0a73c74ac999d65210f55c"),
        ("genus-zero:6", "89257dfaf6c76ab3f2530a1373ea251a1bd0985c16493d5731cb48d7afbedfac"),
        ("genus-zero:7", "f0cc81436e54a9cc9d3db855703caf6238aa643e8e7b31011270524ee643d028"),
        ("k13", "a33b27c7ef1493c68fbedd3c045653aca88afa0effa00fc41a0a0e90ceb3cbb5"),
        ("k3", "c9aa6c405ec42f6a8a0541309ce80bb535b7e19044bd2606708d12a16e14cd7f"),
        ("k33", "640c0b0257351f34fd4b7aa0a4a4bf3faab522e61043471b5214d8a2c7e67746"),
        ("m04", "267c4aba24c9b5b8c867c944b9c13be0e8df9b198c2a457781f3f98014856435"),
        ("m11", "6639efdb2d26e45e3dc97696ed2593b0a64c9ef944fdeac422eb160822a53fff"),
        ("petersen", "6fd20b9e49e4b74e7dff5d591ad003ea7cb10d6b12d0b291e40d3ce5aeaf11f1"),
    ])
    def test_boundary_matrices_digest(self, spec, digest):
        """sha256 of every map up to one above the top dimension (dim,
        rows, cols, columns as JSON), recorded from the implementation
        that enumerated each basis separately, so a change to a basis,
        its order or a sign shows here."""
        name, _, size = spec.partition(":")
        c = build_genus_zero_complex(int(size)) if size else catalog(name)
        ds = boundary_matrices(c, len(f_vector(c).counts))
        text = json.dumps([[d.dim, d.rows, d.cols, d.columns] for d in ds])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_single_maps_match_the_list(self, c6):
        """Above the top dimension the maps are empty."""
        ds = boundary_matrices(c6, 4)
        assert [boundary_matrix(c6, k) for k in range(1, 5)] == ds
        assert (len(ds[2].rows), ds[2].cols) == (105, ())
        assert ds[3].rows == ds[3].cols == ()

    def test_edge_boundary_signs(self):
        c = flag_from_adjacency(["a", "b"], [("a", "b")])
        d1 = boundary_matrix(c, 1)
        assert d1.rows == (("a",), ("b",)) and d1.cols == (("a", "b"),)
        assert [row[0] for row in dense(d1)] == [-1, 1]


class TestBettiNumbers:
    def test_petersen(self, petersen):
        rep = betti_numbers(petersen, 1)
        assert rep.betti == (1, 6)
        assert all(t == () for t in rep.torsion)

    def test_circle(self):
        square = flag_from_adjacency(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        assert betti_numbers(square, 1).betti == (1, 1)

    def test_filled_triangle_is_contractible(self):
        assert betti_numbers(flag_from_adjacency(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("a", "c")]), 2).betti == (1, 0, 0)

    def test_s5(self, c5):
        rep = betti_numbers(c5, 2)
        assert rep.betti == (1, 6, 0)

    def test_s6(self, c6):
        rep = betti_numbers(c6, 2)
        assert rep.betti == (1, 0, 24)
        assert rep.boundary_ranks == (0, 24, 81, 0)
        assert all(t == () for t in rep.torsion)
        assert rep.euler_from_f == rep.betti_alternating_sum == 25

    def test_ranks_against_rational_oracle(self, c6):
        d1, d2 = boundary_matrices(c6, 2)
        assert rank_over_q(dense(d1)) == 24
        assert rank_over_q(dense(d2)) == 81
        for d in (d1, d2):
            assert smith_normal_form(d) == smith_normal_form(dense(d))

    def test_two_components(self):
        c = flag_from_adjacency(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert betti_numbers(c, 1).betti == (2, 0)

    def test_huge_max_dim_is_padded(self):
        """Past n_vertices every group is zero, so a report at max_dim =
        10**5 is the max_dim = 3 one padded with zeros; run in a child
        process so that work growing with max_dim fails at the timeout."""
        import spherecomplex
        src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
        code = ("from spherecomplex import betti_numbers, catalog\n"
                "for name in ('k33', 'petersen'):\n"
                "    print(tuple(betti_numbers(catalog(name), 10 ** 5)))\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        for name, line in zip(("k33", "petersen"), lines):
            r = betti_numbers(catalog(name), 3)
            zeros = (0,) * (10 ** 5 - 3)
            want = r._replace(max_dim=10 ** 5, simplex_counts=r.simplex_counts + zeros,
                              boundary_ranks=r.boundary_ranks + zeros, betti=r.betti + zeros,
                              torsion=r.torsion + ((),) * len(zeros))
            same = line == repr(tuple(want))  # no diff of 10**5-entry reports
            assert same, name

    def test_projective_plane_has_z2_torsion(self):
        """Barycentric subdivision of the 6-vertex RP^2: a flag complex
        on its 31 faces, with H_1 = Z/2 and no free homology above H_0."""
        rp2 = projective_plane()
        assert rp2.n_vertices == 31
        rep = betti_numbers(rp2, 2)
        assert rep.betti == (1, 0, 0)
        assert rep.torsion == ((), (2,), ())


def projective_plane(prefix: str = ""):
    """The barycentric subdivision of the 6-vertex RP^2, as the flag
    complex of its face poset, with ``prefix`` on every vertex id."""
    triangles = ["123", "134", "145", "156", "162",
                 "235", "346", "452", "563", "624"]
    faces = {prefix + "".join(sorted(f)) for t in triangles
             for n in (1, 2, 3) for f in combinations(t, n)}
    comparable = [(f, g) for f in faces for g in faces
                  if len(f) < len(g) and set(f) <= set(g)]
    return flag_from_adjacency(faces, comparable)


def moore_space(p: int, prefix: str, m: int = 4):
    """A disk whose boundary winds p times round an m-cycle, m >= 4: an
    annulus of p*m triangle pairs between the cycle and an inner p*m-gon
    coned off from a centre.  Every clique of its graph is a face, so it
    is a flag complex, with H_1 = Z/p."""
    x = ["%sx%d" % (prefix, i) for i in range(m)]
    y = ["%sy%d" % (prefix, i) for i in range(p * m)]
    pairs = [(x[i], x[(i + 1) % m]) for i in range(m)]
    for i in range(p * m):
        pairs += [(y[i], x[i % m]), (y[i], x[(i + 1) % m]),
                  (y[i], y[(i + 1) % (p * m)]), (y[i], prefix + "z")]
    return flag_from_adjacency(x + y + [prefix + "z"], pairs)


def disjoint_union(c1, c2):
    return flag_from_adjacency(c1.vertices + c2.vertices, c1.edges() + c2.edges())


def points(n: int, prefix: str):
    return flag_from_adjacency(["%s%d" % (prefix, i) for i in range(n)], [])


@st.composite
def small_complexes(draw, prefix: str, max_n: int = 4):
    """A random flag complex on at most ``max_n`` vertices."""
    vs = ["%s%d" % (prefix, i) for i in range(draw(st.integers(0, max_n)))]
    return flag_from_adjacency(vs, [(u, v) for u, v in combinations(vs, 2)
                                    if draw(st.booleans())])


class TestJoins:
    """A complex whose complement graph is disconnected is a join, and
    betti_numbers reads it off its factors; every field of the report
    must equal the one with every boundary map through the Smith normal
    form."""

    @settings(max_examples=60)
    @given(st.lists(st.sampled_from("abc"), min_size=2, max_size=3, unique=True)
           .flatmap(lambda ps: st.tuples(*(small_complexes(p) for p in ps))),
           st.integers(0, 4))
    def test_random_joins(self, factors, cap):
        j = factors[0]
        for f in factors[1:]:
            j = join_of(j, f)
        max_dim = min(len(f_vector(j).counts), cap)
        assert betti_numbers(j, max_dim) == plain_homology(j, max_dim)

    @settings(max_examples=30)
    @given(small_complexes("b", max_n=6), st.integers(0, 3))
    def test_cones_are_acyclic(self, base, max_dim):
        cone = join_of(points(1, "a"), base)
        rep = betti_numbers(cone, max_dim)
        assert rep == plain_homology(cone, max_dim)
        assert rep.betti == (1,) + (0,) * max_dim
        assert rep.torsion == ((),) * (max_dim + 1)

    @settings(max_examples=10)
    @given(small_complexes("b"), st.integers(0, 4))
    def test_joins_with_the_projective_plane(self, other, max_dim):
        j = join_of(projective_plane("a"), other)
        assert betti_numbers(j, max_dim) == plain_homology(j, max_dim)

    @pytest.mark.parametrize("n, torsion", [(2, (2,)), (3, (2, 2))])
    def test_points_join_projective_plane(self, n, torsion):
        """H~_1(RP^2) = Z/2 tensored with H~_0 of n points, Z^(n-1), in
        H_2 of the join."""
        j = join_of(points(n, "a"), projective_plane("b"))
        rep = betti_numbers(j, 3)
        assert rep == plain_homology(j, 3)
        assert rep.betti == (1, 0, 0, 0)
        assert rep.torsion == ((), (), torsion, ())

    def test_coprime_torsion(self):
        """(RP^2 + a point) * (M(Z/3, 1) + a point): Z (x) Z/3 and
        Z/2 (x) Z give Z/6 in H_2, and Z/2 (x) Z/3 = Tor(Z/2, Z/3) = 0."""
        moore = moore_space(3, "b")
        assert betti_numbers(moore, 2).torsion == ((), (3,), ())
        j = join_of(disjoint_union(projective_plane("a"), points(1, "p")),
                    disjoint_union(moore, points(1, "q")))
        rep = betti_numbers(j, 4)
        assert rep == plain_homology(j, 4)
        assert rep.betti == (1, 1, 0, 0, 0)
        assert rep.torsion == ((), (), (6,), (), ())

    def test_projective_plane_join_itself(self):
        """Z/2 (x) Z/2 in H_3 and Tor(Z/2, Z/2) in H_4."""
        j = join_of(projective_plane("a"), projective_plane("b"))
        rep = betti_numbers(j, 5)
        assert rep == plain_homology(j, 5)
        assert rep.betti == (1, 0, 0, 0, 0, 0)
        assert rep.torsion == ((), (), (), (2,), (2,), ())

    def test_three_factors_with_torsion_in_two(self):
        """M(Z/2, 1) * M(Z/2, 1) * two points, folded in that order:
        Z/2 (x) Z/2 lands in H_3 and Tor(Z/2, Z/2) in H_4, and each, as
        torsion (x) the free H~_0 of the points, goes up one more; the
        report equals the reference one cut down to every max_dim from 0
        to past the top dimension 6."""
        j = join_of(join_of(moore_space(2, "a"), moore_space(2, "b")), points(2, "p"))
        whole = plain_homology(j, 8)
        assert whole.torsion == ((), (), (), (), (2,), (2,), (), (), ())
        assert cut_down(whole, 2) == plain_homology(j, 2)
        for max_dim in range(9):
            assert betti_numbers(j, max_dim) == cut_down(whole, max_dim), max_dim


def cut_down(r, max_dim: int):
    """The report ``r`` restricted to dimensions 0..max_dim, which read
    no boundary map above d_{max_dim+1}."""
    counts, betti = r.simplex_counts[:max_dim + 1], r.betti[:max_dim + 1]
    return HomologyReport(max_dim, counts, r.boundary_ranks[:max_dim + 2], betti,
                          r.torsion[:max_dim + 1],
                          sum((-1) ** k * f for k, f in enumerate(counts)),
                          sum((-1) ** k * b for k, b in enumerate(betti)))


def triangle_free(prefix: str, n: int, pairs):
    """The graph on n vertices keeping each pair of ``pairs`` (index
    pairs, in order) whose ends have no common neighbour yet."""
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        if not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
    vs = ["%s%d" % (prefix, i) for i in range(n)]
    return flag_from_adjacency(vs, [(vs[u], vs[v]) for u in range(n) for v in nbrs[u] if u < v])


def seeded_triangle_free(seed: int):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    p = rng.random()
    return triangle_free("g", n, [e for e in combinations(range(n), 2) if rng.random() < p])


@st.composite
def triangle_free_graphs(draw):
    """Two triangle-free graphs side by side, plus isolated vertices."""
    parts = []
    for prefix in "ab":
        n = draw(st.integers(0, 8))
        pairs = [e for e in combinations(range(n), 2) if draw(st.booleans())]
        parts.append(triangle_free(prefix, n, pairs))
    return disjoint_union(disjoint_union(*parts), points(draw(st.integers(1, 3)), "p"))


@pytest.fixture
def snf_calls(monkeypatch):
    """The (rows, columns) shape of each map sent through the Smith
    normal form, in call order."""
    calls = []
    snf = homology._snf

    def recording(cols, n_rows):
        calls.append((n_rows, len(cols)))
        return snf(cols, n_rows)

    monkeypatch.setattr(homology, "_snf", recording)
    return calls


class TestGraphRule:
    """A boundary map with no columns has rank 0, and d_1 of a complex
    whose clique walk lists no triangle has rank V - c with no factor
    above 1 (a graph's incidence matrix is totally unimodular): neither
    goes through the Smith normal form.  d_1 of a complex with
    triangles still does."""

    @pytest.mark.parametrize("max_dim", [0, 1, 2, 3])
    def test_triangle_free_complexes_skip_elimination(self, snf_calls, max_dim):
        graphs = [catalog(n) for n in ("petersen", "k33", "k13")]
        graphs += [flag_from_adjacency([], [])]
        graphs += [seeded_triangle_free(seed) for seed in range(40)]
        for g in graphs:
            betti_numbers(g, max_dim)
        assert snf_calls == []

    def test_petersen_times_points_links_skip_elimination(self, snf_calls):
        c = build_genus_zero_complex(7)
        links = [link_of(c, [v]) for v in c.vertices
                 if len(SpherePartition.from_vertex_id(v).block) in (3, 4)]
        assert len(links) == 35
        for lk in links:
            assert betti_numbers(lk, 2).betti == (1, 0, 12)
        assert snf_calls == []

    def test_complexes_with_triangles_reduce_d1(self, c6, snf_calls):
        """d_1 and d_2 of the s = 6 complex, none on its empty d_3, and
        the same for a {2,5} link at s = 7, a copy of that complex."""
        shapes = [(25, 105), (105, 105)]
        assert betti_numbers(c6, 2).betti == (1, 0, 24)
        assert snf_calls == shapes
        c = build_genus_zero_complex(7)
        v = next(v for v in c.vertices if len(SpherePartition.from_vertex_id(v).block) == 2)
        assert betti_numbers(link_of(c, [v]), 2).betti == (1, 0, 24)
        assert snf_calls == shapes * 2

    def test_petersen_join_projective_plane(self, snf_calls):
        """Only RP^2's d_1 and d_2 are reduced, and H~_1(Petersen) (x)
        H~_1(RP^2) = (Z/2)^6 lands in H_3."""
        j = join_of(catalog("petersen"), projective_plane("a"))
        rep = betti_numbers(j, 5)
        assert snf_calls == [(31, 90), (90, 60)]
        assert rep == plain_homology(j, 5)
        assert rep.betti == (1, 0, 0, 0, 0, 0)
        assert rep.torsion == ((), (), (), (2,) * 6, (), ())

    @settings(max_examples=60)
    @given(triangle_free_graphs(), st.integers(0, 3))
    def test_triangle_free_graphs_match_the_oracle(self, g, max_dim):
        assert betti_numbers(g, max_dim) == plain_homology(g, max_dim)

    def test_points_join_moore_space_matches_the_oracle(self):
        """H~_0(3 points) = Z^2 tensored with H~_1 = Z/3: (Z/3)^2 in H_2."""
        j = join_of(points(3, "a"), moore_space(3, "b"))
        rep = betti_numbers(j, 4)
        assert rep == plain_homology(j, 4)
        assert rep.torsion == ((), (), (3, 3), (), ())


def is_join(c) -> bool:
    """Whether the complement of the graph of ``c`` is disconnected, by a
    search over vertex ids."""
    if c.n_vertices < 2:
        return False
    seen, todo = set(), [c.vertices[0]]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += [u for u in c.vertices if u != v and not c.adjacent(u, v)]
    return len(seen) < c.n_vertices


class TestReferenceAssembly:
    """Cliques, boundary maps and whole reports against the id-tuple
    reference builder in ``oracles``."""

    @settings(max_examples=60)
    @given(small_complexes("v", max_n=7), st.integers(1, 5))
    def test_random_complexes(self, c, max_dim):
        assert boundary_matrices(c, max_dim) == reference_boundaries(c, max_dim)
        levels = reference_cliques(c, max_dim + 1)
        assert [cliques_of_size(c, k) for k in range(max_dim + 2)] == levels
        assert f_vector(c, max_dim).counts == tuple(map(len, levels[1:]))

    @pytest.mark.parametrize("s", [4, 5, 6, 7])
    def test_genus_zero(self, s):
        c = build_genus_zero_complex(s)
        top = len(f_vector(c).counts)
        assert boundary_matrices(c, top) == reference_boundaries(c, top)

    @settings(max_examples=60)
    @given(small_complexes("v", max_n=8), st.integers(0, 5))
    def test_non_joins(self, c, max_dim):
        assume(not is_join(c))
        assert betti_numbers(c, max_dim) == plain_homology(c, max_dim)

    def test_non_join_with_torsion(self):
        """RP^2 with a whisker, so not a join: H_1 = Z/2."""
        rp2 = projective_plane()
        c = flag_from_adjacency(rp2.vertices + ("x",), rp2.edges() + [("1", "x")])
        assert not is_join(c)
        rep = betti_numbers(c, 3)
        assert rep == plain_homology(c, 3)
        assert rep.torsion == ((), (2,), (), ())


class TestTreeSpaceClosedForm:
    """The genus-zero complex C(M_{0,s}) is a wedge of (s-2)! spheres of
    dimension s-4 (Vogtmann; Robinson & Whitehouse).  The link of a
    simplex is the join of the complexes of its complementary pieces
    M_{0,k_i}, so its reduced homology is Z^(prod (k_i-2)!) in degree
    sum (k_i-3) - 1 and zero elsewhere."""

    def test_s7_full(self):
        rep = betti_numbers(build_genus_zero_complex(7), 3)
        assert rep.betti == (1, 0, 0, 120)
        assert all(t == () for t in rep.torsion)

    def test_s8_full(self):
        rep = betti_numbers(build_genus_zero_complex(8), 4)
        assert rep.betti == (1, 0, 0, 0, 720)
        assert all(t == () for t in rep.torsion)

    @staticmethod
    def check_link(c, simplex, pieces):
        degree = sum(k - 3 for k in pieces) - 1
        rank = prod(factorial(k - 2) for k in pieces)
        rep = betti_numbers(link_of(c, simplex), degree + 1)
        assert rep.betti == tuple((k == 0) + (k == degree) * rank for k in range(degree + 2))
        assert all(t == () for t in rep.torsion)

    @pytest.mark.parametrize("s", [5, 6, 7, 8])
    def test_vertex_links(self, s):
        """A vertex with blocks of sizes a and b cuts M_{0,s} into
        M_{0,a+1} and M_{0,b+1}: rank (a-1)!(b-1)! in degree s-5."""
        c = build_genus_zero_complex(s)
        assert len(c.vertices) == 2 ** (s - 1) - s - 1
        for v in c.vertices:
            a = len(SpherePartition.from_vertex_id(v).block)
            self.check_link(c, [v], [a + 1, s - a + 1])

    def test_s8_vertex_links_reduce_only_their_factors(self, snf_calls):
        """All 119 vertex links at s = 8 against the closed form, and only
        factors with triangles reach the Smith normal form: a {4,4} link
        (Petersen * Petersen) makes no call, a {3,5} link (3 points * the
        s = 6 complex) only the d_1 and d_2 of its 25-vertex factor, and a
        {2,6} link, a copy of the s = 7 complex, the calls of that
        complex."""
        s = 8
        betti_numbers(build_genus_zero_complex(7), s - 4)
        calls = {4: [], 3: [(25, 105), (105, 105)], 2: list(snf_calls)}
        c = build_genus_zero_complex(s)
        kinds = Counter()
        for v in c.vertices:
            a = len(SpherePartition.from_vertex_id(v).block)
            a = min(a, s - a)
            snf_calls.clear()
            self.check_link(c, [v], [a + 1, s - a + 1])
            assert snf_calls == calls[a], v
            kinds[a] += 1
        assert kinds == {2: 28, 3: 56, 4: 35}
        assert calls[2] == [(56, 490), (490, 1260), (1260, 945)]

    @pytest.mark.parametrize("s", [6, 7])
    def test_edge_links(self, s):
        """Two disjoint spheres with sides X inside Y cut M_{0,s} into
        pieces with |X| + 1, |Y| - |X| + 2 and s - |Y| + 1 boundary
        spheres."""
        c = build_genus_zero_complex(s)
        labels = frozenset(range(1, s + 1))
        for u, v in c.edges():
            a, b = (SpherePartition.from_vertex_id(w).block for w in (u, v))
            x, y = next((x, y) for x in (a, labels - a) for y in (b, labels - b) if x < y)
            self.check_link(c, [u, v], [len(x) + 1, len(y) - len(x) + 2, s - len(y) + 1])
