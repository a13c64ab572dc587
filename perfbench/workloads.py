"""Seeded inputs, items and exact oracles for the four benchmark workloads.

A workload is built by ``build(name, seed, ...)``: everything it needs
(ambient complexes, pants lists, scrambled multigraphs, CLI argument
lists) is made there, before any timing starts.  The result is a list of
items.  An item's ``run`` is the timed call into the library; its
``check`` compares the result with an exact oracle and returns ``None``
or a one-line description of the mismatch.

Oracles are closed forms where one exists.  The values in ``FROZEN``
have no closed form; they were recorded from spherecomplex 0.1.0 and
are the reference the benchmark holds later versions to.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from math import factorial
from typing import Callable, NamedTuple, Optional

WORKLOADS = ("homology", "rigidity", "flip-lift", "cli")
# workloads whose items do their work in child processes
IN_CHILD_PROCESSES = ("cli",)

FROZEN = {
    # total_maps of verify_rigidity(X_sigma) by (s, number of cherries of
    # sigma's dual tree); all_extend is False for every one of them
    "xsigma_maps": {(6, 2): 1440, (6, 3): 5040, (7, 3): 50400},
    "xsigma_all_extend": False,
    "flip_diameter": {5: 3, 6: 5, 7: 7},
    "catalog_names": ["k13", "k3", "k33", "m04", "m11", "petersen"],
}


class Item(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def pants_count(s: int) -> int:
    return double_factorial(2 * s - 5)


def _expect(what: str, got, want) -> Optional[str]:
    return None if got == want else "%s: got %r, want %r" % (what, got, want)


def _first(*problems: Optional[str]) -> Optional[str]:
    return next((p for p in problems if p), None)


def _cherries(members, s: int) -> int:
    """Cherries of the dual tree: members cutting off exactly two labels."""
    from spherecomplex import SpherePartition
    sizes = [len(SpherePartition.from_vertex_id(v).block) for v in members]
    return sum(1 for b in sizes if min(b, s - b) == 2)


# -- homology ----------------------------------------------------------------

def _check_homology(report, expected_betti, n_vertices: Optional[int] = None) -> Optional[str]:
    return _first(_expect("betti", report.betti, tuple(expected_betti)),
                  _expect("torsion", report.torsion, ((),) * len(expected_betti)),
                  None if n_vertices is None else
                  _expect("vertices", report.simplex_counts[0], n_vertices))


def sphere_count(s: int) -> int:
    return 2 ** (s - 1) - s - 1


def _tree_space_betti(s: int, max_dim: int) -> list[int]:
    """The genus-zero complex is a wedge of (s-2)! spheres of dimension
    s-4 (Vogtmann; Robinson & Whitehouse)."""
    return [(k == 0) + ((k == s - 4) * factorial(s - 2)) for k in range(max_dim + 1)]


def _link_betti(s: int, a: int, b: int, max_dim: int) -> list[int]:
    """A vertex link with blocks of sizes a and b has reduced homology
    only in dimension s-5, of rank (a-1)!(b-1)!."""
    return [(k == 0) + ((k == s - 5) * factorial(a - 1) * factorial(b - 1))
            for k in range(max_dim + 1)]


def _homology_items(rng: random.Random, tiny: bool) -> list[Item]:
    from spherecomplex import (SpherePartition, betti_numbers,
                               build_genus_zero_complex, f_vector, link_of)
    whole = [(5, 1), (6, 2)] if tiny else [(5, 1), (6, 2), (7, 1)]
    link_s = 6 if tiny else 7
    items = []
    for s, max_dim in whole:
        c = build_genus_zero_complex(s)
        items.append(Item("homology s=%d max_dim=%d" % (s, max_dim),
                          lambda c=c, d=max_dim: betti_numbers(c, d),
                          lambda r, s=s, d=max_dim: _check_homology(
                              r, _tree_space_betti(s, d), sphere_count(s))))
    c = build_genus_zero_complex(link_s)
    for v in c.vertices:
        lk = link_of(c, [v])
        top = len(f_vector(lk).counts) - 1
        a = len(SpherePartition.from_vertex_id(v).block)
        want = _link_betti(link_s, a, link_s - a, top)
        items.append(Item("homology link %s" % v,
                          lambda lk=lk, d=top: betti_numbers(lk, d),
                          lambda r, w=want: _check_homology(r, w)))
    rng.shuffle(items)
    return items


# -- rigidity ----------------------------------------------------------------

def _check_whole(cert, s: int) -> Optional[str]:
    return _first(_expect("total_maps", cert.total_maps, factorial(s)),
                  _expect("all_extend", cert.all_extend, True),
                  _expect("|Aut|", cert.automorphism_order, factorial(s)),
                  _expect("counterexample", cert.counterexample, None))


def _check_xsigma(out, s: int, cherries: int) -> Optional[str]:
    from spherecomplex import VertexMap
    x, ambient, cert = out
    problem = _first(
        _expect("total_maps", cert.total_maps, FROZEN["xsigma_maps"][(s, cherries)]),
        _expect("all_extend", cert.all_extend, FROZEN["xsigma_all_extend"]),
        _expect("|Aut|", cert.automorphism_order, factorial(s)))
    if problem or cert.counterexample is None:
        return problem
    m = VertexMap(x, ambient, cert.counterexample)
    if not (m.is_simplicial() and m.is_locally_injective()):
        return "counterexample is not a locally injective simplicial map"
    return None


def _xsigma_item(P, s: int) -> Item:
    from spherecomplex import build_x_sigma, verify_rigidity

    def run():
        x = build_x_sigma(P)
        return x, P.complex, verify_rigidity(x.vertices, P.complex)

    k = _cherries(P.members, s)
    return Item("rigidity xsigma s=%d %s" % (s, P.system_id()), run,
                lambda out: _check_xsigma(out, s, k))


def _rigidity_items(rng: random.Random, tiny: bool) -> list[Item]:
    from spherecomplex import (OVER_MAXIMAL_MAPS, PLAIN, build_genus_zero_complex,
                               enumerate_pants, verify_rigidity)
    items = []
    for s in ((5,) if tiny else (5, 6)):
        c = build_genus_zero_complex(s)
        for mode in (PLAIN, OVER_MAXIMAL_MAPS):
            items.append(Item("rigidity whole s=%d %s" % (s, mode),
                              lambda c=c, m=mode: verify_rigidity(c.vertices, c, m),
                              lambda cert, s=s: _check_whole(cert, s)))
    # a seeded sample of X_sigma at s = 6, stratified by tree shape in the
    # population's 6:1 ratio so that every seed does the same amount of work
    pants6 = enumerate_pants(6)
    by_shape = {k: [P for P in pants6 if _cherries(P.members, 6) == k] for k in (2, 3)}
    quota = {2: 1, 3: 1} if tiny else {2: 16, 3: 4}
    for k, n in quota.items():
        items += [_xsigma_item(P, 6) for P in rng.sample(by_shape[k], n)]
    if not tiny:
        # one X_sigma at s = 7, always the same: its search cost depends on
        # the labelling, and a seeded choice moved wall_s by about 30%
        P7 = next(P for P in enumerate_pants(7) if _cherries(P.members, 7) == 3)
        items.append(_xsigma_item(P7, 7))
    rng.shuffle(items)
    return items


# -- flip-lift ---------------------------------------------------------------

def _check_flip_graph(fg, s: int) -> Optional[str]:
    n = pants_count(s)
    return _first(_expect("nodes", len(fg.nodes), n),
                  _expect("edges", len(fg.edges), n * (s - 3)),
                  _expect("connected", fg.connected, True),
                  _expect("diameter", fg.diameter, FROZEN["flip_diameter"][s]))


def _dual_item(P, s: int, choices: list[int]) -> Item:
    from spherecomplex import classify_link, dual_of_pants, ih_flip, signature_of_dual

    def run():
        d = dual_of_pants(P)
        bonds = range(len(d.bonds))
        return d, classify_link(d, bonds), [ih_flip(d, i, choices[i]) for i in bonds]

    def check(out):
        d, cls, flips = out
        return _first(
            _expect("bonds", len(d.bonds), s - 3),
            _expect("classify_link(all bonds)", cls.as_pairs(), [(0, s)]),
            *(_expect("ih_flip signature", signature_of_dual(f).as_pair(), (0, s))
              for f in flips))

    return Item("dual s=%d %s" % (s, P.system_id()), run, check)


def _multigraph(rng: random.Random, n_vertices: int, n_edges: int):
    """A connected multigraph with exactly the given counts: a random
    spanning tree plus random extra edges, some of them loops."""
    from spherecomplex import Multigraph
    vs = ["v%d" % i for i in range(n_vertices)]
    edges = {}
    for i in range(1, n_vertices):
        edges["e%d" % len(edges)] = (vs[rng.randrange(i)], vs[i])
    while len(edges) < n_edges:
        u = rng.randrange(n_vertices)
        v = u if rng.random() < 0.1 else rng.randrange(n_vertices)
        edges["e%d" % len(edges)] = (vs[u], vs[v])
    return Multigraph(vs, edges)


def _lift_item(label: str, g, rng: random.Random) -> Item:
    from spherecomplex import AMBIGUOUS_ORDER_2, LIFTED, EdgeBijection, lift_edge_isomorphism, scramble
    h, vmap, emap = scramble(g, rng)
    psi = EdgeBijection(g, h, emap)
    order2 = g.n_vertices == 2 and not any(g.is_loop(e) for e in g.edge_ids)

    def check(res):
        if order2:
            return _expect("verdict", res.verdict, AMBIGUOUS_ORDER_2)
        return _first(_expect("verdict", res.verdict, LIFTED),
                      _expect("vertex map", res.vertex_map, vmap))

    return Item(label, lambda: lift_edge_isomorphism(psi), check)


def _obstruction_item() -> Item:
    from spherecomplex import OBSTRUCTED, EdgeBijection, Multigraph, lift_edge_isomorphism
    k3 = Multigraph(["x", "y", "z"], {"e1": ("x", "y"), "e2": ("y", "z"), "e3": ("x", "z")})
    star = Multigraph(["c", "l1", "l2", "l3"],
                      {"f1": ("c", "l1"), "f2": ("c", "l2"), "f3": ("c", "l3")})
    psi = EdgeBijection(k3, star, {"e1": "f1", "e2": "f2", "e3": "f3"})
    return Item("whitney triangle/3-star", lambda: lift_edge_isomorphism(psi),
                lambda r: _first(_expect("verdict", r.verdict, OBSTRUCTED),
                                 _expect("obstruction", r.obstruction, ("e1", "e2", "e3"))))


def _flip_lift_items(rng: random.Random, tiny: bool) -> list[Item]:
    from spherecomplex import enumerate_pants, pants_flip_graph, random_connected_multigraph
    sizes = (5, 6) if tiny else (5, 6, 7)
    items = [Item("flip graph s=%d" % s, lambda s=s: pants_flip_graph(s),
                  lambda fg, s=s: _check_flip_graph(fg, s)) for s in sizes]
    for s in sizes[1:]:
        for P in enumerate_pants(s):
            items.append(_dual_item(P, s, [rng.randrange(2) for _ in range(s - 3)]))
    n_small, n_large = (20, 2) if tiny else (200, 16)
    for t in range(n_small):
        items.append(_lift_item("whitney small #%d" % t, random_connected_multigraph(rng), rng))
    # the large graphs have fixed sizes: find_k3_k13_pair scans all C(E,3)
    # edge triples, so E alone sets their cost and the tail they form
    for t in range(n_large):
        items.append(_lift_item("whitney large #%d" % t, _multigraph(rng, 24, 40), rng))
    items.append(_obstruction_item())
    rng.shuffle(items)
    return items


# -- cli ---------------------------------------------------------------------

CLI_ENTRY = "import sys; from spherecomplex.cli import main; sys.exit(main())"
# every command is spawned this many times a pass, so that each
# cold-start figure rests on more than one process
CLI_REPS = 3


def _census_count(n: int, s: int) -> int:
    m = 2 * n + s - 2
    return m * (m - 1) * (m - 2) * (m - 3) // 2


def cli_commands(rng: random.Random, c6_pants: list) -> list[tuple[list[str], Callable[[dict], Optional[str]]]]:
    """The fixed command sequence: argv after ``spherecomplex`` plus a
    check of the report's ``results``.  Every command must exit 0."""
    P = rng.choice(c6_pants)
    members = ";".join(P.sorted_members())
    n, s = rng.choice([(1, 0), (1, 4), (2, 2), (2, 4)])
    trials = 20
    return [
        (["complex", "homology", "--genus-zero", "6"],
         lambda r: _first(_expect("betti", r["betti"], _tree_space_betti(6, 2)),
                          _expect("torsion", r["torsion"], [[], [], []]))),
        (["complex", "stats", "--genus-zero", "6"],
         lambda r: _first(_expect("f_vector", r["f_vector"], [25, 105, 105]),
                          _expect("maximal cliques", r["n_maximal_cliques"], pants_count(6)),
                          _expect("connected", r["connected"], True))),
        (["rigidity", "aut", "--genus-zero", "6"],
         lambda r: _expect("order", r["order"], factorial(6))),
        (["rigidity", "verify", "--genus-zero", "5"],
         lambda r: _first(_expect("total_maps", r["total_maps"], factorial(5)),
                          _expect("all_extend", r["all_extend"], True))),
        (["pants", "flip-graph", "--s", "6", "--check-connected"],
         lambda r: _first(_expect("nodes", r["nodes"], pants_count(6)),
                          _expect("edges", r["edges"], pants_count(6) * 3),
                          _expect("diameter", r["diameter"], FROZEN["flip_diameter"][6]))),
        (["pants", "dual", "--s", "6", "--members", members],
         lambda r: _expect("signature", r["signature"], [0, 6])),
        (["dual", "classify", "--s", "6", "--members", members, "--edges", "0,1,2"],
         lambda r: _expect("factors", r["factors"], [[0, 6]])),
        (["whitney", "check", "--random-roundtrip", str(trials), "--seed", str(rng.randrange(10**6))],
         lambda r: _first(_expect("trials", r["trials"], trials),
                          _expect("all_recovered", r["all_recovered"], True))),
        (["nonembed", "--source", "k33", "--target", "petersen"],
         lambda r: _expect("embedding_exists", r["embedding_exists"], False)),
        (["census", "good-pairs", "--n", str(n), "--s", str(s)],
         lambda r: _first(_expect("count", r["count"], _census_count(n, s)),
                          _expect("threshold", r["threshold_met"], 2 * n + s >= 6))),
        (["catalog"], lambda r: _expect("names", r["names"], FROZEN["catalog_names"])),
    ]


class ChildResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_child(argv: list[str], env: dict, cwd: str) -> ChildResult:
    """Run one process to completion and collect its own peak RSS."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env, cwd=cwd)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    out = p.stdout.read()
    reader.join()
    p.stdout.close()
    p.stderr.close()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(p.returncode, out.decode(), err[0].decode(), usage.ru_maxrss)


def _cli_items(rng: random.Random, tiny: bool, ctx: "CliContext") -> list[Item]:
    from spherecomplex import enumerate_pants
    import jsonschema
    with open(os.path.join(ctx.root, "src", "spherecomplex", "schemas",
                           "report.schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    commands = cli_commands(rng, enumerate_pants(6))
    if tiny:
        commands = commands[-3:]

    def item(argv, check_results):
        def run():
            return ctx.spawn(argv)

        def check(res: ChildResult):
            if res.code != 0:
                return "exit code %d: %s" % (res.code, res.stderr.strip()[-200:])
            try:
                report = json.loads(res.stdout)
                jsonschema.validate(report, schema)
            except (ValueError, jsonschema.ValidationError) as exc:
                return "report: %s" % str(exc).splitlines()[0]
            return _first(_expect("pass", report["pass"], True), check_results(report["results"]))

        return Item("cli " + " ".join(argv[:2]), run, check)

    return [item(argv, chk) for _ in range(CLI_REPS) for argv, chk in commands]


def child_env(root: str) -> dict:
    """The environment of every child process: the library from ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class CliContext:
    """How CLI items start their processes: the plain entry point, or the
    tracing bootstrap when a tracer collects their spans."""

    def __init__(self, root: str, tracer=None):
        self.root = root
        self.tracer = tracer
        self.env = child_env(root)
        self.max_rss_kb = 0

    def spawn(self, argv: list[str]) -> ChildResult:
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "tracing.py"), *argv]
        res = run_child(cmd, self.env, self.root)
        self.max_rss_kb = max(self.max_rss_kb, res.maxrss_kb)
        if self.tracer is not None:
            res = res._replace(stderr=self.tracer.absorb_child(res.stderr))
        return res


def build(name: str, seed: int, tiny: bool = False, cli_ctx: Optional[CliContext] = None) -> list[Item]:
    """Make a workload's items from its seed; all inputs are built here."""
    rng = random.Random("%s:%d" % (name, seed))
    if name == "homology":
        return _homology_items(rng, tiny)
    if name == "rigidity":
        return _rigidity_items(rng, tiny)
    if name == "flip-lift":
        return _flip_lift_items(rng, tiny)
    if name == "cli":
        return _cli_items(rng, tiny, cli_ctx)
    raise ValueError("unknown workload %r" % (name,))
