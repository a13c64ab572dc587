"""Command-line front end.

Every subcommand writes a JSON report to standard output (or ``--out``)
with a ``results`` section that is byte-identical across runs on equal
inputs; ``timing`` is excluded from that guarantee.  Exit status is 0
when the command's check passes, 1 on a check failure, and 2 on usage
errors or malformed input files.  Relative ``--out``/``--json``/``--dot``
paths resolve against ``SPHERECOMPLEX_OUT_DIR`` when it is set.  Each
``_cmd_*`` returns ``(values, results, passed)``; ``main`` builds every
report from it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

from . import serialization as ser
from .dual import classify_link, dual_of_pants, signature_of_dual
from .flagcomplex import (FlagComplex, f_vector, is_connected, maximal_cliques)
from .genus_zero import (build_caterpillar_window, build_genus_zero_complex,
                         catalog, catalog_names)
from .homology import betti_numbers, report_as_dict
from .multigraph import random_connected_multigraph, scramble
from .pants import PantsDecomposition, enumerate_pants, pants_flip_graph
from .rigidity import (CutLabeling, caterpillar_witness, complex_id,
                       build_x_sigma, find_split_spheres, good_pair_census,
                       verify_rigidity)
from .search import automorphism_group, search_embedding
from .whitney import (LIFTED, EdgeBijection, find_k3_k13_pair,
                      is_edge_isomorphism, lift_edge_isomorphism)

OUT_DIR_ENV = "SPHERECOMPLEX_OUT_DIR"

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUT_DIR_ENV)
    if base:
        return os.path.join(base, path)
    return path


def _write_text(path: str, text: str) -> None:
    full = _resolve_out(path)
    parent = os.path.dirname(full)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(full, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError("cannot read %s: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise ValueError("%s: top-level JSON value must be an object" % path)
    return doc


def _digest(command: str, values: dict) -> str:
    blob = ser.dumps({"command": command, "values": values})
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _add_output_flags(p: argparse.ArgumentParser, artifact: bool = True,
                      dot: bool = True) -> None:
    p.add_argument("--out", metavar="PATH",
                   help="write the report here instead of stdout")
    if artifact:
        p.add_argument("--json", metavar="PATH",
                       help="also write the primary artifact as JSON")
    if dot:
        p.add_argument("--dot", metavar="PATH",
                       help="also write a DOT drawing")


def _add_complex_source(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--genus-zero", type=int, metavar="S",
                   help="genus-zero complex on s boundary labels")
    g.add_argument("--caterpillar", type=int, metavar="M",
                   help="caterpillar window with spine -m..m")
    g.add_argument("--catalog", metavar="NAME",
                   help="named reference complex (see `catalog`)")
    g.add_argument("--input", metavar="FILE",
                   help="complex JSON file")


def _complex_from_args(args: argparse.Namespace) -> tuple[FlagComplex, dict]:
    """Build the requested complex plus the input record for the report."""
    if args.genus_zero is not None:
        return build_genus_zero_complex(args.genus_zero), {"genus_zero": args.genus_zero}
    if args.caterpillar is not None:
        return (build_caterpillar_window(args.caterpillar).complex,
                {"caterpillar": args.caterpillar})
    if args.catalog is not None:
        return catalog(args.catalog), {"catalog": args.catalog}
    doc = _read_json(args.input)
    c = ser.complex_from_dict(doc)
    return c, {"input_document": doc}


def _complex_from_spec(spec: str) -> tuple[FlagComplex, dict]:
    """Parse a --source/--target value: catalog name, `genus-zero:S`,
    `caterpillar:M`, or a JSON file path."""
    if spec in catalog_names():
        return catalog(spec), {"catalog": spec}
    model, sep, size = spec.partition(":")
    if sep and model in ("genus-zero", "caterpillar"):
        try:
            n = int(size)
        except ValueError:
            raise ValueError("bad complex spec %r: expected genus-zero:S or "
                             "caterpillar:M with an integer S or M" % (spec,)) from None
        if model == "genus-zero":
            return build_genus_zero_complex(n), {"spec": spec}
        return build_caterpillar_window(n).complex, {"spec": spec}
    if os.path.exists(spec):
        doc = _read_json(spec)
        return ser.complex_from_dict(doc), {"input_document": doc}
    raise ValueError("unknown complex %r: not a catalog name, "
                     "genus-zero:S, caterpillar:M, or file" % (spec,))


def _split_members(raw: str) -> list[str]:
    parts = [x.strip() for x in raw.split(";") if x.strip()]
    if not parts:
        raise ValueError("empty member list")
    return parts


def _pants_from_args(s: int, members: str) -> PantsDecomposition:
    """The pants decomposition of the genus-zero complex named by a
    --members value."""
    c = build_genus_zero_complex(s)
    parts = _split_members(members)
    try:
        return PantsDecomposition(c, parts)
    except ValueError as exc:
        raise ValueError("not a pants decomposition: %s" % (exc,)) from exc


# -- complex --------------------------------------------------------------

def _cmd_complex_build(args) -> tuple[dict, dict, bool]:
    c, values = _complex_from_args(args)
    fv = f_vector(c)
    results = {
        "id": complex_id(c),
        "n_vertices": c.n_vertices,
        "n_edges": c.n_edges,
        "f_vector": list(fv.counts),
        "euler": fv.euler,
    }
    if args.json:
        _write_text(args.json, ser.dumps(ser.complex_to_dict(c)))
    if args.dot:
        _write_text(args.dot, ser.complex_to_dot(c, name=complex_id(c)))
    return values, results, True


def _cmd_complex_stats(args) -> tuple[dict, dict, bool]:
    c, values = _complex_from_args(args)
    fv = f_vector(c)
    cliques = maximal_cliques(c)
    degs = [c.degree(v) for v in c.vertices]
    results = {
        "id": complex_id(c),
        "f_vector": list(fv.counts),
        "euler": fv.euler,
        "connected": is_connected(c),
        "n_maximal_cliques": len(cliques),
        "max_clique_size": max((len(q) for q in cliques), default=0),
        "degree_min": min(degs, default=0),
        "degree_max": max(degs, default=0),
    }
    return values, results, True


def _cmd_complex_homology(args) -> tuple[dict, dict, bool]:
    c, values = _complex_from_args(args)
    if args.max_dim is not None:
        values["max_dim"] = args.max_dim
        max_dim = args.max_dim
    else:
        max_dim = max(len(f_vector(c).counts) - 1, 0)
    report = betti_numbers(c, max_dim=max_dim)
    results = report_as_dict(report)
    if args.json:
        _write_text(args.json, ser.dumps(results))
    return values, results, True


# -- pants ----------------------------------------------------------------

def _cmd_pants_enumerate(args) -> tuple[dict, dict, bool]:
    systems = enumerate_pants(args.s)
    results = {
        "s": args.s,
        "count": len(systems),
        "system_size": args.s - 3,
        "systems": [list(P.sorted_members()) for P in systems],
    }
    return {"s": args.s}, results, True


def _cmd_pants_flip_graph(args) -> tuple[dict, dict, bool]:
    fg = pants_flip_graph(args.s)
    results = {
        "s": args.s,
        "nodes": len(fg.nodes),
        "edges": len(fg.edges),
        "connected": fg.connected,
        "diameter": fg.diameter,
    }
    if args.dot:
        lines = ["graph flip_graph {"]
        for node in fg.nodes:
            lines.append("  %s;" % ser.dot_quote(node))
        for a, b in fg.edges:
            lines.append("  %s -- %s;" % (ser.dot_quote(a), ser.dot_quote(b)))
        lines.append("}")
        _write_text(args.dot, "\n".join(lines) + "\n")
    values = {"s": args.s, "check_connected": bool(args.check_connected)}
    return values, results, fg.connected if args.check_connected else True


def _cmd_pants_dual(args) -> tuple[dict, dict, bool]:
    P = _pants_from_args(args.s, args.members)
    members = list(P.sorted_members())
    d = dual_of_pants(P)
    sig = signature_of_dual(d)
    results = {
        "s": args.s,
        "members": members,
        "dual": ser.dual_to_dict(d),
        "signature": list(sig.as_pair()),
    }
    if args.json:
        _write_text(args.json, ser.dumps(ser.dual_to_dict(d)))
    if args.dot:
        _write_text(args.dot, ser.dual_to_dot(d))
    return {"s": args.s, "members": members}, results, True


# -- dual -----------------------------------------------------------------

def _cmd_dual_classify(args) -> tuple[dict, dict, bool]:
    if args.input:
        doc = _read_json(args.input)
        d = ser.dual_from_dict(doc)
        values = {"input_document": doc}
    else:
        if not (args.s and args.members):
            raise ValueError("need --input FILE or both --s and --members")
        P = _pants_from_args(args.s, args.members)
        d = dual_of_pants(P)
        values = {"s": args.s, "members": list(P.sorted_members())}
    try:
        eta = sorted({int(x) for x in args.edges.split(",") if x.strip() != ""})
    except ValueError as exc:
        raise ValueError("--edges must be comma-separated bond indices") from exc
    if not all(0 <= i < len(d.bonds) for i in eta):
        raise ValueError("bond index out of range (have %d bonds)" % len(d.bonds))
    values["edges"] = eta
    dec = classify_link(d, eta)
    results = {
        "eta": eta,
        "eta_labels": [d.bond_label(i) for i in eta],
        "factors": [list(f) for f in dec.as_pairs()],
    }
    return values, results, True


# -- whitney --------------------------------------------------------------

def _cmd_whitney_check(args) -> tuple[dict, dict, bool]:
    if args.random_roundtrip is not None:
        trials = args.random_roundtrip
        if trials < 0:
            raise ValueError("--random-roundtrip N needs N >= 0")
        seed = args.seed if args.seed is not None else 0
        rng = random.Random(seed)
        failures = []
        for t in range(trials):
            g = random_connected_multigraph(rng)
            h, vmap, emap = scramble(g, rng)
            psi = EdgeBijection(g, h, emap)
            if not is_edge_isomorphism(psi):
                failures.append({"trial": t, "stage": "edge-isomorphism"})
                continue
            res = lift_edge_isomorphism(psi)
            if res.verdict == LIFTED:
                if res.vertex_map != vmap:
                    # order-2 targets aside, recovery must be exact
                    failures.append({"trial": t, "stage": "recovery"})
            elif res.verdict != "ambiguous-order-2":
                failures.append({"trial": t, "stage": res.verdict})
        results = {
            "trials": trials,
            "seed": seed,
            "all_recovered": not failures,
            "failures": failures,
        }
        return {"random_roundtrip": trials, "seed": seed}, results, not failures
    if not args.map:
        raise ValueError("need --map FILE or --random-roundtrip N")
    doc = _read_json(args.map)
    psi = ser.edge_bijection_from_dict(doc)
    ok = is_edge_isomorphism(psi)
    results = {"edge_isomorphism": ok}
    if ok:
        pair = find_k3_k13_pair(psi)
        results["k3_k13_pair"] = list(pair) if pair else None
    return {"input_document": doc}, results, ok


def _cmd_whitney_lift(args) -> tuple[dict, dict, bool]:
    doc = _read_json(args.map)
    psi = ser.edge_bijection_from_dict(doc)
    if not is_edge_isomorphism(psi):
        raise ValueError("--map is not an edge isomorphism; run `whitney check`")
    res = lift_edge_isomorphism(psi)
    results = {
        "verdict": res.verdict,
        "vertex_map": dict(res.vertex_map) if res.vertex_map else None,
        "obstruction": list(res.obstruction) if res.obstruction else None,
    }
    if args.json and res.vertex_map:
        _write_text(args.json, ser.dumps({
            "vertices": list(psi.source.vertices),
            "map": dict(res.vertex_map),
        }))
    return {"input_document": doc}, results, res.verdict == LIFTED


# -- rigidity -------------------------------------------------------------

def _cmd_rigidity_aut(args) -> tuple[dict, dict, bool]:
    c, values = _complex_from_args(args)
    group = automorphism_group(c)
    results = {
        "id": complex_id(c),
        "order": group.order,
        "n_generators": len(group.generators),
        "generators": [dict(g.assignment) for g in group.generators],
    }
    return values, results, True


def _cmd_rigidity_verify(args) -> tuple[dict, dict, bool]:
    c, values = _complex_from_args(args)
    xs = _split_members(args.subcomplex) if args.subcomplex else list(c.vertices)
    unknown = [v for v in xs if v not in c]
    if unknown:
        raise ValueError("subcomplex vertices not in the ambient: %r" % unknown)
    values.update({"subcomplex": sorted(set(xs)), "mode": args.mode})
    cert = verify_rigidity(xs, c, mode=args.mode)
    results = ser.certificate_to_dict(cert)
    if args.json:
        _write_text(args.json, ser.dumps(results))
    return values, results, cert.all_extend


def _cmd_rigidity_split(args) -> tuple[dict, dict, bool]:
    P = _pants_from_args(args.genus_zero, args.members)
    if args.sphere not in P.members:
        raise ValueError("--sphere must be a member of the decomposition")
    members = list(P.sorted_members())
    split = find_split_spheres(P, args.sphere)
    results = {
        "s": args.genus_zero,
        "pants": members,
        "sphere": args.sphere,
        "split_spheres": sorted(split),
        "count": len(split),
    }
    values = {"genus_zero": args.genus_zero, "members": members,
              "sphere": args.sphere}
    return values, results, True


def _cmd_rigidity_xsigma(args) -> tuple[dict, dict, bool]:
    P = _pants_from_args(args.genus_zero, args.members)
    members = list(P.sorted_members())
    x = build_x_sigma(P)
    results = {
        "s": args.genus_zero,
        "sigma": members,
        "vertices": list(x.vertices),
        "n_vertices": x.n_vertices,
        "n_edges": x.n_edges,
    }
    if args.json:
        _write_text(args.json, ser.dumps(ser.complex_to_dict(x)))
    if args.dot:
        _write_text(args.dot, ser.complex_to_dot(x, name="x_sigma"))
    return {"genus_zero": args.genus_zero, "members": members}, results, True


def _cmd_rigidity_witness(args) -> tuple[dict, dict, bool]:
    window = build_caterpillar_window(args.m)
    xs = _split_members(args.x)
    w = caterpillar_witness(xs, window)
    results = ser.witness_to_dict(w)
    if args.json:
        _write_text(args.json, ser.dumps(results))
    return {"m": args.m, "x": sorted(set(xs))}, results, True


# -- nonembed, census, catalog ---------------------------------------------

def _cmd_nonembed(args) -> tuple[dict, dict, bool]:
    src, src_rec = _complex_from_spec(args.source)
    dst, dst_rec = _complex_from_spec(args.target)
    shortcut = not args.no_shortcut
    found = search_embedding(src, dst, use_acyclicity_shortcut=shortcut)
    results = {
        "source": complex_id(src),
        "target": complex_id(dst),
        "embedding_exists": found is not None,
        "embedding": dict(found.assignment) if found else None,
        "acyclicity_shortcut": shortcut,
        "verdict": "embedding found" if found else "no embedding",
    }
    values = {"source": src_rec, "target": dst_rec,
              "acyclicity_shortcut": shortcut}
    return values, results, found is None


def _cmd_census_good_pairs(args) -> tuple[dict, dict, bool]:
    cut = CutLabeling.from_signature(args.n, args.s)
    census = good_pair_census(cut, args.pair)
    results = ser.census_to_dict(census, args.n, args.s)
    if args.json:
        _write_text(args.json, ser.dumps(results))
    values = {"n": args.n, "s": args.s, "pair": args.pair}
    return values, results, census.nonempty == census.threshold_met


def _cmd_catalog(args) -> tuple[dict, dict, bool]:
    entries = {}
    for name in catalog_names():
        c = catalog(name)
        entries[name] = {"n_vertices": c.n_vertices, "n_edges": c.n_edges}
    results = {"names": list(catalog_names()), "complexes": entries}
    return {}, results, True


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spherecomplex",
        description="Finite sphere-complex machinery: genus-zero models, "
                    "pants and flip graphs, dual multigraphs, edge-isomorphism "
                    "lifting, homology, and rigidity certification.")
    sub = top.add_subparsers(dest="group", required=True)

    cx = sub.add_parser("complex", help="build and measure flag complexes")
    cxsub = cx.add_subparsers(dest="action", required=True)
    p = cxsub.add_parser("build", help="build a complex and export it")
    _add_complex_source(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_complex_build)
    p = cxsub.add_parser("stats", help="f-vector, connectivity, cliques")
    _add_complex_source(p)
    _add_output_flags(p, artifact=False, dot=False)
    p.set_defaults(func=_cmd_complex_stats)
    p = cxsub.add_parser("homology", help="integer homology via Smith normal form")
    _add_complex_source(p)
    p.add_argument("--max-dim", type=int, default=None,
                   help="top homology dimension (default: top simplex dimension)")
    _add_output_flags(p, dot=False)
    p.set_defaults(func=_cmd_complex_homology)

    pa = sub.add_parser("pants", help="pants decompositions and flip moves")
    pasub = pa.add_subparsers(dest="action", required=True)
    p = pasub.add_parser("enumerate", help="all pants decompositions for s labels")
    p.add_argument("--s", type=int, required=True)
    _add_output_flags(p, artifact=False, dot=False)
    p.set_defaults(func=_cmd_pants_enumerate)
    p = pasub.add_parser("flip-graph", help="flip graph over pants decompositions")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--check-connected", action="store_true",
                   help="fail (exit 1) when the flip graph is disconnected")
    _add_output_flags(p, artifact=False)
    p.set_defaults(func=_cmd_pants_flip_graph)
    p = pasub.add_parser("dual", help="dual multigraph of a pants decomposition")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--members", required=True,
                   help="semicolon-separated sphere ids, e.g. "
                        "'p:1,2|s=5;p:1,2,5|s=5'")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_pants_dual)

    du = sub.add_parser("dual", help="operations on dual multigraphs")
    dusub = du.add_subparsers(dest="action", required=True)
    p = dusub.add_parser("classify", help="classify the link of an edge subset")
    p.add_argument("--edges", required=True,
                   help="comma-separated bond indices, e.g. '0,2'")
    p.add_argument("--input", metavar="FILE", help="dual multigraph JSON file")
    p.add_argument("--s", type=int, help="genus-zero s (with --members)")
    p.add_argument("--members", help="pants decomposition members (with --s)")
    _add_output_flags(p, artifact=False, dot=False)
    p.set_defaults(func=_cmd_dual_classify)

    wh = sub.add_parser("whitney", help="edge isomorphisms and lifting")
    whsub = wh.add_subparsers(dest="action", required=True)
    p = whsub.add_parser("check", help="check an edge map, or run random roundtrips")
    p.add_argument("--map", metavar="FILE", help="edge map JSON file")
    p.add_argument("--random-roundtrip", type=int, metavar="N",
                   help="run N scramble-recover trials instead")
    p.add_argument("--seed", type=int, default=None)
    _add_output_flags(p, artifact=False, dot=False)
    p.set_defaults(func=_cmd_whitney_check)
    p = whsub.add_parser("lift", help="lift an edge isomorphism to vertices")
    p.add_argument("--map", metavar="FILE", required=True)
    _add_output_flags(p, dot=False)
    p.set_defaults(func=_cmd_whitney_lift)

    ri = sub.add_parser("rigidity", help="automorphisms and rigidity certification")
    risub = ri.add_subparsers(dest="action", required=True)
    p = risub.add_parser("aut", help="automorphism group")
    _add_complex_source(p)
    _add_output_flags(p, artifact=False, dot=False)
    p.set_defaults(func=_cmd_rigidity_aut)
    p = risub.add_parser("verify", help="exhaustive rigidity certificate")
    _add_complex_source(p)
    p.add_argument("--subcomplex", help="semicolon-separated vertex ids "
                                        "(default: the whole complex)")
    p.add_argument("--mode", choices=["plain", "over-maximal-maps"],
                   default="plain")
    _add_output_flags(p, dot=False)
    p.set_defaults(func=_cmd_rigidity_verify)
    p = risub.add_parser("split", help="split spheres for a pants member")
    p.add_argument("--genus-zero", type=int, required=True, metavar="S")
    p.add_argument("--members", required=True)
    p.add_argument("--sphere", required=True)
    _add_output_flags(p, artifact=False, dot=False)
    p.set_defaults(func=_cmd_rigidity_split)
    p = risub.add_parser("xsigma", help="sigma plus the links of its co-member sets")
    p.add_argument("--genus-zero", type=int, required=True, metavar="S")
    p.add_argument("--members", required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_rigidity_xsigma)
    p = risub.add_parser("witness", help="caterpillar non-rigidity witness")
    p.add_argument("--m", type=int, required=True,
                   help="window half-width")
    p.add_argument("--x", required=True,
                   help="semicolon-separated interior vertex ids")
    _add_output_flags(p, dot=False)
    p.set_defaults(func=_cmd_rigidity_witness)

    p = sub.add_parser("nonembed",
                       help="exhaustively refute injective simplicial embeddings")
    p.add_argument("--source", required=True,
                   help="catalog name, genus-zero:S, caterpillar:M, or file")
    p.add_argument("--target", required=True,
                   help="catalog name, genus-zero:S, caterpillar:M, or file")
    p.add_argument("--no-shortcut", action="store_true",
                   help="skip the acyclic-target pruning")
    _add_output_flags(p, artifact=False, dot=False)
    p.set_defaults(func=_cmd_nonembed)

    ce = sub.add_parser("census", help="good-pair censuses")
    cesub = ce.add_subparsers(dest="action", required=True)
    p = cesub.add_parser("good-pairs", help="good pairs for one cut-sphere pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--pair", type=int, default=1, help="cut-sphere pair index")
    _add_output_flags(p, dot=False)
    p.set_defaults(func=_cmd_census_good_pairs)

    p = sub.add_parser("catalog", help="list the named reference complexes")
    _add_output_flags(p, artifact=False, dot=False)
    p.set_defaults(func=_cmd_catalog)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.group, getattr(args, "action", None))))
    started = time.perf_counter()
    try:
        values, results, passed = args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    report = {
        "command": command,
        "inputs": {"digest": _digest(command, values), "values": values},
        "results": results,
        "pass": passed,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }
    if args.out:
        _write_text(args.out, ser.dumps(report))
    else:
        sys.stdout.write(ser.dumps(report))
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
