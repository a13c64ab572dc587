"""Command-line front end.

Every subcommand writes a JSON report to standard output (or ``--out``)
with a ``results`` section that is byte-identical across runs on equal
inputs; ``timing`` is excluded from that guarantee.  Exit status is 0
when the command's check passes, 1 on a check failure, 2 on usage
errors, malformed input files or unwritable output paths, and 3 when
one of the library's own consistency checks fails (an
``AssertionError``, such as ``rigidity.TransitivityError``); 2 and 3
print one ``error:`` line and no report and write no file.  Relative
``--out``/``--json``/``--dot`` paths resolve against
``SPHERECOMPLEX_OUT_DIR`` when it is set.  Each ``_cmd_*`` returns
``(values, results, passed, files)``, where ``files`` maps an output
option to the text it asked for; ``main`` builds every report from it
and writes every file, and when a write fails it removes the files it
has already written and the directories it made for them, so a failed
command leaves no partial outputs.  Each command imports the library
modules it runs, so a process loads no others, and ``main`` gives only
the command its argv names its arguments (see ``build_parser``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Sequence

from . import serialization as ser

if TYPE_CHECKING:
    from .flagcomplex import FlagComplex
    from .pants import PantsDecomposition

OUT_DIR_ENV = "SPHERECOMPLEX_OUT_DIR"

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUT_DIR_ENV)
    if base:
        return os.path.join(base, path)
    return path


def _write_text(option: str, path: str, text: str, created: list[str]) -> str:
    """Write the file that ``option`` names, creating missing parent
    directories and adding each to ``created``; return its resolved path."""
    full = _resolve_out(path)
    parent = missing = os.path.dirname(full)
    try:
        while missing and not os.path.exists(missing):
            created.append(missing)
            missing = os.path.dirname(missing)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s %r: %s" % (option, path, exc)) from exc
    return full


def _write_outputs(outputs: list[tuple[str, str, str]]) -> None:
    """Write each (option, path, text) in turn; when one fails, remove
    the files written before it and then, deepest first, the directories
    created for them that are left empty, and raise."""
    written, created = [], []
    try:
        for option, path, text in outputs:
            written.append(_write_text(option, path, text, created))
    except ValueError:
        for full in written:
            with contextlib.suppress(OSError):
                os.remove(full)
        for directory in sorted(created, key=len, reverse=True):
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def _read_json(option: str, path: str) -> dict:
    """Read the JSON object in the file that ``option`` names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError("cannot read %s %r: %s" % (option, path, exc)) from exc
    if not isinstance(doc, dict):
        raise ValueError("%s %r: top-level JSON value must be an object" % (option, path))
    return doc


def _digest(command: str, values: dict) -> str:
    blob = ser.dumps({"command": command, "values": values})
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _add_output_flags(p: argparse.ArgumentParser, outputs: str) -> None:
    p.add_argument("--out", metavar="PATH",
                   help="write the report here instead of stdout")
    if "--json" in outputs:
        p.add_argument("--json", metavar="PATH",
                       help="also write the primary artifact as JSON")
    if "--dot" in outputs:
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
    from .genus_zero import build_caterpillar_window, build_genus_zero_complex, catalog
    if args.genus_zero is not None:
        return build_genus_zero_complex(args.genus_zero), {"genus_zero": args.genus_zero}
    if args.caterpillar is not None:
        return (build_caterpillar_window(args.caterpillar).complex,
                {"caterpillar": args.caterpillar})
    if args.catalog is not None:
        return catalog(args.catalog), {"catalog": args.catalog}
    doc = _read_json("--input", args.input)
    c = ser.complex_from_dict(doc)
    return c, {"input_document": doc}


def _complex_from_spec(option: str, spec: str) -> tuple[FlagComplex, dict]:
    """Parse the value of ``option`` (--source or --target): catalog
    name, `genus-zero:S`, `caterpillar:M`, or a JSON file path."""
    from .genus_zero import (build_caterpillar_window, build_genus_zero_complex,
                             catalog, catalog_names)
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
        doc = _read_json(option, spec)
        return ser.complex_from_dict(doc), {"input_document": doc}
    raise ValueError("unknown complex %r: not a catalog name, "
                     "genus-zero:S, caterpillar:M, or file" % (spec,))


def _id_map(src: FlagComplex, dst: FlagComplex, placement: Sequence[int]) -> dict:
    """An index tuple of the search engine as a dict of vertex ids."""
    return dict(zip(src.vertices, map(dst.vertices.__getitem__, placement)))


def _split_members(raw: str) -> list[str]:
    parts = [x.strip() for x in raw.split(";") if x.strip()]
    if not parts:
        raise ValueError("empty member list")
    return parts


def _pants_from_args(s: int, members: str) -> PantsDecomposition:
    """The pants decomposition of the genus-zero complex named by a
    --members value."""
    from .genus_zero import build_genus_zero_complex
    from .pants import PantsDecomposition
    c = build_genus_zero_complex(s)
    parts = _split_members(members)
    try:
        return PantsDecomposition(c, parts)
    except ValueError as exc:
        raise ValueError("not a pants decomposition: %s" % (exc,)) from exc


# -- complex --------------------------------------------------------------

def _cmd_complex_build(args) -> tuple[dict, dict, bool, dict]:
    from .flagcomplex import complex_id, f_vector
    c, values = _complex_from_args(args)
    fv = f_vector(c)
    results = {
        "id": complex_id(c),
        "n_vertices": c.n_vertices,
        "n_edges": c.n_edges,
        "f_vector": list(fv.counts),
        "euler": fv.euler,
    }
    files = {}
    if args.json is not None:
        files["--json"] = ser.dumps(ser.complex_to_dict(c))
    if args.dot is not None:
        files["--dot"] = ser.complex_to_dot(c, name=complex_id(c))
    return values, results, True, files


def _cmd_complex_stats(args) -> tuple[dict, dict, bool, dict]:
    from .flagcomplex import complex_id, f_vector, is_connected, maximal_cliques
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
    return values, results, True, {}


def _cmd_complex_homology(args) -> tuple[dict, dict, bool, dict]:
    from .flagcomplex import f_vector
    from .homology import betti_numbers, report_as_dict
    c, values = _complex_from_args(args)
    if args.max_dim is not None:
        values["max_dim"] = args.max_dim
        max_dim = args.max_dim
    else:
        max_dim = max(len(f_vector(c).counts) - 1, 0)
    report = betti_numbers(c, max_dim=max_dim)
    results = report_as_dict(report)
    files = {} if args.json is None else {"--json": ser.dumps(results)}
    return values, results, True, files


# -- pants ----------------------------------------------------------------

def _cmd_pants_enumerate(args) -> tuple[dict, dict, bool, dict]:
    from .pants import enumerate_pants
    systems = enumerate_pants(args.s)
    results = {
        "s": args.s,
        "count": len(systems),
        "system_size": args.s - 3,
        "systems": [list(P.sorted_members()) for P in systems],
    }
    return {"s": args.s}, results, True, {}


def _cmd_pants_flip_graph(args) -> tuple[dict, dict, bool, dict]:
    from .pants import pants_flip_graph
    fg = pants_flip_graph(args.s)
    results = {
        "s": args.s,
        "nodes": len(fg.nodes),
        "edges": len(fg.edges),
        "connected": fg.connected,
        "diameter": fg.diameter,
    }
    files = {}
    if args.dot is not None:
        lines = ["graph flip_graph {"]
        for node in fg.nodes:
            lines.append("  %s;" % ser.dot_quote(node))
        for a, b in fg.edges:
            lines.append("  %s -- %s;" % (ser.dot_quote(a), ser.dot_quote(b)))
        lines.append("}")
        files["--dot"] = "\n".join(lines) + "\n"
    values = {"s": args.s, "check_connected": bool(args.check_connected)}
    return values, results, fg.connected if args.check_connected else True, files


def _cmd_pants_dual(args) -> tuple[dict, dict, bool, dict]:
    from .dual import dual_of_pants, signature_of_dual
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
    files = {}
    if args.json is not None:
        files["--json"] = ser.dumps(ser.dual_to_dict(d))
    if args.dot is not None:
        files["--dot"] = ser.dual_to_dot(d)
    return {"s": args.s, "members": members}, results, True, files


# -- dual -----------------------------------------------------------------

def _cmd_dual_classify(args) -> tuple[dict, dict, bool, dict]:
    from .dual import classify_link, dual_of_pants
    if args.input is not None:
        if args.s is not None or args.members is not None:
            raise ValueError("--input FILE cannot be combined with --s or --members")
        doc = _read_json("--input", args.input)
        d = ser.dual_from_dict(doc)
        values = {"input_document": doc}
    else:
        if args.s is None or args.members is None:
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
    return values, results, True, {}


# -- whitney --------------------------------------------------------------

def _cmd_whitney_check(args) -> tuple[dict, dict, bool, dict]:
    import random

    from .multigraph import random_connected_multigraph, scramble
    from .whitney import (LIFTED, EdgeBijection, find_k3_k13_pair, is_edge_isomorphism,
                          lift_edge_isomorphism)
    if args.random_roundtrip is not None:
        if args.map is not None:
            raise ValueError("--map FILE cannot be combined with --random-roundtrip N")
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
        return {"random_roundtrip": trials, "seed": seed}, results, not failures, {}
    if args.map is None:
        raise ValueError("need --map FILE or --random-roundtrip N")
    if args.seed is not None:
        raise ValueError("--seed S needs --random-roundtrip N")
    doc = _read_json("--map", args.map)
    psi = ser.edge_bijection_from_dict(doc)
    ok = is_edge_isomorphism(psi)
    results = {"edge_isomorphism": ok}
    if ok:
        pair = find_k3_k13_pair(psi)
        results["k3_k13_pair"] = list(pair) if pair else None
    return {"input_document": doc}, results, ok, {}


def _cmd_whitney_lift(args) -> tuple[dict, dict, bool, dict]:
    from .whitney import LIFTED, is_edge_isomorphism, lift_edge_isomorphism
    doc = _read_json("--map", args.map)
    psi = ser.edge_bijection_from_dict(doc)
    if not is_edge_isomorphism(psi):
        raise ValueError("--map is not an edge isomorphism; run `whitney check`")
    res = lift_edge_isomorphism(psi)
    results = {
        "verdict": res.verdict,
        "vertex_map": dict(res.vertex_map) if res.vertex_map else None,
        "obstruction": list(res.obstruction) if res.obstruction else None,
    }
    files = {}
    if args.json is not None and res.vertex_map:
        files["--json"] = ser.dumps({
            "vertices": list(psi.source.vertices),
            "map": dict(res.vertex_map),
        })
    return {"input_document": doc}, results, res.verdict == LIFTED, files


# -- rigidity -------------------------------------------------------------

def _cmd_rigidity_aut(args) -> tuple[dict, dict, bool, dict]:
    from .flagcomplex import complex_id
    from .search import automorphism_group
    c, values = _complex_from_args(args)
    group = automorphism_group(c)
    results = {
        "id": complex_id(c),
        "order": group.order,
        "n_generators": len(group.generators),
        "generators": [_id_map(c, c, g) for g in group.generators],
    }
    return values, results, True, {}


def _cmd_rigidity_verify(args) -> tuple[dict, dict, bool, dict]:
    from .rigidity import certificate_extensions, verify_rigidity
    c, values = _complex_from_args(args)
    xs = _split_members(args.subcomplex) if args.subcomplex is not None else list(c.vertices)
    unknown = [v for v in xs if v not in c]
    if unknown:
        raise ValueError("subcomplex vertices not in the ambient: %r" % unknown)
    values.update({"subcomplex": sorted(set(xs)), "mode": args.mode})
    cert = verify_rigidity(xs, c, mode=args.mode)
    results = ser.certificate_to_dict(cert, certificate_extensions(xs, c, cert))
    files = {} if args.json is None else {"--json": ser.dumps(results)}
    return values, results, cert.all_extend, files


def _cmd_rigidity_split(args) -> tuple[dict, dict, bool, dict]:
    from .rigidity import find_split_spheres
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
    return values, results, True, {}


def _cmd_rigidity_xsigma(args) -> tuple[dict, dict, bool, dict]:
    from .rigidity import build_x_sigma
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
    files = {}
    if args.json is not None:
        files["--json"] = ser.dumps(ser.complex_to_dict(x))
    if args.dot is not None:
        files["--dot"] = ser.complex_to_dot(x, name="x_sigma")
    return {"genus_zero": args.genus_zero, "members": members}, results, True, files


def _cmd_rigidity_witness(args) -> tuple[dict, dict, bool, dict]:
    from .genus_zero import build_caterpillar_window
    from .rigidity import caterpillar_witness
    window = build_caterpillar_window(args.m)
    xs = _split_members(args.x)
    w = caterpillar_witness(xs, window)
    results = ser.witness_to_dict(w)
    files = {} if args.json is None else {"--json": ser.dumps(results)}
    return {"m": args.m, "x": sorted(set(xs))}, results, True, files


# -- nonembed, census, catalog ---------------------------------------------

def _cmd_nonembed(args) -> tuple[dict, dict, bool, dict]:
    from .flagcomplex import complex_id
    from .search import search_embedding
    src, src_rec = _complex_from_spec("--source", args.source)
    dst, dst_rec = _complex_from_spec("--target", args.target)
    shortcut = not args.no_shortcut
    found = search_embedding(src, dst, use_acyclicity_shortcut=shortcut)
    exists = found is not None
    results = {
        "source": complex_id(src),
        "target": complex_id(dst),
        "embedding_exists": exists,
        "embedding": _id_map(src, dst, found) if exists else None,
        "acyclicity_shortcut": shortcut,
        "verdict": "embedding found" if exists else "no embedding",
    }
    values = {"source": src_rec, "target": dst_rec,
              "acyclicity_shortcut": shortcut}
    return values, results, not exists, {}


def _cmd_census_good_pairs(args) -> tuple[dict, dict, bool, dict]:
    from .genus_zero import CutLabeling, good_pair_census
    cut = CutLabeling.from_signature(args.n, args.s)
    census = good_pair_census(cut, args.pair)
    results = ser.census_to_dict(census, args.n, args.s)
    files = {} if args.json is None else {"--json": ser.dumps(results)}
    values = {"n": args.n, "s": args.s, "pair": args.pair}
    return values, results, census.nonempty == census.threshold_met, files


def _cmd_catalog(args) -> tuple[dict, dict, bool, dict]:
    from .genus_zero import catalog, catalog_names
    entries = {}
    for name in catalog_names():
        c = catalog(name)
        entries[name] = {"n_vertices": c.n_vertices, "n_edges": c.n_edges}
    results = {"names": list(catalog_names()), "complexes": entries}
    return {}, results, True, {}


# -- parser ----------------------------------------------------------------

_S = ("--s", {"type": int, "required": True})
_GENUS_ZERO = ("--genus-zero", {"type": int, "required": True, "metavar": "S"})
_MEMBERS = ("--members", {"required": True})
_COMPLEX_SPEC = "catalog name, genus-zero:S, caterpillar:M, or file"

# group -> (help, {action: leaf}), or the group's one leaf itself; a leaf
# is (help, command, whether it reads a complex source, its other
# arguments, its output files besides --out)
_COMMANDS = {
    "complex": ("build and measure flag complexes", {
        "build": ("build a complex and export it", _cmd_complex_build, True, (),
                  "--json --dot"),
        "stats": ("f-vector, connectivity, cliques", _cmd_complex_stats, True, (), ""),
        "homology": ("integer homology via Smith normal form", _cmd_complex_homology, True, (
            ("--max-dim", {"type": int, "default": None,
                           "help": "top homology dimension (default: top simplex dimension)"}),
        ), "--json"),
    }),
    "pants": ("pants decompositions and flip moves", {
        "enumerate": ("all pants decompositions for s labels", _cmd_pants_enumerate, False,
                      (_S,), ""),
        "flip-graph": ("flip graph over pants decompositions", _cmd_pants_flip_graph, False, (
            _S,
            ("--check-connected", {"action": "store_true",
                                   "help": "fail (exit 1) when the flip graph is disconnected"}),
        ), "--dot"),
        "dual": ("dual multigraph of a pants decomposition", _cmd_pants_dual, False, (
            _S,
            ("--members", {"required": True,
                           "help": "semicolon-separated sphere ids, e.g. "
                                   "'p:1,2|s=5;p:1,2,5|s=5'"}),
        ), "--json --dot"),
    }),
    "dual": ("operations on dual multigraphs", {
        "classify": ("classify the link of an edge subset", _cmd_dual_classify, False, (
            ("--edges", {"required": True, "help": "comma-separated bond indices, e.g. '0,2'"}),
            ("--input", {"metavar": "FILE", "help": "dual multigraph JSON file"}),
            ("--s", {"type": int, "help": "genus-zero s (with --members)"}),
            ("--members", {"help": "pants decomposition members (with --s)"}),
        ), ""),
    }),
    "whitney": ("edge isomorphisms and lifting", {
        "check": ("check an edge map, or run random roundtrips", _cmd_whitney_check, False, (
            ("--map", {"metavar": "FILE", "help": "edge map JSON file"}),
            ("--random-roundtrip", {"type": int, "metavar": "N",
                                    "help": "run N scramble-recover trials instead"}),
            ("--seed", {"type": int, "default": None}),
        ), ""),
        "lift": ("lift an edge isomorphism to vertices", _cmd_whitney_lift, False,
                 (("--map", {"metavar": "FILE", "required": True}),), "--json"),
    }),
    "rigidity": ("automorphisms and rigidity certification", {
        "aut": ("automorphism group", _cmd_rigidity_aut, True, (), ""),
        "verify": ("exhaustive rigidity certificate", _cmd_rigidity_verify, True, (
            ("--subcomplex", {"help": "semicolon-separated vertex ids "
                                      "(default: the whole complex)"}),
            ("--mode", {"choices": ["plain", "over-maximal-maps"], "default": "plain"}),
        ), "--json"),
        "split": ("split spheres for a pants member", _cmd_rigidity_split, False,
                  (_GENUS_ZERO, _MEMBERS, ("--sphere", {"required": True})), ""),
        "xsigma": ("sigma plus the links of its co-member sets", _cmd_rigidity_xsigma, False,
                   (_GENUS_ZERO, _MEMBERS), "--json --dot"),
        "witness": ("caterpillar non-rigidity witness", _cmd_rigidity_witness, False, (
            ("--m", {"type": int, "required": True, "help": "window half-width"}),
            ("--x", {"required": True, "help": "semicolon-separated interior vertex ids"}),
        ), "--json"),
    }),
    "nonembed": ("exhaustively refute injective simplicial embeddings", _cmd_nonembed, False, (
        ("--source", {"required": True, "help": _COMPLEX_SPEC}),
        ("--target", {"required": True, "help": _COMPLEX_SPEC}),
        ("--no-shortcut", {"action": "store_true", "help": "skip the acyclic-target pruning"}),
    ), ""),
    "census": ("good-pair censuses", {
        "good-pairs": ("good pairs for one cut-sphere pair", _cmd_census_good_pairs, False, (
            ("--n", {"type": int, "required": True}),
            _S,
            ("--pair", {"type": int, "default": 1, "help": "cut-sphere pair index"}),
        ), "--json"),
    }),
    "catalog": ("list the named reference complexes", _cmd_catalog, False, (), ""),
}


def _add_leaf(p: argparse.ArgumentParser, leaf: tuple) -> None:
    _, command, source, arguments, outputs = leaf
    if source:
        _add_complex_source(p)
    for flag, options in arguments:
        p.add_argument(flag, **options)
    _add_output_flags(p, outputs)
    p.set_defaults(func=command)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Without ``argv`` it holds every command;
    with the ``argv`` it is about to parse, only the group and action
    that argv names get their subcommands and arguments.  Every group
    and action is still registered with its help, so help texts and
    usage errors are those of the whole tree."""
    group = action = None
    if argv and argv[0] in _COMMANDS:
        group, action = argv[0], (argv[1] if len(argv) > 1 else None)
    top = argparse.ArgumentParser(
        prog="spherecomplex",
        description="Finite sphere-complex machinery: genus-zero models, "
                    "pants and flip graphs, dual multigraphs, edge-isomorphism "
                    "lifting, homology, and rigidity certification.")
    sub = top.add_subparsers(dest="group", required=True)
    for name, entry in _COMMANDS.items():
        p = sub.add_parser(name, help=entry[0])
        if group not in (None, name):
            continue
        leaves = entry[1]
        if not isinstance(leaves, dict):
            _add_leaf(p, entry)
            continue
        actions = p.add_subparsers(dest="action", required=True)
        for key, leaf in leaves.items():
            q = actions.add_parser(key, help=leaf[0])
            if action not in leaves or action == key:
                _add_leaf(q, leaf)
    return top


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    command = " ".join(filter(None, (args.group, getattr(args, "action", None))))
    started = time.perf_counter()
    try:
        values, results, passed, files = args.func(args)
        report = {
            "command": command,
            "inputs": {"digest": _digest(command, values), "values": values},
            "results": results,
            "pass": passed,
            "timing": {"seconds": round(time.perf_counter() - started, 6)},
        }
        # "--json" -> args.json, "--dot" -> args.dot
        outputs = [(option, getattr(args, option[2:]), text)
                   for option, text in files.items()]
        if args.out is not None:
            outputs.append(("--out", args.out, ser.dumps(report)))
        _write_outputs(outputs)
        if args.out is None:
            sys.stdout.write(ser.dumps(report))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print("error: internal check failed: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
