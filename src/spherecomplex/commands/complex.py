"""Handlers of ``complex build``, ``complex stats`` and ``complex homology``."""

from .. import serialization as ser
from ..cli import _complex_files, _complex_from_args


def _cmd_complex_build(args) -> tuple[dict, dict, bool, dict]:
    from ..flagcomplex import complex_id, f_vector
    c, values = _complex_from_args(args)
    fv = f_vector(c)
    results = {
        "id": complex_id(c),
        "n_vertices": c.n_vertices,
        "n_edges": c.n_edges,
        "f_vector": list(fv.counts),
        "euler": fv.euler,
    }
    return values, results, True, _complex_files(args, c, results["id"])


def _cmd_complex_stats(args) -> tuple[dict, dict, bool, dict]:
    from ..flagcomplex import complex_id, f_vector, is_connected, maximal_cliques
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
    from ..flagcomplex import f_vector
    from ..homology import betti_numbers, report_as_dict
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
