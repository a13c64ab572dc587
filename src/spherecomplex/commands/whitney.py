"""Handlers of ``whitney check`` and ``whitney lift``."""

from .. import serialization as ser
from ..cli import _read_json


def _cmd_whitney_check(args) -> tuple[dict, dict, bool, dict]:
    import random

    from ..multigraph import random_connected_multigraph, scramble
    from ..whitney import (LIFTED, EdgeBijection, find_k3_k13_pair, is_edge_isomorphism,
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
    from ..whitney import LIFTED, lift_edge_isomorphism
    doc = _read_json("--map", args.map)
    psi = ser.edge_bijection_from_dict(doc)
    res = lift_edge_isomorphism(psi)
    results = {
        "verdict": res.verdict,
        "vertex_map": dict(res.vertex_map) if res.vertex_map else None,
        "obstruction": list(res.obstruction) if res.obstruction else None,
    }
    files = {}
    if args.json is not None and res.vertex_map:
        files["--json"] = ser.dumps(ser.vertex_map_to_dict(psi.source.vertices, res.vertex_map))
    return {"input_document": doc}, results, res.verdict == LIFTED, files
