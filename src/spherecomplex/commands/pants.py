"""Handlers of the ``pants`` commands and ``dual classify``."""

from .. import serialization as ser
from ..cli import _pants_from_args, _read_json


def _cmd_pants_enumerate(args) -> tuple[dict, dict, bool, dict]:
    from ..pants import enumerate_pants
    systems = enumerate_pants(args.s)
    results = {
        "s": args.s,
        "count": len(systems),
        "system_size": args.s - 3,
        "systems": [list(P.sorted_members()) for P in systems],
    }
    return {"s": args.s}, results, True, {}


def _cmd_pants_flip_graph(args) -> tuple[dict, dict, bool, dict]:
    from ..pants import pants_flip_graph
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
        files["--dot"] = ser.graph_to_dot("flip_graph", fg.nodes, fg.edges)
    values = {"s": args.s, "check_connected": bool(args.check_connected)}
    return values, results, fg.connected if args.check_connected else True, files


def _cmd_pants_dual(args) -> tuple[dict, dict, bool, dict]:
    from ..dual import dual_of_pants, signature_of_dual
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
        files["--json"] = ser.dumps(results["dual"])
    if args.dot is not None:
        files["--dot"] = ser.dual_to_dot(d)
    return {"s": args.s, "members": members}, results, True, files


def _cmd_dual_classify(args) -> tuple[dict, dict, bool, dict]:
    from ..dual import classify_link, dual_of_pants
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
    parts = [x.strip() for x in args.edges.split(",") if x.strip()]
    # only what str(i) writes: ASCII digits with no sign, underscore or leading zero
    if not all(x.isascii() and x.isdecimal() and x[0] != "0" or x == "0" for x in parts):
        raise ValueError("--edges must be comma-separated bond indices")
    try:
        eta = sorted(set(map(int, parts)))
    except ValueError:  # more digits than int() reads, so no bond's index
        raise ValueError("--edges: bond index out of range") from None
    values["edges"] = eta
    dec = classify_link(d, eta)
    results = {
        "eta": eta,
        "eta_labels": [d.bond_label(i) for i in eta],
        "factors": [list(f) for f in dec.as_pairs()],
    }
    return values, results, True, {}
