"""Handlers of the ``rigidity`` commands."""

from .. import serialization as ser
from ..cli import _complex_files, _complex_from_args, _id_map, _pants_from_args, _split_members


def _cmd_rigidity_aut(args) -> tuple[dict, dict, bool, dict]:
    from ..flagcomplex import complex_id
    from ..search import automorphism_group
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
    from ..rigidity import certificate_extensions, verify_rigidity
    c, values = _complex_from_args(args)
    xs = _split_members(args.subcomplex) if args.subcomplex is not None else list(c.vertices)
    values.update({"subcomplex": sorted(set(xs)), "mode": args.mode})
    cert = verify_rigidity(xs, c, mode=args.mode)
    results = ser.certificate_to_dict(cert, certificate_extensions(xs, c, cert))
    files = {} if args.json is None else {"--json": ser.dumps(results)}
    return values, results, cert.all_extend, files


def _cmd_rigidity_split(args) -> tuple[dict, dict, bool, dict]:
    from ..rigidity import find_split_spheres
    P = _pants_from_args(args.genus_zero, args.members)
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
    from ..rigidity import build_x_sigma
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
    files = _complex_files(args, x, "x_sigma")
    return {"genus_zero": args.genus_zero, "members": members}, results, True, files


def _cmd_rigidity_witness(args) -> tuple[dict, dict, bool, dict]:
    from ..genus_zero import build_caterpillar_window
    from ..rigidity import caterpillar_witness
    window = build_caterpillar_window(args.m)
    xs = _split_members(args.x)
    w = caterpillar_witness(xs, window)
    results = ser.witness_to_dict(w)
    files = {} if args.json is None else {"--json": ser.dumps(results)}
    return {"m": args.m, "x": sorted(set(xs))}, results, True, files
