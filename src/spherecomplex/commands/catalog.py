"""Handlers of ``nonembed``, ``census good-pairs`` and ``catalog``."""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .. import serialization as ser
from ..cli import _id_map, _read_json

if TYPE_CHECKING:
    from ..flagcomplex import FlagComplex


def _complex_from_spec(option: str, spec: str) -> tuple[FlagComplex, dict]:
    """Parse the value of ``option`` (--source or --target): catalog
    name, `genus-zero:S`, `caterpillar:M`, or a JSON file path."""
    from ..genus_zero import (build_caterpillar_window, build_genus_zero_complex,
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


def _cmd_nonembed(args) -> tuple[dict, dict, bool, dict]:
    from ..flagcomplex import complex_id
    from ..search import search_embedding
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
    from ..genus_zero import CutLabeling, good_pair_census
    cut = CutLabeling.from_signature(args.n, args.s)
    census = good_pair_census(cut, args.pair)
    results = ser.census_to_dict(census, args.n, args.s)
    files = {} if args.json is None else {"--json": ser.dumps(results)}
    values = {"n": args.n, "s": args.s, "pair": args.pair}
    return values, results, census.nonempty == census.threshold_met, files


def _cmd_catalog(args) -> tuple[dict, dict, bool, dict]:
    from ..genus_zero import catalog, catalog_names
    entries = {}
    for name in catalog_names():
        c = catalog(name)
        entries[name] = {"n_vertices": c.n_vertices, "n_edges": c.n_edges}
    results = {"names": list(catalog_names()), "complexes": entries}
    return {}, results, True, {}
