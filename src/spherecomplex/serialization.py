"""JSON and DOT interchange for complexes, duals, multigraphs and maps.

Every ``*_to_dict`` function returns plain JSON-ready data with
deterministic ordering, so ``dumps`` output is byte-identical across
runs on equal inputs.  Schemas for each format ship in the
``schemas/`` package directory.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from .dual import DualMultigraph
    from .flagcomplex import FlagComplex
    from .genus_zero import GoodPairCensus
    from .multigraph import Multigraph
    from .rigidity import CaterpillarWitness, RigidityCertificate
    from .search import VertexMap
    from .whitney import EdgeBijection


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dot_quote(s: str) -> str:
    """A DOT-safe double-quoted identifier."""
    return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')


# -- flag complexes -------------------------------------------------------

def complex_to_dict(c: FlagComplex) -> dict:
    out = {
        "vertices": list(c.vertices),
        "edges": [list(e) for e in c.edges()],
    }
    if c.meta:
        out["meta"] = dict(c.meta)
    return out


def complex_from_dict(d: Mapping) -> FlagComplex:
    from .flagcomplex import flag_from_adjacency
    try:
        vertices = [str(v) for v in d["vertices"]]
        edges = [(str(a), str(b)) for a, b in d["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed complex document: %s" % (exc,)) from exc
    meta = d.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("malformed complex document: meta must be an object")
    for model, size in (("genus-zero", "s"), ("caterpillar", "m")):
        if meta and meta.get("model") == model and type(meta.get(size)) is not int:
            raise ValueError("malformed complex document: a %s model needs "
                             "an integer %r in meta" % (model, size))
    return flag_from_adjacency(vertices, edges, meta=meta)


def complex_to_dot(c: FlagComplex, name: str = "complex") -> str:
    lines = ["graph %s {" % dot_quote(name)]
    for v in c.vertices:
        lines.append("  %s;" % dot_quote(v))
    for a, b in c.edges():
        lines.append("  %s -- %s;" % (dot_quote(a), dot_quote(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- dual multigraphs -----------------------------------------------------

def dual_to_dict(d: DualMultigraph) -> dict:
    out = {
        "pants": list(d.pants),
        "bonds": [list(b) for b in d.bonds],
        "legs": [{"slot": sl, "label": lb} for sl, lb in d.legs],
    }
    if d.bond_labels is not None:
        out["bond_labels"] = list(d.bond_labels)
    return out


def dual_from_dict(doc: Mapping) -> DualMultigraph:
    from .dual import DualMultigraph
    try:
        pants = [str(p) for p in doc["pants"]]
        bonds = [(str(a), str(b)) for a, b in doc["bonds"]]
        legs = [(str(l["slot"]), str(l["label"])) for l in doc["legs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed dual multigraph document: %s" % (exc,)) from exc
    labels = doc.get("bond_labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("malformed dual multigraph document: "
                         "bond_labels must be an array")
    return DualMultigraph(pants, bonds, legs,
                          bond_labels=None if labels is None else [str(x) for x in labels])


def dual_to_dot(d: DualMultigraph, name: str = "dual") -> str:
    """DOT drawing: pants as circles, bonds as edges (loops and parallel
    bonds stay distinct edges), legs as half-edges ending in anonymous
    point-shaped terminals labeled by the boundary label."""
    from .dual import split_slot
    lines = ["graph %s {" % dot_quote(name)]
    for p in d.pants:
        lines.append("  %s;" % dot_quote(p))
    for i in range(len(d.bonds)):
        u, v = d.bond_endpoints(i)
        lines.append("  %s -- %s [label=%s];"
                     % (dot_quote(u), dot_quote(v), dot_quote(d.bond_label(i))))
    for k, (sl, lb) in enumerate(d.legs):
        term = "__leg%d" % k
        lines.append("  %s [shape=point, label=\"\"];" % dot_quote(term))
        pid = split_slot(sl)[0]
        lines.append("  %s -- %s [label=%s];" % (dot_quote(pid), dot_quote(term), dot_quote(lb)))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- multigraphs and edge maps --------------------------------------------

def multigraph_to_dict(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": {eid: list(g.endpoints(eid)) for eid in g.edge_ids},
    }


def multigraph_from_dict(doc: Mapping) -> Multigraph:
    from .multigraph import Multigraph
    try:
        vertices = [str(v) for v in doc["vertices"]]
        edges = {str(eid): (str(pair[0]), str(pair[1]))
                 for eid, pair in doc["edges"].items()}
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ValueError("malformed multigraph document: %s" % (exc,)) from exc
    return Multigraph(vertices, edges)


def edge_map_to_dict(source: Multigraph, target: Multigraph,
                     mapping: Mapping[str, str]) -> dict:
    return {
        "source": multigraph_to_dict(source),
        "target": multigraph_to_dict(target),
        "map": dict(sorted(mapping.items())),
    }


def edge_map_from_dict(doc: Mapping) -> tuple[Multigraph, Multigraph, dict[str, str]]:
    try:
        source = multigraph_from_dict(doc["source"])
        target = multigraph_from_dict(doc["target"])
        mapping = {str(k): str(v) for k, v in doc["map"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError("malformed edge map document: %s" % (exc,)) from exc
    return source, target, mapping


def edge_bijection_from_dict(doc: Mapping) -> EdgeBijection:
    from .whitney import EdgeBijection
    source, target, mapping = edge_map_from_dict(doc)
    return EdgeBijection(source, target, mapping)


# -- vertex maps, certificates, reports -----------------------------------

def vertex_map_to_dict(vm: VertexMap, meta: Optional[dict] = None) -> dict:
    out = {
        "vertices": list(vm.source.vertices),
        "map": {v: vm.assignment[v] for v in vm.source.vertices},
    }
    if meta:
        out["meta"] = dict(meta)
    return out


def witness_to_dict(w: CaterpillarWitness) -> dict:
    return vertex_map_to_dict(w.vertex_map, meta={
        "moved_vertex": w.moved_vertex,
        "moved_to": w.moved_to,
        "from_type": w.from_type,
        "to_type": w.to_type,
        "reason": w.reason,
    })


def certificate_to_dict(cert: RigidityCertificate,
                        extensions: Sequence[Optional[int]]) -> dict:
    """The certificate with its listed extensions (see
    ``rigidity.certificate_extensions``) in place of its orbits."""
    return {
        "subcomplex": cert.subcomplex_id,
        "ambient": cert.ambient_id,
        "mode": cert.mode,
        "total_maps": cert.total_maps,
        "all_extend": cert.all_extend,
        "extensions": list(extensions),
        "counterexample": cert.counterexample,
        "automorphism_order": cert.automorphism_order,
    }


def census_to_dict(census: GoodPairCensus, n: int, s: int) -> dict:
    return {
        "n": n,
        "s": s,
        "pair_index": census.pair_index,
        "spare_labels": list(census.spare_labels),
        "good_spheres": [list(g) for g in census.good_spheres],
        "good_pairs": [[list(g1), list(g2)] for g1, g2 in census.good_pairs],
        "count": len(census.good_pairs),
        "nonempty": census.nonempty,
        "threshold_met": census.threshold_met,
    }


# -- schemas --------------------------------------------------------------

SCHEMA_NAMES = (
    "complex", "dual_multigraph", "multigraph", "edge_map", "vertex_map",
    "homology_report", "certificate", "census", "report",
)


def load_schema(name: str) -> dict:
    """A published JSON schema by short name (see SCHEMA_NAMES)."""
    # no command reads a schema, so the CLI does not pay for this import
    from importlib import resources
    if name not in SCHEMA_NAMES:
        raise ValueError("unknown schema %r (have %s)"
                         % (name, ", ".join(SCHEMA_NAMES)))
    text = resources.files("spherecomplex.schemas").joinpath(
        name + ".schema.json").read_text(encoding="utf-8")
    return json.loads(text)


