"""JSON and DOT interchange for complexes, duals, multigraphs and maps.

Every ``*_to_dict`` function returns plain JSON-ready data with
deterministic ordering, so ``dumps`` output is byte-identical across
runs on equal inputs.  Schemas for each format ship in the
``schemas/`` package directory, and each ``*_from_dict`` reader checks
its document against its schema, which is the one statement of the
format, before it builds anything.
"""

from __future__ import annotations

import json
import os
import re
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from .dual import DualMultigraph
    from .flagcomplex import FlagComplex
    from .genus_zero import GoodPairCensus
    from .multigraph import Multigraph
    from .rigidity import CaterpillarWitness, RigidityCertificate
    from .whitney import EdgeBijection


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dot_quote(s: str) -> str:
    """A DOT-safe double-quoted identifier."""
    return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')


# -- reading: every reader checks its document against its schema, builds
# from it and coerces nothing; the library checks what no schema states

_TYPES = {"object": (dict, "an object"), "array": (list, "an array"), "string": (str, "a string")}


def _check(doc, schema: dict, kind: str, root: Optional[dict] = None, where=None) -> None:
    """Raise ValueError naming the path to the part of ``doc`` that breaks
    ``schema``, a node of the input schema ``root``.  The keywords are the
    ones the input schemas use: ``type``, ``required``, ``properties``,
    ``additionalProperties`` (false or a schema), ``items``, ``minItems``,
    ``maxItems``, ``uniqueItems`` (of strings), ``pattern`` (found by
    ``re.search``, as ``jsonschema`` does) and a local ``$ref`` into
    ``$defs``; ``$schema``, ``$id`` and ``title`` are annotations.
    ``where`` is the path to ``doc``, None at the top or (parent, key or
    index); ``_broken`` writes it out, such as ``edges[0]`` or ``map.e``,
    only on failure."""
    root = root or schema
    if "$ref" in schema:
        _check(doc, root["$defs"][schema["$ref"].removeprefix("#/$defs/")], kind, root, where)
    if "type" in schema:
        cls, name = _TYPES[schema["type"]]
        # JSON object keys are strings; a Python caller may pass others
        if not isinstance(doc, cls) or cls is dict and not all(isinstance(k, str) for k in doc):
            _broken(kind, where, "must be " + name)
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                _broken(kind, where, "has no key %r" % key)
        properties, extra = schema.get("properties", {}), schema.get("additionalProperties", {})
        for key, value in doc.items():
            sub = properties.get(key, extra)
            if sub is False:
                _broken(kind, where, "has the unknown key %r" % key)
            if sub:  # an empty schema, such as meta's values get, allows anything
                _check(value, sub, kind, root, (where, key))
    elif isinstance(doc, list):
        if "items" in schema:
            for k, item in enumerate(doc):
                _check(item, schema["items"], kind, root, (where, k))
        if len(doc) < schema.get("minItems", 0):
            _broken(kind, where, "must have at least %d items" % schema["minItems"])
        if len(doc) > schema.get("maxItems", len(doc)):
            _broken(kind, where, "must have at most %d items" % schema["maxItems"])
        if schema.get("uniqueItems") and len(set(doc)) != len(doc):
            _broken(kind, where, "must not repeat an item")
    elif isinstance(doc, str) and "pattern" in schema and not re.search(schema["pattern"], doc):
        _broken(kind, where, "does not match %r" % schema["pattern"])


def _broken(kind: str, where, rule: str):
    """Raise the ValueError for a ``kind`` document whose part at
    ``where``, as ``_check`` links it, breaks ``rule``.  Keys are strings
    here, since only objects of string keys are walked."""
    steps = []
    while where is not None:
        where, step = where
        steps.append(step)
    path = ""
    for step in reversed(steps):
        if isinstance(step, int):
            path = "%s[%d]" % (path, step)
        else:
            path = "%s.%s" % (path, step) if path else step
    raise ValueError("malformed %s document: %s %s" % (kind, path or "the document", rule))


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
    _check(d, load_schema("complex"), "complex")
    meta = d.get("meta")
    for model, size in (("genus-zero", "s"), ("caterpillar", "m")):
        if meta and meta.get("model") == model and type(meta.get(size)) is not int:
            raise ValueError("malformed complex document: a %s model needs "
                             "an integer %r in meta" % (model, size))
    if meta and meta.get("model") == "genus-zero":
        from .genus_zero import _spheres
        _spheres(d["vertices"], meta["s"])  # ids vertex_id writes for meta's s
    return flag_from_adjacency(d["vertices"], d["edges"], meta=meta)


def graph_to_dot(name: str, vertices: Iterable[str],
                 edges: Iterable[tuple[str, str]]) -> str:
    """DOT drawing of a simple graph; ``name`` is written as given."""
    lines = ["graph %s {" % name]
    lines.extend("  %s;" % dot_quote(v) for v in vertices)
    lines.extend("  %s -- %s;" % (dot_quote(a), dot_quote(b)) for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def complex_to_dot(c: FlagComplex, name: str = "complex") -> str:
    return graph_to_dot(dot_quote(name), c.vertices, c.edges())


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
    """The dual a document describes; ``DualMultigraph`` checks its
    pants ids and slots."""
    from .dual import DualMultigraph
    _check(doc, load_schema("dual_multigraph"), "dual multigraph")
    return DualMultigraph(doc["pants"], doc["bonds"],
                          [(leg["slot"], leg["label"]) for leg in doc["legs"]],
                          bond_labels=doc.get("bond_labels"))


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
    _check(doc, load_schema("multigraph"), "multigraph")
    return Multigraph(doc["vertices"], doc["edges"])


def edge_map_to_dict(source: Multigraph, target: Multigraph,
                     mapping: Mapping[str, str]) -> dict:
    return {
        "source": multigraph_to_dict(source),
        "target": multigraph_to_dict(target),
        "map": dict(sorted(mapping.items())),
    }


def edge_bijection_from_dict(doc: Mapping) -> EdgeBijection:
    from .multigraph import Multigraph
    from .whitney import EdgeBijection
    _check(doc, load_schema("edge_map"), "edge map")
    return EdgeBijection(*(Multigraph(g["vertices"], g["edges"])
                           for g in (doc["source"], doc["target"])), doc["map"])


# -- vertex maps, certificates, reports -----------------------------------

def vertex_map_to_dict(vertices: Sequence[str], assignment: Mapping[str, str],
                       meta: Optional[dict] = None) -> dict:
    """The map ``assignment`` on the source ``vertices``, in their order."""
    out = {
        "vertices": list(vertices),
        "map": {v: assignment[v] for v in vertices},
    }
    if meta:
        out["meta"] = dict(meta)
    return out


def witness_to_dict(w: CaterpillarWitness) -> dict:
    return vertex_map_to_dict(w.vertex_map.source.vertices, w.vertex_map.assignment, meta={
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
    """A published JSON schema by short name (see SCHEMA_NAMES), read
    from the ``schemas/`` files shipped next to this module as plain
    files, so a command that reads a document loads no resource loader."""
    if name not in SCHEMA_NAMES:
        raise ValueError("unknown schema %r (have %s)"
                         % (name, ", ".join(SCHEMA_NAMES)))
    path = os.path.join(os.path.dirname(__file__), "schemas", name + ".schema.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


