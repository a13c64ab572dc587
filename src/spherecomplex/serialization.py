"""JSON and DOT interchange for complexes, duals, multigraphs and maps.

Every ``*_to_dict`` function returns plain JSON-ready data with
deterministic ordering, so ``dumps`` output is byte-identical across
runs on equal inputs.  Schemas for each format ship in the
``schemas/`` package directory.
"""

from __future__ import annotations

import json
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


# -- reading: every reader rejects what its schema rejects, and coerces
# nothing; the library checks the rules a schema cannot state

def _fields(doc, kind: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Raise unless ``doc`` is an object with every ``required`` key and
    no key outside ``required`` and ``optional``."""
    if not isinstance(doc, dict):
        raise ValueError("malformed %s document: %s where an object belongs"
                         % (kind, type(doc).__name__))
    for key in required:
        if key not in doc:
            raise ValueError("malformed %s document: missing %r" % (kind, key))
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError("malformed %s document: unknown key %r" % (kind, key))


def _array(items, kind: str, what: str) -> list:
    if not isinstance(items, list):
        raise ValueError("malformed %s document: %s must be an array" % (kind, what))
    return items


def _strings(items, kind: str, what: str, size: Optional[int] = None,
             unique: bool = False) -> list[str]:
    """``items``, unless it is not an array of strings, has other than
    ``size`` items (when given) or repeats one (when ``unique``)."""
    if not all(isinstance(x, str) for x in _array(items, kind, what)) or \
            size not in (None, len(items)):
        raise ValueError("malformed %s document: %s must be an array of %sstrings"
                         % (kind, what, "" if size is None else "%d " % size))
    if unique and len(set(items)) != len(items):
        raise ValueError("malformed %s document: %s repeat an item" % (kind, what))
    return items


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
    _fields(d, "complex", ("vertices", "edges"), ("meta",))
    vertices = _strings(d["vertices"], "complex", "vertices", unique=True)
    edges = [_strings(e, "complex", "an edge", 2)
             for e in _array(d["edges"], "complex", "edges")]
    meta = d.get("meta")
    if "meta" in d and not isinstance(meta, dict):
        raise ValueError("malformed complex document: meta must be an object")
    for model, size in (("genus-zero", "s"), ("caterpillar", "m")):
        if meta and meta.get("model") == model and type(meta.get(size)) is not int:
            raise ValueError("malformed complex document: a %s model needs "
                             "an integer %r in meta" % (model, size))
    return flag_from_adjacency(vertices, edges, meta=meta)


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
    kind = "dual multigraph"
    _fields(doc, kind, ("pants", "bonds", "legs"), ("bond_labels",))
    pants = _strings(doc["pants"], kind, "pants")
    # the schema's slot pattern reads "." as any character but a newline
    if any("\n" in p for p in pants):
        raise ValueError("malformed %s document: a pants id holds a newline" % kind)
    bonds = [_strings(b, kind, "a bond", 2) for b in _array(doc["bonds"], kind, "bonds")]
    legs = []
    for leg in _array(doc["legs"], kind, "legs"):
        _fields(leg, kind, ("slot", "label"))
        if not isinstance(leg["slot"], str) or not isinstance(leg["label"], str):
            raise ValueError("malformed %s document: a leg's slot and label must be strings"
                             % kind)
        legs.append((leg["slot"], leg["label"]))
    labels = None
    if "bond_labels" in doc:
        labels = _strings(doc["bond_labels"], kind, "bond_labels")
    return DualMultigraph(pants, bonds, legs, bond_labels=labels)


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
    _fields(doc, "multigraph", ("vertices", "edges"))
    vertices = _strings(doc["vertices"], "multigraph", "vertices", unique=True)
    edges = doc["edges"]
    if not isinstance(edges, dict) or not all(isinstance(eid, str) for eid in edges):
        raise ValueError("malformed multigraph document: edges must be an object")
    return Multigraph(vertices, {eid: tuple(_strings(pair, "multigraph", "edge %r" % eid, 2))
                                 for eid, pair in edges.items()})


def edge_map_to_dict(source: Multigraph, target: Multigraph,
                     mapping: Mapping[str, str]) -> dict:
    return {
        "source": multigraph_to_dict(source),
        "target": multigraph_to_dict(target),
        "map": dict(sorted(mapping.items())),
    }


def edge_bijection_from_dict(doc: Mapping) -> EdgeBijection:
    from .whitney import EdgeBijection
    _fields(doc, "edge map", ("source", "target", "map"))
    source, target = multigraph_from_dict(doc["source"]), multigraph_from_dict(doc["target"])
    mapping = doc["map"]
    if not isinstance(mapping, dict) or not all(
            isinstance(x, str) for x in (*mapping, *mapping.values())):
        raise ValueError("malformed edge map document: map must map strings to strings")
    return EdgeBijection(source, target, mapping)


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
    """A published JSON schema by short name (see SCHEMA_NAMES)."""
    # no command reads a schema, so the CLI does not pay for this import
    from importlib import resources
    if name not in SCHEMA_NAMES:
        raise ValueError("unknown schema %r (have %s)"
                         % (name, ", ".join(SCHEMA_NAMES)))
    text = resources.files("spherecomplex.schemas").joinpath(
        name + ".schema.json").read_text(encoding="utf-8")
    return json.loads(text)


