"""JSON documents, their schemas, DOT export, and the command line.

Every exported document is validated against the shipped JSON schema for
its type, and the CLI is driven in-process through ``cli.main``.
"""

import argparse
import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from spherecomplex import (
    AutomorphismGroup,
    EdgeBijection,
    Multigraph,
    PantsDecomposition,
    build_caterpillar_window,
    build_genus_zero_complex,
    caterpillar_witness,
    dual_of_pants,
    scramble,
)
from spherecomplex import search
from spherecomplex import serialization as ser
from spherecomplex.cli import build_parser, main

M6 = "p:1,2|s=6;p:1,2,3|s=6;p:1,2,3,4|s=6"
# X_sigma of the three-cherry pants decomposition {1,2}, {3,4}, {5,6} at s = 6
X6_THREE_CHERRY = ("p:1,2,3,4|s=6;p:1,2,3|s=6;p:1,2,4|s=6;p:1,2,5,6|s=6;p:1,2,5|s=6;"
                   "p:1,2,6|s=6;p:1,2|s=6;p:1,3,4|s=6;p:1,5,6|s=6")


INTERNAL_ERROR = ("error: internal check failed: "
                  "the search found a map that is not an embedding\n")


def run_cli(argv, tmp_path, name="report.json"):
    """Run a CLI invocation with --out and return (exit code, report)."""
    out = tmp_path / name
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code), None
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def validate(doc, schema_name):
    jsonschema.validate(doc, ser.load_schema(schema_name))


def k3_to_star_doc():
    k3 = Multigraph(["x", "y", "z"],
                    {"e1": ("x", "y"), "e2": ("y", "z"), "e3": ("x", "z")})
    star = Multigraph(["c", "l1", "l2", "l3"],
                      {"f1": ("c", "l1"), "f2": ("c", "l2"), "f3": ("c", "l3")})
    return ser.edge_map_to_dict(k3, star, {"e1": "f1", "e2": "f2", "e3": "f3"})


class TestDocuments:
    def test_complex_roundtrip(self, c6):
        doc = ser.complex_to_dict(c6)
        validate(doc, "complex")
        back = ser.complex_from_dict(doc)
        assert back.vertices == c6.vertices
        assert back.edges() == c6.edges()
        assert back.meta == c6.meta

    def test_dual_roundtrip(self, c6):
        P = PantsDecomposition(
            c6, ["p:1,2|s=6", "p:1,2,3|s=6", "p:1,2,3,4|s=6"])
        # one pants and no bonds: its label list is empty, not absent
        P3 = PantsDecomposition(build_genus_zero_complex(3), [])
        for d in (dual_of_pants(P), dual_of_pants(P3)):
            doc = ser.dual_to_dict(d)
            validate(doc, "dual_multigraph")
            back = ser.dual_from_dict(json.loads(json.dumps(doc)))
            assert back.pants == d.pants and back.bonds == d.bonds
            assert back.legs == d.legs and back.bond_labels == d.bond_labels

    def test_multigraph_roundtrip(self):
        g = Multigraph(["u", "v"], {"a": ("u", "u"), "b": ("u", "v")})
        doc = ser.multigraph_to_dict(g)
        validate(doc, "multigraph")
        assert ser.multigraph_from_dict(doc) == g

    def test_edge_map_roundtrip(self):
        doc = k3_to_star_doc()
        validate(doc, "edge_map")
        psi = ser.edge_bijection_from_dict(doc)
        assert isinstance(psi, EdgeBijection)
        assert psi["e1"] == "f1"

    def test_witness_document(self):
        win = build_caterpillar_window(4)
        w = caterpillar_witness(["z:0", "w:0"], win)
        doc = ser.witness_to_dict(w)
        validate(doc, "vertex_map")
        assert doc["meta"]["moved_vertex"] == "w:0"
        assert doc["meta"]["from_type"] != doc["meta"]["to_type"]

    def test_malformed_documents_raise(self):
        with pytest.raises(ValueError):
            ser.complex_from_dict({"vertices": ["a"]})
        with pytest.raises(ValueError):
            ser.dual_from_dict({"pants": ["q0"]})
        with pytest.raises(ValueError):
            ser.multigraph_from_dict({"vertices": [], "edges": None})

    def test_dumps_is_stable(self):
        doc = {"b": 1, "a": [2, 3]}
        assert ser.dumps(doc) == ser.dumps(dict(reversed(doc.items())))
        assert ser.dumps(doc).endswith("\n")

    def test_all_schemas_load(self):
        for name in ser.SCHEMA_NAMES:
            schema = ser.load_schema(name)
            jsonschema.Draft202012Validator.check_schema(schema)


# one valid document of each kind a reader reads, and malformed variants:
# each breaks a rule of its schema (type, arity, uniqueItems, required or
# additionalProperties), and none may be coerced into a valid one
VALID_DOCS = {
    "complex": {"vertices": ["a", "b"], "edges": [["a", "b"]], "meta": {}},
    "multigraph": {"vertices": ["a", "b"], "edges": {"e1": ["a", "b"]}},
    "dual_multigraph": {"pants": ["u"], "bonds": [["u.0", "u.1"]],
                        "legs": [{"slot": "u.2", "label": "1"}], "bond_labels": ["x"]},
    "edge_map": {"source": {"vertices": ["a", "b"], "edges": {"e1": ["a", "b"]}},
                 "target": {"vertices": ["x", "y"], "edges": {"f1": ["x", "y"]}},
                 "map": {"e1": "f1"}},
}
MALFORMED_DOCS = [
    ("complex", {"vertices": ...}),
    ("complex", {"edges": ["ab"]}),
    ("complex", {"edges": [["a", "b", "a"]]}),
    ("complex", {"edges": {"e1": ["a", "b"]}}),
    ("complex", {"vertices": "ab", "edges": []}),
    ("complex", {"vertices": ["a", 1], "edges": []}),
    ("complex", {"vertices": ["a", "b", "a"]}),
    ("complex", {"meta": None}),
    ("complex", {"meta": [1]}),
    ("complex", {"name": "k2"}),
    ("multigraph", {"edges": {"e1": ["a", "b", "a"]}}),
    ("multigraph", {"edges": {"e1": "ab"}}),
    ("multigraph", {"edges": [["a", "b"]]}),
    ("multigraph", {"vertices": ["a", "b", "b"]}),
    ("multigraph", {"vertices": ["a", 2]}),
    ("multigraph", {"meta": {}}),
    ("multigraph", {"edges": ...}),
    ("dual_multigraph", {"pants": "u"}),
    ("dual_multigraph", {"pants": ["u", "u"]}),
    ("dual_multigraph", {"bonds": [["u.0", "u.1", "u.2"]]}),
    ("dual_multigraph", {"bonds": ["u.0u.1"]}),
    ("dual_multigraph", {"legs": [{"slot": "u.2", "label": 1}]}),
    ("dual_multigraph", {"legs": [{"slot": "u.2", "label": "1", "side": 0}]}),
    ("dual_multigraph", {"legs": [["u.2", "1"]]}),
    ("dual_multigraph", {"bond_labels": [5]}),
    ("dual_multigraph", {"bond_labels": None}),
    ("dual_multigraph", {"signature": [1, 1]}),
    ("dual_multigraph", {"legs": ...}),
    # a "." of the slot pattern matches no newline
    ("dual_multigraph", {"pants": ["u\nv"], "bonds": [["u\nv.0", "u\nv.1"]],
                         "legs": [{"slot": "u\nv.2", "label": "1"}]}),
    ("edge_map", {"map": {"e1": 1}}),
    ("edge_map", {"map": [["e1", "f1"]]}),
    ("edge_map", {"source": {"vertices": ["a", "b"], "edges": {"e1": "ab"}}}),
    ("edge_map", {"target": {"vertices": ["x", "x", "y"], "edges": {"f1": ["x", "y"]}}}),
    ("edge_map", {"inverse": {"f1": "e1"}}),
    ("edge_map", {"map": ...}),
]
READERS = {"complex": ser.complex_from_dict, "multigraph": ser.multigraph_from_dict,
           "dual_multigraph": ser.dual_from_dict, "edge_map": ser.edge_bijection_from_dict}


class TestStrictReaders:
    @pytest.mark.parametrize("schema", sorted(VALID_DOCS))
    def test_valid_documents_are_read(self, schema):
        validate(VALID_DOCS[schema], schema)
        READERS[schema](VALID_DOCS[schema])

    @pytest.mark.parametrize("schema, change", MALFORMED_DOCS,
                             ids=["%s-%d" % (s, k) for k, (s, _) in enumerate(MALFORMED_DOCS)])
    def test_reader_rejects_what_the_schema_rejects(self, schema, change):
        """Each change to a valid document breaks its schema, and the
        reader raises ValueError instead of coercing it; a key that
        ``change`` sets to ... is removed."""
        doc = {k: v for k, v in {**VALID_DOCS[schema], **change}.items() if v is not ...}
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, schema)
        with pytest.raises(ValueError, match=r"^malformed |^duplicate pants ids$"):
            READERS[schema](doc)

    def test_cli_rejects_a_document_its_schema_rejects(self, tmp_path, capsys):
        doc = tmp_path / "k2.json"
        doc.write_text(json.dumps({"vertices": "ab", "edges": []}))
        code, report = run_cli(["complex", "build", "--input", str(doc)], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == (
            "error: malformed complex document: vertices must be an array\n")


# the keywords ``serialization._check`` implements, and the annotations
# it skips; a keyword outside both would be silently ignored
CHECKED = {"type", "required", "properties", "additionalProperties", "items", "minItems",
           "maxItems", "uniqueItems", "pattern", "$ref", "$defs"}
ANNOTATIONS = {"$schema", "$id", "title"}
KINDS = {"complex": "complex", "multigraph": "multigraph",
         "dual_multigraph": "dual multigraph", "edge_map": "edge map"}
# values an edit puts in: every JSON type, and strings the patterns test
JSON_VALUES = [None, True, 0, 1.5, "a", "u.1", "u.7", [], ["a", "b"], {}, {"a": "b"}]
KEYS = ["vertices", "edges", "meta", "pants", "bonds", "legs", "bond_labels", "slot",
        "label", "source", "target", "map", "e2", "x"]


def schema_nodes(schema):
    """Every subschema of ``schema``, itself included."""
    yield schema
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            for sub in value.values():
                yield from schema_nodes(sub)
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            yield from schema_nodes(value)


def document_paths(doc, path=()):
    """The path to every value in ``doc``, the document itself included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from document_paths(value, (*path, key))


def edit_document(doc, data):
    """``doc`` with one random edit: a key dropped or added, a value
    replaced, an array item duplicated, dropped or added, or a "." or a
    newline put into a string."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(document_paths(doc))))
    parent = None
    node = doc
    for key in path:
        parent, node = node, node[key]
    edits = ["replace"] if path else []
    if isinstance(node, dict):
        edits += ["add-key"] + (["drop-key"] if node else [])
    elif isinstance(node, list):
        edits += ["add-item"] + (["duplicate-item", "drop-item"] if node else [])
    elif isinstance(node, str):
        edits += ["into-string"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "replace":
        parent[path[-1]] = data.draw(st.sampled_from(JSON_VALUES))
    elif edit == "add-key":
        node[data.draw(st.sampled_from(KEYS))] = data.draw(st.sampled_from(JSON_VALUES))
    elif edit == "drop-key":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif edit == "add-item":
        node.insert(data.draw(st.integers(0, len(node))), data.draw(st.sampled_from(JSON_VALUES)))
    elif edit == "duplicate-item":
        node.append(copy.deepcopy(data.draw(st.sampled_from(node))))
    elif edit == "drop-item":
        del node[data.draw(st.integers(0, len(node) - 1))]
    else:
        at = data.draw(st.integers(0, len(node)))
        parent[path[-1]] = node[:at] + data.draw(st.sampled_from([".", "\n"])) + node[at:]
    return doc


class TestSchemaChecker:
    @pytest.mark.parametrize("schema", sorted(KINDS))
    def test_every_keyword_is_checked_or_an_annotation(self, schema):
        for node in schema_nodes(ser.load_schema(schema)):
            assert set(node) <= CHECKED | ANNOTATIONS, node
            assert node.get("type", "object") in ser._TYPES
            assert node.get("additionalProperties", False) is False or isinstance(
                node["additionalProperties"], dict)

    @pytest.mark.parametrize("schema", sorted(KINDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_verdict_is_the_one_of_jsonschema(self, schema, data):
        """One to three random edits of a valid document: the checker
        refuses exactly what ``jsonschema`` refuses."""
        doc = VALID_DOCS[schema]
        for _ in range(data.draw(st.integers(1, 3))):
            doc = edit_document(doc, data)
        loaded = ser.load_schema(schema)
        valid = jsonschema.Draft202012Validator(loaded).is_valid(doc)
        try:
            ser._check(doc, loaded, KINDS[schema])
        except ValueError as exc:
            assert not valid, exc
        else:
            assert valid

    def test_what_the_schema_leaves_free_is_not_walked(self):
        """``meta`` may hold anything, nested deeper than the recursion
        limit."""
        meta = {}
        for _ in range(2 * sys.getrecursionlimit()):
            meta = {"m": meta}
        doc = {"vertices": ["a"], "edges": [], "meta": meta}
        assert ser.complex_from_dict(doc).meta.keys() == {"m"}

    @pytest.mark.parametrize("reader, doc, message", [
        (ser.multigraph_from_dict, {"vertices": ["a"], "edges": {1: ["a", "a"]}},
         "malformed multigraph document: edges must be an object"),
        (ser.dual_from_dict, {"pants": ["u"], "bonds": [["u.0", "u.7"]],
                              "legs": [{"slot": "u.2", "label": "1"}]},
         "malformed dual multigraph document: bonds[0][1] does not match '^.+\\\\.[0-2]$'"),
        (ser.dual_from_dict, {"pants": ["u"], "bonds": [], "legs": [{"slot": "u.2"}]},
         "malformed dual multigraph document: legs[0] has no key 'label'"),
        (ser.edge_bijection_from_dict, {**VALID_DOCS["edge_map"], "source": {
            "vertices": ["a", "b"], "edges": {"e1": ["a", "b", "b"]}}},
         "malformed edge map document: source.edges.e1 must have at most 2 items"),
        (ser.edge_bijection_from_dict, {**VALID_DOCS["edge_map"], "map": {"e1": ["f1"]}},
         "malformed edge map document: map.e1 must be a string"),
        (ser.complex_from_dict, {"vertices": ["a", "b"], "edges": [["a"]]},
         "malformed complex document: edges[0] must have at least 2 items"),
    ], ids=["non-string-key", "slot-pattern", "leg-key", "edge-ends", "map-value", "edge-arity"])
    def test_message_names_where_the_document_breaks(self, reader, doc, message):
        with pytest.raises(ValueError) as info:
            reader(doc)
        assert str(info.value) == message


class TestDotExport:
    def test_complex_dot(self, c4):
        dot = ser.complex_to_dot(c4)
        assert dot.startswith("graph ")
        for v in c4.vertices:
            assert ser.dot_quote(v) in dot

    def test_dual_dot_has_leg_terminals(self, c6):
        P = PantsDecomposition(
            c6, ["p:1,2|s=6", "p:1,2,3|s=6", "p:1,2,3,4|s=6"])
        dot = ser.dual_to_dot(dual_of_pants(P))
        assert dot.count("shape=point") == 6
        assert "--" in dot


class TestCliReports:
    def test_build_report_shape(self, tmp_path):
        code, rep = run_cli(["complex", "build", "--genus-zero", "5"], tmp_path)
        assert code == 0
        validate(rep, "report")
        assert rep["command"] == "complex build"
        assert rep["results"]["n_vertices"] == 10
        assert rep["results"]["n_edges"] == 15
        assert rep["pass"] is True
        assert rep["inputs"]["digest"].startswith("sha256:")

    def test_results_and_digest_are_reproducible(self, tmp_path):
        a = run_cli(["complex", "stats", "--genus-zero", "6"], tmp_path, "a.json")[1]
        b = run_cli(["complex", "stats", "--genus-zero", "6"], tmp_path, "b.json")[1]
        assert a["results"] == b["results"]
        assert a["inputs"] == b["inputs"]
        assert json.dumps(a["results"], sort_keys=True) == \
            json.dumps(b["results"], sort_keys=True)

    def test_homology_command(self, tmp_path):
        code, rep = run_cli(
            ["complex", "homology", "--catalog", "petersen"], tmp_path)
        assert code == 0
        assert rep["results"]["betti"] == [1, 6]

    def test_homology_json_export_validates(self, tmp_path):
        doc_path = tmp_path / "hom.json"
        code, _ = run_cli(
            ["complex", "homology", "--genus-zero", "5", "--max-dim", "2",
             "--json", str(doc_path)], tmp_path)
        assert code == 0
        doc = json.loads(doc_path.read_text())
        validate(doc, "homology_report")
        assert doc["betti"] == [1, 6, 0]

    def test_flip_graph_command(self, tmp_path):
        code, rep = run_cli(
            ["pants", "flip-graph", "--s", "5", "--check-connected"], tmp_path)
        assert code == 0
        assert rep["results"] == {"s": 5, "nodes": 15, "edges": 30,
                                  "connected": True, "diameter": 3}

    def test_pants_dual_and_classify(self, tmp_path):
        members = "p:1,2|s=6;p:1,2,3|s=6;p:1,2,3,4|s=6"
        code, rep = run_cli(
            ["pants", "dual", "--s", "6", "--members", members], tmp_path)
        assert code == 0
        assert rep["results"]["signature"] == [0, 6]
        code, rep = run_cli(
            ["dual", "classify", "--s", "6", "--members", members,
             "--edges", "0,1,2"], tmp_path)
        assert code == 0
        assert rep["results"]["factors"] == [[0, 6]]

    def test_classify_from_file(self, tmp_path, c6):
        P = PantsDecomposition(
            c6, ["p:1,2|s=6", "p:1,2,3|s=6", "p:1,2,3,4|s=6"])
        doc_path = tmp_path / "dual.json"
        doc_path.write_text(ser.dumps(ser.dual_to_dict(dual_of_pants(P))))
        code, rep = run_cli(
            ["dual", "classify", "--input", str(doc_path), "--edges", "0,2"],
            tmp_path)
        assert code == 0
        assert rep["results"]["factors"] == [[0, 4], [0, 4]]

    def test_whitney_check_and_lift_on_the_exceptional_pair(self, tmp_path):
        doc_path = tmp_path / "map.json"
        doc_path.write_text(ser.dumps(k3_to_star_doc()))
        code, rep = run_cli(
            ["whitney", "check", "--map", str(doc_path)], tmp_path)
        assert code == 0
        assert rep["results"]["edge_isomorphism"] is True
        assert rep["results"]["k3_k13_pair"] == ["e1", "e2", "e3"]
        code, rep = run_cli(
            ["whitney", "lift", "--map", str(doc_path)], tmp_path)
        assert code == 1
        assert rep["results"]["verdict"] == "obstructed"

    def test_whitney_roundtrips(self, tmp_path):
        code, rep = run_cli(
            ["whitney", "check", "--random-roundtrip", "10", "--seed", "3"],
            tmp_path)
        assert code == 0
        assert rep["results"]["all_recovered"] is True

    def test_rigidity_aut_and_verify(self, tmp_path):
        code, rep = run_cli(
            ["rigidity", "aut", "--catalog", "petersen"], tmp_path)
        assert code == 0
        assert rep["results"]["order"] == 120
        cert_path = tmp_path / "cert.json"
        code, rep = run_cli(
            ["rigidity", "verify", "--genus-zero", "5",
             "--json", str(cert_path)], tmp_path)
        assert code == 0
        assert rep["results"]["total_maps"] == 120
        validate(json.loads(cert_path.read_text()), "certificate")

    def test_rigidity_verify_failure_exits_one(self, tmp_path):
        code, rep = run_cli(
            ["rigidity", "verify", "--genus-zero", "5",
             "--subcomplex", "p:1,2|s=5"], tmp_path)
        assert code == 1
        assert rep["pass"] is False

    def test_rigidity_witness(self, tmp_path):
        code, rep = run_cli(
            ["rigidity", "witness", "--m", "4", "--x", "z:0;w:0"], tmp_path)
        assert code == 0
        assert rep["results"]["meta"]["moved_vertex"] == "w:0"

    def test_nonembed(self, tmp_path):
        code, rep = run_cli(
            ["nonembed", "--source", "k33", "--target", "petersen"], tmp_path)
        assert code == 0
        assert rep["results"]["embedding_exists"] is False
        code, rep = run_cli(
            ["nonembed", "--source", "k13", "--target", "petersen"], tmp_path)
        assert code == 1
        assert rep["results"]["embedding_exists"] is True

    def test_census_command(self, tmp_path):
        census_path = tmp_path / "census.json"
        code, rep = run_cli(
            ["census", "good-pairs", "--n", "1", "--s", "4",
             "--json", str(census_path)], tmp_path)
        assert code == 0
        assert rep["results"]["nonempty"] is True
        validate(json.loads(census_path.read_text()), "census")

    def test_catalog_command(self, tmp_path):
        code, rep = run_cli(["catalog"], tmp_path)
        assert code == 0
        assert "petersen" in rep["results"]["names"]

    def test_repeated_members_and_edges_are_deduplicated(self, tmp_path):
        def report(argv, name):
            code, rep = run_cli(argv, tmp_path, name)
            assert code == 0
            del rep["timing"]
            return rep

        dual = ["pants", "dual", "--s", "6", "--members"]
        once = report([*dual, M6], "a.json")
        twice = report([*dual, M6 + ";p:1,2|s=6"], "b.json")
        assert twice == once and len(twice["results"]["members"]) == 3
        classify = ["dual", "classify", "--s", "6", "--members", M6, "--edges"]
        once = report([*classify, "0"], "c.json")
        twice = report([*classify, "0,0"], "d.json")
        assert twice == once and twice["results"]["eta"] == [0]
        # spaces around an index and empty items are dropped
        assert report([*classify, " 0 ,, "], "e.json") == once

    @pytest.mark.parametrize("argv, key, repeated, plain", [
        (["rigidity", "verify", "--genus-zero", "5"], "subcomplex",
         "p:1,2|s=5;p:1,2|s=5", "p:1,2|s=5"),
        (["rigidity", "witness", "--m", "4"], "x", "z:0;w:0;w:0", "w:0;z:0"),
    ])
    def test_repeated_vertices_count_once(self, argv, key, repeated, plain, tmp_path):
        """Equal vertex sets give equal reports, input digest included."""
        reports = []
        for k, raw in enumerate((repeated, plain)):
            code, rep = run_cli([*argv, "--" + key, raw], tmp_path, "%d.json" % k)
            del rep["timing"]
            reports.append((code, rep))
        assert reports[0] == reports[1]
        assert reports[0][1]["inputs"]["values"][key] == sorted(set(plain.split(";")))


# sha256 of each report minus ``timing``, one command per subcommand,
# recorded from version 0.1.0's reports so that any change to the report
# envelope, a command name or a results section shows here.  ``whitney
# lift`` reads k3_to_star_doc() from --map.
FROZEN_REPORTS = {
    "complex build": (["--genus-zero", "5"], 0,
                      "73088e89c9272dafd143e5c3cf932d9f35ecd1811855ff8b6e118e862ebb5651"),
    "complex stats": (["--catalog", "petersen"], 0,
                      "586a7b6585662f17fab5856e4f121c561fdfb4a916e676f68cc176ccc5d4fbbf"),
    "complex homology": (["--genus-zero", "5"], 0,
                         "c8c10d77bf844422c2af44d930298d2af058f7dc3d372fad1ebbca2f97fa648a"),
    "pants enumerate": (["--s", "5"], 0,
                        "70010adde8f66cd5c17d6946b822b76a727a86da28c05bf380e393caca345249"),
    "pants flip-graph": (["--s", "5", "--check-connected"], 0,
                         "1f45ccbc8af50f11b3f0dc66e52fe28c5868c5cbda04ce657ece12ee7ea37ce1"),
    "pants dual": (["--s", "6", "--members", M6], 0,
                   "aeeb7bad08fb5794399454f7814e7ca9509b1350d955485d1321720b75dee4c8"),
    "dual classify": (["--s", "6", "--members", M6, "--edges", "0,2"], 0,
                      "5fe4bfcccb4dc5e8872532b24896bd32e35fb85c3753fc00f0ef134c35e54b00"),
    "whitney check": (["--random-roundtrip", "5", "--seed", "3"], 0,
                      "b2863597377f74d0fd4299f797aed66122336e343aeadea3238c5b7ab97f9d0f"),
    "whitney lift": (["--map"], 1,
                     "a68be58160a6120839ca8fd6f368306e7ca0f08839da14c3ad2f2c8de3b037c4"),
    "rigidity aut": (["--catalog", "petersen"], 0,
                     "ae339e3640db17e1951fe3a6cc95831fea1defccb3937d0a5fc83eb6d32a0a6e"),
    "rigidity verify": (["--genus-zero", "5"], 0,
                        "b9e13b253a9a75595250ddde6c63d5f6ae3be18115d513a06ec2877d47fd6294"),
    "rigidity split": (["--genus-zero", "6", "--members", M6, "--sphere", "p:1,2|s=6"], 0,
                       "3166e87979da7210efc28f9cf6f2e01a606ab0c8c2fe6137b3f676a68ab107eb"),
    "rigidity xsigma": (["--genus-zero", "6", "--members", M6], 0,
                        "81d64cf74ce9716fb7edcb9671131dac92c9e9181b5e14865da5c4094b2bcc16"),
    "rigidity witness": (["--m", "4", "--x", "z:0;w:0"], 0,
                         "183248430c32ba0a5f70455dcea0de661de0366e8a2814c9a513189ce7f108a4"),
    "nonembed": (["--source", "k33", "--target", "petersen"], 0,
                 "f30eec2ba5d754980e7904a7e47e8e6a17a93251cb8ea54776009b3e5b7eaef1"),
    "census good-pairs": (["--n", "1", "--s", "4"], 0,
                          "06959ae7b2a0b4a3242967d62f0a20c5b76a75442efbabe84d89601aab2fde9a"),
    "catalog": ([], 0,
                "9fa95b57ea52ec3afae107a1bf37cb9756c2e95ea1dd747fb3b5bbef17545080"),
}


# A file that holds the complex with no vertices; an argument equal to
# this name is replaced by that file's path under tmp_path.
EMPTY_COMPLEX = "empty-complex.json"

# Further frozen reports, as (command, args, exit code, digest): the
# over-maximal filter on a proper subcomplex, recorded before that
# filter read the maximal cliques inside X from one restricted walk; a
# found embedding, and the empty one of the empty complex; and a group
# of a 522-vertex complex, above the 256 vertices a byte row can hold.
# The last three were recorded while the engine returned id-keyed maps.
FROZEN_EXTRA_REPORTS = [
    ("rigidity verify", ["--genus-zero", "6", "--subcomplex", X6_THREE_CHERRY,
                         "--mode", "over-maximal-maps"], 1,
     "1bc5a33805448b7bdefc7978e499934cf6e00e27cbe098fe4293abe0bb534a0a"),
    ("nonembed", ["--source", "k13", "--target", "petersen"], 1,
     "48bdfc55e6162976ba56cd9bb5d9383a57c30a130bb5af6f96bb7fab657692ac"),
    ("nonembed", ["--source", EMPTY_COMPLEX, "--target", "k3"], 1,
     "4f50e69077cdb6b6a50ea8904779750104b5c83f9e68f4072237a5fad860cbe7"),
    ("rigidity aut", ["--caterpillar", "130"], 0,
     "76a47165de064222f12296906f5d3a4a42d3af3031f782984ddc115e4ffa182b"),
]


def registered_commands(parser, prefix=()):
    """Every leaf command name of the parser, e.g. 'complex build'."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(prefix)]
    return [name for key, sub in subs[0].choices.items()
            for name in registered_commands(sub, (*prefix, key))]


class TestFrozenReports:
    def test_every_registered_command_is_frozen(self):
        assert sorted(registered_commands(build_parser())) == sorted(FROZEN_REPORTS)

    @pytest.mark.parametrize("command", sorted(FROZEN_REPORTS))
    def test_report_digest(self, command, tmp_path):
        args, expected_code, digest = FROZEN_REPORTS[command]
        if command == "whitney lift":
            doc_path = tmp_path / "map.json"
            doc_path.write_text(ser.dumps(k3_to_star_doc()))
            args = [*args, str(doc_path)]
        self.assert_frozen(command, args, expected_code, digest, tmp_path)

    @pytest.mark.parametrize("command, args, expected_code, digest", FROZEN_EXTRA_REPORTS,
                             ids=[" ".join([c, *a[-2:]]) for c, a, _, _ in FROZEN_EXTRA_REPORTS])
    def test_extra_report_digest(self, command, args, expected_code, digest, tmp_path):
        if EMPTY_COMPLEX in args:
            doc_path = tmp_path / EMPTY_COMPLEX
            doc_path.write_text(ser.dumps({"vertices": [], "edges": []}))
            args = [str(doc_path) if a == EMPTY_COMPLEX else a for a in args]
        self.assert_frozen(command, args, expected_code, digest, tmp_path)

    @staticmethod
    def assert_frozen(command, args, expected_code, digest, tmp_path):
        code, rep = run_cli([*command.split(), *args], tmp_path)
        assert code == expected_code
        assert rep["command"] == command
        del rep["timing"]
        assert hashlib.sha256(ser.dumps(rep).encode("utf-8")).hexdigest() == digest


# a path a-b-c with a loop at c onto z-y-x with a loop at x: it lifts to
# a -> z, b -> y, c -> x; with the images of e1 and e3 swapped the loop
# goes to a plain edge, so it is no edge isomorphism
LIFT_MAP = {
    "source": {"vertices": ["a", "b", "c"],
               "edges": {"e1": ["a", "b"], "e2": ["b", "c"], "e3": ["c", "c"]}},
    "target": {"vertices": ["x", "y", "z"],
               "edges": {"f1": ["y", "z"], "f2": ["x", "y"], "f3": ["x", "x"]}},
    "map": {"e1": "f1", "e2": "f2", "e3": "f3"},
}
NOT_EDGE_ISOMORPHIC = {**LIFT_MAP, "map": {"e1": "f3", "e2": "f2", "e3": "f1"}}

# sha256 of each file an export option writes, with the schema a JSON
# export must pass, recorded before the handlers wrote these documents
# through ``serialization`` alone; MAP is a file holding LIFT_MAP
FROZEN_EXPORTS = [
    (["pants", "flip-graph", "--s", "5"], {
        "--dot": ("670c6169ed9deabff07002fcc8fb2fc22ee85559eff32f3c87026b20f5a7822b", None)}),
    (["pants", "dual", "--s", "6", "--members", M6], {
        "--json": ("f06c813343223ead1adf9dd793045d0a333691eeb51f4f9226c954ad29980e78",
                   "dual_multigraph"),
        "--dot": ("e7d740ec741017b0011d15faf99bd6237bad5759fa0e0e70f62fafc94a1923c5", None)}),
    (["rigidity", "xsigma", "--genus-zero", "6", "--members", M6], {
        "--json": ("5c48d01ae2bedd6ae32fd8d607f303936b354dd2c3daf65519edbc893f8da708",
                   "complex"),
        "--dot": ("a409a8f474471a4e781554875fd7893e14b91055a9337fc8d0bafaf75a8d7bbc", None)}),
    (["complex", "build", "--genus-zero", "5"], {
        "--json": ("ee63b0f7df152ea0711b902f80bd4efcbf35c7bf69e5a7682bd34511596e530c",
                   "complex"),
        "--dot": ("4079cfaa32a2d438545a3a68781fc01b0a3570e3136207917f1da75a7e2b35c7", None)}),
    (["rigidity", "witness", "--m", "4", "--x", "z:0;w:0"], {
        "--json": ("15b5d5caf71bfbd1fd2d0c9e81c5762b039aaca4df7ad21a31dbaaf203e2ea18",
                   "vertex_map")}),
    (["whitney", "lift", "--map", "MAP"], {
        "--json": ("09848fb7c68a223c60d1046a7c297fa1e7683705cf8a00378be39de1130f12b9",
                   "vertex_map")}),
]


class TestFrozenExports:
    @pytest.mark.parametrize("argv, files", FROZEN_EXPORTS,
                             ids=[" ".join(argv[:2]) for argv, _ in FROZEN_EXPORTS])
    def test_export_digest(self, argv, files, tmp_path):
        (tmp_path / "map.json").write_text(json.dumps(LIFT_MAP))
        argv = [str(tmp_path / "map.json") if a == "MAP" else a for a in argv]
        paths = {option: tmp_path / ("export." + option[2:]) for option in files}
        for option, path in paths.items():
            argv += [option, str(path)]
        code, report = run_cli(argv, tmp_path)
        assert code == 0 and report["pass"] is True
        for option, (digest, schema) in files.items():
            data = paths[option].read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, option
            if schema is not None:
                validate(json.loads(data), schema)


# ``--help`` of the top level, every group and every leaf, and usage
# errors, as (argv, exit code, stdout, stderr), recorded at 80 columns
# with Python 3.11 from the parser that built the whole tree on every run
with open(os.path.join(os.path.dirname(__file__), "frozen_cli_help.json"),
          encoding="utf-8") as _fh:
    FROZEN_HELP = json.load(_fh)


def parse_output(parse, argv, capsys):
    """Exit code, stdout and stderr of ``parse(argv)``."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestFrozenHelp:
    """``main`` builds only the branch its argv names; help texts and
    usage errors are those of the whole tree."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_every_command_has_frozen_help(self):
        helped = sorted(" ".join(case["argv"][:-1]) for case in FROZEN_HELP
                        if case["argv"][-1:] == ["--help"])
        groups = {command.split()[0] for command in FROZEN_REPORTS}
        assert helped == sorted({"", *groups, *FROZEN_REPORTS})

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse formats help differently in other versions")
    @pytest.mark.parametrize("case", FROZEN_HELP, ids=lambda case: " ".join(case["argv"]))
    def test_main_output_is_frozen(self, case, capsys):
        assert parse_output(main, case["argv"], capsys) == (
            case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("case", FROZEN_HELP, ids=lambda case: " ".join(case["argv"]))
    def test_branch_parser_matches_the_whole_tree(self, case, capsys):
        assert (parse_output(main, case["argv"], capsys)
                == parse_output(build_parser().parse_args, case["argv"], capsys))


class TestCliErrors:
    def test_missing_input_file(self, tmp_path):
        code, _ = run_cli(
            ["complex", "stats", "--input", str(tmp_path / "absent.json")],
            tmp_path)
        assert code == 2

    def test_bad_genus_zero_size(self, tmp_path):
        code, _ = run_cli(["complex", "build", "--genus-zero", "2"], tmp_path)
        assert code == 2

    def test_unknown_subcommand(self, tmp_path):
        code, _ = run_cli(["frobnicate"], tmp_path)
        assert code == 2

    def test_malformed_map_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]\n")
        code, _ = run_cli(["whitney", "lift", "--map", str(bad)], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("subcomplex", ["", " ; "])
    def test_empty_subcomplex_exits_two(self, subcomplex, tmp_path, capsys):
        """An empty --subcomplex is an error, not the whole complex."""
        code, report = run_cli(["rigidity", "verify", "--catalog", "petersen",
                                "--subcomplex", subcomplex], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == "error: empty member list\n"

    def test_lift_onto_an_empty_target_exits_two(self, tmp_path, capsys):
        # an edgeless vertex onto no vertices is an edge isomorphism
        doc = tmp_path / "map.json"
        doc.write_text(ser.dumps(ser.edge_map_to_dict(
            Multigraph(["x"], {}), Multigraph([], {}), {})))
        code, report = run_cli(["whitney", "lift", "--map", str(doc)], tmp_path)
        assert code == 2 and report is None
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("spec", ["genus-zero:x", "caterpillar:", "genus-zero:5.0"])
    def test_malformed_size_spec_names_the_form(self, spec, tmp_path, capsys):
        code, report = run_cli(["nonembed", "--source", spec, "--target", "petersen"],
                               tmp_path)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert repr(spec) in err and "genus-zero:S" in err and "caterpillar:M" in err

    def test_group_above_the_element_cap_exits_two(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(AutomorphismGroup, "ELEMENT_CAP", 10)
        code, report = run_cli(["rigidity", "verify", "--genus-zero", "5"], tmp_path)
        assert code == 2 and report is None
        assert_one_error_line(capsys)

    def test_failed_self_check_exits_three(self, tmp_path, capsys, monkeypatch):
        """A failing self-check is an internal error, not a failed
        check.  The engine offers nonembed a placement of K_{1,3} that
        sends the edge c-l1 to a non-edge of the Petersen graph: one
        error line, no report on stdout and no --out file."""
        monkeypatch.setattr(search, "_placements", lambda src, dst: iter([(0, 1, 2, 3)]))
        argv = ["nonembed", "--source", "k13", "--target", "petersen"]
        out = tmp_path / "report.json"
        for extra in ([], ["--out", str(out)]):
            assert main([*argv, *extra]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == INTERNAL_ERROR
        assert list(tmp_path.iterdir()) == []

    def test_failed_self_check_exits_three_under_optimize(self, tmp_path):
        """The self-check raises AssertionError itself, so ``python -O``
        keeps it, and ``main`` still exits 3."""
        import spherecomplex
        src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
        out = tmp_path / "report.json"
        code = (
            "import sys\n"
            "from spherecomplex import search\n"
            "from spherecomplex.cli import main\n"
            "search._placements = lambda src, dst: iter([(0, 1, 2, 3)])\n"
            "sys.exit(main(['nonembed', '--source', 'k13', '--target', 'petersen',\n"
            "               '--out', sys.argv[1]]))\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code, str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", INTERNAL_ERROR)
        assert not out.exists()

    @pytest.mark.parametrize("argv, key, value", [
        (["complex", "build", "--input"], "meta", [1, 2]),
        (["complex", "build", "--input"], "meta", {"model": "genus-zero"}),
        (["complex", "stats", "--input"], "meta", {"model": "genus-zero"}),
        (["rigidity", "verify", "--input"], "meta", {"model": "genus-zero"}),
        (["nonembed", "--target", "petersen", "--source"], "meta",
         {"model": "genus-zero"}),
        (["complex", "build", "--input"], "meta", {"model": "caterpillar", "m": "x"}),
        (["dual", "classify", "--edges", "0", "--input"], "bond_labels", 5),
    ])
    def test_malformed_document_exits_two(self, argv, key, value, tmp_path,
                                          capsys, c5, c6):
        if key == "bond_labels":
            P = PantsDecomposition(c6, M6.split(";"))
            doc = ser.dual_to_dict(dual_of_pants(P))
        else:
            doc = ser.complex_to_dict(c5)
        doc[key] = value
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        code, report = run_cli([*argv, str(doc_path)], tmp_path)
        assert code == 2 and report is None
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("vid", ["p:1,9|s=5", "p:1|s=5", "p:1,2|s=3"])
    def test_genus_zero_document_with_no_sphere_exits_two(self, vid, tmp_path, capsys, c5):
        """Each vertex id of a genus-zero document is a sphere of its s,
        and the one error line names the vertex that is not."""
        doc = ser.complex_to_dict(c5)
        doc["vertices"].append(vid)
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        code, report = run_cli(["complex", "homology", "--input", str(doc_path)], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == "error: not a partition vertex id: %r\n" % (vid,)

    @pytest.mark.parametrize("command", ["build", "homology"])
    def test_genus_zero_document_of_large_s_is_read_at_once(self, command, tmp_path, c5):
        """The ids of a genus-zero document are checked against its s
        without building anything linear in s, such as a cluster table."""
        small, large = tmp_path / "small.json", tmp_path / "large.json"
        small.write_text(json.dumps(ser.complex_to_dict(c5)))
        large.write_text(json.dumps({"vertices": ["p:1,2|s=1000000"], "edges": [],
                                     "meta": {"model": "genus-zero", "s": 1000000}}))
        argv = ["complex", command, "--input"]
        assert run_cli([*argv, str(small)], tmp_path)[0] == 0  # imports what it needs
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, report = run_cli([*argv, str(large)], tmp_path)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and report["pass"]
        assert seconds < 1 and peak < 2 ** 22

    def test_negative_roundtrip_count_exits_two(self, tmp_path, capsys):
        code, report = run_cli(
            ["whitney", "check", "--random-roundtrip", "-3"], tmp_path)
        assert code == 2 and report is None
        assert_one_error_line(capsys)

    def test_empty_dual_input_exits_two(self, tmp_path, capsys):
        """An empty --input is an unreadable file, not a missing one."""
        code, report = run_cli(["dual", "classify", "--input", "", "--edges", "0"],
                               tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: cannot read --input '': ")

    @pytest.mark.parametrize("extra", [["--s", "6", "--members", M6], ["--s", "6"],
                                       ["--members", M6]],
                             ids=["both", "s", "members"])
    def test_dual_input_with_s_or_members_exits_two(self, extra, tmp_path, capsys, c6):
        """--input and --s/--members name the dual twice; neither wins."""
        doc = tmp_path / "dual.json"
        doc.write_text(ser.dumps(ser.dual_to_dict(dual_of_pants(
            PantsDecomposition(c6, M6.split(";"))))))
        code, report = run_cli(["dual", "classify", "--input", str(doc), *extra,
                                "--edges", "0"], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == (
            "error: --input FILE cannot be combined with --s or --members\n")

    @pytest.mark.parametrize("extra, message", [
        (["--s", "6"], "need --input FILE or both --s and --members"),
        (["--members", M6], "need --input FILE or both --s and --members"),
        # both given: the error is about s, not about a missing option
        (["--s", "0", "--members", M6], "need s >= 3"),
    ], ids=["s", "members", "s-zero"])
    def test_dual_classify_source_errors(self, extra, message, tmp_path, capsys):
        code, report = run_cli(["dual", "classify", *extra, "--edges", "0"], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize("extra, message", [
        (["--random-roundtrip", "2", "--map", "MAP"],
         "--map FILE cannot be combined with --random-roundtrip N"),
        (["--map", "MAP", "--seed", "5"], "--seed S needs --random-roundtrip N"),
        (["--seed", "5"], "need --map FILE or --random-roundtrip N"),
        (["--map", ""], "cannot read --map '': [Errno 2] No such file or directory: ''"),
    ], ids=["roundtrip-and-map", "map-and-seed", "seed", "empty-map"])
    def test_whitney_check_source_errors(self, extra, message, tmp_path, capsys):
        """No option is silently dropped, and an empty --map is an
        unreadable file, not a missing one."""
        doc = tmp_path / "map.json"
        doc.write_text(ser.dumps(k3_to_star_doc()))
        argv = [str(doc) if x == "MAP" else x for x in extra]
        code, report = run_cli(["whitney", "check", *argv], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize("argv", [
        ["complex", "build", "--genus-zero", "5", "--json"],
        ["complex", "build", "--genus-zero", "5", "--dot"],
        ["complex", "stats", "--genus-zero", "5", "--out"],
    ], ids=lambda argv: argv[-1])
    @pytest.mark.parametrize("blocked", [True, False], ids=["under-a-file", "empty"])
    def test_unwritable_output_path_exits_two(self, argv, blocked, tmp_path, capsys,
                                              monkeypatch):
        """A path below a regular file, and the empty path: no report,
        one error line."""
        monkeypatch.delenv("SPHERECOMPLEX_OUT_DIR", raising=False)
        (tmp_path / "file").write_text("")
        path = str(tmp_path / "file" / "x") if blocked else ""
        assert main([*argv, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, option", [
        (["complex", "stats", "--genus-zero", "5", "--out", ""], "--out"),
        (["complex", "build", "--genus-zero", "5", "--json", ""], "--json"),
        (["complex", "build", "--genus-zero", "5", "--dot", ""], "--dot"),
        (["complex", "build", "--input", "{missing}"], "--input"),
        (["dual", "classify", "--input", "", "--edges", "0"], "--input"),
        (["whitney", "check", "--map", "{missing}"], "--map"),
        (["whitney", "lift", "--map", "{list}"], "--map"),
        (["nonembed", "--source", "{list}", "--target", "petersen"], "--source"),
        (["nonembed", "--source", "petersen", "--target", "{bad}"], "--target"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v[:2]))
    def test_path_error_names_the_option(self, argv, option, tmp_path, capsys,
                                         monkeypatch):
        """Unreadable, malformed and non-object inputs and unwritable
        outputs: one error line that names the option and its path."""
        monkeypatch.delenv("SPHERECOMPLEX_OUT_DIR", raising=False)
        (tmp_path / "list.json").write_text("[1]")
        (tmp_path / "bad.json").write_text("{")
        paths = {"{%s}" % k: str(tmp_path / ("%s.json" % k))
                 for k in ("missing", "list", "bad")}
        argv = [paths.get(a, a) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        path = argv[argv.index(option) + 1]
        assert "%s %r" % (option, path) in captured.err

    @pytest.mark.parametrize("failing", ["--dot", "--out"])
    def test_failed_write_leaves_no_partial_outputs(self, failing, tmp_path, capsys,
                                                    monkeypatch):
        """Files written before the failing one are removed again."""
        monkeypatch.delenv("SPHERECOMPLEX_OUT_DIR", raising=False)
        (tmp_path / "file").write_text("")
        written = {"--json": tmp_path / "a.json", "--dot": tmp_path / "a.dot"}
        written[failing] = tmp_path / "file" / "x"
        argv = ["complex", "build", "--genus-zero", "5"]
        for option, path in written.items():
            argv += [option, str(path)]
        if failing != "--out":
            argv += ["--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write %s " % failing)

    def test_failed_write_removes_the_directories_it_made(self, tmp_path, capsys,
                                                          monkeypatch):
        """A missing parent directory made for ``--json`` goes again
        when ``--dot`` fails; one that already existed stays."""
        monkeypatch.delenv("SPHERECOMPLEX_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kept").mkdir()
        assert main(["complex", "build", "--genus-zero", "5", "--json", "newdir/a.json",
                     "--dot", "/dev/null/x"]) == 2
        assert main(["complex", "build", "--genus-zero", "5", "--json", "kept/new/a.json",
                     "--dot", "/dev/null/x"]) == 2
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == ["kept"]
        assert capsys.readouterr().err.count("error: cannot write --dot ") == 2

    @pytest.mark.parametrize("outputs, env, options", [
        (["--json", "same.json", "--dot", "same.json", "--out", "same.json"], False,
         ("--json", "--dot")),
        (["--json", "{tmp}/r.json", "--out", "r.json"], True, ("--json", "--out")),
        (["--json", "a.json", "--dot", "sub/../link.json"], False, ("--json", "--dot")),
    ], ids=["one-name", "out-dir", "symlink"])
    def test_outputs_naming_one_file_exit_two(self, outputs, env, options, tmp_path, capsys,
                                              monkeypatch):
        """Paths are compared after ``SPHERECOMPLEX_OUT_DIR`` and symlinks
        are resolved; a clash writes no file."""
        monkeypatch.chdir(tmp_path)
        if env:
            monkeypatch.setenv("SPHERECOMPLEX_OUT_DIR", str(tmp_path))
        else:
            monkeypatch.delenv("SPHERECOMPLEX_OUT_DIR", raising=False)
        (tmp_path / "link.json").symlink_to(tmp_path / "a.json")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in outputs]
        assert main(["complex", "build", "--genus-zero", "5", *argv]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["link.json"]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: %s and %s name the same file " % options)

    @pytest.mark.parametrize("argv, message", [
        (["rigidity", "verify", "--genus-zero", "5", "--subcomplex", "p:1,2|s=5;nope",
          "--json", "cert.json"], "unknown vertex id: 'nope'"),
        (["rigidity", "split", "--genus-zero", "6", "--members", M6, "--sphere", "p:1,3|s=6"],
         "'p:1,3|s=6' is not a member of the decomposition"),
        (["dual", "classify", "--s", "6", "--members", M6, "--edges", "9"],
         "bond index out of range: 9"),
        (["whitney", "lift", "--map", "map.json", "--json", "lift.json"],
         "not an edge isomorphism"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v[:2]))
    def test_library_checks_the_input(self, argv, message, tmp_path, capsys, monkeypatch):
        """The check the library makes is the only one: exit 2 with its
        message on one line, and no report or export written."""
        monkeypatch.delenv("SPHERECOMPLEX_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "map.json").write_text(json.dumps(NOT_EDGE_ISOMORPHIC))
        assert main([*argv, "--out", "report.json"]) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)
        assert [p.name for p in tmp_path.iterdir()] == ["map.json"]

    @pytest.mark.parametrize("edges", ["0_1", "1_0", "+1", "-1", "01", "\u0661", "0,x", "0 1"])
    def test_edges_other_than_written_indices_exit_two(self, edges, tmp_path, capsys):
        """``int`` would read 0_1 as bond 1 and 1_0 as bond 10."""
        code, report = run_cli(["dual", "classify", "--s", "6", "--members", M6,
                                "--edges", edges], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == (
            "error: --edges must be comma-separated bond indices\n")

    def test_edges_beyond_the_digits_int_reads_exit_two(self, tmp_path, capsys):
        """An index too long for ``int`` is refused in the terms of
        --edges, not with Python's own message."""
        big = "1" * 5000
        code, report = run_cli(["dual", "classify", "--s", "6", "--members", M6,
                                "--edges", big], tmp_path)
        assert code == 2 and report is None
        # an interpreter with no digit limit reads the index and the
        # library refuses it
        assert capsys.readouterr().err in ("error: --edges: bond index out of range\n",
                                           "error: bond index out of range: %s\n" % big)

    def test_nonmaximal_members_rejected(self, tmp_path):
        code, _ = run_cli(
            ["pants", "dual", "--s", "6", "--members", "p:1,2|s=6"], tmp_path)
        assert code == 2


class TestOutDirEnv:
    def test_relative_out_lands_in_the_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPHERECOMPLEX_OUT_DIR", str(tmp_path))
        code = main(["complex", "build", "--genus-zero", "4",
                     "--out", "nested/report.json"])
        assert code == 0
        assert (tmp_path / "nested" / "report.json").exists()

    def test_absolute_out_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPHERECOMPLEX_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        code = main(["complex", "build", "--genus-zero", "4",
                     "--out", str(target)])
        assert code == 0
        assert target.exists()


class TestHashSeedDeterminism:
    """Reports (minus ``timing``) and error messages are byte-identical
    under different string hash seeds, so set iteration order never
    reaches the output.  Each command runs as a fresh process."""

    @pytest.mark.parametrize("argv, status", [
        pytest.param(["complex", "homology", "--genus-zero", "6"], 0, id="complex homology"),
        pytest.param(["rigidity", "verify", "--genus-zero", "5", "--mode", "over-maximal-maps"],
                     0, id="rigidity verify"),
        # orbits of 10, 60 and 30 maps, each smaller than the group of
        # order 120, so listing the extensions goes through a set
        pytest.param(["rigidity", "verify", "--genus-zero", "5", "--subcomplex",
                      "p:1,2|s=5;p:1,3|s=5"], 1, id="rigidity verify small orbits"),
        pytest.param(["pants", "flip-graph", "--s", "5"], 0, id="pants flip-graph"),
        # several unknown members: the error names the first in sorted order
        pytest.param(["rigidity", "xsigma", "--genus-zero", "7", "--members",
                      "p:1,2|s=7;p:3,4|s=7;p:5,6|s=7;p:1,2,3,4|s=7"], 2, id="rigidity xsigma"),
    ])
    def test_output_does_not_depend_on_the_hash_seed(self, argv, status):
        import spherecomplex
        src = os.path.dirname(os.path.dirname(spherecomplex.__file__))
        runs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "spherecomplex.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            stdout = re.sub(r'"timing": \{[^}]*\}', '"timing": {}', proc.stdout)
            runs.append((proc.returncode, stdout, proc.stderr))
        assert runs[0] == runs[1]
        assert runs[0][0] == status and (runs[0][1] or runs[0][2])
