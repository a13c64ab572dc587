"""JSON documents, their schemas, DOT export, and the command line.

Every exported document is validated against the shipped JSON schema for
its type, and the CLI is driven in-process through ``cli.main``.
"""

import argparse
import hashlib
import json

import jsonschema
import pytest

from spherecomplex import (
    AutomorphismGroup,
    EdgeBijection,
    Multigraph,
    PantsDecomposition,
    build_caterpillar_window,
    caterpillar_witness,
    dual_of_pants,
    scramble,
)
from spherecomplex import serialization as ser
from spherecomplex.cli import build_parser, main

M6 = "p:1,2|s=6;p:1,2,3|s=6;p:1,2,3,4|s=6"


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
        d = dual_of_pants(P)
        doc = ser.dual_to_dict(d)
        validate(doc, "dual_multigraph")
        back = ser.dual_from_dict(doc)
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
        code, rep = run_cli([*command.split(), *args], tmp_path)
        assert code == expected_code
        assert rep["command"] == command
        del rep["timing"]
        assert hashlib.sha256(ser.dumps(rep).encode("utf-8")).hexdigest() == digest


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

    def test_negative_roundtrip_count_exits_two(self, tmp_path, capsys):
        code, report = run_cli(
            ["whitney", "check", "--random-roundtrip", "-3"], tmp_path)
        assert code == 2 and report is None
        assert_one_error_line(capsys)

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
