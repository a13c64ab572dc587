"""Command-line front end.

Every subcommand writes a JSON report to standard output (or ``--out``)
with a ``results`` section that is byte-identical across runs on equal
inputs; ``timing`` is excluded from that guarantee.  Exit status is 0
when the command's check passes, 1 on a check failure, 2 on usage
errors, malformed input files or unwritable output paths, and 3 when
one of the library's own consistency checks fails (an
``AssertionError``, such as ``rigidity.TransitivityError``); 2 and 3
print one ``error:`` line and no report and write no file.  Relative
``--out``/``--json``/``--dot`` paths resolve against
``SPHERECOMPLEX_OUT_DIR`` when it is set; two outputs that resolve to
one file are a usage error.  The handler of ``group action`` is
``_cmd_group_action`` (hyphens as underscores) in the module of
``spherecomplex.commands`` that ``_COMMANDS`` names for it, and returns
``(values, results, passed, files)``, where ``files`` maps an output
option to the text it asked for; ``main`` builds every report from it
and writes every file, and when a write fails it removes the files it
has already written and the directories it made for them, so a failed
command leaves no partial outputs.  Handlers only translate arguments:
every document they export comes from one writer in ``serialization``,
and every input rule is checked by the library function that needs it,
whose ``ValueError`` becomes the error line.  A command loads ``cli``,
``serialization``, its handler module and the library modules it runs,
and no others; ``build_parser`` and every ``--help`` load no handler
module, and ``main`` gives only the command its argv names its
arguments (see ``build_parser``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Sequence

from . import serialization as ser

if TYPE_CHECKING:
    from .flagcomplex import FlagComplex
    from .pants import PantsDecomposition

try:  # CPython's own SHA-256: hashlib would load OpenSSL's _hashlib
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

OUT_DIR_ENV = "SPHERECOMPLEX_OUT_DIR"

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUT_DIR_ENV)
    if base:
        return os.path.join(base, path)
    return path


def _write_text(option: str, path: str, text: str, created: list[str]) -> str:
    """Write the file that ``option`` names, creating missing parent
    directories and adding each to ``created``; return its resolved path."""
    full = _resolve_out(path)
    parent = missing = os.path.dirname(full)
    try:
        while missing and not os.path.exists(missing):
            created.append(missing)
            missing = os.path.dirname(missing)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s %r: %s" % (option, path, exc)) from exc
    return full


def _write_outputs(outputs: list[tuple[str, str, str]]) -> None:
    """Write each (option, path, text) in turn, unless two paths resolve
    to one file; when one fails, remove the files written before it and
    then, deepest first, the directories created for them that are left
    empty, and raise."""
    seen = {}
    for option, path, _ in outputs:
        full = os.path.realpath(_resolve_out(path))
        if full in seen:
            raise ValueError("%s and %s name the same file %r" % (seen[full], option, full))
        seen[full] = option
    written, created = [], []
    try:
        for option, path, text in outputs:
            written.append(_write_text(option, path, text, created))
    except ValueError:
        for full in written:
            with contextlib.suppress(OSError):
                os.remove(full)
        for directory in sorted(created, key=len, reverse=True):
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def _read_json(option: str, path: str) -> dict:
    """Read the JSON object in the file that ``option`` names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError("cannot read %s %r: %s" % (option, path, exc)) from exc
    if not isinstance(doc, dict):
        raise ValueError("%s %r: top-level JSON value must be an object" % (option, path))
    return doc


def _digest(command: str, values: dict) -> str:
    blob = ser.dumps({"command": command, "values": values})
    return "sha256:" + sha256(blob.encode("utf-8")).hexdigest()


def _add_output_flags(p: argparse.ArgumentParser, outputs: str) -> None:
    p.add_argument("--out", metavar="PATH",
                   help="write the report here instead of stdout")
    if "--json" in outputs:
        p.add_argument("--json", metavar="PATH",
                       help="also write the primary artifact as JSON")
    if "--dot" in outputs:
        p.add_argument("--dot", metavar="PATH",
                       help="also write a DOT drawing")


def _add_complex_source(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--genus-zero", type=int, metavar="S",
                   help="genus-zero complex on s boundary labels")
    g.add_argument("--caterpillar", type=int, metavar="M",
                   help="caterpillar window with spine -m..m")
    g.add_argument("--catalog", metavar="NAME",
                   help="named reference complex (see `catalog`)")
    g.add_argument("--input", metavar="FILE",
                   help="complex JSON file")


def _complex_from_args(args: argparse.Namespace) -> tuple[FlagComplex, dict]:
    """Build the requested complex plus the input record for the report."""
    from .genus_zero import build_caterpillar_window, build_genus_zero_complex, catalog
    if args.genus_zero is not None:
        return build_genus_zero_complex(args.genus_zero), {"genus_zero": args.genus_zero}
    if args.caterpillar is not None:
        return (build_caterpillar_window(args.caterpillar).complex,
                {"caterpillar": args.caterpillar})
    if args.catalog is not None:
        return catalog(args.catalog), {"catalog": args.catalog}
    doc = _read_json("--input", args.input)
    c = ser.complex_from_dict(doc)
    return c, {"input_document": doc}


def _complex_files(args: argparse.Namespace, c: FlagComplex, name: str) -> dict:
    """The --json and --dot exports of ``c`` that ``args`` asks for."""
    files = {}
    if args.json is not None:
        files["--json"] = ser.dumps(ser.complex_to_dict(c))
    if args.dot is not None:
        files["--dot"] = ser.complex_to_dot(c, name=name)
    return files


def _id_map(src: FlagComplex, dst: FlagComplex, placement: Sequence[int]) -> dict:
    """An index tuple of the search engine as a dict of vertex ids."""
    return dict(zip(src.vertices, map(dst.vertices.__getitem__, placement)))


def _split_members(raw: str) -> list[str]:
    parts = [x.strip() for x in raw.split(";") if x.strip()]
    if not parts:
        raise ValueError("empty member list")
    return parts


def _pants_from_args(s: int, members: str) -> PantsDecomposition:
    """The pants decomposition of the genus-zero complex named by a
    --members value."""
    from .genus_zero import build_genus_zero_complex
    from .pants import PantsDecomposition
    c = build_genus_zero_complex(s)
    parts = _split_members(members)
    try:
        return PantsDecomposition(c, parts)
    except ValueError as exc:
        raise ValueError("not a pants decomposition: %s" % (exc,)) from exc


# -- parser ----------------------------------------------------------------

_S = ("--s", {"type": int, "required": True})
_GENUS_ZERO = ("--genus-zero", {"type": int, "required": True, "metavar": "S"})
_MEMBERS = ("--members", {"required": True})
_COMPLEX_SPEC = "catalog name, genus-zero:S, caterpillar:M, or file"

# group -> (help, {action: leaf}), or the group's one leaf itself; a leaf
# is (help, its handler's module in ``commands``, whether it reads a
# complex source, its other arguments, its output files besides --out)
_COMMANDS = {
    "complex": ("build and measure flag complexes", {
        "build": ("build a complex and export it", "complex", True, (),
                  "--json --dot"),
        "stats": ("f-vector, connectivity, cliques", "complex", True, (), ""),
        "homology": ("integer homology via Smith normal form", "complex", True, (
            ("--max-dim", {"type": int, "default": None,
                           "help": "top homology dimension (default: top simplex dimension)"}),
        ), "--json"),
    }),
    "pants": ("pants decompositions and flip moves", {
        "enumerate": ("all pants decompositions for s labels", "pants", False,
                      (_S,), ""),
        "flip-graph": ("flip graph over pants decompositions", "pants", False, (
            _S,
            ("--check-connected", {"action": "store_true",
                                   "help": "fail (exit 1) when the flip graph is disconnected"}),
        ), "--dot"),
        "dual": ("dual multigraph of a pants decomposition", "pants", False, (
            _S,
            ("--members", {"required": True,
                           "help": "semicolon-separated sphere ids, e.g. "
                                   "'p:1,2|s=5;p:1,2,5|s=5'"}),
        ), "--json --dot"),
    }),
    "dual": ("operations on dual multigraphs", {
        "classify": ("classify the link of an edge subset", "pants", False, (
            ("--edges", {"required": True, "help": "comma-separated bond indices, e.g. '0,2'"}),
            ("--input", {"metavar": "FILE", "help": "dual multigraph JSON file"}),
            ("--s", {"type": int, "help": "genus-zero s (with --members)"}),
            ("--members", {"help": "pants decomposition members (with --s)"}),
        ), ""),
    }),
    "whitney": ("edge isomorphisms and lifting", {
        "check": ("check an edge map, or run random roundtrips", "whitney", False, (
            ("--map", {"metavar": "FILE", "help": "edge map JSON file"}),
            ("--random-roundtrip", {"type": int, "metavar": "N",
                                    "help": "run N scramble-recover trials instead"}),
            ("--seed", {"type": int, "default": None}),
        ), ""),
        "lift": ("lift an edge isomorphism to vertices", "whitney", False,
                 (("--map", {"metavar": "FILE", "required": True}),), "--json"),
    }),
    "rigidity": ("automorphisms and rigidity certification", {
        "aut": ("automorphism group", "rigidity", True, (), ""),
        "verify": ("exhaustive rigidity certificate", "rigidity", True, (
            ("--subcomplex", {"help": "semicolon-separated vertex ids "
                                      "(default: the whole complex)"}),
            ("--mode", {"choices": ["plain", "over-maximal-maps"], "default": "plain"}),
        ), "--json"),
        "split": ("split spheres for a pants member", "rigidity", False,
                  (_GENUS_ZERO, _MEMBERS, ("--sphere", {"required": True})), ""),
        "xsigma": ("sigma plus the links of its co-member sets", "rigidity", False,
                   (_GENUS_ZERO, _MEMBERS), "--json --dot"),
        "witness": ("caterpillar non-rigidity witness", "rigidity", False, (
            ("--m", {"type": int, "required": True, "help": "window half-width"}),
            ("--x", {"required": True, "help": "semicolon-separated interior vertex ids"}),
        ), "--json"),
    }),
    "nonembed": ("exhaustively refute injective simplicial embeddings", "catalog", False, (
        ("--source", {"required": True, "help": _COMPLEX_SPEC}),
        ("--target", {"required": True, "help": _COMPLEX_SPEC}),
        ("--no-shortcut", {"action": "store_true", "help": "skip the acyclic-target pruning"}),
    ), ""),
    "census": ("good-pair censuses", {
        "good-pairs": ("good pairs for one cut-sphere pair", "catalog", False, (
            ("--n", {"type": int, "required": True}),
            _S,
            ("--pair", {"type": int, "default": 1, "help": "cut-sphere pair index"}),
        ), "--json"),
    }),
    "catalog": ("list the named reference complexes", "catalog", False, (), ""),
}


def _add_leaf(p: argparse.ArgumentParser, leaf: tuple) -> None:
    _, handler, source, arguments, outputs = leaf
    if source:
        _add_complex_source(p)
    for flag, options in arguments:
        p.add_argument(flag, **options)
    _add_output_flags(p, outputs)
    p.set_defaults(handler=handler)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Without ``argv`` it holds every command;
    with the ``argv`` it is about to parse, only the group and action
    that argv names get their subcommands and arguments.  Every group
    and action is still registered with its help, so help texts and
    usage errors are those of the whole tree."""
    group = action = None
    if argv and argv[0] in _COMMANDS:
        group, action = argv[0], (argv[1] if len(argv) > 1 else None)
    top = argparse.ArgumentParser(
        prog="spherecomplex",
        description="Finite sphere-complex machinery: genus-zero models, "
                    "pants and flip graphs, dual multigraphs, edge-isomorphism "
                    "lifting, homology, and rigidity certification.")
    sub = top.add_subparsers(dest="group", required=True)
    for name, entry in _COMMANDS.items():
        p = sub.add_parser(name, help=entry[0])
        if group not in (None, name):
            continue
        leaves = entry[1]
        if not isinstance(leaves, dict):
            _add_leaf(p, entry)
            continue
        actions = p.add_subparsers(dest="action", required=True)
        for key, leaf in leaves.items():
            q = actions.add_parser(key, help=leaf[0])
            if action not in leaves or action == key:
                _add_leaf(q, leaf)
    return top


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    command = " ".join(filter(None, (args.group, getattr(args, "action", None))))
    started = time.perf_counter()
    try:
        handler = importlib.import_module(".commands." + args.handler, __package__)
        run = getattr(handler, "_cmd_" + command.replace(" ", "_").replace("-", "_"))
        values, results, passed, files = run(args)
        report = {
            "command": command,
            "inputs": {"digest": _digest(command, values), "values": values},
            "results": results,
            "pass": passed,
            "timing": {"seconds": round(time.perf_counter() - started, 6)},
        }
        # "--json" -> args.json, "--dot" -> args.dot
        outputs = [(option, getattr(args, option[2:]), text)
                   for option, text in files.items()]
        if args.out is not None:
            outputs.append(("--out", args.out, ser.dumps(report)))
        _write_outputs(outputs)
        if args.out is None:
            sys.stdout.write(ser.dumps(report))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print("error: internal check failed: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
