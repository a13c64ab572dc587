"""Spans around the library's public functions, and the per-layer metrics
computed from them.

The tracer wraps functions from the outside: each target is replaced by
a wrapper on every ``spherecomplex`` module attribute that holds it (for
example ``spherecomplex.search.automorphism_group`` and the
``spherecomplex.rigidity.automorphism_group`` that ``verify_rigidity``
calls), so nested calls become nested spans and each layer gets a self
time without any change to the library.  Spans stay in memory until
the run ends.

Run as a script, this file is the CLI entry point with tracing on: it
runs ``spherecomplex.cli.main`` on its arguments and appends one marker
line with its spans to standard error.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import zlib
from math import comb
from time import perf_counter

MARKER = "PERFBENCH-SPANS "


def _complex_key(args, kwargs, result) -> int:
    c = args[0]
    return zlib.crc32(repr((c.vertices, c._adj)).encode())


# dotted name under ``spherecomplex`` -> what the span records besides
# its times: None, or a function of (args, kwargs, result)
TARGETS = {
    "genus_zero.build_genus_zero_complex": None,
    "flagcomplex.FlagComplex.induced": None,
    "flagcomplex.link_of": None,
    "flagcomplex.maximal_cliques": None,
    "flagcomplex.cliques_of_size": lambda a, k, r: len(r),
    "flagcomplex.f_vector": None,
    "homology.betti_numbers": None,
    # computed from the shapes: a k-simplex column has k + 1 nonzeros
    "homology.boundary_matrix": lambda a, k, r: (len(r.rows) * len(r.cols),
                                                 len(r.cols) * (r.dim + 1)),
    "homology.smith_normal_form": None,
    "search.automorphism_group": _complex_key,
    "search.enumerate_automorphisms": None,
    "search.enumerate_locally_injective_maps": lambda a, k, r: len(r),
    "search.search_embedding": None,
    "rigidity.verify_rigidity": None,
    "rigidity.build_x_sigma": None,
    "pants.enumerate_pants": None,
    "pants.pants_flip_graph": None,
    "pants.flip_partners": None,
    "dual.dual_of_pants": None,
    "dual.classify_link": None,
    "dual.ih_flip": None,
    "dual.signature_of_dual": None,
    "whitney.lift_edge_isomorphism": None,
    # computed: the scan covers at most C(E, 3) edge triples
    "whitney.find_k3_k13_pair": lambda a, k, r: comb(a[0].source.n_edges, 3),
    "whitney.is_edge_isomorphism": None,
}

MODULES = sorted({name.split(".")[0] for name in TARGETS})


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    """Collects spans ``[name, parent, start, end, extra, phase]``; the
    parent is an index into ``spans`` or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.phase = "setup"
        self.child_main_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None, self.phase]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spherecomplex" or n.startswith("spherecomplex."))]
        for dotted, extra in TARGETS.items():
            parts = dotted.split(".")
            owner = importlib.import_module("spherecomplex." + parts[0])
            for p in parts[1:-1]:
                owner = getattr(owner, p)
            orig = vars(owner)[parts[-1]]
            wrapper = self._wrap(dotted, orig, extra)
            if isinstance(owner, type):
                self._patch(owner, parts[-1], wrapper, orig)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper, orig)

    def _patch(self, owner, attr, wrapper, orig) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def absorb_child(self, stderr: str) -> str:
        """Take the spans a traced CLI process wrote; return the rest of
        its standard error."""
        kept = []
        for line in stderr.splitlines(keepends=True):
            if not line.startswith(MARKER):
                kept.append(line)
                continue
            doc = json.loads(line[len(MARKER):])
            base = len(self.spans)
            for name, parent, t0, t1, extra, _ in doc["spans"]:
                self.spans.append([name, parent + base if parent >= 0 else -1,
                                   t0, t1, extra, self.phase])
            self.child_main_s.append(doc["main_s"])
        return "".join(kept)

    def per_layer(self, n_passes: int) -> dict[str, float]:
        """Per-layer metrics: set-up spans count once, pass spans are
        averaged over the traced passes."""
        spans = self.spans
        weight = [1.0 if s[5] == "setup" else 1.0 / n_passes for s in spans]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child_time[s[1]] += s[3] - s[2]

        def total(names, value=lambda i, s: s[3] - s[2]):
            return sum(value(i, s) * weight[i] for i, s in enumerate(spans) if s[0] in names)

        def t(name):
            return total({name})

        def calls(*names):
            return total(set(names), lambda i, s: 1)

        def self_time(i, s):
            return s[3] - s[2] - child_time[i]

        link = {"flagcomplex.link_of", "flagcomplex.FlagComplex.induced"}

        def outermost(i, s):  # induced called by link_of is inside it
            return 0.0 if s[1] >= 0 and spans[s[1]][0] in link else s[3] - s[2]

        aut = [s for s in spans if s[0] == "search.automorphism_group" and s[5] != "setup"]
        ratios = []
        for phase in sorted({s[5] for s in aut}):
            keys = [s[4] for s in aut if s[5] == phase]
            ratios.append(len(set(keys)) / len(keys))
        m = {
            "genus_zero.build_s": t("genus_zero.build_genus_zero_complex"),
            "flagcomplex.cliques_s": t("flagcomplex.cliques_of_size"),
            "flagcomplex.simplices": total({"flagcomplex.cliques_of_size"}, lambda i, s: s[4]),
            "flagcomplex.link_calls": calls(*link),
            "flagcomplex.link_s": total(link, outermost),
            "flagcomplex.maximal_cliques_s": t("flagcomplex.maximal_cliques"),
            "homology.boundary_s": t("homology.boundary_matrix"),
            "homology.boundary_cells": total({"homology.boundary_matrix"}, lambda i, s: s[4][0]),
            "homology.boundary_nnz": total({"homology.boundary_matrix"}, lambda i, s: s[4][1]),
            "homology.snf_s": t("homology.smith_normal_form"),
            "homology.snf_calls": calls("homology.smith_normal_form"),
            "search.aut_s": t("search.automorphism_group"),
            "search.aut_calls": calls("search.automorphism_group"),
            "search.aut_distinct_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
            "search.li_maps_s": t("search.enumerate_locally_injective_maps"),
            "search.li_maps_found": total({"search.enumerate_locally_injective_maps"}, lambda i, s: s[4]),
            "search.embedding_s": t("search.search_embedding"),
            "rigidity.verify_self_s": total({"rigidity.verify_rigidity"}, self_time),
            "rigidity.xsigma_s": t("rigidity.build_x_sigma"),
            "pants.enumerate_s": t("pants.enumerate_pants"),
            "pants.flip_graph_s": t("pants.pants_flip_graph"),
            "pants.flip_partners_calls": calls("pants.flip_partners"),
            "dual.dual_of_pants_s": t("dual.dual_of_pants"),
            "dual.classify_s": t("dual.classify_link"),
            "dual.ih_flip_s": t("dual.ih_flip"),
            "whitney.lift_s": t("whitney.lift_edge_isomorphism"),
            "whitney.k3k13_s": t("whitney.find_k3_k13_pair"),
            "whitney.k3k13_triples": total({"whitney.find_k3_k13_pair"}, lambda i, s: s[4]),
            "cli.cmd_s": sum(self.child_main_s) / n_passes,
        }
        for mod in MODULES:
            names = {n for n in TARGETS if n.split(".")[0] == mod}
            m[mod + ".self_s"] = total(names, self_time)
        return m


def main(argv: list[str]) -> int:
    import spherecomplex.cli as cli
    tracer = Tracer()
    tracer.install()
    started = perf_counter()
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        doc = {"main_s": perf_counter() - started, "spans": tracer.spans}
        sys.stderr.write(MARKER + json.dumps(doc) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
