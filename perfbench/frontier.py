"""Frontier probe: the s = 7 and s = 8 certificates that are out of reach
today, each run once in its own process under a wall-clock budget and an
address-space limit.  It is not part of the gated benchmark; it records
for each probe its seconds, ``timeout`` or ``memory``, so the frontier
has a trajectory.

    python3 perfbench/frontier.py

writes perfbench/frontier.json.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time

from workloads import child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUDGET_S = 60
MEM_LIMIT_MB = 2048

# name -> (code computing ``got`` from ``sc`` = spherecomplex, its closed form)
PROBES = {
    "homology s=7 full": (
        "r = sc.betti_numbers(sc.build_genus_zero_complex(7), 3); got = [list(r.betti), r.torsion == ((),) * 4]",
        [[1, 0, 0, 120], True]),
    "verify_rigidity whole s=7": (
        "c = sc.build_genus_zero_complex(7); r = sc.verify_rigidity(c.vertices, c); got = [r.total_maps, r.all_extend]",
        [5040, True]),
    "f_vector s=8": (
        "f = sc.f_vector(sc.build_genus_zero_complex(8)).counts; got = [f[0], f[-1], len(f)]",
        [2 ** 7 - 8 - 1, 10395, 5]),
    "enumerate_pants s=8": ("got = len(sc.enumerate_pants(8))", 10395),
    "pants_flip_graph s=8": (
        "fg = sc.pants_flip_graph(8); got = [len(fg.nodes), len(fg.edges), fg.connected]",
        [10395, 10395 * 5, True]),
    "homology s=8 full": (
        "r = sc.betti_numbers(sc.build_genus_zero_complex(8), 4); got = [list(r.betti), r.torsion == ((),) * 5]",
        [[1, 0, 0, 0, 720], True]),
}

CHILD = """
import json, sys, time
import spherecomplex as sc
t0 = time.perf_counter()
try:
    %s
except MemoryError:
    sys.exit(3)
print(json.dumps({"seconds": time.perf_counter() - t0, "got": got}))
"""


def probe(code: str, budget: float, mem_bytes: int) -> dict:
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))

    p = subprocess.Popen([sys.executable, "-c", CHILD % code], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=child_env(ROOT), cwd=ROOT,
                         preexec_fn=limit)
    try:
        out, err = p.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        return {"result": "timeout"}
    if p.returncode == 3 or "MemoryError" in err:
        return {"result": "memory"}
    if p.returncode != 0:
        return {"result": "error", "detail": err.strip().splitlines()[-1:]}
    doc = json.loads(out)
    return {"result": "time", "seconds": doc["seconds"], "got": doc["got"]}


def main() -> int:
    results = {}
    for name, (code, want) in PROBES.items():
        r = probe(code, BUDGET_S, MEM_LIMIT_MB << 20)
        if r["result"] == "time":
            r["correct"] = r["got"] == want
        results[name] = r
        print("%-28s %s" % (name, r), flush=True)
    doc = {"date": time.strftime("%Y-%m-%d"), "budget_s": BUDGET_S,
           "mem_limit_mb": MEM_LIMIT_MB, "cpus": os.cpu_count(),
           "python": platform.python_version(), "probes": results}
    with open(os.path.join(HERE, "frontier.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
