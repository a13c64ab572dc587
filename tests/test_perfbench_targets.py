"""The benchmark tracer wraps library functions by dotted name; a rename
in the library must fail here, not only under ``pytest perfbench``."""

import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_targets() -> list[str]:
    # executed from its source text, so no bytecode is written next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return sorted(namespace["TARGETS"])


@pytest.mark.parametrize("dotted", tracer_targets())
def test_tracer_target_resolves_to_a_callable(dotted):
    module, *attrs = dotted.split(".")
    owner = importlib.import_module("spherecomplex." + module)
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)
