"""The benchmark's tracer must find every gnssfsl name it wraps.

perfbench/tracer.py patches functions and methods by name; a renamed or
deleted one would silently zero its per-layer metrics. This test only reads
perfbench/.
"""

import importlib.util
from pathlib import Path

import gnssfsl
from gnssfsl import cli  # noqa: F401  (install() wraps the cli stages)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_hook():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        tracer.install(t, gnssfsl)
        assert t.missing == []
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
