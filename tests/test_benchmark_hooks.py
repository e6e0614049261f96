"""The benchmark's tracer must find every gnssfsl name it wraps.

perfbench/tracer.py patches functions and methods by name; a renamed or
deleted one would silently zero its per-layer metrics. This test only reads
perfbench/.
"""

import importlib.util
from pathlib import Path

import gnssfsl
from gnssfsl import cli  # noqa: F401  (install() wraps the cli stages)
from gnssfsl import nncore

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_finds_every_hook():
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        tracer.install(t, gnssfsl)
        assert t.missing == []
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []


def test_tracer_splits_conv_and_pool_layers():
    # The conv/pool metrics are keyed on these class names; a rename or a
    # fused layer would silently read 0.
    kinds = _load_tracer().layer_classes(nncore)
    assert kinds[nncore._ConvRelu] == "conv"
    assert kinds[nncore._MaxPool2] == "pool"
