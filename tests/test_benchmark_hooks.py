"""The benchmark's tracer must find every gnssfsl name it wraps.

perfbench/tracer.py patches functions and methods by name; a renamed or
deleted one would silently zero its per-layer metrics. This test only reads
perfbench/.
"""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_infer_runs_through_forward_with_cache(monkeypatch):
    # The tracer times inference as nncore.fwd by wrapping forward_with_cache;
    # an inference path beside it would drop out of every traced metric.
    calls = []
    original = nncore.EmbeddingNetwork.forward_with_cache

    def counting(self, *args, **kwargs):
        calls.append(args[0] if args else kwargs["batch"])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(nncore.EmbeddingNetwork, "forward_with_cache", counting)
    net = nncore.init(nncore.ArchConfig(conv_channels=(4,), embed_dim=4), seed=0)
    for batch in (1, 16, 40):
        images = np.zeros((batch, 32, 32), dtype=np.uint8)
        calls.clear()
        net.infer(images)
        assert len(calls) == 1 and calls[0] is images
