"""The benchmark's tracer must find every gnssfsl name it wraps.

perfbench/tracer.py patches functions and methods by name; a renamed or
deleted one would silently zero its per-layer metrics. This test only reads
perfbench/.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import gnssfsl
from gnssfsl import cli  # noqa: F401  (install() wraps the cli stages)
from gnssfsl import fsl, losses, nncore
from gnssfsl.spectro import CorpusRecord, LabeledCorpus, SpectrogramImage

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


@pytest.mark.parametrize("kind", ["triplet", "quadruplet"])
def test_one_public_loss_call_per_pair_step(monkeypatch, kind):
    # The tracer counts every public losses function as losses.calls; a pair
    # step that called one loss through another would count twice.
    calls = []
    for name, fn in inspect.getmembers(losses, inspect.isfunction):
        if fn.__module__ == losses.__name__ and not name.startswith("_"):
            monkeypatch.setattr(
                losses, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
            )
    rng = np.random.default_rng(0)
    records = [
        CorpusRecord(f"{c}_{i}.img", c, "train", i, image=SpectrogramImage(pix, c))
        for c in range(3)
        for i, pix in enumerate(rng.integers(0, 256, size=(3, 8, 8), dtype=np.uint8))
    ]
    net = nncore.init(nncore.ArchConfig(height=8, width=8, conv_channels=(2,), embed_dim=4), 0)
    corpus = LabeledCorpus(records)
    config = fsl.TrainConfig(loss=kind, pair_batch=5)
    fsl._pairwise_step(net, corpus, fsl._class_index(corpus), config, None, rng)
    assert calls == [f"{kind}_loss"]
