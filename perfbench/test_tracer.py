"""Self-checks of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tr  # noqa: E402


def span(name, start, end, parent=-1, op=0, meas=None):
    return [name, start, end, parent, op, meas]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a: the union counts once
        span("c", 8.0, 12.0, parent=0),  # only its part inside the parent counts
        span("a.leaf", 1.5, 2.0, parent=1),
    ]
    assert tr.self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_uncovered_is_op_time_outside_root_spans():
    t = tr.Tracer()
    t.ops = [(0, 0.0, 10.0), ("setup", 20.0, 24.0)]
    t.spans = [
        span("x", 1.0, 4.0), span("x.child", 2.0, 3.0, parent=0),
        span("y", 6.0, 7.0), span("s", 21.0, 22.0, op="setup"),
    ]
    assert tr.uncovered(t, {0}) == pytest.approx(6.0)
    assert tr.uncovered(t, {"setup"}) == pytest.approx(3.0)


def test_layer_metrics_are_per_operation():
    t = tr.Tracer()
    t.ops = [(0, 0.0, 1.0), (1, 1.0, 2.0)]
    t.spans = [
        span("nncore.fwd", 0.0, 0.5, op=0, meas=14),
        span("nncore.conv.fwd", 0.1, 0.3, parent=0, op=0, meas=(1000, 10)),
        span("nncore.fwd", 1.0, 1.7, op=1, meas=14),
        span("nncore.conv.fwd", 1.1, 1.3, parent=2, op=1, meas=(1000, 10)),
    ]
    m = tr.layer_metrics(t)
    assert m["nncore.fwd.calls"] == 1.0
    assert m["nncore.fwd.images"] == 14.0
    assert m["nncore.fwd.self_s"] == pytest.approx((0.3 + 0.5) / 2)
    assert m["nncore.conv.fwd_s"] == pytest.approx(0.2)
    assert m["nncore.conv.gflop"] == pytest.approx(1e-6)
    assert m["nncore.fwd_ms.b14"] == pytest.approx(600.0)
    assert m["trace.uncovered_s"] == pytest.approx(0.4)


def test_every_wrapper_is_removed_after_a_traced_run():
    import numpy as np

    import gnssfsl
    from gnssfsl import cli, fsl, nncore  # noqa: F401

    def bindings():
        out = {}
        for mod in tr._package_modules("gnssfsl"):
            for key, value in vars(mod).items():
                out[(mod.__name__, key)] = value
        for cls in [nncore.EmbeddingNetwork, *tr.layer_classes(nncore)]:
            for key, value in vars(cls).items():
                out[(cls.__qualname__, key)] = value
        return out

    before = bindings()
    net = nncore.init(nncore.ArchConfig(conv_channels=(4,), embed_dim=4), seed=0)
    batch = np.zeros((3, 32, 32), dtype=np.uint8)

    t = tr.Tracer()
    tr.install(t, gnssfsl)
    try:
        # Names fsl imported from nncore and uncertainty are patched too.
        assert fsl.init is nncore.init and fsl.sgd_step is nncore.sgd_step
        assert fsl.predict_member is gnssfsl.uncertainty.predict_member
        assert tr.leftover_wrappers()
        assert t.missing == []
        t.run_op(0, net.infer, batch)
    finally:
        t.uninstall()

    names = {s[0] for s in t.spans}
    assert {"nncore.fwd", "nncore.conv.fwd", "nncore.pool.fwd", "nncore.other.fwd"} <= names
    assert tr.leftover_wrappers() == []
    assert bindings() == before
    recorded = len(t.spans)
    net.infer(batch)
    assert len(t.spans) == recorded


def test_layer_classes_follow_the_layer_protocol():
    from gnssfsl import nncore

    kinds = tr.layer_classes(nncore)
    assert nncore.EmbeddingNetwork not in kinds
    assert set(kinds.values()) == {"conv", "pool", "other"}
