"""Span tracer for the benchmark's traced runs.

Wrappers installed from here record one span per call into a gnssfsl layer:
name, start, end, parent span and operation id, plus an optional measurement
taken from the call's arguments (batch size, samples, computed FLOPs).  Spans
stay in memory until the run ends.  `uninstall` puts every original binding
back, so an untraced run pays nothing.

Layer boundaries are named after the package's modules (siggen, spectro,
nncore, losses, uncertainty, fsl, metrics, cli); `layer_metrics` folds the
spans into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

_MARK = "__perfbench_wrapped__"

# Batch sizes the benchmark's training configs issue on the desk corpus:
# episode support (7 base classes x 2 shots), episode queries (27: the rare
# classes have 3 train images left after their shots), the quadruplet pair
# batch (4 roles x 6), and ce minibatches of 32 with a last one of 18. Batch 1
# is single-snapshot labelling.
FWD_BATCHES = (1, 14, 18, 24, 27, 32)
BWD_BATCHES = (14, 18, 24, 27, 32)
CLI_STAGES = ("gen-data", "train", "ensemble", "mine", "adapt", "eval", "embed")
CONV_TAPS = 9  # nncore convolutions are 3x3


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, op id, measurement]
        self.spans: list[list] = []
        self.ops: list[tuple] = []  # (op id, start, end)
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self.missing: list[str] = []  # names install() looked for and did not find

    # -- operations ----------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as operation op_id and record its wall interval."""
        self.op = op_id
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ops.append((op_id, start, time.perf_counter()))

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, out)
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def patch_function(self, module, attr, name, measure=None):
        """Wrap module.attr and every other gnssfsl module binding of it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self.wrap(original, name, measure)
        for mod in _package_modules(module.__name__.split(".")[0]):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, measure=None):
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__qualname__}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, measure))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def _package_modules(package):
    return [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]


def leftover_wrappers(package="gnssfsl"):
    """Bindings in the package that are still tracer wrappers (should be none)."""
    found = []
    for mod in _package_modules(package):
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{key}.{k}"
                    for k, v in vars(value).items() if getattr(v, _MARK, False)
                ]
    return found


# ---------------------------------------------------------------------------
# What to wrap
# ---------------------------------------------------------------------------


def _batch_of(batch):
    if isinstance(batch, (list, tuple)):
        return len(batch)
    return 1 if getattr(batch, "ndim", 3) == 2 else len(batch)


def _conv_fwd_counts(args, kwargs, out):
    """Computed (FLOPs, bytes) of one conv forward from its array shapes."""
    _, x, p = args[:3]
    y = out[0]
    b, c, h, w = x.shape
    o = y.shape[1]
    flops = 2 * CONV_TAPS * b * h * w * c * o
    return flops, (x.size + p.size + y.size) * x.itemsize


def _conv_bwd_counts(args, kwargs, out):
    """Computed (FLOPs, bytes) of one conv backward: input and weight grads."""
    _, dy, p = args[:3]
    b, o, h, w = dy.shape
    c = (p.size - o) // (CONV_TAPS * o)
    flops = 2 * 2 * CONV_TAPS * b * h * w * c * o
    return flops, (dy.size + 2 * b * c * h * w + 2 * p.size) * dy.itemsize


def layer_classes(nncore):
    """nncore's layer classes, found by the layer protocol forward(x, p)."""
    found = {}
    for name, cls in inspect.getmembers(nncore, inspect.isclass):
        if cls.__module__ != nncore.__name__:
            continue
        fwd, bwd = cls.__dict__.get("forward"), cls.__dict__.get("backward")
        if fwd is None or bwd is None:
            continue
        if list(inspect.signature(fwd).parameters)[:3] != ["self", "x", "p"]:
            continue
        lowered = name.lower()
        kind = "conv" if "conv" in lowered else "pool" if "maxpool" in lowered else "other"
        found[cls] = kind
    return found


def install(tracer, pkg):
    """Wrap the calls into every gnssfsl layer the benchmark reaches."""
    cli, fsl, losses, metrics = pkg.cli, pkg.fsl, pkg.losses, pkg.metrics
    nncore, siggen, spectro, uncertainty = pkg.nncore, pkg.siggen, pkg.spectro, pkg.uncertainty
    pf = tracer.patch_function

    for attr in dir(cli):
        if attr.startswith("cmd_"):
            pf(cli, attr, "cli." + attr[4:].replace("_", "-"))
    samples = lambda a, k, out: out.num_samples
    for attr in ("gen_background", "gen_jammer", "mix"):
        pf(siggen, attr, "siggen", samples)
    pf(spectro, "stft_magnitude", "spectro.stft")
    for attr in ("quantize", "resize"):
        pf(spectro, attr, "spectro.image")
    one_file = lambda a, k, out: 1
    pf(spectro, "write_image", "spectro.io", one_file)
    pf(spectro, "read_image", "spectro.io", one_file)
    pf(spectro, "load_corpus", "spectro.io", lambda a, k, out: 0)

    net_cls = nncore.EmbeddingNetwork
    tracer.patch_method(net_cls, "forward_with_cache", "nncore.fwd",
                        lambda a, k, out: _batch_of(a[1] if len(a) > 1 else k["batch"]))
    tracer.patch_method(net_cls, "backward_from", "nncore.bwd",
                        lambda a, k, out: a[2].shape[0])
    pf(nncore, "sgd_step", "nncore.sgd")
    pf(nncore, "init", "nncore.init")
    for attr in ("save_checkpoint", "load_checkpoint"):
        pf(nncore, attr, "nncore.ckpt")
    for cls, kind in layer_classes(nncore).items():
        conv = kind == "conv"
        tracer.patch_method(cls, "forward", f"nncore.{kind}.fwd",
                            _conv_fwd_counts if conv else None)
        tracer.patch_method(cls, "backward", f"nncore.{kind}.bwd",
                            _conv_bwd_counts if conv else None)

    for attr, fn in inspect.getmembers(losses, inspect.isfunction):
        if fn.__module__ == losses.__name__ and not attr.startswith("_"):
            pf(losses, attr, "losses")

    pf(fsl, "train", "fsl.train")
    pf(fsl, "classify_batch", "fsl.classify")
    pf(fsl, "compute_prototypes", "fsl.prototypes")
    pf(fsl, "build_similarity_map", "fsl.simmap")

    def predict_key(args, kwargs, out):
        member, images = args[0], args[1]
        key = tuple(map(id, images)) if isinstance(images, (list, tuple)) else id(images)
        return _batch_of(images), hash((id(member), key))

    pf(uncertainty, "predict_member", "uncertainty.predict", predict_key)
    pf(uncertainty, "decompose_uncertainty", "uncertainty.decompose")

    pf(metrics, "tsne", "metrics.tsne", lambda a, k, out: len(a[0]))
    for attr in ("confusion", "f_beta", "macro_f_beta", "macro_recall",
                 "binary_detection_metrics"):
        pf(metrics, attr, "metrics.score")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _merged_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return [
        (s[2] - s[1]) - _merged_length(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def uncovered(tracer, op_ids):
    """Wall time of the given operations that no layer span covers."""
    roots: dict = {}
    for s in tracer.spans:
        if s[3] < 0:
            roots.setdefault(s[4], []).append((s[1], s[2]))
    return sum(
        (end - start) - _merged_length(roots.get(op, ()), start, end)
        for op, start, end in tracer.ops if op in op_ids
    )


def _median_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(tracer):
    """Per-layer metrics, per traced operation (set-up reported apart)."""
    op_ids = {op for op, _, _ in tracer.ops if op != "setup"}
    n_ops = max(1, len(op_ids))
    selfs = self_times(tracer.spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    setup_layer: dict[str, float] = {}
    fwd_by_batch: dict[int, list] = {}
    bwd_by_batch: dict[int, list] = {}
    images = {"nncore.fwd": 0, "nncore.bwd": 0, "uncertainty.predict": 0}
    siggen_samples = io_files = tsne_points = 0
    conv_flops = conv_bytes = 0
    predict_keys: dict = {}
    cli_total: dict[str, float] = {}
    train_sgd = 0

    for span, st in zip(tracer.spans, selfs):
        name, start, end, parent, op, meas = span
        if op == "setup":
            layer = name.split(".")[0]
            setup_layer[layer] = setup_layer.get(layer, 0.0) + st
            continue
        self_s[name] = self_s.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        if name.startswith("cli."):
            cli_total[name] = cli_total.get(name, 0.0) + (end - start)
        elif name == "siggen":
            siggen_samples += meas
        elif name == "spectro.io":
            io_files += meas
        elif name in ("nncore.fwd", "nncore.bwd"):
            images[name] += meas
            table = fwd_by_batch if name == "nncore.fwd" else bwd_by_batch
            table.setdefault(meas, []).append(end - start)
        elif name == "nncore.sgd":
            train_sgd += 1
        elif name.startswith("nncore.conv."):
            conv_flops += meas[0]
            conv_bytes += meas[1]
        elif name == "uncertainty.predict":
            images[name] += meas[0]
            predict_keys.setdefault(op, []).append(meas[1])
        elif name == "metrics.tsne":
            tsne_points += meas

    per = lambda v: v / n_ops
    s = lambda *names: per(sum(self_s.get(n, 0.0) for n in names))
    c = lambda name: per(calls.get(name, 0))
    issued = sum(len(v) for v in predict_keys.values())
    distinct = sum(len(set(v)) for v in predict_keys.values())
    conv_s = s("nncore.conv.fwd", "nncore.conv.bwd")

    out = {f"cli.{st}.s": per(cli_total.get(f"cli.{st}", 0.0)) for st in CLI_STAGES}
    out.update({
        "siggen.calls": c("siggen"),
        "siggen.self_s": s("siggen"),
        "siggen.samples": per(siggen_samples),
        "spectro.stft.self_s": s("spectro.stft"),
        "spectro.stft.calls": c("spectro.stft"),
        "spectro.image.self_s": s("spectro.image"),
        "spectro.io.self_s": s("spectro.io"),
        "spectro.io.files": per(io_files),
        "nncore.fwd.calls": c("nncore.fwd"),
        "nncore.fwd.images": per(images["nncore.fwd"]),
        "nncore.fwd.self_s": s("nncore.fwd"),
        "nncore.bwd.calls": c("nncore.bwd"),
        "nncore.bwd.images": per(images["nncore.bwd"]),
        "nncore.bwd.self_s": s("nncore.bwd"),
        "nncore.sgd.calls": c("nncore.sgd"),
        "nncore.sgd.self_s": s("nncore.sgd"),
        "nncore.ckpt.self_s": s("nncore.ckpt"),
        "nncore.init.self_s": s("nncore.init"),
        "nncore.conv.fwd_s": s("nncore.conv.fwd"),
        "nncore.conv.bwd_s": s("nncore.conv.bwd"),
        "nncore.pool.fwd_s": s("nncore.pool.fwd"),
        "nncore.pool.bwd_s": s("nncore.pool.bwd"),
        "nncore.other.s": s("nncore.other.fwd", "nncore.other.bwd"),
        "nncore.conv.gflop": per(conv_flops) / 1e9,
        "nncore.conv.mb_moved": per(conv_bytes) / 1e6,
        "nncore.conv.gflop_per_s": (per(conv_flops) / 1e9) / conv_s if conv_s > 0 else 0.0,
    })
    for b in FWD_BATCHES:
        out[f"nncore.fwd_ms.b{b}"] = _median_ms(fwd_by_batch.get(b, []))
    for b in BWD_BATCHES:
        out[f"nncore.bwd_ms.b{b}"] = _median_ms(bwd_by_batch.get(b, []))
    out.update({
        "losses.calls": c("losses"),
        "losses.self_s": s("losses"),
        "fsl.train.self_s": s("fsl.train"),
        "fsl.train.steps": per(train_sgd),
        "fsl.classify.self_s": s("fsl.classify"),
        "fsl.prototypes.self_s": s("fsl.prototypes"),
        "fsl.simmap.self_s": s("fsl.simmap"),
        "uncertainty.predict.calls": c("uncertainty.predict"),
        "uncertainty.predict.images": per(images["uncertainty.predict"]),
        "uncertainty.predict.self_s": s("uncertainty.predict"),
        "uncertainty.decompose.self_s": s("uncertainty.decompose"),
        "uncertainty.useful_forward_ratio": distinct / issued if issued else 0.0,
        "metrics.tsne.self_s": s("metrics.tsne"),
        "metrics.tsne.points": per(tsne_points),
        "metrics.score.self_s": s("metrics.score"),
        "trace.uncovered_s": per(uncovered(tracer, op_ids)),
        "trace.ops": float(len(op_ids)),
    })
    for layer in ("cli", "siggen", "spectro", "nncore", "losses", "fsl", "uncertainty", "metrics"):
        out[f"setup.{layer}.self_s"] = setup_layer.get(layer, 0.0)
    out["setup.uncovered_s"] = uncovered(tracer, {"setup"})
    return out
