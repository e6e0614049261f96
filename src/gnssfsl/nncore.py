"""Small convolutional embedding network with hand-derived exact gradients.

Stack: repeated [conv 3x3 (pad 1) + bias + ReLU + 2x2 max-pool], global average
pool, dense projection to the embedding, and an optional dense classifier head.

Parameters live in one flat vector so the optimizer and gradient checks treat
the whole network uniformly. float32 is the training default; float64 is used
when gradients are checked against finite differences.
"""

from __future__ import annotations

import functools
import json
import numbers
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import jsondoc

CHECKPOINT_MAGIC = b"GNSSNET1"

_DTYPES = {"f32": np.float32, "f64": np.float64}

# Images per conv-forward tile. At 16, layer 0's tile buffers of the bench
# architecture take about 1.3 MB, inside a 2 MB per-core L2; 8 and 24 ran as
# fast, 32 slower.
_TILE_IMAGES = 16


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class ArchConfig:
    height: int = 32
    width: int = 32
    conv_channels: tuple = (16, 32, 64)
    embed_dim: int = 64
    num_classes: Optional[int] = None
    dtype: str = "f32"

    def __post_init__(self):
        for name in ("height", "width", "embed_dim") + (
            ("num_classes",) if self.num_classes is not None else ()
        ):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.conv_channels, tuple) or not all(
            _is_int(c) and c > 0 for c in self.conv_channels
        ):
            raise ValueError(
                f"conv_channels must be a tuple of positive integers, got {self.conv_channels!r}"
            )
        if not isinstance(self.dtype, str):
            raise ValueError(f"dtype must be a string, got {self.dtype!r}")
        if self.height <= 0 or self.width <= 0:
            raise ValueError(f"bad input dims {self.height}x{self.width}")
        if self.embed_dim <= 0:
            raise ValueError("embed_dim must be positive")
        if len(self.conv_channels) == 0:
            raise ValueError("need at least one conv block")
        if self.num_classes is not None and self.num_classes < 2:
            raise ValueError("classifier head needs >= 2 classes")
        if self.dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")
        h, w = self.height, self.width
        for _ in self.conv_channels:
            h, w = h // 2, w // 2
            if h == 0 or w == 0:
                raise ValueError(
                    f"input {self.height}x{self.width} too small for "
                    f"{len(self.conv_channels)} pooling stages"
                )

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


def softmax_normalize(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis; rows sum to 1."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Gradient through softmax: given s = softmax(x) and dL/ds, return dL/dx."""
    dot = np.sum(ds * s, axis=-1, keepdims=True)
    return s * (ds - dot)


def sgd_step(
    params: np.ndarray,
    grads: np.ndarray,
    lr: float,
    weight_decay: float = 0.0,
    decay_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vanilla SGD with decoupled-style L2: p <- p - lr*(g + wd*p).

    `decay_mask` marks coordinates subject to decay (weights, not biases).
    """
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch {params.shape} vs {grads.shape}")
    if not np.all(np.isfinite(grads)):
        bad = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise FloatingPointError(f"non-finite gradient at coordinate {bad}")
    decay = grads.dtype.type(weight_decay)
    if weight_decay == 0.0:
        update = grads
    elif decay_mask is None:
        update = grads + decay * params
    else:
        update = grads + decay * np.where(decay_mask, params, 0)
    return params - grads.dtype.type(lr) * update


# ---------------------------------------------------------------------------
# Layers. Each layer owns a slice of the flat parameter vector: n_params
# values, the first n_weights of them weights with fan_in inputs each, the
# rest biases. It implements forward(x, p) -> (y, cache) and
# backward(dy, p, cache) -> (dx, dp).
# ---------------------------------------------------------------------------


class _ConvRelu:
    """3x3 convolution (padding 1) + bias + ReLU.

    Each of the nine taps is one BLAS product with fixed operand layouts:
    forward (O,C)@(C,B*H*W), weight gradient (O,B*H*W)@(B*H*W,C), input
    gradient (B*H*W,O)@(O,C), accumulated in row-major tap order. OpenBLAS
    picks its kernel by shape, so these shapes and layouts fix the rounding;
    fusing the taps into one larger product changes the low bits.

    `input_grad=False` (the network's first layer, whose input is the image)
    skips the input gradient, and backward returns None for it.
    """

    def __init__(self, in_ch: int, out_ch: int, input_grad: bool = True):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.fan_in = in_ch * 9
        self.n_weights = out_ch * self.fan_in
        self.n_params = self.n_weights + out_ch
        self.input_grad = input_grad

    def _tap_weights(self, p):
        """(3, 3, O, C): one C-contiguous (O, C) weight matrix per tap."""
        w = p[: self.n_weights].reshape(self.out_ch, self.in_ch, 3, 3)
        return np.ascontiguousarray(w.transpose(2, 3, 0, 1))

    def forward(self, x, p):
        # Tiles of _TILE_IMAGES keep the padded input, tap columns, product
        # and accumulator cache-resident. A tap product's columns do not
        # depend on the other images, so tiling leaves every output bit as is.
        bsz, c, h, wd = x.shape
        o = self.out_ch
        taps = self._tap_weights(p)
        bias = p[self.n_weights :, None]
        y = np.empty((bsz, o, h, wd), dtype=x.dtype)
        t = 0
        for start in range(0, bsz, _TILE_IMAGES):
            xt = x[start : start + _TILE_IMAGES]
            if len(xt) != t:  # the first tile, and a shorter tail tile
                t, n = len(xt), len(xt) * h * wd
                # Channel-major padded input: each tap is one slice copy to (C, t*H*W).
                xp = np.zeros((c, t, h + 2, wd + 2), dtype=x.dtype)
                cols = np.empty((c, t, h, wd), dtype=x.dtype)
                prod = np.empty((o, n), dtype=x.dtype)
                acc = np.empty((o, n), dtype=x.dtype)
            xp[:, :, 1 : h + 1, 1 : wd + 1] = xt.transpose(1, 0, 2, 3)
            acc.fill(0)
            for ky in range(3):
                for kx in range(3):
                    np.copyto(cols, xp[:, :, ky : ky + h, kx : kx + wd])
                    np.dot(taps[ky, kx], cols.reshape(c, n), out=prod)
                    acc += prod
            acc += bias
            a = acc.reshape(o, t, h, wd).transpose(1, 0, 2, 3)
            np.multiply(a, a > 0, out=y[start : start + t])
        return y, (x, y)

    def backward(self, dy, p, cache):
        x, y = cache
        dy = dy * (y > 0)
        bsz, o, h, wd = dy.shape
        c = self.in_ch
        db = dy.sum(axis=(0, 2, 3))
        # Channels-last padded input: each tap is one slice copy to (B*H*W, C).
        xp = np.zeros((bsz, h + 2, wd + 2, c), dtype=x.dtype)
        xp[:, 1 : h + 1, 1 : wd + 1, :] = x.transpose(0, 2, 3, 1)
        cols = np.empty((bsz, h, wd, c), dtype=x.dtype)
        dw = np.empty((3, 3, o, c), dtype=x.dtype)
        # reshape copies unless it can view; a batch of one gives a
        # transposed view, and BLAS then runs that layout's kernel.
        dy_om = dy.transpose(1, 0, 2, 3).reshape(o, -1)
        if self.input_grad:
            taps = self._tap_weights(p)
            dy_cl = dy.transpose(0, 2, 3, 1).reshape(-1, o)
            dxp = np.zeros_like(xp)
            prod = np.empty((bsz, h, wd, c), dtype=x.dtype)
        for ky in range(3):
            for kx in range(3):
                np.copyto(cols, xp[:, ky : ky + h, kx : kx + wd, :])
                np.dot(dy_om, cols.reshape(-1, c), out=dw[ky, kx])
                if self.input_grad:
                    np.dot(dy_cl, taps[ky, kx], out=prod.reshape(-1, c))
                    dxp[:, ky : ky + h, kx : kx + wd, :] += prod
        dp = np.concatenate([dw.transpose(2, 3, 0, 1).ravel(), db])
        if not self.input_grad:
            return None, dp
        return dxp[:, 1 : h + 1, 1 : wd + 1, :].transpose(0, 3, 1, 2), dp


class _MaxPool2:
    """2x2 max-pool, stride 2; odd trailing rows/cols are dropped.

    Each window's gradient goes to its first maximum in row-major window
    order, as argmax would send it.
    """

    fan_in = n_weights = n_params = 0

    @staticmethod
    def _taps(x):
        """The four strided window taps, in row-major window order."""
        h2, w2 = x.shape[2] // 2, x.shape[3] // 2
        return [x[:, :, i : 2 * h2 : 2, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]

    def forward(self, x, p):
        t = self._taps(x)
        # np.maximum returns its second argument on a tie, so among equal
        # maxima (+0.0 and -0.0) the earliest tap's value is kept, as argmax's.
        y = np.maximum(t[1], t[0])
        np.maximum(t[2], y, out=y)
        np.maximum(t[3], y, out=y)
        return y, (x, y)

    def backward(self, dy, p, cache):
        x, y = cache
        t = self._taps(x)
        dx = np.zeros(x.shape, dtype=dy.dtype)
        d = self._taps(dx)
        hit = t[0] == y
        np.multiply(dy, hit, out=d[0])
        free = ~hit
        for k in (1, 2):
            hit = t[k] == y
            hit &= free
            np.multiply(dy, hit, out=d[k])
            free &= ~hit
        # The last tap takes every window whose maximum no earlier tap holds.
        np.multiply(dy, free, out=d[3])
        return dx, np.zeros(0, dtype=dy.dtype)


class _GlobalAvgPool:
    fan_in = n_weights = n_params = 0

    def forward(self, x, p):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy, p, cache):
        bsz, c, h, w = cache
        dx = np.broadcast_to(dy[:, :, None, None], (bsz, c, h, w)) / (h * w)
        return dx.astype(dy.dtype), np.zeros(0, dtype=dy.dtype)


class _Dense:
    def __init__(self, in_features: int, out_features: int):
        self.in_features = in_features
        self.out_features = out_features
        self.fan_in = in_features
        self.n_weights = out_features * in_features
        self.n_params = self.n_weights + out_features

    def forward(self, x, p):
        w = p[: self.n_weights].reshape(self.out_features, self.in_features)
        b = p[self.n_weights :]
        return x @ w.T + b, x

    def backward(self, dy, p, cache):
        x = cache
        w = p[: self.n_weights].reshape(self.out_features, self.in_features)
        dx = dy @ w
        dw = dy.T @ x
        db = dy.sum(axis=0)
        return dx, np.concatenate([dw.ravel(), db])


def _build_layers(config: ArchConfig) -> list:
    """[conv, pool] per block, global average pool, embedding, optional head."""
    # Input channels: the image plus a fixed frequency-coordinate plane.
    in_ch = 2
    layers = []
    for out_ch in config.conv_channels:
        # The first layer's input is the image: no gradient is taken for it.
        layers.append(_ConvRelu(in_ch, out_ch, input_grad=bool(layers)))
        layers.append(_MaxPool2())
        in_ch = out_ch
    layers.append(_GlobalAvgPool())
    layers.append(_Dense(in_ch, config.embed_dim))
    if config.num_classes is not None:
        layers.append(_Dense(config.embed_dim, config.num_classes))
    return layers


@functools.lru_cache(maxsize=8)
def _freq_ramp(height: int, dtype) -> np.ndarray:
    """Read-only frequency coordinate of each image row, -0.5 to 0.5."""
    ramp = np.linspace(-0.5, 0.5, height, dtype=dtype)
    ramp.flags.writeable = False
    return ramp


class EmbeddingNetwork:
    """Feature extractor f(X) with flat parameters and exact gradients.

    `params` is the flat parameter vector in `config`'s dtype, as `init`
    draws it or `load_checkpoint` reads it; `seed` is the seed it was drawn
    from, kept for the checkpoint header.
    """

    def __init__(self, config: ArchConfig, seed: int, params: np.ndarray):
        self.config = config
        self.seed = seed
        self._layers = _build_layers(config)
        self._embed_index = 2 * len(config.conv_channels) + 1
        self._head_index = None if config.num_classes is None else self._embed_index + 1
        self._offsets = np.cumsum([0] + [l.n_params for l in self._layers])
        self.n_params = int(self._offsets[-1])
        self.params = params

    def _param_slice(self, i: int) -> slice:
        return slice(int(self._offsets[i]), int(self._offsets[i + 1]))

    def decay_mask(self) -> np.ndarray:
        """True on every weight, False on every bias."""
        return np.concatenate([np.arange(l.n_params) < l.n_weights for l in self._layers])

    # -- forward / backward -------------------------------------------------

    def _stack(self, batch) -> np.ndarray:
        """The batch as one (B, H, W) array of the network's input size."""
        if isinstance(batch, (list, tuple)):
            batch = np.stack(batch)
        x = np.asarray(batch)
        if x.ndim == 2:
            x = x[None]
        if x.ndim != 3:
            raise ValueError(f"expected (batch, h, w), got shape {x.shape}")
        if x.shape[1] != self.config.height or x.shape[2] != self.config.width:
            raise ValueError(
                f"image shape {x.shape[1:]}, network expects "
                f"{self.config.height}x{self.config.width}"
            )
        return x

    def _planes(self, x: np.ndarray) -> np.ndarray:
        """A fresh (B, 2, H, W) network input for a checked (B, H, W) stack:
        the pixels (u8 scaled to [0, 1]) and the frequency coordinate.

        Fresh on every call: with a cache it is layer 0's kept input.
        """
        dtype = self.config.np_dtype
        out = np.empty((len(x), 2) + x.shape[1:], dtype=dtype)
        if x.dtype == np.uint8:
            np.divide(x, dtype(255.0), out=out[:, 0], dtype=dtype)
        else:
            out[:, 0] = x
        # Global average pooling is otherwise blind to where along the
        # frequency axis energy sits, and tone classes are defined by that.
        out[:, 1] = _freq_ramp(self.config.height, dtype)[:, None]
        return out

    def forward_with_cache(self, batch, with_head: bool = False, cache: bool = True):
        """Forward pass returning (output, cache); the cache feeds backward_from.

        With `cache=False` the conv/pool stack and the global average pool
        run one _TILE_IMAGES tile at a time and keep nothing, so memory does
        not grow with the batch, and the cache returned is None. Every
        output bit is as with `cache=True`: each conv call sees the tiles its
        own loop would use, pooling is per image, and the dense layers still
        run once on the whole batch (tiling them changes their rounding).
        """
        if with_head and self._head_index is None:
            raise ValueError("network has no classifier head")
        images = self._stack(batch)
        n = len(images)
        stop = self._head_index if with_head else self._embed_index
        span = max(n, 1)  # an empty batch runs as one empty tile
        tile = span if cache else _TILE_IMAGES
        caches = []
        for start in range(0, span, tile):
            x = self._planes(images[start : start + tile])
            for i, layer in enumerate(self._layers[: self._embed_index]):
                x, c = layer.forward(x, self.params[self._param_slice(i)])
                if cache:
                    caches.append(c)
            if len(x) == n:  # one tile: its features are the batch's
                features = x
            else:
                if start == 0:
                    features = np.empty((n,) + x.shape[1:], dtype=x.dtype)
                features[start : start + len(x)] = x
        x = features
        for i in range(self._embed_index, stop + 1):
            x, c = self._layers[i].forward(x, self.params[self._param_slice(i)])
            caches.append(c)
        if not cache:
            return x, None
        return x, {"caches": caches, "stop": stop}

    def infer(self, batch, with_head: bool = False) -> np.ndarray:
        """Forward pass for inference, tile by tile; keeps no cache for backward."""
        out, _ = self.forward_with_cache(batch, with_head, cache=False)
        return out

    def backward_from(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Parameter gradient for upstream gradient grad_out at a cached forward."""
        stop = cache["stop"]
        caches = cache["caches"]
        grads = np.zeros_like(self.params)
        dy = np.asarray(grad_out, dtype=self.config.np_dtype)
        for i in range(stop, -1, -1):
            layer = self._layers[i]
            dy, dp = layer.backward(dy, self.params[self._param_slice(i)], caches[i])
            grads[self._param_slice(i)] = dp
        return grads


def init(config: ArchConfig, seed: int) -> EmbeddingNetwork:
    """He-uniform weights in ±√(6/fan_in), zero biases, drawn layer by layer
    from one generator; same seed gives bit-identical params."""
    rng = np.random.default_rng(seed)
    parts = []
    for layer in _build_layers(config):
        if layer.n_weights:  # the pooling layers have no parameters
            bound = np.sqrt(6.0 / layer.fan_in)
            parts.append(rng.uniform(-bound, bound, size=layer.n_weights))
            parts.append(np.zeros(layer.n_params - layer.n_weights))
    return EmbeddingNetwork(config, seed, np.concatenate(parts).astype(config.np_dtype))


_HEADER_FIELDS = {f.name for f in fields(ArchConfig)}


def _wire_dtype(config: ArchConfig) -> np.dtype:
    return np.dtype(config.np_dtype).newbyteorder("<")


def save_checkpoint(net: EmbeddingNetwork, path: str | Path) -> None:
    """Write magic, u32-LE header length, JSON header, then the parameters
    little-endian in the header's dtype."""
    header = {**asdict(net.config), "seed": net.seed}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = net.params.astype(_wire_dtype(net.config)).tobytes()
    Path(path).write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + payload
    )


def load_checkpoint(path: str | Path) -> EmbeddingNetwork:
    """Read a save_checkpoint file; any malformed file raises ValueError."""
    data = Path(path).read_bytes()
    preamble = len(CHECKPOINT_MAGIC) + 4
    if len(data) < preamble:
        raise ValueError(
            f"checkpoint is {len(data)} bytes, shorter than its {preamble}-byte preamble"
        )
    if data[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad magic {data[:8]!r}, expected {CHECKPOINT_MAGIC!r}")
    (hlen,) = struct.unpack("<I", data[len(CHECKPOINT_MAGIC) : preamble])
    if len(data) < preamble + hlen:
        raise ValueError(f"checkpoint header declares {hlen} bytes, file is truncated")
    header = jsondoc.parse(data[preamble : preamble + hlen].decode("utf-8"), "checkpoint header")
    missing = sorted(_HEADER_FIELDS - set(header))
    if missing:
        raise ValueError(f"checkpoint header lacks {missing}")
    if not isinstance(header["conv_channels"], list):
        raise ValueError(f"checkpoint conv_channels must be a list, got {header['conv_channels']!r}")
    seed = header.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
    arch = {name: header[name] for name in _HEADER_FIELDS}
    arch["conv_channels"] = tuple(arch["conv_channels"])
    config = ArchConfig(**arch)
    # Check the payload against the header's parameter count before anything
    # is allocated: a forged header can declare any architecture size.
    n_params = sum(layer.n_params for layer in _build_layers(config))
    wire = _wire_dtype(config)
    payload = data[preamble + hlen :]
    if len(payload) != n_params * wire.itemsize:
        raise ValueError(
            f"checkpoint payload is {len(payload)} bytes, architecture needs "
            f"{n_params} {config.dtype} parameters ({n_params * wire.itemsize} bytes)"
        )
    params = np.frombuffer(payload, dtype=wire).astype(config.np_dtype)
    return EmbeddingNetwork(config, seed, params)
