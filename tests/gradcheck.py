"""Finite-difference gradient harness shared by unit and acceptance tests.

Instances are resampled until every ReLU pre-activation, pool-window gap, and
hinge argument sits clear of its kink, so central differences see a smooth
function. The conv reference below is an independent loop-based oracle.

`RefConvRelu` and `RefMaxPool2` are the straightforward tensordot conv and
argmax pool; nncore's layers must agree with them exactly (array_equal),
not just to rounding.
"""

import copy

import numpy as np

from gnssfsl import losses, nncore
from gnssfsl.nncore import ArchConfig, _ConvRelu, _Dense, _GlobalAvgPool, _MaxPool2

# A kink can corrupt central differences only when the pre-activation sits
# within (derivative bound)*eps of zero; 5e-4 leaves ample headroom at eps=1e-4.
KINK_MARGIN = 5e-4
FD_EPS = 1e-4
MAX_RESAMPLE = 500

# The paper's margin grids: triplet alpha, and quadruplet (alpha1, alpha2).
PAPER_TRIPLET_MARGINS = (2.0, 3.0, 5.0, 7.0, 10.0, 50.0, 100.0)
PAPER_QUADRUPLET_MARGINS = (
    (2.0, 5.0),
    (5.0, 6.0),
    (5.0, 10.0),
    (10.0, 50.0),
    (50.0, 60.0),
    (50.0, 100.0),
)


def max_rel_err(analytic, numeric, zero_floor=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    rel = np.where(scale < zero_floor, 0.0, err / np.maximum(scale, 1e-300))
    return float(rel.max()) if rel.size else 0.0


def central_diff(f, x, eps=FD_EPS):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_g = grad.reshape(-1)
    flat_x = x.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        fp = f(x)
        flat_x[i] = orig - eps
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * eps)
    return grad


def naive_conv_preact(x, w, b):
    """Loop-based 3x3 same-padding convolution; the independent conv oracle."""
    bsz, c_in, h, wd = x.shape
    c_out = w.shape[0]
    xp = np.zeros((bsz, c_in, h + 2, wd + 2))
    xp[:, :, 1 : h + 1, 1 : wd + 1] = x
    z = np.zeros((bsz, c_out, h, wd))
    for bi in range(bsz):
        for o in range(c_out):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for c in range(c_in):
                        for dy in range(3):
                            for dx in range(3):
                                acc += w[o, c, dy, dx] * xp[bi, c, i + dy, j + dx]
                    z[bi, o, i, j] = acc + b[o]
    return z


def fast_conv_preact(x, w, b):
    """Vectorized pre-activation, used only for kink-margin guards."""
    bsz, c_in, h, wd = x.shape
    xp = np.zeros((bsz, c_in, h + 2, wd + 2))
    xp[:, :, 1 : h + 1, 1 : wd + 1] = x
    z = np.zeros((bsz, w.shape[0], h, wd))
    for dy in range(3):
        for dx in range(3):
            xs = xp[:, :, dy : dy + h, dx : dx + wd]
            z += np.einsum("oc,bchw->bohw", w[:, :, dy, dx], xs)
    return z + b[None, :, None, None]


class RefConvRelu(_ConvRelu):
    """Reference conv: one tensordot per tap on NCHW arrays, always returns dx."""

    def forward(self, x, p):
        w = p[: self.n_weights].reshape(self.out_ch, self.in_ch, 3, 3)
        b = p[self.n_weights :]
        bsz, _, h, wd = x.shape
        xp = np.zeros((bsz, self.in_ch, h + 2, wd + 2), dtype=x.dtype)
        xp[:, :, 1 : h + 1, 1 : wd + 1] = x
        y = np.zeros((bsz, self.out_ch, h, wd), dtype=x.dtype)
        for dy in range(3):
            for dx in range(3):
                xs = xp[:, :, dy : dy + h, dx : dx + wd]
                # (O,C) . (B,C,H,W) over C -> (O,B,H,W)
                y += np.tensordot(w[:, :, dy, dx], xs, axes=(1, 1)).transpose(1, 0, 2, 3)
        y += b[None, :, None, None]
        mask = y > 0
        return y * mask, (xp, mask)

    def backward(self, dy, p, cache):
        xp, mask = cache
        w = p[: self.n_weights].reshape(self.out_ch, self.in_ch, 3, 3)
        dy = dy * mask
        h, wd = dy.shape[2], dy.shape[3]
        dw = np.zeros_like(w)
        dxp = np.zeros_like(xp)
        for ky in range(3):
            for kx in range(3):
                xs = xp[:, :, ky : ky + h, kx : kx + wd]
                dw[:, :, ky, kx] = np.tensordot(dy, xs, axes=([0, 2, 3], [0, 2, 3]))
                dxp[:, :, ky : ky + h, kx : kx + wd] += np.tensordot(
                    dy, w[:, :, ky, kx], axes=(1, 0)
                ).transpose(0, 3, 1, 2)
        db = dy.sum(axis=(0, 2, 3))
        dx = dxp[:, :, 1 : h + 1, 1 : wd + 1]
        return dx, np.concatenate([dw.ravel(), db])


class RefMaxPool2(_MaxPool2):
    """Reference pool: argmax over each flattened 2x2 window."""

    def forward(self, x, p):
        bsz, c, h, w = x.shape
        h2, w2 = h // 2, w // 2
        xc = x[:, :, : 2 * h2, : 2 * w2]
        windows = xc.reshape(bsz, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5)
        flat = windows.reshape(bsz, c, h2, w2, 4)
        arg = flat.argmax(axis=-1)
        y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        return y, (x.shape, arg)

    def backward(self, dy, p, cache):
        (bsz, c, h, w), arg = cache
        h2, w2 = h // 2, w // 2
        dflat = np.zeros((bsz, c, h2, w2, 4), dtype=dy.dtype)
        np.put_along_axis(dflat, arg[..., None], dy[..., None], axis=-1)
        dx = np.zeros((bsz, c, h, w), dtype=dy.dtype)
        dx[:, :, : 2 * h2, : 2 * w2] = (
            dflat.reshape(bsz, c, h2, w2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(bsz, c, 2 * h2, 2 * w2)
        )
        return dx, np.zeros(0, dtype=dy.dtype)


def reference_network(net):
    """A view of `net` (same parameter array) whose conv and pool layers are
    the reference ones."""
    ref = copy.copy(net)
    ref._layers = [
        RefConvRelu(layer.in_ch, layer.out_ch) if isinstance(layer, _ConvRelu)
        else RefMaxPool2() if isinstance(layer, _MaxPool2)
        else layer
        for layer in net._layers
    ]
    return ref


def _conv_instance(rng):
    layer = _ConvRelu(2, 3)
    for _ in range(MAX_RESAMPLE):
        p = rng.normal(scale=0.5, size=layer.n_params)
        x = rng.normal(size=(2, 2, 5, 5))
        w = p[: layer.n_weights].reshape(3, 2, 3, 3)
        b = p[layer.n_weights :]
        z = fast_conv_preact(x, w, b)
        if np.min(np.abs(z)) > KINK_MARGIN:
            return layer, p, x
    raise AssertionError("could not build a kink-free conv instance")


def _pool_instance(rng):
    layer = _MaxPool2()
    for _ in range(MAX_RESAMPLE):
        x = rng.normal(size=(2, 2, 4, 4))
        windows = x.reshape(2, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 2, 2, 2, 4)
        top2 = np.sort(windows, axis=-1)[..., -2:]
        if np.min(top2[..., 1] - top2[..., 0]) > KINK_MARGIN:
            return layer, np.zeros(0), x
    raise AssertionError("could not build a tie-free pool instance")


def _dense_instance(rng):
    layer = _Dense(6, 4)
    return layer, rng.normal(size=layer.n_params), rng.normal(size=(3, 6))


def _gap_instance(rng):
    return _GlobalAvgPool(), np.zeros(0), rng.normal(size=(2, 3, 4, 4))


LAYER_INSTANCES = {
    "conv_relu": _conv_instance,
    "max_pool": _pool_instance,
    "dense": _dense_instance,
    "global_avg_pool": _gap_instance,
}


def check_layer(kind: str, rng: np.random.Generator) -> float:
    """FD-check one layer instance; returns worst relative error."""
    layer, p, x = LAYER_INSTANCES[kind](rng)
    probe = rng.normal(size=layer.forward(x, p)[0].shape)

    def scalar(params, inputs):
        y, _ = layer.forward(inputs, params)
        return float(np.sum(probe * y))

    y, cache = layer.forward(x, p)
    dx, dp = layer.backward(probe, p, cache)

    worst = 0.0
    if p.size:
        num_p = central_diff(lambda q: scalar(q, x), p)
        worst = max(worst, max_rel_err(dp, num_p))
    num_x = central_diff(lambda q: scalar(p, q), x)
    worst = max(worst, max_rel_err(dx, num_x))
    return worst


def composed_net_instance(rng):
    """Tiny two-block network plus a kink-free input batch and labels."""
    cfg = ArchConfig(
        height=8, width=8, conv_channels=(2, 3), embed_dim=4, num_classes=3, dtype="f64"
    )
    for _ in range(MAX_RESAMPLE):
        net = nncore.init(cfg, seed=int(rng.integers(2**31)))
        # shift weights away from zero-init bias kinks
        net.params = net.params + rng.normal(scale=0.05, size=net.n_params)
        x = rng.uniform(0.05, 0.95, size=(2, 8, 8))
        if _net_kink_margin(net, x) > KINK_MARGIN:
            labels = rng.integers(0, 3, size=2)
            return net, x, labels
    raise AssertionError("could not build a kink-free network instance")


def _net_kink_margin(net, x) -> float:
    """Smallest |pre-activation| and pool-window gap across the net."""
    xb = net._planes(net._stack(x))
    margin = np.inf
    for i, layer in enumerate(net._layers):
        p = net.params[net._param_slice(i)]
        if isinstance(layer, _ConvRelu):
            w = p[: layer.n_weights].reshape(layer.out_ch, layer.in_ch, 3, 3)
            z = fast_conv_preact(xb, w, p[layer.n_weights :])
            margin = min(margin, float(np.min(np.abs(z))))
        if isinstance(layer, _MaxPool2):
            b, c, h, wd = xb.shape
            h2, w2 = h // 2, wd // 2
            win = (
                xb[:, :, : 2 * h2, : 2 * w2]
                .reshape(b, c, h2, 2, w2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(b, c, h2, w2, 4)
            )
            top2 = np.sort(win, axis=-1)[..., -2:]
            gap = top2[..., 1] - top2[..., 0]
            # All-clamped windows stay at zero under perturbation; only
            # windows with a positive max need a clear runner-up gap.
            relevant = top2[..., 1] > 0
            if np.any(relevant):
                margin = min(margin, float(np.min(gap[relevant])))
        xb = layer.forward(xb, p)[0]
    return margin


def episode_instance(rng, n_cls=3, k=2, q=2):
    """Kink-free (network, episode) pair for checking the episode loss."""
    from gnssfsl.fsl import Episode

    cfg = ArchConfig(height=8, width=8, conv_channels=(2, 3), embed_dim=4, dtype="f64")
    total = n_cls * (k + q)
    for _ in range(MAX_RESAMPLE):
        net = nncore.init(cfg, seed=int(rng.integers(2**31)))
        net.params = net.params + rng.normal(scale=0.05, size=net.n_params)
        imgs = rng.uniform(0.05, 0.95, size=(total, 8, 8))
        if _net_kink_margin(net, imgs) > KINK_MARGIN:
            support = {c: [imgs[c * k + j] for j in range(k)] for c in range(n_cls)}
            off = n_cls * k
            query = [(imgs[off + c * q + j], c) for c in range(n_cls) for j in range(q)]
            return net, Episode(support, query)
    raise AssertionError("could not build a kink-free episode instance")


def check_pn_episode_loss(rng) -> float:
    from gnssfsl.fsl import pn_episode_loss

    net, episode = episode_instance(rng)
    loss, grads = pn_episode_loss(net, episode)
    p0 = net.params.copy()

    def loss_at(params):
        net.params = params
        return pn_episode_loss(net, episode)[0]

    numeric = central_diff(loss_at, p0)
    net.params = p0
    return max_rel_err(grads, numeric)


def check_composed_network(rng) -> float:
    net, x, labels = composed_net_instance(rng)
    logits, cache = net.forward_with_cache(x, with_head=True)
    loss, dlogits = losses.cross_entropy_batch(logits, labels)
    analytic = net.backward_from(cache, dlogits)

    p0 = net.params.copy()

    def loss_at(params):
        net.params = params
        out, _ = net.forward_with_cache(x, with_head=True)
        val, _ = losses.cross_entropy_batch(out, labels)
        return val

    numeric = central_diff(loss_at, p0)
    net.params = p0
    return max_rel_err(analytic, numeric)


# ---------------------------------------------------------------------------
# Loss instances with hinge-kink guards
# ---------------------------------------------------------------------------


def _dists(a, b):
    return np.sqrt(np.sum((a - b) ** 2, axis=1))


def pair_batch_instance(rng, need_similars, margins, rows=3, dim=5):
    """Stacked random roles, (a, p, s, n) or (a, p, n), whose hinge arguments sit
    away from the kinks."""
    for _ in range(200):
        arrays = [rng.normal(size=(rows, dim)) for _ in range(4 if need_similars else 3)]
        a, p, n = arrays[0], arrays[1], arrays[2]
        if min(_dists(a, p).min(), _dists(a, n).min()) < 1e-2:
            continue
        if need_similars:
            s = arrays[3]
            alpha1, alpha2 = margins
            if _dists(a, s).min() < 1e-2:
                continue
            m1 = _dists(a, p) - _dists(a, s) + alpha1
            m2 = _dists(a, s) - _dists(a, n) + alpha2
            if np.min(np.abs(m1)) > KINK_MARGIN and np.min(np.abs(m2)) > KINK_MARGIN:
                return np.stack([a, p, s, n])
        else:
            (alpha,) = margins
            m_trip = _dists(a, p) - _dists(a, n) + alpha
            if np.min(np.abs(m_trip)) > KINK_MARGIN:
                return np.stack([a, p, n])
    raise AssertionError("could not build a kink-free pair batch")


def check_pairwise_loss(kind: str, rng) -> float:
    fn = {"quadruplet": losses.quadruplet_loss, "triplet": losses.triplet_loss}[kind]
    n_margins = 2 if kind == "quadruplet" else 1
    margins = tuple(float(rng.uniform(0.2, 2.0)) for _ in range(n_margins))
    parts = pair_batch_instance(rng, kind == "quadruplet", margins)
    _, grads = fn(parts, *margins)
    numeric = central_diff(lambda x: fn(x, *margins)[0], parts.copy())
    return max_rel_err(grads, numeric)


def check_cross_entropy(rng) -> float:
    logits = rng.normal(scale=2.0, size=int(rng.integers(2, 8)))
    label = int(rng.integers(len(logits)))
    _, grad = losses.cross_entropy_batch(logits[None], [label])
    numeric = central_diff(
        lambda x: losses.cross_entropy_batch(x[None], [label])[0], logits.copy()
    )
    return max_rel_err(grad[0], numeric)
