"""Prototypical-network training, adaptation, and uncertainty-guided mining.

Pre-training optimizes episode classification (cross-entropy over negative
squared prototype distances), optionally combined with a pairwise embedding
loss whose quadruplets are drawn from a similar-class map. Adaptation to
unseen classes is prototype averaging only: the backbone never updates.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import jsondoc, losses as losses_mod
from .nncore import (
    ArchConfig,
    EmbeddingNetwork,
    _is_int,
    init,
    sgd_step,
    softmax_backward,
    softmax_normalize,
)
from .spectro import SPLITS, LabeledCorpus
from .uncertainty import UncertaintyReport
from .uncertainty import predict_member  # noqa: F401  (re-export; perfbench/test_tracer.py uses it)

SPLIT_FRACTIONS = (0.64, 0.16, 0.20)  # of each class, in SPLITS order
DEFAULT_ADAPTATION_CLASSES = (3, 7, 9, 10)
BASE_SHOTS = 20  # train-split images behind each base-class prototype


class TrainingDiverged(RuntimeError):
    """Raised when the loss or gradient turns non-finite; carries the last network state."""

    def __init__(self, message: str, network: EmbeddingNetwork, epoch: int):
        super().__init__(message)
        self.network = network
        self.epoch = epoch


# ---------------------------------------------------------------------------
# Corpus splitting
# ---------------------------------------------------------------------------


def _allocate(count: int) -> list[int]:
    """Largest-remainder split sizes; tiny classes fall back to train(+test)."""
    k = len(SPLIT_FRACTIONS)
    if count < k:
        return [1, 0, count - 1]
    exact = [count * f for f in SPLIT_FRACTIONS]
    base = [int(np.floor(e)) for e in exact]
    rem = count - sum(base)
    order = sorted(range(k), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:rem]:
        base[i] += 1
    # Guarantee one sample per split when the class is big enough.
    for i in range(k):
        if base[i] == 0:
            donor = int(np.argmax(base))
            base[donor] -= 1
            base[i] += 1
    return base


def split_corpus(corpus: LabeledCorpus, seed: int = 0) -> LabeledCorpus:
    """Stratified per-class train/val/test tagging, deterministic per seed."""
    rng = np.random.default_rng(seed)
    by_class = _class_index(corpus)
    assignment = [""] * len(corpus.records)
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        perm = rng.permutation(len(idx))
        idx = idx[perm]
        counts = _allocate(len(idx))
        start = 0
        for split, c in zip(SPLITS, counts):
            for j in idx[start : start + c]:
                assignment[j] = split
            start += c

    records = [replace(rec, split=assignment[i]) for i, rec in enumerate(corpus.records)]
    return LabeledCorpus(records)


def base_classes(corpus: LabeledCorpus, adaptation_classes) -> list[int]:
    """The corpus classes outside `adaptation_classes`, ascending: the classes
    training sees, and the order in which a classifier head scores them."""
    return sorted(set(corpus.classes()) - set(adaptation_classes))


# ---------------------------------------------------------------------------
# Episodes and prototypes
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    support: dict  # class -> list of images (2-D uint8 arrays)
    query: list  # list of (image, label)

    def __post_init__(self):
        if len(self.support) < 2:
            raise ValueError("episode needs at least 2 classes")
        for c, imgs in self.support.items():
            if len(imgs) < 1:
                raise ValueError(f"class {c} has an empty support set")
        support_classes = set(self.support)
        for _, label in self.query:
            if label not in support_classes:
                raise ValueError(f"query label {label} missing from support")


def sample_episode(corpus, by_class, classes, k_shot, n_query, rng) -> Episode:
    """Draw a k-shot episode with up to n_query queries per class.

    `by_class` is the corpus's class index (`_class_index`).
    """
    support = {}
    query = []
    for c in sorted(classes):
        idx = by_class.get(c, [])
        if len(idx) < k_shot:
            raise ValueError(f"class {c} has {len(idx)} samples, needs {k_shot} shots")
        perm = rng.permutation(len(idx))
        chosen = [idx[i] for i in perm]
        support[c] = [corpus.records[i].image.pixels for i in chosen[:k_shot]]
        for i in chosen[k_shot : k_shot + n_query]:
            query.append((corpus.records[i].image.pixels, c))
    if not query:
        raise ValueError("no query samples available; lower k_shot or n_query")
    return Episode(support, query)


@dataclass
class PrototypeClassifier:
    prototypes: dict  # class -> embedding vector
    backbone: EmbeddingNetwork

    def __post_init__(self):
        if not self.prototypes:
            raise ValueError("classifier needs at least one prototype")
        dims = {v.shape for v in self.prototypes.values()}
        if len(dims) != 1:
            raise ValueError("prototype dimensions disagree")

    def classes(self) -> list[int]:
        return sorted(self.prototypes)

    def prototype_matrix(self) -> np.ndarray:
        return np.stack([self.prototypes[c] for c in self.classes()])


def compute_prototypes(backbone: EmbeddingNetwork, support: dict) -> PrototypeClassifier:
    """Per-class arithmetic mean of support embeddings."""
    prototypes = {}
    for c in sorted(support):
        imgs = support[c]
        if len(imgs) == 0:
            raise ValueError(f"class {c} has no support samples")
        emb = backbone.infer(list(imgs))
        prototypes[int(c)] = emb.mean(axis=0)
    return PrototypeClassifier(prototypes, backbone)


def classify_batch(classifier: PrototypeClassifier, images) -> np.ndarray:
    """Nearest-prototype labels for many images; ties go to the smallest class id."""
    emb = classifier.backbone.infer(list(images))
    protos = classifier.prototype_matrix()
    d2 = ((emb[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    order = np.array(classifier.classes())
    return order[np.argmin(d2, axis=1)]


def pn_episode_loss(backbone: EmbeddingNetwork, episode: Episode):
    """Mean cross-entropy over queries with logits -d^2 to class prototypes.

    Returns (loss, parameter gradient); the gradient flows through both the
    query embeddings and the support embeddings behind each prototype.
    """
    classes = sorted(episode.support)
    shots = [len(episode.support[c]) for c in classes]
    support_imgs = [img for c in classes for img in episode.support[c]]
    query_imgs = [img for img, _ in episode.query]
    labels = np.array([classes.index(lbl) for _, lbl in episode.query])

    e_s, cache_s = backbone.forward_with_cache(support_imgs)
    e_q, cache_q = backbone.forward_with_cache(query_imgs)
    e_s = e_s.astype(np.float64)
    e_q = e_q.astype(np.float64)

    bounds = np.cumsum([0] + shots)
    protos = np.stack(
        [e_s[bounds[i] : bounds[i + 1]].mean(axis=0) for i in range(len(classes))]
    )

    diff = e_q[:, None, :] - protos[None, :, :]  # (Q, C, D)
    logits = -np.sum(diff**2, axis=2)
    loss, dlogits = losses_mod.cross_entropy_batch(logits, labels)

    d_eq = np.sum(dlogits[:, :, None] * (-2.0 * diff), axis=1)
    d_protos = np.einsum("qc,qcd->cd", dlogits, 2.0 * diff)
    d_es = np.zeros_like(e_s)
    for i in range(len(classes)):
        d_es[bounds[i] : bounds[i + 1]] = d_protos[i] / shots[i]

    grads = backbone.backward_from(cache_q, d_eq)
    grads = grads + backbone.backward_from(cache_s, d_es)
    return loss, grads


def adapt(
    backbone: EmbeddingNetwork,
    new_support: dict,
    k: int,
    base: PrototypeClassifier,
) -> PrototypeClassifier:
    """Extend a prototype classifier with unseen classes; no gradient updates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    overlap = set(base.prototypes) & set(new_support)
    if overlap:
        raise ValueError(f"adaptation classes {sorted(overlap)} already known")
    clipped = {}
    for c, imgs in new_support.items():
        if len(imgs) < k:
            raise ValueError(f"class {c} has {len(imgs)} samples, k={k} requested")
        clipped[c] = list(imgs)[:k]
    new = compute_prototypes(backbone, clipped)
    merged = {c: v.copy() for c, v in base.prototypes.items()}
    merged.update(new.prototypes)
    return PrototypeClassifier(merged, backbone)


# ---------------------------------------------------------------------------
# Similar-class map and quadruplet mining
# ---------------------------------------------------------------------------


@dataclass
class SimilarityMap:
    """Per class, other classes it is confusable with, hardest first."""

    ranked: dict  # class -> list of classes

    def __post_init__(self):
        for c, others in self.ranked.items():
            if c in others:
                raise ValueError(f"class {c} cannot be similar to itself")

    def get(self, c: int) -> list[int]:
        return list(self.ranked.get(c, []))

    def to_json(self) -> str:
        return json.dumps(
            {str(c): list(map(int, v)) for c, v in sorted(self.ranked.items())},
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "SimilarityMap":
        raw = jsondoc.parse(text, "similarity map")
        if not all(
            c.isascii() and c.isdecimal() and isinstance(v, list) and all(map(_is_int, v))
            for c, v in raw.items()
        ):
            raise ValueError(
                "similarity map must map class ids (integer strings) to lists of integer class ids"
            )
        return cls({int(c): v for c, v in raw.items()})

    @classmethod
    def load(cls, path: str | Path) -> "SimilarityMap":
        return cls.from_json(Path(path).read_bytes())


def load_fixture_map() -> SimilarityMap:
    """Built-in similar-class map for the standard 11-class layout."""
    fixture = resources.files("gnssfsl.data") / "similar_classes_fixture.json"
    return SimilarityMap.from_json(fixture.read_text())


# Ordered pairs whose mean epistemic trace is at or below this floor are never similar.
MIN_STAT = 1e-6
# Per anchor class, the quantile of its pair statistics a similar class must reach.
SIMILAR_QUANTILE = 0.75


def build_similarity_map(report: UncertaintyReport, labels, classes) -> SimilarityMap:
    """Rank confusable class pairs by mean epistemic trace, in corpus labels.

    `report` decomposes the ensemble's (M, N, K) member probabilities over N
    validation samples whose corpus labels are `labels`; head output i scores
    `classes[i]` (ascending, as base_classes gives them). For an ordered pair
    (c, c'), the statistic is the mean epistemic trace over class-c samples
    whose ensemble-mean prediction puts c' in its top-2. Pairs must clear both
    the absolute floor MIN_STAT and the per-class SIMILAR_QUANTILE threshold.
    """
    head = {c: i for i, c in enumerate(classes)}
    labels = np.array([head[c] for c in labels], dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty validation set")
    present = set(labels.tolist())
    missing = [c for c, i in head.items() if i not in present]
    if missing:
        warnings.warn(f"classes absent from validation data: {missing}")
    k = len(classes)

    # np.add.at adds in sample order, so each (c, c') sum equals a per-sample loop's.
    top2 = np.argsort(-report.mean_softmax, axis=1, kind="stable")[:, :2]
    rows = np.repeat(labels, 2)
    cols = top2.reshape(-1)
    traces = np.repeat(report.epistemic_trace, 2)
    other = cols != rows
    sums = np.zeros((k, k))
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(sums, (rows[other], cols[other]), traces[other])
    np.add.at(counts, (rows[other], cols[other]), 1)

    ranked = {}
    for c in sorted(present):
        stats = {
            cp: sums[c, cp] / counts[c, cp]
            for cp in range(k)
            if cp != c and counts[c, cp] > 0
        }
        values = [v for v in stats.values() if v > MIN_STAT]
        if not values:
            continue
        threshold = float(np.quantile(values, SIMILAR_QUANTILE))
        chosen = [
            (v, cp) for cp, v in stats.items() if v > MIN_STAT and v >= threshold
        ]
        chosen.sort(key=lambda t: (-t[0], t[1]))
        if chosen:
            ranked[int(classes[c])] = [int(classes[cp]) for _, cp in chosen]
    return SimilarityMap(ranked)


def _class_index(corpus: LabeledCorpus) -> dict:
    by_class: dict[int, list[int]] = {}
    for i, rec in enumerate(corpus.records):
        by_class.setdefault(rec.label, []).append(i)
    return by_class


def sample_roles(
    by_class: dict,
    sim_map: Optional[SimilarityMap],
    anchor_class: int,
    rng: np.random.Generator,
    roles: int,
) -> tuple[int, ...]:
    """Indices for (anchor, positive, similar, negative) when `roles` is 4, or
    for (anchor, positive, negative) when it is 3: the same draws without the
    similar class and the similar sample.

    The similar class is drawn from the map entry for the anchor class; when
    that entry is empty, from all other classes. The negative class is drawn
    from the classes left.
    """
    classes = sorted(by_class)
    if len(classes) < roles - 1:
        raise ValueError(f"need at least {roles - 1} classes, corpus has {len(classes)}")
    if anchor_class not in by_class or len(by_class[anchor_class]) < 2:
        raise ValueError(f"anchor class {anchor_class} needs at least 2 samples")

    anchor = by_class[anchor_class]
    a_i, p_i = rng.choice(len(anchor), size=2, replace=False)
    drawn = [anchor_class]
    if roles == 4:
        candidates = []
        if sim_map is not None:
            candidates = [c for c in sim_map.get(anchor_class) if c in by_class]
        if not candidates:
            candidates = [c for c in classes if c != anchor_class]
        drawn.append(int(candidates[rng.integers(len(candidates))]))
    n_classes = [c for c in classes if c not in drawn]
    drawn.append(int(n_classes[rng.integers(len(n_classes))]))
    return (
        anchor[a_i],
        anchor[p_i],
        *(by_class[c][rng.integers(len(by_class[c]))] for c in drawn[1:]),
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


# TrainConfig's field annotations (strings under postponed evaluation) ->
# (what the value must be, its check).
_FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", _is_int),
    "float": (
        "a finite number",
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v),
    ),
    "tuple": ("a list of integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v))),
}

# Step and sample counts: at 0 an epoch, a batch, an episode or the few-shot support is empty.
_STEP_COUNTS = (
    "episodes_per_epoch", "episode_k_shot", "n_query", "pair_batch", "batch_size", "k_shot"
)


@dataclass
class TrainConfig:
    loss: str = "ce"  # ce | triplet | quadruplet
    alpha: float = 100.0
    alpha1: float = 2.0
    alpha2: float = 5.0
    pair_weight: float = 1.0  # serialized as "lambda"
    epochs: int = 10
    lr: float = 0.01
    decay: float = 0.0005
    seed: int = 0
    embed_dim: int = 64
    adaptation_classes: tuple = DEFAULT_ADAPTATION_CLASSES
    k_shot: int = 5
    similarity_map: str = "paper_fixture"  # computed | paper_fixture
    # Architecture / schedule knobs beyond the core key set. The input size
    # comes from the corpus, and training is f32.
    conv_channels: tuple = (16, 32, 64)
    pretrain: str = "episodic"  # episodic | ce
    episodes_per_epoch: int = 15
    episode_k_shot: int = 3  # support shots during pre-training episodes
    n_query: int = 5
    pair_batch: int = 8
    pairwise_norm: str = "softmax"  # softmax | l2 | none
    batch_size: int = 32  # ce pretrain mode

    def __post_init__(self):
        for f in fields(self):
            what, check = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not check(value):
                raise ValueError(f"config field {f.name!r} must be {what}, got {value!r}")
        if self.loss not in ("ce", "triplet", "quadruplet"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.similarity_map not in ("computed", "paper_fixture"):
            raise ValueError(f"unknown similarity_map source {self.similarity_map!r}")
        if self.pretrain not in ("episodic", "ce"):
            raise ValueError(f"unknown pretrain mode {self.pretrain!r}")
        if self.pairwise_norm not in ("softmax", "l2", "none"):
            raise ValueError(f"unknown pairwise_norm {self.pairwise_norm!r}")
        if self.loss == "triplet" and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.loss == "quadruplet" and (self.alpha1 <= 0 or self.alpha2 <= 0):
            raise ValueError("quadruplet margins must be positive")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.pair_weight <= 0:
            # Negative ascends the pairwise loss; 0 trains on pairs weighted to nothing.
            raise ValueError(f"pair_weight (lambda) must be positive, got {self.pair_weight}")
        if self.decay < 0:
            raise ValueError(f"decay must be >= 0, got {self.decay}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            # numpy's generators refuse negative seeds, but only once training starts.
            raise ValueError(f"config field 'seed' must be >= 0, got {self.seed}")
        for name in _STEP_COUNTS:
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name!r} must be >= 1, got {getattr(self, name)}")
        classes = self.adaptation_classes
        if not classes or len(set(classes)) != len(classes):
            # The adaptation scores are macro means over these classes.
            raise ValueError(
                f"config field 'adaptation_classes' must name at least one class, "
                f"each once, got {list(classes)}"
            )
        # A set: the same classes in another order are the same config.
        self.adaptation_classes = tuple(sorted(classes))

    def to_dict(self) -> dict:
        """The config's JSON object, keys sorted, the pair weight named "lambda"."""
        d = self.__dict__.copy()
        d["lambda"] = d.pop("pair_weight")
        return {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(d.items())}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str | bytes) -> "TrainConfig":
        return cls.from_dict(jsondoc.parse(text, "config"))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config of a JSON object as to_dict writes it ("lambda", not "pair_weight")."""
        known = (set(cls.__dataclass_fields__) - {"pair_weight"}) | {"lambda"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        d = {"pair_weight" if k == "lambda" else k: v for k, v in d.items()}
        for key in ("adaptation_classes", "conv_channels"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)

    def arch(self, shape: tuple, num_classes: Optional[int] = None) -> ArchConfig:
        """The f32 network for images of `shape` (height, width)."""
        return ArchConfig(
            height=shape[0],
            width=shape[1],
            conv_channels=self.conv_channels,
            embed_dim=self.embed_dim,
            num_classes=num_classes,
        )


@dataclass
class TrainResult:
    network: EmbeddingNetwork
    epoch_losses: list
    train_classes: list


def _normalize_embeddings(emb: np.ndarray, mode: str):
    """Returns (normalized, backward_fn mapping dL/dnorm -> dL/demb)."""
    if mode == "none":
        return emb, lambda g: g
    if mode == "softmax":
        s = softmax_normalize(emb)
        return s, lambda g: softmax_backward(s, g)
    if mode == "l2":
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms = np.maximum(norms, 1e-12)
        u = emb / norms

        def back(g):
            return (g - u * np.sum(g * u, axis=1, keepdims=True)) / norms

        return u, back
    raise ValueError(f"unknown normalization {mode!r}")


def _pairwise_step(
    net: EmbeddingNetwork,
    corpus: LabeledCorpus,
    by_class: dict,
    config: TrainConfig,
    sim_map: Optional[SimilarityMap],
    rng: np.random.Generator,
):
    """Sample a pair batch, embed it, and return (loss, parameter gradient)."""
    b = config.pair_batch
    roles = 4 if config.loss == "quadruplet" else 3
    idx = np.empty((roles, b), dtype=np.int64)
    eligible = [c for c in sorted(by_class) if len(by_class[c]) >= 2]
    if not eligible:
        raise ValueError("pairwise losses need a class with at least 2 train samples")
    for i in range(b):
        anchor_class = eligible[rng.integers(len(eligible))]
        idx[:, i] = sample_roles(by_class, sim_map, anchor_class, rng, roles)

    flat = idx.reshape(-1)
    images = [corpus.records[j].image.pixels for j in flat]
    emb, cache = net.forward_with_cache(images)
    emb = emb.astype(np.float64)
    normed, back = _normalize_embeddings(emb, config.pairwise_norm)
    parts = normed.reshape(roles, b, -1)
    if config.loss == "quadruplet":
        loss, d_parts = losses_mod.quadruplet_loss(parts, config.alpha1, config.alpha2)
    else:
        loss, d_parts = losses_mod.triplet_loss(parts, config.alpha)
    # Average over pairs so the weight is batch-size independent.
    pgrad = net.backward_from(cache, back(d_parts.reshape(normed.shape) / b))
    return loss / b, pgrad


def train(
    corpus: LabeledCorpus,
    config: TrainConfig,
    sim_map: Optional[SimilarityMap] = None,
    epoch_callback=None,
) -> TrainResult:
    """Pre-train a backbone on the base classes of the train split."""
    train_classes = base_classes(corpus, config.adaptation_classes)
    if len(train_classes) < 2:
        raise ValueError("need at least 2 training classes")
    train_corpus = corpus.subset(split="train", classes=set(train_classes))
    if len(train_corpus) == 0:
        raise ValueError("train split is empty; run split_corpus first")
    by_class = _class_index(train_corpus)

    if config.loss == "quadruplet" and sim_map is None:
        if config.similarity_map == "computed":
            raise ValueError("similarity_map 'computed' needs the mined map: pass sim_map")
        sim_map = load_fixture_map()

    rng = np.random.default_rng(config.seed)
    use_head = config.pretrain == "ce"
    shape = train_corpus.records[0].image.pixels.shape
    net = init(config.arch(shape, num_classes=len(train_classes) if use_head else None), config.seed)
    decay_mask = net.decay_mask()
    label_of = {c: i for i, c in enumerate(train_classes)}

    k = min(config.episode_k_shot, min(len(v) for v in by_class.values()))
    epoch_losses = []
    for epoch in range(config.epochs):
        step_losses = []
        for sel in _epoch_steps(use_head, train_corpus, config, rng):
            if use_head:
                loss, grads = _ce_batch(net, train_corpus, sel, label_of)
            else:
                episode = sample_episode(
                    train_corpus, by_class, train_classes, k, config.n_query, rng
                )
                loss, grads = pn_episode_loss(net, episode)
            if config.loss != "ce":
                ploss, pgrads = _pairwise_step(net, train_corpus, by_class, config, sim_map, rng)
                loss = loss + config.pair_weight * ploss
                grads = grads + config.pair_weight * pgrads
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}", net, epoch
                )
            try:
                net.params = sgd_step(
                    net.params, grads.astype(net.params.dtype), config.lr, config.decay, decay_mask
                )
            except FloatingPointError as exc:
                raise TrainingDiverged(f"{exc} at epoch {epoch}", net, epoch) from exc
            step_losses.append(loss)
        epoch_losses.append(float(np.mean(step_losses)))
        if epoch_callback is not None:
            epoch_callback(epoch, net)
    return TrainResult(net, epoch_losses, train_classes)


def _epoch_steps(use_head, train_corpus, config, rng):
    """Step plan for one epoch: minibatch index lists (ce) or episode slots."""
    if use_head:
        order = rng.permutation(len(train_corpus))
        return [
            order[s : s + config.batch_size]
            for s in range(0, len(order), config.batch_size)
        ]
    return [None] * config.episodes_per_epoch


def _ce_batch(net, train_corpus, sel, label_of):
    images = [train_corpus.records[i].image.pixels for i in sel]
    labels = np.array([label_of[train_corpus.records[i].label] for i in sel])
    logits, cache = net.forward_with_cache(images, with_head=True)
    loss, dlogits = losses_mod.cross_entropy_batch(logits, labels)
    return loss, net.backward_from(cache, dlogits)


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


def base_support(corpus: LabeledCorpus, classes) -> dict:
    """First BASE_SHOTS train-split images per base class, for prototype building."""
    sub = corpus.subset(split="train", classes=set(classes))
    by_class = _class_index(sub)
    return {
        c: [sub.records[i].image.pixels for i in idx[:BASE_SHOTS]]
        for c, idx in sorted(by_class.items())
    }


def adaptation_support(corpus: LabeledCorpus, classes, k: int) -> dict:
    """First-k train-split images per adaptation class (the few-shot budget);
    ValueError unless every class has k."""
    sub = corpus.subset(split="train", classes=set(classes))
    by_class = _class_index(sub)
    missing = set(classes) - set(by_class)
    if missing:
        raise ValueError(f"no train samples for adaptation classes {sorted(missing)}")
    for c, idx in sorted(by_class.items()):
        if len(idx) < k:
            raise ValueError(f"class {c} has {len(idx)} samples, k={k} requested")
    return {c: [sub.records[i].image.pixels for i in idx[:k]] for c, idx in sorted(by_class.items())}
