import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcheck
from jsonfuzz import json_values
from gnssfsl import fsl
from gnssfsl.fsl import (
    Episode,
    SimilarityMap,
    TrainConfig,
    adapt,
    build_similarity_map,
    classify_batch,
    compute_prototypes,
    load_fixture_map,
    pn_episode_loss,
    sample_roles,
    split_corpus,
    train,
)
from gnssfsl.nncore import ArchConfig, init
from gnssfsl.spectro import CorpusRecord, LabeledCorpus, SpectrogramImage
from gnssfsl.uncertainty import decompose_uncertainty, predict_member

SMALL = ArchConfig(height=8, width=8, conv_channels=(2, 3), embed_dim=4, dtype="f64")


def toy_corpus(class_sizes: dict, seed=0, size=8) -> LabeledCorpus:
    rng = np.random.default_rng(seed)
    records = []
    for label, count in sorted(class_sizes.items()):
        for i in range(count):
            pix = rng.integers(0, 256, size=(size, size)).astype(np.uint8)
            records.append(
                CorpusRecord(
                    file=f"{label}_{i}.img",
                    label=label,
                    split="train",
                    seed=i,
                    image=SpectrogramImage(pix),
                )
            )
    return LabeledCorpus(records)


class TestSplit:
    def test_exact_64_16_20(self):
        corpus = toy_corpus({0: 100})
        out = split_corpus(corpus, (0.64, 0.16, 0.20), seed=1)
        splits = [r.split for r in out.records]
        assert splits.count("train") == 64
        assert splits.count("val") == 16
        assert splits.count("test") == 20

    def test_all_train(self):
        corpus = toy_corpus({0: 10, 1: 5, 2: 2})
        out = split_corpus(corpus, (1.0, 0.0, 0.0), seed=1)
        assert all(r.split == "train" for r in out.records)

    def test_deterministic(self):
        corpus = toy_corpus({0: 30, 1: 12})
        a = split_corpus(corpus, seed=9)
        b = split_corpus(corpus, seed=9)
        assert [r.split for r in a.records] == [r.split for r in b.records]

    def test_stratified_minimums(self):
        corpus = toy_corpus({0: 8, 1: 100, 2: 3})
        out = split_corpus(corpus, seed=2)
        for label in (0, 1, 2):
            sub = out.subset(classes={label})
            splits = [r.split for r in sub.records]
            assert splits.count("train") >= 1
            assert splits.count("val") >= 1
            assert splits.count("test") >= 1

    def test_tiny_class_fallback(self):
        corpus = toy_corpus({0: 2, 1: 1, 2: 50})
        out = split_corpus(corpus, seed=3)
        c0 = [r.split for r in out.subset(classes={0}).records]
        assert sorted(c0) == ["test", "train"]
        c1 = [r.split for r in out.subset(classes={1}).records]
        assert c1 == ["train"]

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_corpus(toy_corpus({0: 5}), (0.5, 0.2, 0.2), seed=0)


class TestPrototypes:
    def test_singleton_support_is_embedding(self):
        net = init(SMALL, seed=1)
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        clf = compute_prototypes(net, {0: [img], 1: [img]})
        emb = net.infer([img])[0]
        np.testing.assert_allclose(clf.prototypes[0], emb, atol=1e-12)

    def test_mean_of_support(self):
        net = init(SMALL, seed=2)
        rng = np.random.default_rng(1)
        imgs = [rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(4)]
        clf = compute_prototypes(net, {0: imgs, 1: imgs[:1]})
        emb = net.infer(imgs)
        np.testing.assert_allclose(clf.prototypes[0], emb.mean(axis=0), atol=1e-12)

    def test_duplicated_support_same_prototype(self):
        net = init(SMALL, seed=3)
        rng = np.random.default_rng(2)
        imgs = [rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(3)]
        a = compute_prototypes(net, {0: imgs, 1: imgs[:1]})
        b = compute_prototypes(net, {0: imgs + imgs, 1: imgs[:1]})
        np.testing.assert_allclose(a.prototypes[0], b.prototypes[0], atol=1e-12)

    def test_empty_class_rejected(self):
        net = init(SMALL, seed=4)
        with pytest.raises(ValueError):
            compute_prototypes(net, {0: []})


class TestClassify:
    def test_exact_prototype_match(self):
        net = init(SMALL, seed=5)
        rng = np.random.default_rng(3)
        imgs = {c: [rng.integers(0, 256, size=(8, 8)).astype(np.uint8)] for c in (0, 1, 2)}
        clf = compute_prototypes(net, imgs)
        assert list(classify_batch(clf, [imgs[1][0]])) == [1]
        emb = net.infer([imgs[1][0]])[0]
        assert np.linalg.norm(emb - clf.prototypes[1]) == pytest.approx(0.0, abs=1e-6)

    def test_tie_breaks_to_smaller_id(self):
        net = init(SMALL, seed=6)
        clf = fsl.PrototypeClassifier(
            {2: np.array([1.0, 0.0, 0.0, 0.0]), 5: np.array([1.0, 0.0, 0.0, 0.0])}, net
        )
        emb_img = np.zeros((8, 8), dtype=np.uint8)
        assert list(classify_batch(clf, [emb_img])) == [2]

    def test_brute_force_oracle(self):
        net = init(SMALL, seed=7)
        rng = np.random.default_rng(4)
        support = {
            c: [rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(2)]
            for c in range(5)
        }
        clf = compute_prototypes(net, support)
        queries = [rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(20)]
        batch_labels = classify_batch(clf, queries)
        for q, got in zip(queries, batch_labels):
            emb = net.infer([q])[0]
            dists = {c: np.linalg.norm(emb - v) for c, v in clf.prototypes.items()}
            expected = min(sorted(dists), key=lambda c: dists[c])
            assert got == expected


class TestEpisodeLoss:
    def _episode(self, rng, n_cls=3, k=2, q=2):
        support = {
            c: [rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(k)]
            for c in range(n_cls)
        }
        query = [
            (rng.integers(0, 256, size=(8, 8)).astype(np.uint8), c)
            for c in range(n_cls)
            for _ in range(q)
        ]
        return Episode(support, query)

    def test_query_on_own_prototype_saturates(self):
        net = init(SMALL, seed=8)
        rng = np.random.default_rng(5)
        img0 = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        img1 = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        # scale embeddings far apart by widening the last dense weights
        net.params = net.params * 50.0
        episode = Episode({0: [img0], 1: [img1]}, [(img0, 0)])
        loss, _ = pn_episode_loss(net, episode)
        assert loss < 0.05

    def test_equidistant_uniform_loss(self):
        net = init(SMALL, seed=9)
        net.params = np.zeros_like(net.params)  # all embeddings identical
        rng = np.random.default_rng(6)
        episode = self._episode(rng, n_cls=2, k=1, q=1)
        loss, _ = pn_episode_loss(net, episode)
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)

    def test_gradient_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            assert gradcheck.check_pn_episode_loss(rng) < 1e-4

    def test_invalid_episode_rejected(self):
        with pytest.raises(ValueError):
            Episode({0: [np.zeros((8, 8), dtype=np.uint8)]}, [])  # single class
        with pytest.raises(ValueError):
            Episode(
                {0: [np.zeros((8, 8), dtype=np.uint8)], 1: []},
                [(np.zeros((8, 8), dtype=np.uint8), 0)],
            )
        with pytest.raises(ValueError):
            Episode(
                {0: [np.zeros((8, 8), dtype=np.uint8)], 1: [np.zeros((8, 8), dtype=np.uint8)]},
                [(np.zeros((8, 8), dtype=np.uint8), 9)],
            )


class TestSimilarityMap:
    def test_fixture_loads(self):
        m = load_fixture_map()
        assert m.get(0) == [1, 3, 5, 7]
        assert m.get(2) == [1]
        assert m.get(9) == [10]
        assert m.get(10) == [8, 9]

    def test_json_round_trip(self):
        m = SimilarityMap({0: [1, 2], 3: [0]})
        back = SimilarityMap.from_json(m.to_json())
        assert back.ranked == {0: [1, 2], 3: [0]}

    def test_self_similarity_rejected(self):
        with pytest.raises(ValueError):
            SimilarityMap({1: [1]})

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", '{"3": 5}', '{"3": [true]}', '{"3": [1.5]}', '{"x": [1]}', '{"-3": [1]}', "null"],
    )
    def test_malformed_document_raises_value_error(self, text):
        with pytest.raises(ValueError, match="similarity map"):
            SimilarityMap.from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            json_values("3"),
            st.dictionaries(
                st.sampled_from(["0", "3", "10", "x", ""]),
                st.one_of(json_values(), st.lists(st.integers(-2, 12), max_size=4)),
                max_size=4,
            ),
        )
    )
    def test_from_json_fuzz_raises_only_value_error(self, doc):
        try:
            m = SimilarityMap.from_json(json.dumps(doc))
        except ValueError:
            return
        for c, others in m.ranked.items():
            assert type(c) is int and all(type(x) is int for x in others)

    @staticmethod
    def _mine(members, data):
        images = [img for img, _ in data]
        probs = np.stack([predict_member(m, images) for m in members])
        return build_similarity_map(decompose_uncertainty(probs), [lbl for _, lbl in data])

    def test_zero_epistemic_gives_empty_map(self):
        # members agree perfectly and confidently: epistemic ~ 0 everywhere
        cfg = ArchConfig(height=8, width=8, conv_channels=(2,), embed_dim=4, num_classes=2)
        members = [init(cfg, seed=3)] * 3  # identical members
        rng = np.random.default_rng(0)
        data = [
            (rng.integers(0, 256, size=(8, 8)).astype(np.uint8), label)
            for label in (0, 1)
            for _ in range(5)
        ]
        assert self._mine(members, data).ranked == {}

    @pytest.mark.parametrize("quantile", [5.0, -0.1, float("nan")])
    def test_quantile_outside_unit_interval_rejected_with_zero_traces(self, quantile):
        # One member: every epistemic trace is 0, so no class clears
        # fsl.MIN_STAT and np.quantile never sees the quantile.
        rng = np.random.default_rng(4)
        raw = rng.gamma(0.5, size=(1, 12, 3))
        probs = raw / raw.sum(axis=2, keepdims=True)
        report = decompose_uncertainty(probs)
        assert np.all(report.epistemic_trace == 0.0)
        labels = np.arange(12) % 3
        assert build_similarity_map(report, labels, quantile=1.0).ranked == {}
        with pytest.raises(ValueError, match="quantile"):
            build_similarity_map(report, labels, quantile=quantile)

    def test_shuffle_invariance(self):
        cfg = ArchConfig(height=8, width=8, conv_channels=(2,), embed_dim=4, num_classes=3)
        members = [init(cfg, seed=s) for s in (1, 2, 3)]
        rng = np.random.default_rng(1)
        data = [
            (rng.integers(0, 256, size=(8, 8)).astype(np.uint8), int(rng.integers(3)))
            for _ in range(30)
        ]
        m1 = self._mine(members, data)
        order = rng.permutation(len(data))
        m2 = self._mine(members, [data[i] for i in order])
        assert m1.ranked == m2.ranked

    def test_absent_class_warns(self):
        cfg = ArchConfig(height=8, width=8, conv_channels=(2,), embed_dim=4, num_classes=4)
        members = [init(cfg, seed=s) for s in (1, 2)]
        rng = np.random.default_rng(2)
        data = [(rng.integers(0, 256, size=(8, 8)).astype(np.uint8), 0) for _ in range(4)]
        with pytest.warns(UserWarning, match="absent"):
            self._mine(members, data)

    def test_matches_per_sample_loop(self):
        """Vectorized accumulation equals the per-sample reference loop."""
        rng = np.random.default_rng(3)
        t, n, k = 4, 60, 5
        raw = rng.gamma(0.5, size=(t, n, k))
        probs = raw / raw.sum(axis=2, keepdims=True)
        labels = rng.integers(k, size=n)
        sums = np.zeros((k, k))
        counts = np.zeros((k, k), dtype=np.int64)
        for i in range(n):
            rep = decompose_uncertainty(probs[:, i, :])
            top2 = np.argsort(-rep.mean_softmax, kind="stable")[:2]
            for cp in top2:
                if cp != labels[i]:
                    sums[labels[i], cp] += rep.epistemic_trace
                    counts[labels[i], cp] += 1
        expected = {}
        for c in range(k):
            stats = {cp: sums[c, cp] / counts[c, cp] for cp in range(k) if counts[c, cp]}
            values = [v for v in stats.values() if v > 1e-6]
            if values:
                threshold = float(np.quantile(values, 0.5))
                chosen = sorted((-v, cp) for cp, v in stats.items() if v > 1e-6 and v >= threshold)
                expected[c] = [cp for _, cp in chosen]
        got = build_similarity_map(decompose_uncertainty(probs), labels, quantile=0.5)
        assert got.ranked == expected


class TestQuadrupletSampling:
    @staticmethod
    def _draw(corpus, sim_map, anchor, rng):
        idx = sample_roles(fsl._class_index(corpus), sim_map, anchor, rng, roles=4)
        return [corpus.records[i] for i in idx]

    def test_constraints_hold_over_many_draws(self):
        corpus = toy_corpus({0: 5, 1: 4, 2: 3, 3: 6})
        m = SimilarityMap({0: [2], 1: [0, 3]})
        rng = np.random.default_rng(3)
        for _ in range(500):
            anchor = int(rng.integers(4))
            a, p, s, n = self._draw(corpus, m, anchor, rng)
            assert a.label == p.label == anchor
            assert a.file != p.file
            assert s.label != anchor
            assert n.label not in (anchor, s.label)

    def test_map_entry_controls_similar_class(self):
        corpus = toy_corpus({0: 5, 1: 4, 2: 3, 3: 6})
        m = SimilarityMap({0: [2]})
        rng = np.random.default_rng(4)
        for _ in range(50):
            _, _, s, _ = self._draw(corpus, m, 0, rng)
            assert s.label == 2

    def test_two_sample_anchor_forced(self):
        corpus = toy_corpus({0: 2, 1: 4, 2: 3})
        rng = np.random.default_rng(5)
        a, p, _, _ = self._draw(corpus, None, 0, rng)
        assert {a.file, p.file} == {"0_0.img", "0_1.img"}

    def test_too_few_classes_rejected(self):
        corpus = toy_corpus({0: 4, 1: 4})
        with pytest.raises(ValueError):
            self._draw(corpus, None, 0, np.random.default_rng(0))

    def test_triplet_roles_skip_the_similar_draws(self):
        # Triplet training draws (a, p, n) through the same code, without the
        # similar class, so two classes suffice.
        corpus = toy_corpus({0: 4, 1: 3})
        by_class = fsl._class_index(corpus)
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, p, n = (corpus.records[i] for i in sample_roles(by_class, None, 0, rng, 3))
            assert a.label == p.label == 0 and a.file != p.file
            assert n.label == 1


class TestTrain:
    def test_zero_epochs_returns_initialized_net(self, tiny_corpus, quick_config):
        cfg = fsl.replace(quick_config, epochs=0)
        result = train(tiny_corpus, cfg)
        fresh = init(cfg.arch(tiny_corpus.records[0].image.pixels.shape), cfg.seed)
        np.testing.assert_array_equal(result.network.params, fresh.params)

    def test_deterministic_trajectory(self, tiny_corpus, quick_config):
        a = train(tiny_corpus, quick_config)
        b = train(tiny_corpus, quick_config)
        np.testing.assert_array_equal(a.network.params, b.network.params)
        assert a.epoch_losses == b.epoch_losses

    def test_class_index_built_once_per_call(self, tiny_corpus, quick_config, monkeypatch):
        calls = []
        index = fsl._class_index
        monkeypatch.setattr(fsl, "_class_index", lambda corpus: calls.append(1) or index(corpus))
        train(tiny_corpus, quick_config)  # 2 epochs x 3 episodes
        assert len(calls) == 1

    def test_loss_decreases(self, tiny_corpus):
        cfg = TrainConfig(
            loss="ce",
            epochs=6,
            episodes_per_epoch=4,
            conv_channels=(4, 8),
            embed_dim=16,
            k_shot=2,
            n_query=2,
            seed=3,
        )
        result = train(tiny_corpus, cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_quadruplet_uses_fixture_map_by_default(self, tiny_corpus, quick_config):
        cfg = fsl.replace(quick_config, loss="quadruplet", epochs=1, episodes_per_epoch=2)
        result = train(tiny_corpus, cfg)
        assert len(result.epoch_losses) == 1

    def test_computed_map_must_be_passed(self, tiny_corpus, quick_config):
        # The fixture stands in only for "paper_fixture"; a computed map is the caller's.
        cfg = fsl.replace(quick_config, loss="quadruplet", similarity_map="computed")
        with pytest.raises(ValueError, match="sim_map"):
            train(tiny_corpus, cfg)

    @pytest.mark.parametrize("kind", ["triplet", "quadruplet"])
    def test_pairwise_loss_needs_a_two_sample_class(self, kind):
        corpus = toy_corpus({c: 1 for c in range(11)})
        cfg = TrainConfig(loss=kind, pretrain="ce", conv_channels=(2,), embed_dim=4)
        with pytest.raises(ValueError, match="at least 2 train samples"):
            train(corpus, cfg)

    def test_ce_pretrain_mode(self, tiny_corpus, quick_config):
        cfg = fsl.replace(quick_config, pretrain="ce", epochs=1, batch_size=16)
        result = train(tiny_corpus, cfg)
        assert result.network.config.num_classes == 7

    def test_adaptation_classes_excluded(self, tiny_corpus, quick_config):
        result = train(tiny_corpus, quick_config)
        assert set(result.train_classes) == set(range(11)) - {3, 7, 9, 10}


class TestPairwiseStepGradient:
    """`_pairwise_step`'s parameter gradient against central differences of its
    loss: the pairwise loss, the `pairwise_norm` backward and the 1/b scaling."""

    @pytest.mark.parametrize("norm", ["softmax", "l2", "none"])
    @pytest.mark.parametrize("kind", ["triplet", "quadruplet"])
    def test_matches_central_differences(self, kind, norm):
        corpus = toy_corpus({c: 4 for c in range(4)})
        by_class = fsl._class_index(corpus)
        cfg = TrainConfig(loss=kind, pairwise_norm=norm, alpha=1.0, pair_batch=3)
        net = init(SMALL, seed=9)
        # No ReLU or max-pool kink within finite-difference reach of any corpus image.
        images = [r.image.pixels for r in corpus.records]
        assert gradcheck._net_kink_margin(net, images) > gradcheck.KINK_MARGIN

        def step():
            # The same batch every call: the rng is re-seeded.
            rng = np.random.default_rng(4)
            return fsl._pairwise_step(net, corpus, by_class, cfg, None, rng)

        _, analytic = step()
        p0 = net.params.copy()

        def loss_at(params):
            net.params = params
            return step()[0]

        # Central differences err by O(eps^2) times the third derivative: at the
        # default 1e-4, the unnormalized quadruplet's curvature alone gives 8e-4
        # on one weight, and 8e-6 at 1e-5.
        numeric = gradcheck.central_diff(loss_at, p0.copy(), eps=1e-5)
        net.params = p0
        assert gradcheck.max_rel_err(analytic, numeric) < 1e-4


class TestAdapt:
    def _backbone_and_support(self, tiny_corpus, quick_config):
        result = train(tiny_corpus, fsl.replace(quick_config, epochs=1, episodes_per_epoch=1))
        net = result.network
        base_classes = result.train_classes
        base = compute_prototypes(net, fsl.base_support(tiny_corpus, base_classes))
        support = fsl.adaptation_support(tiny_corpus, (3, 7, 9, 10), k=2)
        return net, base, support

    def test_backbone_untouched(self, tiny_corpus, quick_config):
        net, base, support = self._backbone_and_support(tiny_corpus, quick_config)
        digest_before = hashlib.sha256(net.params.tobytes()).hexdigest()
        adapt(net, support, k=2, base=base)
        assert hashlib.sha256(net.params.tobytes()).hexdigest() == digest_before

    def test_adapt_idempotent(self, tiny_corpus, quick_config):
        net, base, support = self._backbone_and_support(tiny_corpus, quick_config)
        a = adapt(net, support, k=2, base=base)
        b = adapt(net, support, k=2, base=base)
        for c in a.prototypes:
            np.testing.assert_array_equal(a.prototypes[c], b.prototypes[c])

    def test_new_class_never_moves_existing_prototypes(self, tiny_corpus, quick_config):
        net, base, support = self._backbone_and_support(tiny_corpus, quick_config)
        partial = {3: support[3]}
        clf1 = adapt(net, partial, k=2, base=base)
        clf2 = adapt(net, support, k=2, base=base)
        for c in clf1.prototypes:
            np.testing.assert_array_equal(clf1.prototypes[c], clf2.prototypes[c])

    def test_k_exceeding_support_rejected(self, tiny_corpus, quick_config):
        net, base, support = self._backbone_and_support(tiny_corpus, quick_config)
        with pytest.raises(ValueError):
            adapt(net, {3: support[3][:1]}, k=2, base=base)

    def test_overlap_rejected(self, tiny_corpus, quick_config):
        net, base, support = self._backbone_and_support(tiny_corpus, quick_config)
        with pytest.raises(ValueError):
            adapt(net, {0: support[3]}, k=2, base=base)


class TestSatisfactionRate:
    def test_hinge_satisfaction_non_decreasing(self, tiny_corpus):
        """The share of mined quadruplets with both hinges at zero trends up
        (2% slack between consecutive epochs) while the loss optimizes the
        same margins on raw embeddings."""
        sim_map = load_fixture_map()
        a1, a2 = 0.5, 1.0
        train_corpus = tiny_corpus.subset(
            split="train", classes=set(range(11)) - {3, 7, 9, 10}
        )
        by_class = fsl._class_index(train_corpus)
        rng = np.random.default_rng(0)
        eligible = [c for c in sorted(by_class) if len(by_class[c]) >= 2]
        quads = np.array(
            [
                sample_roles(
                    by_class, sim_map, eligible[rng.integers(len(eligible))], rng, roles=4
                )
                for _ in range(400)
            ]
        )
        images = np.stack(
            [train_corpus.records[i].image.pixels for i in quads.reshape(-1)]
        )

        def satisfaction(net):
            emb = net.infer(images).astype(np.float64)
            e = emb.reshape(-1, 4, emb.shape[-1])
            d = lambda i, j: np.sqrt(((e[:, i] - e[:, j]) ** 2).sum(-1))
            both = (d(0, 1) - d(0, 2) + a1 <= 0) & (d(0, 2) - d(0, 3) + a2 <= 0)
            return float(np.mean(both))

        rates = []
        cfg = TrainConfig(
            loss="quadruplet",
            alpha1=a1,
            alpha2=a2,
            epochs=12,
            episodes_per_epoch=10,
            conv_channels=(4, 8),
            embed_dim=16,
            k_shot=2,
            episode_k_shot=2,
            n_query=3,
            pair_batch=12,
            pair_weight=5.0,
            lr=0.03,
            decay=0.0005,
            seed=7,
            pairwise_norm="none",
        )
        train(
            tiny_corpus,
            cfg,
            sim_map=sim_map,
            epoch_callback=lambda ep, net: rates.append(satisfaction(net)),
        )
        assert rates[-1] > 0.0, "training never satisfied any quadruplet"
        for earlier, later in zip(rates, rates[1:]):
            assert later >= earlier - 0.02, rates


class TestIsometryInvariance:
    def test_classification_invariant_under_orthogonal_maps(self):
        rng = np.random.default_rng(12)
        net = init(SMALL, seed=13)
        dim = SMALL.embed_dim
        protos = {c: rng.normal(size=dim) for c in range(4)}
        queries = rng.normal(size=(25, dim))

        def argmin_labels(prototypes, qs):
            out = []
            for q in qs:
                d = {c: np.linalg.norm(q - v) for c, v in prototypes.items()}
                out.append(min(sorted(d), key=lambda c: d[c]))
            return out

        base = argmin_labels(protos, queries)
        for _ in range(5):
            q_mat = rng.normal(size=(dim, dim))
            ortho, _ = np.linalg.qr(q_mat)
            rotated_protos = {c: ortho @ v for c, v in protos.items()}
            rotated_queries = queries @ ortho.T
            assert argmin_labels(rotated_protos, rotated_queries) == base


_JSON_VALUES = json_values("ce", "quadruplet", "computed", "episodic", "l2")


class TestConfig:
    def test_json_round_trip_with_lambda_key(self):
        cfg = TrainConfig(loss="quadruplet", pair_weight=0.5, alpha1=2.0, alpha2=5.0)
        text = cfg.to_json()
        assert '"lambda"' in text
        back = TrainConfig.from_json(text)
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig.from_json('{"loss": "ce", "mystery": 1}')
        # The weight's one JSON name is "lambda", so a file cannot give two weights.
        for text in ('{"pair_weight": 3}', '{"lambda": 2, "pair_weight": 3}'):
            with pytest.raises(ValueError, match=r"unknown config keys: \['pair_weight'\]"):
                TrainConfig.from_json(text)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError):
            TrainConfig(loss="triplet", alpha=0.0)
        with pytest.raises(ValueError):
            TrainConfig(similarity_map="guessed")
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError, match="unknown loss 'contrastive'"):
            TrainConfig(loss="contrastive")
        for bad in (
            {"lr": 0.0}, {"lr": -1.0}, {"decay": -0.1}, {"pair_weight": 0.0}, {"pair_weight": -1.0}
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)
        for text in (
            '{"loss": "quadruplet", "alpha1": NaN}',
            '{"lr": Infinity}',
            '{"lambda": -Infinity}',
        ):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig.from_json(text)
        for name in (
            "episodes_per_epoch", "episode_k_shot", "n_query", "pair_batch", "batch_size", "k_shot"
        ):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: 0})

    @pytest.mark.parametrize(
        "text",
        [
            '{"epochs": "x"}',
            '{"conv_channels": 5}',
            '{"conv_channels": [4, true]}',
            '{"adaptation_classes": "3"}',
            '{"seed": 1.5}',
            '{"lr": null}',
            '{"loss": 1}',
            "[1, 2]",
            '"ce"',
        ],
    )
    def test_malformed_document_raises_value_error(self, text):
        with pytest.raises(ValueError):
            TrainConfig.from_json(text)

    def test_ints_accepted_for_float_fields(self):
        assert TrainConfig.from_json('{"alpha": 3, "lr": 1}').alpha == 3

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            _JSON_VALUES,
            st.dictionaries(
                st.sampled_from(sorted(TrainConfig.__dataclass_fields__) + ["lambda"]),
                _JSON_VALUES,
                max_size=6,
            ),
        )
    )
    def test_from_json_fuzz_raises_only_value_error(self, doc):
        try:
            TrainConfig.from_json(json.dumps(doc)).arch((32, 32))
        except ValueError:
            pass
