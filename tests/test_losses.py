import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcheck
from gnssfsl.losses import _pair_distances, cross_entropy_batch, quadruplet_loss, triplet_loss


def euclidean_distance(u, v) -> float:
    """One row of the pairwise losses' distance."""
    return float(_pair_distances(np.atleast_2d(u), np.atleast_2d(v))[0])


def cross_entropy(logits, label):
    """One row of the batched cross-entropy: (loss, gradient row)."""
    loss, grad = cross_entropy_batch(np.asarray(logits)[None], [label])
    return loss, grad[0]


def _embed_at_distances(d_ap, d_an, d_as=None):
    """Stacked one-row roles on orthogonal axes, so distances from the anchor are exact."""
    dim = 4
    a = np.zeros((1, dim))
    p = np.zeros((1, dim))
    p[0, 0] = d_ap
    n = np.zeros((1, dim))
    n[0, 1] = d_an
    if d_as is None:
        return np.stack([a, p, n])
    s = np.zeros((1, dim))
    s[0, 2] = d_as
    return np.stack([a, p, s, n])


class TestEuclideanDistance:
    def test_three_four_five(self):
        assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_identity(self):
        u = np.array([1.5, -2.5, 3.0])
        assert euclidean_distance(u, u) == 0.0

    def test_unit_vector(self):
        assert euclidean_distance(np.array([1.0, 2.0, 2.0]), np.zeros(3)) == 3.0

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, u, v):
        m = min(len(u), len(v))
        a, b = np.array(u[:m]), np.array(v[:m])
        assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))


class TestTriplet:
    def test_satisfied(self):
        loss, _ = triplet_loss(_embed_at_distances(1.0, 4.0), alpha=2.0)
        assert loss == 0.0

    def test_direct_substitution(self):
        loss, _ = triplet_loss(_embed_at_distances(3.0, 2.0), alpha=2.0)
        assert loss == pytest.approx(3.0)

    def test_additivity(self):
        b1 = _embed_at_distances(1.0, 4.0)
        b2 = _embed_at_distances(3.0, 2.0)
        loss, _ = triplet_loss(np.concatenate([b1, b2], axis=1), alpha=2.0)
        assert loss == pytest.approx(0.0 + 3.0)

    def test_gradient_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert gradcheck.check_pairwise_loss("triplet", rng) < 1e-4


class TestQuadruplet:
    def test_both_hinges_at_zero(self):
        a1, a2 = 1.5, 2.5
        batch = _embed_at_distances(0.0, a1 + a2, d_as=a1)
        loss, _ = quadruplet_loss(batch, a1, a2)
        assert loss == pytest.approx(0.0)

    def test_direct_substitution(self):
        batch = _embed_at_distances(1.0, 1.0, d_as=1.0)
        loss, _ = quadruplet_loss(batch, 2.0, 5.0)
        assert loss == pytest.approx(7.0)

    def test_margin_grid_accepted(self):
        batch = _embed_at_distances(1.0, 1.0, d_as=1.0)
        for a1, a2 in gradcheck.PAPER_QUADRUPLET_MARGINS:
            loss, _ = quadruplet_loss(batch, a1, a2)
            assert np.isfinite(loss)

    def test_missing_similars_rejected(self):
        with pytest.raises(ValueError):
            quadruplet_loss(_embed_at_distances(1.0, 1.0), 2.0, 5.0)

    @pytest.mark.parametrize("b", [6, 8, 400])
    def test_active_hinges_give_the_triplet_gradient(self, b):
        # Margins (2, 5) exceed the softmax simplex's diameter sqrt(2), so both
        # hinges are active: the similar row's two gradients cancel exactly and
        # the rest is the triplet gradient of (a, p, n) at margin 2 + 5.
        rng = np.random.default_rng(b)
        e = np.exp(rng.normal(size=(4, b, 16)))
        a, p, s, n = e / e.sum(axis=2, keepdims=True)
        _, quad = quadruplet_loss(np.stack([a, p, s, n]), 2.0, 5.0)
        _, trip = triplet_loss(np.stack([a, p, n]), 7.0)
        assert not quad[2].any()
        np.testing.assert_array_equal(quad[1], trip[1])
        np.testing.assert_array_equal(quad[3], trip[2])
        np.testing.assert_allclose(quad[0], trip[0], rtol=0, atol=2.3e-16)

    def test_gradient_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert gradcheck.check_pairwise_loss("quadruplet", rng) < 1e-4

    def test_first_sum_degenerates_to_triplet(self):
        # Pin s so d(a,s) == d(a,n); with alpha1 = alpha the first hinge sum
        # must equal the triplet loss on random batches.
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(5, 4))
            p = rng.normal(size=(5, 4))
            n = rng.normal(size=(5, 4))
            alpha = float(rng.uniform(0.5, 3.0))
            trip, _ = triplet_loss(np.stack([a, p, n]), alpha)
            # quadruplet with s := n makes d(a,s) = d(a,n) exactly
            alpha2 = float(rng.uniform(0.5, 3.0))
            quad, _ = quadruplet_loss(np.stack([a, p, n, n]), alpha, alpha2)
            second_sum = 5 * alpha2  # every second hinge is max(0 + alpha2, 0)
            assert quad == pytest.approx(trip + second_sum, rel=1e-12)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros(4), 1)
        assert loss == pytest.approx(np.log(4.0))

    def test_saturated_correct_class(self):
        loss, _ = cross_entropy(np.array([1000.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=6)
        _, grad = cross_entropy(logits, 2)
        assert abs(grad.sum()) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(3), 3)
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(3), -1)

    def test_gradient_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            assert gradcheck.check_cross_entropy(rng) < 1e-4

    def test_batch_matches_singles(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 3, 2, 1])
        total, grad = cross_entropy_batch(logits, labels)
        singles = [cross_entropy(logits[i], labels[i])[0] for i in range(4)]
        assert total == pytest.approx(np.mean(singles))
        for i in range(4):
            _, g = cross_entropy(logits[i], labels[i])
            np.testing.assert_allclose(grad[i], g / 4, atol=1e-12)


class TestInvariants:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_negativity(self, rows, seed, alpha):
        rng = np.random.default_rng(seed)
        a, p, n, s = (rng.normal(size=(rows, 3)) for _ in range(4))
        assert triplet_loss(np.stack([a, p, n]), alpha)[0] >= 0.0
        assert quadruplet_loss(np.stack([a, p, s, n]), alpha, alpha)[0] >= 0.0
        logits = rng.normal(size=4)
        assert cross_entropy(logits, 0)[0] >= 0.0

    @pytest.mark.parametrize(
        "loss_fn, roles, margins",
        [(triplet_loss, 3, (1.0,)), (quadruplet_loss, 4, (1.0, 2.0))],
        ids=["triplet", "quadruplet"],
    )
    def test_empty_batch(self, loss_fn, roles, margins):
        loss, grads = loss_fn(np.zeros((roles, 0, 3)), *margins)
        assert loss == 0.0
        assert grads.shape == (roles, 0, 3)
