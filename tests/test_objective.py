import math

import numpy as np
import pytest

from lexivis.objective import (
    normalize_rows,
    grouped_contrastive_loss,
    grouped_contrastive_loss_with_grads,
)


def oracle_grouped_contrastive(sim, labels, tau):
    """Scalar-arithmetic transcription of the grouped objective, loops only."""
    n = len(labels)
    l_i2t = 0.0
    for i in range(n):
        positives = [k for k in range(n) if labels[k] == labels[i]]
        denom = sum(math.exp(tau * sim[i][j]) for j in range(n))
        inner = 0.0
        for k in positives:
            inner += math.log(math.exp(tau * sim[i][k]) / denom)
        l_i2t -= inner / len(positives)
    l_t2i = 0.0
    for j in range(n):
        positives = [k for k in range(n) if labels[k] == labels[j]]
        denom = sum(math.exp(tau * sim[i][j]) for i in range(n))
        inner = 0.0
        for k in positives:
            inner += math.log(math.exp(tau * sim[k][j]) / denom)
        l_t2i -= inner / len(positives)
    return l_i2t, l_t2i, l_i2t + l_t2i


def oracle_infonce(sim, tau):
    """Symmetric InfoNCE with one-to-one pairing (the CLIP objective)."""
    n = sim.shape[0]
    loss = 0.0
    for i in range(n):
        denom = sum(math.exp(tau * sim[i][j]) for j in range(n))
        loss -= math.log(math.exp(tau * sim[i][i]) / denom)
    for j in range(n):
        denom = sum(math.exp(tau * sim[i][j]) for i in range(n))
        loss -= math.log(math.exp(tau * sim[j][j]) / denom)
    return loss


def _random_batch(rng, b, p):
    u = normalize_rows(rng.normal(size=(b, p)))
    v = normalize_rows(rng.normal(size=(b, p)))
    return u @ v.T


class TestNormalize:
    def test_pythagorean(self):
        v = np.zeros((1, 8))
        v[0, 0], v[0, 1] = 3.0, 4.0
        out = normalize_rows(v)[0]
        assert out[0] == pytest.approx(0.6)
        assert out[1] == pytest.approx(0.8)

    def test_idempotent(self):
        v = normalize_rows(np.array([[1.0, 2.0, 2.0], [0.0, -3.0, 4.0]]))
        assert np.allclose(normalize_rows(v), v)

    def test_zero_vector_errors(self):
        with pytest.raises(ValueError):
            normalize_rows(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))


class TestGroupedLossValues:
    def test_single_element_batch_is_zero(self):
        assert grouped_contrastive_loss(np.array([[0.37]]), [0], 5.0).l_ic == 0.0

    def test_b2_distinct_labels(self):
        loss = grouped_contrastive_loss(np.eye(2), [0, 1], 1.0)
        assert loss.l_i2t == pytest.approx(0.62652, abs=5e-6)
        assert loss.l_ic == pytest.approx(1.25305, abs=5e-6)

    def test_b2_equal_labels(self):
        loss = grouped_contrastive_loss(np.eye(2), [0, 0], 1.0)
        assert loss.l_i2t == pytest.approx(1.62652, abs=5e-6)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            grouped_contrastive_loss(np.eye(2), [0, 1], 0.0)

    def test_matches_scalar_oracle_on_random_batches(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            b = int(rng.integers(1, 9))
            p = int(rng.integers(2, 17))
            sim = _random_batch(rng, b, p)
            labels = rng.integers(0, max(1, b // 2 + 1), size=b)
            tau = float(rng.uniform(0.3, 30.0))
            loss = grouped_contrastive_loss(sim, labels, tau)
            oi2t, ot2i, oic = oracle_grouped_contrastive(sim.tolist(), labels.tolist(), tau)
            assert abs(loss.l_i2t - oi2t) <= 1e-9 * max(1.0, abs(oi2t))
            assert abs(loss.l_t2i - ot2i) <= 1e-9 * max(1.0, abs(ot2i))
            assert abs(loss.l_ic - oic) <= 1e-9 * max(1.0, abs(oic))

    def test_unique_labels_reduce_to_infonce(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = int(rng.integers(2, 9))
            sim = _random_batch(rng, b, 12)
            tau = float(rng.uniform(0.5, 20.0))
            loss = grouped_contrastive_loss(sim, np.arange(b), tau)
            expected = oracle_infonce(sim, tau)
            assert abs(loss.l_ic - expected) <= 1e-9 * max(1.0, abs(expected))


class TestGroupedLossProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        sim = _random_batch(rng, 6, 8)
        labels = np.array([0, 1, 1, 2, 0, 3])
        base = grouped_contrastive_loss(sim, labels, 4.0)
        perm = rng.permutation(6)
        permuted = grouped_contrastive_loss(sim[np.ix_(perm, perm)], labels[perm], 4.0)
        assert permuted.l_i2t == pytest.approx(base.l_i2t, abs=1e-12)
        assert permuted.l_t2i == pytest.approx(base.l_t2i, abs=1e-12)
        assert permuted.l_ic == pytest.approx(base.l_ic, abs=1e-12)

    def test_transpose_swaps_directions(self):
        rng = np.random.default_rng(4)
        sim = _random_batch(rng, 5, 6)
        labels = np.array([0, 0, 1, 2, 1])
        fwd = grouped_contrastive_loss(sim, labels, 2.5)
        swapped = grouped_contrastive_loss(sim.T, labels, 2.5)
        assert swapped.l_i2t == pytest.approx(fwd.l_t2i, abs=1e-12)
        assert swapped.l_t2i == pytest.approx(fwd.l_i2t, abs=1e-12)

    def test_temperature_preserves_row_argmax(self):
        rng = np.random.default_rng(5)
        sim = _random_batch(rng, 6, 9)
        for tau in (0.5, 3.0, 40.0):
            z = tau * sim
            assert np.array_equal(np.argmax(z, axis=1), np.argmax(sim, axis=1))

    def test_loss_decreases_under_gradient_descent(self):
        # grouped labels: L_IC >= 0 is not guaranteed, but descent must hold
        rng = np.random.default_rng(6)
        u = rng.normal(size=(6, 5))
        v = rng.normal(size=(6, 5))
        labels = np.array([0, 0, 1, 1, 2, 2])
        tau = 10.0
        history = []
        lr = 0.05
        for _ in range(50):
            un = normalize_rows(u)
            vn = normalize_rows(v)
            sim = un @ vn.T
            loss, d_sim, _ = grouped_contrastive_loss_with_grads(sim, labels, tau)
            history.append(loss.l_ic)
            du = d_sim @ vn
            dv = d_sim.T @ un
            from lexivis.objective import normalize_rows_backward

            u -= lr * normalize_rows_backward(u, du)
            v -= lr * normalize_rows_backward(v, dv)
        assert np.isfinite(history).all()
        assert history[-1] < history[0]

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        sim = _random_batch(rng, 5, 7)
        labels = np.array([0, 1, 0, 2, 1])
        tau = 3.7
        _, d_sim, d_tau = grouped_contrastive_loss_with_grads(sim, labels, tau)
        h = 1e-6
        for i in range(5):
            for j in range(5):
                bumped = sim.copy()
                bumped[i, j] += h
                up = grouped_contrastive_loss(bumped, labels, tau).l_ic
                bumped[i, j] -= 2 * h
                down = grouped_contrastive_loss(bumped, labels, tau).l_ic
                assert d_sim[i, j] == pytest.approx((up - down) / (2 * h), abs=1e-6)
        up = grouped_contrastive_loss(sim, labels, tau + h).l_ic
        down = grouped_contrastive_loss(sim, labels, tau - h).l_ic
        assert d_tau == pytest.approx((up - down) / (2 * h), abs=1e-6)
