import logging
import tracemalloc

import numpy as np
import pytest

from pointpair.geometry import BLOCK_ELEMENTS
from pointpair.losses import (
    LossConfig,
    MatchBatch,
    NegativePool,
    collapse_metric,
    hardest_contrastive,
    info_nce,
    l2_normalize_rows,
    l2_normalize_rows_with_grad,
    sample_negative_pool,
    subsample_matches,
)
from pointpair.pairs import CorrespondenceMap
from pointpair.verify import oracle_info_nce_loss


def _unit(rng, n, d):
    return l2_normalize_rows(rng.standard_normal((n, d)))


class TestLossConfig:
    def test_defaults_validate(self):
        cfg = LossConfig()
        assert cfg.ns == 4096 and cfg.m_p == 0.1 and cfg.m_n == 1.4
        assert cfg.pos_sample == 1024 and cfg.hardest_neg_sample == 256

    def test_rejections(self):
        with pytest.raises(ValueError):
            LossConfig(variant="nope")
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)
        with pytest.raises(ValueError):
            LossConfig(m_p=1.5, m_n=1.4)
        with pytest.raises(ValueError):
            LossConfig(ns=1)


class TestSubsample:
    def test_keeps_all_in_order_when_ns_large(self, rng):
        m = CorrespondenceMap(np.stack([np.arange(10), np.arange(10)[::-1]], axis=1))
        f1 = rng.standard_normal((10, 4))
        f2 = rng.standard_normal((10, 4))
        batch = subsample_matches(m.matches, f1, f2, 50, rng)
        np.testing.assert_array_equal(batch.idx1, np.arange(10))
        np.testing.assert_array_equal(batch.idx2, np.arange(10)[::-1])
        np.testing.assert_array_equal(batch.f1, f1)

    def test_single_sample(self, rng):
        m = np.stack([np.arange(6), np.arange(6)], axis=1)
        batch = subsample_matches(m, rng.standard_normal((6, 2)), rng.standard_normal((6, 2)), 1, rng)
        assert len(batch) == 1

    def test_samples_are_distinct_and_valid(self, rng):
        m = np.stack([np.arange(100), np.arange(100)], axis=1)
        f = rng.standard_normal((100, 2))
        for _ in range(200):
            batch = subsample_matches(m, f, f, 17, rng)
            assert len(batch) == 17
            assert len(np.unique(batch.idx1)) == 17
            assert batch.idx1.min() >= 0 and batch.idx1.max() < 100

    def test_empty_map_rejected(self, rng):
        with pytest.raises(ValueError):
            subsample_matches(np.zeros((0, 2), dtype=np.int64), np.zeros((1, 2)), np.zeros((1, 2)), 4, rng)


class TestNormalize:
    def test_unit_rows_unchanged(self, rng):
        f = _unit(rng, 10, 4)
        np.testing.assert_allclose(l2_normalize_rows(f), f, atol=1e-15)

    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_output_norms_are_one(self, rng):
        out = l2_normalize_rows(rng.standard_normal((50, 7)) * 10)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(ValueError):
            l2_normalize_rows(np.array([[0.0, 0.0]]))

    def test_non_strict_zero_rows(self):
        f = np.array([[0.0, 0.0], [3.0, 4.0]])
        out, vjp = l2_normalize_rows_with_grad(f)
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        d = vjp(np.ones_like(f))
        np.testing.assert_array_equal(d[0], [0.0, 0.0])

    def test_vjp_matches_finite_differences(self, rng):
        f = rng.standard_normal((6, 5))
        w = rng.standard_normal((6, 5))
        out, vjp = l2_normalize_rows_with_grad(f)
        analytic = vjp(w)
        h = 1e-6
        flat = f.reshape(-1)
        for i in rng.choice(f.size, 10, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = (l2_normalize_rows(f) * w).sum()
            flat[i] = orig - h
            dn = (l2_normalize_rows(f) * w).sum()
            flat[i] = orig
            np.testing.assert_allclose(analytic.reshape(-1)[i], (up - dn) / (2 * h), atol=1e-6)


class TestInfoNce:
    def test_single_match_loss_zero(self, rng):
        batch = MatchBatch.from_features(_unit(rng, 1, 4), _unit(rng, 1, 4))
        res = info_nce(batch, 0.07)
        assert res.loss == 0.0
        np.testing.assert_array_equal(res.grad_f1, np.zeros((1, 4)))

    def test_two_match_identity_closed_form(self):
        f = np.eye(2)
        res = info_nce(MatchBatch.from_features(f, f.copy()), 1.0)
        np.testing.assert_allclose(res.loss, np.log(1 + np.exp(-1.0)), rtol=1e-12)
        np.testing.assert_allclose(res.loss, 0.313262, atol=1e-6)

    def test_identical_features_give_log_n(self, rng):
        row = _unit(rng, 1, 8)
        f = np.tile(row, (256, 1))
        res = info_nce(MatchBatch.from_features(f, f.copy()), 0.07)
        assert res.loss == pytest.approx(np.log(256.0), abs=1e-9)
        assert res.loss == pytest.approx(5.545177, abs=1e-6)

    def test_matches_direct_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(2, 8))
            f1, f2 = _unit(rng, n, d), _unit(rng, n, d)
            tau = float(rng.uniform(0.07, 1.0))
            got = info_nce(MatchBatch.from_features(f1, f2), tau).loss
            assert got == pytest.approx(oracle_info_nce_loss(f1, f2, tau), abs=1e-9)

    def test_row_permutation_invariance(self, rng):
        f1, f2 = _unit(rng, 20, 6), _unit(rng, 20, 6)
        base = info_nce(MatchBatch.from_features(f1, f2), 0.2).loss
        perm = rng.permutation(20)
        permuted = info_nce(MatchBatch.from_features(f1[perm], f2[perm]), 0.2).loss
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_logit_gradient_rows_sum_to_zero(self, rng):
        # grad_f1 = (d loss / d logits) @ f2 / tau: with every f2 row equal to
        # v, row k of grad_f1 is (row k's logit-gradient sum) * v / tau
        f1 = _unit(rng, 32, 5)
        f2 = np.tile(_unit(rng, 1, 5), (32, 1))
        res = info_nce(MatchBatch.from_features(f1, f2), 0.1)
        np.testing.assert_allclose(res.grad_f1, 0.0, atol=1e-12)

    def test_loss_vanishes_with_strong_alignment(self, rng):
        f = _unit(rng, 16, 8)
        res = info_nce(MatchBatch.from_features(f, f.copy()), 0.01)
        assert res.loss < 1e-6

    def test_non_finite_logits_rejected(self):
        f = np.full((2, 2), 1e300)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            info_nce(MatchBatch.from_features(f, f.copy()), 1e-300)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one match"):
            info_nce(MatchBatch.from_features(np.zeros((0, 4)), np.zeros((0, 4))), 0.1)


class TestHardestContrastive:
    def test_zero_loss_when_margins_satisfied(self):
        cfg = LossConfig(variant="hardest_contrastive")
        f = np.tile([[1.0, 0.0]], (4, 1))
        far = np.tile([[-1.0, 0.0]], (3, 1))  # distance 2 >= m_n
        res = hardest_contrastive(
            MatchBatch.from_features(f, f.copy()),
            NegativePool(far, np.full(3, -2, np.int64)),
            NegativePool(far.copy(), np.full(3, -2, np.int64)),
            cfg,
        )
        assert res.loss == 0.0
        assert not res.grad_f1.any() and not res.grad_neg1.any()

    def test_single_pair_closed_form(self):
        cfg = LossConfig(variant="hardest_contrastive")
        angle = 2 * np.arcsin(0.25)  # chord length 0.5 between unit vectors
        f1 = np.array([[1.0, 0.0]])
        f2 = np.array([[np.cos(angle), np.sin(angle)]])
        res = hardest_contrastive(MatchBatch.from_features(f1, f2), None, None, cfg)
        assert res.loss == pytest.approx(0.16, abs=1e-12)

    def test_non_negative_on_random_batches(self, rng):
        cfg = LossConfig(variant="hardest_contrastive")
        for _ in range(300):
            n = int(rng.integers(1, 12))
            p = int(rng.integers(1, 12))
            d = int(rng.integers(2, 6))
            res = hardest_contrastive(
                MatchBatch.from_features(_unit(rng, n, d), _unit(rng, n, d)),
                NegativePool(_unit(rng, p, d), np.full(p, -2, np.int64)),
                NegativePool(_unit(rng, p, d), np.full(p, -2, np.int64)),
                cfg,
            )
            assert res.loss >= 0.0

    def test_empty_pool_warns_and_keeps_positive_term(self, rng, caplog):
        cfg = LossConfig(variant="hardest_contrastive")
        batch = MatchBatch.from_features(_unit(rng, 3, 4), _unit(rng, 3, 4))
        with caplog.at_level(logging.WARNING, logger="pointpair.losses"):
            res = hardest_contrastive(batch, None, None, cfg)
        assert "empty negative pools" in caplog.text
        d = np.linalg.norm(batch.f1 - batch.f2, axis=1)
        assert res.loss == pytest.approx(float((np.maximum(d - 0.1, 0) ** 2).mean()), abs=1e-12)

    def test_partner_is_never_mined(self):
        cfg = LossConfig(variant="hardest_contrastive")
        f1 = np.array([[1.0, 0.0]])
        f2 = np.array([[0.8, 0.6]])
        other = np.array([0.5, np.sqrt(3) / 2])  # unit vector at distance 1.0 from f1
        # pool contains the partner itself (source 5) and the other candidate
        pool = NegativePool(np.array([f2[0], other]), np.array([5, 9]))
        batch = MatchBatch(f1, f2, np.array([0]), np.array([5]))
        res = hardest_contrastive(batch, pool, None, cfg)
        # partner (feature distance ~0.63, would be hardest) must be skipped
        expected = (np.linalg.norm(f1 - f2) - 0.1) ** 2 + 0.5 * (1.4 - 1.0) ** 2
        assert res.loss == pytest.approx(float(expected), abs=1e-12)

    def test_exclusion_radius_suppresses_false_negatives(self):
        cfg = LossConfig(variant="hardest_contrastive", neg_exclude_radius=0.2)
        f1 = np.array([[1.0, 0.0]])
        f2 = np.array([[1.0, 0.0]])
        twin = np.array([1.0, 0.0])               # feature distance 0 to the anchor
        other = np.array([0.5, np.sqrt(3) / 2])   # feature distance 1.0
        pool = NegativePool(np.array([twin, other]), np.array([8, 9]))
        positions2 = np.zeros((20, 3))
        positions2[7] = [0.0, 0.0, 0.0]  # the partner row
        positions2[8] = [0.1, 0.0, 0.0]  # twin sits 0.1 m from the partner -> excluded
        positions2[9] = [5.0, 0.0, 0.0]
        batch = MatchBatch(f1, f2, np.array([0]), np.array([7]))
        res = hardest_contrastive(batch, pool, None, cfg, np.zeros((1, 3)), positions2)
        # without exclusion the twin (hinge 1.4^2) would dominate
        assert res.loss == pytest.approx(0.5 * (1.4 - 1.0) ** 2, abs=1e-12)

    def test_pool_size_limits_enforced(self, rng):
        cfg = LossConfig(variant="hardest_contrastive", pos_sample=4, hardest_neg_sample=2)
        big = MatchBatch.from_features(_unit(rng, 8, 3), _unit(rng, 8, 3))
        with pytest.raises(ValueError):
            hardest_contrastive(big, None, None, cfg)

    def test_sample_negative_pool(self, rng):
        feats = rng.standard_normal((30, 4))
        pool = sample_negative_pool(feats, 10, rng)
        assert len(pool) == 10
        assert len(np.unique(pool.sources)) == 10
        np.testing.assert_array_equal(pool.features, feats[pool.sources])


class TestCollapseMetric:
    def test_identical_rows_give_zero(self):
        f = np.tile([[0.3, 0.4, 1.2]], (20, 1))
        assert collapse_metric(f) == 0.0

    def test_basis_vectors_closed_form(self):
        d = 6
        f = np.eye(d)
        # each normalized column has mean 1/d and variance 1/d - 1/d^2
        expected = np.sqrt(1.0 / d - 1.0 / d**2)
        assert collapse_metric(f) == pytest.approx(expected, rel=1e-12)

    def test_row_permutation_invariant(self, rng):
        f = rng.standard_normal((40, 5))
        perm = rng.permutation(40)
        assert collapse_metric(f[perm]) == pytest.approx(collapse_metric(f), abs=1e-15)


class TestMatchBatch:
    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            MatchBatch(rng.standard_normal((3, 2)), rng.standard_normal((4, 2)),
                       np.zeros(3, np.int64), np.zeros(3, np.int64))


def _info_nce_reference(batch, tau):
    """The out-of-place info_nce that the in-place one must reproduce bit for bit."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    n = len(batch)
    logits = batch.f1 @ batch.f2.T / tau
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits in info_nce")
    row_max = logits.max(axis=1, keepdims=True)
    z = np.exp(logits - row_max)
    denom = z.sum(axis=1, keepdims=True)
    log_softmax_diag = (logits - row_max - np.log(denom)).diagonal()
    loss = float(-log_softmax_diag.mean())
    logit_grad = (z / denom).copy()
    np.fill_diagonal(logit_grad, logit_grad.diagonal() - 1.0)
    logit_grad /= n
    return loss, logit_grad @ batch.f2 / tau, logit_grad.T @ batch.f1 / tau


def _info_nce_unblocked(batch, tau):
    """info_nce on one n x n buffer, as it was before the row blocks: the
    reference at sizes where `_info_nce_reference`'s temporaries would need
    several n x n buffers."""
    n = len(batch)
    z = batch.f1 @ batch.f2.T
    z /= tau
    row_max = z.max(axis=1, keepdims=True)
    shifted_diag = z.diagonal() - row_max[:, 0]
    z -= row_max
    np.exp(z, out=z)
    denom = z.sum(axis=1, keepdims=True)
    loss = float(-(shifted_diag - np.log(denom)[:, 0]).mean())
    z /= denom
    np.fill_diagonal(z, z.diagonal() - 1.0)
    z /= n
    return loss, z @ batch.f2 / tau, z.T @ batch.f1 / tau


class TestInfoNceInPlace:
    @pytest.mark.parametrize("n", [2, 255, 256, 1000, 1024])  # one row block: n * n <= 2^20
    @pytest.mark.parametrize("tau", [0.07, 0.5])
    def test_bitwise_equal_to_reference(self, rng, n, tau):
        batch = MatchBatch.from_features(_unit(rng, n, 32), _unit(rng, n, 32))
        res = info_nce(batch, tau)
        loss, grad_f1, grad_f2 = _info_nce_reference(batch, tau)
        assert res.loss == loss
        for got, want in ((res.grad_f1, grad_f1), (res.grad_f2, grad_f2)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1025, 2509, 4096])
    def test_row_blocks_agree_with_unblocked(self, rng, n):
        assert n * n > BLOCK_ELEMENTS
        batch = MatchBatch.from_features(_unit(rng, n, 32), _unit(rng, n, 32))
        res = info_nce(batch, 0.07)
        loss, grad_f1, grad_f2 = _info_nce_unblocked(batch, 0.07)
        assert res.loss == pytest.approx(loss, rel=1e-12)
        for got, want in ((res.grad_f1, grad_f1), (res.grad_f2, grad_f2)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_overflowing_logits_rejected_like_reference(self):
        batch = MatchBatch.from_features(np.full((2, 2), 1e300), np.full((2, 2), 1e300))
        for fn in (info_nce, _info_nce_reference):
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
                fn(batch, 1e-300)

    def test_peak_memory_is_row_blocks(self, rng):
        n = 4096  # an n x n buffer would be 128 MiB
        batch = MatchBatch.from_features(_unit(rng, n, 32), _unit(rng, n, 32))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = info_nce(batch, 0.07)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.grad_f1.shape == res.grad_f2.shape == (n, 32)
        assert peak < 32 * 2**20
