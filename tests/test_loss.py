"""Tests for the training objectives and the cluster-average tracker."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset3cm import autodiff as ad
from openset3cm import loss as ls
from openset3cm.infotheory import class_aggregate, empirical_cmi, kl_divergence

LOG2 = 0.6931471805599453
LOG4 = 1.3862943611198906
CE_LOG3_LABEL0 = 0.2876820724517809  # -log(3/4)
KL_HALF_VS_QUARTERS = 0.14384103622589042


def ce_of(logits, labels):
    """The cross-entropy node of `total_objective` with the spread term off."""
    agg = ls.EmaAggregate.uniform(logits.shape[-1], 0.995)
    cfg = ls.TrainConfig(lambda_=0.0, unknown_label=0)
    return ls.total_objective(logits, labels, agg, cfg).ce


def softmax_rows(z):
    p = np.exp(z - z.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


class TestEmaAggregate:
    def test_uniform_start(self):
        agg = ls.EmaAggregate.uniform(4, 0.995)
        assert np.array_equal(agg.q_hat, np.full(4, 0.25))
        assert agg.beta == 0.995
        assert agg.seen_count == 0

    def test_uniform_needs_two_classes(self):
        with pytest.raises(ValueError):
            ls.EmaAggregate.uniform(1, 0.5)

    def test_rejects_beta_outside_unit_interval(self):
        for beta in (-0.1, 1.5):
            with pytest.raises(ValueError):
                ls.EmaAggregate(np.array([0.5, 0.5]), beta)

    def test_rejects_negative_seen_count(self):
        with pytest.raises(ValueError):
            ls.EmaAggregate(np.array([0.5, 0.5]), 0.9, -1)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            ls.EmaAggregate(np.array([0.5, 0.6]), 0.9)

    def test_immutable(self):
        agg = ls.EmaAggregate.uniform(3, 0.9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            agg.beta = 0.5


class TestEmaUpdate:
    def test_direct_arithmetic_example(self):
        agg = ls.EmaAggregate(np.array([0.5, 0.5]), 0.9)
        out = ls.ema_update(agg, [[1.0, 0.0]])
        assert out.q_hat[0] == 0.55
        assert out.q_hat[1] == 0.45
        assert out.seen_count == 1

    def test_beta_one_keeps_q_hat_bitwise(self):
        q0 = np.array([0.3, 0.25, 0.45])
        out = ls.ema_update(ls.EmaAggregate(q0, 1.0), [[0.1, 0.2, 0.7]])
        assert np.array_equal(out.q_hat, q0)

    def test_beta_zero_returns_batch_mean_bitwise(self):
        out = ls.ema_update(
            ls.EmaAggregate(np.array([0.3, 0.25, 0.45]), 0.0), [[0.1, 0.2, 0.7]]
        )
        assert np.array_equal(out.q_hat, np.array([0.1, 0.2, 0.7]))

    def test_batch_mean_is_the_update_target(self):
        agg = ls.EmaAggregate(np.array([0.8, 0.2]), 0.5)
        out = ls.ema_update(agg, [[1.0, 0.0], [0.0, 1.0]])
        assert abs(out.q_hat[0] - 0.65) <= 1e-15
        assert abs(out.q_hat[1] - 0.35) <= 1e-15
        assert out.seen_count == 2

    def test_single_vector_treated_as_one_row(self):
        agg = ls.EmaAggregate(np.array([0.5, 0.5]), 0.9)
        a = ls.ema_update(agg, [1.0, 0.0])
        b = ls.ema_update(agg, [[1.0, 0.0]])
        assert np.array_equal(a.q_hat, b.q_hat)
        assert a.seen_count == b.seen_count == 1

    def test_seen_count_accumulates(self):
        agg = ls.EmaAggregate.uniform(2, 0.9)
        agg = ls.ema_update(agg, [[0.6, 0.4], [0.1, 0.9]])
        agg = ls.ema_update(agg, [[0.2, 0.8]])
        assert agg.seen_count == 3

    def test_original_aggregate_untouched(self):
        q0 = np.array([0.5, 0.5])
        agg = ls.EmaAggregate(q0.copy(), 0.9)
        ls.ema_update(agg, [[1.0, 0.0]])
        assert np.array_equal(agg.q_hat, q0)
        assert agg.seen_count == 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ls.ema_update(ls.EmaAggregate.uniform(2, 0.9), np.zeros((0, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ls.ema_update(ls.EmaAggregate.uniform(3, 0.9), [[0.5, 0.5]])

    def test_simplex_preserved_over_10000_fuzzed_updates(self):
        rng = np.random.default_rng(20240811)
        agg = ls.EmaAggregate.uniform(6, 0.97)
        for _ in range(10_000):
            rows = rng.integers(1, 5)
            raw = rng.random((rows, 6)) + 1e-6
            batch = raw / raw.sum(axis=1, keepdims=True)
            agg = ls.ema_update(agg, batch)
            assert agg.q_hat.min() >= 0.0
            assert abs(math.fsum(agg.q_hat) - 1.0) <= 1e-9
        assert agg.seen_count > 10_000

    def test_geometric_convergence_beta_0995_exact(self):
        # constant stream: every step must sit on or under the beta**t curve
        p = np.full(4, 0.25)
        agg = ls.EmaAggregate(np.array([1.0, 0.0, 0.0, 0.0]), 0.995)
        d0 = np.max(np.abs(agg.q_hat - p))
        for t in range(1, 201):
            agg = ls.ema_update(agg, [p])
            dist = np.max(np.abs(agg.q_hat - p))
            assert dist <= 0.995**t * d0

    def test_geometric_convergence_beta_09(self):
        # rate constant is exactly beta**t; the additive 1e-13 covers only
        # accumulated half-ulp rounding (observed overshoot below 3e-16),
        # three orders under the smallest bound hit in this loop (3.7e-10)
        p = np.array([0.5, 0.5])
        agg = ls.EmaAggregate(np.array([1.0, 0.0]), 0.9)
        d0 = np.max(np.abs(agg.q_hat - p))
        for t in range(1, 201):
            agg = ls.ema_update(agg, [p])
            dist = np.max(np.abs(agg.q_hat - p))
            assert dist <= 0.9**t * d0 + 1e-13

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_update_stays_in_componentwise_hull(self, data):
        dim = data.draw(st.integers(2, 6))
        raw_q = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=dim, max_size=dim)
        )
        raw_p = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=dim, max_size=dim)
        )
        beta = data.draw(st.floats(0.0, 1.0))
        q = np.array(raw_q) / math.fsum(raw_q)
        p = np.array(raw_p) / math.fsum(raw_p)
        out = ls.ema_update(ls.EmaAggregate(q, beta), [p])
        lo = np.minimum(q, p) - 1e-12
        hi = np.maximum(q, p) + 1e-12
        assert np.all(out.q_hat >= lo)
        assert np.all(out.q_hat <= hi)


class TestCeLoss:
    def test_frozen_two_class_example(self):
        tape = ad.Tape()
        node = ce_of(tape.leaf([[math.log(3.0), 0.0]]), [0])
        assert abs(node.item() - CE_LOG3_LABEL0) <= 1e-15

    def test_uniform_logits_give_log_c(self):
        tape = ad.Tape()
        node = ce_of(tape.leaf(np.zeros((3, 4))), [0, 2, 3])
        assert abs(node.item() - LOG4) <= 1e-12

    def test_confident_correct_prediction_vanishes(self):
        logits = np.array([[60.0, -60.0, -60.0], [-60.0, 60.0, -60.0]])
        tape = ad.Tape()
        node = ce_of(tape.leaf(logits), [0, 1])
        assert node.item() <= 1e-12

    def test_label_out_of_range_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ce_of(tape.leaf(np.zeros((2, 3))), [0, 3])

    def test_rank_one_logits_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ce_of(tape.leaf([1.0, 2.0]), [0])

    def test_gradient_is_probs_minus_onehot_over_n(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        tape = ad.Tape()
        leaf = tape.leaf(z)
        node = ce_of(leaf, labels)
        ad.backward(tape, node)
        expected = softmax_rows(z)
        expected[np.arange(5), labels] -= 1.0
        expected /= 5.0
        assert np.max(np.abs(leaf.grad.reshape(5, 7) - expected)) <= 1e-9


class TestL3cm:
    def test_rows_equal_to_aggregate_give_zero(self):
        q = np.array([0.2, 0.3, 0.5])
        tape = ad.Tape()
        node = ls.l3cm(tape.leaf(np.tile(q, (4, 1))), ls.EmaAggregate(q, 0.995))
        assert abs(node.item()) <= 1e-15

    def test_opposed_corners_give_log2(self):
        tape = ad.Tape()
        node = ls.l3cm(
            tape.leaf([[1.0, 0.0], [0.0, 1.0]]),
            ls.EmaAggregate(np.array([0.5, 0.5]), 0.995),
        )
        assert abs(node.item() - LOG2) <= 1e-15

    def test_single_row_matches_kl_oracle(self):
        tape = ad.Tape()
        node = ls.l3cm(
            tape.leaf([[0.5, 0.5]]), ls.EmaAggregate(np.array([0.25, 0.75]), 0.995)
        )
        assert abs(node.item() - KL_HALF_VS_QUARTERS) <= 1e-12

    def test_matches_mean_of_kl_divergence(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = rng.integers(1, 7)
            c = rng.integers(2, 9)
            raw = rng.random((m, c)) + 0.05
            probs = raw / raw.sum(axis=1, keepdims=True)
            raw_q = rng.random(c) + 0.05
            q = raw_q / raw_q.sum()
            tape = ad.Tape()
            node = ls.l3cm(tape.leaf(probs), ls.EmaAggregate(q, 0.9))
            oracle = math.fsum(kl_divergence(row, q) for row in probs) / m
            assert abs(node.item() - oracle) <= 1e-12

    def test_matches_single_group_empirical_cmi(self):
        rng = np.random.default_rng(7)
        raw = rng.random((6, 5)) + 0.05
        probs = raw / raw.sum(axis=1, keepdims=True)
        q = class_aggregate(probs)
        tape = ad.Tape()
        node = ls.l3cm(tape.leaf(probs), ls.EmaAggregate(q, 0.995))
        assert abs(node.item() - empirical_cmi({0: probs})) <= 1e-12

    def test_empty_batch_signals_term_inactive(self):
        tape = ad.Tape()
        with pytest.raises(ValueError, match="no unknown-cluster points"):
            ls.l3cm(tape.leaf(np.zeros((0, 3))), ls.EmaAggregate.uniform(3, 0.9))

    def test_dimension_mismatch_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ls.l3cm(tape.leaf([[0.5, 0.5]]), ls.EmaAggregate.uniform(3, 0.9))

    def test_rank_one_probs_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ls.l3cm(tape.leaf([0.5, 0.5]), ls.EmaAggregate.uniform(2, 0.9))

    def test_aggregate_gets_no_gradient(self):
        q = np.array([0.25, 0.75])
        agg = ls.EmaAggregate(q.copy(), 0.995)
        tape = ad.Tape()
        leaf = tape.leaf([[0.7, 0.3], [0.4, 0.6]])
        ad.backward(tape, ls.l3cm(leaf, agg))
        assert np.array_equal(agg.q_hat, q)
        # analytic derivative of mean_i sum_c p log(p / q): (log p - log q + 1) / m
        p = leaf.array
        expected = (np.log(p) - np.log(q) + 1.0) / 2.0
        assert np.max(np.abs(leaf.grad.reshape(2, 2) - expected)) <= 1e-9

    def test_gradient_check_through_softmax(self):
        rng = np.random.default_rng(5)
        agg = ls.EmaAggregate(np.array([0.2, 0.5, 0.3]), 0.995)

        def build(tape, leaf):
            probs = ad.softmax(ad.reshape(leaf, (2, 3)), axis=1)
            return ls.l3cm(probs, agg)

        assert ad.gradient_check(build, rng.normal(size=6)) <= 1e-6


class TestTrainConfig:
    def test_defaults(self):
        cfg = ls.TrainConfig(unknown_label=8)
        assert cfg.lambda_ == 0.5
        assert cfg.beta == 0.995
        assert cfg.sign_mode == "maximize_cmi"
        assert cfg.lr == 0.01
        assert cfg.sign == -1.0

    def test_literal_mode_flips_sign(self):
        cfg = ls.TrainConfig(sign_mode="literal_eq8", unknown_label=2)
        assert cfg.sign == 1.0

    def test_rejects_bad_fields(self):
        good = dict(unknown_label=2)
        for bad in (
            dict(lambda_=-0.1),
            dict(beta=1.5),
            dict(sign_mode="subtract"),
            dict(lr=0.0),
            dict(epochs=-1),
            dict(batch=0),
            dict(unknown_label=-3),
        ):
            with pytest.raises(ValueError):
                ls.TrainConfig(**{**good, **bad})


class TestTotalObjective:
    logits = [[40.0, -40.0], [-40.0, 40.0], [2.0, 1.0]]
    labels = [1, 1, 0]  # rows 0 and 1 sit in the unknown cluster

    def agg(self):
        return ls.EmaAggregate(np.array([0.5, 0.5]), 0.995)

    def test_lambda_zero_total_is_ce_node(self):
        cfg = ls.TrainConfig(lambda_=0.0, unknown_label=1)
        tape = ad.Tape()
        obj = ls.total_objective(tape.leaf(self.logits), self.labels, self.agg(), cfg)
        assert obj.total is obj.ce
        assert obj.l3cm_term is None

    def test_lambda_zero_value_equals_ce_loss_bitwise(self):
        cfg = ls.TrainConfig(lambda_=0.0, unknown_label=1)
        tape = ad.Tape()
        obj = ls.total_objective(tape.leaf(self.logits), self.labels, self.agg(), cfg)
        # the cross-entropy node does not depend on the term's weight
        cfg_on = ls.TrainConfig(lambda_=0.5, unknown_label=1)
        tape2 = ad.Tape()
        ce = ls.total_objective(tape2.leaf(self.logits), self.labels, self.agg(), cfg_on).ce
        assert obj.total.item() == ce.item()

    def test_no_unknown_points_total_is_ce_node(self):
        cfg = ls.TrainConfig(lambda_=0.5, unknown_label=1)
        tape = ad.Tape()
        obj = ls.total_objective(tape.leaf(self.logits), [0, 0, 0], self.agg(), cfg)
        assert obj.total is obj.ce
        assert obj.l3cm_term is None
        assert obj.unknown_rows.size == 0

    def test_unknown_rows_reported(self):
        cfg = ls.TrainConfig(lambda_=0.5, unknown_label=1)
        tape = ad.Tape()
        obj = ls.total_objective(tape.leaf(self.logits), self.labels, self.agg(), cfg)
        assert obj.unknown_rows.tolist() == [0, 1]

    def test_recomposition_exact_both_modes(self):
        for mode in ("maximize_cmi", "literal_eq8"):
            cfg = ls.TrainConfig(lambda_=0.3, sign_mode=mode, unknown_label=1)
            tape = ad.Tape()
            obj = ls.total_objective(
                tape.leaf(self.logits), self.labels, self.agg(), cfg
            )
            recomposed = obj.ce.item() + cfg.sign * 0.3 * obj.l3cm_term.item()
            assert obj.total.item() == recomposed

    def test_spread_term_value_at_corners(self):
        # rows 0 and 1 predict opposite corners, so the term is nearly log 2
        cfg = ls.TrainConfig(lambda_=0.5, unknown_label=1)
        tape = ad.Tape()
        obj = ls.total_objective(tape.leaf(self.logits), self.labels, self.agg(), cfg)
        assert abs(obj.l3cm_term.item() - LOG2) <= 1e-9
        assert abs(obj.total.item() - (obj.ce.item() - 0.5 * LOG2)) <= 1e-9

    def test_aggregate_dimension_mismatch_rejected(self):
        cfg = ls.TrainConfig(lambda_=0.5, unknown_label=1)
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ls.total_objective(
                tape.leaf(self.logits), self.labels, ls.EmaAggregate.uniform(3, 0.9), cfg
            )

    def test_ema_feed_from_objective(self):
        cfg = ls.TrainConfig(lambda_=0.5, unknown_label=1)
        tape = ad.Tape()
        obj = ls.total_objective(tape.leaf(self.logits), self.labels, self.agg(), cfg)
        out = ls.ema_update(self.agg(), obj.probs.array[obj.unknown_rows])
        assert out.seen_count == 2
        assert abs(math.fsum(out.q_hat) - 1.0) <= 1e-9

    def test_gradient_check_both_sign_modes(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=12)
        labels = np.array([1, 0, 1, 2])
        agg = ls.EmaAggregate(np.array([0.2, 0.5, 0.3]), 0.995)
        for mode in ("maximize_cmi", "literal_eq8"):
            cfg = ls.TrainConfig(lambda_=0.7, sign_mode=mode, unknown_label=1)

            def build(tape, leaf, cfg=cfg):
                logits = ad.reshape(leaf, (4, 3))
                return ls.total_objective(logits, labels, agg, cfg).total

            assert ad.gradient_check(build, base) <= 1e-6
