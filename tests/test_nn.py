import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import nn
from conftest import (assert_grad_close, fd_grad_inputs, fd_grad_params, per_example_grads,
                      random_net_and_batch)


def identity_net(d):
    return nn.DenseNet((np.eye(d),), (np.zeros(d),), "relu")


class TestForward:
    def test_identity_single_layer(self):
        net = identity_net(2)
        logits = nn.forward(net, np.array([[1.0, 2.0]]))
        assert np.array_equal(logits, [[1.0, 2.0]])

    def test_zero_weights_give_bias(self):
        b = np.array([0.5, -1.5, 2.0])
        net = nn.DenseNet((np.zeros((3, 2)),), (b,), "relu")
        logits = nn.forward(net, np.random.default_rng(0).normal(size=(4, 2)))
        assert np.array_equal(logits, np.tile(b, (4, 1)))

    def test_two_layer_hand_evaluation(self):
        # independent straight-line evaluation with plain python floats
        w1 = np.array([[1.0, -2.0], [0.5, 0.25]])
        b1 = np.array([0.1, -0.3])
        w2 = np.array([[2.0, -1.0]])
        b2 = np.array([0.05])
        net = nn.DenseNet((w1, w2), (b1, b2), "relu")
        x = [1.0, 0.0]
        z1 = [1.0 * x[0] + -2.0 * x[1] + 0.1, 0.5 * x[0] + 0.25 * x[1] + -0.3]
        a1 = [max(z1[0], 0.0), max(z1[1], 0.0)]
        expected = 2.0 * a1[0] + -1.0 * a1[1] + 0.05
        logits = nn.forward(net, np.array([x]))
        assert logits.shape == (1, 1)
        assert logits[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            nn.forward(identity_net(2), np.zeros((1, 3)))

    def test_deterministic_bitwise(self):
        net, X, _ = random_net_and_batch(3)
        a = nn.forward(net, X)
        b = nn.forward(net, X)
        assert np.array_equal(a, b)


class TestDenseNetInvariants:
    def test_chained_dimensions_enforced(self):
        with pytest.raises(ValueError, match="previous output"):
            nn.DenseNet((np.zeros((3, 2)), np.zeros((2, 4))),
                        (np.zeros(3), np.zeros(2)), "relu")

    def test_finite_parameters_enforced(self):
        with pytest.raises(ValueError, match="non-finite"):
            nn.DenseNet((np.array([[np.inf]]),), (np.zeros(1),), "relu")

    def test_flatten_ordering_row_major_weights_then_biases(self):
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b1 = np.array([5.0, 6.0])
        w2 = np.array([[7.0, 8.0]])
        b2 = np.array([9.0])
        net = nn.DenseNet((w1, w2), (b1, b2), "tanh")
        assert net.flatten().tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_with_params_round_trip(self):
        net, _, _ = random_net_and_batch(7)
        flat = net.flatten()
        again = net.with_params(flat)
        assert np.array_equal(again.flatten(), flat)
        assert again.layer_widths == net.layer_widths

    def test_num_params_matches_flatten(self):
        net, _, _ = random_net_and_batch(8, widths=(3, 4, 4, 2))
        assert net.num_params == len(net.flatten()) == 46  # (3*4 + 4) + (4*4 + 4) + (4*2 + 2)
        assert nn.param_count(net.layer_widths) == 46


class TestLossBatch:
    def test_uniform_two_class_is_ln2(self):
        net = nn.DenseNet((np.zeros((2, 3)),), (np.zeros(2),), "relu")
        mean, per = nn.loss_batch(net, (np.ones((5, 3)), np.zeros(5, dtype=int)))
        assert per == pytest.approx(np.full(5, math.log(2.0)), abs=1e-12)
        assert mean == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clip_boundary(self):
        net = nn.DenseNet((np.zeros((2, 3)),), (np.zeros(2),), "relu")
        spec = nn.LossSpec(clip_m=0.5)  # raw loss is ln 2 > 0.5
        mean, per = nn.loss_batch(net, (np.ones((2, 3)), np.zeros(2, dtype=int)), spec)
        assert np.array_equal(per, [0.5, 0.5])
        assert mean == 0.5

    def test_three_class_hand_softmax(self):
        # independent softmax/log arithmetic in plain python
        logits = [0.7, -0.2, 1.1]
        label = 2
        z = [math.exp(v) for v in logits]
        expected = -math.log(z[label] / sum(z))
        net = nn.DenseNet((np.zeros((3, 1)),), (np.array(logits),), "relu")
        _, per = nn.loss_batch(net, (np.zeros((1, 1)), np.array([label])))
        assert per[0] == pytest.approx(expected, rel=1e-14)

    def test_label_out_of_range_rejected(self):
        net = identity_net(2)
        with pytest.raises(ValueError, match="range"):
            nn.loss_batch(net, (np.ones((1, 2)), np.array([2])))
        with pytest.raises(ValueError, match="range"):
            nn.loss_batch(net, (np.ones((1, 2)), np.array([-1])))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-40, 40), min_size=2, max_size=6),
           st.floats(0.01, 20), st.integers(0, 5))
    def test_loss_bounded_by_clip(self, logits, clip_m, label_raw):
        label = label_raw % len(logits)
        net = nn.DenseNet((np.zeros((len(logits), 1)),), (np.array(logits),), "relu")
        _, per = nn.loss_batch(net, (np.zeros((1, 1)), np.array([label])),
                               nn.LossSpec(clip_m=clip_m))
        assert 0.0 <= per[0] <= clip_m


class TestGradParams:
    def test_zero_gradient_at_constructed_minimum(self):
        # all softmax mass on the true class, loss far inside the clip
        net = nn.DenseNet((np.zeros((2, 2)),), (np.array([60.0, 0.0]),), "relu")
        mean, _, _ = nn.grad_params(net, (np.ones((3, 2)), np.zeros(3, dtype=int)))
        assert np.linalg.norm(mean) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, seed, activation):
        net, X, y = random_net_and_batch(seed, activation)
        spec = nn.LossSpec()
        mean, _, _ = nn.grad_params(net, (X, y), spec)
        assert_grad_close(mean, fd_grad_params(net, X, y, spec))

    def test_duplicated_batch_equals_single_example(self):
        net, X, y = random_net_and_batch(21)
        x1, y1 = X[:1], y[:1]
        single, _, _ = nn.grad_params(net, (x1, y1))
        dup, _, _ = nn.grad_params(net, (np.repeat(x1, 4, axis=0), np.repeat(y1, 4)))
        per = per_example_grads(net, np.repeat(x1, 4, axis=0), np.repeat(y1, 4))
        # every duplicate row is bitwise identical; the mean can differ from
        # the 1-row batch only by BLAS kernel choice, i.e. the last ulp
        assert all(np.array_equal(per[0], row) for row in per)
        assert dup == pytest.approx(single, rel=1e-12, abs=1e-15)

    def test_mean_is_componentwise_mean_of_per_example(self):
        net, X, y = random_net_and_batch(22)
        mean, _, _ = nn.grad_params(net, (X, y))
        per = per_example_grads(net, X, y)
        # aggregated matmuls sum in a different order than the row mean
        assert mean == pytest.approx(per.mean(axis=0), rel=1e-12, abs=1e-15)
        assert per.shape == (len(X), net.num_params)

    def test_clip_active_zeroes_that_example(self):
        net = nn.DenseNet((np.zeros((2, 2)),), (np.zeros(2),), "relu")
        spec = nn.LossSpec(clip_m=0.5)  # ln 2 > 0.5 for every example
        X, y = np.ones((3, 2)), np.zeros(3, dtype=int)
        mean, norms, _ = nn.grad_params(net, (X, y), spec)
        per = per_example_grads(net, X, y, spec)
        assert np.array_equal(per, np.zeros_like(per))
        assert np.array_equal(norms, np.zeros_like(norms))
        assert np.array_equal(mean, np.zeros_like(mean))

    def test_norm_shortcut_matches_materialized_gradients(self):
        net, X, y = random_net_and_batch(23, widths=(5, 7, 4), n=9)
        per = per_example_grads(net, X, y)
        _, fast, _ = nn.grad_params(net, (X, y))
        assert fast == pytest.approx(np.linalg.norm(per, axis=1), rel=1e-12)

    def test_losses_are_the_clipped_per_example_losses(self):
        net, X, y = random_net_and_batch(25)
        spec = nn.LossSpec(clip_m=1.0)
        _, _, losses = nn.grad_params(net, (X, y), spec)
        assert np.array_equal(losses, nn.loss_batch(net, (X, y), spec)[1])

    def test_aggregated_mean_grad_matches(self):
        net, X, y = random_net_and_batch(24)
        mean, _, _ = nn.grad_params(net, (X, y))
        assert np.array_equal(nn.mean_grad(net, (X, y)), mean)


class TestGradInput:
    def test_zero_first_layer_kills_input_path(self):
        net = nn.DenseNet((np.zeros((3, 2)), np.ones((2, 3))),
                          (np.ones(3), np.zeros(2)), "relu")
        g = nn.grad_inputs(net, np.array([[1.0, -2.0]]), np.array([0]))[0]
        assert np.array_equal(g, [0.0, 0.0])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, seed, activation):
        net, X, y = random_net_and_batch(seed + 40, activation)
        spec = nn.LossSpec()
        g = nn.grad_inputs(net, X, y, spec)
        assert_grad_close(g, fd_grad_inputs(net, X, y, spec))

    def test_linear_squared_loss_hand_calculus(self):
        # h(x) = x, squared loss, y = 0, x = 1: d/dx (x - 0)^2 = 2
        net = nn.DenseNet((np.array([[1.0]]),), (np.zeros(1),), "relu")
        g = nn.grad_inputs(net, np.array([[1.0]]), np.array([0]), nn.LossSpec(kind="squared"))[0]
        assert g == pytest.approx([2.0], abs=1e-15)
