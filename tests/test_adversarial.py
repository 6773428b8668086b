import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import adversarial, nn
from conftest import CLIP_M, net_from_layers, random_net_and_batch


def linear_1d_net():
    """1 -> 2 linear net with logits z = (0, x): at label 0 the loss is ln(1 + e^x)."""
    return net_from_layers((np.array([[0.0], [1.0]]),), (np.zeros(2),))


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def enumerate_ascent_1d(x0, rho, alpha, steps):
    """Independent plain-python trace of linf PGD on l(x) = ln(1 + e^x), y = 0."""
    x = x0
    for _ in range(steps):
        g = sigmoid(x)  # d/dx ln(1 + e^x)
        sign = 1.0 if g > 0 else (-1.0 if g < 0 else 0.0)
        x = x + alpha * sign
        x = min(max(x, x0 - rho), x0 + rho)
    return x


class TestAttackSpec:
    def test_defaults(self):
        spec = adversarial.AttackSpec(norm="linf", radius=0.8)
        assert spec.steps == 8
        assert spec.alpha == pytest.approx(0.2)

    @pytest.mark.parametrize("radius", [0.0, 0.05, 0.1, 0.35, 0.8, 3.0])
    def test_step_size_is_a_quarter_of_the_radius(self, radius):
        for norm in adversarial.NORMS:
            assert adversarial.AttackSpec(norm=norm, radius=radius).alpha == radius / 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            adversarial.AttackSpec(norm="l1")
        with pytest.raises(ValueError):
            adversarial.AttackSpec(radius=-1.0)
        with pytest.raises(ValueError):
            adversarial.AttackSpec(steps=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, value):
        with pytest.raises(ValueError, match="radius"):
            adversarial.AttackSpec(radius=value)


class TestProject:
    def test_point_inside_unchanged(self):
        p = np.array([0.2, -0.1])
        for norm in ("linf", "l2"):
            assert np.array_equal(adversarial.project(np.zeros((1, 2)), p[None], norm, 1.0), [p])

    def test_linf_componentwise_clamp(self):
        out = adversarial.project(np.zeros((1, 2)), np.array([[2.0, -3.0]]), "linf", 1.0)
        assert np.array_equal(out, [[1.0, -1.0]])

    def test_l2_radial_scaling(self):
        out = adversarial.project(np.zeros((1, 2)), np.array([[3.0, 4.0]]), "l2", 1.0)
        assert out[0] == pytest.approx([0.6, 0.8], abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6).map(np.array),
           st.lists(st.floats(-50, 50), min_size=1, max_size=6).map(np.array),
           st.floats(0, 10), st.sampled_from(["linf", "l2"]))
    def test_result_always_feasible(self, center, point, rho, norm):
        k = min(len(center), len(point))
        center, point = center[:k], point[:k]
        out = adversarial.project(center[None], point[None], norm, rho)[0]
        d = out - center
        dist = np.abs(d).max() if norm == "linf" else np.linalg.norm(d)
        assert dist <= rho + 1e-9


class TestPgdAttack:
    def test_zero_radius_returns_input_exactly(self):
        net, X, y = random_net_and_batch(1)
        spec = adversarial.AttackSpec(radius=0.0)
        out = adversarial.pgd_batch(net, X, y, spec, CLIP_M)
        assert np.array_equal(out, X)
        assert out is not X  # caller may mutate the copy freely

    def test_zero_steps_returns_input(self):
        net, X, y = random_net_and_batch(2)
        out = adversarial.pgd_batch(net, X, y, adversarial.AttackSpec(radius=0.5, steps=0),
                                    CLIP_M)
        assert np.array_equal(out, X)

    def test_1d_trajectory_matches_enumeration(self):
        net = linear_1d_net()
        spec = adversarial.AttackSpec(norm="linf", radius=0.5, steps=8)
        got = adversarial.pgd_batch(net, np.array([[1.0]]), np.array([0]), spec, CLIP_M)[0]
        expected = enumerate_ascent_1d(1.0, 0.5, 0.125, 8)
        assert expected == 1.5  # saturates at the ball boundary
        assert got == pytest.approx([expected], abs=1e-12)

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("seed", range(4))
    def test_feasibility_on_random_nets(self, norm, seed):
        net, X, y = random_net_and_batch(seed + 10)
        rho = 0.3
        out = adversarial.pgd_batch(net, X, y, adversarial.AttackSpec(norm=norm, radius=rho),
                                    CLIP_M)
        d = out - X
        dist = np.abs(d).max(axis=1) if norm == "linf" else np.linalg.norm(d, axis=1)
        assert (dist <= rho + 1e-9).all()

    def test_monotone_inner_objective_on_convex_1d(self):
        # one ascent step on a convex loss can only increase it
        for x0 in (-2.0, -0.5, 0.7, 1.0, 3.0):
            net = linear_1d_net()
            spec = adversarial.AttackSpec(norm="linf", radius=0.4, steps=8)
            adv = adversarial.pgd_batch(net, np.array([[x0]]), np.array([0]), spec, CLIP_M)[0]
            clean_loss = nn.loss_batch(net, np.array([[x0]]), np.array([0]), CLIP_M)[1][0]
            adv_loss = nn.loss_batch(net, adv.reshape(1, 1), np.array([0]), CLIP_M)[1][0]
            assert adv_loss >= clean_loss - 1e-12

    def test_linf_sign_update_moves_exactly_alpha(self):
        # all-positive input gradient: one step moves every coordinate by +alpha
        net = net_from_layers((np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 0.5]]),),
                          (np.array([0.0, 1.0]),))
        x = np.array([[1.0, 1.0, 1.0]])  # logits (0, 6.5), y = 0: grad = p_1 * (2, 3, 0.5) > 0
        spec = adversarial.AttackSpec(norm="linf", radius=1.0, steps=1)  # alpha = 0.25
        out = adversarial.pgd_batch(net, x, np.array([0]), spec, CLIP_M)
        assert np.array_equal(out - x, np.full((1, 3), 0.25))

    def test_batched_equals_sequential(self):
        net, X, y = random_net_and_batch(30)
        spec = adversarial.AttackSpec(norm="l2", radius=0.4)
        batched = adversarial.pgd_batch(net, X, y, spec, CLIP_M)
        rows = [adversarial.pgd_batch(net, X[i:i + 1], y[i:i + 1], spec, CLIP_M)[0]
                for i in range(len(X))]
        assert batched == pytest.approx(np.stack(rows), rel=1e-12, abs=1e-14)


class TestAdvGrad:
    def test_zero_radius_collapses_to_grad_params_bitwise(self):
        net, X, y = random_net_and_batch(5)
        mean, norms, losses = adversarial.adv_grad(net, X, y, adversarial.AttackSpec(radius=0.0),
                                                   CLIP_M)
        mean0, norms0, _ = nn.grad_params(net, X, y, CLIP_M)
        assert np.array_equal(mean, mean0)
        assert np.array_equal(norms, norms0)
        assert np.array_equal(losses, nn.loss_batch(net, X, y, CLIP_M)[1])

    def test_duplicated_batch_mean_equals_single(self):
        net, X, y = random_net_and_batch(6)
        spec = adversarial.AttackSpec(norm="linf", radius=0.2)
        m1, _, _ = adversarial.adv_grad(net, X[:1], y[:1], spec, CLIP_M)
        m4, _, _ = adversarial.adv_grad(net, np.repeat(X[:1], 4, axis=0), np.repeat(y[:1], 4),
                                        spec, CLIP_M)
        assert m4 == pytest.approx(m1, rel=1e-12, abs=1e-15)

    def test_1d_convex_gradient_at_boundary(self):
        # PGD endpoint is x' = 1.5; dl/dz = softmax(0, 1.5) - e_0 = (-s, s) with
        # s = sigmoid(1.5), so dl/dW = (-s x', s x') and dl/db = (-s, s)
        net = linear_1d_net()
        spec = adversarial.AttackSpec(norm="linf", radius=0.5, steps=8)
        mean, _, losses = adversarial.adv_grad(net, np.array([[1.0]]), np.array([0]), spec, CLIP_M)
        s = sigmoid(1.5)
        assert mean == pytest.approx([-1.5 * s, 1.5 * s, -s, s], abs=1e-12)
        assert losses[0] == pytest.approx(math.log1p(math.exp(1.5)), abs=1e-12)
