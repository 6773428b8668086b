import dataclasses
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
        spec = adversarial.AttackSpec(radius=0.8)
        assert adversarial.STEPS == 8
        assert spec.alpha == pytest.approx(0.2)

    def test_the_spec_has_the_one_field_radius(self):
        assert [f.name for f in dataclasses.fields(adversarial.AttackSpec)] == ["radius"]
        assert not hasattr(adversarial, "NORMS")

    @pytest.mark.parametrize("radius", [0.0, 0.05, 0.1, 0.35, 0.8, 3.0])
    def test_step_size_is_a_quarter_of_the_radius(self, radius):
        assert adversarial.AttackSpec(radius=radius).alpha == radius / 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            adversarial.AttackSpec(radius=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, value):
        with pytest.raises(ValueError, match="radius"):
            adversarial.AttackSpec(radius=value)


class TestProject:
    def test_point_inside_unchanged(self):
        p = np.array([0.2, -0.1])
        assert np.array_equal(adversarial.project(np.zeros((1, 2)), p[None], 1.0), [p])

    def test_linf_componentwise_clamp(self):
        out = adversarial.project(np.zeros((1, 2)), np.array([[2.0, -3.0]]), 1.0)
        assert np.array_equal(out, [[1.0, -1.0]])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6).map(np.array),
           st.lists(st.floats(-50, 50), min_size=1, max_size=6).map(np.array),
           st.floats(0, 10))
    def test_result_always_feasible(self, center, point, rho):
        k = min(len(center), len(point))
        center, point = center[:k], point[:k]
        out = adversarial.project(center[None], point[None], rho)[0]
        assert np.abs(out - center).max() <= rho + 1e-9


class TestPgdAttack:
    def test_zero_radius_returns_input_exactly(self):
        net, X, y = random_net_and_batch(1)
        spec = adversarial.AttackSpec(radius=0.0)
        out = adversarial.pgd_batch(net, X, y, spec, CLIP_M)
        assert np.array_equal(out, X)
        assert out is not X  # caller may mutate the copy freely

    @pytest.mark.parametrize("rows", [1, nn.ROW_BLOCK])
    def test_one_block_takes_eight_input_gradients(self, monkeypatch, rows):
        # the K that perfbench/test_smoke.py's PGD_STEPS assumes
        calls = []
        grad_inputs = nn.grad_inputs
        monkeypatch.setattr(nn, "grad_inputs", lambda *a: calls.append(1) or grad_inputs(*a))
        net, X, y = random_net_and_batch(3)
        X, y = np.resize(X, (rows, X.shape[1])), np.resize(y, rows)
        adversarial.pgd_batch(net, X, y, adversarial.AttackSpec(radius=0.1), CLIP_M)
        assert len(calls) == adversarial.STEPS == 8

    def test_zero_radius_takes_no_input_gradient(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nn, "grad_inputs", lambda *a: calls.append(1))
        net, X, y = random_net_and_batch(4)
        adversarial.pgd_batch(net, X, y, adversarial.AttackSpec(radius=0.0), CLIP_M)
        assert calls == []

    def test_each_block_takes_all_steps_before_the_next(self, monkeypatch):
        # ROW_BLOCK + 3 rows: every step on the full block, then every step on the 3
        rows_seen = []
        grad_inputs = nn.grad_inputs
        monkeypatch.setattr(
            nn, "grad_inputs",
            lambda net, x, y, m: rows_seen.append(len(x)) or grad_inputs(net, x, y, m))
        net, X, y = random_net_and_batch(5)
        n = nn.ROW_BLOCK + 3
        X, y = np.resize(X, (n, X.shape[1])), np.resize(y, n)
        spec = adversarial.AttackSpec(radius=0.1)
        out = adversarial.pgd_batch(net, X, y, spec, CLIP_M)
        assert rows_seen == [nn.ROW_BLOCK] * adversarial.STEPS + [3] * adversarial.STEPS
        tail = adversarial.pgd_batch(net, X[-3:], y[-3:], spec, CLIP_M)
        assert np.array_equal(out[-3:], tail)

    def test_1d_trajectory_matches_enumeration(self):
        net = linear_1d_net()
        spec = adversarial.AttackSpec(radius=0.5)
        got = adversarial.pgd_batch(net, np.array([[1.0]]), np.array([0]), spec, CLIP_M)[0]
        expected = enumerate_ascent_1d(1.0, 0.5, 0.125, 8)
        assert expected == 1.5  # saturates at the ball boundary
        assert got == pytest.approx([expected], abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_feasibility_on_random_nets(self, seed):
        net, X, y = random_net_and_batch(seed + 10)
        rho = 0.3
        out = adversarial.pgd_batch(net, X, y, adversarial.AttackSpec(radius=rho), CLIP_M)
        assert (np.abs(out - X).max(axis=1) <= rho + 1e-9).all()

    def test_monotone_inner_objective_on_convex_1d(self):
        # one ascent step on a convex loss can only increase it
        for x0 in (-2.0, -0.5, 0.7, 1.0, 3.0):
            net = linear_1d_net()
            spec = adversarial.AttackSpec(radius=0.4)
            adv = adversarial.pgd_batch(net, np.array([[x0]]), np.array([0]), spec, CLIP_M)[0]
            clean_loss = nn.loss_batch(net, np.array([[x0]]), np.array([0]), CLIP_M)[1][0]
            adv_loss = nn.loss_batch(net, adv.reshape(1, 1), np.array([0]), CLIP_M)[1][0]
            assert adv_loss >= clean_loss - 1e-12

    def test_linf_sign_update_moves_exactly_alpha(self, monkeypatch):
        # all-positive input gradient: one step moves every coordinate by +alpha
        monkeypatch.setattr(adversarial, "STEPS", 1)
        net = net_from_layers((np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 0.5]]),),
                          (np.array([0.0, 1.0]),))
        x = np.array([[1.0, 1.0, 1.0]])  # logits (0, 6.5), y = 0: grad = p_1 * (2, 3, 0.5) > 0
        spec = adversarial.AttackSpec(radius=1.0)  # alpha = 0.25
        out = adversarial.pgd_batch(net, x, np.array([0]), spec, CLIP_M)
        assert np.array_equal(out - x, np.full((1, 3), 0.25))

    def test_batched_equals_sequential(self):
        net, X, y = random_net_and_batch(30)
        spec = adversarial.AttackSpec(radius=0.4)
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
        spec = adversarial.AttackSpec(radius=0.2)
        m1, _, _ = adversarial.adv_grad(net, X[:1], y[:1], spec, CLIP_M)
        m4, _, _ = adversarial.adv_grad(net, np.repeat(X[:1], 4, axis=0), np.repeat(y[:1], 4),
                                        spec, CLIP_M)
        assert m4 == pytest.approx(m1, rel=1e-12, abs=1e-15)

    def test_1d_convex_gradient_at_boundary(self):
        # PGD endpoint is x' = 1.5; dl/dz = softmax(0, 1.5) - e_0 = (-s, s) with
        # s = sigmoid(1.5), so dl/dW = (-s x', s x') and dl/db = (-s, s)
        net = linear_1d_net()
        spec = adversarial.AttackSpec(radius=0.5)
        mean, _, losses = adversarial.adv_grad(net, np.array([[1.0]]), np.array([0]), spec, CLIP_M)
        s = sigmoid(1.5)
        assert mean == pytest.approx([-1.5 * s, 1.5 * s, -s, s], abs=1e-12)
        assert losses[0] == pytest.approx(math.log1p(math.exp(1.5)), abs=1e-12)
