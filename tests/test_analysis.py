import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import analysis, nn
from advlab.adversarial import AttackSpec
from advlab.data import LabeledSet, split, synth_blobs
from conftest import CLIP_M


def horner(coeffs, u):
    """Ascending-power polynomial ``coeffs`` at ``u``, by the plain Horner scheme."""
    out = np.zeros_like(u)
    for c in reversed(coeffs):
        out = out * u + c
    return out


def evaluate(fit, xs):
    """The fit at ``xs``, in the centered-and-scaled basis it was solved in."""
    return horner(fit.scaled_coefficients, (np.asarray(xs, dtype=np.float64) - fit.x_center)
                  / fit.x_scale)


class TestPolyfit:
    def test_exact_line(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        fit = analysis.polyfit(xs, 2 * xs + 1, degree=1)
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-9)

    def test_constant_data(self):
        xs = np.linspace(-1, 1, 7)
        fit = analysis.polyfit(xs, np.full(7, 3.25), degree=2)
        assert fit.coefficients[0] == pytest.approx(3.25, abs=1e-9)
        assert abs(fit.coefficients[1]) < 1e-9
        assert abs(fit.coefficients[2]) < 1e-9

    def test_quartic_reproduced_at_sample_points(self):
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        ys = xs ** 4
        fit = analysis.polyfit(xs, ys, degree=4)
        assert evaluate(fit, xs) == pytest.approx(ys, abs=1e-6)

    def test_too_few_distinct_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            analysis.polyfit([1.0, 1.0, 2.0], [0.0, 0.0, 1.0], degree=2)

    def test_scaling_parameters_returned(self):
        xs = np.array([10.0, 20.0, 30.0, 40.0])
        fit = analysis.polyfit(xs, xs ** 2, degree=2)
        assert fit.x_center == pytest.approx(25.0)
        assert fit.x_scale == pytest.approx(15.0)

    def test_residual_local_optimality(self):
        # perturbing any raw coefficient never reduces the SSR; evaluate both
        # the fit and its perturbations with the same plain Horner scheme
        rng = np.random.default_rng(2)
        xs = np.linspace(0, 2, 15)
        ys = 0.3 * xs ** 3 - xs + 0.2 + rng.normal(scale=0.05, size=15)
        fit = analysis.polyfit(xs, ys, degree=3)
        best = float(np.sum((ys - horner(fit.coefficients, xs)) ** 2))
        for i in range(4):
            for delta in (-1e-3, 1e-3):
                coeffs = list(fit.coefficients)
                coeffs[i] += delta
                assert float(np.sum((ys - horner(coeffs, xs)) ** 2)) >= best - 1e-12

    def test_conditioning_on_offset_scale(self):
        # an offset that visibly degrades a raw-basis normal-equation solve;
        # the centered fit still reproduces the data
        xs = np.linspace(100.0, 101.0, 9)
        ys = (xs - 100.0) ** 4
        fit = analysis.polyfit(xs, ys, degree=4)
        assert evaluate(fit, xs) == pytest.approx(ys, abs=1e-6)
        # raw coefficients agree with the exact binomial expansion of (x-100)^4
        expected = [np.polynomial.polynomial.polypow([-100.0, 1.0], 4)[k] for k in range(5)]
        assert fit.coefficients == pytest.approx(expected, rel=1e-5)


class TestSpearman:
    def test_monotone_increasing_is_one(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert analysis.spearman(xs, [0.1, 0.3, 0.9, 2.7]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert analysis.spearman(xs, [2.7, 0.9, 0.3, 0.1]) == pytest.approx(-1.0)

    def test_hand_rank_computation(self):
        assert analysis.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_ties_use_average_ranks(self):
        # ranks of ys: [1.5, 1.5, 3]; hand Pearson of ranks vs [1, 2, 3]
        got = analysis.spearman([1.0, 2.0, 3.0], [5.0, 5.0, 7.0])
        rx = np.array([1.0, 2.0, 3.0])
        ry = np.array([1.5, 1.5, 3.0])
        want = np.corrcoef(rx, ry)[0, 1]
        assert got == pytest.approx(want, rel=1e-12)

    def test_constant_vector_undefined(self):
        with pytest.raises(ValueError, match="constant"):
            analysis.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            analysis.spearman([1.0, 2.0], [1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-10 ** 8, 10 ** 8), min_size=4, max_size=15,
                    unique=True).map(lambda v: [x / 1e6 for x in v]))
    def test_invariant_under_monotone_transforms(self, xs):
        # xs live on a 1e-6 grid in [-100, 100], so the strictly monotone
        # transforms below cannot collapse distinct values in float64
        rng = np.random.default_rng(len(xs))
        ys = rng.normal(size=len(xs))
        base = analysis.spearman(xs, ys)
        for f in (lambda v: np.exp(v / 50), lambda v: v ** 3, lambda v: 5 * v + 2):
            assert analysis.spearman(f(np.array(xs)), ys) == pytest.approx(base, abs=1e-12)


class TestAdversarialAccuracy:
    def trained_pair(self):
        pool = synth_blobs(60, 3, 5, 1.0, seed=31)
        train, test = split(pool, 120, seed=31)
        from advlab.config import ExperimentConfig
        from advlab.training import train_twin
        cfg = dataclasses.replace(ExperimentConfig(), total_iterations=150, batch_size=24,
                                  log_every=50, lr_init=0.1, lr_decay_every=100, hidden=(12,))
        ledger = train_twin(train, cfg, AttackSpec(norm="linf", radius=0.1), 5)
        return ledger.adv.net, test

    def test_zero_radius_equals_clean_accuracy(self):
        from advlab.attacks import accuracy
        net, test = self.trained_pair()
        got = analysis.adversarial_accuracy(net, test, AttackSpec(norm="linf", radius=0.0),
                                            CLIP_M)
        assert got == accuracy(net, test)

    def test_constant_net_immune_to_attack(self):
        net = nn.DenseNet((np.zeros((3, 4)),), (np.array([0.0, 1.0, 0.0]),), "relu")
        ds = synth_blobs(15, 3, 4, 1.0, seed=8)
        freq = float((ds.labels == 1).mean())
        for rho in (0.0, 0.5, 3.0):
            got = analysis.adversarial_accuracy(net, ds, AttackSpec(norm="l2", radius=rho),
                                                CLIP_M)
            assert got == freq

    def test_1d_threshold_classifier_margin_geometry(self):
        # logits (x, -x): class 0 iff x >= 0; attacking with rho > margin flips
        # every class-0 point at distance < rho from the boundary
        net = nn.DenseNet((np.array([[1.0], [-1.0]]),), (np.zeros(2),), "relu")
        ds = LabeledSet(np.array([[0.3], [2.0], [-0.3], [-2.0]]),
                        np.array([0, 0, 1, 1]), 2)
        got = analysis.adversarial_accuracy(net, ds, AttackSpec(norm="linf", radius=0.5,
                                                                steps=20, step_size=0.1),
                                            CLIP_M)
        assert got == 0.5  # the two +-0.3 points fall, the +-2.0 points survive

    def test_mostly_nonincreasing_in_radius(self):
        net, test = self.trained_pair()
        rhos = np.linspace(0.0, 0.5, 11)
        accs = [analysis.adversarial_accuracy(net, test,
                                              AttackSpec(norm="linf", radius=float(r)), CLIP_M)
                for r in rhos]
        violations = sum(1 for a, b in zip(accs[:-1], accs[1:]) if b > a + 1e-12)
        assert violations <= max(1, int(0.01 * len(accs)))  # PGD is not exactly optimal
