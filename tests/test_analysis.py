import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import adversarial, analysis, nn
from advlab.adversarial import AttackSpec
from advlab.data import LabeledSet, split, synth_blobs
from conftest import CLIP_M, net_from_layers


def loop_average_ranks(v: np.ndarray) -> np.ndarray:
    """Oracle: walk the stably sorted values, giving each tie run over sorted
    positions i..j the rank 0.5 * (i + j) + 1."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    sorted_v = v[order]
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    def test_hand_ties(self):
        got = analysis._average_ranks(np.array([5.0, 1.0, 5.0, 3.0, 5.0]))
        np.testing.assert_array_equal(got, [4.0, 1.0, 4.0, 2.0, 4.0])

    def test_negative_zero_ties_with_zero(self):
        got = analysis._average_ranks(np.array([0.0, -1.0, -0.0, 2.0]))
        np.testing.assert_array_equal(got, [2.5, 1.0, 2.5, 4.0])

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_loop_exactly_on_tie_heavy_vectors(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.array([-0.0, 0.0, 0.1, -2.5, 3.0, 1e-300, -1e-300, np.inf, -np.inf])
        v = rng.choice(pool, size=int(rng.integers(1, 60)))
        got = analysis._average_ranks(v)
        want = loop_average_ranks(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
                                  log_every=50, lr_init=0.1, hidden=(12,))
        ledger = train_twin(train, cfg, AttackSpec(radius=0.1), 5)
        return ledger.adv.net, test

    def test_zero_radius_equals_clean_accuracy(self):
        from advlab.attacks import accuracy
        net, test = self.trained_pair()
        got = analysis.adversarial_accuracy(net, test, AttackSpec(radius=0.0), CLIP_M)
        assert got == accuracy(nn.forward(net, test.features), test.labels)

    def test_constant_net_immune_to_attack(self):
        net = net_from_layers((np.zeros((3, 4)),), (np.array([0.0, 1.0, 0.0]),))
        ds = synth_blobs(15, 3, 4, 1.0, seed=8)
        freq = float((ds.labels == 1).mean())
        for rho in (0.0, 0.5, 3.0):
            got = analysis.adversarial_accuracy(net, ds, AttackSpec(radius=rho), CLIP_M)
            assert got == freq

    def test_1d_threshold_classifier_margin_geometry(self, monkeypatch):
        # logits (x, -x): class 0 iff x >= 0; attacking with rho > margin flips
        # every class-0 point at distance < rho from the boundary
        monkeypatch.setattr(adversarial, "STEPS", 20)
        net = net_from_layers((np.array([[1.0], [-1.0]]),), (np.zeros(2),))
        ds = LabeledSet(np.array([[0.3], [2.0], [-0.3], [-2.0]]),
                        np.array([0, 0, 1, 1]), 2)
        got = analysis.adversarial_accuracy(net, ds, AttackSpec(radius=0.5), CLIP_M)
        assert got == 0.5  # the two +-0.3 points fall, the +-2.0 points survive

    def test_mostly_nonincreasing_in_radius(self):
        net, test = self.trained_pair()
        rhos = np.linspace(0.0, 0.5, 11)
        accs = [analysis.adversarial_accuracy(net, test, AttackSpec(radius=float(r)), CLIP_M)
                for r in rhos]
        violations = sum(1 for a, b in zip(accs[:-1], accs[1:]) if b > a + 1e-12)
        assert violations <= max(1, int(0.01 * len(accs)))  # PGD is not exactly optimal
