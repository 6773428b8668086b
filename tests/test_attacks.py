import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import attacks, nn
from advlab.data import LabeledSet
from conftest import mia_accuracy, net_from_layers


def brute_force_best(train_confs, test_confs, grid_points=10_000):
    """Dense-grid oracle for the optimal threshold."""
    grid = np.linspace(0.0, 1.0, grid_points)
    accs = 0.5 * ((train_confs[None, :] >= grid[:, None]).mean(axis=1)
                  + (test_confs[None, :] < grid[:, None]).mean(axis=1))
    k = int(np.argmax(accs))
    return float(grid[k]), float(accs[k])


def enumerated_best(train_confs, test_confs):
    """(zeta, Acc) at the first of the best candidates, scored one by one with
    ``mia_accuracy``: every observed confidence plus the sentinels 0 and 1 + 1e-12."""
    candidates = sorted({*train_confs.tolist(), *test_confs.tolist(), 0.0, 1.0 + 1e-12})
    accs = [mia_accuracy(train_confs, test_confs, z) for z in candidates]
    best = accs.index(max(accs))  # ties go to the smallest zeta
    return candidates[best], accs[best]


def scored(net, ds):
    """The (logits, labels) pair that ``attacks.accuracy`` and ``true_label_confidences`` read."""
    return nn.forward(net, ds.features), ds.labels


class TestTrueLabelConfidences:
    def test_uniform_two_class(self):
        net = net_from_layers((np.zeros((2, 3)),), (np.zeros(2),))
        ds = LabeledSet(np.ones((4, 3)), np.array([0, 1, 0, 1]), 2)
        assert attacks.true_label_confidences(*scored(net, ds)) == pytest.approx(np.full(4, 0.5))

    def test_hand_softmax(self):
        # logits (ln 3, 0): p(label 0) = 3 / (3 + 1) = 0.75
        net = net_from_layers((np.zeros((2, 1)),), (np.array([math.log(3.0), 0.0]),))
        ds = LabeledSet(np.zeros((1, 1)), np.array([0]), 2)
        conf = attacks.true_label_confidences(*scored(net, ds))
        assert conf[0] == pytest.approx(0.75, rel=1e-14)

    def test_two_class_confidences_sum_to_one(self):
        rng = np.random.default_rng(4)
        net = net_from_layers((rng.normal(size=(2, 3)),), (rng.normal(size=2),))
        X = rng.normal(size=(6, 3))
        c0 = attacks.true_label_confidences(*scored(net, LabeledSet(X, np.zeros(6, dtype=int), 2)))
        c1 = attacks.true_label_confidences(*scored(net, LabeledSet(X, np.ones(6, dtype=int), 2)))
        assert c0 + c1 == pytest.approx(np.ones(6), abs=1e-12)

    def test_reads_logits(self):
        logits = np.array([[math.log(3.0), 0.0], [0.0, 0.0], [0.0, math.log(3.0)]])
        conf = attacks.true_label_confidences(logits, np.array([0, 1, 0]))
        assert conf == pytest.approx([0.75, 0.5, 0.25], rel=1e-14)

    def test_equals_the_whole_softmax_row_bitwise(self):
        # oracle: normalize every entry of each stable-softmax row, then pick the label's
        rng = np.random.default_rng(6)
        logits, labels = rng.normal(scale=20.0, size=(300, 5)), rng.integers(0, 5, 300)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = (p / p.sum(axis=1, keepdims=True))[np.arange(300), labels]
        assert attacks.true_label_confidences(logits, labels).tobytes() == want.tobytes()

    def test_values_in_open_unit_interval(self):
        rng = np.random.default_rng(5)
        net = net_from_layers((rng.normal(size=(3, 2)),), (rng.normal(size=3),))
        ds = LabeledSet(rng.normal(size=(10, 2)), rng.integers(0, 3, 10), 3)
        c = attacks.true_label_confidences(*scored(net, ds))
        assert ((c > 0) & (c < 1)).all()


class TestMiaAccuracy:
    def test_perfect_separation(self):
        assert mia_accuracy(np.ones(5), np.zeros(5), 0.5) == 1.0

    def test_identical_distributions_give_half(self):
        v = np.array([0.2, 0.5, 0.9])
        for zeta in (0.0, 0.2, 0.5, 0.7, 1.1):
            assert mia_accuracy(v, v, zeta) == 0.5

    def test_hand_count(self):
        train = np.array([0.9, 0.6])
        test = np.array([0.7, 0.2])
        assert mia_accuracy(train, test, 0.6) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mia_accuracy(np.array([]), np.ones(2), 0.5)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30),
           st.lists(st.floats(0, 1), min_size=1, max_size=30),
           st.floats(-0.5, 1.5))
    def test_bounded(self, train, test, zeta):
        acc = mia_accuracy(np.array(train), np.array(test), zeta)
        assert 0.0 <= acc <= 1.0


class TestOptimalThreshold:
    def test_hand_instance(self):
        rep = attacks.optimal_threshold(np.array([0.9, 0.6]), np.array([0.7, 0.2]))
        assert rep.zeta_optim == 0.6
        assert rep.accuracy == 0.75

    def test_indistinguishable_returns_smallest_candidate(self):
        v = np.array([0.3, 0.5])
        rep = attacks.optimal_threshold(v, v)
        assert rep.accuracy == 0.5
        assert rep.zeta_optim == 0.0  # the low sentinel, smallest tied candidate

    def test_ties_go_to_the_smallest_zeta(self):
        # Acc is 0.75 at both 0.3 and 0.9
        train, test = np.array([0.9, 0.3]), np.array([0.5, 0.1])
        rep = attacks.optimal_threshold(train, test)
        assert (rep.zeta_optim, rep.accuracy) == enumerated_best(train, test) == (0.3, 0.75)
        assert type(rep.zeta_optim) is float and type(rep.accuracy) is float

    def test_never_beaten_by_random_probes(self):
        rng = np.random.default_rng(8)
        train = rng.uniform(size=40)
        test = rng.uniform(size=25)
        rep = attacks.optimal_threshold(train, test)
        for zeta in rng.uniform(-0.1, 1.1, size=100):
            assert rep.accuracy >= mia_accuracy(train, test, float(zeta))

    def test_matches_dense_grid_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n1, n2 = int(rng.integers(5, 60)), int(rng.integers(5, 60))
            train = rng.beta(3, 2, size=n1)
            test = rng.beta(2, 2, size=n2)
            rep = attacks.optimal_threshold(train, test)
            _, grid_best = brute_force_best(train, test)
            weight = 0.5 * max(1 / n1, 1 / n2)
            assert grid_best - 1e-12 <= rep.accuracy <= grid_best + weight

    def test_step_structure_constant_between_candidates(self):
        rng = np.random.default_rng(10)
        train = rng.uniform(size=12)
        test = rng.uniform(size=9)
        obs = np.sort(np.concatenate([train, test]))
        for a, b in zip(obs[:-1], obs[1:]):
            if b - a < 1e-9:
                continue
            mids = np.linspace(a, b, 5)[1:]  # (a, b] half-open: jump happens at a
            accs = {mia_accuracy(train, test, float(z)) for z in mids}
            assert len(accs) == 1

    # a few shared values force ties within and across the two vectors; NaN
    # and inf (from a diverged checkpoint) are rejected
    CONFS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan, math.inf]),
                      st.floats(allow_nan=True, allow_infinity=True))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(CONFS, min_size=1, max_size=30), st.lists(CONFS, min_size=1, max_size=30))
    def test_optimum_equals_the_mia_accuracy_enumeration_exactly(self, train, test):
        train, test = np.array(train), np.array(test)
        if not np.isfinite(np.concatenate([train, test])).all():
            with pytest.raises(nn.DivergenceError, match="^non-finite confidences: "):
                attacks.optimal_threshold(train, test)
            return
        rep = attacks.optimal_threshold(train, test)
        assert (rep.zeta_optim, rep.accuracy) == enumerated_best(train, test)

    @pytest.mark.parametrize("train, test, best", [
        ([0.8], [0.3], (0.8, 1.0)),  # an observed confidence
        ([0.3], [0.8], (0.0, 0.5)),  # the low sentinel
        ([2.0], [1.0], (1.0 + 1e-12, 1.0)),  # the high sentinel
    ])
    def test_optimum_is_the_enumerated_best(self, train, test, best):
        train, test = np.array(train), np.array(test)
        rep = attacks.optimal_threshold(train, test)
        assert (rep.zeta_optim, rep.accuracy) == enumerated_best(train, test) == best


class TestGeneralizationGap:
    def two_point_net(self):
        # threshold unit: logit_0 = x, logit_1 = -x, decides class by sign
        return net_from_layers((np.array([[1.0], [-1.0]]),), (np.zeros(2),))

    def test_identical_sets_zero_gap(self):
        ds = LabeledSet(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
        net = self.two_point_net()
        assert attacks.accuracy(*scored(net, ds)) - attacks.accuracy(*scored(net, ds)) == 0.0

    def test_extreme_gap_one(self):
        net = self.two_point_net()
        train = LabeledSet(np.array([[2.0], [-2.0]]), np.array([0, 1]), 2)
        test = LabeledSet(np.array([[2.0], [-2.0]]), np.array([1, 0]), 2)
        assert attacks.accuracy(*scored(net, train)) - attacks.accuracy(*scored(net, test)) == 1.0

    def test_hand_four_example_case(self):
        net = self.two_point_net()
        train = LabeledSet(np.array([[1.0], [2.0], [-1.0], [-3.0]]),
                           np.array([0, 0, 1, 0]), 2)  # 3 of 4 correct
        test = LabeledSet(np.array([[1.0], [-1.0]]), np.array([0, 0]), 2)  # 1 of 2
        gap = attacks.accuracy(*scored(net, train)) - attacks.accuracy(*scored(net, test))
        assert gap == pytest.approx(0.25)

    def test_reads_logits(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 5.0], [1.0, 0.0]])
        assert attacks.accuracy(logits, np.array([0, 1, 1, 1])) == 0.5  # the tie is class 0

    def test_argmax_tie_breaks_to_first_index(self):
        net = net_from_layers((np.zeros((3, 2)),), (np.zeros(3),))
        ds = LabeledSet(np.ones((2, 2)), np.array([0, 1]), 3)
        assert attacks.accuracy(*scored(net, ds)) == 0.5  # everything predicted as class 0
