import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from advlab import adversarial, analysis, attacks, nn, privacy, training
from advlab.data import LabeledSet
from conftest import (CLIP_M, assert_grad_close, fd_grad_inputs, fd_grad_params,
                      net_from_layers, net_with_params, per_example_grads, random_net_and_batch,
                      textbook_forward, textbook_grads)


def identity_net(d):
    return net_from_layers((np.eye(d),), (np.zeros(d),))


class TestForward:
    def test_identity_single_layer(self):
        net = identity_net(2)
        logits = nn.forward(net, np.array([[1.0, 2.0]]))
        assert np.array_equal(logits, [[1.0, 2.0]])

    def test_zero_weights_give_bias(self):
        b = np.array([0.5, -1.5, 2.0])
        net = net_from_layers((np.zeros((3, 2)),), (b,))
        logits = nn.forward(net, np.random.default_rng(0).normal(size=(4, 2)))
        assert np.array_equal(logits, np.tile(b, (4, 1)))

    def test_two_layer_hand_evaluation(self):
        # independent straight-line evaluation with plain python floats
        w1 = np.array([[1.0, -2.0], [0.5, 0.25]])
        b1 = np.array([0.1, -0.3])
        w2 = np.array([[2.0, -1.0]])
        b2 = np.array([0.05])
        net = net_from_layers((w1, w2), (b1, b2))
        x = [1.0, 0.0]
        z1 = [1.0 * x[0] + -2.0 * x[1] + 0.1, 0.5 * x[0] + 0.25 * x[1] + -0.3]
        a1 = [max(z1[0], 0.0), max(z1[1], 0.0)]
        expected = 2.0 * a1[0] + -1.0 * a1[1] + 0.05
        logits = nn.forward(net, np.array([x]))
        assert logits.shape == (1, 1)
        assert logits[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_deterministic_bitwise(self):
        net, X, _ = random_net_and_batch(3)
        a = nn.forward(net, X)
        b = nn.forward(net, X)
        assert np.array_equal(a, b)


class TestDenseNetInvariants:
    def test_widths_fix_the_vector_length(self):
        with pytest.raises(ValueError, match="2-3-2 net has 17 parameters"):
            nn.DenseNet((2, 3, 2), np.zeros(16))
        with pytest.raises(ValueError, match="2-3-2 net has 17 parameters"):
            nn.DenseNet((2, 3, 2), np.zeros((1, 17)))
        with pytest.raises(ValueError, match="each >= 1"):
            nn.DenseNet((2, 0, 2), np.zeros(nn.param_count((2, 0, 2))))
        with pytest.raises(ValueError, match="at least two"):
            nn.DenseNet((2,), np.zeros(0))

    def test_finite_parameters_enforced(self):
        with pytest.raises(nn.DivergenceError, match="non-finite parameters"):
            net_from_layers((np.array([[np.inf]]),), (np.zeros(1),))

    def test_flatten_ordering_row_major_weights_then_biases(self):
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b1 = np.array([5.0, 6.0])
        w2 = np.array([[7.0, 8.0]])
        b2 = np.array([9.0])
        net = net_from_layers((w1, w2), (b1, b2))
        assert net.params.tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_constructor_keeps_a_read_only_vector_that_owns_its_data(self):
        net, _, _ = random_net_and_batch(7)
        again = net_with_params(net, net.params)
        assert again.params is net.params
        assert again.layer_widths == net.layer_widths

    @pytest.mark.parametrize("build", ["constructor", "random", "constructor_over_views",
                                       "sgd_step", "load_checkpoint"])
    def test_net_owns_one_read_only_parameter_vector(self, tmp_path, build):
        base = nn.DenseNet.random((3, 4, 2), seed=5)
        given = np.arange(base.num_params, dtype=np.float64)
        if build == "constructor":
            net = nn.DenseNet(base.layer_widths, given)
        elif build == "random":
            net = base
        elif build == "constructor_over_views":
            view = given[:]  # read-only, but its data is another array's
            view.setflags(write=False)
            net = nn.DenseNet(base.layer_widths, view)
        elif build == "sgd_step":
            net = training.sgd_step(base, given, 0.1, np.zeros(base.num_params))[0]
        else:
            training.save_checkpoint(base, tmp_path / "net.ckpt")
            net = training.load_checkpoint(tmp_path / "net.ckpt")
        flat = net.params
        assert flat.dtype == np.float64 and flat.shape == (net.num_params,)
        assert flat.flags.owndata and not flat.flags.writeable
        for part in (*net.weights, *net.biases):
            assert np.shares_memory(part, flat) and not part.flags.writeable
        assert not np.shares_memory(flat, given)

    def test_constructor_copies_any_other_vector(self):
        net = nn.DenseNet.random((3, 4, 2), seed=5)
        writable = np.arange(net.num_params, dtype=np.float64)
        view = writable[:]
        view.setflags(write=False)
        for given in (writable, view, np.frombuffer(writable.tobytes()),
                      np.arange(net.num_params)):
            again = net_with_params(net, given)
            assert not np.shares_memory(again.params, given)
            assert again.params.dtype == np.float64
            assert np.array_equal(again.params, writable)
        again = net_with_params(net, writable)
        writable[0] = 7.0
        assert again.params[0] == 0.0 and again.weights[0][0, 0] == 0.0

    def test_num_params_matches_flatten(self):
        net, _, _ = random_net_and_batch(8, widths=(3, 4, 4, 2))
        assert net.num_params == len(net.params) == 46  # (3*4 + 4) + (4*4 + 4) + (4*2 + 2)
        assert nn.param_count(net.layer_widths) == 46


class TestLossBatch:
    def test_uniform_two_class_is_ln2(self):
        net = net_from_layers((np.zeros((2, 3)),), (np.zeros(2),))
        mean, per = nn.loss_batch(net, np.ones((5, 3)), np.zeros(5, dtype=int), CLIP_M)
        assert per == pytest.approx(np.full(5, math.log(2.0)), abs=1e-12)
        assert mean == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clip_boundary(self):
        net = net_from_layers((np.zeros((2, 3)),), (np.zeros(2),))
        clip_m = 0.5  # raw loss is ln 2 > 0.5
        mean, per = nn.loss_batch(net, np.ones((2, 3)), np.zeros(2, dtype=int), clip_m)
        assert np.array_equal(per, [0.5, 0.5])
        assert mean == 0.5

    def test_three_class_hand_softmax(self):
        # independent softmax/log arithmetic in plain python
        logits = [0.7, -0.2, 1.1]
        label = 2
        z = [math.exp(v) for v in logits]
        expected = -math.log(z[label] / sum(z))
        net = net_from_layers((np.zeros((3, 1)),), (np.array(logits),))
        _, per = nn.loss_batch(net, np.zeros((1, 1)), np.array([label]), CLIP_M)
        assert per[0] == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-40, 40), min_size=2, max_size=6),
           st.floats(0.01, 20), st.integers(0, 5))
    def test_loss_bounded_by_clip(self, logits, clip_m, label_raw):
        label = label_raw % len(logits)
        net = net_from_layers((np.zeros((len(logits), 1)),), (np.array(logits),))
        _, per = nn.loss_batch(net, np.zeros((1, 1)), np.array([label]), clip_m)
        assert 0.0 <= per[0] <= clip_m


class TestGradParams:
    def test_zero_gradient_at_constructed_minimum(self):
        # all softmax mass on the true class, loss far inside the clip
        net = net_from_layers((np.zeros((2, 2)),), (np.array([60.0, 0.0]),))
        mean, _, _ = nn.grad_params(net, np.ones((3, 2)), np.zeros(3, dtype=int), CLIP_M)
        assert np.linalg.norm(mean) < 1e-9

    @pytest.mark.parametrize("widths", [(4, 6, 3), (4, 6, 5, 3)], ids=["1-hidden", "2-hidden"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed, widths):
        net, X, y = random_net_and_batch(seed, widths)
        mean, _, _ = nn.grad_params(net, X, y, CLIP_M)
        assert_grad_close(mean, fd_grad_params(net, X, y, CLIP_M))

    def test_duplicated_batch_equals_single_example(self):
        net, X, y = random_net_and_batch(21)
        x1, y1 = X[:1], y[:1]
        single, _, _ = nn.grad_params(net, x1, y1, CLIP_M)
        dup, _, _ = nn.grad_params(net, np.repeat(x1, 4, axis=0), np.repeat(y1, 4), CLIP_M)
        per = per_example_grads(net, np.repeat(x1, 4, axis=0), np.repeat(y1, 4), CLIP_M)
        # every duplicate row is bitwise identical; the mean can differ from
        # the 1-row batch only by BLAS kernel choice, i.e. the last ulp
        assert all(np.array_equal(per[0], row) for row in per)
        assert dup == pytest.approx(single, rel=1e-12, abs=1e-15)

    def test_mean_is_componentwise_mean_of_per_example(self):
        net, X, y = random_net_and_batch(22)
        mean, _, _ = nn.grad_params(net, X, y, CLIP_M)
        per = per_example_grads(net, X, y, CLIP_M)
        # aggregated matmuls sum in a different order than the row mean
        assert mean == pytest.approx(per.mean(axis=0), rel=1e-12, abs=1e-15)
        assert per.shape == (len(X), net.num_params)

    def test_clip_active_zeroes_that_example(self):
        net = net_from_layers((np.zeros((2, 2)),), (np.zeros(2),))
        clip_m = 0.5  # ln 2 > 0.5 for every example
        X, y = np.ones((3, 2)), np.zeros(3, dtype=int)
        mean, norms, _ = nn.grad_params(net, X, y, clip_m)
        per = per_example_grads(net, X, y, clip_m)
        assert np.array_equal(per, np.zeros_like(per))
        assert np.array_equal(norms, np.zeros_like(norms))
        assert np.array_equal(mean, np.zeros_like(mean))

    def test_norm_shortcut_matches_materialized_gradients(self):
        net, X, y = random_net_and_batch(23, widths=(5, 7, 4), n=9)
        per = per_example_grads(net, X, y, CLIP_M)
        _, fast, _ = nn.grad_params(net, X, y, CLIP_M)
        assert fast == pytest.approx(np.linalg.norm(per, axis=1), rel=1e-12)

    def test_losses_are_the_clipped_per_example_losses(self):
        net, X, y = random_net_and_batch(25)
        clip_m = 1.0
        _, _, losses = nn.grad_params(net, X, y, clip_m)
        assert np.array_equal(losses, nn.loss_batch(net, X, y, clip_m)[1])

    def test_aggregated_mean_grad_matches(self):
        net, X, y = random_net_and_batch(24)
        mean, _, _ = nn.grad_params(net, X, y, CLIP_M)
        assert np.array_equal(nn.mean_grad(net, X, y, CLIP_M), mean)


class TestGradInput:
    def test_zero_first_layer_kills_input_path(self):
        net = net_from_layers((np.zeros((3, 2)), np.ones((2, 3))),
                          (np.ones(3), np.zeros(2)))
        g = nn.grad_inputs(net, np.array([[1.0, -2.0]]), np.array([0]), CLIP_M)[0]
        assert np.array_equal(g, [0.0, 0.0])

    @pytest.mark.parametrize("widths", [(4, 6, 3), (4, 6, 5, 3)], ids=["1-hidden", "2-hidden"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed, widths):
        net, X, y = random_net_and_batch(seed + 40, widths)
        g = nn.grad_inputs(net, X, y, CLIP_M)
        assert_grad_close(g, fd_grad_inputs(net, X, y, CLIP_M))

    def test_linear_cross_entropy_hand_calculus(self):
        # logits z = (0, x), y = 0: loss ln(1 + e^x), d/dx = (p - e_0) . W = p_1 = sigmoid(x)
        net = net_from_layers((np.array([[0.0], [1.0]]),), (np.zeros(2),))
        g = nn.grad_inputs(net, np.array([[1.0]]), np.array([0]), CLIP_M)[0]
        assert g == pytest.approx([1.0 / (1.0 + math.exp(-1.0))], abs=1e-15)


# the edge-case nets: 5 inputs, 3 classes, and two or three hidden layers
DEPTHS = {"2-hidden": (5, 7, 6, 3), "3-hidden": (5, 7, 6, 4, 3)}


def _edge_case_batch(depth):
    """A ``DEPTHS[depth]`` net and 12 rows with exact-zero pre-activations.

    Row 0 is all zeros and the first layer's bias 0 is 0, so that row's unit
    0 has z exactly 0; unit 2 of every later hidden layer has zero weights and
    bias, so its z is exactly 0 on every row.
    """
    rng = np.random.default_rng(11)
    widths = DEPTHS[depth]
    ws = [rng.normal(scale=0.8, size=(o, i)) for i, o in zip(widths[:-1], widths[1:])]
    bs = [rng.normal(scale=0.3, size=o) for o in widths[1:]]
    bs[0][0] = 0.0
    for k in range(1, len(widths) - 2):
        ws[k][2] = 0.0
        bs[k][2] = 0.0
    net = net_from_layers(tuple(ws), tuple(bs))
    X = rng.normal(size=(12, 5))
    X[0] = 0.0
    y = rng.integers(0, 3, size=12)
    _, zs = textbook_forward(net, X)
    assert zs[0][0, 0] == 0.0 and all((z[:, 2] == 0.0).all() for z in zs[1:-1])
    return net, X, y


def _clip_m(net, X, y, clip: str) -> float:
    """A loss clip that clips no row, the upper half of the rows (the median
    raw loss, so one row sits at the boundary), or every row (the least raw
    loss, again with one at the boundary)."""
    raw = textbook_grads(net, X, y, math.inf)[2]
    clip_m = {"none": math.inf, "median": float(np.sort(raw)[len(raw) // 2]),
              "all": float(raw.min())}[clip]
    clipped = raw >= clip_m
    assert {"none": not clipped.any(), "median": clipped.any() and not clipped.all(),
            "all": clipped.all()}[clip]
    return clip_m


class TestTextbookOracle:
    """The in-place pass equals ``conftest.textbook_grads`` bit for bit."""

    @pytest.mark.parametrize("depth", sorted(DEPTHS))
    @pytest.mark.parametrize("clip", ["none", "median", "all"])
    def test_every_output_bitwise_equal(self, clip, depth):
        net, X, y = _edge_case_batch(depth)
        clip_m = _clip_m(net, X, y, clip)
        mean, norms, losses, gx = textbook_grads(net, X, y, clip_m)
        assert_array_equal(nn.forward(net, X), textbook_forward(net, X)[0][-1])
        got_mean, got_norms, got_losses = nn.grad_params(net, X, y, clip_m)
        assert_array_equal(got_mean, mean)
        assert_array_equal(got_norms, norms)
        assert_array_equal(got_losses, losses)
        assert_array_equal(nn.grad_inputs(net, X, y, clip_m), gx)

    @staticmethod
    def _blocked_batch(depth):
        """2 * ROW_BLOCK + 3 rows: two full blocks, then a ragged block of 3.

        The 12 edge-case rows come last, so they span the second and third blocks.
        """
        net, X_edge, y_edge = _edge_case_batch(depth)
        rng = np.random.default_rng(12)
        m = 2 * nn.ROW_BLOCK + 3 - len(X_edge)
        X = np.concatenate([rng.normal(size=(m, 5)), X_edge])
        y = np.concatenate([rng.integers(0, 3, size=m), y_edge])
        assert len(nn._row_blocks(len(X))) == 3
        return net, X, y

    @pytest.mark.parametrize("depth", sorted(DEPTHS))
    @pytest.mark.parametrize("clip", ["none", "median", "all"])
    def test_blocked_passes_equal_one_pass(self, clip, depth):
        net, X, y = self._blocked_batch(depth)
        clip_m = _clip_m(net, X, y, clip)
        mean, norms, losses, gx = textbook_grads(net, X, y, clip_m)
        assert_array_equal(nn.forward(net, X), textbook_forward(net, X)[0][-1])
        assert_array_equal(nn.grad_inputs(net, X, y, clip_m), gx)
        got_mean, got_norms, got_losses = nn.grad_params(net, X, y, clip_m)
        assert_array_equal(got_norms, norms)
        assert_array_equal(got_losses, losses)
        # the sum over blocks adds in another order than one matmul
        np.testing.assert_allclose(got_mean, mean, rtol=1e-12, atol=0)
        assert_array_equal(nn.mean_grad(net, X, y, clip_m), got_mean)

    @pytest.mark.parametrize("depth", sorted(DEPTHS))
    def test_dataset_evaluations_equal_one_pass(self, monkeypatch, depth):
        net, X, y = self._blocked_batch(depth)
        clip_m = _clip_m(net, X, y, "median")
        ds = LabeledSet(X, y, 3)
        attack = adversarial.AttackSpec(0.3)

        def evaluate():
            logits = nn.forward(net, X)
            return (attacks.accuracy(logits, y), attacks.true_label_confidences(logits, y),
                    adversarial.pgd_batch(net, X, y, attack, clip_m),
                    analysis.adversarial_accuracy(net, ds, attack, clip_m))

        blocked = evaluate()
        monkeypatch.setattr(nn, "ROW_BLOCK", len(X))
        assert nn._row_blocks(len(X)) == [slice(0, len(X))]
        one_pass = evaluate()
        assert blocked[0] == one_pass[0]
        assert_array_equal(blocked[1], one_pass[1])
        assert_array_equal(blocked[2], one_pass[2])
        assert blocked[3] == one_pass[3]


class TestCallerArraysUntouched:
    """In-place arithmetic never writes to an array the caller passed in."""

    NET = nn.DenseNet.random((4, 6, 3), seed=3)
    CALLS = {
        "forward": lambda net, a: nn.forward(net, a["x"]),
        "grad_params": lambda net, a: nn.grad_params(net, a["x"], a["y"], CLIP_M),
        "grad_inputs": lambda net, a: nn.grad_inputs(net, a["x"], a["y"], CLIP_M),
        "pgd_batch": lambda net, a: adversarial.pgd_batch(
            net, a["x"], a["y"], adversarial.AttackSpec(0.3), CLIP_M),
        "project": lambda net, a: adversarial.project(a["x"], a["pts"], 0.1),
        "sgd_step": lambda net, a: training.sgd_step(net, a["grad"], 0.1, a["velocity"]),
        "fit_laplace": lambda net, a: privacy.fit_laplace(a["pts"].ravel()),
        "noise_histogram": lambda net, a: privacy.noise_histogram(a["pts"].ravel()),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_inputs_unchanged(self, name):
        rng = np.random.default_rng(5)
        arrays = {"x": rng.normal(size=(6, 4)), "y": rng.integers(0, 3, size=6),
                  "pts": rng.normal(size=(6, 4)), "grad": rng.normal(size=self.NET.num_params),
                  "velocity": rng.normal(size=self.NET.num_params)}
        before = {k: v.copy() for k, v in arrays.items()}
        assert all(v.flags.writeable for v in arrays.values())
        self.CALLS[name](self.NET, arrays)
        for k, v in arrays.items():
            assert_array_equal(v, before[k], err_msg=k)


def _noise_pipeline(net, ds):
    sample = privacy.collect_noise(net, ds, 64, 200, 500, seed=1, clip_m=CLIP_M)
    privacy.fit_laplace(sample.values)
    return (sample.values, *privacy.noise_histogram(sample.values))


class TestPeakMemory:
    """Peak traced allocation of one whole-dataset pass on a 20-64-64-4 net.

    One unit is one (ROW_BLOCK, 64) float64 layer array. Each pass runs over
    row blocks, so beyond its inputs and outputs it peaks at a few units
    whatever the row count. Measured at 2,000 and 8,000 rows: forward 2.5,
    grad_params 5.2, mean_grad 4.9, an 8-step linf ``pgd_batch`` 5.5, and the
    noise pipeline 1.2 beyond its 100,000-value pool and the one sorted copy
    that ``fit_laplace`` takes. A pass that holds every row's layer arrays at
    once needs 16 to 40 units at 2,000 rows and four times that at 8,000.
    """

    UNIT = nn.ROW_BLOCK * 64 * 8
    POOL = 200 * 500 * 8  # bytes of the noise pool
    NET = nn.DenseNet.random((20, 64, 64, 4), seed=1)
    PASSES = {  # name: (call returning its output arrays, bound in units beyond them)
        "forward": (lambda net, ds: nn.forward(net, ds.features), 3),
        "pgd_batch": (lambda net, ds: adversarial.pgd_batch(
            net, ds.features, ds.labels, adversarial.AttackSpec(0.35), CLIP_M), 6),
        "grad_params": (lambda net, ds: nn.grad_params(net, ds.features, ds.labels, CLIP_M), 6),
        "mean_grad": (lambda net, ds: nn.mean_grad(net, ds.features, ds.labels, CLIP_M), 6),
        "noise_pipeline": (_noise_pipeline, 2 + POOL / UNIT),
    }

    @staticmethod
    def _peak_bytes(fn) -> int:
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_whole_dataset_pass_does_not_grow_with_rows(self, name):
        call, units = self.PASSES[name]
        excess = {}
        for n in (2000, 8000):
            rng = np.random.default_rng(0)
            ds = LabeledSet(rng.normal(size=(n, 20)), rng.integers(0, 4, size=n), 4)
            out = []
            peak = self._peak_bytes(lambda: out.append(call(self.NET, ds)))
            arrays = out[0] if isinstance(out[0], tuple) else (out[0],)
            excess[n] = peak - sum(a.nbytes for a in arrays)
            assert excess[n] <= units * self.UNIT, (n, excess[n] / self.UNIT)
        assert excess[8000] <= excess[2000] + self.UNIT / 4, (
            {n: e / self.UNIT for n, e in excess.items()})
