import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from advlab import intensity, nn, training
from advlab.adversarial import AttackSpec
from advlab.config import ExperimentConfig
from advlab.data import BatchSchedule, LabeledSet, split, synth_blobs
from conftest import net_from_layers, net_with_params

UNCLIPPED = dataclasses.replace(ExperimentConfig(), loss_bound=1e6)
SEED = 3


def small_sets(seed=9):
    pool = synth_blobs(40, 3, 4, 1.0, seed=seed)
    return split(pool, 80, seed=seed)


def records(ledger):
    """The twin run's paired records, as the ``train`` command pairs them."""
    return intensity.judge(ledger.erm.logged, ledger.adv.logged)[0]


def quick_config(**kw):
    base = dict(total_iterations=40, batch_size=16, log_every=10, lr_init=0.05)
    base.update(kw)
    return dataclasses.replace(ExperimentConfig(), **base)


MU, WD = training.MOMENTUM, training.WEIGHT_DECAY


class TestSgdStep:
    def net1(self, theta=1.0):
        return net_from_layers((np.array([[theta]]),), (np.array([0.0]),))

    def test_zero_lr_leaves_parameters(self):
        net = self.net1()
        out, _ = training.sgd_step(net, np.array([2.0, 3.0]), 0.0, np.zeros(2))
        assert np.array_equal(out.params, net.params)

    def test_plain_step_hand_arithmetic(self):
        # theta=0, g=2, lr=0.1, no velocity: the decay term vanishes, theta' = -0.2
        out, v = training.sgd_step(self.net1(0.0), np.array([2.0, 0.0]), 0.1, np.zeros(2))
        assert out.params[0] == pytest.approx(-0.2, abs=1e-15)
        assert v[0] == 2.0

    def test_two_momentum_steps_unrolled(self):
        # g=1, lr=1, theta0=0: v1=1, theta1=-1; v2=mu*1 + (1 + wd*(-1)), theta2=-1-v2
        net = self.net1(0.0)
        g = np.array([1.0, 0.0])
        v = np.zeros(2)
        net, v = training.sgd_step(net, g, 1.0, v)
        assert net.params[0] == pytest.approx(-1.0, abs=1e-15)
        net, v = training.sgd_step(net, g, 1.0, v)
        assert net.params[0] == pytest.approx(-1.0 - (MU + 1.0 - WD), abs=1e-15)

    def test_weight_decay_added_to_gradient(self):
        # g_eff = g + wd*theta = 2 + wd*1; theta' = 1 - 0.1*g_eff
        out, _ = training.sgd_step(self.net1(1.0), np.array([2.0, 0.0]), 0.1, np.zeros(2))
        assert out.params[0] == pytest.approx(1.0 - 0.1 * (2.0 + WD), abs=1e-15)

    def test_the_recipe_is_momentum_0_9_and_weight_decay_0_0002(self):
        # weight 1, bias 0, g=0, lr=1, v0=1: v = (0.9 + 0.0002*1, 0.9 + 0.0002*0)
        out, v = training.sgd_step(self.net1(1.0), np.zeros(2), 1.0, np.ones(2))
        assert v.tolist() == [0.9 + 0.0002, 0.9]
        assert out.params.tolist() == [1.0 - (0.9 + 0.0002), -0.9]

    def test_non_finite_gradient_aborts(self):
        with pytest.raises(nn.DivergenceError):
            training.sgd_step(self.net1(), np.array([np.nan, 0.0]), 0.1, np.zeros(2))

    def test_overflowing_update_aborts(self):
        # a finite gradient whose step overflows the parameters
        with np.errstate(over="ignore"), pytest.raises(
                nn.DivergenceError, match="^non-finite parameters: the model has diverged$"):
            training.sgd_step(self.net1(), np.array([10.0, 0.0]), 1e308, np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            training.sgd_step(self.net1(), np.array([1.0]), 0.1, np.zeros(1))

    def test_velocity_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            training.sgd_step(self.net1(), np.array([1.0, 0.0]), 0.1, np.zeros((2, 2)))

    def test_stepped_net_is_read_only_and_bitwise_the_update(self):
        net = nn.DenseNet.random((3, 4, 2), seed=1)
        rng = np.random.default_rng(0)
        grad, v0 = rng.normal(size=net.num_params), rng.normal(size=net.num_params)
        out, v = training.sgd_step(net, grad, 0.1, v0)
        assert v.tobytes() == (MU * v0 + (grad + WD * net.params)).tobytes()
        expected = net.params - 0.1 * v
        assert out.params.tobytes() == expected.tobytes()
        ref = net_with_params(net, expected)
        for p, q in zip((*out.weights, *out.biases), (*ref.weights, *ref.biases)):
            assert p.shape == q.shape and p.tobytes() == q.tobytes()
            assert not p.flags.writeable
            with pytest.raises(ValueError):
                p[0] = 1.0


class TestLrSchedule:
    def test_decay_boundaries(self):
        # x0.1 every 750 iterations, as powers of 0.1 (0.1 ** 2 is not 0.01)
        assert training.lr(0.1, 1) == training.lr(0.1, 750) == 0.1
        assert training.lr(0.1, 751) == training.lr(0.1, 1500) == 0.1 * 0.1 ** 1
        assert training.lr(0.1, 1501) == 0.1 * 0.1 ** 2
        assert training.lr(0.5, 2000) == 0.5 * 0.1 ** 2

    def test_train_model_steps_by_the_schedule(self, monkeypatch):
        train, _ = small_sets()
        cfg = quick_config(hidden=(4,), total_iterations=751, log_every=751)
        sgd_step, seen = training.sgd_step, []

        def record_lr(net, grad, lr, velocity):
            seen.append(lr)
            return sgd_step(net, grad, lr, velocity)

        monkeypatch.setattr(training, "sgd_step", record_lr)
        net0 = nn.DenseNet.random((train.dim, 4, train.num_classes), SEED)
        training.train_model(train, net0, cfg, AttackSpec(), SEED)
        assert seen == [0.05] * 750 + [0.05 * 0.1]


class TestTrainTwin:
    def test_rho_zero_collapse(self):
        train, _ = small_sets()
        ledger = training.train_twin(train, quick_config(hidden=(8,)), AttackSpec(), SEED)
        assert len(records(ledger)) == 4
        for r in records(ledger):
            assert abs(r.intensity - 1.0) <= 1e-9
        assert np.array_equal(ledger.erm.net.params, ledger.adv.net.params)

    def test_seed_replay_identical(self):
        train, _ = small_sets()
        cfg, attack = quick_config(hidden=(8,)), AttackSpec(radius=0.2)
        a = training.train_twin(train, cfg, attack, SEED)
        b = training.train_twin(train, cfg, attack, SEED)
        assert records(a) == records(b)
        assert np.array_equal(a.adv.net.params, b.adv.net.params)
        assert a.erm.index_digest == b.erm.index_digest

    def test_lockstep_index_digests_match(self):
        train, _ = small_sets()
        ledger = training.train_twin(train, quick_config(hidden=(8,)),
                                     AttackSpec(radius=0.1), SEED)
        assert ledger.erm.index_digest == ledger.adv.index_digest != ""

    def test_ledger_cardinality_floor_t_over_m(self):
        train, _ = small_sets()
        ledger = training.train_twin(train,
                                     quick_config(total_iterations=45, log_every=10, hidden=(4,)),
                                     AttackSpec(), SEED)
        assert len(records(ledger)) == 4  # floor(45/10)

    def test_recorded_norms_finite_and_positive(self):
        train, _ = small_sets()
        ledger = training.train_twin(train, quick_config(hidden=(8,)),
                                     AttackSpec(radius=0.15), SEED)
        for r in records(ledger):
            assert math.isfinite(r.l_erm) and r.l_erm > 0
            assert math.isfinite(r.l_adv) and r.l_adv > 0
            assert math.isfinite(r.erm_loss) and math.isfinite(r.adv_loss)

    def test_divergence_marked_not_raised(self):
        train, _ = small_sets()
        cfg = quick_config(lr_init=1e200, total_iterations=20, log_every=1, hidden=(8,))
        ledger = training.train_twin(train, cfg, AttackSpec(), SEED)
        assert ledger.diverged_at is not None
        assert len(records(ledger)) < 20

    @pytest.mark.filterwarnings("error")
    def test_divergence_is_quiet_and_leaves_error_state_alone(self):
        train, _ = small_sets()
        before = np.geterr()
        cfg = quick_config(lr_init=1e200, total_iterations=20, log_every=1, hidden=(8,))
        ledger = training.train_twin(train, cfg, AttackSpec(), SEED)
        assert ledger.diverged_at is not None
        assert np.geterr() == before

    def test_train_model_is_the_twin_erm_side_bitwise(self):
        train, _ = small_sets()
        cfg = quick_config(hidden=(8,))
        ledger = training.train_twin(train, cfg, AttackSpec(radius=0.2), SEED)
        net0 = nn.DenseNet.random((train.dim, 8, train.num_classes), SEED)
        erm = training.train_model(train, net0, cfg, AttackSpec(), SEED)
        assert erm.net.params.tobytes() == ledger.erm.net.params.tobytes()
        assert erm.logged == [(r.t, r.l_erm, r.erm_loss) for r in records(ledger)]
        schedule, h = BatchSchedule(SEED, cfg.batch_size), hashlib.sha256()
        for t in range(1, cfg.total_iterations + 1):
            h.update(schedule.indices(t, len(train)).astype("<i8").tobytes())
        assert erm.index_digest == ledger.erm.index_digest == h.hexdigest()
        assert erm.diverged_at is None

    def test_non_finite_logged_statistic_ends_the_run_at_its_step(self, monkeypatch):
        # the gradient and the update stay finite; only the logged max norm is not
        train, _ = small_sets()
        cfg = quick_config(hidden=(8,))  # logs every 10 steps
        net0 = nn.DenseNet.random((train.dim, 8, train.num_classes), SEED)
        clean = training.train_model(train, net0, cfg, AttackSpec(), SEED, iterations=20)
        adv_grad, calls = training.adv_grad, []

        def inf_norms_at_step_20(*args):
            g, norms, losses = adv_grad(*args)
            calls.append(None)
            return g, np.full_like(norms, np.inf) if len(calls) == 20 else norms, losses

        monkeypatch.setattr(training, "adv_grad", inf_norms_at_step_20)
        run = training.train_model(train, net0, cfg, AttackSpec(), SEED)
        assert run.diverged_at == 20 and run.logged == clean.logged[:1]
        # step 20's update was finite, so the run keeps it as its last iterate
        assert run.net.params.tobytes() == clean.net.params.tobytes()
        assert run.index_digest == clean.index_digest

    def test_adversarial_run_stops_before_the_erm_failure(self):
        train, _ = small_sets()
        cfg = quick_config(lr_init=1e200, total_iterations=20, log_every=1, hidden=(8,))
        ledger = training.train_twin(train, cfg, AttackSpec(radius=0.2), SEED)
        erm, adv = ledger.erm, ledger.adv
        assert erm.diverged_at is not None and adv.diverged_at is None
        assert ledger.diverged_at == erm.diverged_at
        # the adversarial run drew the batches of the steps ERM completed, no more
        schedule, h = BatchSchedule(SEED, cfg.batch_size), hashlib.sha256()
        for t in range(1, erm.diverged_at):
            h.update(schedule.indices(t, len(train)).astype("<i8").tobytes())
        assert adv.index_digest == h.hexdigest()
        assert [r.t for r in records(ledger)] == list(range(1, ledger.diverged_at))
        for net in (erm.net, adv.net):
            assert np.isfinite(net.params).all()

    def test_two_step_hand_trace(self):
        """Full ledger of a 2-iteration twin run reproduced in plain python."""
        x = [0.5, 2.0]
        ds = LabeledSet(np.array([[x[0]], [x[1]]]), np.array([0, 0]), 2)
        rho, alpha, steps, lr = 0.25, 0.0625, 8, 0.05
        cfg = dataclasses.replace(
            UNCLIPPED, total_iterations=2, batch_size=2, log_every=1, lr_init=lr, hidden=())
        attack = AttackSpec(radius=rho)
        ledger = training.train_twin(ds, cfg, attack, 17)

        # oracle: straight-line float trace sharing only the init and the
        # batch schedule contract (batch of size 2 == the whole set). The
        # logits (w0 x + b0, w1 x + b1) at label 0 give the loss ln(1 + e^d)
        # with d = z1 - z0, and dl/dz = (-p, p) with p = sigmoid(d).
        net0 = nn.DenseNet.random((1, 2), seed=17)
        theta_e = theta_a = [*net0.weights[0][:, 0].tolist(), 0.0, 0.0]  # w0, w1, b0, b1

        def margin(theta, xi):
            w0, w1, b0, b1 = theta
            return (w1 * xi + b1) - (w0 * xi + b0)

        def sigmoid(d):
            return 1.0 / (1.0 + math.exp(-d))

        def grads(theta, xi):
            p = sigmoid(margin(theta, xi))
            return [-p * xi, p * xi, -p, p]  # dl/dw0, dl/dw1, dl/db0, dl/db1

        def pgd_point(theta, xi):
            xp = xi
            for _ in range(steps):
                g = sigmoid(margin(theta, xp)) * (theta[1] - theta[0])  # dl/dx
                s = 1.0 if g > 0 else (-1.0 if g < 0 else 0.0)
                xp = min(max(xp + alpha * s, xi - rho), xi + rho)
            return xp

        def step(theta, v, points):
            """(next theta, next velocity, max per-example gradient norm, mean loss) of
            one heavy-ball SGD step; both steps lie before the first step-size cut."""
            per = [grads(theta, xi) for xi in points]
            l_max = max(math.hypot(*g) for g in per)
            mean_loss = sum(math.log1p(math.exp(margin(theta, xi))) for xi in points) / 2.0
            mean = [(g0 + g1) / 2.0 for g0, g1 in zip(*per)]
            v = [MU * vi + (g + WD * p) for vi, g, p in zip(v, mean, theta)]
            return [p - lr * vi for p, vi in zip(theta, v)], v, l_max, mean_loss

        v_e = v_a = [0.0] * 4
        for t in (1, 2):
            theta_e, v_e, l_erm, erm_loss = step(theta_e, v_e, x)
            theta_a, v_a, l_adv, adv_loss = step(theta_a, v_a,
                                                 [pgd_point(theta_a, xi) for xi in x])

            rec = records(ledger)[t - 1]
            assert rec.t == t
            assert rec.l_erm == pytest.approx(l_erm, rel=1e-12)
            assert rec.l_adv == pytest.approx(l_adv, rel=1e-12)
            assert rec.intensity == pytest.approx(l_adv / l_erm, rel=1e-12)
            assert rec.erm_loss == pytest.approx(erm_loss, rel=1e-12)
            assert rec.adv_loss == pytest.approx(adv_loss, rel=1e-12)

        assert ledger.erm.net.params == pytest.approx(theta_e, rel=1e-12)
        assert ledger.adv.net.params == pytest.approx(theta_a, rel=1e-12)


class TestLedgerCsv:
    def test_round_trip(self, tmp_path):
        train, _ = small_sets()
        ledger = training.train_twin(train, quick_config(hidden=(8,)),
                                     AttackSpec(radius=0.1), SEED)
        p = tmp_path / "ledger.csv"
        training.write_ledger_csv(records(ledger), p)
        header, *rows = p.read_text().splitlines()
        assert header == ",".join(training.LEDGER_COLUMNS)
        back = []
        for row in rows:
            t, le, la, i, el, al, deg = row.split(",")
            back.append(intensity.IterationRecord(int(t), float(le), float(la), float(i),
                                                 float(el), float(al), bool(int(deg))))
        assert back == records(ledger)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        net = nn.DenseNet.random((3, 5, 2), seed=8)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        back = training.load_checkpoint(p)
        assert back.layer_widths == net.layer_widths
        assert np.array_equal(back.params, net.params)

    @pytest.mark.parametrize("widths", [(2, 2), (4, 8, 3), (3, 5, 5, 2)])
    def test_round_trip_at_every_depth(self, tmp_path, widths):
        net = nn.DenseNet.random(widths, seed=4)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        back = training.load_checkpoint(p)
        assert back.layer_widths == widths and back.params.tobytes() == net.params.tobytes()

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        net = nn.DenseNet.random((3, 4, 2), seed=6)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        assert p.read_bytes() == (b"RPG1" + bytes([0]) + (2).to_bytes(4, "little")
                                  + b"".join(w.to_bytes(4, "little") for w in (3, 4, 2))
                                  + net.params.astype("<f8").tobytes())

    def test_missing_file_is_an_os_error_naming_it(self, tmp_path):
        p = tmp_path / "absent.ckpt"
        with pytest.raises(FileNotFoundError) as exc:
            training.load_checkpoint(p)
        assert exc.value.filename == str(p)

    def test_magic_enforced(self, tmp_path):
        p = tmp_path / "net.ckpt"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(training.CheckpointFormatError, match="magic"):
            training.load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        net = nn.DenseNet.random((3, 4, 2), seed=1)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(training.CheckpointFormatError, match="payload"):
            training.load_checkpoint(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        net = nn.DenseNet.random((2, 2), seed=1)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(training.CheckpointFormatError, match="payload"):
            training.load_checkpoint(p)

    @pytest.mark.parametrize("code", [1, 2, 255])
    def test_nonzero_activation_byte_rejected(self, tmp_path, code):
        # byte 4 is the activation code; 1 was tanh in checkpoints of older versions
        net = nn.DenseNet.random((3, 4, 2), seed=1)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        blob = bytearray(p.read_bytes())
        assert blob[4] == 0
        blob[4] = code
        p.write_bytes(bytes(blob))
        with pytest.raises(training.CheckpointFormatError) as exc:
            training.load_checkpoint(p)
        assert str(exc.value).startswith(f"{p}: activation code {code}; only 0 (relu)")

    def test_zero_width_names_the_file_and_the_widths(self, tmp_path):
        # no config builds a 4-0-3 net, whose 3 parameters are the output biases
        p = tmp_path / "net.ckpt"
        p.write_bytes(training.CHECKPOINT_MAGIC + struct.pack("<BI3I", 0, 2, 4, 0, 3)
                      + np.zeros(3).astype("<f8").tobytes())
        with pytest.raises(training.CheckpointFormatError) as exc:
            training.load_checkpoint(p)
        assert str(exc.value).startswith(f"{p}: ") and "4-0-3" in str(exc.value)

    def test_non_finite_parameter_names_the_file(self, tmp_path):
        net = nn.DenseNet.random((4, 8, 3), seed=1)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        blob = bytearray(p.read_bytes())
        first = len(blob) - 8 * net.num_params  # the first payload double
        blob[first:first + 8] = np.array([np.nan], dtype="<f8").tobytes()
        p.write_bytes(bytes(blob))
        with pytest.raises(training.CheckpointFormatError) as exc:
            training.load_checkpoint(p)
        assert str(exc.value).startswith(f"{p}: ") and "non-finite" in str(exc.value)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "net.ckpt"
        p.write_bytes(b"RPG1\x00")
        with pytest.raises(training.CheckpointFormatError, match="header"):
            training.load_checkpoint(p)

    def test_no_layers_rejected(self, tmp_path):
        p = tmp_path / "net.ckpt"
        p.write_bytes(training.CHECKPOINT_MAGIC + struct.pack("<BI", 0, 0) + struct.pack("<I", 2))
        with pytest.raises(training.CheckpointFormatError) as exc:
            training.load_checkpoint(p)
        assert str(exc.value) == f"{p}: no layers"

    def test_truncated_dimension_header_rejected(self, tmp_path):
        # three layers announce four widths; the file ends after two
        p = tmp_path / "net.ckpt"
        p.write_bytes(training.CHECKPOINT_MAGIC + struct.pack("<BI2I", 0, 3, 4, 8))
        with pytest.raises(training.CheckpointFormatError) as exc:
            training.load_checkpoint(p)
        assert str(exc.value) == f"{p}: truncated dimension header"

    def test_dims_payload_mismatch_rejected(self, tmp_path):
        # header announces a 2x2 net but payload carries one extra float
        blob = b"RPG1" + struct.pack("<BI", 0, 1) + struct.pack("<2I", 2, 2)
        blob += np.zeros(7).astype("<f8").tobytes()
        p = tmp_path / "net.ckpt"
        p.write_bytes(blob)
        with pytest.raises(training.CheckpointFormatError, match="payload"):
            training.load_checkpoint(p)
