import hashlib
import math

import numpy as np
import pytest

from advlab import nn, training
from advlab.adversarial import AttackSpec
from advlab.data import BatchSchedule, LabeledSet, split, synth_blobs

SQUARED = nn.LossSpec(kind="squared", clip_m=1e6)


def small_sets(seed=9):
    pool = synth_blobs(40, 3, 4, 1.0, seed=seed)
    return split(pool, 80, seed=seed)


def quick_config(**kw):
    base = dict(total_iterations=40, batch_size=16, log_every=10, lr_init=0.05,
                lr_decay=0.1, lr_decay_every=30, momentum=0.9, weight_decay=0.0002,
                attack=AttackSpec(radius=0.0), seed=3)
    base.update(kw)
    return training.TrainConfig(**base)


class TestSgdStep:
    def net1(self, theta=1.0):
        return nn.DenseNet((np.array([[theta]]),), (np.array([0.0]),), "relu")

    def test_zero_lr_leaves_parameters(self):
        net = self.net1()
        out, _ = training.sgd_step(net, np.array([2.0, 3.0]), 0.0, np.zeros(2), 0.9, 0.1)
        assert np.array_equal(out.flatten(), net.flatten())

    def test_plain_step_hand_arithmetic(self):
        # theta=1, g=2, lr=0.1, no momentum, no decay: theta' = 0.8
        out, _ = training.sgd_step(self.net1(1.0), np.array([2.0, 0.0]), 0.1,
                                   np.zeros(2), 0.0, 0.0)
        assert out.flatten()[0] == pytest.approx(0.8, abs=1e-15)

    def test_two_momentum_steps_unrolled(self):
        # mu=0.9, g=1, lr=1, theta0=0: v1=1, theta1=-1; v2=1.9, theta2=-2.9
        net = self.net1(0.0)
        g = np.array([1.0, 0.0])
        v = np.zeros(2)
        net, v = training.sgd_step(net, g, 1.0, v, 0.9, 0.0)
        assert net.flatten()[0] == pytest.approx(-1.0, abs=1e-15)
        net, v = training.sgd_step(net, g, 1.0, v, 0.9, 0.0)
        assert net.flatten()[0] == pytest.approx(-2.9, abs=1e-15)

    def test_weight_decay_added_to_gradient(self):
        # g_eff = g + wd*theta = 2 + 0.5*1 = 2.5; theta' = 1 - 0.1*2.5 = 0.75
        out, _ = training.sgd_step(self.net1(1.0), np.array([2.0, 0.0]), 0.1,
                                   np.zeros(2), 0.0, 0.5)
        assert out.flatten()[0] == pytest.approx(0.75, abs=1e-15)

    def test_non_finite_gradient_aborts(self):
        with pytest.raises(training.DivergenceError):
            training.sgd_step(self.net1(), np.array([np.nan, 0.0]), 0.1,
                              np.zeros(2), 0.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            training.sgd_step(self.net1(), np.array([1.0]), 0.1, np.zeros(1), 0.0, 0.0)

    def test_velocity_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            training.sgd_step(self.net1(), np.array([1.0, 0.0]), 0.1, np.zeros((2, 2)), 0.9, 0.0)

    def test_stepped_net_is_read_only_and_bitwise_the_update(self):
        net = nn.DenseNet.random((3, 4, 2), "tanh", seed=1)
        rng = np.random.default_rng(0)
        grad, v0 = rng.normal(size=net.num_params), rng.normal(size=net.num_params)
        out, v = training.sgd_step(net, grad, 0.1, v0, 0.9, 0.01)
        expected = net.flatten() - 0.1 * v
        assert out.flatten().tobytes() == expected.tobytes()
        ref = net.with_params(expected)
        assert out.activation == ref.activation
        for p, q in zip((*out.weights, *out.biases), (*ref.weights, *ref.biases)):
            assert p.shape == q.shape and p.tobytes() == q.tobytes()
            assert not p.flags.writeable
            with pytest.raises(ValueError):
                p[0] = 1.0


class TestLrSchedule:
    def test_decay_boundaries(self):
        cfg = quick_config(total_iterations=100, lr_init=0.1, lr_decay=0.1,
                           lr_decay_every=30)
        assert cfg.lr(1) == cfg.lr(30) == 0.1
        assert cfg.lr(31) == pytest.approx(0.01)
        assert cfg.lr(61) == pytest.approx(0.001)


class TestTrainTwin:
    def test_rho_zero_collapse(self):
        train, test = small_sets()
        ledger = training.train_twin(train, test, quick_config(), hidden=(8,))
        assert len(ledger.records) == 4
        for r in ledger.records:
            assert abs(r.intensity - 1.0) <= 1e-9
        assert np.array_equal(ledger.erm.net.flatten(), ledger.adv.net.flatten())

    def test_seed_replay_identical(self):
        train, test = small_sets()
        cfg = quick_config(attack=AttackSpec(norm="linf", radius=0.2))
        a = training.train_twin(train, test, cfg, hidden=(8,))
        b = training.train_twin(train, test, cfg, hidden=(8,))
        assert a.records == b.records
        assert np.array_equal(a.adv.net.flatten(), b.adv.net.flatten())
        assert a.erm.index_digest == b.erm.index_digest

    def test_lockstep_index_digests_match(self):
        train, test = small_sets()
        ledger = training.train_twin(train, test,
                                     quick_config(attack=AttackSpec(radius=0.1)),
                                     hidden=(8,))
        assert ledger.erm.index_digest == ledger.adv.index_digest != ""

    def test_ledger_cardinality_floor_t_over_m(self):
        train, test = small_sets()
        ledger = training.train_twin(train, test,
                                     quick_config(total_iterations=45, log_every=10),
                                     hidden=(4,))
        assert len(ledger.records) == 4  # floor(45/10)

    def test_recorded_norms_finite_and_positive(self):
        train, test = small_sets()
        ledger = training.train_twin(train, test,
                                     quick_config(attack=AttackSpec(radius=0.15)),
                                     hidden=(8,))
        for r in ledger.records:
            assert math.isfinite(r.l_erm) and r.l_erm > 0
            assert math.isfinite(r.l_adv) and r.l_adv > 0
            assert math.isfinite(r.erm_loss) and math.isfinite(r.adv_loss)

    def test_accuracies_populated(self):
        train, test = small_sets()
        ledger = training.train_twin(train, test, quick_config(), hidden=(8,))
        for acc in (ledger.erm_train_acc, ledger.erm_test_acc,
                    ledger.adv_train_acc, ledger.adv_test_acc):
            assert 0.0 <= acc <= 1.0

    def test_divergence_marked_not_raised(self):
        train, test = small_sets()
        cfg = quick_config(lr_init=1e200, total_iterations=20, log_every=1)
        ledger = training.train_twin(train, test, cfg, hidden=(8,))
        assert ledger.diverged_at is not None
        assert len(ledger.records) < 20

    @pytest.mark.filterwarnings("error")
    def test_divergence_is_quiet_and_leaves_error_state_alone(self):
        train, test = small_sets()
        before = np.geterr()
        cfg = quick_config(lr_init=1e200, total_iterations=20, log_every=1)
        ledger = training.train_twin(train, test, cfg, hidden=(8,))
        assert ledger.diverged_at is not None
        assert np.geterr() == before

    def test_train_model_is_the_twin_erm_side_bitwise(self):
        train, test = small_sets()
        cfg = quick_config(attack=AttackSpec(radius=0.2))
        ledger = training.train_twin(train, test, cfg, hidden=(8,))
        net0 = nn.DenseNet.random((train.dim, 8, train.num_classes), "relu", cfg.seed)
        erm = training.train_model(train, net0, cfg, AttackSpec())
        assert erm.net.flatten().tobytes() == ledger.erm.net.flatten().tobytes()
        assert erm.logged == [(r.t, r.l_erm, r.erm_loss) for r in ledger.records]
        schedule, h = BatchSchedule(cfg.seed, cfg.batch_size), hashlib.sha256()
        for t in range(1, cfg.total_iterations + 1):
            h.update(schedule.indices(t, len(train)).astype("<i8").tobytes())
        assert erm.index_digest == ledger.erm.index_digest == h.hexdigest()
        assert erm.diverged_at is None

    def test_adversarial_run_stops_before_the_erm_failure(self):
        train, test = small_sets()
        cfg = quick_config(lr_init=1e200, total_iterations=20, log_every=1,
                           attack=AttackSpec(radius=0.2))
        ledger = training.train_twin(train, test, cfg, hidden=(8,))
        erm, adv = ledger.erm, ledger.adv
        assert erm.diverged_at is not None and adv.diverged_at is None
        assert ledger.diverged_at == erm.diverged_at
        # the adversarial run drew the batches of the steps ERM completed, no more
        schedule, h = BatchSchedule(cfg.seed, cfg.batch_size), hashlib.sha256()
        for t in range(1, erm.diverged_at):
            h.update(schedule.indices(t, len(train)).astype("<i8").tobytes())
        assert adv.index_digest == h.hexdigest()
        assert [r.t for r in ledger.records] == list(range(1, ledger.diverged_at))
        for net in (erm.net, adv.net):
            assert np.isfinite(net.flatten()).all()

    def test_batch_size_validated(self):
        train, test = small_sets()
        with pytest.raises(ValueError, match="exceeds"):
            training.train_twin(train, test, quick_config(batch_size=1000))

    def test_two_step_hand_trace(self):
        """Full ledger of a 2-iteration twin run reproduced in plain python."""
        x = [0.5, 2.0]
        ds = LabeledSet(np.array([[x[0]], [x[1]]]), np.array([0, 0]), 1)
        rho, alpha, steps, lr = 0.25, 0.0625, 8, 0.05
        cfg = training.TrainConfig(
            total_iterations=2, batch_size=2, log_every=1, lr_init=lr,
            lr_decay=1.0, lr_decay_every=1, momentum=0.0, weight_decay=0.0,
            attack=AttackSpec(norm="linf", radius=rho, steps=steps, step_size=alpha),
            seed=17)
        ledger = training.train_twin(ds, ds, cfg, hidden=(), loss_spec=SQUARED)

        # oracle: straight-line float trace sharing only the init and the
        # batch schedule contract (batch of size 2 == the whole set)
        net0 = nn.DenseNet.random((1, 1), "relu", seed=17)
        w_e = w_a = float(net0.weights[0][0, 0])
        b_e = b_a = 0.0

        def grads(w, b, xi):
            r = w * xi + b
            return 2.0 * r * xi, 2.0 * r  # dl/dw, dl/db

        def pgd_point(w, b, xi):
            xp = xi
            for _ in range(steps):
                g = 2.0 * (w * xp + b) * w
                s = 1.0 if g > 0 else (-1.0 if g < 0 else 0.0)
                xp = min(max(xp + alpha * s, xi - rho), xi + rho)
            return xp

        for t in (1, 2):
            # ERM side
            per = [grads(w_e, b_e, xi) for xi in x]
            l_erm = max(math.hypot(gw, gb) for gw, gb in per)
            erm_loss = sum((w_e * xi + b_e) ** 2 for xi in x) / 2.0
            mw = (per[0][0] + per[1][0]) / 2.0
            mb = (per[0][1] + per[1][1]) / 2.0
            w_e, b_e = w_e - lr * mw, b_e - lr * mb
            # adversarial side
            xs = [pgd_point(w_a, b_a, xi) for xi in x]
            per_a = [grads(w_a, b_a, xp) for xp in xs]
            l_adv = max(math.hypot(gw, gb) for gw, gb in per_a)
            adv_loss = sum((w_a * xp + b_a) ** 2 for xp in xs) / 2.0
            mw = (per_a[0][0] + per_a[1][0]) / 2.0
            mb = (per_a[0][1] + per_a[1][1]) / 2.0
            w_a, b_a = w_a - lr * mw, b_a - lr * mb

            rec = ledger.records[t - 1]
            assert rec.t == t
            assert rec.l_erm == pytest.approx(l_erm, rel=1e-12)
            assert rec.l_adv == pytest.approx(l_adv, rel=1e-12)
            assert rec.intensity == pytest.approx(l_adv / l_erm, rel=1e-12)
            assert rec.erm_loss == pytest.approx(erm_loss, rel=1e-12)
            assert rec.adv_loss == pytest.approx(adv_loss, rel=1e-12)

        assert ledger.erm.net.flatten() == pytest.approx([w_e, b_e], rel=1e-12)
        assert ledger.adv.net.flatten() == pytest.approx([w_a, b_a], rel=1e-12)


class TestLedgerCsv:
    def test_round_trip(self, tmp_path):
        train, test = small_sets()
        ledger = training.train_twin(train, test,
                                     quick_config(attack=AttackSpec(radius=0.1)),
                                     hidden=(8,))
        p = tmp_path / "ledger.csv"
        training.write_ledger_csv(ledger.records, p)
        header, *rows = p.read_text().splitlines()
        assert header == ",".join(training.LEDGER_COLUMNS)
        back = []
        for row in rows:
            t, le, la, i, el, al, deg = row.split(",")
            back.append(training.IterationRecord(int(t), float(le), float(la), float(i),
                                                 float(el), float(al), bool(int(deg))))
        assert back == ledger.records


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        net = nn.DenseNet.random((3, 5, 2), "tanh", seed=8)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        back = training.load_checkpoint(p)
        assert back.activation == "tanh"
        assert back.layer_widths == net.layer_widths
        assert np.array_equal(back.flatten(), net.flatten())

    def test_magic_enforced(self, tmp_path):
        p = tmp_path / "net.ckpt"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(training.CheckpointFormatError, match="magic"):
            training.load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        net = nn.DenseNet.random((3, 4, 2), "relu", seed=1)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(training.CheckpointFormatError, match="payload"):
            training.load_checkpoint(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        net = nn.DenseNet.random((2, 2), "relu", seed=1)
        p = tmp_path / "net.ckpt"
        training.save_checkpoint(net, p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(training.CheckpointFormatError, match="payload"):
            training.load_checkpoint(p)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "net.ckpt"
        p.write_bytes(b"RPG1\x00")
        with pytest.raises(training.CheckpointFormatError, match="header"):
            training.load_checkpoint(p)

    def test_dims_payload_mismatch_rejected(self, tmp_path):
        # header announces a 2x2 net but payload carries one extra float
        import struct
        blob = b"RPG1" + struct.pack("<BI", 0, 1) + struct.pack("<2I", 2, 2)
        blob += np.zeros(7).astype("<f8").tobytes()
        p = tmp_path / "net.ckpt"
        p.write_bytes(blob)
        with pytest.raises(training.CheckpointFormatError, match="payload"):
            training.load_checkpoint(p)
