import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import intensity, nn
from advlab.adversarial import AttackSpec, pgd_batch
from advlab.data import split, synth_blobs
from conftest import CLIP_M

# frozen oracle value: ((1 + 3**4) / 2) ** 0.25 computed at 50 digits
COMPOSITE_1_3 = 2.53043953443524287


class TestSingleIntensity:
    def test_equal_norms_give_one(self):
        assert intensity.single_intensity(0.7, 0.7) == 1.0

    def test_hand_division(self):
        assert intensity.single_intensity(3.0, 1.5) == 2.0

    def test_zero_denominator_degenerate(self):
        with pytest.raises(intensity.DegenerateDenominatorError):
            intensity.single_intensity(1.0, 0.0)
        with pytest.raises(intensity.DegenerateDenominatorError):
            intensity.single_intensity(1.0, 1e-31)

    def test_negative_numerator_rejected(self):
        with pytest.raises(ValueError):
            intensity.single_intensity(-1.0, 1.0)

    @pytest.mark.parametrize("l_adv, l_erm", [(math.nan, 1.0), (1.0, math.nan),
                                              (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_norm_rejected(self, l_adv, l_erm):
        # nan is not degenerate (nan <= floor is False), so it needs its own check
        with pytest.raises(nn.DivergenceError, match="non-finite"):
            intensity.single_intensity(l_adv, l_erm)


def logged(norms):
    """A logged series with these max gradient norms, every ``log_every`` = 20 steps."""
    return [(20 * (k + 1), norm, 0.5) for k, norm in enumerate(norms)]


class TestJudge:
    def test_pairs_the_series_and_skips_degenerate_records(self):
        records, good, failure = intensity.judge(logged([1.0, 1e-30, 2.0]),
                                                 logged([3.0, 1.0, 1.0]))
        assert failure is None
        assert [r.t for r in records] == [20, 40, 60]
        assert records[1].degenerate and math.isnan(records[1].intensity)  # at the floor
        assert [(r.t, r.intensity) for r in good] == [(20, 3.0), (60, 0.5)]

    def test_pairing_stops_at_the_shorter_series(self):
        records, _, _ = intensity.judge(logged([1.0, 1.0, 1.0]), logged([2.0, 2.0]))
        assert [r.t for r in records] == [20, 40]

    @pytest.mark.parametrize("erm, adv, words", [
        ([0.0, 1e-31], [1.0, 1.0], "every logged record was degenerate"),
        ([1.0, 1e-30], [1.0, 1.0], "the ERM model is dead"),
        ([1.0, 6.1e-136], [0.0, 1.0], "the ERM model is dead"),
        ([1.0, 1.0], [1.0, 1e-30], "the adversarial model is dead"),
        ([1.0, 1.0], [0.0, 1.0], "the intensity is 0"),
    ], ids=["all_degenerate", "dead_erm", "dead_erm_before_zero", "dead_adversary", "zero"])
    def test_one_failure_reason(self, erm, adv, words):
        _, _, failure = intensity.judge(logged(erm), logged(adv))
        assert failure.startswith(words), failure
        assert "\n" not in failure

    def test_empty_series_has_nothing_to_account(self):
        records, _, failure = intensity.judge([], [])
        assert records == [] and "degenerate" in failure


class TestCompositeIntensity:
    def test_constant_series(self):
        assert intensity.composite_intensity([2.5] * 7) == pytest.approx(2.5, rel=1e-15)

    def test_high_precision_pair(self):
        assert intensity.composite_intensity([1.0, 3.0]) == pytest.approx(
            COMPOSITE_1_3, rel=1e-14)

    def test_singleton(self):
        assert intensity.composite_intensity([0.37]) == pytest.approx(0.37, rel=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            intensity.composite_intensity([1.0, 0.0])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20))
    def test_bounded_by_min_and_max(self, values):
        c = intensity.composite_intensity(values)
        assert min(values) - 1e-12 <= c <= max(values) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12),
           st.floats(1e-3, 1e3))
    def test_scale_covariance(self, values, c):
        scaled = intensity.composite_intensity([c * v for v in values])
        assert scaled == pytest.approx(c * intensity.composite_intensity(values), rel=1e-12)

    def test_equals_extremes_only_when_constant(self):
        c = intensity.composite_intensity([1.0, 3.0])
        assert 1.0 < c < 3.0


def probe_instance(n_total=240, n_train=160, seed=13):
    pool = synth_blobs(n_total // 3, 3, 6, 1.2, seed=seed)
    train, _ = split(pool, n_train, seed=seed)
    e = nn.DenseNet.random((6, 12, 3), seed=seed)
    a = nn.DenseNet.random((6, 12, 3), seed=seed + 1)
    return train, e, a


class TestConsistencyProbe:
    def test_full_batch_row_equals_full_value(self):
        train, e, a = probe_instance()
        atk = AttackSpec(radius=0.3)
        rows = intensity.consistency_probe(e, a, train, atk, [len(train)], 5, seed=0,
                                           clip_m=CLIP_M)
        assert rows[0].mean_estimate == rows[0].full_value

    def test_components_monotone_under_subsetting(self):
        # batch max <= full max for numerator and denominator families
        train, e, a = probe_instance()
        atk = AttackSpec(radius=0.4)
        clean = nn.grad_params(e, train.features, train.labels, CLIP_M)[1]
        x_adv = pgd_batch(a, train.features, train.labels, atk, CLIP_M)
        adv = nn.grad_params(a, x_adv, train.labels, CLIP_M)[1]
        rng = np.random.default_rng(5)
        for _ in range(25):
            idx = rng.permutation(len(train))[:40]
            assert clean[idx].max() <= clean.max()
            assert adv[idx].max() <= adv.max()

    def test_gap_shrinks_from_eighth_to_half(self):
        # Monte Carlo on a fixed instance: larger batches estimate better
        train, e, a = probe_instance()
        n = len(train)
        atk = AttackSpec(radius=0.3)
        rows = intensity.consistency_probe(e, a, train, atk, [n // 8, n // 2, n],
                                           repeats=160, seed=21, clip_m=CLIP_M)
        gap8 = abs(rows[0].full_value - rows[0].mean_estimate)
        gap2 = abs(rows[1].full_value - rows[1].mean_estimate)
        assert gap2 < gap8
        assert rows[2].mean_estimate == rows[2].full_value

    def test_tau_validation(self):
        # the probe's caller runs this check once, before any gradient work
        n = len(probe_instance()[0])
        intensity.check_probe([1, n], 1, n)
        for taus, repeats, word in (([n + 1], 2, "tau"), ([0], 2, "tau"), ([n], 0, "repeats")):
            with pytest.raises(ValueError, match=word):
                intensity.check_probe(taus, repeats, n)

    def test_repeats_bounded_by_the_philox_steps_and_one_array(self):
        # steps j * repeats + r stay below 2**64; one float64 array holds the estimates
        n = 10
        for taus, most in (([n], np.iinfo(np.intp).max // 8), ([n] * 17, 2 ** 64 // 17)):
            intensity.check_probe(taus, most, n)
            with pytest.raises(ValueError, match="repeats"):
                intensity.check_probe(taus, most + 1, n)

    def test_probe_deterministic(self):
        train, e, a = probe_instance()
        atk = AttackSpec(radius=0.2)
        r1 = intensity.consistency_probe(e, a, train, atk, [40, 80], 16, seed=3, clip_m=CLIP_M)
        r2 = intensity.consistency_probe(e, a, train, atk, [40, 80], 16, seed=3, clip_m=CLIP_M)
        assert r1 == r2
