import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import intensity

# frozen oracle value: ((1 + 3**4) / 2) ** 0.25 computed at 50 digits
COMPOSITE_1_3 = 2.53043953443524287


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

    @pytest.mark.parametrize("norm", [1e-29, 0.37, 1e300])
    def test_equal_norms_give_one(self, norm):
        _, good, failure = intensity.judge(logged([norm]), logged([norm]))
        assert failure is None and good[0].intensity == 1.0

    def test_record_is_the_hand_division_with_both_series_losses(self):
        erm = [(20, 7.0, 0.25), (40, 2.0, 0.125)]
        adv = [(20, 3.0, 0.75), (40, 5.0, 1.5)]
        records, good, failure = intensity.judge(erm, adv)
        assert failure is None and good == records
        assert records == [intensity.IterationRecord(20, 7.0, 3.0, 3.0 / 7.0, 0.25, 0.75),
                           intensity.IterationRecord(40, 2.0, 5.0, 2.5, 0.125, 1.5)]

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


@pytest.mark.parametrize("norm, zero", [
    (0.0, True), (1e-300, True), (1e-30, True),
    (float(np.nextafter(1e-30, 1.0)), False), (1.0, False),
], ids=["zero", "below", "at_floor", "next_above", "one"])
def test_a_norm_at_most_the_floor_is_degenerate(norm, zero):
    assert intensity.degenerate(norm) is zero
    records, _, _ = intensity.judge(logged([norm]), logged([1.0]))
    assert records[0].degenerate is zero and math.isnan(records[0].intensity) is zero


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

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            intensity.composite_intensity([1.0, bad, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=12), st.randoms())
    def test_order_of_the_series_does_not_matter(self, values, shuffler):
        shuffled = list(values)
        shuffler.shuffle(shuffled)
        assert intensity.composite_intensity(shuffled) == pytest.approx(
            intensity.composite_intensity(values), rel=1e-14)

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
