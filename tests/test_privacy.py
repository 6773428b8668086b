import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import intensity, nn, privacy
from advlab.data import LabeledSet, synth_blobs
from conftest import CLIP_M, net_from_layers

mp.mp.dps = 50


def compose_oracle(eps_list, delta_prime, n):
    """Independent high-precision evaluation of the composition formula."""
    eps = [mp.mpf(float(e)) for e in eps_list]  # exact binary conversion
    first = mp.sqrt(2 * mp.log(mp.mpf(n) / mp.mpf(float(delta_prime)))
                    * mp.fsum(e ** 2 for e in eps))
    second = mp.fsum(e * (mp.e ** e - 1) / (mp.e ** e + 1) for e in eps)
    return first + second


# frozen via compose_oracle([0.1], 1, N) with N/delta' = 100: 50-digit value
COMPOSE_HAND = 0.30848126337324882


class TestCollectNoise:
    def test_exhaustive_batch_degenerate(self):
        ds = synth_blobs(10, 2, 3, 1.0, seed=1)
        net = nn.DenseNet.random((3, 4, 2), "relu", seed=2)
        with pytest.raises(privacy.DegenerateNoiseError):
            privacy.collect_noise(net, ds, tau=len(ds), n_batches=4,
                                  components_per_batch=5, seed=3, clip_m=CLIP_M)

    def test_unit_standard_deviation(self):
        ds = synth_blobs(20, 3, 4, 1.0, seed=4)
        net = nn.DenseNet.random((4, 6, 3), "relu", seed=5)
        sample = privacy.collect_noise(net, ds, tau=8, n_batches=30,
                                       components_per_batch=12, seed=6, clip_m=CLIP_M)
        assert abs(float(np.std(sample.values)) - 1.0) <= 1e-12
        assert sample.divisor > 0

    def test_values_are_read_only(self):
        ds = synth_blobs(20, 3, 4, 1.0, seed=4)
        net = nn.DenseNet.random((4, 6, 3), "relu", seed=5)
        sample = privacy.collect_noise(net, ds, tau=8, n_batches=3,
                                       components_per_batch=12, seed=6, clip_m=CLIP_M)
        assert not sample.values.flags.writeable
        with pytest.raises(ValueError):
            sample.values[0] = 0.0

    def test_hand_trace_two_point_linear_model(self):
        # logits z = (0, x) with label 0; points x=1 and x=3: dl/dz = (-s, s) with
        # s = sigmoid(x), so the per-example gradient (W00, W10, b0, b1) is
        # (-s x, s x, -s, s); a tau=1 batch minus the two-point mean is
        # +-(g(1) - g(3)) / 2, whose components are +-a/2 and +-c/2 with
        # a = 3 s(3) - s(1) and c = s(3) - s(1)
        ds = LabeledSet(np.array([[1.0], [3.0]]), np.array([0, 0]), 2)
        net = net_from_layers((np.array([[0.0], [1.0]]),), (np.zeros(2),), "relu")
        s1, s3 = (1.0 / (1.0 + math.exp(-x)) for x in (1.0, 3.0))
        a, c = 3.0 * s3 - s1, s3 - s1
        sample = privacy.collect_noise(net, ds, tau=1, n_batches=8,
                                       components_per_batch=2, seed=7, clip_m=CLIP_M)
        raw = sample.values * sample.divisor
        allowed = (-a / 2, -c / 2, c / 2, a / 2)
        assert all(min(abs(v - w) for w in allowed) <= 1e-12 for v in raw)
        assert abs(float(np.std(sample.values)) - 1.0) <= 1e-12


class TestFitLaplace:
    def test_closed_form_three_points(self):
        fit = privacy.fit_laplace(np.array([-1.0, 0.0, 1.0]))
        assert fit.location == 0.0
        assert fit.scale == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert fit.count == 3

    def test_lower_median_for_even_counts(self):
        fit = privacy.fit_laplace(np.array([4.0, 1.0, 2.0, 3.0]))
        assert fit.location == 2.0  # lower of the two middle values

    def test_monte_carlo_recovers_scale(self):
        # matches the documented histogram scale Lap(0, 0.15)
        rng = np.random.default_rng(12345)
        draws = rng.laplace(loc=0.0, scale=0.15, size=1_000_000)
        fit = privacy.fit_laplace(draws)
        assert 0.1485 <= fit.scale <= 0.1515
        assert abs(fit.location) < 1e-3

    def test_mirrored_sample_centers_at_zero(self):
        v = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
        fit = privacy.fit_laplace(v)
        assert abs(fit.location) <= 1e-12



def per_step(l_erm, i, n, b, delta_prime=1.0):
    """The per-step epsilon of a one-step (L_erm, I) series."""
    return privacy.budgets([l_erm], [i], 1, n, b, delta_prime)[0][0]


def leading(l_1t, i_1t, t, n, b, delta_prime):
    """The leading-term budget of a one-step series, whose composites are its own values."""
    return privacy.budgets([l_1t], [i_1t], t, n, b, delta_prime)[1]["leading_thm5"]


def erm(l_1t, t, n, b, delta_prime):
    """The ERM-corollary budget of a one-step series."""
    return privacy.budgets([l_1t], [1.0], t, n, b, delta_prime)[1]["erm_corollary"]


class TestPerStepEpsilon:
    def test_hand_arithmetic(self):
        assert per_step(1.0, 1.0, 100, 0.1) == pytest.approx(0.2, rel=1e-15)

    def test_doubling_n_halves_exactly(self):
        a = per_step(0.7, 1.3, 500, 0.05)
        b = per_step(0.7, 1.3, 1000, 0.05)
        assert a == 2 * b

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            per_step(1.0, 1.0, 100, 0.0)


class TestCompose:
    def test_all_zero_steps(self):
        assert privacy.compose([0.0] * 10, 1.0, 100).epsilon == 0.0

    def test_empty_series_is_null_budget(self):
        b = privacy.compose([], 1.0, 100)
        assert b.epsilon == 0.0 and b.delta == 0.01

    def test_hand_example_frozen(self):
        # eps_1 = 0.1 with N / delta' = 100
        b = privacy.compose([0.1], 1.0, 100)
        assert b.epsilon == pytest.approx(COMPOSE_HAND, abs=1e-12)
        assert b.delta == pytest.approx(0.01, rel=1e-15)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            t = int(rng.integers(1, 40))
            eps = rng.uniform(1e-6, 0.5, size=t)
            dp = float(rng.uniform(0.1, 5.0))
            n = int(rng.integers(10, 100000))
            got = privacy.compose(eps, dp, n).epsilon
            want = float(compose_oracle(eps, dp, n))
            assert got == pytest.approx(want, rel=1e-12)

    def test_strictly_increasing_in_each_step(self):
        eps = [0.05, 0.1, 0.2]
        base = privacy.compose(eps, 1.0, 1000).epsilon
        for i in range(3):
            bumped = list(eps)
            bumped[i] += 1e-6
            assert privacy.compose(bumped, 1.0, 1000).epsilon > base

    def test_delta_prime_domain(self):
        with pytest.raises(ValueError):
            privacy.compose([0.1], 100.0, 100)
        with pytest.raises(ValueError):
            privacy.compose([0.1], 0.0, 100)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            privacy.compose([-0.1], 1.0, 100)

    @pytest.mark.filterwarnings("error")
    def test_huge_step_composes_to_a_finite_epsilon(self):
        # e^800 overflows a double; tanh(800 / 2) == 1 does not
        b = privacy.compose([800.0], 0.5, 1)
        assert b.epsilon == pytest.approx(math.sqrt(2 * math.log(2) * 800.0 ** 2) + 800.0,
                                          rel=1e-15)

    def test_nan_epsilon_is_not_a_budget(self):
        with pytest.raises(ValueError, match="budget"):
            privacy.PrivacyBudget(float("nan"), 0.1, "composed_thm4")

    def test_purity_bitwise(self):
        eps = np.linspace(0.001, 0.3, 50)
        a = privacy.compose(eps, 0.7, 4321).epsilon
        b = privacy.compose(eps, 0.7, 4321).epsilon
        assert a == b


# frozen: (2*1*2/(1000*0.1)) * sqrt(2*100*ln(1000)) at 50 digits
LEADING_HAND = 1.4867688755399353788
ERM_HAND = 0.74338443776996768939


class TestLeadingEpsilon:
    def test_hand_example_frozen(self):
        b = leading(1.0, 2.0, 100, 1000, 0.1, 1.0)
        assert b.epsilon == pytest.approx(LEADING_HAND, rel=1e-14)
        assert b.delta == pytest.approx(1e-3, rel=1e-15)
        assert b.provenance == "leading_thm5"

    def test_dominates_compose_sqrt_term_for_constant_series(self):
        # Cauchy-Schwarz collapses to equality on constant series, so the
        # leading term must be >= the sqrt part of the composed budget
        n, b, dp, t = 2000, 0.2, 1.0, 50
        l, i = 0.8, 1.7
        eps, budgets = privacy.budgets([l] * t, [i] * t, t, n, b, dp)
        sqrt_term = math.sqrt(2 * math.log(n / dp) * t * eps[0] ** 2)
        lead = budgets["leading_thm5"].epsilon
        assert lead >= sqrt_term - 1e-12
        assert lead == pytest.approx(sqrt_term, rel=1e-12)

    def test_inputs_snapshot(self):
        b = leading(1.0, 2.0, 100, 1000, 0.1, 1.0)
        assert b.inputs == {"l_erm_1t": 1.0, "i_1t": 2.0, "t": 100, "n": 1000,
                            "b": 0.1, "delta_prime": 1.0}


class TestErmEpsilon:
    def test_equals_leading_at_unit_intensity(self):
        a = erm(0.9, 80, 5000, 0.15, 1.0)
        b = leading(0.9, 1.0, 80, 5000, 0.15, 1.0)
        assert a.epsilon == b.epsilon
        assert a.provenance == "erm_corollary"

    def test_ratio_is_composite_intensity(self):
        _, budgets = privacy.budgets([0.9], [1.8], 80, 5000, 0.15, 1.0)
        lead, base = budgets["leading_thm5"].epsilon, budgets["erm_corollary"].epsilon
        assert lead / base == pytest.approx(1.8, rel=1e-14)

    def test_hand_example_frozen(self):
        b = erm(1.0, 100, 1000, 0.1, 1.0)
        assert b.epsilon == pytest.approx(ERM_HAND, rel=1e-14)


class TestBudgets:
    """``privacy.budgets`` over a run's non-degenerate records, as ``run_experiment`` calls it."""

    def rec(self, t, l_erm, l_adv, degenerate=False):
        i = float("nan") if degenerate else l_adv / l_erm
        return intensity.IterationRecord(t, l_erm, l_adv, i, 0.1, 0.1, degenerate)

    def budgets(self, records, t=100):
        good = [r for r in records if not r.degenerate]
        return privacy.budgets([r.l_erm for r in good], [r.intensity for r in good], t,
                               1000, 0.1, 1.0)

    def test_composites_and_skip_count(self):
        records = [self.rec(1, 1.0, 2.0), self.rec(2, 1.0, 1.0, degenerate=True),
                   self.rec(3, 2.0, 4.0)]
        eps, budgets = self.budgets(records)
        lead = budgets["leading_thm5"].inputs
        assert lead["i_1t"] == pytest.approx(2.0, rel=1e-15)
        assert lead["l_erm_1t"] == pytest.approx(intensity.composite_intensity([1.0, 2.0]))
        assert len(records) - len(eps) == 1
        assert budgets["composed_thm4"].inputs["steps"] == len(eps)

    def test_empty_series_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self.budgets([self.rec(1, 0.0, 1.0, degenerate=True)])

    @pytest.mark.parametrize("l_erm, i", [(math.inf, 1.0), (0.5, math.nan), (-0.1, 1.0),
                                          (math.nan, 1.0), (0.5, math.inf), (0.5, -1.0),
                                          (-math.inf, 1.0)])
    def test_non_finite_or_negative_statistic_is_rejected(self, l_erm, i):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            privacy.budgets([0.5, l_erm], [1.0, i], 2, 100, 0.1, 1.0)

    @pytest.mark.parametrize("t, n, match", [(0, 100, "T must"), (2, 0, "N must"),
                                             (-3, 100, "T must"), (2, -5, "N must")])
    def test_no_step_or_no_example_is_rejected(self, t, n, match):
        with pytest.raises(ValueError, match=match):
            privacy.budgets([0.5], [1.0], t, n, 0.1, 1.0)

    @pytest.mark.parametrize("b", [-0.1, -math.inf, math.nan])
    def test_laplace_scale_that_is_not_positive_is_rejected(self, b):
        with pytest.raises(ValueError, match="Laplace scale b"):
            privacy.budgets([0.5], [1.0], 1, 100, b, 1.0)

    @pytest.mark.parametrize("delta_prime", [0.0, -1.0, 100.0, math.nan])
    def test_delta_prime_outside_zero_n_is_rejected(self, delta_prime):
        # compose checks delta' before the leading budgets take ln(N / delta')
        with pytest.raises(ValueError, match="delta_prime"):
            privacy.budgets([0.5], [1.0], 1, 100, 0.1, delta_prime)

    def test_one_row_series_has_three_positive_budgets(self):
        eps, budgets = privacy.budgets([0.5], [1.0], 1, 100, 0.1, 1.0)
        assert eps == [0.1]
        assert set(budgets) == {"composed_thm4", "leading_thm5", "erm_corollary"}
        assert all(b.epsilon > 0 and b.delta == 0.01 for b in budgets.values())

    @pytest.mark.parametrize("steps", [1, 2000])
    def test_constant_series_composes_to_leading_plus_second_order_sum(self, steps):
        # constant (L, I): composed_thm4 = leading_thm5 + T * eps * expm1(eps) / (e^eps + 1)
        l_erm, i, n, b = 0.7, 3.0, 500, 0.25
        eps, budgets = privacy.budgets([l_erm] * steps, [i] * steps, steps, n, b, 0.5)
        assert eps == [2 * l_erm * i / (n * b)] * steps
        second = steps * eps[0] * math.expm1(eps[0]) / (math.exp(eps[0]) + 1)
        assert budgets["composed_thm4"].inputs["steps"] == steps
        assert budgets["leading_thm5"].inputs["t"] == steps
        assert budgets["composed_thm4"].epsilon == pytest.approx(
            budgets["leading_thm5"].epsilon + second, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_huge_step_gives_finite_budgets(self):
        # one per-step epsilon of 800, past where e^eps overflows
        eps, budgets = privacy.budgets([400.0], [1.0], 1, 1, 1.0, 0.5)
        assert eps == [800.0]
        assert all(math.isfinite(b.epsilon) for b in budgets.values())
        assert budgets["composed_thm4"].epsilon > budgets["leading_thm5"].epsilon

    def test_composite_between_extremes(self):
        records = [self.rec(t, 1.0, 1.0 + 0.2 * t) for t in range(1, 8)]
        _, budgets = self.budgets(records)
        vals = [r.intensity for r in records]
        assert min(vals) <= budgets["leading_thm5"].inputs["i_1t"] <= max(vals)

    def test_each_budget_is_its_theorem_over_the_series(self):
        l_series, i_series, t, n, b, dp = [0.4, 0.9, 0.7], [1.5, 1.1, 2.0], 2000, 500, 0.3, 0.5
        eps, budgets = privacy.budgets(l_series, i_series, t, n, b, dp)
        assert eps == [2.0 * l * i / (n * b) for l, i in zip(l_series, i_series)]
        l_1t = intensity.composite_intensity(l_series)
        i_1t = intensity.composite_intensity(i_series)
        root = math.sqrt(2.0 * t * math.log(n / dp))
        inputs = {"l_erm_1t": l_1t, "t": t, "n": n, "b": b, "delta_prime": dp}
        assert budgets == {
            "composed_thm4": privacy.compose(eps, dp, n),
            "leading_thm5": privacy.PrivacyBudget((2.0 * l_1t * i_1t / (n * b)) * root, dp / n,
                                                  "leading_thm5", inputs | {"i_1t": i_1t}),
            "erm_corollary": privacy.PrivacyBudget((2.0 * l_1t / (n * b)) * root, dp / n,
                                                   "erm_corollary", inputs | {"i_1t": 1.0})}


class TestAccountantRelations:
    def test_composed_below_leading_plus_second_order(self):
        # the composed budget never exceeds the fourth-power-composite bound
        # rebuilt from the same series plus the second-order sum
        rng = np.random.default_rng(7)
        for _ in range(40):
            t = int(rng.integers(2, 60))
            l_series = rng.uniform(0.05, 2.0, size=t)
            i_series = rng.uniform(0.5, 3.0, size=t)
            n, b, dp = int(rng.integers(100, 100000)), float(rng.uniform(0.05, 1.0)), 1.0
            eps_series, budgets = privacy.budgets(l_series, i_series, t, n, b, dp)
            composed = budgets["composed_thm4"].epsilon
            lead = budgets["leading_thm5"].epsilon
            second = float(np.sum([e * (math.exp(e) - 1) / (math.exp(e) + 1)
                                   for e in eps_series]))
            assert composed <= lead + second + 1e-12

    def test_rate_in_sample_size(self):
        # leading eps times N / sqrt(ln N) is constant when delta' = 1
        vals = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            eps = leading(1.0, 2.0, 100, n, 0.1, 1.0).epsilon
            vals.append(eps * n / math.sqrt(math.log(n)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)


class TestHistogram:
    def test_fixed_bin_layout(self):
        edges, counts = privacy.noise_histogram(np.array([0.0, 0.5, -9.99, 20.0]))
        assert len(edges) == 202 and len(counts) == 201
        assert edges[0] == -10.0 and edges[-1] == 10.0
        assert counts.sum() == 3  # the 20.0 falls outside the window

    def test_counts_over_slices_equal_one_histogram_call(self):
        rng = np.random.default_rng(4)
        v = rng.laplace(scale=4.0, size=3 * privacy.HISTOGRAM_SLICE + 5)
        v[:5] = [-10.0, 10.0, 0.1, -0.1, 25.0]  # window ends, bin edges, one outside
        edges, counts = privacy.noise_histogram(v)
        ref_counts, ref_edges = np.histogram(v, bins=privacy.HISTOGRAM_BINS,
                                             range=privacy.HISTOGRAM_RANGE)
        np.testing.assert_array_equal(edges, ref_edges)
        np.testing.assert_array_equal(counts, ref_counts)
        assert counts.dtype == ref_counts.dtype

    def test_total_mass_for_in_window_data(self):
        rng = np.random.default_rng(3)
        v = rng.laplace(size=5000) / 3
        _, counts = privacy.noise_histogram(v)
        assert counts.sum() == 5000

