import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import bounds, privacy

# frozen 50-digit oracle values
BETA_HAND = 0.10421095614440002257     # M=1, eps=0.1, delta=0.01
HIGH_PROB_HAND = 0.73884196726477296495  # beta=0.01, N=1000, gamma=0.05, c=1


class TestStabilityBeta:
    def test_perfectly_private_is_stable(self):
        assert bounds.stability_beta(0.0, 0.0, 5.0) == 0.0

    def test_delta_one_boundary(self):
        for m in (0.5, 1.0, 10.0):
            assert bounds.stability_beta(0.0, 1.0, m) == pytest.approx(m, rel=1e-15)

    def test_hand_example_frozen(self):
        assert bounds.stability_beta(0.1, 0.01, 1.0) == pytest.approx(BETA_HAND, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 20), st.floats(0, 1), st.floats(1e-3, 1e3))
    def test_bounded_by_m(self, eps, delta, m):
        assert bounds.stability_beta(eps, delta, m) <= m * (1 + 1e-12)

    def test_monotone_in_eps_and_delta(self):
        base = bounds.stability_beta(0.3, 0.05, 2.0)
        assert bounds.stability_beta(0.3 + 1e-6, 0.05, 2.0) >= base
        assert bounds.stability_beta(0.3, 0.05 + 1e-6, 2.0) >= base

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            bounds.stability_beta(-0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            bounds.stability_beta(0.1, 1.5, 1.0)
        with pytest.raises(ValueError):
            bounds.stability_beta(0.1, 0.5, 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            bounds.stability_beta(math.nan, 0.1, 1.0)
        with pytest.raises(ValueError, match="loss bound M"):
            bounds.stability_beta(1.0, 0.0, math.inf)


class TestOnAverageBound:
    # the on-average generalization bound is the stability beta itself
    def test_homogeneous_in_m(self):
        assert bounds.stability_beta(0.1, 0.01, 10.0) == pytest.approx(
            10 * BETA_HAND, rel=1e-14)


class TestHighProbBound:
    def test_zero_beta_leaves_only_sqrt_term(self):
        # sqrt(ln(1 / 0.05) / 100) = sqrt(ln(20)) / 10
        got = bounds.high_prob_bound(0.0, 100)
        assert got == pytest.approx(math.sqrt(math.log(20.0)) / 10, rel=1e-12)

    def test_gamma_near_one_vanishes(self, monkeypatch):
        # gamma is read from bounds.GAMMA at each call, and the report records it
        monkeypatch.setattr(bounds, "GAMMA", 1 - 1e-12)
        assert bounds.high_prob_bound(0.0, 100) < 1e-6
        assert bounds.bound_report(0.0, 0.0, 1.0, 100) == {
            "beta": 0.0, "high_prob_bound": bounds.high_prob_bound(0.0, 100),
            "gamma": 1 - 1e-12}

    def test_hand_example_frozen(self):
        assert bounds.GAMMA == 0.05
        got = bounds.high_prob_bound(0.01, 1000)
        assert got == pytest.approx(HIGH_PROB_HAND, rel=1e-13)

    def test_beta_above_m_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            bounds.high_prob_bound(2.0, 100)

    @pytest.mark.parametrize("beta, n, words", [
        (-0.1, 100, "beta"), (math.nan, 100, "beta"), (0.1, 1, "N must"), (0.1, 0, "N must"),
    ], ids=["negative-beta", "nan-beta", "one-example", "no-examples"])
    def test_domain(self, beta, n, words):
        with pytest.raises(ValueError, match=words):
            bounds.high_prob_bound(beta, n)


class TestRateChecks:
    def pipeline(self, n):
        # fixed accountant pipeline with leading-term eps and delta = 1/N
        budget = privacy.budgets([1.0], [1.0], 100, n, 1.0)[1]["leading_thm5"]
        return budget.epsilon, budget.delta

    def test_on_average_rate_sqrt_log_over_n(self):
        # first-order expansion dominates: beta * N / sqrt(ln N) stays within 5%
        vals = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            eps, delta = self.pipeline(n)
            vals.append(bounds.stability_beta(eps, delta, 1.0) * n / math.sqrt(math.log(n)))
        assert max(vals) / min(vals) <= 1.05

    def test_high_prob_sqrt_term_exact_rate(self):
        # the concentration term is exactly 1/sqrt(N)
        t1 = bounds.high_prob_bound(0.0, 10 ** 3)
        t2 = bounds.high_prob_bound(0.0, 10 ** 5)
        assert t1 / t2 == pytest.approx(math.sqrt(10 ** 5 / 10 ** 3), rel=1e-12)


class TestBoundReport:
    def test_fields_consistent(self):
        rep = bounds.bound_report(eps=0.4, delta=1e-3, m=10.0, n=2000)
        assert set(rep) == {"beta", "high_prob_bound", "gamma"}
        assert rep["beta"] == bounds.stability_beta(0.4, 1e-3, 10.0)
        assert rep["beta"] <= 10.0
        # the bound on loss / M, whose stability is beta / M, scaled back by M
        assert rep["high_prob_bound"] == pytest.approx(
            10.0 * bounds.high_prob_bound(rep["beta"] / 10.0, 2000), rel=1e-15)
        assert rep["gamma"] == bounds.GAMMA

    def test_infinite_eps_gives_beta_m(self):
        assert bounds.bound_report(math.inf, 0.1, 3.0, 100)["beta"] == 3.0

    @pytest.mark.parametrize("kwargs, words", [
        (dict(eps=math.nan), "epsilon"),
        (dict(eps=-1.0), "epsilon"),
        (dict(delta=2.0), "delta"),
        (dict(m=math.inf), "loss bound M"),
        (dict(n=1), "N must"),
    ], ids=["nan-eps", "negative-eps", "delta-2", "inf-loss-bound", "one-example"])
    def test_invalid_argument_is_rejected(self, kwargs, words):
        args = dict(eps=1.0, delta=0.0, m=10.0, n=100) | kwargs
        with pytest.raises(ValueError, match=words):
            bounds.bound_report(**args)
