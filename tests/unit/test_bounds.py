"""Lower bounds and cost formulas (paper §5, §7)."""

import pytest

from repro.core import bounds
from repro.core.sttsv_ndim import sttsv_ndim_lower_bound
from repro.matrix.bounds import symv_lower_bound
from repro.errors import ConfigurationError


class TestLemma51:
    def test_solution_satisfies_constraints(self):
        for n, P in [(100, 10), (1000, 30), (50, 68)]:
            x1, x2 = bounds.minimal_access_solution(n, P)
            volume = n * (n - 1) * (n - 2)
            assert x1 >= volume / (6 * P) - 1e-9
            assert x2**3 >= volume / P - 1e-6 * volume

    def test_minimal_access(self):
        n, P = 120, 30
        x1, x2 = bounds.minimal_access_solution(n, P)
        assert bounds.minimal_data_access(n, P) == pytest.approx(x1 + 2 * x2)


class TestTheorem52:
    def test_formula(self):
        n, P = 120, 30
        volume = n * (n - 1) * (n - 2)
        expected = 2 * (volume / P) ** (1 / 3) - 2 * n / P
        assert bounds.sttsv_lower_bound(n, P) == pytest.approx(expected)

    def test_bound_is_access_minus_ownership(self):
        """Theorem 5.2's bound is exactly (minimal access) − (ownership)."""
        for n, P in [(120, 30), (60, 10)]:
            difference = bounds.minimal_data_access(n, P) - bounds.initial_ownership(
                n, P
            )
            assert bounds.sttsv_lower_bound(n, P) == pytest.approx(difference)

    def test_leading_term(self):
        # The -2n/P correction is a P^{-2/3} fraction of the leading
        # term, so the relative gap shrinks as P grows.
        n = 10**6
        for P, rel in [(30, 0.11), (130, 0.06), (9 * 82, 0.02)]:
            assert bounds.sttsv_lower_bound(n, P) == pytest.approx(
                bounds.sttsv_lower_bound_leading(n, P), rel=rel
            )

    def test_monotone_in_p(self):
        n = 1000
        values = [bounds.sttsv_lower_bound(n, P) for P in (10, 30, 68, 130)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vacuous_bound_clamps_at_zero(self):
        # 2(8·7·6)^(1/3) − 16 ≈ −2.10, 2(8·7·6·5)^(1/4) − 16 ≈ −3.20
        # and 2(8·7)^(1/2) − 16 ≈ −1.03.
        assert bounds.sttsv_lower_bound(8, 1) == 0.0
        assert sttsv_ndim_lower_bound(8, 1, 4) == 0.0
        assert sttsv_ndim_lower_bound(8, 1, 3) == 0.0
        assert symv_lower_bound(8, 1) == 0.0

    def test_tightness_ratio_refuses_a_vacuous_bound(self):
        assert bounds.sttsv_lower_bound(1, 10) == 0.0
        with pytest.raises(ConfigurationError, match="no tightness ratio"):
            bounds.bound_tightness_ratio(1, 2)


class TestAlgorithmCosts:
    def test_processors_for_q(self):
        assert bounds.processors_for_q(2) == 10
        assert bounds.processors_for_q(3) == 30
        assert bounds.processors_for_q(4) == 68
        with pytest.raises(ConfigurationError):
            bounds.processors_for_q(6)

    def test_optimal_cost_formula(self):
        # q=3, n=120: 2(120·4/10 − 120/30) = 2(48 − 4) = 88.
        assert bounds.optimal_bandwidth_cost(120, 3) == pytest.approx(88.0)

    def test_all_to_all_cost_formula(self):
        # q=3, n=120: 4·120/4 · (1 − 1/30) = 116.
        assert bounds.all_to_all_bandwidth_cost(120, 3) == pytest.approx(116.0)

    def test_all_to_all_about_twice_lower_bound_leading(self):
        n, q = 10**6, 9
        P = bounds.processors_for_q(q)
        ratio = bounds.all_to_all_bandwidth_cost(n, q) / bounds.sttsv_lower_bound(
            n, P
        )
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_optimal_matches_lower_bound_leading_term(self):
        """§7.2.2: (q²+1)/(q+1) ≈ P^{1/3}, so the ratio tends to 1."""
        n = 10**7
        ratios = [bounds.bound_tightness_ratio(n, q) for q in (3, 9, 27, 81)]
        assert all(r >= 1.0 - 1e-9 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))  # improving
        assert ratios[-1] == pytest.approx(1.0, abs=0.02)


class TestScheduleAndComputation:
    def test_schedule_step_count_integer(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            steps = bounds.schedule_step_count(q)
            assert steps * 2 == q**3 + 3 * q * q - 2

    def test_computation_exact_leading(self):
        q = 3
        P = bounds.processors_for_q(q)
        n = (q * q + 1) * 60
        exact = bounds.computation_cost_exact(n, q)
        leading = bounds.computation_cost_leading(n, P)
        assert exact == pytest.approx(leading, rel=0.15)

    def test_computation_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            bounds.computation_cost_exact(121, 3)

    def test_sequential_counts(self):
        counts = bounds.sequential_ternary_counts(10)
        assert counts == {"naive": 1000, "symmetric": 550}

    def test_storage_leading(self):
        assert bounds.storage_words_leading(120, 30) == pytest.approx(
            120**3 / 180
        )

    def test_sequence_bandwidth(self):
        assert bounds.sequence_approach_bandwidth(100, 10) == pytest.approx(90.0)
