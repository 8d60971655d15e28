import math

import numpy as np
import pytest

from prefixsim import divergence_lab as lab
from prefixsim.streams import substream
from prefixsim.trees import bernoulli_kl, random_tree


class TestFiniteDistribution:
    def test_validation(self):
        lab.FiniteDistribution(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            lab.FiniteDistribution(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            lab.FiniteDistribution(np.array([-0.1, 1.1]))

    def test_random_distribution(self):
        d = lab.random_distribution(8, substream(0, "d"))
        assert d.k == 8
        assert np.all(d.masses > 0.0)
        assert abs(d.masses.sum() - 1.0) < 1e-12


class TestVectorKl:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert lab.vector_kl(p, p) == 0.0

    def test_support_mismatch(self):
        assert lab.vector_kl([0.5, 0.5], [1.0, 0.0]) == math.inf
        assert lab.vector_kl([1.0, 0.0], [0.5, 0.5]) == 1.0

    def test_tiny_masses_stay_finite(self):
        p = np.array([1e-300, 1.0 - 1e-300])
        q = np.array([0.5, 0.5])
        assert math.isfinite(lab.vector_kl(p, q))
        assert math.isfinite(lab.vector_kl(q, p))


class TestExpectedBinomialKl:
    def test_degenerate_probability_is_zero(self):
        for m in (1, 7, 64):
            assert lab.expected_binomial_kl(m, 0.0) == 0.0
            assert lab.expected_binomial_kl(m, 1.0) == 0.0

    def test_equality_cases(self):
        # m=1, p=1/2: both outcomes give one full bit of divergence
        assert lab.expected_binomial_kl(1, 0.5) == pytest.approx(1.0, abs=1e-12)
        # m=2, p=1/2: outcomes 0,1,2 with weights 1/4,1/2,1/4 give 1,0,1 bits
        assert lab.expected_binomial_kl(2, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_bound_and_maximum_location(self):
        grid = np.arange(0.0, 1.0001, 0.01)
        for m in (1, 2):
            values = [lab.expected_binomial_kl(m, p) for p in grid]
            assert max(values) <= 1.0 / m + 1e-12
            assert grid[int(np.argmax(values))] == pytest.approx(0.5)


class TestCheckers:
    def test_bounded_ratio_examples(self):
        assert lab.check_bounded_ratio_dkl([0.5, 0.5], [0.5, 0.5], 0.0) == (0.0, 0.0, True)
        lhs, rhs, ok = lab.check_bounded_ratio_dkl([0.55, 0.45], [0.5, 0.5], 0.1)
        assert ok and lhs == lab.vector_kl([0.55, 0.45], [0.5, 0.5]) and rhs == 0.1 * 0.1 / math.log(2.0)
        with pytest.raises(ValueError):
            lab.check_bounded_ratio_dkl([0.7, 0.3], [0.5, 0.5], 0.1)
        with pytest.raises(ValueError):
            lab.check_bounded_ratio_dkl([0.5, 0.5], [0.5, 0.5], 0.3)

    def test_symmetric_chi_square_examples(self):
        p = np.array([0.25, 0.75])
        assert lab.check_symmetric_chi_square(p, p) == (0.0, 0.0, True)
        # disjoint mass on two cells: both divergences are infinite
        assert lab.check_symmetric_chi_square([0.5, 0.5, 0.0], [0.0, 0.5, 0.5]) == (1.0, math.inf, True)

    def test_half_mixture_examples(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.6, 0.4])
        assert lab.check_half_mixture_bias(p, q, 0.0)[2]
        assert lab.check_half_mixture_bias(p, p, 0.3) == (0.0, 0.0, True)
        lhs, rhs, ok = lab.check_half_mixture_bias(p, q, 0.3)
        assert ok and 0.0 < lhs < rhs
        with pytest.raises(ValueError):
            lab.check_half_mixture_bias(p, q, 0.6)

    def test_nonadaptive_zero_bias_gives_zero(self):
        lhs, rhs, ok = lab.check_nonadaptive_run_kl([3, 5], 0.2, 0.0)
        assert lhs == 0.0 and rhs == 0.0 and ok

    def test_nonadaptive_single_index_closed_form(self):
        # one index, one draw: the run is a single bit; the balanced law is
        # Ber(1/2), the tilted law Ber((1 - r delta)/2)
        delta, r = 0.3, 0.05
        lhs, rhs, ok = lab.check_nonadaptive_run_kl([1], delta, r)
        assert lhs == pytest.approx(bernoulli_kl(0.5, (1.0 - r * delta) / 2.0), abs=1e-12)
        assert ok

    def test_nonadaptive_validation(self):
        with pytest.raises(ValueError):
            lab.check_nonadaptive_run_kl([25], 0.2, 0.05)
        with pytest.raises(ValueError):
            lab.check_nonadaptive_run_kl([3], 0.4, 0.05)

    def test_pinsker_and_identities(self):
        rng = substream(1, "p")
        p = lab.random_distribution(6, rng).masses
        q = lab.random_distribution(6, rng).masses
        lhs, rhs, ok = lab.check_pinsker(p, q)
        assert ok and lhs == 2.0 * lab.total_variation(p, q) ** 2 and rhs == lab.vector_kl(p, q)
        assert lab.check_product_additivity(p, q, q, p)
        a = random_tree(4, rng, 0.05, 0.95)
        b = random_tree(4, rng, 0.05, 0.95)
        assert lab.check_chain_rule(a, b)

    def test_pinsker_closed_form(self):
        # one bit of divergence against a total-variation distance of 1/2
        assert lab.check_pinsker([1, 0], [0.5, 0.5]) == (0.5, 1.0, True)
        assert lab.check_pinsker([0.5, 0.5], [1, 0]) == (0.5, math.inf, True)

    def test_log_bounds(self):
        for x in (-0.9, -0.5, 0.0, 0.3, 2.0, 10.0):
            assert lab.check_log_bounds(x)
        with pytest.raises(ValueError):
            lab.check_log_bounds(-1.0)

    def test_binomial_identity(self):
        assert lab.check_binomial_kl_identity(12, 0.3, 0.6)
        assert lab.check_binomial_kl_identity(1, 0.999, 0.001)


def test_sweep_all_pass_small():
    reports = lab.run_lemma_sweep(150, seed=5)
    names = {r.name for r in reports}
    assert {"bounded-ratio-kl", "symmetric-chi-square", "half-mixture-bias",
            "nonadaptive-run-kl", "pinsker"} <= names
    for report in reports:
        assert report.passed, f"{report.name}: {report.violations} violations"
        assert report.instances == 150
        record = report.as_dict()
        assert record["lemma"] == report.name
        assert record["passed"] is True
