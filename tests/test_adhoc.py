import numpy as np
import pytest

from prefixsim import adhoc
from prefixsim.errors import CapabilityError
from prefixsim.streams import substream


class TestGenInstance:
    def test_two_point_support(self):
        inst = adhoc.gen_instance(1000, 0.2, 0.0, substream(0, "g"))
        values = set(np.round(inst.probabilities, 12))
        assert values <= {0.4, 0.6}

    def test_delta_zero_collapses_to_half(self):
        inst = adhoc.gen_instance(100, 0.0, 0.0, substream(1, "g"))
        assert np.all(inst.probabilities == 0.5)

    def test_low_fraction_binomial_statistics(self):
        n = 100_000
        inst = adhoc.gen_instance(n, 0.2, 0.08, substream(2, "g"))
        low_fraction = np.mean(inst.probabilities == 0.4)
        # (1 + r)/2 = 0.54, 3 sigma band
        assert abs(low_fraction - 0.54) <= 3.0 * np.sqrt(0.54 * 0.46 / n)

    @pytest.mark.parametrize("delta,r", [(1 / 3, 0.0), (0.5, 0.0), (0.1, 1 / 12), (-0.1, 0.0), (0.1, -0.01)])
    def test_family_parameter_validation(self, delta, r):
        with pytest.raises(ValueError):
            adhoc.gen_instance(10, delta, r, substream(3, "g"))


class TestSampling:
    def test_degenerate_indexes(self):
        inst = adhoc.AdHocInstance([1.0, 0.0])
        rng = substream(4, "s")
        assert inst.sample_many([10, 10], rng).tolist() == [10, 0]
        assert inst.draws.tolist() == [10, 10]
        assert inst.total_draws == 20

    def test_index_bounds(self):
        inst = adhoc.AdHocInstance([0.5])
        with pytest.raises(ValueError):
            inst.sample_many([1, 1], substream(5, "s"))
        with pytest.raises(ValueError):
            inst.sample_many([-1], substream(5, "s"))
        assert inst.total_draws == 0

    def test_binomial_statistics(self):
        inst = adhoc.AdHocInstance([0.4])
        rng = substream(6, "s")
        draws = 10_000
        mean = inst.sample_many([draws], rng)[0] / draws
        assert abs(mean - 0.4) <= 3.0 * np.sqrt(0.4 * 0.6 / draws)

    def test_bulk_sampling_counts(self):
        inst = adhoc.AdHocInstance([0.3, 0.7, 0.5])
        rng = substream(7, "s")
        ones = inst.sample_many([100, 0, 50], rng)
        assert ones.shape == (3,)
        assert inst.draws.tolist() == [100, 0, 50]
        assert 0 <= ones[0] <= 100 and ones[1] == 0 and 0 <= ones[2] <= 50


def test_balanced_family_is_exchangeable_across_indexes():
    # per-index low-value counts over many instances must be identically
    # distributed; compare the two halves of the index range with a
    # two-sample KS test at the 1% level
    n, instances = 60, 800
    low_counts = np.zeros(n)
    for t in range(instances):
        inst = adhoc.gen_instance(n, 0.2, 0.0, substream(20, "g", t))
        low_counts += inst.probabilities == 0.4
    first, second = np.sort(low_counts[: n // 2]), np.sort(low_counts[n // 2 :])
    grid = np.unique(np.concatenate([first, second]))
    cdf_a = np.searchsorted(first, grid, side="right") / first.size
    cdf_b = np.searchsorted(second, grid, side="right") / second.size
    ks = np.max(np.abs(cdf_a - cdf_b))
    # asymptotic two-sample critical value: c(0.01) * sqrt((m + k) / (m k))
    critical = 1.628 * np.sqrt((first.size + second.size) / (first.size * second.size))
    assert ks <= critical


class TestTesterParameters:
    def test_arithmetic(self):
        n_prime, q, threshold = adhoc.tester_parameters(0.5, 0.25)
        assert n_prime == 240
        assert q == 40.0
        # expected loop count n' q = 9600; threshold midway between the
        # balanced mean 4800 and the tilted mean 4800 - 600
        assert q * n_prime == 9600.0
        assert threshold == pytest.approx(4500.0, abs=1e-9)

    def test_float_noise_in_n_prime(self):
        n_prime, _, _ = adhoc.tester_parameters(0.3, 1 / 13)
        assert n_prime == 2535  # 15 * 169 exactly


class TestTester:
    def test_all_ones_instance_accepts(self):
        n_prime, _, _ = adhoc.tester_parameters(0.3, 0.08)
        inst = adhoc.AdHocInstance(np.ones(n_prime))
        res = adhoc.run_ad_hoc_tester(inst, 0.3, 0.08, substream(8, "t"))
        assert res.accepted
        assert res.ones == res.loop_count

    def test_instance_too_small_is_reported(self):
        inst = adhoc.AdHocInstance(np.full(10, 0.5))
        with pytest.raises(CapabilityError):
            adhoc.run_ad_hoc_tester(inst, 0.3, 0.08, substream(9, "t"))

    def test_distinguishes_families(self):
        delta, r = 0.3, 1 / 13
        outcomes = {"balanced": 0, "tilted": 0}
        trials = 40
        for t in range(trials):
            balanced = adhoc.gen_instance(2535, delta, 0.0, substream(10, "b", t))
            if adhoc.run_ad_hoc_tester(balanced, delta, r, substream(11, "b", t)).accepted:
                outcomes["balanced"] += 1
            tilted = adhoc.gen_instance(2535, delta, r, substream(10, "t", t))
            if not adhoc.run_ad_hoc_tester(tilted, delta, r, substream(11, "t", t)).accepted:
                outcomes["tilted"] += 1
        assert outcomes["balanced"] >= 0.8 * trials
        assert outcomes["tilted"] >= 0.8 * trials

    def test_budget_concentrates_at_expected_loops(self):
        delta, r = 0.3, 0.08
        n_prime, q, _ = adhoc.tester_parameters(delta, r)
        runs = 100
        loops = []
        for t in range(runs):
            inst = adhoc.gen_instance(n_prime, delta, 0.0, substream(12, "g", t))
            res = adhoc.run_ad_hoc_tester(inst, delta, r, substream(13, "t", t))
            loops.append(res.loop_count)
            assert inst.total_draws == res.loop_count
        mean = np.mean(loops)
        sigma_of_mean = np.sqrt(n_prime * q / runs)  # Poisson variance
        assert abs(mean - n_prime * q) <= 4.0 * sigma_of_mean

    def test_tester_needs_positive_gap(self):
        inst = adhoc.AdHocInstance(np.full(100, 0.5))
        with pytest.raises(ValueError):
            adhoc.run_ad_hoc_tester(inst, 0.0, 0.08, substream(14, "t"))
        with pytest.raises(ValueError):
            adhoc.run_ad_hoc_tester(inst, 0.3, 0.0, substream(14, "t"))
