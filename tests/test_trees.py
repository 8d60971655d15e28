import math
from fractions import Fraction

import numpy as np
import pytest

from prefixsim.errors import CapabilityError
from prefixsim.hardness import SignAssignment, SignMarginalTree
from prefixsim.streams import substream
from prefixsim.trees import (
    TableMarginalTree,
    bernoulli_kl,
    chain_rule_kl,
    kl_divergence,
    point_mass_tree,
    random_tree,
    tv_distance,
    uniform_tree,
)


def two_level_tree():
    # f(empty)=0.3, f(0)=0.6, f(1)=0.2
    return TableMarginalTree(2, [np.array([0.3]), np.array([0.6, 0.2])])


class TestMass:
    def test_uniform_by_symmetry(self):
        assert uniform_tree(3).mass("101") == 0.125

    def test_point_mass_degenerate_marginals(self):
        t = point_mass_tree("111")
        assert t.mass("111") == 1.0
        assert t.mass("011") == 0.0

    def test_product_formula_direct_evaluation(self):
        # 0.7 (bit 0 at the root) * 0.6 (bit 1 under "0")
        assert two_level_tree().mass("01") == pytest.approx(0.7 * 0.6, abs=1e-15)

    def test_length_mismatch_is_domain_error(self):
        with pytest.raises(ValueError):
            two_level_tree().mass("011")


class TestConditionalMass:
    def test_empty_prefix_is_whole_domain(self):
        assert two_level_tree().conditional_mass("") == 1.0

    def test_uniform_cylinder(self):
        assert uniform_tree(5).conditional_mass("0110") == 2.0 ** -4

    def test_direct_evaluation(self):
        assert two_level_tree().conditional_mass("0") == pytest.approx(0.7, abs=1e-15)


def level_product(tree, bits):
    """Path mass as a product of per-level table lookups, each from the root."""
    p = 1.0
    for i, b in enumerate(bits):
        f = float(tree.level(i)[int("".join(map(str, bits[:i])) or "0", 2)])
        p *= f if b else (1.0 - f)
    return p


class TestOnePathWalk:
    def test_conditional_mass_equals_the_level_product(self):
        n = 10
        tree = random_tree(n, substream(4, "walk"))
        for depth in range(n):
            for v in range(1 << depth):
                bits = tuple((v >> (depth - 1 - i)) & 1 for i in range(depth))
                assert tree.conditional_mass(bits) == level_product(tree, bits)
                assert tree.marginal(bits) == float(tree.level(depth)[v])

    def test_mass_equals_the_level_product(self):
        n = 8
        tree = random_tree(n, substream(5, "walk"))
        for v in range(1 << n):
            bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
            assert tree.mass(bits) == level_product(tree, bits)
            assert type(tree.mass(bits)) is float


class TestRealization:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masses_sum_to_one(self, seed):
        t = random_tree(10, substream(seed, "tree"))
        assert abs(t.masses().sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_rational_realization(self, seed):
        t = random_tree(8, substream(seed, "tree"))
        assert t.exact_total_mass() == Fraction(1)

    def test_enumeration_capability_gate(self):
        big = SignMarginalTree(30, SignAssignment(0), 0.5, 0.5)
        with pytest.raises(CapabilityError):
            big.masses()


class TestTvDistance:
    def test_identical(self):
        t = two_level_tree()
        assert tv_distance(t, t) == 0.0

    def test_distinct_point_masses(self):
        assert tv_distance(point_mass_tree("000"), point_mass_tree("111")) == 1.0

    def test_matches_brute_force_over_four_outcomes(self):
        a = two_level_tree()
        b = TableMarginalTree(2, [np.array([0.5]), np.array([0.1, 0.9])])
        brute = 0.5 * sum(
            abs(a.mass(x) - b.mass(x))
            for x in ("00", "01", "10", "11")
        )
        assert tv_distance(a, b) == pytest.approx(brute, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(uniform_tree(2), uniform_tree(3))


class TestKlDivergence:
    def test_identical(self):
        t = two_level_tree()
        assert kl_divergence(t, t) == 0.0

    def test_support_mismatch_is_infinite(self):
        assert kl_divergence(uniform_tree(3), point_mass_tree("111")) == math.inf
        # the reverse direction stays finite: zero-mass terms contribute 0
        assert kl_divergence(point_mass_tree("111"), uniform_tree(3)) == pytest.approx(3.0)

    def test_product_tree_additivity(self):
        # level-constant marginals make the distribution a product of Bernoullis,
        # so the divergence must equal the sum of per-level Bernoulli divergences
        pa, qa = [0.3, 0.7, 0.55], [0.4, 0.5, 0.8]
        a = TableMarginalTree(3, [np.full(1 << i, pa[i]) for i in range(3)])
        b = TableMarginalTree(3, [np.full(1 << i, qa[i]) for i in range(3)])
        expected = sum(bernoulli_kl(p, q) for p, q in zip(pa, qa))
        assert kl_divergence(a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_rule_identity(self, seed):
        rng = substream(seed, "chain")
        n = int(rng.integers(2, 9))
        a = random_tree(n, rng, 0.05, 0.95)
        b = random_tree(n, rng, 0.05, 0.95)
        assert kl_divergence(a, b) == pytest.approx(chain_rule_kl(a, b), abs=1e-9)


def test_pinsker_on_random_tree_pairs():
    # 10^4 pairs with finite divergence (positive marginals keep supports full)
    rng = substream(17, "pinsker-trees")
    for _ in range(10_000):
        a = random_tree(4, rng, 0.02, 0.98)
        b = random_tree(4, rng, 0.02, 0.98)
        kl = kl_divergence(a, b)
        tv = tv_distance(a, b)
        assert math.isfinite(kl)
        assert kl >= 2.0 * tv * tv - 1e-12


class TestBernoulliKl:
    def test_equal_probabilities(self):
        assert bernoulli_kl(0.5, 0.5) == 0.0

    def test_one_bit(self):
        assert bernoulli_kl(1.0, 0.5) == 1.0

    def test_direct_evaluation(self):
        # 0.75*log2(1.5) + 0.25*log2(0.5)
        assert bernoulli_kl(0.75, 0.5) == pytest.approx(0.188722, abs=1e-6)

    @pytest.mark.parametrize("p,q,expected", [
        (0.5, 0.0, math.inf),
        (0.5, 1.0, math.inf),
        (0.0, 0.0, 0.0),
        (1.0, 1.0, 0.0),
        (0.0, 1.0, math.inf),
    ])
    def test_degenerate_arguments(self, p, q, expected):
        assert bernoulli_kl(p, q) == expected

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bernoulli_kl(1.5, 0.5)


class TestBackings:
    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            TableMarginalTree(2, [np.array([0.5, 0.5]), np.array([0.5, 0.5])])
        with pytest.raises(ValueError):
            TableMarginalTree(1, [np.array([1.2])])

    def test_levels_are_read_only(self):
        t = uniform_tree(2)
        with pytest.raises(ValueError):
            t.level(1)[0] = 0.9
