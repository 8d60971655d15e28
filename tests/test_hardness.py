import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixsim import hardness
from prefixsim.streams import child_seed, substream

from helpers import (draw, exact_total_mass, lane, marginal, mass, mix, sign, sign_states,
                     state_sign)


class TestSignAssignment:
    """The signs s_w of a sign tree, read through the int reference helpers.sign."""

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=24))
    @settings(max_examples=60)
    def test_deterministic_and_binary(self, bits):
        assert sign(12345, bits) == sign(12345, bits)
        assert sign(12345, bits) in (-1, 1)

    def test_traversal_order_is_irrelevant(self):
        prefixes = ["", "0", "1", "01", "10", "0110", "1001"]
        lhs = {w: sign(9, w) for w in prefixes}
        rhs = {w: sign(9, w) for w in reversed(prefixes)}
        assert lhs == rhs

    def test_signs_look_balanced(self):
        values = [sign(77, format(v, "012b")) for v in range(4096)]
        # 4 sigma band for a sum of 4096 fair signs
        assert abs(np.mean(values)) <= 4.0 / math.sqrt(4096)

    def test_seeds_decouple(self):
        values_a = [sign(1, format(v, "08b")) for v in range(256)]
        values_b = [sign(2, format(v, "08b")) for v in range(256)]
        assert values_a != values_b

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, child_seed(3, "signs"), child_seed(4, "signs")])
    def test_tree_signs_equal_the_int_signs(self, seed):
        # a sign tree with values (0, 1) puts marginal 1 exactly where the sign is +1
        tree = hardness.SignMarginalTree(12, seed, 0.0, 1.0)
        table = tree.materialize()
        for depth in (0, 1, 5, 11):
            assert table.level(depth).tolist() == [
                float(sign(seed, format(v, f"0{depth}b") if depth else "") == 1) for v in range(1 << depth)]


def test_array_mix_equals_int_mix():
    # the uint64 array steps wrap mod 2^64 exactly as the int reference masks
    z = substream(3, "mix").integers(0, 2**64, 5000, dtype=np.uint64, endpoint=False)
    z = np.concatenate((z, np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)))
    before = z.copy()
    mixed = hardness._mix(z)
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [mix(v) for v in z.tolist()]
    assert np.array_equal(z, before)          # the in-place steps work on a copy


class TestHardInstance:
    def test_marginals_are_the_two_allowed_values(self):
        inst = hardness.gen_hard_instance(100, 0.05, "yes", seed=3)
        tree = inst.marginal_tree()
        lo = hardness.challenge_marginal(-1, inst.delta)
        hi = hardness.challenge_marginal(1, inst.delta)
        for w in ("", "0", "1", "0101", "1" * 50):
            assert marginal(tree, w) in (lo, hi)

    @pytest.mark.parametrize("n", [10, 16])
    def test_oracle_view_matches_materialized_signs(self, n):
        inst = hardness.gen_hard_instance(n, 0.2, "yes", seed=4)
        tree = inst.marginal_tree()
        table = tree.materialize()
        seed = child_seed(inst.seed, "signs")
        for v in range(0, 1 << n, (1 << n) // 128 + 1):
            bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
            expected = 1.0
            for i in range(n):
                s = sign(seed, bits[:i])
                f = hardness.challenge_marginal(s, inst.delta)
                expected *= f if bits[i] else (1.0 - f)
            assert mass(tree, bits) == expected
            assert mass(table, bits) == expected

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_materialize_equals_per_prefix_marginals(self, n):
        tree = hardness.gen_hard_instance(n, 0.2, "yes", seed=n).marginal_tree()
        table = tree.materialize()
        for depth in range(n):
            assert table.level(depth).tolist() == [
                marginal(tree, format(v, f"0{depth}b") if depth else "") for v in range(1 << depth)]
        assert exact_total_mass(tree) == 1

    def test_walker_agrees_with_direct_lookup(self):
        for n, rows in ((40, 64), (128, 1), (128, 16)):
            inst = hardness.gen_hard_instance(n, 0.1, "yes", seed=5)
            tree, seed = inst.marginal_tree(), child_seed(inst.seed, "signs")
            u = substream(5, "u", n, rows).random((rows, n))
            out = np.empty((rows, n), dtype=np.uint8)
            tree.walk(out, u)
            assert out.shape == (rows, n) and out.dtype == np.uint8
            # each level's marginal from the row's int rolling state, one mix per level
            for row, uniforms in zip(out.tolist(), u.tolist()):
                for i, state in zip(range(n), sign_states(seed, row)):
                    f = hardness.challenge_marginal(state_sign(state), inst.delta)
                    assert row[i] == int(uniforms[i] < f)
            # starting below the root walks the same path as the tail of a full walk
            tail = np.empty((1, n - 7), dtype=np.uint8)
            tree.walk(tail, u[:1, 7:], depth=7, h=tree.walk(out[:1, :7]))
            assert np.array_equal(tail, out[:1, 7:])

    def test_mass_walks_the_rolling_state_once(self, monkeypatch):
        n = 128
        inst = hardness.gen_hard_instance(n, 0.1, "yes", seed=6)
        tree, x = inst.marginal_tree(), inst.x
        expected = 1.0
        for i in range(n):
            f = hardness.challenge_marginal(sign(child_seed(inst.seed, "signs"), x[:i]), inst.delta)
            expected *= f if x[i] else (1.0 - f)
        mixes = []
        mix = hardness._mix
        monkeypatch.setattr(hardness, "_mix", lambda z: mixes.append(z) or mix(z))
        assert mass(tree, x) == expected
        assert len(mixes) <= 2 * n + 1

    def test_yes_challenge_is_uniform(self):
        n, count = 16, 2000
        rows = np.array([
            hardness.gen_hard_instance(n, 0.05, "yes", seed=1000 + i).x
            for i in range(count)
        ])
        means = rows.mean(axis=0)
        assert np.all(np.abs(means - 0.5) <= 4.0 * np.sqrt(0.25 / count))

    def test_no_challenge_tilts_against_the_sign(self):
        # group no-instances by the root sign; the first bit rate must track
        # (1 - s * r) / 2 within binomial noise
        r = 0.3
        counts = {1: [0, 0], -1: [0, 0]}
        for i in range(4000):
            inst = hardness.gen_hard_instance(6, None, "no", seed=2000 + i, delta=0.2, r=r)
            s = sign(child_seed(inst.seed, "signs"), "")
            counts[s][0] += 1
            counts[s][1] += inst.x[0]
        for s in (1, -1):
            total, ones = counts[s]
            expected = hardness.tilt_marginal(s, r)
            assert abs(ones / total - expected) <= 4.0 * np.sqrt(0.25 / total)

    def test_default_r_rejected_when_invalid(self):
        with pytest.raises(ValueError):
            hardness.gen_hard_instance(3, 0.05, "no", seed=6)
        inst = hardness.gen_hard_instance(3, 0.05, "no", seed=6, r=0.25)
        assert inst.r == 0.25

    def test_yes_label_ignores_r_validity(self):
        inst = hardness.gen_hard_instance(30, 0.1, "yes", seed=7)
        assert inst.r == hardness.default_r(30) > 1.0

    def test_label_and_parameter_validation(self):
        with pytest.raises(ValueError):
            hardness.gen_hard_instance(10, 0.1, "maybe", seed=8)
        with pytest.raises(ValueError):
            hardness.gen_hard_instance(4, 3.0, "yes", seed=8)
        with pytest.raises(ValueError):
            hardness.gen_hard_instance(10, None, "yes", seed=8)


def one_row_counts(oracle, w, x, stream, draws):
    """Effective-sample counts of draws one-row draws, each walk counted in plain Python."""
    counts = []
    for _ in range(draws):
        row = w + "".join(map(str, draw(oracle, w, 1, stream)[0].tolist()))
        counts.append(sum(row[:j] == x[:j] for j in range(len(w), len(x))))
    return counts


class TestEffectiveSamples:
    def test_prefix_disjoint_from_target(self):
        inst = hardness.gen_hard_instance(8, 0.1, "yes", seed=9)
        oracle = inst.oracle()
        x = "1" + "0" * 7
        counts = hardness.effective_samples(oracle, "0", x, lane(10, "d"), 5)
        assert counts.tolist() == [0] * 5
        assert oracle.conditional_calls == 5

    def test_deepest_prefix_counts_once(self):
        inst = hardness.gen_hard_instance(8, 0.1, "yes", seed=11)
        x = inst.x
        w = "".join(map(str, x))[:7]
        counts = hardness.effective_samples(inst.oracle(), w, x, lane(12, "d"), 3)
        assert counts.tolist() == [1, 1, 1]

    def test_mean_stays_below_three(self):
        inst = hardness.gen_hard_instance(30, 0.1, "yes", seed=13)
        oracle = inst.oracle()
        draws = 3000
        counts = hardness.effective_samples(oracle, "", inst.x, lane(14, "d"), draws)
        assert counts.shape == (draws,)
        assert np.mean(counts) <= 3.0
        assert oracle.conditional_calls == draws

    @pytest.mark.parametrize("label", ["yes", "no"])
    def test_batch_equals_one_row_draws(self, label):
        n, draws = 24, 100
        inst = hardness.gen_hard_instance(n, 0.1, label, seed=15, r=0.3)
        x = "".join(map(str, inst.x))
        off_path = x[:4] + ("1" if x[4] == "0" else "0")
        for w in ("", x[:9], off_path):
            batched, looped = inst.oracle(), inst.oracle()
            counts = hardness.effective_samples(batched, w, x, lane(16, w), draws)
            assert counts.tolist() == one_row_counts(looped, w, x, lane(16, w), draws)
            assert batched.conditional_calls == looped.conditional_calls == draws
            assert (counts == 0).all() == (w == off_path)


class TestThresholdConstants:
    def test_values_at_a_million(self):
        c = hardness.threshold_constants(10**6, 0.01)
        assert c.k_high == pytest.approx(500_000 - 1732.0508075688772, abs=1e-6)
        assert c.k_low == pytest.approx(500_000 - 2449.489742783178, abs=1e-6)
        assert c.k_low < c.k_high
        assert c.log_p_low < c.log_p_high

    def test_gap_in_the_small_epsilon_limit(self):
        for n in (100, 10**4, 10**8):
            assert hardness.check_gap(n, 1e-8)

    def test_gap_on_a_small_grid(self):
        for n in (100, 1000, 10**5):
            for eps in (1e-4, 1e-3, 1 / 200):
                assert hardness.check_gap(n, eps)

    def test_validation(self):
        with pytest.raises(ValueError):
            hardness.threshold_constants(0, 0.1)
        with pytest.raises(ValueError):
            hardness.check_gap(100, 0.0)


class TestExactEnumeration:
    def test_posterior_of_off_path_signs_is_uniform(self):
        # small-scale version of the acceptance enumeration at n=2
        from fractions import Fraction

        n = 2
        r = Fraction(1, 4)
        prefixes = [(), (0,), (1,)]
        for x_bits in product((0, 1), repeat=n):
            path = {x_bits[:i] for i in range(n)}
            off = [w for w in prefixes if w not in path]
            posterior = {}
            total = Fraction(0)
            for signs in product((1, -1), repeat=len(prefixes)):
                assign = dict(zip(prefixes, signs))
                p = Fraction(1, 2 ** len(prefixes))
                for i in range(n):
                    f = hardness.tilt_marginal(assign[x_bits[:i]], r)
                    p *= f if x_bits[i] else (1 - f)
                key = tuple(assign[w] for w in off)
                posterior[key] = posterior.get(key, Fraction(0)) + p
                total += p
            for value in posterior.values():
                assert value / total == Fraction(1, 2 ** len(off))
