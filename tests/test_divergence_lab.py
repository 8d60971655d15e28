import math

import numpy as np
import pytest

from prefixsim import divergence_lab as lab
from prefixsim.divergence_lab import bernoulli_kl, kl_divergence
from prefixsim.streams import substream
from prefixsim.trees import TableMarginalTree, random_tree

import helpers


class TestFiniteDistribution:
    def test_random_distribution(self):
        d = lab._simplex_point(8, substream(0, "d"))
        assert d.shape == (8,)
        assert np.all(d > 0.0)
        assert abs(d.sum() - 1.0) < 1e-12


class TestVectorKl:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert helpers.vector_kl(p, p) == 0.0

    def test_support_mismatch(self):
        assert helpers.vector_kl([0.5, 0.5], [1.0, 0.0]) == math.inf
        assert helpers.vector_kl([1.0, 0.0], [0.5, 0.5]) == 1.0

    def test_tiny_masses_stay_finite(self):
        p = np.array([1e-300, 1.0 - 1e-300])
        q = np.array([0.5, 0.5])
        assert math.isfinite(helpers.vector_kl(p, q))
        assert math.isfinite(helpers.vector_kl(q, p))


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
        assert helpers.check_bounded_ratio_dkl([0.5, 0.5], [0.5, 0.5], 0.0) == (0.0, 0.0, True)
        lhs, rhs, ok = helpers.check_bounded_ratio_dkl([0.55, 0.45], [0.5, 0.5], 0.1)
        assert ok and lhs == helpers.vector_kl([0.55, 0.45], [0.5, 0.5]) and rhs == 0.1 * 0.1 / math.log(2.0)
        with pytest.raises(ValueError):
            helpers.check_bounded_ratio_dkl([0.7, 0.3], [0.5, 0.5], 0.1)
        with pytest.raises(ValueError):
            helpers.check_bounded_ratio_dkl([0.5, 0.5], [0.5, 0.5], 0.3)

    def test_symmetric_chi_square_examples(self):
        p = np.array([0.25, 0.75])
        assert helpers.check_symmetric_chi_square(p, p) == (0.0, 0.0, True)
        # disjoint mass on two cells: both divergences are infinite
        assert helpers.check_symmetric_chi_square([0.5, 0.5, 0.0], [0.0, 0.5, 0.5]) == (1.0, math.inf, True)

    def test_half_mixture_examples(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.6, 0.4])
        assert helpers.check_half_mixture_bias(p, q, 0.0)[2]
        assert helpers.check_half_mixture_bias(p, p, 0.3) == (0.0, 0.0, True)
        lhs, rhs, ok = helpers.check_half_mixture_bias(p, q, 0.3)
        assert ok and 0.0 < lhs < rhs
        with pytest.raises(ValueError):
            helpers.check_half_mixture_bias(p, q, 0.6)

    def test_nonadaptive_zero_bias_gives_zero(self):
        lhs, rhs, ok = helpers.check_nonadaptive_run_kl([3, 5], 0.2, 0.0)
        assert lhs == 0.0 and rhs == 0.0 and ok

    def test_nonadaptive_single_index_closed_form(self):
        # one index, one draw: the run is a single bit; the balanced law is
        # Ber(1/2), the tilted law Ber((1 - r delta)/2)
        delta, r = 0.3, 0.05
        lhs, rhs, ok = helpers.check_nonadaptive_run_kl([1], delta, r)
        assert lhs == pytest.approx(bernoulli_kl(0.5, (1.0 - r * delta) / 2.0), abs=1e-12)
        assert ok

    def test_nonadaptive_validation(self):
        with pytest.raises(ValueError):
            helpers.check_nonadaptive_run_kl([25], 0.2, 0.05)
        with pytest.raises(ValueError):
            helpers.check_nonadaptive_run_kl([3], 0.4, 0.05)

    def test_pinsker_and_identities(self):
        rng = substream(1, "p")
        p = lab._simplex_point(6, rng)
        q = lab._simplex_point(6, rng)
        lhs, rhs, ok = helpers.check_pinsker(p, q)
        tv = float(0.5 * np.abs(p - q).sum())
        assert ok and lhs == 2.0 * tv ** 2 and rhs == helpers.vector_kl(p, q)
        assert helpers.check_product_additivity(p, q, q, p)
        a = random_tree(4, rng, 0.05, 0.95)
        b = random_tree(4, rng, 0.05, 0.95)
        assert helpers.check_chain_rule(a, b)

    def test_pinsker_closed_form(self):
        # one bit of divergence against a total-variation distance of 1/2
        assert helpers.check_pinsker([1, 0], [0.5, 0.5]) == (0.5, 1.0, True)
        assert helpers.check_pinsker([0.5, 0.5], [1, 0]) == (0.5, math.inf, True)

    def test_log_bounds(self):
        for x in (-0.9, -0.5, 0.0, 0.3, 2.0, 10.0):
            assert helpers.check_log_bounds(x)
        with pytest.raises(ValueError):
            helpers.check_log_bounds(-1.0)

    def test_binomial_identity(self):
        assert helpers.check_binomial_kl_identity(12, 0.3, 0.6)
        assert helpers.check_binomial_kl_identity(1, 0.999, 0.001)


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


# worst_margin of every checker in run_lemma_sweep(2000, seed=5), recorded
# with the one-instance-at-a-time sweep before it evaluated in batches
SWEEP_2000_SEED_5 = {
    "bounded-ratio-kl": "0x1.53b39aa339b3ep-28",
    "symmetric-chi-square": "0x1.107e94b5e1eecp-17",
    "half-mixture-bias": "0x1.47c68bfcfa806p-33",
    "nonadaptive-run-kl": "0x1.39f1a80bd1b36p-31",
    "pinsker": "0x1.0b980caa64caap-14",
    "product-additivity": "0x0.0p+0",
    "chain-rule": "0x0.0p+0",
    "edge-estimate-kl-bound": "0x1.ee86a26fc0000p-18",
    "log-bounds": "0x0.0p+0",
    "binomial-kl-identity": "0x0.0p+0",
}


def test_sweep_margins_are_pinned():
    reports = lab.run_lemma_sweep(2000, seed=5)
    assert {r.name: r.worst_margin.hex() for r in reports} == SWEEP_2000_SEED_5
    assert all(r.violations == 0 for r in reports)


def test_chunks_change_nothing(monkeypatch):
    whole = lab.run_lemma_sweep(150, seed=5)
    monkeypatch.setattr(lab, "SWEEP_CHUNK", 7)
    chunked = lab.run_lemma_sweep(150, seed=5)
    assert [(r.name, r.violations, r.worst_margin.hex()) for r in chunked] == \
           [(r.name, r.violations, r.worst_margin.hex()) for r in whole]


def _identity_triple(check):
    return lambda *instance: (0.0, 0.0, check(*instance))


def _trees(*rows):
    """The TableMarginalTrees whose marginals, level after level, are the flat rows."""
    return [TableMarginalTree(np.split(f, (2 << np.arange(len(f).bit_length() - 1)) - 1))
            for f in rows]


# each batched checker's lone call, as (lhs, rhs, ok); identities have lhs = rhs = 0
LONE_CALLS = {
    "bounded-ratio-kl": helpers.check_bounded_ratio_dkl,
    "symmetric-chi-square": helpers.check_symmetric_chi_square,
    "half-mixture-bias": helpers.check_half_mixture_bias,
    "nonadaptive-run-kl": helpers.check_nonadaptive_run_kl,
    "pinsker": helpers.check_pinsker,
    "product-additivity": _identity_triple(helpers.check_product_additivity),
    "binomial-kl-identity": _identity_triple(helpers.check_binomial_kl_identity),
    "chain-rule": _identity_triple(lambda fa, fb: helpers.check_chain_rule(*_trees(fa, fb))),
    "log-bounds": _identity_triple(helpers.check_log_bounds),
}


# The one-vector-at-a-time formulas the checkers used before they took
# blocks, kept as the reference: Python float arithmetic around 1-D numpy
# sums over the positive cells only.
def _ref_kl(p, q):
    pos = p > 0.0
    if np.any(pos & (q == 0.0)):
        return math.inf
    pp = p[pos]
    return float(np.sum(pp * (np.log2(pp) - np.log2(q[pos]))))


def _ref_pmf(m, p):
    t = np.arange(m + 1)
    coeff = np.array([math.comb(m, int(i)) for i in t], dtype=float)
    return coeff * p ** t * (1.0 - p) ** (m - t)


def _ref_inequality(fn):
    def check(*instance):
        lhs, rhs = fn(*instance)
        return lhs, rhs, lhs <= rhs + lab.SLACK
    return check


def _ref_agree(value, reference):
    if math.isinf(value) or math.isinf(reference):
        return math.isinf(value) and math.isinf(reference)
    return abs(value - reference) <= 1e-9 * max(1.0, abs(reference))


def _ref_nonadaptive(schedule, delta, r):
    lhs = 0.0
    for m in schedule.tolist():
        low, high = _ref_pmf(m, (1.0 - delta) / 2.0), _ref_pmf(m, (1.0 + delta) / 2.0)
        lhs += _ref_kl(0.5 * low + 0.5 * high, (1.0 + r) / 2.0 * low + (1.0 - r) / 2.0 * high)
    return lhs, 5.0 * r * r * delta * delta * sum(schedule.tolist())


def _ref_log_bounds(x):
    if not x > -1.0:
        raise ValueError("need x > -1")
    v = -math.log1p(x)
    if v < -x - lab.SLACK:
        return False
    if x >= -2.0 / 3.0 and v > -x + x * x + lab.SLACK:
        return False
    if x >= 0.0 and v > -x + x * x / 2.0 + lab.SLACK:
        return False
    return True


def _ref_chain_rule(fa, fb):
    a, b = _trees(fa, fb)
    return _ref_agree(kl_divergence(a, b), helpers.chain_rule_kl(a, b))


REFERENCE = {
    "bounded-ratio-kl": _ref_inequality(lambda p, q, t: (_ref_kl(p, q), t * t / math.log(2.0))),
    "symmetric-chi-square": _ref_inequality(lambda p, q: (
        float(np.sum((p - q) ** 2 / (p + q))),
        (_ref_kl(p, q) + _ref_kl(q, p)) * math.log(2.0))),
    "half-mixture-bias": _ref_inequality(lambda p, q, r: (
        _ref_kl(0.5 * p + 0.5 * q, (1.0 + r) / 2.0 * p + (1.0 - r) / 2.0 * q),
        0.5 * r * r * (_ref_kl(p, q) + _ref_kl(q, p)))),
    "nonadaptive-run-kl": _ref_inequality(_ref_nonadaptive),
    "pinsker": _ref_inequality(lambda p, q: (
        2.0 * float(0.5 * np.abs(p - q).sum()) ** 2, _ref_kl(p, q))),
    "product-additivity": _identity_triple(lambda p1, q1, p2, q2: _ref_agree(
        _ref_kl(np.outer(p1, p2).ravel(), np.outer(q1, q2).ravel()),
        _ref_kl(p1, q1) + _ref_kl(p2, q2))),
    "binomial-kl-identity": _identity_triple(lambda m, p, q: _ref_agree(
        _ref_kl(_ref_pmf(m, p), _ref_pmf(m, q)), m * bernoulli_kl(p, q))),
    "chain-rule": _identity_triple(_ref_chain_rule),
    "log-bounds": _identity_triple(_ref_log_bounds),
}


@pytest.mark.parametrize("name", sorted(LONE_CALLS))
def test_batch_equals_lone_calls_and_reference(name):
    _, draw, evaluate = next(lemma for lemma in lab.LEMMAS if lemma[0] == name)
    rng = substream(11, "batch", name)
    instances = [draw(rng) for _ in range(2400)]
    # the blocks cover every support size k, or every binomial m
    if name == "nonadaptive-run-kl":
        sizes, expected = {m for inst in instances for m in inst[0].tolist()}, range(1, 21)
    elif name == "binomial-kl-identity":
        sizes, expected = {inst[0] for inst in instances}, range(1, 31)
    elif name == "chain-rule":
        sizes, expected = {len(inst[0]) for inst in instances}, (3, 7, 15, 31)
        # the flat rows are the doubles random_tree draws, and leave the stream where it leaves it
        fresh = substream(11, "batch", name)
        for fa, fb in instances:
            n = int(fresh.integers(2, 6))
            trees = [random_tree(n, fresh, 0.05, 0.95) for _ in range(2)]
            assert all(np.array_equal(t.level(i), u.level(i))
                       for t, u in zip(trees, _trees(fa, fb)) for i in range(n))
        assert fresh.random() == rng.random()
    elif name == "log-bounds":
        # each bound's branch: x < -2/3, -2/3 <= x < 0 and x >= 0
        sizes, expected = {int(x >= -2.0 / 3.0) + int(x >= 0.0) for x, in instances}, range(3)
    else:
        sizes, expected = {len(inst[0]) for inst in instances}, range(2, 17)
    assert sizes == set(expected)
    batched = zip(*(col.tolist() for col in evaluate(instances)))
    for instance, (lhs, rhs, ok) in zip(instances, batched):
        for lone in (LONE_CALLS[name](*instance), REFERENCE[name](*instance)):
            assert (lone[0].hex(), lone[1].hex(), lone[2]) == (lhs.hex(), rhs.hex(), ok)


def _lgamma_expected_binomial_kl(m, p):
    """expected_binomial_kl's float expression, one math.lgamma term and bernoulli_kl call per outcome."""
    log_p, log_1p, lg_m = math.log(p), math.log1p(-p), math.lgamma(m + 1)
    total = 0.0
    for t in range(m + 1):
        log_w = lg_m - math.lgamma(t + 1) - math.lgamma(m - t + 1) + t * log_p + (m - t) * log_1p
        total += math.exp(log_w) * bernoulli_kl(t / m, p)
    return total


def test_expected_binomial_kl_equals_the_lgamma_expression():
    grid = (1e-300, 1e-12, 1e-3, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.999, 1.0 - 2.0 ** -53)
    lab._log_binomial_coefficients.cache_clear()
    for m in range(1, 131):
        for p in grid:
            expected = _lgamma_expected_binomial_kl(m, p).hex()
            # the first call fills m's cached row, the second reads it
            assert lab.expected_binomial_kl(m, p).hex() == expected
            assert lab.expected_binomial_kl(m, p).hex() == expected


def test_cached_binomial_rows_equal_fresh_rows():
    rng = substream(12, "binomial-rows")
    for m in range(1, 31):
        p = np.concatenate((rng.uniform(0.0, 1.0, 5), [0.0, 1e-300, 0.5, 1.0]))
        fresh = np.stack([_ref_pmf(m, x) for x in p.tolist()])
        for _ in range(2):
            assert np.array_equal(lab._binomial_rows(m, p), fresh)
        assert not lab._binomial_coefficients(m).flags.writeable


def test_pair_equals_two_simplex_points_on_twin_streams():
    for seed in range(200):
        rng, twin = substream(seed, "pair"), substream(seed, "pair")
        p, q = lab._pair(rng)
        k = int(twin.integers(2, 17))
        for one_call, alone in zip((p, q), (lab._simplex_point(k, twin), lab._simplex_point(k, twin))):
            assert one_call.tolist() == alone.tolist()
        assert rng.random() == twin.random()       # the streams stand at the same double


def test_stacked_kl_rows_equal_separate_calls():
    # each block holds rows of one length; zero cells give zero terms and +inf rows
    rng = substream(13, "stacked-kl")
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        blocks = []
        for c in rng.integers(1, 20, int(rng.integers(2, 4))).tolist():
            p, q = rng.exponential(1.0, (2, c, k)) * (rng.random((2, c, k)) > 0.1)
            blocks.append((p, q))
        stacked = lab._kl_rows(np.concatenate([p for p, _ in blocks]), np.concatenate([q for _, q in blocks]))
        separate = np.concatenate([lab._kl_rows(p, q) for p, q in blocks])
        assert [x.hex() for x in stacked.tolist()] == [x.hex() for x in separate.tolist()]
