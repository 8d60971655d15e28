"""Shared test utilities."""

import functools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from prefixsim import divergence_lab as lab
from prefixsim.bits import element_bits, prefix_bits
from prefixsim.hardness import _SIGN_TAG
from prefixsim.streams import substreams
from prefixsim.trees import TableMarginalTree

#: standard normal 99th percentile
Z_99 = 2.3263478740408408


def chi2_critical_99(df: int) -> float:
    """Upper 1% chi-square quantile via the Wilson-Hilferty approximation.

    Accurate to a few tenths of a percent for df >= 3, which is plenty for
    goodness-of-fit gates.
    """
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + Z_99 * math.sqrt(h)) ** 3


def chi_square_stat(observed, expected) -> float:
    """Pearson statistic; zero-expectation cells must be unobserved."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    dead = expected == 0.0
    assert np.all(observed[dead] == 0.0), "observed mass in a zero-probability cell"
    live = ~dead
    return float(np.sum((observed[live] - expected[live]) ** 2 / expected[live]))


def prefix_rows(*prefixes: str) -> np.ndarray:
    """The '01' strings of prefixes of one depth as a (k, depth) uint8 array."""
    return np.array([[int(c) for c in w] for w in prefixes], dtype=np.uint8)


@st.composite
def prefix_blocks(draw, n: int) -> np.ndarray:
    """k prefixes of one depth in [0, n), as a (k, depth) uint8 array; repeats allowed."""
    depth = draw(st.integers(0, n - 1))
    codes = draw(st.lists(st.integers(0, (1 << depth) - 1), min_size=1, max_size=6))
    return np.array([[(c >> (depth - 1 - i)) & 1 for i in range(depth)] for c in codes],
                    dtype=np.uint8).reshape(len(codes), depth)


def lane(seed: int, *key):
    """A one-lane stream group whose lane is the stream substream(seed, *key)."""
    return substreams(seed, *key[:-1], parts=key[-1:])


def draws_after(streams) -> list[float]:
    """The next double of every lane of a stream group: where each lane stands."""
    return streams.draw(1, 1).ravel().tolist()


def draw(oracle, w: str, m: int, stream) -> np.ndarray:
    """One prefix's conditional draw: the multi-prefix draw of one prefix and a one-lane stream group."""
    return oracle.conditional_sample_batch(prefix_rows(w), m, stream)


def prefix_counts(records: list) -> dict:
    """Rows drawn per prefix: the transcript records' counts summed by prefix string."""
    counts = {}
    for r in records:
        counts[r["prefix"]] = counts.get(r["prefix"], 0) + r["count"]
    return counts


def assert_ledger(oracle, prefixes, m: int, block: np.ndarray, records: list) -> None:
    """The draw of block under prefixes charged m rows per prefix and left one record per prefix."""
    names = ["".join(map(str, w)) for w in prefixes.tolist()]
    assert oracle.conditional_calls == len(block) == m * len(names)
    charged = {}
    for w in names:
        charged[w] = charged.get(w, 0) + m
    assert prefix_counts(records) == charged
    assert [(r["prefix"], r["count"]) for r in records] == [(w, m) for w in names]
    assert [r["result"] for r in records] == [
        ["".join(map(str, row)) for row in block[j * m:(j + 1) * m].tolist()] for j in range(len(names))]
    assert [r["budget_after"] for r in records] == [m * (j + 1) for j in range(len(names))]


def assert_levels_draw(make_oracle, prefixes, m: int, streams) -> None:
    """Every levels draw returns the first columns of the full draw, at the full draw's cost.

    make_oracle() builds a fresh oracle and streams() a fresh stream group,
    one lane per prefix.  For each levels, unhooked and hooked, the draw
    charges the same ledger and leaves each lane where the full draw does;
    the hooked one records the whole rows of the full draw.
    """
    full_oracle, group = make_oracle(), streams()
    full = full_oracle.conditional_sample_batch(prefixes, m, group)
    after = draws_after(group)
    for levels in range(1, full.shape[1] + 1):
        for hooked in (False, True):
            oracle, group, records = make_oracle(), streams(), []
            if hooked:
                oracle.on_record = records.append
            block = oracle.conditional_sample_batch(prefixes, m, group, levels=levels)
            assert block.dtype == np.uint8 and np.array_equal(block, full[:, :levels])
            assert oracle.conditional_calls == full_oracle.conditional_calls
            assert draws_after(group) == after
            if hooked:
                assert_ledger(oracle, prefixes, m, full, records)


def prefix_string(depth: int, index: int) -> str:
    """The prefix of length depth whose big-endian value is index, as a '01' string."""
    return format(index | 1 << depth, "b")[1:]


def dict_counts(store: dict, oracle, m: int, seed: int, depth: int, indexes) -> list[int]:
    """Reference for the store of LazySimulation: k per (depth, index) kept in a dict, learned root first.

    Level by level from the root, each missing edge on the indexes' paths is
    drawn alone, in the order the indexes first reach it, from its own
    (seed, "edge", prefix) stream, and its k is the count of ones in the
    first free column.
    """
    for level in range(depth + 1):
        for index in indexes:
            node = level, index >> (depth - level)
            if node not in store:
                w = prefix_string(*node)
                store[node] = int(np.count_nonzero(draw(oracle, w, m, lane(seed, "edge", w))[:, 0]))
    return [store[depth, index] for index in indexes]


def slot_prefix(sim, depth: int, slot: int) -> str:
    """The prefix of a simulation's node, named by its slot at depth, read up the parent slots."""
    w = ""
    for level in range(depth, 0, -1):
        w = str(slot & 1) + w
        slot = int(sim._parents[level][slot >> 1])
    return w


def stored(sim) -> dict:
    """k of every prefix whose edge a simulation has estimated, keyed by the prefix string, read through the slots."""
    return {slot_prefix(sim, depth, slot): k for depth, ks in enumerate(sim._ks)
            for slot, k in enumerate(ks.tolist()) if k >= 0}


def level_counts(sim, depth: int) -> np.ndarray:
    """k of every prefix at depth in index order, read through the slots; the level must be full."""
    ks = stored(sim)
    return np.array([ks[prefix_string(depth, index)] for index in range(1 << depth)])


def hist(sim) -> dict:
    """Both sibling estimates of every pair a simulation has estimated, keyed (prefix string, bit)."""
    return {(w, b): Fraction(k if b else sim.m - k, sim.m) for w, k in stored(sim).items() for b in (1, 0)}


def stored_counts(sim, prefixes: np.ndarray) -> np.ndarray:
    """k of each prefix of a (k, depth) 0/1 array, as stored.

    A walk from the root reaches their slots, estimating the missing edges
    on the way root first, as every walk does, and a _step at depth
    estimates theirs.
    """
    h = sim.walk(prefixes)
    sim._step(prefixes.shape[1], h)  # first: it may estimate the level's edges
    return sim._ks[prefixes.shape[1]].take(h)


def edge(sim, w: str, b: int) -> Fraction:
    """The estimate of the edge w -> wb, k/m or (m - k)/m, estimating the pair (and its ancestors) on a miss."""
    k = int(stored_counts(sim, prefix_rows(w))[0])
    return Fraction(k if b else sim.m - k, sim.m)


def query_exact(sim, x) -> Fraction:
    """The simulated mass of x as an exact rational: the product of the edge estimates along its path."""
    bits = "".join(map(str, element_bits(x, sim.n)))
    p = Fraction(1)
    for i, b in enumerate(bits):
        p *= edge(sim, bits[:i], int(b))
    return p


def exact_total_mass(tree) -> Fraction:
    """Sum of all element masses of a tree (n <= 20) in exact rational arithmetic; telescopes to 1."""
    table = tree.materialize()
    masses = [Fraction(1)]
    for i in range(tree.n):
        fs = map(Fraction, table.level(i).tolist())
        masses = [cur * g for cur, f in zip(masses, fs) for g in (1 - f, f)]
    return sum(masses, Fraction(0))


def table_builder_levels(weights) -> list:
    """The interval code tree's levels as a table builder makes them: the reference for EncodedMarginalTree.

    The cumulative sums are padded with the total to 2^depth + 1 entries, and
    each level splits every index at once over the whole domain, with no
    bound capped below its node's own.
    """
    w = np.asarray(weights, dtype=float)
    size = w.size
    depth = max(1, (size - 1).bit_length())
    cum = np.zeros((1 << depth) + 1)
    cum[1:size + 1] = np.cumsum(w)
    cum[size + 1:] = cum[size]
    levels = []
    for level in range(depth):
        half = 1 << (depth - level - 1)
        lo = np.arange(1 << level, dtype=np.int64) * (2 * half)
        mid = lo + half
        mid_c, hi_c = np.minimum(mid, size), np.minimum(mid + half, size)
        rmass = cum[hi_c] - cum[mid]
        total = (cum[mid_c] - cum[lo]) + rmass
        ratio = np.divide(rmass, total, out=np.full(total.shape, 0.5), where=total > 0.0)
        levels.append(np.where(mid < hi_c, np.where(lo < mid_c, ratio, 1.0), 0.0))
    return levels


def uniform_tree(n: int) -> TableMarginalTree:
    return TableMarginalTree([np.full(1 << i, 0.5) for i in range(n)])


def point_mass_tree(x) -> TableMarginalTree:
    """The distribution putting all mass on the single element x."""
    xs = element_bits(x, len(x))
    levels = []
    idx = 0
    for i, b in enumerate(xs):
        level = np.zeros(1 << i)
        level[idx] = float(b)
        levels.append(level)
        idx = (idx << 1) | b
    return TableMarginalTree(levels)


def _walk_one(tree, bits) -> tuple[np.ndarray, float]:
    """The handle and cylinder mass of one prefix, walked as a block of one row."""
    p = np.ones(1)
    h = tree.walk(np.array(bits, dtype=np.uint8).reshape(1, len(bits)), p=p)
    return h, float(p[0])


def mass(tree, x) -> float:
    """The mass of the element x: its cylinder mass as a block of one full-length row."""
    return _walk_one(tree, element_bits(x, tree.n))[1]


def cylinder_mass(tree, w) -> float:
    """The mass of the strings extending the prefix w, walked as a block of one row."""
    return _walk_one(tree, prefix_bits(w, tree.n))[1]


def marginal(tree, w) -> float:
    """f(w), the probability that the bit after the prefix w is 1, at w's handle."""
    bits = prefix_bits(w, tree.n)
    return float(tree._step(len(bits), _walk_one(tree, bits)[0])[0][0])


def one_sided_expectation(a, b) -> float:
    """Exact E_{x ~ a}[max(0, 1 - b(x)/a(x))], by enumeration.

    Equals sum_x max(0, a(x) - b(x)) = d_TV(a, b); the identity behind the
    plug-in estimator of distance.estimate_tv.
    """
    diff = a.masses() - b.masses()
    return float(diff[diff > 0].sum())


MASK64 = (1 << 64) - 1


def mix(z: int) -> int:
    """The splitmix64 finalizer on Python ints, masked to 64 bits: the reference for hardness._mix."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def sign_states(seed: int, bits):
    """A sign tree's rolling states along bits, in plain ints: the root's, then one per bit."""
    state = mix(seed & MASK64)
    yield state
    for b in bits:
        state = mix(state ^ (int(b) + 1))
        yield state


def state_sign(state: int) -> int:
    return 1 if mix(state ^ _SIGN_TAG) & 1 else -1


def sign(seed: int, w) -> int:
    """The sign s_w at the prefix w (a '01' string or bit sequence) of the sign tree on seed."""
    *_, state = sign_states(seed, w)
    return state_sign(state)


# The divergence checkers on one instance: lab's row kernels on a block of one
# row.  The sweep evaluates the same kernels over blocks of instances.

def _alone(rows_fn, *fields) -> tuple:
    """rows_fn on one instance, as a block of one row; its results as Python scalars."""
    return tuple(out[0].item() for out in rows_fn(*(np.asarray(f, dtype=float)[None] for f in fields)))


def vector_kl(mu, nu) -> float:
    """KL divergence of explicit mass vectors, in bits; +inf on support mismatch."""
    p = np.asarray(mu, dtype=float)
    q = np.asarray(nu, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support")
    return lab._kl_rows(p.reshape(1, -1), q.reshape(1, -1))[0].item()


def check_bounded_ratio_dkl(mu, nu, t: float) -> tuple[float, float, bool]:
    return _alone(lab._ratio_rows, mu, nu, t)


def check_symmetric_chi_square(mu, nu) -> tuple[float, float, bool]:
    return _alone(lab._chi_square_rows, mu, nu)


def check_half_mixture_bias(mu, nu, r: float) -> tuple[float, float, bool]:
    return _alone(lab._mixture_rows, mu, nu, r)


def check_nonadaptive_run_kl(m_counts, delta: float, r: float) -> tuple[float, float, bool]:
    """The checker on one schedule, m_counts[i] bits drawn from index i."""
    schedule = np.array([int(m) for m in m_counts], dtype=np.int64)
    lhs, rhs, ok = lab._nonadaptive_rows([schedule], np.array([delta], dtype=float),
                                         np.array([r], dtype=float))
    return lhs[0].item(), rhs[0].item(), ok[0].item()


def check_pinsker(mu, nu) -> tuple[float, float, bool]:
    return _alone(lab._pinsker_rows, mu, nu)


def check_product_additivity(mu1, nu1, mu2, nu2, tol: float = 1e-9) -> bool:
    return _alone(functools.partial(lab._product_rows, tol=tol), mu1, nu1, mu2, nu2)[0]


def check_binomial_kl_identity(m: int, p: float, q: float, tol: float = 1e-9) -> bool:
    return _alone(functools.partial(lab._binomial_identity_rows, tol=tol), m, p, q)[0]


def flat_marginals(tree) -> np.ndarray:
    """A tree's 2^n - 1 marginals, level after level: one row of the chain-rule kernel."""
    table = tree.materialize()
    return np.concatenate([table.level(i) for i in range(tree.n)])


def check_chain_rule(a, b, tol: float = 1e-9) -> bool:
    return _alone(functools.partial(lab._chain_rows, tol=tol), flat_marginals(a), flat_marginals(b))[0]


def check_log_bounds(x: float) -> bool:
    return _alone(lab._log_bounds_rows, x)[0]


def chain_rule_kl(a, b) -> float:
    """KL divergence of a from b via the per-level decomposition, one node at a time.

    Sums, over every prefix w, the a-cylinder mass of w times the Bernoulli
    KL of the one-edge marginals: the scalar reference for lab._chain_rows.
    """
    if a.n != b.n:
        raise ValueError(f"trees have different lengths: {a.n} vs {b.n}")
    ta, tb = a.materialize(), b.materialize()
    total = 0.0
    weights = np.ones(1)
    for i in range(a.n):
        fa = ta.level(i)
        fb = tb.level(i)
        for j in range(1 << i):
            wgt = weights[j]
            if wgt > 0.0:
                term = lab.bernoulli_kl(float(fa[j]), float(fb[j]))
                if term == math.inf:
                    return math.inf
                total += wgt * term
        nxt = np.empty(2 << i)
        nxt[0::2] = weights * (1.0 - fa)
        nxt[1::2] = weights * fa
        weights = nxt
    return total
