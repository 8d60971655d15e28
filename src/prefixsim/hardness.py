"""Hard-instance pair for lower-bound experiments on mass estimation.

Each prefix w gets an independent uniform sign s_w in {+1, -1}.  The input
distribution mu has marginals (1 + s_w * delta) / 2; a tilted companion mu'
has marginals (1 - s_w * r) / 2.  A yes-instance pairs mu with a uniformly
drawn challenge element, a no-instance draws the challenge from mu'.  With
delta = sqrt(2) * eps / sqrt(n) and r = 8 / sqrt(n), telling the two cases
apart is as hard as estimating masses within a (1 +- eps) factor.

mu and mu' are SignMarginalTrees on one seed, child_seed(seed, "signs"), so
they share their signs.  A sign is a pure function of (seed, prefix): the
trees' walk carries a rolling 64-bit mix down each path, one step per
level, and each step is one splitmix pass over the state's three keys (its
sign's and its two children's).  So instances with n in the thousands need
no storage, and every walk order sees the same signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bits import element_bits, prefix_bits
from .oracles import PrefixOracle, TreeOracle
from .streams import _StreamGroup, child_seed, substream
from .trees import MarginalTree

_MASK64 = (1 << 64) - 1
_SIGN_TAG = 0x632D65B727C07E85
# a state's step keys as a column: its sign's, then its children's along bits 0 and 1
_STEP_KEYS = np.array([[_SIGN_TAG], [1], [2]], dtype=np.uint64)
# splitmix64's constants and shifts as uint64 scalars, so array steps convert nothing
_GAMMA, _MUL1, _MUL2 = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9),
                        np.uint64(0x94D049BB133111EB))
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on a uint64 array; a bijective 64-bit scrambler.

    The steps wrap mod 2^64 as uint64 array arithmetic does; they run in
    place on the sum's fresh array, so z itself is left unchanged.
    """
    z = z + _GAMMA
    z ^= z >> _S30
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    return z


class SignMarginalTree(MarginalTree):
    """Marginal tree whose f(w) depends on the prefix only through a uniform sign s_w.

    A node's handle is a rolling 64-bit state: the root's is the mix of the
    seed, and a child's the mix of its parent's state xor (bit + 1).  The
    node's sign is +1 when the mix of its state xor a fixed tag is odd.  So
    signs are a pure function of (seed, prefix), walks step O(1) per level
    and nothing is stored.  A walk's level is one mix over the stacked keys
    state xor [tag, 1, 2]: the sign and both children's states at once, of
    which the bit taken picks the child.  Handles are uint64 and only ever
    enter arrays, where the mix wraps mod 2^64 (a uint64 scalar would warn
    on overflow).
    """

    _handle_dtype = np.uint64

    def __init__(self, n: int, seed: int, minus_value: float, plus_value: float):
        """Marginal is plus_value where the sign is +1 and minus_value where it is -1."""
        super().__init__(n)
        if not (0.0 <= minus_value <= 1.0 and 0.0 <= plus_value <= 1.0):
            raise ValueError("marginal values must be probabilities")
        self._root = _mix(np.array([seed & _MASK64], dtype=np.uint64))[0]
        # column 0 is the minus node's split (P[bit 1], P[bit 0]), column 1 the plus node's
        self._splits = np.array([[minus_value, plus_value], [1.0 - minus_value, 1.0 - plus_value]])

    def _step(self, depth: int, h):
        # one mix of the stacked keys: row 0 is the sign's, rows 1 and 2 the children's along bits 0 and 1
        z = _mix(h ^ _STEP_KEYS)
        split = self._splits.take(z[0] & 1, axis=1)
        # split's rows as a tuple: unpacking an array's rows costs more than the gather
        return split[0], split[1], lambda b: np.where(b, z[2], z[1])


def challenge_marginal(sign, delta):
    """One-edge probability of the input distribution: (1 + s * delta) / 2."""
    return (1 + sign * delta) / 2


def tilt_marginal(sign, r):
    """One-edge probability of the tilted companion: (1 - s * r) / 2."""
    return (1 - sign * r) / 2


def default_delta(n: int, epsilon: float) -> float:
    return math.sqrt(2.0) * epsilon / math.sqrt(n)


def default_r(n: int) -> float:
    return 8.0 / math.sqrt(n)


@dataclass
class HardInstance:
    """A labeled (distribution, challenge element) pair."""

    label: Literal["yes", "no"]
    n: int
    delta: float
    r: float
    x: tuple[int, ...]
    seed: int

    def marginal_tree(self) -> SignMarginalTree:
        """The input distribution mu, marginals (1 + s_w delta) / 2."""
        return SignMarginalTree(self.n, child_seed(self.seed, "signs"),
                                challenge_marginal(-1, self.delta),
                                challenge_marginal(1, self.delta))

    def oracle(self) -> TreeOracle:
        """A fresh prefix oracle for mu with its own draw ledger."""
        return TreeOracle(self.marginal_tree())


def hard_instance_parameters(n: int, epsilon: float | None, label: str,
                             delta: float | None = None, r: float | None = None) -> tuple[float, float]:
    """The (delta, r) of a yes- or no-instance; ValueError when they are not valid.

    epsilon, when given, must lie in (0, 1).  delta and r default to
    sqrt(2) eps / sqrt(n) and 8 / sqrt(n); the r default is only a valid
    probability shift for n > 64, so small-n no-instances must pass r
    explicitly.  A yes-instance never uses r.
    """
    if label not in ("yes", "no"):
        raise ValueError("label must be 'yes' or 'no'")
    if n < 1:
        raise ValueError("n must be at least 1")
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if delta is None:
        if epsilon is None:
            raise ValueError("pass epsilon or an explicit delta")
        delta = default_delta(n, epsilon)
    if r is None:
        r = default_r(n)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} does not give valid marginals; lower epsilon or pass delta")
    if label == "no" and not 0.0 < r < 1.0:
        raise ValueError(f"r={r} does not give valid marginals; pass r explicitly for small n")
    return delta, r


def gen_hard_instance(n: int, epsilon: float | None, label: str, seed: int, *,
                      delta: float | None = None, r: float | None = None) -> HardInstance:
    """Generate a yes- or no-instance, with hard_instance_parameters' defaults and checks."""
    delta, r = hard_instance_parameters(n, epsilon, label, delta, r)
    rng = substream(seed, "challenge")
    if label == "yes":
        x = tuple(rng.integers(0, 2, n).tolist())
    else:
        tilted = SignMarginalTree(n, child_seed(seed, "signs"), tilt_marginal(-1, r), tilt_marginal(1, r))
        bits = np.empty((1, n), dtype=np.uint8)
        tilted.walk(bits, rng.random((1, n)))
        x = tuple(bits[0].tolist())
    return HardInstance(label, n, delta, r, x, seed)


def effective_samples(oracle: PrefixOracle, w, x, stream: _StreamGroup, draws: int) -> np.ndarray:
    """Draw draws times under w; per draw, count the intermediate prefixes of x.

    Each walk produces prefixes W_j for |w| <= j <= n-1 (starting at W_|w| = w);
    its count is how many of them are prefixes of the target x.  If w itself
    is not a prefix of x, no W_j can be and every count is 0.  The draws are
    one conditional_sample_batch block of the one prefix w from the one-lane
    stream group, whose uniforms are the same doubles as draws one-row draws
    in turn, so the counts are too.
    """
    w, x = prefix_bits(w, oracle.n), element_bits(x, oracle.n)
    free = oracle.conditional_sample_batch(np.array([w], dtype=np.uint8), draws, stream)
    if x[:len(w)] != w:
        return np.zeros(draws, dtype=np.int64)
    # W_j is a prefix of x while the free bits before level j agree with x
    agree = free[:, :-1] == np.array(x[len(w):-1], dtype=np.uint8)
    return 1 + np.logical_and.accumulate(agree, axis=1).sum(axis=1)


@dataclass(frozen=True)
class ThresholdConstants:
    """High/low mass cutoffs separating likely from unlikely challenge masses.

    k counts how many edges along an element's path carry the (1 + delta)/2
    marginal; the cutoffs are k_high = n/2 - sqrt(3 n) and
    k_low = n/2 - sqrt(6 n), with the corresponding masses
    p = 2^-n (1 + delta)^k (1 - delta)^(n - k) held in natural-log space.
    """

    n: int
    epsilon: float
    delta: float
    k_high: float
    k_low: float
    log_p_high: float
    log_p_low: float


def threshold_constants(n: int, epsilon: float) -> ThresholdConstants:
    if n < 1:
        raise ValueError("n must be at least 1")
    delta = default_delta(n, epsilon)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"epsilon={epsilon} gives delta={delta} outside (0, 1)")
    k_high = 0.5 * n - math.sqrt(3.0) * math.sqrt(n)
    k_low = 0.5 * n - math.sqrt(6.0) * math.sqrt(n)

    def log_mass(k: float) -> float:
        return -n * math.log(2.0) + k * math.log1p(delta) + (n - k) * math.log1p(-delta)

    return ThresholdConstants(n, epsilon, delta, k_high, k_low,
                              log_mass(k_high), log_mass(k_low))


def gap_margin(n: int, epsilon: float) -> float:
    """log((1 - eps) p_high) - log((1 + eps) p_low), evaluated stably.

    The two log masses are huge (order n) while their difference is order
    epsilon, so subtracting them directly loses the signal for large n;
    instead the difference is formed term by term:
    (k_high - k_low) (log1p(delta) - log1p(-delta)) minus the epsilon factor.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    c = threshold_constants(n, epsilon)
    k_spread = (math.sqrt(6.0) - math.sqrt(3.0)) * math.sqrt(n)
    mass_ratio = k_spread * (math.log1p(c.delta) - math.log1p(-c.delta))
    eps_ratio = math.log1p(epsilon) - math.log1p(-epsilon)
    return mass_ratio - eps_ratio


def check_gap(n: int, epsilon: float) -> bool:
    """Whether (1 - eps) p_high > (1 + eps) p_low."""
    return gap_margin(n, epsilon) > 0.0
