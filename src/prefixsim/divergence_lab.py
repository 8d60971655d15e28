"""Exact divergences, and numeric verifiers for the divergence inequalities
the algorithms rest on.

This module is the one place that knows how a divergence is computed:
bernoulli_kl, the enumerated kl_divergence and tv_distance between marginal
trees, and the row kernels of the checkers.

A checker is a row kernel, _<name>_rows: it evaluates both sides for a block
of instances stacked into 2-D arrays (anything np.asarray reads as floats),
in stable log space, and returns (lhs, rhs, ok) arrays, ok being whether
lhs <= rhs holds with 1e-12 slack for float round-off; an identity kernel
returns only whether the identity holds.  These are theorems, so a failed
check on a valid input is a build-stopping bug; the randomized sweep drives
each checker over seeded instances and reports violations and the worst
margin rhs - lhs.

Instances with the same support size k share one (c, k) block: a mass
vector's k entries, or for chain-rule a tree's 2^n - 1 marginals, level
after level; the binomial checkers group by m and read the exact
math.comb coefficients from a row cached per m.  Blocks are never padded to
a common length, because a row's sum over k entries is then the sum numpy
forms for that vector alone, while zero padding regroups numpy's pairwise
sums and moves the last bit.  So each row's result equals its kernel's result on that
instance alone, as a block of one row, bit for bit.  For the same reason a
kernel's KL terms over rows of one length share one _kl_rows call on the
rows stacked: a row's sum does not depend on the rows beside it (which
np.add.reduceat does not promise, so it is not used).  The sweep draws every
instance from its checker's stream in turn and evaluates them in chunks of
at most SWEEP_CHUNK, so memory stays bounded at any count.

Log-bounds evaluates np.log1p, which need not round like math.log1p in the
last bit; that is far below SLACK, and as an identity it reports margin 0.
Only edge-estimate-kl-bound stays scalar (_scalar): expected_binomial_kl
sums math.lgamma terms one outcome at a time, numpy's counterparts need not
round the same way, and the recorded sweep margins pin that float
expression.  It reads each m's log binomial coefficients, those math.lgamma
differences, from a row cached per m.

KL divergences are in bits throughout; inequalities stated with natural logs
carry explicit ln 2 factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .streams import substream
from .trees import MarginalTree

SLACK = 1e-12
LN2 = math.log(2.0)

#: Most instances the sweep holds and evaluates at once; a larger count runs
#: in consecutive chunks of this many, drawn in the same order.
SWEEP_CHUNK = 1024


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence of Ber(p) from Ber(q), in bits.

    Terms with p in {0, 1} contribute only their live branch; the result is
    +inf exactly when q puts zero mass where p does not.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(f"probabilities required, got p={p}, q={q}")
    total = 0.0
    if p > 0.0:
        if q == 0.0:
            return math.inf
        total += p * math.log2(p / q)
    if p < 1.0:
        if q == 1.0:
            return math.inf
        total += (1.0 - p) * math.log2((1.0 - p) / (1.0 - q))
    return total


def tv_distance(a: MarginalTree, b: MarginalTree) -> float:
    """Exact total-variation distance, by enumeration (n <= MAX_ENUM_N)."""
    if a.n != b.n:
        raise ValueError(f"trees have different lengths: {a.n} vs {b.n}")
    return float(0.5 * np.sum(np.abs(a.masses() - b.masses())))


def kl_divergence(a: MarginalTree, b: MarginalTree) -> float:
    """Exact KL divergence of a from b in bits, by enumeration.

    Returns +inf iff some element has a-mass > 0 but b-mass 0; elements with
    a-mass 0 contribute nothing.
    """
    if a.n != b.n:
        raise ValueError(f"trees have different lengths: {a.n} vs {b.n}")
    pa = a.masses()
    pb = b.masses()
    pos = pa > 0.0
    if np.any(pos & (pb == 0.0)):
        return math.inf
    return float(np.sum(pa[pos] * np.log2(pa[pos] / pb[pos])))


def _simplex_point(k: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized standard exponentials: a fully supported random point on the simplex."""
    raw = rng.exponential(1.0, k)
    return raw / raw.sum()


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL divergence in bits of each row of p from the same row of q.

    A row is +inf where q is 0 and p is not; a cell with p = 0 adds a 0
    term, so a row with zero masses may round unlike a sum over its
    positive cells alone.
    Uses log subtraction rather than mass ratios, so it stays finite and
    overflow-free for masses down to 1e-300.
    """
    pos = p > 0.0
    live = pos & (q > 0.0)
    terms = p * (np.log2(np.where(live, p, 1.0)) - np.log2(np.where(live, q, 1.0)))
    return np.where((pos & ~live).any(axis=1), math.inf, terms.sum(axis=1))


def _tv_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(p - q).sum(axis=1)


def _agree(value: np.ndarray, reference: np.ndarray, tol: float) -> np.ndarray:
    """Elementwise: |value - reference| <= tol * max(1, |reference|), or both infinite."""
    inf_v, inf_r = np.isinf(value), np.isinf(reference)
    finite = ~(inf_v | inf_r)
    diff = np.where(finite, value, 0.0) - np.where(finite, reference, 0.0)
    close = np.abs(diff) <= tol * np.maximum(1.0, np.abs(reference))
    return np.where(finite, close, inf_v & inf_r)


def expected_binomial_kl(m: int, p: float) -> float:
    """E_{t ~ Bin(m, p)} of the Bernoulli KL of t/m from p, enumerated exactly.

    This is the per-edge estimation error of an m-sample average; it is at
    most 1/m, with equality at p = 1/2 for m in {1, 2} and value 0 at
    p in {0, 1}.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if p == 0.0 or p == 1.0:
        return 0.0
    log_p = math.log(p)
    log_1p = math.log1p(-p)
    q = 1.0 - p
    total = 0.0
    for t, log_c in enumerate(_log_binomial_coefficients(m)):
        a = t / m
        # bernoulli_kl(a, p), inlined: p is inside (0, 1), so no branch is infinite
        kl = 0.0
        if a > 0.0:
            kl += a * math.log2(a / p)
        if a < 1.0:
            kl += (1.0 - a) * math.log2((1.0 - a) / q)
        total += math.exp(log_c + t * log_p + (m - t) * log_1p) * kl
    return total


@functools.lru_cache(maxsize=256)
def _log_binomial_coefficients(m: int) -> tuple[float, ...]:
    """log C(m, t) for t = 0..m, each as lgamma(m + 1) - lgamma(t + 1) - lgamma(m - t + 1)."""
    lg_m = math.lgamma(m + 1)
    return tuple(lg_m - math.lgamma(t + 1) - math.lgamma(m - t + 1) for t in range(m + 1))


def _binomial_rows(m: int, p: np.ndarray) -> np.ndarray:
    """Pmf of Bin(m, p) over {0..m}, one row per entry of p (coefficients are exact)."""
    t = np.arange(m + 1)
    p = p[:, None]
    return _binomial_coefficients(m) * p ** t * (1.0 - p) ** (m - t)


@functools.lru_cache(maxsize=64)
def _binomial_coefficients(m: int) -> np.ndarray:
    """math.comb(m, t) for t = 0..m as a read-only float row."""
    coeff = np.array([math.comb(m, i) for i in range(m + 1)], dtype=float)
    coeff.setflags(write=False)
    return coeff


def _ratio_rows(p, q, t):
    """If mu(x) is within (1 +- t) nu(x) pointwise, then KL(mu||nu) <= t^2 / ln 2."""
    good = (0.0 <= t) & (t <= 0.25 + SLACK)
    if not good.all():
        raise ValueError(f"need 0 <= t <= 1/4, got {t[~good][0]}")
    if np.any(np.abs(p - q) > t[:, None] * q * (1.0 + 1e-9) + 1e-15):
        raise ValueError("ratio precondition violated: mu is not within (1 +- t) nu pointwise")
    lhs = _kl_rows(p, q)
    rhs = t * t / LN2
    return lhs, rhs, lhs <= rhs + SLACK


def _chi_square_rows(p, q):
    """sum (mu-nu)^2 / (mu+nu) <= (KL(mu||nu) + KL(nu||mu)) * ln 2."""
    c = len(p)
    kl = _kl_rows(np.concatenate((p, q)), np.concatenate((q, p)))
    rhs = (kl[:c] + kl[c:]) * LN2
    s = p + q
    lhs = ((p - q) ** 2 / np.where(s > 0.0, s, 1.0)).sum(axis=1)
    return lhs, rhs, lhs <= rhs + SLACK


def _mixture_rows(p, q, r):
    """KL of the even mixture from the r-tilted mixture is at most
    r^2 / 2 times the symmetrized KL of the components (|r| < 1/2)."""
    good = np.abs(r) < 0.5
    if not good.all():
        raise ValueError(f"need |r| < 1/2, got {r[~good][0]}")
    col = r[:, None]
    even = 0.5 * p + 0.5 * q
    tilted = (1.0 + col) / 2.0 * p + (1.0 - col) / 2.0 * q
    pq, qp, lhs = _kl_rows(np.concatenate((p, q, even)), np.concatenate((q, p, tilted))).reshape(3, -1)
    rhs = 0.5 * r * r * (pq + qp)
    return lhs, rhs, lhs <= rhs + SLACK


def _nonadaptive_rows(schedules: list[np.ndarray], delta: np.ndarray, r: np.ndarray):
    """KL between fixed-schedule run distributions is at most 5 r^2 delta^2 q.

    A schedule draws m_i bits from index i; a run reduces to the per-index
    ones-counts, distributed as an even (balanced case) or r-tilted (biased
    case) mixture of Bin(m_i, (1 -+ delta)/2).  Takes a list of schedules of
    any lengths: every (schedule, index) entry's KL is evaluated in one block
    per m; each schedule then adds its entries' KLs one by one in schedule
    order.
    """
    lengths = np.array([len(s) for s in schedules])
    counts = np.concatenate([np.zeros(0, dtype=np.int64), *schedules])
    if np.any(counts < 0):
        raise ValueError("per-index sample counts must be non-negative")
    if np.any(counts > 20):
        raise ValueError("exact enumeration supported for per-index counts up to 20")
    good = (0.0 <= delta) & (delta < 1.0 / 3.0)
    if not good.all():
        raise ValueError(f"need 0 <= delta < 1/3, got {delta[~good][0]}")
    good = (0.0 <= r) & (r < 0.5)
    if not good.all():
        raise ValueError(f"need 0 <= r < 1/2, got {r[~good][0]}")
    owner = np.repeat(np.arange(len(schedules)), lengths)
    kl = np.empty(counts.size)
    for m, entries in _groups(counts.tolist()).items():
        d = delta[owner[entries]]
        rows = _binomial_rows(m, np.concatenate(((1.0 - d) / 2.0, (1.0 + d) / 2.0)))
        low, high = rows[:len(d)], rows[len(d):]
        col = r[owner[entries], None]
        balanced = 0.5 * low + 0.5 * high
        tilted = (1.0 + col) / 2.0 * low + (1.0 - col) / 2.0 * high
        kl[entries] = _kl_rows(balanced, tilted)
    terms = np.zeros((len(schedules), lengths.max(initial=0)))
    terms[owner, np.arange(counts.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)] = kl
    lhs = np.zeros(len(schedules))
    for column in terms.T:
        lhs += column
    rhs = 5.0 * r * r * delta * delta * np.bincount(owner, counts, len(schedules))
    return lhs, rhs, lhs <= rhs + SLACK


def _pinsker_rows(p, q):
    """2 * d_TV(mu, nu)^2 <= KL(mu||nu)."""
    # Python's float power: numpy's tv ** 2 differs from it in the last bit
    # on about one row in 2,000
    lhs = np.array([2.0 * tv ** 2 for tv in _tv_rows(p, q).tolist()])
    rhs = _kl_rows(p, q)
    return lhs, rhs, lhs <= rhs + SLACK


def _product_rows(p1, q1, p2, q2, tol: float = 1e-9):
    """KL of product distributions equals the sum of component KLs."""
    c = len(p1)
    joint = _kl_rows((p1[:, :, None] * p2[:, None, :]).reshape(c, -1),
                     (q1[:, :, None] * q2[:, None, :]).reshape(c, -1))
    return (_agree(joint, _kl_rows(p1, q1) + _kl_rows(p2, q2), tol),)


def _binomial_identity_rows(ms, p, q, tol: float = 1e-9):
    """KL(Bin(m,p) || Bin(m,q)) = m * KL(Ber(p) || Ber(q))."""
    m = int(ms[0])       # a block holds one m
    rows = _binomial_rows(m, np.concatenate((p, q)))
    bin_p, bin_q = rows[:len(p)], rows[len(p):]
    scaled = np.array([m * bernoulli_kl(a, b) for a, b in zip(p.tolist(), q.tolist())])
    return (_agree(_kl_rows(bin_p, bin_q), scaled, tol),)


def _chain_rows(fa, fb, tol: float = 1e-9):
    """Enumerated KL equals the per-level decomposition into edge KLs.

    A row holds a tree's 2^n - 1 marginals, level after level.  Each level
    adds its nodes' one-edge KLs, weighed by their a-cylinder masses, and
    splits the masses of both trees into their children's; after the last
    level they are the leaf masses, whose KL is the enumerated one.
    """
    c, nodes = fa.shape
    wa = wb = np.ones((c, 1))
    decomposed = np.zeros(c)
    for i in range(nodes.bit_length()):
        level = slice((1 << i) - 1, (2 << i) - 1)
        # each node's one-edge Bernoulli law [1 - f, f], (c, 2^i, 2)
        a, b = (np.stack((1.0 - f[:, level], f[:, level]), axis=2) for f in (fa, fb))
        edge = _kl_rows(a.reshape(-1, 2), b.reshape(-1, 2)).reshape(c, -1)
        # a zero weight masks its edge first, so that no 0 * inf is formed
        decomposed += (wa * np.where(wa > 0.0, edge, 0.0)).sum(axis=1)
        wa = (wa[:, :, None] * a).reshape(c, -1)
        wb = (wb[:, :, None] * b).reshape(c, -1)
    return (_agree(_kl_rows(wa, wb), decomposed, tol),)


def _log_bounds_rows(x):
    """Scalar facts: -ln(1+x) >= -x for x > -1; -ln(1+x) <= -x + x^2 for
    x >= -2/3; -ln(1+x) <= -x + x^2/2 for x >= 0."""
    if not np.all(x > -1.0):
        raise ValueError("need x > -1")
    v = -np.log1p(x)
    return (~(v < -x - SLACK)
            & ~((x >= -2.0 / 3.0) & (v > -x + x * x + SLACK))
            & ~((x >= 0.0) & (v > -x + x * x / 2.0 + SLACK)),)


@dataclass
class LemmaReport:
    name: str
    instances: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def as_dict(self) -> dict:
        return {"lemma": self.name, "instances": self.instances,
                "violations": self.violations, "worst_margin": self.worst_margin,
                "passed": self.passed}


def _groups(keys) -> dict:
    """The positions of each distinct key, in first-seen key order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _grouped(rows_fn, instances: list[tuple], key) -> list[np.ndarray]:
    """rows_fn's results for each instance, evaluated in one block per key.

    The instances of a block have their fields stacked, a mass vector into
    a (c, k) array and a scalar into a (c,) array; each result is scattered
    back to its instance's position.
    """
    results = None
    for idx in _groups(map(key, instances)).values():
        out = rows_fn(*(np.array(col) for col in zip(*[instances[i] for i in idx])))
        if results is None:
            results = [np.empty(len(instances), dtype=o.dtype) for o in out]
        for res, o in zip(results, out):
            res[idx] = o
    return results


def _support(instance) -> int:
    return len(instance[0])


def _inequality(rows_fn, key=_support):
    return lambda instances: _grouped(rows_fn, instances, key)


def _identity(rows_fn, key):
    def evaluate(instances):
        ok, = _grouped(rows_fn, instances, key)
        zero = np.zeros(len(ok))
        return zero, zero, ok
    return evaluate


def _scalar(case):
    """Evaluate case(instance) -> (lhs, rhs, ok) one instance at a time."""
    return lambda instances: [np.array(col) for col in zip(*map(case, instances))]


def _ratio_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """A pair with mu pointwise within (1 +- t) nu for a realized t <= 1/4.

    nu is random; mu is nu * (1 + u * t0) renormalized, with the slack from
    renormalization folded into the realized ratio bound.
    """
    k = int(rng.integers(2, 17))
    nu = _simplex_point(k, rng)
    t0 = rng.uniform(0.0, 0.2)
    while True:
        raw = nu * (1.0 + rng.uniform(-1.0, 1.0, k) * t0)
        mu = raw / raw.sum()
        realized = float(np.max(np.abs(mu / nu - 1.0)))
        if realized <= 0.25:
            return mu, nu, min(0.25, realized + 1e-12)
        t0 /= 2.0


def _nonadaptive(instances):
    schedules, delta, r = zip(*instances)
    return _nonadaptive_rows(list(schedules), np.array(delta), np.array(r))


def _pair(rng):
    """Two _simplex_point draws of one random support size k, their 2k exponentials drawn in one call."""
    k = int(rng.integers(2, 17))
    raw = rng.exponential(1.0, (2, k))
    return raw[0] / raw[0].sum(), raw[1] / raw[1].sum()


def _chain_instance(rng):
    """Two trees on n in 2..5 as flat marginal rows, the doubles random_tree(n, rng, 0.05, 0.95) draws."""
    nodes = (1 << int(rng.integers(2, 6))) - 1
    return rng.uniform(0.05, 0.95, nodes), rng.uniform(0.05, 0.95, nodes)


def _edge_kl_case(instance):
    m, p = instance
    value = expected_binomial_kl(m, p)
    return value, 1.0 / m, value <= 1.0 / m + SLACK


#: (name, draw one instance from the checker's stream, evaluate a list of
#: instances to (lhs, rhs, ok) arrays), in sweep order.  Identities report
#: lhs = rhs = 0, so their margin is 0.
LEMMAS = (
    ("bounded-ratio-kl", _ratio_instance, _inequality(_ratio_rows)),
    ("symmetric-chi-square", _pair, _inequality(_chi_square_rows)),
    ("half-mixture-bias",
     lambda rng: (*_pair(rng), rng.uniform(-0.499, 0.499)),
     _inequality(_mixture_rows)),
    ("nonadaptive-run-kl",
     lambda rng: (rng.integers(1, 21, int(rng.integers(1, 9))),
                  rng.uniform(0.01, 0.33), rng.uniform(0.0, 1.0 / 12.0)),
     _nonadaptive),
    ("pinsker", _pair, _inequality(_pinsker_rows)),
    ("product-additivity",
     lambda rng: (*_pair(rng), *_pair(rng)),
     _identity(_product_rows, key=lambda inst: (len(inst[0]), len(inst[2])))),
    ("chain-rule", _chain_instance, _identity(_chain_rows, key=_support)),
    ("edge-estimate-kl-bound",
     lambda rng: (int(rng.integers(1, 65)), rng.uniform(0.0, 1.0)),
     _scalar(_edge_kl_case)),
    ("log-bounds",
     lambda rng: (rng.uniform(-0.99, 4.0),),
     _identity(_log_bounds_rows, key=lambda inst: 0)),     # one block
    ("binomial-kl-identity",
     lambda rng: (int(rng.integers(1, 31)), rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)),
     _identity(_binomial_identity_rows, key=lambda inst: inst[0])),
)


def run_lemma_sweep(count: int, seed: int) -> list[LemmaReport]:
    """Drive every checker over `count` seeded random instances each."""
    if count < 1:
        raise ValueError("count must be positive")
    reports = []
    for name, draw, evaluate in LEMMAS:
        rng = substream(seed, "lemma", name)
        violations = 0
        worst = math.inf
        for start in range(0, count, SWEEP_CHUNK):
            instances = [draw(rng) for _ in range(min(SWEEP_CHUNK, count - start))]
            lhs, rhs, ok = evaluate(instances)
            violations += len(ok) - int(np.count_nonzero(ok))
            # the first smallest in draw order, as a running min one instance at a time
            worst = min([worst, *(rhs - lhs).tolist()])
        reports.append(LemmaReport(name, count, violations, worst))
    return reports
