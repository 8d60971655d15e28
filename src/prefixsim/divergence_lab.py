"""Numeric verifiers for the divergence inequalities the algorithms rest on.

Every inequality checker evaluates both sides on explicit finite
distributions in stable log space and returns (lhs, rhs, ok), ok being
whether lhs <= rhs holds with 1e-12 slack for float round-off; identity
checkers return only whether the identity holds.  These are theorems, so a
failed check on a valid input is a build-stopping bug; the randomized sweep
drives each checker over seeded instances and reports violations and the
worst margin rhs - lhs.

KL divergences are in bits throughout; inequalities stated with natural logs
carry explicit ln 2 factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import substream
from .trees import MarginalTree, bernoulli_kl, chain_rule_kl, kl_divergence, random_tree

SLACK = 1e-12


@dataclass(frozen=True)
class FiniteDistribution:
    """An explicit distribution on a finite support."""

    masses: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size < 1:
            raise ValueError("masses must be a non-empty 1-d vector")
        if np.any(m < 0.0):
            raise ValueError("masses must be non-negative")
        if abs(m.sum() - 1.0) > 1e-12:
            raise ValueError(f"masses sum to {m.sum()}, not 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def k(self) -> int:
        return self.masses.size


def random_distribution(k: int, rng: np.random.Generator) -> FiniteDistribution:
    """Normalized standard exponentials: a fully supported random point on the simplex."""
    raw = rng.exponential(1.0, k)
    return FiniteDistribution(raw / raw.sum())


def _masses(d) -> np.ndarray:
    return d.masses if isinstance(d, FiniteDistribution) else np.asarray(d, dtype=float)


def vector_kl(mu, nu) -> float:
    """KL divergence of explicit mass vectors, in bits; +inf on support mismatch.

    Uses log subtraction rather than mass ratios, so it stays finite and
    overflow-free for masses down to 1e-300.
    """
    p = _masses(mu)
    q = _masses(nu)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support")
    pos = p > 0.0
    if np.any(pos & (q == 0.0)):
        return math.inf
    pp = p[pos]
    return float(np.sum(pp * (np.log2(pp) - np.log2(q[pos]))))


def total_variation(mu, nu) -> float:
    return float(0.5 * np.abs(_masses(mu) - _masses(nu)).sum())


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
    lg_m = math.lgamma(m + 1)
    total = 0.0
    for t in range(m + 1):
        log_w = lg_m - math.lgamma(t + 1) - math.lgamma(m - t + 1) + t * log_p + (m - t) * log_1p
        total += math.exp(log_w) * bernoulli_kl(t / m, p)
    return total


def binomial_pmf(m: int, p: float) -> np.ndarray:
    """Exact pmf of Bin(m, p) over {0..m} (combinatorial coefficients are exact)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    t = np.arange(m + 1)
    coeff = np.array([math.comb(m, int(i)) for i in t], dtype=float)
    return coeff * p ** t * (1.0 - p) ** (m - t)


def check_bounded_ratio_dkl(mu, nu, t: float) -> tuple[float, float, bool]:
    """If mu(x) is within (1 +- t) nu(x) pointwise, then KL(mu||nu) <= t^2 / ln 2."""
    if not 0.0 <= t <= 0.25 + SLACK:
        raise ValueError(f"need 0 <= t <= 1/4, got {t}")
    p = _masses(mu)
    q = _masses(nu)
    if np.any(np.abs(p - q) > t * q * (1.0 + 1e-9) + 1e-15):
        raise ValueError("ratio precondition violated: mu is not within (1 +- t) nu pointwise")
    lhs = vector_kl(p, q)
    rhs = t * t / math.log(2.0)
    return lhs, rhs, lhs <= rhs + SLACK


def check_symmetric_chi_square(mu, nu) -> tuple[float, float, bool]:
    """sum (mu-nu)^2 / (mu+nu) <= (KL(mu||nu) + KL(nu||mu)) * ln 2."""
    p = _masses(mu)
    q = _masses(nu)
    rhs = (vector_kl(p, q) + vector_kl(q, p)) * math.log(2.0)
    s = p + q
    pos = s > 0.0
    lhs = float(np.sum((p[pos] - q[pos]) ** 2 / s[pos]))
    return lhs, rhs, lhs <= rhs + SLACK


def check_half_mixture_bias(mu, nu, r: float) -> tuple[float, float, bool]:
    """KL of the even mixture from the r-tilted mixture is at most
    r^2 / 2 times the symmetrized KL of the components (|r| < 1/2)."""
    if not abs(r) < 0.5:
        raise ValueError(f"need |r| < 1/2, got {r}")
    p = _masses(mu)
    q = _masses(nu)
    even = 0.5 * p + 0.5 * q
    tilted = (1.0 + r) / 2.0 * p + (1.0 - r) / 2.0 * q
    rhs = 0.5 * r * r * (vector_kl(p, q) + vector_kl(q, p))
    lhs = vector_kl(even, tilted)
    return lhs, rhs, lhs <= rhs + SLACK


def check_nonadaptive_run_kl(m_counts, delta: float, r: float) -> tuple[float, float, bool]:
    """KL between fixed-schedule run distributions is at most 5 r^2 delta^2 q.

    A schedule draws m_i bits from index i; a run reduces to the per-index
    ones-counts, distributed as an even (balanced case) or r-tilted (biased
    case) mixture of Bin(m_i, (1 -+ delta)/2).  Returns (lhs, rhs, ok).
    """
    m_counts = [int(m) for m in m_counts]
    if any(m < 0 for m in m_counts):
        raise ValueError("per-index sample counts must be non-negative")
    if any(m > 20 for m in m_counts):
        raise ValueError("exact enumeration supported for per-index counts up to 20")
    if not 0.0 <= delta < 1.0 / 3.0:
        raise ValueError(f"need 0 <= delta < 1/3, got {delta}")
    if not 0.0 <= r < 0.5:
        raise ValueError(f"need 0 <= r < 1/2, got {r}")
    lhs = 0.0
    for m in m_counts:
        low = binomial_pmf(m, (1.0 - delta) / 2.0)
        high = binomial_pmf(m, (1.0 + delta) / 2.0)
        balanced = 0.5 * low + 0.5 * high
        tilted = (1.0 + r) / 2.0 * low + (1.0 - r) / 2.0 * high
        lhs += vector_kl(balanced, tilted)
    q = sum(m_counts)
    rhs = 5.0 * r * r * delta * delta * q
    return lhs, rhs, lhs <= rhs + SLACK


def check_pinsker(mu, nu) -> tuple[float, float, bool]:
    """2 * d_TV(mu, nu)^2 <= KL(mu||nu)."""
    lhs = 2.0 * total_variation(mu, nu) ** 2
    rhs = vector_kl(mu, nu)
    return lhs, rhs, lhs <= rhs + SLACK


def check_product_additivity(mu1, nu1, mu2, nu2, tol: float = 1e-9) -> bool:
    """KL of product distributions equals the sum of component KLs."""
    p1, q1, p2, q2 = map(_masses, (mu1, nu1, mu2, nu2))
    joint = vector_kl(np.outer(p1, p2).ravel(), np.outer(q1, q2).ravel())
    parts = vector_kl(p1, q1) + vector_kl(p2, q2)
    if math.isinf(joint) or math.isinf(parts):
        return math.isinf(joint) and math.isinf(parts)
    return abs(joint - parts) <= tol * max(1.0, abs(parts))


def check_chain_rule(a: MarginalTree, b: MarginalTree, tol: float = 1e-9) -> bool:
    """Enumerated KL equals the per-level decomposition into edge KLs."""
    direct = kl_divergence(a, b)
    decomposed = chain_rule_kl(a, b)
    if math.isinf(direct) or math.isinf(decomposed):
        return math.isinf(direct) and math.isinf(decomposed)
    return abs(direct - decomposed) <= tol * max(1.0, abs(direct))


def check_log_bounds(x: float) -> bool:
    """Scalar facts: -ln(1+x) >= -x for x > -1; -ln(1+x) <= -x + x^2 for
    x >= -2/3; -ln(1+x) <= -x + x^2/2 for x >= 0."""
    if not x > -1.0:
        raise ValueError("need x > -1")
    v = -math.log1p(x)
    if v < -x - SLACK:
        return False
    if x >= -2.0 / 3.0 and v > -x + x * x + SLACK:
        return False
    if x >= 0.0 and v > -x + x * x / 2.0 + SLACK:
        return False
    return True


def check_binomial_kl_identity(m: int, p: float, q: float, tol: float = 1e-9) -> bool:
    """KL(Bin(m,p) || Bin(m,q)) = m * KL(Ber(p) || Ber(q))."""
    joint = vector_kl(binomial_pmf(m, p), binomial_pmf(m, q))
    scaled = m * bernoulli_kl(p, q)
    if math.isinf(joint) or math.isinf(scaled):
        return math.isinf(joint) and math.isinf(scaled)
    return abs(joint - scaled) <= tol * max(1.0, abs(scaled))


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


def _ratio_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """A pair with mu pointwise within (1 +- t) nu for a realized t <= 1/4.

    nu is random; mu is nu * (1 + u * t0) renormalized, with the slack from
    renormalization folded into the realized ratio bound.
    """
    k = int(rng.integers(2, 17))
    nu = random_distribution(k, rng).masses
    t0 = rng.uniform(0.0, 0.2)
    while True:
        raw = nu * (1.0 + rng.uniform(-1.0, 1.0, k) * t0)
        mu = raw / raw.sum()
        realized = float(np.max(np.abs(mu / nu - 1.0)))
        if realized <= 0.25:
            return mu, nu, min(0.25, realized + 1e-12)
        t0 /= 2.0


def run_lemma_sweep(count: int, seed: int) -> list[LemmaReport]:
    """Drive every checker over `count` seeded random instances each."""
    if count < 1:
        raise ValueError("count must be positive")
    reports = []

    def sweep(name, fn):
        rng = substream(seed, "lemma", name)
        violations = 0
        worst = math.inf
        for _ in range(count):
            ok, margin = fn(rng)
            if not ok:
                violations += 1
            worst = min(worst, margin)
        reports.append(LemmaReport(name, count, violations, worst))

    def pair(rng):
        k = int(rng.integers(2, 17))
        return random_distribution(k, rng).masses, random_distribution(k, rng).masses

    def ratio_case(rng):
        lhs, rhs, ok = check_bounded_ratio_dkl(*_ratio_instance(rng))
        return ok, rhs - lhs

    def chi_case(rng):
        lhs, rhs, ok = check_symmetric_chi_square(*pair(rng))
        return ok, rhs - lhs

    def mixture_case(rng):
        mu, nu = pair(rng)
        lhs, rhs, ok = check_half_mixture_bias(mu, nu, rng.uniform(-0.499, 0.499))
        return ok, rhs - lhs

    def nonadaptive_case(rng):
        schedule = rng.integers(1, 21, int(rng.integers(1, 9)))
        delta = rng.uniform(0.01, 0.33)
        r = rng.uniform(0.0, 1.0 / 12.0)
        lhs, rhs, ok = check_nonadaptive_run_kl(schedule, delta, r)
        return ok, rhs - lhs

    def pinsker_case(rng):
        lhs, rhs, ok = check_pinsker(*pair(rng))
        return ok, rhs - lhs

    def product_case(rng):
        mu1, nu1 = pair(rng)
        mu2, nu2 = pair(rng)
        return check_product_additivity(mu1, nu1, mu2, nu2), 0.0

    def chain_case(rng):
        n = int(rng.integers(2, 6))
        a = random_tree(n, rng, 0.05, 0.95)
        b = random_tree(n, rng, 0.05, 0.95)
        return check_chain_rule(a, b), 0.0

    def edge_kl_case(rng):
        m = int(rng.integers(1, 65))
        p = rng.uniform(0.0, 1.0)
        value = expected_binomial_kl(m, p)
        return value <= 1.0 / m + SLACK, 1.0 / m - value

    def log_case(rng):
        x = rng.uniform(-0.99, 4.0)
        return check_log_bounds(x), 0.0

    def binom_identity_case(rng):
        m = int(rng.integers(1, 31))
        p = rng.uniform(0.01, 0.99)
        q = rng.uniform(0.01, 0.99)
        return check_binomial_kl_identity(m, p, q), 0.0

    sweep("bounded-ratio-kl", ratio_case)
    sweep("symmetric-chi-square", chi_case)
    sweep("half-mixture-bias", mixture_case)
    sweep("nonadaptive-run-kl", nonadaptive_case)
    sweep("pinsker", pinsker_case)
    sweep("product-additivity", product_case)
    sweep("chain-rule", chain_case)
    sweep("edge-estimate-kl-bound", edge_kl_case)
    sweep("log-bounds", log_case)
    sweep("binomial-kl-identity", binom_identity_case)
    return reports
