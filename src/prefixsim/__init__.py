"""Distribution simulation from prefix conditional samples.

A library and CLI for simulating, querying, and sampling a hidden
distribution over {0,1}^n through prefix-conditional draws, estimating
total-variation distance between two such distributions, generating
hard instances for the matching lower bound, and numerically verifying
the divergence inequalities everything rests on.
"""

__version__ = "0.1.0"

from .bits import code_rows, element_bits, prefix_bits
from .errors import CapabilityError
from .streams import RandomStream, child_seed, substream, substreams
from .trees import (
    MAX_ENUM_N,
    MarginalTree,
    TableMarginalTree,
    bernoulli_kl,
    chain_rule_kl,
    kl_divergence,
    point_mass_tree,
    random_tree,
    tv_distance,
    uniform_tree,
)
from .oracles import PrefixOracle, SampleBudget, TreeOracle
from .reduction import (
    AdaptedPrefixOracle,
    IntervalAdapter,
    TableIntervalOracle,
    encoded_marginal_tree,
    interval_breakdown,
    mass_preserved,
)
from .simulation import (
    MAX_PREPROCESS_N,
    LazySimulation,
    est_simulation_edge,
    preprocess,
    samples_per_edge,
)
from .distance import (
    TvEstimate,
    estimate_tv,
    one_sided_expectation,
    simulation_delta,
)
from .adhoc import AdHocInstance, TesterResult, gen_instance, run_ad_hoc_tester, tester_parameters
from .hardness import (
    HardInstance,
    SignAssignment,
    SignMarginalTree,
    ThresholdConstants,
    challenge_marginal,
    check_gap,
    default_delta,
    default_r,
    effective_samples,
    gen_hard_instance,
    threshold_constants,
    tilt_marginal,
)
from .divergence_lab import (
    FiniteDistribution,
    LemmaReport,
    check_bounded_ratio_dkl,
    check_chain_rule,
    check_half_mixture_bias,
    check_nonadaptive_run_kl,
    check_pinsker,
    check_product_additivity,
    check_symmetric_chi_square,
    expected_binomial_kl,
    random_distribution,
    run_lemma_sweep,
    vector_kl,
)
