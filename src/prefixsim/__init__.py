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
    random_tree,
)
from .oracles import PrefixOracle, TreeOracle
from .reduction import (
    AdaptedPrefixOracle,
    EncodedMarginalTree,
    TableIntervalOracle,
    code_depth,
    element_bounds,
    mass_preserved,
)
from .simulation import (
    MAX_MATERIALIZE_N,
    LazySimulation,
    est_simulation_edge,
    samples_per_edge,
)
from .distance import (
    TvEstimate,
    estimate_tv,
    pairs_per_round,
    simulation_delta,
)
from .adhoc import AdHocInstance, TesterResult, gen_instance, run_ad_hoc_tester, tester_parameters
from .hardness import (
    HardInstance,
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
    LemmaReport,
    bernoulli_kl,
    expected_binomial_kl,
    kl_divergence,
    run_lemma_sweep,
    tv_distance,
)
