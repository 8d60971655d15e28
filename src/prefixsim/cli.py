"""Reproducible experiment runner.

Every subcommand validates its parameters, runs seeded trials, and emits
JSON lines (one object per trial, then one summary object).  Identical
config and seed reproduce identical trial records; the only wall-clock field
lives in the summary.  Each record is written as its trial ends, in trial
order, and only running totals are kept, so memory is flat in --trials (with
--workers, at most IN_FLIGHT_PER_WORKER trials per worker are in flight).  A
run that fails midway leaves the records already written and no summary.
Exit codes: 0 all checks passed, 1 a statistical check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .adhoc import gen_instance, run_ad_hoc_tester, tester_parameters
from .bits import code_rows
from .distance import estimate_tv, pairs_per_round, simulation_delta
from .divergence_lab import LEMMAS, kl_divergence, run_lemma_sweep, tv_distance
from .hardness import (check_gap, effective_samples, gen_hard_instance, hard_instance_parameters,
                       threshold_constants)
from .oracles import TreeOracle
from .reduction import AdaptedPrefixOracle, TableIntervalOracle, code_depth, mass_preserved
from .simulation import MAX_MATERIALIZE_N, LazySimulation, samples_per_edge
from .streams import child_seed, substream, substreams
from .trees import random_tree
from .util import MAX_BLOCK_UNIFORMS, row_blocks

OUTPUT_DIR_ENV = "PREFIXSIM_OUTPUT_DIR"

#: Most oracle draws one trial may ask for: m x (2^n - 1) for simulate, the
#: same per simulation at the interval depth for reduce-interval, and for
#: estimate-tv m x n per walked row, the pairs per round and rounds x pairs
#: per round.  The same cap bounds the bits a trial walks (draws x n for
#: hard-instance and samples x depth for reduce-interval) and the instances
#: verify-lemmas evaluates (sweep x checkers).  Larger requests exit 2 instead
#: of running for hours or days.
MAX_TRIAL_DRAWS = 1 << 27


# ---------------------------------------------------------------------------
# trial functions (top level so worker pools can pickle them)

def _simulate_trial(cfg: dict, t: int) -> list[dict]:
    tree = random_tree(cfg["n"], substream(cfg["seed"], "tree", t),
                       cfg["marginal_low"], cfg["marginal_high"])
    oracle = TreeOracle(tree)
    learned = LazySimulation(oracle, cfg["delta"], child_seed(cfg["seed"], "sim", t))
    kl = kl_divergence(learned, tree)  # materializing learns every edge, level by level
    return [{
        "kind": "trial", "trial": t, "kl": kl,
        "conditional_samples": oracle.conditional_calls,
        "samples_per_edge": learned.m,
    }]


def _estimate_tv_trial(cfg: dict, t: int) -> list[dict]:
    seed = cfg["seed"]
    delta = simulation_delta(cfg["epsilon"])
    tree_a = random_tree(cfg["n"], substream(seed, "tree-a", t),
                         cfg["marginal_low"], cfg["marginal_high"])
    tree_b = random_tree(cfg["n"], substream(seed, "tree-b", t),
                         cfg["marginal_low"], cfg["marginal_high"])
    exact = tv_distance(tree_a, tree_b)
    sim_a = LazySimulation(TreeOracle(tree_a), delta, child_seed(seed, "sim-a", t))
    sim_b = LazySimulation(TreeOracle(tree_b), delta, child_seed(seed, "sim-b", t))
    result = estimate_tv(sim_a, sim_b, cfg["epsilon"], scale=cfg["scale"], rounds=cfg["rounds"])
    return [{
        "kind": "trial", "trial": t, "exact": exact, "estimate": result.estimate,
        "error": abs(result.estimate - exact),
        "within": abs(result.estimate - exact) <= cfg["epsilon"],
        "epsilon": cfg["epsilon"], "budget_a": result.budget_a, "budget_b": result.budget_b,
        "pairs_per_round": result.pairs_per_round, "rounds": result.rounds,
    }]


def _adhoc_trial(cfg: dict, t: int) -> list[dict]:
    seed = cfg["seed"]
    records = []
    for label, family_r, want in (("balanced", 0.0, "accept"), ("tilted", cfg["r"], "reject")):
        inst_seed = child_seed(seed, label, t)
        inst = gen_instance(cfg["n"], cfg["delta"], family_r, substream(seed, label, t))
        res = run_ad_hoc_tester(inst, cfg["delta"], cfg["r"], substream(seed, label + "-test", t))
        records.append({
            "kind": "trial", "trial": t, "label": label, "verdict": res.verdict,
            "correct": res.verdict == want, "ones": res.ones,
            "loop_count": res.loop_count, "threshold": res.threshold,
            "seed": inst_seed,
        })
    return records


def _hard_instance_trial(cfg: dict, t: int) -> list[dict]:
    seed = cfg["seed"]
    records = []
    for label in cfg["labels"]:
        inst = gen_hard_instance(cfg["n"], cfg["epsilon"], label,
                                 child_seed(seed, "inst", label, t),
                                 delta=cfg["delta"], r=cfg["r"])
        record = {
            "kind": "trial", "trial": t, "label": label,
            "delta": inst.delta, "r": inst.r, "x": "".join(map(str, inst.x)),
        }
        if cfg["draws"] > 0:
            oracle = inst.oracle()
            stream = substreams(seed, "effective", label, parts=[t])
            total = 0
            for rows in row_blocks(cfg["draws"], cfg["n"]):
                total += int(effective_samples(oracle, "", inst.x, stream, rows).sum())
            record["mean_effective"] = total / cfg["draws"]
            record["draws"] = cfg["draws"]
            record["conditional_samples"] = oracle.conditional_calls
        records.append(record)
    return records


def _reduce_trial(cfg: dict, t: int) -> list[dict]:
    seed = cfg["seed"]
    size = cfg["size"]
    weights = substream(seed, "weights", t).uniform(0.1, 1.0, size)
    sim_seed = child_seed(seed, "sim", t)
    native = TableIntervalOracle(weights)
    direct_oracle = TreeOracle(native.tree.materialize())
    adapted_oracle = AdaptedPrefixOracle(native)
    depth = adapted_oracle.n
    direct = LazySimulation(direct_oracle, cfg["delta"], sim_seed)
    adapted = LazySimulation(adapted_oracle, cfg["delta"], sim_seed)

    codes = code_rows(np.arange(1 << depth), depth)
    coupled = np.array_equal(direct.query_batch(codes), adapted.query_batch(codes))
    for rows in row_blocks(cfg["samples"], depth):
        for a, b in zip(direct.sample_batch(rows), adapted.sample_batch(rows)):
            coupled = coupled and np.array_equal(a, b)

    return [{
        "kind": "trial", "trial": t, "size": size, "depth": depth,
        "coupled": coupled, "power_of_two": size & (size - 1) == 0,
        "mass_preserved": mass_preserved(weights),
        "budget_direct": direct_oracle.conditional_calls,
        "budget_adapted": adapted_oracle.conditional_calls,
        "native_calls": native.calls,
    }]


def _lemma_sweep(cfg: dict, t: int) -> list[dict]:
    return [{"kind": "trial", **r.as_dict()} for r in run_lemma_sweep(cfg["sweep"], cfg["seed"])]


# ---------------------------------------------------------------------------
# harness

#: Trials a pool run submits at once, per worker; the next ones wait until
#: these are written.
IN_FLIGHT_PER_WORKER = 4


def _trial_batches(trial_fn, cfg: dict, workers: int):
    """Each of the cfg["trials"] trials' records, in trial order, as its trial ends."""
    trials = cfg["trials"]
    workers = min(workers, trials, os.cpu_count() or 1)
    trial = functools.partial(trial_fn, cfg)
    if workers <= 1:
        yield from map(trial, range(trials))
        return
    # imported here so that one-process runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    window = IN_FLIGHT_PER_WORKER * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start in range(0, trials, window):
            yield from pool.map(trial, range(trials)[start:start + window])


def _write_csv(path: str) -> None:
    def records():  # one pass over the finished JSON lines
        with open(path, encoding="utf-8") as fh:
            yield from (r for r in map(json.loads, fh) if r["kind"] == "trial")

    fields = sorted({key for r in records() for key in r})
    with open(path + ".csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(records())


def _run(args, trial_fn, summarize, **overrides) -> int:
    """Run the trials, writing each record as it ends, then the summary; the exit code.

    Trials see cfg = config | overrides, config being the parameters the
    summary reports, and run cfg["trials"] times.  Each record is folded into
    running totals keyed by (its label or None, field): the sum and the
    maximum of each numeric field.  A bool adds 0 or 1, so a field holds in
    all n records when its sum is n.  summarize(sums, maxima) returns (passed,
    summary fields).  Sums add with += in trial order, which is what the
    built-in sum does through Python 3.11 (3.12's sum is compensated).
    """
    started = time.time()
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "output", "csv", "workers")}
    cfg = {**config, **overrides}
    sums, maxima = collections.Counter(), {}
    # an absolute --output replaces the base directory
    path = None if args.output is None else os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), args.output)
    if path is not None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as out:
        for batch in _trial_batches(trial_fn, cfg, args.workers):
            for record in batch:
                out.write(json.dumps(record, sort_keys=True) + "\n")
                for field, value in record.items():
                    if isinstance(value, (int, float)):
                        key = record.get("label"), field
                        sums[key] += value
                        maxima[key] = max(maxima.get(key, value), value)
        passed, fields = summarize(sums, maxima)
        summary = {"kind": "summary", "subcommand": args.subcommand, "passed": passed,
                   "config": config, "version": __version__,
                   "elapsed_seconds": time.time() - started, **fields}
        out.write(json.dumps(summary, sort_keys=True) + "\n")
    if args.csv:
        _write_csv(path)
    return 0 if passed else 1


def _positive(parser, name, value, strict=True):
    if value is None or (0 < value < math.inf if strict else 0 <= value < math.inf):
        return
    sign = "positive" if strict else "non-negative"
    parser.error(f"precondition violated: {name} must be finite and {sign}, got {value}")


def _checked(parser, fn, *args):
    """fn(*args), with a ValueError reported as a usage error (exit 2)."""
    try:
        return fn(*args)
    except ValueError as exc:
        parser.error(f"precondition violated: {exc}")


def _within_block_cap(parser, name, value):
    # one draw of value uniforms must fit in a block (util.row_blocks)
    if value > MAX_BLOCK_UNIFORMS:
        parser.error(f"precondition violated: {name} = {value} exceeds {MAX_BLOCK_UNIFORMS}, "
                     "the most uniforms one draw may ask for")


def _within_draw_cap(parser, name, value):
    # value may be an int of hundreds of digits, or a float up to inf
    if not value <= MAX_TRIAL_DRAWS:
        parser.error(f"precondition violated: {name} exceeds {MAX_TRIAL_DRAWS}, "
                     "the most draws one trial may ask for")


def _marginal_range(parser, args):
    if not 0.0 <= args.marginal_low <= args.marginal_high <= 1.0:
        parser.error("precondition violated: need 0 <= marginal-low <= marginal-high <= 1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="prefixsim",
        description="Seeded experiments for distribution simulation from prefix conditional samples.",
    )
    parser.add_argument("--version", action="version", version=f"prefixsim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, trials_default, func):
        p.set_defaults(func=func)
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument("--output", help="write JSON lines here instead of stdout "
                                        f"(relative paths resolve under ${OUTPUT_DIR_ENV})")
        p.add_argument("--csv", action="store_true", help="also write <output>.csv")
        p.add_argument("--workers", type=int, default=1, help="capped at the CPU count")

    p = sub.add_parser("simulate", help="learn random trees and report the exact divergence achieved")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True, help="target expected KL divergence")
    p.add_argument("--marginal-low", type=float, default=0.2)
    p.add_argument("--marginal-high", type=float, default=0.8)
    common(p, 100, cmd_simulate)

    p = sub.add_parser("estimate-tv", help="end-to-end distance estimation against enumerated truth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--scale", type=float, default=16.0, help="pairs per round = ceil(scale / epsilon^2)")
    p.add_argument("--rounds", type=int, default=9)
    p.add_argument("--marginal-low", type=float, default=0.1)
    p.add_argument("--marginal-high", type=float, default=0.9)
    common(p, 100, cmd_estimate_tv)

    p = sub.add_parser("adhoc", help="accept/reject rates of the per-index Bernoulli tester")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, help="indexes per instance (default: the tester's n')")
    p.add_argument("--min-rate", type=float, default=0.6)
    common(p, 300, cmd_adhoc)

    p = sub.add_parser("hard-instance", help="generate hard instances and check effective-sample decay")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float, help="override the sqrt(2) eps / sqrt(n) default")
    p.add_argument("--r", type=float, help="override the 8 / sqrt(n) default")
    p.add_argument("--label", choices=["yes", "no", "both"], default="yes")
    p.add_argument("--draws", type=int, default=1000,
                   help="conditional draws for the effective-sample average (0 to skip)")
    common(p, 5, cmd_hard_instance)

    p = sub.add_parser("verify-lemmas", help="run every divergence checker over random instances",
                       description="Run every divergence checker over --sweep random instances.  "
                                   "A call runs one sweep: --trials must be positive, "
                                   "but it does not repeat the sweep.")
    p.add_argument("--sweep", type=int, default=10000, help="instances per checker")
    common(p, 1, cmd_verify_lemmas)

    p = sub.add_parser("reduce-interval", help="run the simulation through the interval adapter and compare")
    p.add_argument("--size", type=int, required=True, help="interval domain size N")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--samples", type=int, default=16, help="coupled samples per trial")
    common(p, 10, cmd_reduce_interval)

    return parser


def cmd_simulate(parser, args) -> int:
    if not 1 <= args.n <= MAX_MATERIALIZE_N:
        parser.error(f"precondition violated: simulate needs 1 <= n <= {MAX_MATERIALIZE_N}")
    _marginal_range(parser, args)
    m = _checked(parser, samples_per_edge, args.n, args.delta)
    _within_draw_cap(parser, "m x (2^n - 1)", m * ((1 << args.n) - 1))

    def summarize(sums, maxima):
        mean_kl = sums[None, "kl"] / args.trials
        return mean_kl <= args.delta, {
            "mean_kl": mean_kl, "max_kl": maxima[None, "kl"], "delta": args.delta,
            "samples_per_edge": m, "total_conditional_samples": sums[None, "conditional_samples"]}

    return _run(args, _simulate_trial, summarize)


def cmd_estimate_tv(parser, args) -> int:
    if not 1 <= args.n <= 10:
        parser.error("precondition violated: estimate-tv needs 1 <= n <= 10 (exact enumeration)")
    _positive(parser, "rounds", args.rounds)
    _positive(parser, "scale", args.scale)
    _marginal_range(parser, args)
    m = _checked(parser, samples_per_edge, args.n, _checked(parser, simulation_delta, args.epsilon))
    _within_draw_cap(parser, "m x n per walked row", m * args.n)
    _within_draw_cap(parser, "pairs per round", args.scale / (args.epsilon * args.epsilon))
    pairs = _checked(parser, pairs_per_round, args.epsilon, args.scale)
    _within_draw_cap(parser, "rounds x pairs per round", args.rounds * pairs)

    def summarize(sums, maxima):
        rate = sums[None, "within"] / args.trials
        return rate >= 2.0 / 3.0, {
            "success_rate": rate, "mean_error": sums[None, "error"] / args.trials,
            "total_budget": sums[None, "budget_a"] + sums[None, "budget_b"]}

    return _run(args, _estimate_tv_trial, summarize)


def cmd_adhoc(parser, args) -> int:
    if not 0.0 <= args.min_rate <= 1.0:
        parser.error("precondition violated: need 0 <= min-rate <= 1")
    n_prime, q, threshold = _checked(parser, tester_parameters, args.delta, args.r)
    n = args.n if args.n is not None else n_prime
    if n < n_prime:
        parser.error(f"precondition violated: the tester needs n >= n' = {n_prime}, got n = {n}")
    _within_block_cap(parser, "n", n)

    def summarize(sums, maxima):
        accept_rate = sums["balanced", "correct"] / args.trials
        reject_rate = sums["tilted", "correct"] / args.trials
        loops = sums["balanced", "loop_count"] + sums["tilted", "loop_count"]
        return accept_rate >= args.min_rate and reject_rate >= args.min_rate, {
            "accept_rate": accept_rate, "reject_rate": reject_rate,
            "n": n, "n_prime": n_prime, "q": q, "threshold": threshold,
            "mean_loop_count": loops / (2 * args.trials)}

    return _run(args, _adhoc_trial, summarize, n=n)


def cmd_hard_instance(parser, args) -> int:
    # a yes-instance never uses r, so only a no label needs r < 1
    _positive(parser, "r", args.r)
    labels = ["yes", "no"] if args.label == "both" else [args.label]
    for label in labels:
        _checked(parser, hard_instance_parameters, args.n, args.epsilon, label, args.delta, args.r)
    _positive(parser, "draws", args.draws, strict=False)
    _within_block_cap(parser, "n", args.n)
    _within_draw_cap(parser, "draws x n", args.draws * args.n)
    extra = {"gap_ok": None}
    if args.epsilon is not None and args.delta is None:
        consts = threshold_constants(args.n, args.epsilon)
        extra.update(gap_ok=check_gap(args.n, args.epsilon),
                     log_p_high=consts.log_p_high, log_p_low=consts.log_p_low,
                     k_high=consts.k_high, k_low=consts.k_low)

    def summarize(sums, maxima):
        # effective samples average at most 3 on every yes-instance
        yes_ok = maxima.get(("yes", "mean_effective"), 0.0) <= 3.0
        return yes_ok and extra["gap_ok"] is not False, extra

    return _run(args, _hard_instance_trial, summarize, labels=labels)


def cmd_verify_lemmas(parser, args) -> int:
    _positive(parser, "sweep", args.sweep)
    _within_draw_cap(parser, "sweep x checkers", args.sweep * len(LEMMAS))

    def summarize(sums, maxima):
        return sums[None, "passed"] == len(LEMMAS), {
            "checkers": len(LEMMAS), "violations": sums[None, "violations"]}

    # one sweep, whatever --trials says
    return _run(args, _lemma_sweep, summarize, trials=1)


def cmd_reduce_interval(parser, args) -> int:
    if not 1 <= args.size <= 4096:
        parser.error("precondition violated: reduce-interval enumerates codes; need 1 <= size <= 4096")
    _positive(parser, "samples", args.samples, strict=False)
    depth = code_depth(args.size)
    m = _checked(parser, samples_per_edge, depth, args.delta)
    _within_draw_cap(parser, "m x (2^depth - 1)", m * ((1 << depth) - 1))
    _within_draw_cap(parser, "samples x depth", args.samples * depth)

    def summarize(sums, maxima):
        mass_ok = sums[None, "mass_preserved"] == args.trials
        coupled_ok = sums[None, "coupled"] == args.trials
        return mass_ok and coupled_ok, {"mass_preserved": mass_ok, "coupled": coupled_ok}

    return _run(args, _reduce_trial, summarize)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.csv and not args.output:
        parser.error("--csv requires --output")
    _positive(parser, "trials", args.trials)
    _positive(parser, "workers", args.workers)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
