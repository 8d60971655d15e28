"""Reproducible experiment runner.

Every subcommand validates its parameters, runs seeded trials, and emits
JSON lines (one object per trial, then one summary object).  Identical
config and seed reproduce identical trial records; the only wall-clock field
lives in the summary.  Exit codes: 0 all checks passed, 1 a statistical
check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
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
from .hardness import check_gap, gen_hard_instance, effective_samples, threshold_constants
from .oracles import TreeOracle
from .reduction import (AdaptedPrefixOracle, TableIntervalOracle, code_depth, encoded_marginal_tree,
                        mass_preserved)
from .simulation import MAX_PREPROCESS_N, LazySimulation, preprocess, samples_per_edge
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
    learned = preprocess(cfg["n"], oracle, cfg["delta"], child_seed(cfg["seed"], "sim", t))
    kl = kl_divergence(learned, tree)
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
    sim_a = LazySimulation(cfg["n"], TreeOracle(tree_a), delta, child_seed(seed, "sim-a", t))
    sim_b = LazySimulation(cfg["n"], TreeOracle(tree_b), delta, child_seed(seed, "sim-b", t))
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
    direct_oracle = TreeOracle(encoded_marginal_tree(weights))
    native = TableIntervalOracle(weights)
    adapted_oracle = AdaptedPrefixOracle(native)
    depth = adapted_oracle.n
    direct = LazySimulation(depth, direct_oracle, cfg["delta"], sim_seed)
    adapted = LazySimulation(depth, adapted_oracle, cfg["delta"], sim_seed)

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


# ---------------------------------------------------------------------------
# harness

def _run_trials(trial_fn, cfg: dict, trials: int, workers: int) -> list[dict]:
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        batches = [trial_fn(cfg, t) for t in range(trials)]
    else:
        # imported here so that one-process runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(functools.partial(trial_fn, cfg), range(trials)))
    return [record for batch in batches for record in batch]


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(records: list[dict], summary: dict, args) -> None:
    lines = [json.dumps(r, sort_keys=True) for r in records]
    lines.append(json.dumps(summary, sort_keys=True))
    path = _resolve_output(args.output)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if args.csv:
            fields = sorted({key for r in records for key in r
                             if not isinstance(r[key], (list, dict))})
            with open(path + ".csv", "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
                writer.writeheader()
                writer.writerows(records)


def _summary(name: str, args, started: float, passed: bool, **fields) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "output", "csv", "workers")}
    return {
        "kind": "summary", "subcommand": name, "passed": passed,
        "config": config, "version": __version__,
        "elapsed_seconds": time.time() - started, **fields,
    }


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

    def common(p, trials_default):
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
    common(p, 100)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-tv", help="end-to-end distance estimation against enumerated truth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--scale", type=float, default=16.0, help="pairs per round = ceil(scale / epsilon^2)")
    p.add_argument("--rounds", type=int, default=9)
    p.add_argument("--marginal-low", type=float, default=0.1)
    p.add_argument("--marginal-high", type=float, default=0.9)
    common(p, 100)
    p.set_defaults(func=cmd_estimate_tv)

    p = sub.add_parser("adhoc", help="accept/reject rates of the per-index Bernoulli tester")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, help="indexes per instance (default: the tester's n')")
    p.add_argument("--min-rate", type=float, default=0.6)
    common(p, 300)
    p.set_defaults(func=cmd_adhoc)

    p = sub.add_parser("hard-instance", help="generate hard instances and check effective-sample decay")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float, help="override the sqrt(2) eps / sqrt(n) default")
    p.add_argument("--r", type=float, help="override the 8 / sqrt(n) default")
    p.add_argument("--label", choices=["yes", "no", "both"], default="yes")
    p.add_argument("--draws", type=int, default=1000,
                   help="conditional draws for the effective-sample average (0 to skip)")
    common(p, 5)
    p.set_defaults(func=cmd_hard_instance)

    p = sub.add_parser("verify-lemmas", help="run every divergence checker over random instances",
                       description="Run every divergence checker over --sweep random instances.  "
                                   "A call runs one sweep: --trials must be positive, "
                                   "but it does not repeat the sweep.")
    p.add_argument("--sweep", type=int, default=10000, help="instances per checker")
    common(p, 1)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("reduce-interval", help="run the simulation through the interval adapter and compare")
    p.add_argument("--size", type=int, required=True, help="interval domain size N")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--samples", type=int, default=16, help="coupled samples per trial")
    common(p, 10)
    p.set_defaults(func=cmd_reduce_interval)

    return parser


def cmd_simulate(parser, args) -> int:
    if not 1 <= args.n <= MAX_PREPROCESS_N:
        parser.error(f"precondition violated: simulate needs 1 <= n <= {MAX_PREPROCESS_N}")
    _positive(parser, "delta", args.delta)
    _positive(parser, "trials", args.trials)
    _marginal_range(parser, args)
    m = _checked(parser, samples_per_edge, args.n, args.delta)
    _within_draw_cap(parser, "m x (2^n - 1)", m * ((1 << args.n) - 1))
    started = time.time()
    cfg = {"n": args.n, "delta": args.delta, "seed": args.seed,
           "marginal_low": args.marginal_low, "marginal_high": args.marginal_high}
    records = _run_trials(_simulate_trial, cfg, args.trials, args.workers)
    kls = [r["kl"] for r in records]
    mean_kl = sum(kls) / len(kls)
    passed = mean_kl <= args.delta
    summary = _summary("simulate", args, started, passed,
                       mean_kl=mean_kl, max_kl=max(kls), delta=args.delta,
                       samples_per_edge=m,
                       total_conditional_samples=sum(r["conditional_samples"] for r in records))
    _emit(records, summary, args)
    return 0 if passed else 1


def cmd_estimate_tv(parser, args) -> int:
    if not 1 <= args.n <= 10:
        parser.error("precondition violated: estimate-tv needs 1 <= n <= 10 (exact enumeration)")
    if not 0.0 < args.epsilon < 1.0:
        parser.error("precondition violated: need 0 < epsilon < 1")
    _positive(parser, "trials", args.trials)
    _positive(parser, "rounds", args.rounds)
    _positive(parser, "scale", args.scale)
    _marginal_range(parser, args)
    m = _checked(parser, samples_per_edge, args.n, _checked(parser, simulation_delta, args.epsilon))
    _within_draw_cap(parser, "m x n per walked row", m * args.n)
    _within_draw_cap(parser, "pairs per round", args.scale / (args.epsilon * args.epsilon))
    pairs = _checked(parser, pairs_per_round, args.epsilon, args.scale)
    _within_draw_cap(parser, "rounds x pairs per round", args.rounds * pairs)
    started = time.time()
    cfg = {"n": args.n, "epsilon": args.epsilon, "seed": args.seed,
           "scale": args.scale, "rounds": args.rounds,
           "marginal_low": args.marginal_low, "marginal_high": args.marginal_high}
    records = _run_trials(_estimate_tv_trial, cfg, args.trials, args.workers)
    rate = sum(r["within"] for r in records) / len(records)
    passed = rate >= 2.0 / 3.0
    summary = _summary("estimate-tv", args, started, passed,
                       success_rate=rate,
                       mean_error=sum(r["error"] for r in records) / len(records),
                       total_budget=sum(r["budget_a"] + r["budget_b"] for r in records))
    _emit(records, summary, args)
    return 0 if passed else 1


def cmd_adhoc(parser, args) -> int:
    if not 0.0 < args.delta < 1.0 / 3.0:
        parser.error("precondition violated: need 0 < delta < 1/3")
    if not 0.0 < args.r < 1.0 / 12.0:
        parser.error("precondition violated: need 0 < r < 1/12")
    if not 0.0 <= args.min_rate <= 1.0:
        parser.error("precondition violated: need 0 <= min-rate <= 1")
    _positive(parser, "trials", args.trials)
    n_prime, q, threshold = _checked(parser, tester_parameters, args.delta, args.r)
    n = args.n if args.n is not None else n_prime
    if n < n_prime:
        parser.error(f"precondition violated: the tester needs n >= n' = {n_prime}, got n = {n}")
    _within_block_cap(parser, "n", n)
    started = time.time()
    cfg = {"n": n, "delta": args.delta, "r": args.r, "seed": args.seed}
    records = _run_trials(_adhoc_trial, cfg, args.trials, args.workers)
    accept_rate = (sum(r["correct"] for r in records if r["label"] == "balanced")
                   / args.trials)
    reject_rate = (sum(r["correct"] for r in records if r["label"] == "tilted")
                   / args.trials)
    passed = accept_rate >= args.min_rate and reject_rate >= args.min_rate
    summary = _summary("adhoc", args, started, passed,
                       accept_rate=accept_rate, reject_rate=reject_rate,
                       n=n, n_prime=n_prime, q=q, threshold=threshold,
                       mean_loop_count=sum(r["loop_count"] for r in records) / len(records))
    _emit(records, summary, args)
    return 0 if passed else 1


def cmd_hard_instance(parser, args) -> int:
    if args.epsilon is None and args.delta is None:
        parser.error("precondition violated: pass --epsilon or --delta")
    if args.epsilon is not None and not 0.0 < args.epsilon < 1.0:
        parser.error("precondition violated: need 0 < epsilon < 1")
    # only a no-instance needs r < 1; a yes-instance never uses r
    _positive(parser, "r", args.r)
    _positive(parser, "trials", args.trials)
    _positive(parser, "draws", args.draws, strict=False)
    _within_block_cap(parser, "n", args.n)
    _within_draw_cap(parser, "draws x n", args.draws * args.n)
    labels = ["yes", "no"] if args.label == "both" else [args.label]
    started = time.time()
    cfg = {"n": args.n, "epsilon": args.epsilon, "delta": args.delta, "r": args.r,
           "labels": labels, "draws": args.draws, "seed": args.seed}
    records = _checked(parser, _run_trials, _hard_instance_trial, cfg, args.trials, args.workers)
    checks = []
    if args.draws > 0:
        yes_means = [r["mean_effective"] for r in records if r["label"] == "yes"]
        if yes_means:
            checks.append(max(yes_means) <= 3.0)
    gap_ok = None
    if args.epsilon is not None and args.delta is None:
        gap_ok = check_gap(args.n, args.epsilon)
        checks.append(gap_ok)
    passed = all(checks) if checks else True
    extra = {"gap_ok": gap_ok}
    if args.epsilon is not None and args.delta is None:
        consts = threshold_constants(args.n, args.epsilon)
        extra.update(log_p_high=consts.log_p_high, log_p_low=consts.log_p_low,
                     k_high=consts.k_high, k_low=consts.k_low)
    summary = _summary("hard-instance", args, started, passed, **extra)
    _emit(records, summary, args)
    return 0 if passed else 1


def cmd_verify_lemmas(parser, args) -> int:
    _positive(parser, "sweep", args.sweep)
    _positive(parser, "trials", args.trials)
    _within_draw_cap(parser, "sweep x checkers", args.sweep * len(LEMMAS))
    started = time.time()
    reports = run_lemma_sweep(args.sweep, args.seed)
    records = [{"kind": "trial", **r.as_dict()} for r in reports]
    passed = all(r.passed for r in reports)
    summary = _summary("verify-lemmas", args, started, passed,
                       checkers=len(reports),
                       violations=sum(r.violations for r in reports))
    _emit(records, summary, args)
    return 0 if passed else 1


def cmd_reduce_interval(parser, args) -> int:
    if args.size < 1:
        parser.error("precondition violated: size must be at least 1")
    if args.size > 4096:
        parser.error("precondition violated: reduce-interval enumerates codes; size <= 4096")
    _positive(parser, "delta", args.delta)
    _positive(parser, "trials", args.trials)
    _positive(parser, "samples", args.samples, strict=False)
    depth = code_depth(args.size)
    m = _checked(parser, samples_per_edge, depth, args.delta)
    _within_draw_cap(parser, "m x (2^depth - 1)", m * ((1 << depth) - 1))
    _within_draw_cap(parser, "samples x depth", args.samples * depth)
    started = time.time()
    cfg = {"size": args.size, "delta": args.delta, "samples": args.samples, "seed": args.seed}
    records = _run_trials(_reduce_trial, cfg, args.trials, args.workers)
    mass_ok = all(r["mass_preserved"] for r in records)
    coupled_ok = all(r["coupled"] for r in records)
    passed = mass_ok and coupled_ok
    summary = _summary("reduce-interval", args, started, passed,
                       mass_preserved=mass_ok, coupled=coupled_ok)
    _emit(records, summary, args)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.csv and not args.output:
        parser.error("--csv requires --output")
    _positive(parser, "workers", args.workers)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
