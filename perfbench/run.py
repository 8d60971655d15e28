"""Benchmark of prefixsim: op latency end to end, and a traced run that
splits each op by module.

    python3 perfbench/run.py --workload tv-lazy --seed 1000 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 0

One client runs ops back to back (a closed loop) in this process, with no
worker pool and no threads.  One op is one trial (--trials 1) of the
workload's CLI commands, called through ``prefixsim.cli.main`` with a seed
derived from --seed and the op's index.  Every op's records are checked (see
workloads.check_op); at the default seed they must also match the reference
recorded in reference.json byte for byte, with the same oracle draw count.

--trace 0 times ops with no wrapper installed and reports the end-to-end
metrics.  --trace 1 runs each op untraced and traced, alternating which goes
first, and reports per-layer self time and work counts.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  --workload all runs every workload
in its own process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

try:
    import tracing
    import workloads
except ImportError as exc:  # this checkout has no usable src/prefixsim
    tracing = workloads = None
    IMPORT_ERROR = exc

HERE = Path(__file__).resolve().parent
NAMES = ("tv-lazy", "learn-eager", "interval-coupled", "lower-bound")
MIN_OPS = 20        # per run, whatever --seconds says; traced counts use the first MIN_OPS
TAIL_BEYOND = 10    # op_tail_s is the slowest time with at least this many ops beyond it
SETUP_RUNS = 10     # fresh interpreters timed for setup_s, spread through the timed loop
# Reported on stdout but kept out of the JSON result and BENCHMARK.json:
# failed_frac is 0 on a correct program (failures are `failed`/`attempted`), and
# op_p50_s and ops_per_s follow the host's mix of fast and slow CPU phases too
# closely to repeat between runs (see README.md).
PRINTED_ONLY = ("op_p50_s", "ops_per_s", "failed_frac")
OUT_DIR = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def tail(times: list[float]) -> tuple[float, float]:
    """The slowest time with TAIL_BEYOND ops beyond it, and its percentile."""
    ordered = sorted(times)
    return ordered[-TAIL_BEYOND - 1], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def measure_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its warm-up ops."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def check_results(workload, results, seed):
    """Rows per op and (op index, reason) per failed op; results[i] is op i."""
    reference = workloads.load_reference(seed).get(workload.name, [])
    rows, failures = [], []
    for i, result in enumerate(results):
        expected = tuple(reference[i]) if i < len(reference) else None
        n, reason = workloads.check_op(workload, result, expected)
        rows.append(n)
        if reason is not None:
            failures.append((i, reason))
    return rows, failures, min(len(results), len(reference))


def closed_loop(run_one, seconds: int, between=None, times: int = 0) -> float:
    """Call run_one(i) for i = 0, 1, ... until its calls took `seconds` and MIN_OPS ran.

    ``between()`` is called `times` times between ops, spread evenly over the
    seconds of op time, and is not timed.  Returns the seconds of op time.
    """
    gc.collect()
    spent, i, done = 0.0, 0, 0
    while i < MIN_OPS or spent < seconds:
        start = perf_counter()
        run_one(i)
        spent += perf_counter() - start
        i += 1
        if done < times and spent >= done * seconds / times:
            between()
            done += 1
    return spent


def end_to_end(tracer, workload, args):
    workloads.run_warm_up(workload, args.seed)
    clean = tracer.is_clean()
    results, setup = [], []
    elapsed = closed_loop(
        lambda i: results.append(workloads.run_op(workload, workloads.op_seed(args.seed, i))),
        args.seconds, lambda: setup.append(measure_setup(workload.name, args.seed)), SETUP_RUNS)
    clean = clean and tracer.is_clean()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows, failures, referenced = check_results(workload, results, args.seed)
    times = [r.seconds for r in results]
    n = len(results)
    tail_s, tail_pct = tail(times)
    report = [
        ("setup_s", statistics.quantiles(setup, n=4)[2], "s",
         f"upper quartile of {len(setup)} fresh interpreters spread through the run:"
         f" import prefixsim.cli + {workloads.WARM_UP_OPS} warm-up ops"),
        ("op_p50_s", statistics.median(times), "s", f"{n} ops"),
        ("op_tail_s", tail_s, "s", f"p{tail_pct:.1f}: {TAIL_BEYOND} of {n} ops beyond it"),
        ("ops_per_s", n / elapsed, "1/s", f"{n} ops in {elapsed:.2f} s, one client"),
        ("peak_rss_mb", peak_mb, "MB", "this process"),
        ("failed_frac", len(failures) / n, "", f"{len(failures)} of {n} ops"),
    ]
    print(f"{workload.name}: {n} ops, seed {args.seed}, tracing off"
          f" ({'no wrapper present' if clean else 'A TRACE WRAPPER WAS PRESENT'})")
    for key, value, unit, note in report:
        shown = " (printed only)" if key in PRINTED_ONLY else ""
        print(f"  {key:<12} {value:>12.6g} {unit:<4} {note}{shown}")
    metrics = {key: (value, unit) for key, value, unit, _ in report if key not in PRINTED_ONLY}
    _print_rows(rows, referenced, args.seed)
    _print_failures(failures)
    return clean and not failures, n, len(failures), metrics


def per_layer(tracer, workload, args):
    workloads.run_warm_up(workload, args.seed)
    untraced, traced, per_op = [], [], []
    clean = True

    def run_pair(i):
        nonlocal clean
        seed = workloads.op_seed(args.seed, i)
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if is_traced:
                with tracer.active():
                    traced.append(workloads.run_op(workload, seed))
                spans, counts = tracer.take()
                self_s, calls = tracing.layer_table(spans)
                per_op.append({"op": i, "seed": seed, "seconds": traced[-1].seconds,
                               "spans": len(spans), "self_s": self_s, "calls": calls,
                               "counts": dict(counts)})
            else:
                clean = clean and tracer.is_clean()
                untraced.append(workloads.run_op(workload, seed))

    closed_loop(run_pair, args.seconds)
    clean = clean and tracer.is_clean()

    rows_u, failures_u, referenced = check_results(workload, untraced, args.seed)
    rows_t, failures_t, _ = check_results(workload, traced, args.seed)
    failures = failures_u + [(i, "traced: " + reason) for i, reason in failures_t]
    # the rows counted from the draw blocks must match the ledger in the records
    for op, rows in zip(per_op, rows_t):
        drawn = op["counts"].get("oracles.rows", 0)
        if drawn != rows:
            failures.append((op["op"], f"traced: drew {drawn} oracle rows,"
                                       f" the budget ledger says {rows}"))

    metrics = {}
    for layer, name in enumerate(tracing.LAYERS):
        metrics[f"{name}.self_s"] = (statistics.median(op["self_s"][layer] for op in per_op), "s")
    counted = per_op[:MIN_OPS]

    def mean(values):
        return sum(values) / len(counted)

    def calls(name):
        return mean(op["calls"][tracing.LAYERS.index(name)] for op in counted)

    def count(key):
        return mean(op["counts"].get(key, 0) for op in counted)

    oracle = tracing.LAYERS.index("oracles")
    lookups = count("simulation.edge_lookups")
    metrics.update({
        "oracles.calls": (calls("oracles"), "count"),
        "oracles.rows": (count("oracles.rows"), "count"),
        "oracles.ns_per_row": (statistics.median(
            op["self_s"][oracle] * 1e9 / op["counts"]["oracles.rows"]
            if op["counts"].get("oracles.rows") else 0.0 for op in per_op), "ns"),
        "oracles.block_bytes_max": (max(op["counts"].get("oracles.block_bytes_max", 0)
                                        for op in counted), "bytes"),
        "streams.calls": (calls("streams"), "count"),
        "trees.calls": (calls("trees"), "count"),
        "bits.calls": (calls("bits"), "count"),
        "simulation.edges_estimated": (count("simulation.edges_estimated"), "count"),
        "simulation.edge_lookups": (lookups, "count"),
        "simulation.memo_hit_ratio": (
            1.0 - count("simulation.edges_estimated") / lookups if lookups else 0.0, "ratio"),
        "distance.pairs": (count("distance.pairs"), "count"),
        "reduction.native_rows": (count("reduction.native_rows"), "count"),
        "hardness.walk_steps": (count("hardness.walk_steps"), "count"),
        "divergence_lab.instances": (count("divergence_lab.instances"), "count"),
        "adhoc.index_draws": (count("adhoc.index_draws"), "count"),
        "trace.overhead_s": (statistics.median(r.seconds for r in traced)
                             - statistics.median(r.seconds for r in untraced), "s"),
    })

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    with out.open("w", encoding="utf-8") as fh:
        for op in per_op:
            op = {**op, "self_s": dict(zip(tracing.LAYERS, op["self_s"])),
                  "calls": dict(zip(tracing.LAYERS, op["calls"]))}
            fh.write(json.dumps(op, sort_keys=True) + "\n")

    n = len(per_op)
    print(f"{workload.name}: {n} ops traced and {len(untraced)} untraced, seed {args.seed}"
          f" ({'wrappers restored' if clean else 'A TRACE WRAPPER WAS LEFT INSTALLED'})")
    print(f"  self time: median over {n} traced ops; counts: mean per op over the first"
          f" {len(counted)}; per-op layer tables in {out.relative_to(HERE.parent)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<27} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<27} {len(failures) / (2 * n):>14.6g} "
          f"({len(failures)} of {2 * n} ops)")
    _print_rows(rows_u, referenced, args.seed)
    _print_failures(failures)
    return clean and not failures, 2 * n, len(failures), metrics


def _print_rows(rows, referenced, seed):
    distinct = sorted(set(rows))
    shown = ", ".join(map(str, distinct[:4])) + (" ..." if len(distinct) > 4 else "")
    where = (f"{referenced} ops checked against the reference" if referenced
             else f"no reference at seed {seed}")
    print(f"  oracles.rows per op: {shown} (draw total {sum(rows)}; {where})")


def _print_failures(failures):
    for i, reason in failures[:5]:
        print(f"  FAILED op {i}: {reason}")


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if workloads is None:
        print(f"error: cannot load prefixsim from this checkout's src/: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        correct, attempted, failed, metrics = per_layer(tracer, workload, args)
    else:
        correct, attempted, failed, metrics = end_to_end(tracer, workload, args)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
