import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from prefixsim import cli, oracles, reduction, simulation, util
from prefixsim.cli import main
from prefixsim.reduction import AdaptedPrefixOracle


def run_cli(capsys, argv):
    code = main(argv)
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    trials = [r for r in lines if r["kind"] == "trial"]
    summary = lines[-1]
    assert summary["kind"] == "summary"
    return code, trials, summary


def test_simulate(capsys):
    code, trials, summary = run_cli(capsys, [
        "simulate", "--n", "4", "--delta", "0.25", "--trials", "20", "--seed", "7",
    ])
    assert code == 0
    assert len(trials) == 20
    assert summary["passed"] is True
    assert summary["mean_kl"] <= 0.25
    assert summary["samples_per_edge"] == 16
    assert all(t["conditional_samples"] == 15 * 16 for t in trials)
    assert summary["version"]


def test_simulate_deterministic_records(capsys):
    argv = ["simulate", "--n", "3", "--delta", "0.5", "--trials", "5", "--seed", "9"]
    _, first, s1 = run_cli(capsys, argv)
    _, second, s2 = run_cli(capsys, argv)
    assert first == second
    s1.pop("elapsed_seconds")
    s2.pop("elapsed_seconds")
    assert s1 == s2


def test_simulate_learns_in_one_pass(capsys, monkeypatch):
    # kl_divergence's materialize is the only learning pass: one estimation
    # of a level's misses per depth per trial, and one estimate per edge
    depths, estimates = [], []
    estimate_level, estimate = simulation.LazySimulation._estimate, simulation.est_simulation_edge

    def recording_estimate_level(self, depth, missed):
        depths.append(depth)
        return estimate_level(self, depth, missed)

    def recording_estimate(ones):
        estimates.append(ones)
        return estimate(ones)

    monkeypatch.setattr(simulation.LazySimulation, "_estimate", recording_estimate_level)
    monkeypatch.setattr(simulation, "est_simulation_edge", recording_estimate)
    code, trials, _ = run_cli(capsys, ["simulate", "--n", "4", "--delta", "0.25", "--trials", "3", "--seed", "7"])
    assert code == 0 and len(trials) == 3
    assert depths == [0, 1, 2, 3] * 3
    assert len(estimates) == 15 * 3


def test_reduce_interval_builds_one_lazy_code_tree(capsys, monkeypatch):
    # the native oracle's code tree is the only one a trial builds (the direct
    # route materializes it), and its CDF holds N + 1 sums
    cdf_sizes = []
    init = reduction.EncodedMarginalTree.__init__

    def recording_init(self, weights):
        init(self, weights)
        cdf_sizes.append(len(self.cum))

    monkeypatch.setattr(reduction.EncodedMarginalTree, "__init__", recording_init)
    code, trials, _ = run_cli(capsys, ["reduce-interval", "--size", "300", "--delta", "0.1", "--samples", "20",
                                       "--trials", "2", "--seed", "4"])
    assert code == 0 and all(t["coupled"] for t in trials)
    assert cdf_sizes == [301, 301]


def test_estimate_tv(capsys):
    code, trials, summary = run_cli(capsys, [
        "estimate-tv", "--n", "3", "--epsilon", "0.25", "--trials", "10", "--seed", "1",
    ])
    assert code == 0
    assert summary["success_rate"] >= 2 / 3
    assert all(t["budget_a"] > 0 and t["budget_b"] > 0 for t in trials)


def test_adhoc(capsys):
    code, trials, summary = run_cli(capsys, [
        "adhoc", "--delta", "0.3", "--r", "0.08", "--trials", "6", "--seed", "3",
    ])
    assert code == 0
    assert summary["accept_rate"] >= 0.6
    assert summary["reject_rate"] >= 0.6
    assert summary["n_prime"] == 2344
    assert len(trials) == 12
    for t in trials:
        assert t["label"] in ("balanced", "tilted")
        assert t["verdict"] in ("accept", "reject")
        assert {"ones", "loop_count", "threshold", "seed"} <= set(t)


def test_hard_instance(capsys):
    code, trials, summary = run_cli(capsys, [
        "hard-instance", "--n", "30", "--epsilon", "0.1", "--trials", "3",
        "--draws", "300", "--seed", "5",
    ])
    assert code == 0
    assert summary["gap_ok"] is True
    assert "log_p_high" in summary
    for t in trials:
        assert t["label"] == "yes"
        assert len(t["x"]) == 30
        assert t["mean_effective"] <= 3.0


def test_hard_instance_blocks_change_nothing(capsys, monkeypatch):
    argv = ["hard-instance", "--n", "20", "--epsilon", "0.1", "--r", "0.3", "--label", "both",
            "--draws", "50", "--trials", "2", "--seed", "3"]
    _, whole, _ = run_cli(capsys, argv)
    uniforms = []
    draw = oracles.TreeOracle.conditional_sample_batch

    def recording(self, prefixes, m, streams, levels=None):
        uniforms.append(len(prefixes) * m * (self.n - prefixes.shape[1]))
        return draw(self, prefixes, m, streams, levels)

    monkeypatch.setattr(oracles.TreeOracle, "conditional_sample_batch", recording)
    monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", 3 * 20)
    _, chunked, _ = run_cli(capsys, argv)
    assert chunked == whole
    assert len(uniforms) == 4 * 17 and max(uniforms) <= 3 * 20
    assert sum(uniforms) == 4 * 50 * 20


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "6", "--delta", "0.5", "--trials", "2", "--seed", "3"],
    ["reduce-interval", "--size", "12", "--delta", "0.5", "--trials", "2", "--seed", "3"],
])
def test_level_blocks_change_nothing(capsys, monkeypatch, argv):
    # m = 12 (simulate, n = 6) and 8 (reduce-interval, depth 4); a cap of 40
    # uniforms draws simulate's two shallowest levels in row blocks and
    # groups up to 5 prefixes per block deeper down
    _, whole, _ = run_cli(capsys, argv)
    uniforms = []
    for cls in (oracles.TreeOracle, AdaptedPrefixOracle):
        def recording(self, prefixes, m, streams, levels=None, draw=cls.conditional_sample_batch):
            uniforms.append(len(prefixes) * m * (self.n - prefixes.shape[1]))
            return draw(self, prefixes, m, streams, levels)

        monkeypatch.setattr(cls, "conditional_sample_batch", recording)
    monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", 40)
    _, chunked, _ = run_cli(capsys, argv)
    assert chunked == whole
    assert uniforms and max(uniforms) <= 40


@pytest.mark.parametrize("argv, draws", [
    (["simulate", "--n", "3", "--delta", "0.5"], 6 * 7),                  # m x (2^n - 1)
    (["reduce-interval", "--size", "6", "--delta", "0.5", "--samples", "8"], 6 * 7),  # depth 3
    (["estimate-tv", "--n", "2", "--epsilon", "0.5"], 288 * 2),           # m x n per row
    (["estimate-tv", "--n", "2", "--epsilon", "0.5", "--scale", "200", "--rounds", "1"], 800),  # pairs
    (["hard-instance", "--n", "4", "--epsilon", "0.5", "--draws", "10"], 10 * 4),  # draws x n
    (["reduce-interval", "--size", "6", "--delta", "0.5", "--samples", "20"], 20 * 3),  # samples x depth
    (["estimate-tv", "--n", "2", "--epsilon", "0.5", "--scale", "200", "--rounds", "3"], 3 * 800),  # x rounds
])
def test_draw_cap_admits_its_bound_and_no_more(capsys, monkeypatch, argv, draws):
    argv = argv + ["--trials", "1", "--seed", "3"]
    monkeypatch.setattr(cli, "MAX_TRIAL_DRAWS", draws)
    assert run_cli(capsys, argv)[0] in (0, 1)
    monkeypatch.setattr(cli, "MAX_TRIAL_DRAWS", draws - 1)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_hard_instance_no_label_with_explicit_r(capsys):
    code, trials, _ = run_cli(capsys, [
        "hard-instance", "--n", "6", "--delta", "0.2", "--r", "0.3",
        "--label", "both", "--trials", "2", "--draws", "0", "--seed", "5",
    ])
    assert code == 0
    assert {t["label"] for t in trials} == {"yes", "no"}


def test_verify_lemmas(capsys):
    code, trials, summary = run_cli(capsys, [
        "verify-lemmas", "--sweep", "60", "--seed", "1",
    ])
    assert code == 0
    assert summary["violations"] == 0
    assert all(t["passed"] for t in trials)
    assert {"lemma", "instances", "violations", "worst_margin"} <= set(trials[0])


@pytest.mark.parametrize("size", [8, 5])
def test_reduce_interval(capsys, size):
    code, trials, summary = run_cli(capsys, [
        "reduce-interval", "--size", str(size), "--trials", "4", "--seed", "2",
    ])
    assert code == 0
    assert summary["mass_preserved"] is True
    assert summary["coupled"] is True
    for t in trials:
        assert t["mass_preserved"] is True
        assert t["coupled"] is True


def test_reduce_interval_blocks_change_nothing(capsys, monkeypatch):
    argv = ["reduce-interval", "--size", "300", "--delta", "0.1", "--samples", "50",
            "--trials", "2", "--seed", "4"]
    _, whole, _ = run_cli(capsys, argv)
    rows = []
    draw = simulation.LazySimulation.sample_batch

    def recording(self, k):
        rows.append(k)
        return draw(self, k)

    monkeypatch.setattr(simulation.LazySimulation, "sample_batch", recording)
    monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", 7 * 9)   # 7 rows of depth 9
    _, chunked, _ = run_cli(capsys, argv)
    assert chunked == whole
    assert all(t["coupled"] for t in chunked)
    # per trial, both simulations draw 50 rows in blocks of at most 7
    assert rows == [7] * 14 + [1] * 2 + [7] * 14 + [1] * 2


def test_output_file_and_csv(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    code = main(["simulate", "--n", "3", "--delta", "0.5", "--trials", "40",
                 "--seed", "1", "--output", str(out), "--csv"])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 41
    csv_bytes = (tmp_path / "run.jsonl.csv").read_bytes()
    csv_lines = csv_bytes.decode().strip().splitlines()
    assert len(csv_lines) == 41  # header + 40 trials
    assert csv_lines[0] == "conditional_samples,kind,kl,samples_per_edge,trial"
    assert hashlib.sha256(csv_bytes).hexdigest() == CSV_SHA256


# sha256 of the .csv bytes test_output_file_and_csv writes (1416 bytes, CRLF rows)
CSV_SHA256 = "24a6bd4ded39d250aedb66252d1c951b21bc69e2d2fcab9012ee6b7d8df39171"


def test_failure_midway_keeps_the_records_written(tmp_path, monkeypatch):
    trial = cli._simulate_trial

    def failing(cfg, t):
        if t == 3:
            raise RuntimeError("trial 3 failed")
        return trial(cfg, t)

    monkeypatch.setattr(cli, "_simulate_trial", failing)
    out = tmp_path / "run.jsonl"
    with pytest.raises(RuntimeError):
        main(["simulate", "--n", "3", "--delta", "0.5", "--trials", "10", "--seed", "1",
              "--output", str(out), "--csv"])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["kind"], r["trial"]) for r in records] == [("trial", t) for t in range(3)]
    assert not (tmp_path / "run.jsonl.csv").exists()


def test_memory_is_flat_in_trials(tmp_path):
    # records are written as each trial ends and only running totals are kept,
    # so 10^4 trials peak within 1 MB of 10^3 trials
    def peak(trials):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        main(["hard-instance", "--n", "1", "--delta", "0.5", "--draws", "0",
              "--trials", str(trials), "--output", str(tmp_path / f"run{trials}.jsonl")])
        return tracemalloc.get_traced_memory()[1] - base

    peak(10)   # imports and caches
    tracemalloc.start()
    try:
        small, large = peak(1000), peak(10_000)
    finally:
        tracemalloc.stop()
    assert large <= small + 1_000_000


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PREFIXSIM_OUTPUT_DIR", str(tmp_path))
    code = main(["simulate", "--n", "3", "--delta", "0.5", "--trials", "40",
                 "--seed", "1", "--output", "sub/run.jsonl"])
    assert code == 0
    assert (tmp_path / "sub" / "run.jsonl").exists()


def test_workers_match_sequential(capsys, monkeypatch):
    # 50 trials run past the in-flight window of two workers
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["simulate", "--n", "3", "--delta", "0.5", "--trials", "50", "--seed", "11"]
    _, seq, seq_summary = run_cli(capsys, argv)
    _, par, par_summary = run_cli(capsys, argv + ["--workers", "2"])
    assert len(par) == 50 and 50 > cli.IN_FLIGHT_PER_WORKER * 2
    assert seq == par
    for summary in (seq_summary, par_summary):
        summary.pop("elapsed_seconds")
    assert seq_summary == par_summary


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the trials
    each map call submits at once, and maps in-process."""

    created: list = []
    submitted: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.submitted.append(len(items))
        return map(fn, items)


@pytest.mark.parametrize("cpus, workers, pools", [
    (3, 1000, [3]),
    (3, 2, [2]),
    (None, 8, []),   # unknown CPU count: one process, no pool
])
def test_workers_capped_at_cpu_count(capsys, monkeypatch, cpus, workers, pools):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = ["simulate", "--n", "3", "--delta", "0.5", "--trials", "30", "--seed", "11"]
    _, seq, _ = run_cli(capsys, argv)
    _, par, _ = run_cli(capsys, argv + ["--workers", str(workers)])
    assert _RecordingPool.created == pools
    assert seq == par
    # never the whole range at once: at most a fixed number of trials per worker in flight
    assert sum(_RecordingPool.submitted) == (30 if pools else 0)
    window = cli.IN_FLIGHT_PER_WORKER * max(pools, default=1)
    assert all(k <= window for k in _RecordingPool.submitted)


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "25", "--delta", "0.5"],
    ["simulate", "--n", "4", "--delta", "-1"],
    ["estimate-tv", "--n", "12", "--epsilon", "0.1"],
    ["adhoc", "--delta", "0.5", "--r", "0.05"],
    ["adhoc", "--delta", "0.3", "--r", "0.2"],
    ["adhoc", "--delta", "0.3", "--r", "0.08", "--n", "100"],
    ["hard-instance", "--n", "10"],
    ["reduce-interval", "--size", "0"],
    ["simulate", "--n", "4", "--delta", "0.5", "--csv"],
    ["verify-lemmas", "--sweep", "0"],
    ["verify-lemmas", "--trials", "0"],
    ["verify-lemmas", "--trials", "-4"],
    ["estimate-tv", "--n", "3", "--epsilon", "0.2", "--rounds", "0"],
    ["estimate-tv", "--n", "3", "--epsilon", "0.2", "--scale", "-1"],
    ["estimate-tv", "--n", "3", "--epsilon", "0.2", "--marginal-low", "0.9",
     "--marginal-high", "0.1"],
    ["simulate", "--n", "3", "--delta", "0.5", "--workers", "0"],
    ["reduce-interval", "--size", "8", "--workers", "-3"],
    ["reduce-interval", "--size", "8", "--samples", "-5"],
    ["hard-instance", "--n", "30", "--epsilon", "1.5", "--draws", "0"],
    ["hard-instance", "--n", "30", "--epsilon", "1.0", "--draws", "0"],
    # sizes past util.MAX_BLOCK_UNIFORMS (2^20) would ask for gigabytes in one draw
    ["adhoc", "--delta", "0.3", "--r", "1e-4"],
    ["adhoc", "--delta", "0.3", "--r", "0.08", "--n", str(2**20 + 1)],
    # 15/r^2 overflows to inf, and delta^2 underflows to 0
    ["adhoc", "--delta", "0.3", "--r", "1e-160"],
    ["adhoc", "--delta", "1e-200", "--r", "0.08"],
    ["hard-instance", "--n", str(2**20 + 1), "--epsilon", "0.1"],
    # n / delta overflows to inf, delta = inf leaves m = 0, eps^2 / 36 underflows to 0
    ["simulate", "--n", "2", "--delta", "5e-324"],
    ["reduce-interval", "--size", "4", "--delta", "1e-320"],
    ["simulate", "--n", "2", "--delta", "inf"],
    ["estimate-tv", "--n", "2", "--epsilon", "1e-170"],
    ["estimate-tv", "--n", "2", "--epsilon", "0.5", "--scale", "inf"],
    # finite but past cli.MAX_TRIAL_DRAWS: m = 2e300, m ~ 7e301 and 4e300 pairs per round
    ["simulate", "--n", "2", "--delta", "1e-300"],
    ["estimate-tv", "--n", "2", "--epsilon", "1e-150", "--rounds", "1"],
    ["reduce-interval", "--size", "4", "--delta", "1e-300"],
    ["estimate-tv", "--n", "2", "--epsilon", "0.5", "--scale", "1e300"],
    # 10^12 draws x n and samples x depth
    ["hard-instance", "--n", "2", "--epsilon", "0.1", "--draws", "1000000000000"],
    ["reduce-interval", "--size", "4", "--samples", "1000000000000"],
    # scale / eps^2 = 4e-12 rounds to no pairs per round
    ["estimate-tv", "--n", "2", "--epsilon", "0.5", "--scale", "1e-12"],
    # non-finite values would be written into the JSON records as NaN or Infinity
    ["hard-instance", "--n", "8", "--epsilon", "0.1", "--r", "nan"],
    ["hard-instance", "--n", "8", "--epsilon", "0.1", "--r", "inf"],
    ["adhoc", "--delta", "0.3", "--r", "0.0769", "--min-rate", "nan"],
    # rounds x pairs per round, and sweep x checkers, past cli.MAX_TRIAL_DRAWS
    ["estimate-tv", "--n", "2", "--epsilon", "0.5", "--rounds", "1000000000", "--trials", "1"],
    ["verify-lemmas", "--sweep", "1000000000"],
    # n < 1, delta = sqrt(2) eps / sqrt(n) or --delta outside (0, 1), and the
    # 8 / sqrt(n) r default past 1 for a no label: checked before the first trial
    ["hard-instance", "--n", "0", "--epsilon", "0.1"],
    ["hard-instance", "--n", "-5", "--epsilon", "0.1", "--draws", "3"],
    ["hard-instance", "--n", "2", "--epsilon", "0.1", "--label", "no"],
    ["hard-instance", "--n", "8", "--delta", "1.5"],
    ["hard-instance", "--n", "1", "--epsilon", "0.9"],
    # ranges the library validators check: simulation_delta, samples_per_edge,
    # tester_parameters and hard_instance_parameters
    ["estimate-tv", "--n", "3", "--epsilon", "1.5"],
    ["estimate-tv", "--n", "3", "--epsilon", "nan"],
    ["simulate", "--n", "3", "--delta", "nan"],
    ["reduce-interval", "--size", "8", "--delta", "-0.5"],
    ["reduce-interval", "--size", "8", "--delta", "nan"],
    ["adhoc", "--delta", "nan", "--r", "0.05"],
    ["adhoc", "--delta", "0.3", "--r", "-0.05"],
    ["hard-instance", "--n", "30", "--epsilon", "1.5", "--delta", "0.1", "--draws", "0"],
    ["hard-instance", "--n", "30", "--epsilon", "nan", "--draws", "0"],
])
def test_usage_errors_exit_2(capsys, argv):
    # --workers 2 goes first, so that a later --workers in argv still wins
    for workers in ([], ["--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *workers, *argv[1:]])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# Trial records of fixed runs, pinned byte for byte (JSON with sorted keys).
GOLDEN = {
    ("estimate-tv", "--n", "4", "--epsilon", "0.2", "--trials", "2", "--seed", "7"): [
        '{"budget_a": 54000, "budget_b": 54000, "epsilon": 0.2, "error": 0.008924141239419758, '
        '"estimate": 0.5001265213007662, "exact": 0.5090506625401859, "kind": "trial", '
        '"pairs_per_round": 400, "rounds": 9, "trial": 0, "within": true}',
        '{"budget_a": 54000, "budget_b": 54000, "epsilon": 0.2, "error": 0.01337125538129147, '
        '"estimate": 0.4000593666209627, "exact": 0.38668811123967123, "kind": "trial", '
        '"pairs_per_round": 400, "rounds": 9, "trial": 1, "within": true}',
    ],
    ("reduce-interval", "--size", "300", "--delta", "0.1", "--trials", "1", "--seed", "7"): [
        '{"budget_adapted": 45990, "budget_direct": 45990, "coupled": true, "depth": 9, '
        '"kind": "trial", "mass_preserved": true, "native_calls": 27270, "power_of_two": false, '
        '"size": 300, "trial": 0}',
    ],
    ("hard-instance", "--n", "128", "--epsilon", "0.1", "--label", "both", "--draws", "200",
     "--trials", "2", "--seed", "7"): [
        '{"conditional_samples": 200, "delta": 0.0125, "draws": 200, "kind": "trial", '
        '"label": "yes", "mean_effective": 1.935, "r": 0.7071067811865475, "trial": 0, '
        '"x": "1111100010000011000001110101111010011000110110110010010011100101'
        '1010111000110010000000100001100000100010100010110110101110000000"}',
        '{"conditional_samples": 200, "delta": 0.0125, "draws": 200, "kind": "trial", '
        '"label": "no", "mean_effective": 2.02, "r": 0.7071067811865475, "trial": 0, '
        '"x": "0010000011110101010110111110101001011111101101010101001100100111'
        '1010011101000011101111111110000100111110100101111101011010000010"}',
        '{"conditional_samples": 200, "delta": 0.0125, "draws": 200, "kind": "trial", '
        '"label": "yes", "mean_effective": 2.155, "r": 0.7071067811865475, "trial": 1, '
        '"x": "1100011000110101000000000000101110111110010101001011010101110001'
        '1100001110010010010111110010110101010111110110100011110110011010"}',
        '{"conditional_samples": 200, "delta": 0.0125, "draws": 200, "kind": "trial", '
        '"label": "no", "mean_effective": 1.895, "r": 0.7071067811865475, "trial": 1, '
        '"x": "1000001011111101110111010110011111110000101111001011000011101011'
        '0011101001111000111001000110101100011111100010010001011011101111"}',
    ],
    ("simulate", "--n", "10", "--delta", "0.25", "--trials", "2", "--seed", "7"): [
        '{"conditional_samples": 40920, "kind": "trial", "kl": 0.16250963088279635, '
        '"samples_per_edge": 40, "trial": 0}',
        '{"conditional_samples": 40920, "kind": "trial", "kl": 0.176911528554274, '
        '"samples_per_edge": 40, "trial": 1}',
    ],
    ("verify-lemmas", "--sweep", "40", "--seed", "7"): [
        '{"instances": 40, "kind": "trial", "lemma": "bounded-ratio-kl", "passed": true, '
        '"violations": 0, "worst_margin": 1.4773302558959854e-08}',
        '{"instances": 40, "kind": "trial", "lemma": "symmetric-chi-square", "passed": true, '
        '"violations": 0, "worst_margin": 0.0026858253626753257}',
        '{"instances": 40, "kind": "trial", "lemma": "half-mixture-bias", "passed": true, '
        '"violations": 0, "worst_margin": 0.0001039346699540655}',
        '{"instances": 40, "kind": "trial", "lemma": "nonadaptive-run-kl", "passed": true, '
        '"violations": 0, "worst_margin": 2.8601726947958196e-07}',
        '{"instances": 40, "kind": "trial", "lemma": "pinsker", "passed": true, '
        '"violations": 0, "worst_margin": 0.08985108038620454}',
        '{"instances": 40, "kind": "trial", "lemma": "product-additivity", "passed": true, '
        '"violations": 0, "worst_margin": 0.0}',
        '{"instances": 40, "kind": "trial", "lemma": "chain-rule", "passed": true, '
        '"violations": 0, "worst_margin": 0.0}',
        '{"instances": 40, "kind": "trial", "lemma": "edge-estimate-kl-bound", '
        '"passed": true, "violations": 0, "worst_margin": 0.0028522821851420244}',
        '{"instances": 40, "kind": "trial", "lemma": "log-bounds", "passed": true, '
        '"violations": 0, "worst_margin": 0.0}',
        '{"instances": 40, "kind": "trial", "lemma": "binomial-kl-identity", "passed": true, '
        '"violations": 0, "worst_margin": 0.0}',
    ],
}


# The summary lines of the GOLDEN runs, without elapsed_seconds.
GOLDEN_SUMMARIES = {
    ("estimate-tv", "--n", "4", "--epsilon", "0.2", "--trials", "2", "--seed", "7"):
        '{"config": {"epsilon": 0.2, "marginal_high": 0.9, "marginal_low": 0.1, "n": 4, '
        '"rounds": 9, "scale": 16.0, "seed": 7, "subcommand": "estimate-tv", "trials": 2}, '
        '"kind": "summary", "mean_error": 0.011147698310355614, "passed": true, '
        '"subcommand": "estimate-tv", "success_rate": 1.0, "total_budget": 216000, '
        '"version": "0.1.0"}',
    ("reduce-interval", "--size", "300", "--delta", "0.1", "--trials", "1", "--seed", "7"):
        '{"config": {"delta": 0.1, "samples": 16, "seed": 7, "size": 300, '
        '"subcommand": "reduce-interval", "trials": 1}, "coupled": true, "kind": "summary", '
        '"mass_preserved": true, "passed": true, "subcommand": "reduce-interval", '
        '"version": "0.1.0"}',
    ("hard-instance", "--n", "128", "--epsilon", "0.1", "--label", "both", "--draws",
     "200", "--trials", "2", "--seed", "7"):
        '{"config": {"delta": null, "draws": 200, "epsilon": 0.1, "label": "both", "n": 128, '
        '"r": null, "seed": 7, "subcommand": "hard-instance", "trials": 2}, "gap_ok": true, '
        '"k_high": 44.40408205773457, "k_low": 36.287187078897965, "kind": "summary", '
        '"log_p_high": -89.22276335947153, "log_p_low": -89.42569630380706, "passed": true, '
        '"subcommand": "hard-instance", "version": "0.1.0"}',
    ("simulate", "--n", "10", "--delta", "0.25", "--trials", "2", "--seed", "7"):
        '{"config": {"delta": 0.25, "marginal_high": 0.8, "marginal_low": 0.2, "n": 10, '
        '"seed": 7, "subcommand": "simulate", "trials": 2}, "delta": 0.25, "kind": "summary", '
        '"max_kl": 0.176911528554274, "mean_kl": 0.16971057971853518, "passed": true, '
        '"samples_per_edge": 40, "subcommand": "simulate", "total_conditional_samples": 81840, '
        '"version": "0.1.0"}',
    ("verify-lemmas", "--sweep", "40", "--seed", "7"):
        '{"checkers": 10, "config": {"seed": 7, "subcommand": "verify-lemmas", "sweep": 40, '
        '"trials": 1}, "kind": "summary", "passed": true, "subcommand": "verify-lemmas", '
        '"version": "0.1.0", "violations": 0}',
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_trial_records(capsys, argv):
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == GOLDEN[argv]
    summary = json.loads(lines[-1])
    summary.pop("elapsed_seconds")
    assert json.dumps(summary, sort_keys=True) == GOLDEN_SUMMARIES[argv]


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_one_process_run_loads_no_pool():
    code = ("import sys\n"
            "from prefixsim.cli import main\n"
            "main(['simulate', '--n', '3', '--delta', '0.5', '--trials', '2'])\n"
            "print('multiprocessing' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "False"
