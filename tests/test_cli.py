import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from prefixsim import cli, oracles, simulation, util
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

    def recording(self, prefixes, m, rngs):
        uniforms.append(len(prefixes) * m * (self.n - prefixes.shape[1]))
        return draw(self, prefixes, m, rngs)

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
        def recording(self, prefixes, m, rngs, draw=cls.conditional_sample_batch):
            uniforms.append(len(prefixes) * m * (self.n - prefixes.shape[1]))
            return draw(self, prefixes, m, rngs)

        monkeypatch.setattr(cls, "conditional_sample_batch", recording)
    monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", 40)
    _, chunked, _ = run_cli(capsys, argv)
    assert chunked == whole
    assert uniforms and max(uniforms) <= 40


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

    def recording(self, k, rng=None):
        rows.append(k)
        return draw(self, k, rng)

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
    csv_lines = (tmp_path / "run.jsonl.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 41  # header + 40 trials
    assert "kl" in csv_lines[0].split(",")


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PREFIXSIM_OUTPUT_DIR", str(tmp_path))
    code = main(["simulate", "--n", "3", "--delta", "0.5", "--trials", "40",
                 "--seed", "1", "--output", "sub/run.jsonl"])
    assert code == 0
    assert (tmp_path / "sub" / "run.jsonl").exists()


def test_workers_match_sequential(capsys):
    argv = ["simulate", "--n", "3", "--delta", "0.5", "--trials", "6", "--seed", "11"]
    _, seq, _ = run_cli(capsys, argv)
    _, par, _ = run_cli(capsys, argv + ["--workers", "2"])
    assert seq == par


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, workers, pools", [
    (3, 1000, [3]),
    (3, 2, [2]),
    (None, 8, []),   # unknown CPU count: one process, no pool
])
def test_workers_capped_at_cpu_count(capsys, monkeypatch, cpus, workers, pools):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = ["simulate", "--n", "3", "--delta", "0.5", "--trials", "4", "--seed", "11"]
    _, seq, _ = run_cli(capsys, argv)
    _, par, _ = run_cli(capsys, argv + ["--workers", str(workers)])
    assert _RecordingPool.created == pools
    assert seq == par


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
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_trial_records(capsys, argv):
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == GOLDEN[argv]


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
