"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import tracing
import workloads
import run


def _op(*outputs):
    return workloads.OpResult(0.1, list(outputs), None)


def _simulate_output(conditional_samples):
    trial = {"kind": "trial", "trial": 0, "kl": 0.1, "samples_per_edge": 40,
             "conditional_samples": conditional_samples}
    summary = {"kind": "summary", "elapsed_seconds": 0.5, "passed": True}
    return 0, json.dumps(trial) + "\n" + json.dumps(summary) + "\n"


def test_invariant_checker_rejects_a_doctored_record():
    learn = workloads.WORKLOADS["learn-eager"]
    rows, reason = workloads.check_op(learn, _op(_simulate_output(40920)))
    assert (rows, reason) == (40920, None)
    rows, reason = workloads.check_op(learn, _op(_simulate_output(40919)))
    assert "conditional_samples=40919" in reason


def test_coupling_is_checked_only_on_a_power_of_two_domain():
    budget = (2 ** 9 - 1) * workloads.M_INTERVAL
    trial = {"kind": "trial", "mass_preserved": True, "coupled": False, "power_of_two": False,
             "budget_direct": budget, "budget_adapted": budget}
    assert workloads._check_interval([trial]) is None
    assert "coupled=False" in workloads._check_interval([{**trial, "power_of_two": True}])


def test_exit_two_and_reference_mismatch_fail():
    learn = workloads.WORKLOADS["learn-eager"]
    code, text = _simulate_output(40920)
    assert "exited 2" in workloads.check_op(learn, _op((2, text)))[1]
    renamed = text.replace("conditional_samples", "samples")
    assert "lacks the field" in workloads.check_op(learn, _op((code, renamed)))[1]
    result = _op((code, text))
    assert workloads.check_op(learn, result, (workloads.digest(result), 40920))[1] is None
    assert "reference" in workloads.check_op(learn, result, ("0" * 32, 40920))[1]
    assert "oracle rows" in workloads.check_op(learn, result, (workloads.digest(result), 1))[1]


def test_digest_ignores_wall_clock():
    code, text = _simulate_output(40920)
    slower = text.replace('"elapsed_seconds": 0.5', '"elapsed_seconds": 7.25')
    assert workloads.digest(_op((code, text))) == workloads.digest(_op((code, slower)))


def test_self_time_on_a_synthetic_span_tree():
    cli, oracles, bits = (tracing.LAYERS.index(n) for n in ("cli", "oracles", "bits"))
    spans = [
        (3, 2, bits, 2.0, 3.0),       # bits inside oracles
        (4, 2, oracles, 4.0, 5.0),    # oracles calling oracles: not a new entry
        (2, 1, oracles, 1.0, 6.0),
        (5, 1, bits, 7.0, 7.5),
        (1, 0, cli, 0.0, 10.0),
    ]
    self_s, calls = tracing.layer_table(spans)
    assert self_s[cli] == pytest.approx(10.0 - 5.0 - 0.5)
    assert self_s[oracles] == pytest.approx((5.0 - 1.0 - 1.0) + 1.0)
    assert self_s[bits] == pytest.approx(1.5)
    assert sum(self_s) == pytest.approx(10.0)
    assert (calls[cli], calls[oracles], calls[bits]) == (1, 1, 2)


def test_seed_to_op_seed_derivation_is_stable():
    assert workloads.op_seed(1000, 0) == 16362171636935279824
    assert workloads.op_seed(1000, 1) == 18193772909000951812
    assert workloads.op_seed(7, "warm-up", 0) == 8188883103485986163
    assert len({workloads.op_seed(1000, i) for i in range(1000)}) == 1000


def test_wrappers_are_restored_after_a_traced_block():
    tracer = tracing.Tracer()
    assert tracer.is_clean()
    with tracer.active():
        assert not tracer.is_clean()
        workloads.run_op(workloads.WORKLOADS["learn-eager"], 1)
    assert tracer.is_clean()
    spans, counts = tracer.take()
    assert counts["oracles.rows"] == 40920
    assert counts["simulation.edges_estimated"] == 1023
    assert spans and tracer.take() == ([], {})


def test_tail_has_ten_ops_beyond_it():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_reports_the_declared_metrics(trace, section, capsys):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.NAMES)
    assert run.main(["--workload", "learn-eager", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
