"""Names and counts that the benchmark's per-layer tracer relies on.

perfbench/tracing.py wraps functions by name and counts from what they
return; each assertion here protects one of its counters:

- oracles.rows, oracles.calls and oracles.block_bytes_max: each oracle's
  draw is found through vars() of its own class, and a traced op fails
  unless the rows of the returned draw blocks add up to the budget ledger.
- simulation.edges_estimated: prefixsim.simulation.est_simulation_edge is
  looked up by name and counts one estimated edge per call.
- reduction.native_rows: TableIntervalOracle.draw_batch is found through
  vars() of its class and counts len() of its result, one element per row.

Renaming, inheriting or re-shaping any of these breaks `--trace 1` runs.
"""

import numpy as np

from prefixsim import simulation
from prefixsim.oracles import TreeOracle
from prefixsim.reduction import AdaptedPrefixOracle, TableIntervalOracle, interval_breakdown
from prefixsim.streams import substream
from prefixsim.trees import random_tree

from helpers import prefix_rows


def test_each_oracle_defines_its_own_draw():
    assert "conditional_sample_batch" in vars(TreeOracle)
    assert "conditional_sample_batch" in vars(AdaptedPrefixOracle)
    assert "draw_batch" in vars(TableIntervalOracle)


def test_edge_estimator_keeps_its_name():
    assert callable(simulation.est_simulation_edge)


def test_edge_estimator_runs_once_per_edge(monkeypatch):
    calls = []
    estimate = simulation.est_simulation_edge
    monkeypatch.setattr(simulation, "est_simulation_edge", lambda first: calls.append(1) or estimate(first))
    simulation.preprocess(4, TreeOracle(random_tree(4, substream(4, "t"))), 0.5, seed=5)
    assert len(calls) == 2 ** 4 - 1


def test_block_rows_equal_rows_charged():
    weights = substream(1, "w").uniform(0.1, 1.0, 6)
    for oracle in (TreeOracle(random_tree(3, substream(2, "t"))),
                   AdaptedPrefixOracle(interval_breakdown(6), TableIntervalOracle(weights))):
        prefixes = prefix_rows("0", "1", "1")
        block = oracle.conditional_sample_batch(prefixes, 7, [substream(3, j) for j in range(3)])
        assert block.shape == (3 * 7, 2) and block.dtype == np.uint8
        assert block.shape[0] == oracle.budget.conditional_calls


def test_native_draw_returns_one_element_per_row():
    native = TableIntervalOracle(substream(7, "w").uniform(0.1, 1.0, 11))
    elems = native.draw_batch([1, 4, 9, 11], [11, 4, 11, 11], 5, [substream(8, j) for j in range(4)])
    assert elems.shape == (4 * 5,) and len(elems) == native.calls
