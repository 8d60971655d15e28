"""Names and counts that the benchmark's per-layer tracer relies on.

perfbench/tracing.py wraps functions by name and counts from what they
return; each assertion here protects one of its counters:

- oracles.rows, oracles.calls and oracles.block_bytes_max: each oracle's
  draw is found through vars() of its own class, and a traced op fails
  unless the rows of the returned draw blocks add up to the conditional_calls
  ledger.  An edge estimate's draw returns only its first free column
  (levels=1), so block_bytes_max is 8 bytes per returned row, not the size
  of the uniforms drawn; a traced lazy walk is checked here with the
  tracer itself.
- simulation.edges_estimated: prefixsim.simulation.est_simulation_edge is
  looked up by name and counts one estimated edge per call.
- reduction.native_rows: TableIntervalOracle.draw_batch is found through
  vars() of its class and counts len() of its result, one element per row.
- streams.self_s and streams.calls: the edge streams of an estimator group
  come from one call of prefixsim.streams.substreams, a public function the
  tracer wraps, so the group's seeding (its child-seed hashes and seed
  words) lands in streams and the calls count groups.  The group and its
  seed-word carrier are private classes, so the tracer wraps neither the
  group's block draw nor generate_state and pays no span per lane: every
  lane's generator is built and advanced inside the oracle draw that reads
  it, so under --trace 1 that time lands in oracles.self_s for a tree
  oracle and in reduction.self_s for the adapted and interval oracles.
- reduction.self_s: the reduce-interval mass check is
  prefixsim.reduction.mass_preserved, a public function, so its time is
  reduction's and not cli's.

Renaming, inheriting or re-shaping any of these breaks `--trace 1` runs.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np

from prefixsim import reduction, simulation, streams
from prefixsim.oracles import TreeOracle
from prefixsim.simulation import LazySimulation
from prefixsim.reduction import AdaptedPrefixOracle, TableIntervalOracle
from prefixsim.streams import substream, substreams
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
    simulation.LazySimulation(TreeOracle(random_tree(4, substream(4, "t"))), 0.5, seed=5).materialize()
    assert len(calls) == 2 ** 4 - 1


def test_block_rows_equal_rows_charged():
    weights = substream(1, "w").uniform(0.1, 1.0, 6)
    for oracle in (TreeOracle(random_tree(3, substream(2, "t"))),
                   AdaptedPrefixOracle(TableIntervalOracle(weights))):
        prefixes = prefix_rows("0", "1", "1")
        block = oracle.conditional_sample_batch(prefixes, 7, substreams(3, parts=range(3)))
        assert block.shape == (3 * 7, 2) and block.dtype == np.uint8
        assert block.shape[0] == oracle.conditional_calls


def test_native_draw_returns_one_element_per_row():
    native = TableIntervalOracle(substream(7, "w").uniform(0.1, 1.0, 11))
    elems = native.draw_batch([1, 4, 9, 11], [11, 4, 11, 11], 5, substreams(8, parts=range(4)))
    assert elems.shape == (4 * 5,) and len(elems) == native.calls


def test_edge_streams_are_seeded_once_per_group(monkeypatch):
    groups = []
    seed_group = streams.substreams
    monkeypatch.setattr(simulation, "substreams",
                        lambda *key, parts: groups.append(len(parts)) or seed_group(*key, parts=parts))
    simulation.LazySimulation(TreeOracle(random_tree(4, substream(4, "t"))), 0.5, seed=5).materialize()
    assert groups == [1, 2, 4, 8]
    assert inspect.isfunction(seed_group) and seed_group.__module__ == "prefixsim.streams"


def test_seed_word_carrier_is_private():
    carrier = type(streams.substreams(1, "edge", parts=["0"]))
    assert carrier.__module__ == "prefixsim.streams" and carrier.__name__.startswith("_")
    public = [name for name, obj in vars(streams).items()
              if inspect.isclass(obj) and obj.__module__ == streams.__name__ and not name.startswith("_")]
    assert public == []


def test_mass_check_is_a_public_reduction_function():
    assert inspect.isfunction(reduction.mass_preserved)
    assert reduction.mass_preserved.__module__ == "prefixsim.reduction"


def test_traced_lazy_walk_counts_rows_and_edges(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    sim = LazySimulation(TreeOracle(random_tree(5, substream(9, "t"), 0.1, 0.9)), 0.25, seed=10)
    with tracer.active():
        sim.query("10110")
    _, counts = tracer.take()
    # one prefix per level: blocks of m rows and one returned column, 8 bytes a row
    assert counts["oracles.block_bytes_max"] == 8 * sim.m
    assert counts["oracles.rows"] == 5 * sim.m and counts["simulation.edges_estimated"] == 5
    with tracer.active():
        sim.sample_batch(40)
        sim.query_batch(prefix_rows("10110", "00001", "11111"))
    assert tracer.is_clean()
    _, more = tracer.take()
    counts.update(more)
    assert counts["oracles.rows"] == sim.oracle.conditional_calls == sim.m * sim.touched_pairs
    assert counts["simulation.edges_estimated"] == sim.touched_pairs
