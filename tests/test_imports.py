"""Source-level guards over the modules of src/prefixsim."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import prefixsim

#: Test-only references and wrappers that live in tests/helpers.py or are
#: gone; the package reaches trees only through their block walks.
TEST_ONLY = {"SignAssignment", "FiniteDistribution", "random_distribution", "total_variation",
             "uniform_tree", "point_mass_tree", "one_sided_expectation",
             # the lone forms of the divergence checkers, over lab's row kernels
             "check_bounded_ratio_dkl", "check_symmetric_chi_square", "check_half_mixture_bias",
             "check_nonadaptive_run_kl", "check_pinsker", "check_product_additivity",
             "check_binomial_kl_identity", "check_chain_rule", "check_log_bounds", "_alone",
             "vector_kl", "chain_rule_kl", "total_draws"}
#: Divergences between trees are computed in divergence_lab only.
DIVERGENCES = {"bernoulli_kl", "kl_divergence", "tv_distance", "chain_rule_kl"}
#: One-prefix wrappers over MarginalTree.walk; callers pass a block of one row.
SCALAR_WALKS = {"marginal", "mass", "conditional_mass", "_path_mass"}
#: Deleted copies of the tree walk and the names that served them: a simulation
#: is a MarginalTree, walked by MarginalTree.walk and read by materialize, and
#: estimate_tv blocks its pairs with util.row_blocks.
GONE = {"as_marginal_tree", "_walk", "_node_dtype", "PAIR_BLOCK", "cylinders", "descend",
        # a stream group draws all its lanes' blocks in one call, _StreamGroup.draw
        "_StreamGroup.random",
        # eager learning is materialize's walk
        "LazySimulation._learn_all",
        # a materialize after LazySimulation(oracle, delta, seed); the lazy
        # EncodedMarginalTree, whose materialize builds the table
        "preprocess", "encoded_marginal_tree",
        # a tree's per-level hooks are _f and _step; _step's child map names the children
        "_split", "_child",
        # TableMarginalTree(levels) is the one table constructor, and copies and checks
        "_trusted", "_keep",
        # a simulation names its nodes by store slot: no sorted index to search
        "_find", "_nodes"}
#: Generator constructors; streams.py alone builds a generator, from a key's seed words.
GENERATORS = {"PCG64", "Generator", "default_rng"}
#: The per-level hooks of a tree; only trees.py loops over them.
TREE_HOOKS = {"_f", "_step"}


def _modules():
    sources = sorted(Path(prefixsim.__file__).parent.glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sources]


def test_no_module_imports_fractions():
    # exact rational checks live in the tests (helpers.query_exact and
    # helpers.exact_total_mass); the package computes in integers and floats
    offenders = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "fractions" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
    # nor through the standard library: statistics loads fractions and decimal
    code = ("import sys, prefixsim.cli; "
            "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(Path(prefixsim.__file__).parent.parent)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_module_defines_a_test_only_name():
    offenders = []
    mix = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in TEST_ONLY:
                    offenders.append(f"{path.name}:{node.lineno} {node.name}")
                if path.name == "hardness.py" and node.name == "_mix":
                    mix.append(node)
            if isinstance(node, ast.ClassDef) and node.name == "MarginalTree":
                offenders += [f"{path.name}:{item.lineno} MarginalTree.{item.name}" for item in node.body
                              if isinstance(item, ast.FunctionDef) and item.name in SCALAR_WALKS]
    assert offenders == []
    # _mix has one path, on uint64 arrays; the int reference is helpers.mix
    assert len(mix) == 1
    calls = [node.func.id for node in ast.walk(mix[0])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "isinstance" not in calls


def test_trees_defines_no_divergence():
    path, tree = next((path, tree) for path, tree in _modules() if path.name == "trees.py")
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert defined & DIVERGENCES == set()


def _defined_names(tree):
    """Names a module binds: functions, classes, methods (also as Class.method) and assignment targets."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((item.lineno, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, (ast.Name, ast.Attribute)):
                        yield node.lineno, sub.id if isinstance(sub, ast.Name) else sub.attr


def test_no_module_brings_back_a_deleted_walk():
    offenders = [f"{path.name}:{line} {name}" for path, tree in _modules()
                 for line, name in _defined_names(tree) if name in GONE]
    assert offenders == []


def test_only_trees_walks_a_tree_level_by_level():
    # a loop that reaches a tree hook is a per-level walk
    offenders = []
    for path, tree in _modules():
        if path.name == "trees.py":
            continue
        for loop in ast.walk(tree):
            if isinstance(loop, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                offenders += [f"{path.name}:{node.lineno} {node.attr}" for node in ast.walk(loop)
                              if isinstance(node, ast.Attribute) and node.attr in TREE_HOOKS]
    assert offenders == []


def test_the_simulation_is_a_tree_and_defines_no_walk():
    path, tree = next((path, tree) for path, tree in _modules() if path.name == "simulation.py")
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "LazySimulation")
    assert [base.id for base in cls.bases] == ["MarginalTree"]
    methods = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
    assert methods & {"walk", "materialize", "masses"} == set()


def test_only_the_base_tree_and_the_sign_tree_name_nodes():
    # every other tree's handles are MarginalTree's: int64 from the root 0,
    # the node's index in its level or, in a simulation, its store slot
    offenders = []
    for path, tree in _modules():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name not in {"MarginalTree", "SignMarginalTree"}:
                offenders += [f"{path.name}:{line} {cls.name}.{name}" for line, name in _defined_names(cls)
                              if name in {"_root", "_handle_dtype"}]
    assert offenders == []


def test_no_module_names_the_object_dtype():
    # handles and stores stay fixed-width at every n: no array of Python objects
    offenders = [f"{path.name}:{node.lineno}" for path, tree in _modules() for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id == "object"]
    assert offenders == []


def _scopes(node):
    """(name, scope) of a module's top-level statement: each method apart, as Class.method, for a class."""
    if isinstance(node, ast.ClassDef):
        return [(f"{node.name}.{getattr(item, 'name', '')}", item) for item in node.body]
    return [(getattr(node, "name", ""), node)]


def test_only_the_tree_oracle_steps_a_tree_outside_trees():
    # TreeOracle takes a draw's first free level with one _step on the k
    # prefix handles; every other level is MarginalTree.walk's, and only the
    # simulation and the sign tree replace the default _step built from _f
    reached, overrides = [], []
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                overrides += [f"{path.name} {node.name}" for _, name in _defined_names(node) if name == "_step"]
            if path.name == "trees.py":
                continue
            reached += [f"{path.name} {name}" for name, scope in _scopes(node) for sub in ast.walk(scope)
                        if isinstance(sub, ast.Attribute) and sub.attr == "_step"]
    assert reached == ["oracles.py TreeOracle.conditional_sample_batch"]
    assert sorted(overrides) == ["hardness.py SignMarginalTree", "simulation.py LazySimulation",
                                 "trees.py MarginalTree"]


def test_only_the_simulations_mass_walks_pass_a_mass_to_walk():
    # an oracle draw walks the tree's own splits below its prefix, whatever
    # the prefix's mass, so no draw computes a cylinder mass; p is walk's
    # third parameter
    passing = []
    for path, tree in _modules():
        if path.name == "trees.py":
            continue
        for node in tree.body:
            passing += [f"{path.name} {name}" for name, scope in _scopes(node) for sub in ast.walk(scope)
                        if isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "walk"
                        and (len(sub.args) >= 3 or any(kw.arg == "p" for kw in sub.keywords))]
    assert sorted(passing) == ["simulation.py LazySimulation.query_batch", "simulation.py LazySimulation.sample_batch"]


def test_only_trees_calls_the_trusted_table_constructor():
    # no table skips TableMarginalTree's copy and checks: no module, trees.py
    # included, reaches a constructor that keeps levels unchecked
    offenders = [f"{path.name}:{node.lineno}" for path, tree in _modules() for node in ast.walk(tree)
                 if (isinstance(node, ast.Attribute) and node.attr in {"_trusted", "_keep"})
                 or (isinstance(node, ast.Name) and node.id in {"_trusted", "_keep"})]
    assert offenders == []


def test_numpy_is_the_only_runtime_dependency():
    # pyproject.toml declares numpy alone: every absolute import is numpy's or the standard library's
    offenders = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] != "numpy" and name.split(".")[0] not in sys.stdlib_module_names]
    assert offenders == []


def test_only_streams_builds_a_generator():
    # every draw reads a keyed stream: a substream, or a lane of a stream group
    offenders = []
    for path, tree in _modules():
        if path.name == "streams.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in GENERATORS:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
