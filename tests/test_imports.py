"""Source-level guards over the modules of src/prefixsim."""

import ast
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
GONE = {"as_marginal_tree", "_walk", "_node_dtype", "PAIR_BLOCK", "cylinders", "descend"}
#: The per-level hooks of a tree; only trees.py loops over them.
TREE_HOOKS = {"_split", "_f", "_child"}


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
    """Names a module binds: functions, classes, and assignment targets (plain or attribute)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
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
    # a loop that reaches a tree hook is a per-level walk; TreeOracle's
    # one first-level step (a _split and a _child outside any loop) is not
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
