"""Guards over the package source itself."""

import argparse
import ast
from pathlib import Path

import reglab
from reglab import cli, experiments

SOURCES = sorted(Path(reglab.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    """Soundness checks raise ``SoundnessError``: ``python -O`` strips every ``assert``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def _names(tree: ast.AST) -> set[str]:
    """Every identifier, attribute, definition, imported name and string constant in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_only_regularity_names_the_checkers_behind_the_verdict_policy():
    """Callers judge a pair through ``regularity.pair_verdict``, never a checker of their own choosing."""
    checkers = {"check_regular_exhaustive", "refute_regular_sampled"}
    named = {
        path.name: sorted(checkers & _names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
        for path in SOURCES
    }
    assert named.pop("regularity.py") == sorted(checkers)
    assert {name: found for name, found in named.items() if found} == {}


def test_experiments_partition_and_clean_only_in_the_regularize_stage():
    """The partitioning experiments share ``experiments._regularize``; none partitions or cleans by hand."""
    stage = {"sparse_regular_partition", "clean_partition"}
    path = Path(reglab.__file__).parent / "experiments.py"
    callers = {name: [] for name in sorted(stage)}
    for function in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in stage:
                callers[node.func.id].append(getattr(function, "name", "<module>"))
    assert callers == {"clean_partition": ["_regularize"], "sparse_regular_partition": ["_regularize"]}


def test_one_search_kernel_and_one_import_direction():
    """Only the level route and the embedding kernel walk a search plan; ``counting`` never imports ``embedding``."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    walkers = sorted(name for name, tree in trees.items() if "search_plan" in _names(tree))
    assert walkers == ["counting.py", "embedding.py"]
    imported = set()  # dotted paths as written, e.g. "graphs.PatternGraph" for "from .graphs import PatternGraph"
    for node in ast.walk(trees["counting.py"]):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
    assert "graphs.PatternGraph" in imported
    assert [name for name in imported if "embedding" in name.split(".")] == []


def test_refutations_come_from_two_decisions_that_recount_their_witness():
    """Only the two-sided and the one-sided decision of ``regularity`` construct a refuted verdict.

    Each of them recounts its witness with ``pair_density``, so a new
    candidate source reaches a refutation only through that re-check.
    """
    builders = {}
    for path in SOURCES:
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(function, ast.FunctionDef):
                continue
            calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
            refutes = any(
                isinstance(call.func, ast.Name) and call.func.id == "RegularityVerdict"
                and call.args and isinstance(call.args[0], ast.Name) and call.args[0].id == "REFUTED"
                for call in calls
            )
            if refutes:
                recounts = any(isinstance(call.func, ast.Name) and call.func.id == "pair_density" for call in calls)
                builders[f"{path.name}:{function.name}"] = recounts
    assert len(builders) == 2
    assert {name.split(":")[0] for name in builders} == {"regularity.py"}
    assert all(builders.values())


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads (``from __future__`` is exempt)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_package_modules_import_no_unused_name():
    """Every imported name of the package and its tests is used; ``__init__.py`` imports only to re-export."""
    unused = {}
    for path in SOURCES + TESTS:
        if path.name != "__init__.py":
            found = _unused_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            if found:
                unused[f"{path.parent.name}/{path.name}"] = found
    assert len(TESTS) > 1
    assert unused == {}


def test_edge_counts_are_recounted_never_stored():
    """Edge counts come from the rows they count: no module assigns an ``edge_count`` attribute or names ``pair_edge_counts``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
                isinstance(part, ast.Attribute) and part.attr == "edge_count"
                for target in targets
                for part in ast.walk(target)
            ):
                found.append(f"{path.name}:{node.lineno} assigns edge_count")
        if "pair_edge_counts" in _names(tree):
            found.append(f"{path.name} names pair_edge_counts")
    assert found == []


def _own_nodes(function: ast.AST):
    """The nodes of ``function``'s body, not descending into the functions it defines."""
    for child in ast.iter_child_nodes(function):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _own_nodes(child)


def test_one_candidate_step_per_walk_in_the_search_kernel():
    """Exactly two functions of ``embedding.py``, its two walks, intersect a candidate set with host rows.

    A host row is read from ``adj``, or from the enumeration walk's
    ``rows``, which holds the ``adj`` rows of its placed hosts.  Pins are
    one-vertex candidate masks, so no pin placement repeats the step.
    """
    path = Path(reglab.__file__).parent / "embedding.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    steppers = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                if any(
                    isinstance(own, ast.AugAssign) and isinstance(own.op, ast.BitAnd)
                    and isinstance(own.value, ast.Subscript) and {"adj", "rows"} & _names(own.value.value)
                    for own in _own_nodes(child)
                ):
                    steppers.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    assert steppers == ["_embeddings", "count_embeddings"]


def _subcommands(parser: argparse.ArgumentParser, path: tuple = ()):
    """Each subcommand's name path, such as ``("experiment", "aes")``, with its parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), sub
                yield from _subcommands(sub, path + (name,))


def test_cli_declares_no_experiment_parameter():
    """Every ``experiment`` option comes from the declarations in ``experiments.EXPERIMENTS``.

    ``cli.py`` names no experiment option or field that no other command
    has, and each ``experiment <name>`` option is a declared one with its
    help and no default of its own (argparse's ``SUPPRESS``), so the
    record's declared default holds.
    """
    commands = dict(_subcommands(cli.build_parser()))
    other = {
        name
        for path, sub in commands.items()
        if path[0] != "experiment"
        for action in sub._actions
        for name in (action.dest, *action.option_strings)
    }
    declared = set()
    options = 0
    for name, record in experiments.EXPERIMENTS.items():
        declared |= {name for row in record.declared() for name in (row.name, row.option) if name}
        actions = commands["experiment", name]._actions
        built = {(a.option_strings[0], a.dest, a.default, a.help) for a in actions if a.dest != "help"}
        assert built == {(row.option, row.name, argparse.SUPPRESS, row.help) for row in record.declared() if row.option}
        options += len(built)
    assert options == 40
    path = Path(cli.__file__)
    assert (_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) & declared) - other == set()


#: functions and methods of the package that no other place in it names, each with its reason
UNREFERENCED_ALLOWED = {
    "regularity.check_lower_regular": "reserved for the one-sided regularity work of ROADMAP item 5",
    "counting.constrained_count": "reserved for the overlay counts of ROADMAP item 5",
    "graphs.SimpleGraph.edges_between": "the oracle of the pair-density tests",
    "graphs.PatternGraph.cycle": "the tests' template constructor",
}


def _references(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Each name, attribute and string constant in a module that is not a docstring, with its node."""
    docstrings = {
        id(scope.body[0].value)
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and scope.body and isinstance(scope.body[0], ast.Expr)
        and isinstance(scope.body[0].value, ast.Constant) and isinstance(scope.body[0].value.value, str)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            found.append((node.value, node))
    return found


def _definitions(node: ast.AST, prefix: str):
    """Each function and method under ``node``, nested ones too, with its dotted name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def unreferenced_functions(sources) -> list[str]:
    """Functions and methods that nothing in ``sources`` names outside their own body.

    ``__init__.py`` only re-exports, so its imports and ``__all__`` do not count; dunder methods are
    called by the language, not by name.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sources}
    references = {}
    for module, tree in trees.items():
        if module != "__init__":
            for name, node in _references(tree):
                references.setdefault(name, []).append(node)
    found = []
    for module, tree in trees.items():
        for qualname, function in _definitions(tree, f"{module}."):
            if function.name.startswith("__") and function.name.endswith("__"):
                continue
            inside = {id(node) for node in ast.walk(function)}
            if all(id(node) in inside for node in references.get(function.name, [])):
                found.append(qualname)
    return sorted(found)


def test_every_function_is_referenced_from_elsewhere_in_the_package(tmp_path):
    """A public helper that nothing in the package calls goes; the few kept ones say why."""
    assert unreferenced_functions(SOURCES) == sorted(UNREFERENCED_ALLOWED)
    # a helper nothing calls fails the guard, even when the package re-exports it
    patterns = Path(reglab.__file__).parent / "patterns.py"
    (tmp_path / "patterns.py").write_text(
        patterns.read_text(encoding="utf-8")
        + "\n\ndef is_strictly_balanced(pattern):\n    return two_density(pattern).strictly_balanced\n",
        encoding="utf-8",
    )
    (tmp_path / "__init__.py").write_text(
        "from .patterns import is_strictly_balanced\n\n__all__ = ['is_strictly_balanced']\n", encoding="utf-8"
    )
    restored = [tmp_path / "__init__.py", tmp_path / "patterns.py"]
    restored += [path for path in SOURCES if path.name not in ("__init__.py", "patterns.py")]
    assert unreferenced_functions(restored) == sorted([*UNREFERENCED_ALLOWED, "patterns.is_strictly_balanced"])


def recursive_nested_functions(sources) -> list[str]:
    """Functions defined inside a function that call themselves by name, as dotted names."""
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qualname, function in _definitions(tree, f"{path.stem}."):
            for name, inner in _definitions(function, qualname + "."):
                if any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == inner.name
                    for call in ast.walk(inner)
                ):
                    found.add(name)
    return sorted(found)


def test_private_backtrackers_are_the_listed_three():
    """The package's recursive searches outside the subgraph-search kernel: the level route's frontier walk,
    the clique factor's exact cover and the one part-assignment search.  A new private backtracker joins this
    list on purpose."""
    assert recursive_nested_functions(SOURCES) == [
        "counting.level_count.extend",
        "experiments.clique_factor.rec",
        "graphs.min_monochromatic_partition.rec",
    ]
