"""The package-level import graph of ``src/repro`` is acyclic.

Every import counts — top-level *and* function-local (a local import is
how a cycle hides) — except ``if TYPE_CHECKING:`` blocks, which never
run.  The intended order, bottom to top::

    query lp seq stats obs data  ->  mpc  ->  core  ->  sketch
        ->  rounds  ->  api  ->  service  ->  cli
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(node: ast.AST):
    """Every Import/ImportFrom under ``node`` outside TYPE_CHECKING blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _is_type_checking(child.test):
            for orelse in child.orelse:
                yield from _runtime_imports(orelse)
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _runtime_imports(child)


def _package_of(parts: tuple[str, ...]) -> str:
    """``("repro", "api", "planner")`` -> ``"api"``; ``cli.py`` -> ``"cli"``."""
    return parts[1] if len(parts) > 1 else "repro"


def package_graph() -> dict[str, set[str]]:
    """``{package: packages it imports}`` over the first level of repro."""
    graph: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).with_suffix("").parts
        module = ("repro",) + tuple(p for p in relative if p != "__init__")
        # The package a relative import is resolved against.
        anchor = module if path.name == "__init__.py" else module[:-1]
        source = _package_of(module)
        edges = graph.setdefault(source, set())
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in _runtime_imports(tree):
            if isinstance(node, ast.Import):
                targets = [tuple(alias.name.split(".")) for alias in node.names]
            elif node.level:
                base = anchor[: len(anchor) - (node.level - 1)]
                stem = base + tuple((node.module or "").split(".")) \
                    if node.module else base
                # ``from . import x`` names submodules, not attributes.
                targets = [stem] if node.module else [
                    stem + (alias.name,) for alias in node.names
                ]
            else:
                targets = [tuple((node.module or "").split("."))]
            for target in targets:
                if target[0] != "repro" or len(target) < 2:
                    continue
                if _package_of(target) != source:
                    edges.add(_package_of(target))
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a node path, or None when the graph is a DAG."""
    done: set[str] = set()

    def visit(node: str, trail: list[str]) -> list[str] | None:
        if node in trail:
            return trail[trail.index(node):] + [node]
        if node in done:
            return None
        for target in sorted(graph.get(node, ())):
            cycle = visit(target, trail + [node])
            if cycle:
                return cycle
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return None


def test_package_import_graph_is_acyclic():
    graph = package_graph()
    # The walk must actually see the packages, or the test proves nothing.
    assert {"api", "rounds", "service", "mpc", "core"} <= set(graph)
    assert "rounds" in graph["api"] and "api" in graph["service"]
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_lower_layers_do_not_reach_up():
    graph = package_graph()
    for package in ("mpc", "core", "rounds", "api"):
        assert "service" not in graph[package], f"{package} imports service"
    assert "api" not in graph["rounds"], "rounds imports api"
    assert not {"api", "service", "rounds"} & graph["mpc"]


def test_the_walk_skips_type_checking_and_sees_local_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.service import x\n"
        "def f():\n"
        "    from repro.api import y\n"
    )
    seen = {node.module for node in _runtime_imports(tree)}
    assert seen == {"typing", "repro.api"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield (str(path.relative_to(SRC)),
               ast.parse(path.read_text(encoding="utf-8"), str(path)))


def _imported_names(tree: ast.AST) -> set[str]:
    """Dotted names a file imports, relative ones by their tail: ``from
    ..a import b`` counts as both ``a`` and ``a.b``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_there_is_one_process_fan_out():
    """Engine shards, sketch shards and sweep cells all run on
    ``repro.mpc.farm``: no other module touches ``multiprocessing``, and
    nothing opens a ``Pool`` beside it."""
    importers, pool_calls = [], []
    for name, tree in _modules():
        if any(module.split(".")[0] == "multiprocessing"
               for module in _imported_names(tree)):
            importers.append(name)
        pool_calls += [
            name for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "Pool"
        ]
    assert importers == ["mpc/farm.py"]
    assert pool_calls == []


def test_sketch_does_not_reach_into_the_mp_engine():
    for name, tree in _modules():
        if name.startswith("sketch/"):
            assert not any(
                module.endswith("engine.multiprocess")
                for module in _imported_names(tree)
            ), f"{name} imports the mp engine"


def test_the_sketch_pass_reads_columns_not_tuples():
    """Sketches are fed ``Relation.batch``'s int64 columns: no module of
    ``sketch/`` reads a relation's tuple set."""
    readers = [
        name for name, tree in _modules() if name.startswith("sketch/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "tuples"
    ]
    assert readers == []


def test_there_is_one_batch_routing_derivation():
    """A plan states its batch deliveries once, as ``claims``; only
    ``RoutingPlan`` turns claims into deliveries and per-server counts,
    and the bin plan composes its inner HyperCube through ``claims``, not
    through that plan's private tables."""
    derived = {"deliveries": [], "destination_counts": []}
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and item.name in derived:
                        derived[item.name].append(f"{name}:{node.name}")
    assert derived == {
        "deliveries": ["mpc/execution.py:RoutingPlan"],
        "destination_counts": ["mpc/execution.py:RoutingPlan"],
    }
    source = (SRC / "core" / "skew_general.py").read_text(encoding="utf-8")
    assert "_grid_bases" not in source and "_free_offsets" not in source
