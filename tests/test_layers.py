"""Every import in ``src/repro`` points down one layer order.

The units, bottom to top, are the packages of ``src/repro`` with
``repro.core`` split in three: its data model (``core.semantic``), its
services (every other ``core`` module, named ``core`` below) and its
client (``core.client``, the paper's Virtualization layer, which calls
every service, the federation included).

Three rules, each checked by walking the source with :mod:`ast`:

* no import points up the order;
* no function-local import crosses a unit (a lazy import there only
  hides a cycle);
* every module, and every ``repro`` module imported, has a unit.

Exempt are the package facades (``repro`` and ``repro.core``, which
re-export from every layer) and lazy imports inside one unit, such as
``ogsi.container`` -> ``ogsi.monitor`` or a ``TYPE_CHECKING`` block.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: bottom to top; ``core`` is the core services unit
ORDER = (
    "simnet",
    "xmlkit",
    "minidb",
    "analysis",
    "soap",
    "gsi",
    "datastores",
    "wsdl",
    "ogsi",
    "uddi",
    "core.semantic",
    "mapping",
    "core",
    "fedquery",
    "core.client",
    "experiments",
)

FACADES = {"repro", "repro.core"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unit_of(module: str) -> str | None:
    """The layer unit of a ``repro`` module, ``None`` when it has none."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    if parts[1] == "core":
        if len(parts) < 3:
            return None
        name = f"core.{parts[2]}"
        return name if name in ORDER else "core"
    return parts[1] if parts[1] in ORDER else None


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_module(name: str) -> bool:
    base = SRC.joinpath(*name.split("."))
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def _targets(node: ast.Import | ast.ImportFrom, module: str, is_package: bool) -> set[str]:
    """The ``repro`` modules one import statement loads."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names if alias.name.split(".")[0] == "repro"}
    base = node.module or ""
    if node.level:
        package = module.split(".")
        if not is_package:
            package.pop()
        package = package[: len(package) - node.level + 1]
        base = ".".join(package + ([base] if base else []))
    if base.split(".")[0] != "repro":
        return set()
    names = {f"{base}.{alias.name}" for alias in node.names}
    return {name for name in names if _is_module(name)} or {base}


def _imports(tree: ast.AST, module: str, is_package: bool):
    """Yield ``(lineno, target, function_local)`` per repro import."""

    def walk(node: ast.AST, local: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target in sorted(_targets(child, module, is_package)):
                    yield child.lineno, target, local
            yield from walk(child, local or isinstance(child, _FUNCTIONS))

    yield from walk(tree, False)


@functools.cache
def scan() -> tuple[list[str], list[str], list[str]]:
    """(unplaced, upward, local) violations as ``file:line: ...`` lines."""
    unplaced: list[str] = []
    upward: list[str] = []
    local: list[str] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if module in FACADES:
            continue
        where = path.relative_to(SRC)
        unit = unit_of(module)
        if unit is None:
            unplaced.append(f"{where}: module {module} has no layer")
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno, target, is_local in _imports(tree, module, path.name == "__init__.py"):
            target_unit = unit_of(target)
            edge = f"{where}:{lineno}: {module} ({unit}) -> {target} ({target_unit})"
            if target_unit is None:
                unplaced.append(edge)
                continue
            if ORDER.index(target_unit) > ORDER.index(unit):
                upward.append(edge)
            if is_local and target_unit != unit:
                local.append(edge)
    return unplaced, upward, local


def _check(kind: str, lines: list[str]) -> None:
    if lines:
        pytest.fail(f"{len(lines)} {kind}:\n" + "\n".join(lines), pytrace=False)


def test_every_module_has_a_layer():
    _check("modules or imports outside the layer order", scan()[0])


def test_no_import_points_up():
    _check("upward imports", scan()[1])


def test_no_function_local_import_crosses_a_unit():
    _check("function-local imports that cross a unit", scan()[2])

