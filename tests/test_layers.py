"""The layer rule: the simulation, hardware, IMU and OS layers never
import the assembly (``core``) or experiment (``exp``) layers at run
time.  An import under ``if TYPE_CHECKING:`` is a type hint only and
is allowed (``os/workload.py`` names ``core.runner.WorkloadSpec``)."""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
LOWER_LAYERS = ("sim", "hw", "imu", "os")
UPPER_LAYERS = ("repro.core", "repro.exp")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(node: ast.AST):
    """Yield every module an import outside a TYPE_CHECKING block names."""
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        for child in node.orelse:
            yield from _runtime_imports(child)
        return
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom) and node.module:
        yield node.module
        for alias in node.names:
            yield f"{node.module}.{alias.name}"
    for child in ast.iter_child_nodes(node):
        yield from _runtime_imports(child)


def _upward(module: str) -> bool:
    return any(
        module == layer or module.startswith(layer + ".")
        for layer in UPPER_LAYERS
    )


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layers_never_import_core_or_exp_at_run_time(layer):
    offenders = []
    for path in sorted((PACKAGE / layer).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{path.relative_to(PACKAGE)}: {module}"
            for module in _runtime_imports(tree)
            if _upward(module)
        ]
    assert offenders == []

