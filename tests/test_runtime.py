"""The package runs on the standard library alone, on the Python it declares."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "komohe"


def test_every_absolute_import_is_stdlib():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_module_parses_at_the_declared_python_floor():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert declared, "pyproject.toml declares no requires-python floor"
    floor = (int(declared[1]), int(declared[2]))
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        # raises SyntaxError for syntax newer than the floor, such as `except*` below 3.11
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")  # dunders are protocol, not private


def test_no_module_reaches_into_another_modules_private_names():
    # an underscore name is private to its module, an underscore attribute to
    # its own class: a seam between modules goes through public names only
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    reaches = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("komohe")):
                reaches += [
                    f"{path.name}:{node.lineno}: imports {alias.name}"
                    for alias in node.names
                    if is_private(alias.name)
                ]
            elif (
                isinstance(node, ast.Attribute)
                and is_private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                reaches.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
    assert reaches == []
