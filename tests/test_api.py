"""The package's public names: its imports and __all__ name the same set,
and no module reads another module's private name."""
import ast
import types
from pathlib import Path

import shapenewton


def test_every_exported_name_resolves():
    assert len(set(shapenewton.__all__)) == len(shapenewton.__all__)
    missing = [name for name in shapenewton.__all__ if not hasattr(shapenewton, name)]
    assert not missing


def test_every_public_name_is_exported():
    public = {name for name, value in vars(shapenewton).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(shapenewton.__all__)) == []


def test_no_module_reads_another_modules_private_name():
    # A rule that modules share goes through a public name.
    package = Path(shapenewton.__file__).parent
    siblings = {path.stem for path in package.glob("*.py")}

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in siblings:
                        aliases.add(alias.asname or alias.name)
                    elif private(alias.name):
                        reads.append(f"{path.stem}: from .{node.module} import {alias.name}")
        reads += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and private(node.attr)]
    assert reads == []
