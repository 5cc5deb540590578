"""The package's public surface: ``repsc.__all__`` against what ``__init__``
imports and what uses each name."""

import ast
import re
from pathlib import Path

import repsc


def test_all_is_sorted_resolves_and_lists_every_public_import():
    assert repsc.__all__ == sorted(set(repsc.__all__))
    for name in repsc.__all__:
        assert getattr(repsc, name, None) is not None, name
    tree = ast.parse(Path(repsc.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(repsc.__all__)
    assert "KMeansFit" in repsc.__all__


def test_the_sweep_registry_holds_the_exported_functions():
    # The sweep calls each algorithm as it is exported, with no adapter between.
    for name, run in repsc.experiments.ALGORITHMS.items():
        assert name in repsc.__all__ and run is getattr(repsc, name), name


def test_every_public_name_has_a_user_in_the_package_or_the_readme():
    # A public name that nothing in the package calls is kept only for a
    # user that README names; otherwise it belongs in tests/ as a reference.
    package = Path(repsc.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = (package.parents[1] / "README.md").read_text()
    unused = [name for name in repsc.__all__
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_only_linalg_imports_scipy():
    # linalg owns every BLAS and LAPACK call; a scipy import anywhere else
    # would be a second owner of one of them.
    found = []
    for path in sorted(Path(repsc.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {module}" for module in modules
                      if module == "scipy" or module.startswith("scipy.")]
    assert found == []
