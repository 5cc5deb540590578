"""The package's public surface: ``repsc.__all__`` against what ``__init__``
imports and what uses each name."""

import ast
import pickle
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


def test_every_package_error_survives_pickling():
    # An error raised in a worker process reaches its parent through pickle.
    classes = [repsc.RepscError]
    for cls in classes:  # the list grows by each class's subclasses as it is walked
        classes += cls.__subclasses__()
    for error in [cls(3, "x") if cls is repsc.MalformedLineError else cls("x") for cls in classes]:
        copy = pickle.loads(pickle.dumps(error))
        assert (type(copy), str(copy), getattr(copy, "line_number", None)) == \
            (type(error), str(error), getattr(error, "line_number", None))
    assert str(repsc.MalformedLineError(3, "x")) == "line 3: x" and len(classes) > 10


def test_every_small_float_is_a_named_constant_with_one_owner():
    # A float below 1e-6 is a tolerance: it is the whole value of a module
    # constant or of a config field's default, which names it, and one
    # module defines each constant.
    found, owners = [], {}
    for path in sorted(Path(repsc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        named = {node.value for scope in scopes for node in scope.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))}
        found += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < abs(node.value) < 1e-6 and node not in named]
        for node in tree.body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and target.id.isupper():
                    owners.setdefault(target.id, []).append(path.name)
    assert found == []
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}
    assert owners["RANK_REL_TOL"] == ["clustering.py"]
