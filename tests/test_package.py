"""Package surface: every exported name resolves, no module keeps an unused
import, and the README's library quick start runs as written."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import hybrid_orbit

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(hybrid_orbit.__file__).resolve().parent


def test_every_exported_name_resolves():
    modules = [
        importlib.import_module(f"hybrid_orbit.{info.name}")
        for info in pkgutil.iter_modules(hybrid_orbit.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 8
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def _top_level_imports(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_top_level_import_is_used():
    # a name listed in __all__ counts as used
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = _top_level_imports(tree) - used - _exported(tree)
        assert not unused, f"{path.name} never uses its imports {sorted(unused)}"


def test_readme_library_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].stable
    errors = namespace["errors"]
    assert len(errors) == 20 and np.all(np.isfinite(errors))
    assert errors[-1] < errors[0]
