"""Package surface: every exported name resolves, and the README's library
quick start runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import hybrid_orbit

README = Path(__file__).resolve().parents[1] / "README.md"


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
