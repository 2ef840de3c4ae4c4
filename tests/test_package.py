"""Package surface: every exported name resolves, no module keeps an unused
import, the README's library quick start runs as written, and dataclasses
with array fields compare by identity."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import hybrid_orbit
from hybrid_orbit import impacts, model, numerics, paper, synthesis, synthetic

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


# Every name the package exported when it imported all its modules eagerly,
# by the module it was imported from then, less apply_reset, which was deleted
# when the impact maps came to take stacks, plus AffineField, the typed field
# that phase flows step by its RK4 transition, and AffineGuard, the typed
# guard whose normal phase flows read instead of differencing it, less the
# wrappers that no command called (REMOVED).
EXPORTED = {
    "impacts": ("ImpactModel", "relabel", "rigid_impact"),
    "integrator": ("Chattering", "IntegrationError", "IntegratorConfig", "NoCrossing", "NonFinite",
                   "NonTransversal", "flow_batch", "simulate_cycle"),
    "model": ("AffineField", "AffineGuard", "Domain", "FeedbackLaw", "MultiDomainSystem", "PeriodicOrbit",
              "SectionChart", "affine_section_chart", "chart_from_guard", "validate_c1_c2"),
    "numerics": ("NumericsError", "eigenvalues", "max_abs_entry", "pinv", "spectral_radius"),
    "poincare": ("FixedPointError", "PhaseJacobians", "compose_jacobians", "orbit_and_jacobians",
                 "phase_jacobians", "refine_fixed_point"),
    "synthesis": ("GainSet", "StabilityReport", "SynthesisError", "TheoremCertificate", "designed_jacobians",
                  "dlqr_gains", "scale_factor_gains", "stability_report", "symmetric_matrix_gains"),
    "paper": ("PaperFixture", "paper_fixture", "verify_paper"),
    "synthetic": ("CATALOG", "SyntheticModel", "build_synthetic", "from_catalog"),
}

# Public names deleted because no command called them, by their home module.
# What replaces each is in the README's API break note.
REMOVED = {
    "numerics": ("dare_solve", "dlqr_gain", "spectral_norm"),
    "synthesis": ("certify_theorem3", "certify_theorem4"),
    "paper": ("corrupt",),
}


def test_the_lazy_package_serves_every_exported_name():
    names = [name for group in EXPORTED.values() for name in group]
    assert len(names) == 48 and sorted(hybrid_orbit.__all__) == sorted(names)
    listed = dir(hybrid_orbit)
    for module, group in EXPORTED.items():
        home = importlib.import_module(f"hybrid_orbit.{module}")
        assert getattr(hybrid_orbit, module) is home
        for name in group:
            assert getattr(hybrid_orbit, name) is getattr(home, name)
            assert name in listed
    namespace = {}
    exec("from hybrid_orbit import *", namespace)
    assert all(namespace[name] is getattr(hybrid_orbit, name) for name in names)
    assert hybrid_orbit.jsonio is importlib.import_module("hybrid_orbit.jsonio")
    for missing in ("no_such_name", "_HOME_", "fixtures"):
        with pytest.raises(AttributeError, match=missing):
            getattr(hybrid_orbit, missing)


@pytest.mark.parametrize("module", REMOVED)
def test_removed_names_are_gone(module):
    home = importlib.import_module(f"hybrid_orbit.{module}")
    for name in REMOVED[module]:
        assert name not in home.__all__ and name not in hybrid_orbit.__all__
        for owner in (hybrid_orbit, home):
            with pytest.raises(AttributeError, match=name):
                getattr(owner, name)


def test_phase_jacobians_have_one_definition():
    from hybrid_orbit import numerics, poincare, synthesis, synthetic

    for module in (poincare, synthesis, synthetic):
        assert module.PhaseJacobians is numerics.PhaseJacobians
        assert module.compose_jacobians is numerics.compose_jacobians


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_help_reads_the_catalog_and_the_default_step(command, monkeypatch, capsys):
    from hybrid_orbit.cli import main
    from hybrid_orbit.integrator import IntegratorConfig
    from hybrid_orbit.synthetic import CATALOG

    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert f"integrator base step (default {IntegratorConfig.base_step:g})" in out
    if command == "analyze":
        assert f"catalog name, one of {', '.join(CATALOG)}" in out


# name: a function that builds an instance, equal field by field on every call
ARRAY_DATACLASSES = {
    "PhaseJacobians": lambda: numerics.PhaseJacobians(0, np.eye(2), np.ones((2, 1))),
    "PeriodicOrbit": lambda: model.PeriodicOrbit((np.zeros(2),), (1.0,)),
    "FeedbackLaw": lambda: model.FeedbackLaw((np.ones((1, 2)),), model.PeriodicOrbit((np.zeros(2),), (1.0,))),
    "ImpactModel": lambda: impacts.ImpactModel(np.eye(2), np.ones((1, 2))),
    "LinearPhase": lambda: synthetic.from_catalog("stable-2").phases[0],
    "SyntheticModel": lambda: synthetic.from_catalog("stable-2"),
    "_PhaseGeometry": lambda: synthetic._phase_geometry(synthetic.from_catalog("stable-2").phases[0]),
    "PaperFixture": lambda: paper.paper_fixture(),
    "GainSet": lambda: synthesis.GainSet("symmetric", [np.ones((1, 2))], [0.0], False),
    "StabilityReport": lambda: synthesis.stability_report(
        [numerics.PhaseJacobians(0, np.eye(2), np.ones((2, 1)))],
        synthesis.GainSet("symmetric", [np.ones((1, 2))], [0.0], False),
    ),
}


@pytest.mark.parametrize("name", ARRAY_DATACLASSES)
def test_dataclasses_with_array_fields_compare_by_identity(name):
    # a generated __eq__ would compare the arrays and raise on their truth value
    a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert type(a).__name__ == name
    assert a == a
    assert a != b
    assert b not in [a]
    assert len({a, b}) == 2
