"""Package structure: modules talk to each other through public names only,
and the package re-exports each layer module's public names."""
import ast
import dataclasses
from collections import Counter
from pathlib import Path

import nucshoot

SRC = Path(nucshoot.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "nucshoot"
        if internal:
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_private_cross_module_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in _private_imports(path)] == []


def test_layer_exports_do_not_collide():
    counts = Counter(name for layer in nucshoot.LAYERS for name in layer.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_package_all_resolves():
    assert len(nucshoot.__all__) == len(set(nucshoot.__all__))
    assert [name for name in nucshoot.__all__ if not hasattr(nucshoot, name)] == []
    for layer in nucshoot.LAYERS:
        for name in layer.__all__:
            assert getattr(nucshoot, name) is getattr(layer, name)


def test_integrator_config_holds_only_the_varied_settings():
    """Step sizes, the hand-off radius and the blowup level are constants."""
    names = [f.name for f in dataclasses.fields(nucshoot.IntegratorConfig)]
    assert names == ["rtol", "atol", "r_max"]


def test_names_the_benchmark_reads():
    assert nucshoot.IntegratorConfig(r_max=200.0).r_max == 200.0
    assert nucshoot.ModelParams(3.0, 2.0).b == 2.0
    assert callable(nucshoot.shooting.classify_grid)
