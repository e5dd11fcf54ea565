"""Every name a demo imports from ``fhawkes`` exists, checked by reading the
scripts rather than running them, so an API removal cannot break a demo
unnoticed."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _fhawkes_imports(path):
    """``(module, name)`` for each ``from fhawkes... import name`` in a
    script, and ``(module, None)`` for each ``import fhawkes...``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "fhawkes":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "fhawkes")


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_resolve(demo):
    imports = list(_fhawkes_imports(demo))
    assert imports, f"{demo.name} imports nothing from fhawkes"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            found = hasattr(mod, name) or (
                hasattr(mod, "__path__")  # a package: the name may be a submodule
                and importlib.util.find_spec(f"{module}.{name}") is not None
            )
            assert found, f"{demo.name}: {module} has no {name!r}"
