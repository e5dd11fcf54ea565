"""Every ``fhawkes`` name a demo or a benchmark script uses exists, checked
by reading the scripts rather than running them, so an API removal cannot
break a demo or the benchmark unnoticed."""

import ast
import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from fhawkes import ModelParams, simulate_cluster

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _dotted(node):
    """``"a.b.c"`` for a name or attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _fhawkes_uses(path):
    """Dotted ``fhawkes`` names a script uses: each ``import fhawkes...``,
    each ``from fhawkes... import name``, and each ``alias.attr`` (chains
    included) where ``alias`` was bound by one of those imports."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "fhawkes":
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fhawkes":
                    yield alias.name
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
    yield from bound.values()
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        if name is not None and name.split(".")[0] in bound:
            head, _, rest = name.partition(".")
            yield f"{bound[head]}.{rest}"


def _resolves(dotted) -> bool:
    """Whether ``dotted`` names a module or an attribute reachable from one,
    importing submodules of packages on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif hasattr(obj, "__path__") and importlib.util.find_spec(
            ".".join(parts[:i])
        ) is not None:
            obj = importlib.import_module(".".join(parts[:i]))
        else:
            return False
    return True


def _missing(path):
    return sorted(u for u in set(_fhawkes_uses(path)) if not _resolves(u))


# the benchmark scripts that use fhawkes; the others are its own plumbing
BENCH = [b for b in sorted((ROOT / "perfbench").glob("*.py")) if any(_fhawkes_uses(b))]


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_resolve(demo):
    assert any(_fhawkes_uses(demo)), f"{demo.name} imports nothing from fhawkes"
    missing = _missing(demo)
    assert not missing, f"{demo.name} uses missing names {missing}"


def test_benchmark_found():
    names = {b.stem for b in BENCH}
    assert {"figures", "layers", "wl_curves", "wl_paths", "wl_validate"} <= names


@pytest.mark.parametrize("script", BENCH, ids=[b.stem for b in BENCH])
def test_benchmark_uses_resolve(script):
    missing = _missing(script)
    assert not missing, f"perfbench/{script.name} uses missing names {missing}"


def test_benchmark_rebuilds_event_sequence():
    # the benchmark's self-check drops an event from a path by rebuilding
    # the path from all six of its fields, positionally
    seq = simulate_cluster(ModelParams(1.0, 0.5, 0.5, 1.0), 10.0, 3, 1)
    fewer = type(seq)(seq.epochs[1:], seq.horizon, seq.seed, seq.engine,
                      seq.replica, seq.params)
    np.testing.assert_array_equal(fewer.epochs, seq.epochs[1:])
    assert (fewer.horizon, fewer.replica) == (seq.horizon, seq.replica)
