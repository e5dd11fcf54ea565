"""The public surface: the names ``fhawkes`` exports, and every module's
``__all__`` naming something the module defines."""

import importlib
import pkgutil

import fhawkes

EXPORTS = [
    "AccuracyError", "BudgetError", "ContourError", "ConvergenceWarning",
    "DomainError", "EventSequence", "FHawkesError", "LaplaceImage",
    "MLKernelParams", "ModelParams", "QuadratureError", "asymptote", "erfcx",
    "expected_n", "expected_n_half", "forward_lt", "ilt_grid", "intensity",
    "lambda_exact", "lambda_exact_half", "lambda_image", "ml_density",
    "ml_one", "ml_sample", "ml_spectral", "prabhakar", "sample_paths",
    "simulate_cluster", "simulate_thinning",
]
# names each quantity no longer reaches the user by: ilt_grid at one time,
# sample_paths and count_matrix, and any CSV reader
RETIRED = ["IltResult", "ilt", "read_curves_csv", "read_dist_csv", "replica_stream"]


def _modules():
    yield fhawkes
    for info in pkgutil.iter_modules(fhawkes.__path__):
        yield importlib.import_module(f"fhawkes.{info.name}")


def test_package_exports_are_pinned():
    assert sorted(fhawkes.__all__) == EXPORTS
    namespace = {}
    exec("from fhawkes import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_every_listed_name_resolves():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
        assert not set(RETIRED) & set(getattr(module, "__all__", ())), module.__name__
