"""The package's public names, and the module attributes outside tools wrap.

The benchmark's tracer (perfbench/tracing.py) looks each traced function up
by name on its defining module and each traced method on its class, so
moving code between modules must leave these attributes where they are. The
traced names are read from the tracer's own FUNCTIONS and METHODS, so they
cannot drift from what a traced run binds. `sqclasses.singular_basis` stays
public for that reason, though no path of the package calls it, and
`sqclasses.solve_gf2` stays bound, though it left `__all__`. Each removed
name must stay gone and keep its note in the README's "Migrating from
removed names" section.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import quatsqrt

PUBLIC = [
    "Factorization",
    "as_fraction",
    "factor",
    "is_prime",
    "is_square",
    "parse_rational",
    "squarefree_part",
    "REAL",
    "Place",
    "is_local_square",
    "iter_primes",
    "parse_place",
    "support_places",
    "hasse_invariant",
    "hilbert_symbol",
    "DiagonalForm",
    "is_isotropic",
    "isotropic_vector",
    "represents",
    "solve_conic",
    "common_value",
    "singular_basis",
    "Quaternion",
    "QuaternionAlgebra",
    "sqrt",
    "__version__",
]

# The tracer's module, loaded from its file (perfbench is not a package) and
# only read: FUNCTIONS and METHODS are the names a traced run binds.
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)
# Names no package path called, deleted; the README's "Migrating from removed
# names" section gives their replacements.
REMOVED_FUNCTIONS = [
    ("places", "valuation"),
    ("forms", "is_isotropic_local"),
    ("rationals", "Rational"),
    ("sqclasses", "GF2System"),
]
REMOVED_METHODS = [
    ("forms", "DiagonalForm", "determinant"),
    ("quaternions", "Quaternion", "conj"),
    ("quaternions", "Quaternion", "is_pure"),
    ("places", "Place", "finite"),
    ("places", "Place", "real"),
    ("quaternions", "QuaternionAlgebra", "pure_norm_form"),
    ("rationals", "Factorization", "value"),
]
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_all_is_pinned():
    assert quatsqrt.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(quatsqrt, name)


@pytest.mark.parametrize("module, name", tracing.FUNCTIONS)
def test_traced_function_is_bound_on_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"quatsqrt.{module}"), name))


@pytest.mark.parametrize("module, cls, method", tracing.METHODS)
def test_traced_method_is_defined_on_its_class(module, cls, method):
    owner = getattr(importlib.import_module(f"quatsqrt.{module}"), cls)
    assert callable(owner.__dict__[method])


@pytest.mark.parametrize("module, name", REMOVED_FUNCTIONS)
def test_removed_function_is_gone(module, name):
    assert not hasattr(importlib.import_module(f"quatsqrt.{module}"), name)
    assert not hasattr(quatsqrt, name)


@pytest.mark.parametrize("module, cls, method", REMOVED_METHODS)
def test_removed_method_is_gone(module, cls, method):
    assert not hasattr(getattr(importlib.import_module(f"quatsqrt.{module}"), cls), method)


@pytest.mark.parametrize("name", [f[-1] for f in REMOVED_FUNCTIONS + REMOVED_METHODS])
def test_removed_name_has_a_migration_note(name):
    section = README.split("## Migrating from removed names\n", 1)[1].split("\n## ", 1)[0]
    assert f"`{name}`" in section


def test_factorization_is_built_only_by_factor():
    # The constructor's validation is gone; `factor` is the one way to get one.
    for args in ((1, ()), ()):
        with pytest.raises(TypeError, match=r"built by factor\(q\)$"):
            quatsqrt.Factorization(*args)


def test_solve_gf2_is_internal_to_the_search():
    # GF(2) solving left the public surface; the search and the tracer still
    # call it on its module.
    assert "solve_gf2" not in quatsqrt.__all__ and not hasattr(quatsqrt, "solve_gf2")
    assert callable(importlib.import_module("quatsqrt.sqclasses").solve_gf2)
