"""The package's public names, and the module attributes outside tools wrap.

The benchmark's tracer (perfbench/tracing.py) looks each traced function up
by name on its defining module and each traced method on its class, so
moving code between modules must leave these attributes where they are.
`sqclasses.singular_basis` stays public for that reason, though no path of
the package calls it.
"""

import importlib

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
    "GF2System",
    "common_value",
    "singular_basis",
    "solve_gf2",
    "Quaternion",
    "QuaternionAlgebra",
    "sqrt",
    "__version__",
]

TRACED_FUNCTIONS = [
    ("rationals", "factor"),
    ("rationals", "is_prime"),
    ("rationals", "squarefree_part"),
    ("places", "support_places"),
    ("places", "is_local_square"),
    ("hilbert", "hilbert_symbol"),
    ("hilbert", "hasse_invariant"),
    ("forms", "solve_conic"),
    ("forms", "is_isotropic"),
    ("forms", "represents"),
    ("sqclasses", "common_value"),
    ("sqclasses", "singular_basis"),
    ("sqclasses", "solve_gf2"),
    ("quaternions", "sqrt"),
    ("cli", "run"),
]
TRACED_METHODS = [
    ("quaternions", "QuaternionAlgebra", "is_split"),
    ("quaternions", "Quaternion", "square"),
]
# Names no package path called, deleted; the README's "Migrating from ..."
# sections give their replacements.
REMOVED_FUNCTIONS = [
    ("places", "valuation"),
    ("forms", "is_isotropic_local"),
    ("rationals", "Rational"),
]
REMOVED_METHODS = [
    ("forms", "DiagonalForm", "determinant"),
    ("quaternions", "Quaternion", "conj"),
    ("quaternions", "Quaternion", "is_pure"),
    ("places", "Place", "finite"),
    ("places", "Place", "real"),
    ("quaternions", "QuaternionAlgebra", "pure_norm_form"),
]


def test_all_is_pinned():
    assert quatsqrt.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(quatsqrt, name)


@pytest.mark.parametrize("module, name", TRACED_FUNCTIONS)
def test_traced_function_is_bound_on_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"quatsqrt.{module}"), name))


@pytest.mark.parametrize("module, cls, method", TRACED_METHODS)
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
