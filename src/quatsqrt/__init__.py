"""Exact square roots in rational quaternion algebras.

The package is exact end to end: rationals are `fractions.Fraction`, every
decision (splitness, isotropy, solvability) is made by integer arithmetic,
and every square root handed back re-squares to its input, checked once on
integers against each of the input's coordinates.
"""

from .rationals import (
    Factorization,
    Rational,
    as_fraction,
    factor,
    format_rational,
    is_prime,
    is_square,
    parse_rational,
    squarefree_part,
)
from .places import (
    REAL,
    Place,
    is_local_square,
    iter_primes,
    parse_place,
    support_places,
    valuation,
)
from .hilbert import hasse_invariant, hilbert_symbol, reciprocity_check
from .forms import (
    DiagonalForm,
    is_isotropic,
    is_isotropic_local,
    isotropic_to_universal,
    isotropic_vector,
    represents,
    solve_conic,
)
from .sqclasses import (
    GF2System,
    common_value,
    singular_basis,
    solve_gf2,
)
from .quaternions import (
    Quaternion,
    QuaternionAlgebra,
    sqrt,
    sqrt_central_nonsplit,
    sqrt_central_split,
    sqrt_noncentral,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "Rational",
    "as_fraction",
    "factor",
    "format_rational",
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
    "valuation",
    "hasse_invariant",
    "hilbert_symbol",
    "reciprocity_check",
    "DiagonalForm",
    "is_isotropic",
    "is_isotropic_local",
    "isotropic_to_universal",
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
    "sqrt_central_nonsplit",
    "sqrt_central_split",
    "sqrt_noncentral",
    "__version__",
]
