"""Clifford-algebra Moebius groups on upper half-space and their
truncated Eisenstein/Poincare series, with a verification harness.

Subpackages by theme:

- `clifford`: sparse Clifford algebra Cl_n with exact or float scalars
- `vahlen`: 2x2 Vahlen matrices and the Moebius action on H^+
- `congruence`: modular/congruence subgroups and coset enumeration
- `jets`, `kernels`: fundamental solutions of iterated Dirac operators
- `series`: truncated lattice and coset series with partial-sum records
- `harness`, `cli`: numeric verification checks and the command line
"""

from .clifford import (
    Multivector,
    blade_product_sign,
    clifford_group_inverse,
    scalar_product,
    vector_inverse,
)
from .congruence import GroupDescriptor, enumerate_cosets, translation_lattice
from .harness import run_checks
from .series import (
    SeriesSpec,
    biregular_eisenstein,
    evaluate,
    odd_weight_eisenstein,
    poincare_general,
    scalar_eisenstein,
    vector_eisenstein,
    zeta_m,
)
from .vahlen import (
    VahlenMatrix,
    make_dilatation,
    make_inversion,
    make_rotation,
    make_translation,
    mat_inv,
    mat_mul,
    mobius_apply,
)

__all__ = [
    "Multivector",
    "blade_product_sign",
    "clifford_group_inverse",
    "scalar_product",
    "vector_inverse",
    "VahlenMatrix",
    "make_dilatation",
    "make_inversion",
    "make_rotation",
    "make_translation",
    "mat_inv",
    "mat_mul",
    "mobius_apply",
    "GroupDescriptor",
    "enumerate_cosets",
    "translation_lattice",
    "SeriesSpec",
    "evaluate",
    "scalar_eisenstein",
    "odd_weight_eisenstein",
    "vector_eisenstein",
    "biregular_eisenstein",
    "poincare_general",
    "zeta_m",
    "run_checks",
]

__version__ = "0.1.0"
