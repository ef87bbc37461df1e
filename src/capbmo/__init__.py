"""Capacitary harmonic analysis on dyadic grids.

Dyadic Hausdorff contents, Choquet integrals, capacitary Muckenhoupt
weights, oscillation seminorms (BMO/BLO relative to a content), weighted
Calderon-Zygmund decompositions, and numerical verifiers for the theory
connecting them. Every content comes from the dyadic tree recursion in
``capbmo.kernels``: ``reduce_tree`` on dense threshold rows, or
``reduce_ranks`` on a whole chain of nested sets at once.
"""

from .content import ContentParams, cube_content, dyadic_content, masked_integral, weighted_content
from .choquet import (
    EssentialBounds,
    SignedAverage,
    choquet,
    choquet_wrt,
    cube_choquet,
    essential_bounds,
    jensen_sides,
    signed_average,
)
from .czd import CZResult, cz_decompose, cz_verify
from .grid import (
    CubeFamilyPolicy,
    CubeSpec,
    DyadicSet,
    Grid,
    StepFunction,
    build_grid,
    cube_set,
    dyadic_cubes,
    empty_set,
    enumerate_cubes,
    full_set,
    lattice_cubes,
    level_set,
    set_from_cells,
    step_function,
    step_function_from_callable,
)
from .oscillation import (
    GammaInterval,
    SeminormReport,
    blo_seminorm,
    bmo_seminorm,
    gamma_interval,
    oscillation_objective,
    weighted_bmo_seminorm,
)
from .reports import InvariantViolation, VerificationReport
from .verify import (
    EnvelopeFit,
    SurvivalCurve,
    fit_envelope,
    survival_curve,
    verify_characterization,
    verify_equivalences,
    verify_factorization,
    verify_inclusions,
    verify_jn,
    weak_restricted_strong_check,
)
from .weights import (
    A1Factorization,
    WeightReport,
    a1_constant,
    a1_factorize,
    ap_constant,
    maximal_function,
    power_maximal_weight,
    weighted_l1_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Grid",
    "DyadicSet",
    "StepFunction",
    "CubeSpec",
    "CubeFamilyPolicy",
    "build_grid",
    "step_function",
    "step_function_from_callable",
    "set_from_cells",
    "full_set",
    "empty_set",
    "cube_set",
    "level_set",
    "dyadic_cubes",
    "lattice_cubes",
    "enumerate_cubes",
    "ContentParams",
    "dyadic_content",
    "weighted_content",
    "cube_content",
    "masked_integral",
    "SignedAverage",
    "EssentialBounds",
    "choquet",
    "choquet_wrt",
    "cube_choquet",
    "signed_average",
    "essential_bounds",
    "jensen_sides",
    "GammaInterval",
    "SeminormReport",
    "oscillation_objective",
    "gamma_interval",
    "bmo_seminorm",
    "blo_seminorm",
    "weighted_bmo_seminorm",
    "WeightReport",
    "A1Factorization",
    "maximal_function",
    "ap_constant",
    "a1_constant",
    "power_maximal_weight",
    "a1_factorize",
    "weighted_l1_comparison",
    "CZResult",
    "cz_decompose",
    "cz_verify",
    "InvariantViolation",
    "VerificationReport",
    "SurvivalCurve",
    "EnvelopeFit",
    "survival_curve",
    "fit_envelope",
    "verify_jn",
    "verify_characterization",
    "verify_equivalences",
    "verify_inclusions",
    "verify_factorization",
    "weak_restricted_strong_check",
]
