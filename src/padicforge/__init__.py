"""Construction, evaluation and certification of congruential generators on Z/p^k.

The package splits along the pipeline:

    core      exact Z/p^k arithmetic and p-adic primitives
    mahler    interpolation-series coefficients and the coefficient criteria
    expr      expression nodes, their two walks and compile-once evaluation
    funcalg   the expression algebra (builders, DSL, ergodic constructors)
    certify   brute-force checkers and theorem-backed certificates
    genlib    the streaming generator engine
    analysis  affine linear complexity and bit-plane diagnostics
    cli       the padic-forge command-line frontend
"""

from .analysis import (
    NoneFoundUpTo,
    Relation,
    SequenceReport,
    affine_linear_complexity,
    bit_plane_periods,
    complexity_growth_profile,
    sequence_from_bytes,
    sequence_from_generator,
)
from .certify import (
    PROVEN,
    REFUTED,
    UNKNOWN,
    CapExceeded,
    Certificate,
    FunctionClass,
    MultiPoly,
    NotBijective,
    bijective_mod,
    compatibility_certificate,
    equiprobable_mod,
    ergodicity_certificate,
    infer_class,
    is_class_b,
    jacobian_equiprobable_certificate,
    measure_preservation_certificate,
    polynomial_bijectivity_certificate,
    transitive_mod,
    triangle_ergodicity_certificate,
)
from .core import (
    INFINITE,
    CompositeModulus,
    Modulus,
    ResidueInt,
    mod_inverse,
    ord_p,
    unit_pow,
)
from .expr import FnExpr, compile_map, evaluator
from .funcalg import (
    BoolTriangle,
    DslError,
    build_composite_generator,
    build_ergodic,
    build_measure_preserving,
    expr_from_json,
    expr_to_json,
    parse_dsl,
)
from .genlib import (
    GeneratorSpec,
    GeneratorState,
    NotCertified,
    emit_bytes,
    full_period_census,
    make_generator,
    spec_from_json,
    spec_to_json,
)
from .mahler import (
    MahlerSeries,
    NotIntegerValued,
    RationalPoly,
    coeffs_from_values,
    is_compatible,
    is_ergodic_2adic,
    is_ergodic_sufficient_oddp,
    is_measure_preserving_2adic,
    rho_lambda,
    series_from_poly,
)

__all__ = [
    "INFINITE",
    "PROVEN",
    "REFUTED",
    "UNKNOWN",
    "BoolTriangle",
    "CapExceeded",
    "Certificate",
    "CompositeModulus",
    "DslError",
    "FnExpr",
    "FunctionClass",
    "GeneratorSpec",
    "GeneratorState",
    "MahlerSeries",
    "Modulus",
    "MultiPoly",
    "NoneFoundUpTo",
    "NotBijective",
    "NotCertified",
    "NotIntegerValued",
    "RationalPoly",
    "Relation",
    "ResidueInt",
    "SequenceReport",
    "affine_linear_complexity",
    "bijective_mod",
    "bit_plane_periods",
    "build_composite_generator",
    "build_ergodic",
    "build_measure_preserving",
    "coeffs_from_values",
    "compatibility_certificate",
    "compile_map",
    "complexity_growth_profile",
    "emit_bytes",
    "equiprobable_mod",
    "ergodicity_certificate",
    "evaluator",
    "expr_from_json",
    "expr_to_json",
    "full_period_census",
    "infer_class",
    "is_class_b",
    "is_compatible",
    "is_ergodic_2adic",
    "is_ergodic_sufficient_oddp",
    "is_measure_preserving_2adic",
    "jacobian_equiprobable_certificate",
    "make_generator",
    "measure_preservation_certificate",
    "mod_inverse",
    "ord_p",
    "parse_dsl",
    "polynomial_bijectivity_certificate",
    "rho_lambda",
    "sequence_from_bytes",
    "sequence_from_generator",
    "series_from_poly",
    "spec_from_json",
    "spec_to_json",
    "transitive_mod",
    "triangle_ergodicity_certificate",
    "unit_pow",
]

__version__ = "0.1.0"
