"""Exact-arithmetic Cartan-type modular Lie algebras and their symmetric
invariants: the algebras W, S, H, Hbar over F_p, the lowering operator
d^(delta) on the symmetric algebra, generator criteria, and the Delta
invariant series for the rank-two Hamiltonian algebra."""

from .algebras import (
    BasisElement,
    CartanAlgebra,
    build,
    build_h,
    build_hbar,
    build_s,
    build_w,
    decompose,
    derivation_bracket,
    filtration_basis,
)
from .errors import (
    Budget,
    BudgetExceededError,
    ClosureError,
    NotInSpanError,
    ParameterError,
    SerializationError,
)
from .modular import (
    FieldParams,
    delta_of,
    dp_basis,
    mi_add,
    mi_sub,
)
from .pipeline import (
    DeltaStarResult,
    IndependenceReport,
    InvariantRecord,
    SweepReport,
    compute_delta,
    conjecture_sweep,
    delta_star,
    independence_report,
    lambda_homogeneity,
    phi_normalize,
    restrict_u_zero,
)
from .symalg import (
    GeneratorCheck,
    InvarianceReport,
    SymPolynomial,
    ad_action,
    ad_partial,
    check_generator_sh,
    check_generator_w,
    d_delta,
    d_gamma,
    is_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "BasisElement",
    "Budget",
    "BudgetExceededError",
    "CartanAlgebra",
    "ClosureError",
    "DeltaStarResult",
    "FieldParams",
    "GeneratorCheck",
    "IndependenceReport",
    "InvarianceReport",
    "InvariantRecord",
    "NotInSpanError",
    "ParameterError",
    "SerializationError",
    "SweepReport",
    "SymPolynomial",
    "ad_action",
    "ad_partial",
    "build",
    "build_h",
    "build_hbar",
    "build_s",
    "build_w",
    "check_generator_sh",
    "check_generator_w",
    "compute_delta",
    "conjecture_sweep",
    "d_delta",
    "d_gamma",
    "decompose",
    "delta_of",
    "delta_star",
    "derivation_bracket",
    "dp_basis",
    "filtration_basis",
    "independence_report",
    "is_invariant",
    "lambda_homogeneity",
    "mi_add",
    "mi_sub",
    "phi_normalize",
    "restrict_u_zero",
]
