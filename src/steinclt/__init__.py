"""Numerical toolkit for characteristic-function CLT gaps of triangular arrays.

The package builds standard rows of finitely supported random N-vectors,
evaluates their Fourier transforms exactly, runs the Stein-equation
machinery for the Fourier test functions, verifies an exact identity for
the Gaussian/row-sum transform gap, checks the finite-n inequality
chains derived from it, and estimates the asymptotic Lindeberg-type and
transform-gap indices on finite grids.
"""

from .bounds import (
    AsymptoticReport,
    BoundReport,
    IdentityReport,
    decomposition_check,
    gap_table_with_lambda_f,
    identity_lhs,
    identity_rhs,
    master_bound,
    master_bound_infimum,
    theorem_bound_report,
    truncation_bound_check,
)
from .charfn import (
    charfn_gap,
    empirical_charfn,
    gaussian_charfn,
    kolmogorov_mc,
    row_sum_charfn,
    sample_row_sums,
)
from .errors import (
    CapacityError,
    ConstructionError,
    ConvergenceError,
    DomainError,
    ParameterError,
    RowSpecError,
    RowValidationError,
    ShapeError,
    SteinCltError,
    UnsupportedDimensionError,
)
from .families import (
    ArrayFamily,
    EtaAlphaFamily,
    ExplicitFamily,
    ProductFamily,
    RademacherFamily,
    load_row_spec,
    serialize_family,
    serialize_row,
)
from .indices import (
    IndexEstimate,
    infinitesimality_profile,
    l_sum,
    lindeberg_index_estimate,
    lindeberg_sum,
)
from .normal_cdf import normal_cdf
from .quadrature import integrate_unit
from .rng import RngSeed
from .rows import (
    ArrayRow,
    ValidationReport,
    build_eta_row,
    build_product_row,
    build_rademacher_row,
    eta_scale_squared,
    validate_row,
)
from .stein import (
    alpha_identities,
    gaussian_expectation_identity,
    gradient_finite_difference,
    gradient_reduction_residual,
    hessian_closed_form,
    hessian_difference,
    hessian_finite_difference,
    hessian_quadrature_representation,
    shift_identity_check,
    stein_check_battery,
    stein_gradient,
    stein_residual,
    stein_solution,
)

__version__ = "0.5.0"
