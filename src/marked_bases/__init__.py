"""Marked bases over quasi-stable monomial modules: exact kernel and CLI."""

from .ring import (
    Coeff,
    Exponent,
    FreeModuleLayout,
    HeterogeneousElement,
    InternalError,
    MarkedBasesError,
    MissingParameter,
    ModuleElement,
    ModuleTerm,
    ParamPoly,
)
from .monom import (
    InvariantReport,
    MonomialModule,
    NotQuasiStable,
    PommaretBasis,
    StabilityClass,
    basis_invariants,
    certified_basis,
    complement_rank,
    complement_terms,
    hilbert_function,
    is_pommaret_basis,
    nonmultiplicative_variables,
    pommaret_completion,
    quasi_stability_witness,
    stability_class,
    truncate_basis,
)
from .marked import (
    BasisCheck,
    HeadCoefficientNotOne,
    HeadMismatch,
    InternalNonTermination,
    MarkedElement,
    MarkedSet,
    NotABasis,
    Representation,
    TailTermInU,
    is_marked_basis,
    prolongation_rep,
    prolongations,
    reduce_full,
)
from .syzygy import (
    BoundsReport,
    FreeResolution,
    ParametricCoefficients,
    free_resolution,
    invariant_bounds,
    minimize_resolution,
    predicted_ranks,
    syzygy_marked_basis,
    verify_complex,
)
from .family import (
    FamilyIdeal,
    GenericMarkedSet,
    Specialization,
    family_equations,
    generic_marked_set,
    specialize,
)
from .textio import (
    ComponentOutOfRange,
    InputDocument,
    InputFormatError,
    PolySyntaxError,
    UnknownVariable,
    format_element,
    format_marked_element,
    format_module_term,
    format_param_poly,
    parse_document,
    parse_polynomial,
    resolution_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
