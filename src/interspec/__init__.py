"""interspec: spectral data for operators on Hilbert scales of sequence spaces.

The package computes, at finite truncation with explicit stabilization
safeguards: continuity certificates for operator extensions between scale
rungs, regular points and defect numbers, per-pair resolvent sets and their
union over a family, Neumann-series continuations, multivalued resolvent
branches, an analytic model of the momentum operator's self-adjoint
extension circle with Krein-difference checks, and generalized eigenvector
residual/expansion diagnostics for the position operator in the Hermite
basis.
"""

from .config import DEFAULT_CONFIG, GridSpec, RunConfig
from .spaces import (Basis, CoefficientVector, ScaleFamily, ScaleSpace, dual_space,
                     embedding_norm, hilbert_scale_family, intersection, modes, norm,
                     pairing, sequence_power_family, sobolev_torus_family)
from .operators import (CoefficientOperator, ContinuityCertificate, certify,
                        framework_product, operator_from_json, operator_from_spec,
                        sesq_form)
from .resolvent import (BranchReport, CellStatus, SpectrumMap, branch_report,
                        defect_number, equivalent, neumann_continue, point_status,
                        regular_point, resolvent_identity_residuals, resolvent_solve,
                        solver_handle, union_spectrum_scan)
from .extensions import (DeltaInteraction, MomentumExtension, UnitIntervalQuadrature,
                         apply_momentum_resolvent, bound_state_estimate,
                         krein_difference_check, momentum_union_resolvent)
from .gallery import (GalleryEntry, hermite_diagonal, hermite_position, registry,
                      torus_comb, torus_delta, torus_multiplication)
from .geneig import (delta_eigenpair, expansion_check, hermite_function_values,
                     parseval_gap, restricted_operator_report)

__all__ = [
    "Basis", "BranchReport", "CellStatus", "CoefficientOperator",
    "CoefficientVector", "ContinuityCertificate", "DEFAULT_CONFIG",
    "DeltaInteraction", "GalleryEntry", "GridSpec", "MomentumExtension",
    "RunConfig", "ScaleFamily",
    "ScaleSpace", "SpectrumMap", "UnitIntervalQuadrature",
    "apply_momentum_resolvent", "bound_state_estimate", "branch_report",
    "certify", "defect_number", "delta_eigenpair", "dual_space",
    "embedding_norm", "equivalent", "expansion_check", "framework_product",
    "hermite_diagonal", "hermite_function_values", "hermite_position",
    "hilbert_scale_family", "intersection", "krein_difference_check", "modes",
    "momentum_union_resolvent", "neumann_continue", "norm",
    "operator_from_json", "operator_from_spec", "pairing", "parseval_gap",
    "point_status", "registry", "regular_point", "resolvent_identity_residuals",
    "resolvent_solve", "restricted_operator_report", "sequence_power_family",
    "sesq_form", "sobolev_torus_family", "solver_handle", "torus_comb",
    "torus_delta", "torus_multiplication", "union_spectrum_scan",
]

__version__ = "0.1.0"
