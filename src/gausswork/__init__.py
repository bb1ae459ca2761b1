"""Gaussian passivity, work extraction, and Fock-space verification tools.

One function answers each question for every mode count: the passivity
verdict (``is_gaussian_passive``), the optimal Gaussian extraction with its
protocol (``gaussian_ergotropy``), the gap to unrestricted extraction
(``ergotropy_gap``), and the zero-entropy witness with matching moments
(``pure_match_for_state``, one or two modes).  ``verify`` cross-checks
these answers in truncated Fock space.

``__getattr__`` below imports the Fock oracle (``gausswork.fock``) on first use
of one of its names, so the moment-level layers start without it.  The
package needs NumPy alone; the oracle's direct search
(``brute_force_min_energy``) runs its BFGS in ``gausswork.bfgs``.
"""

from .core import (
    DEFAULT_TOL,
    MomentState,
    ValidationReport,
    gaussian_entropy,
    mean_energy,
    occupation_entropy,
    purity,
    require_valid,
    state_entropy,
    symplectic_form,
    symplectic_spectrum,
    thermal_state,
    validate_state,
)
from .exceptions import (
    BudgetWarning,
    ConvergenceError,
    FileFormatError,
    OptimalityWarning,
    TruncationError,
    TruncationWarning,
    ValidationError,
)
from .extraction import (
    ExtractionReport,
    PassivityVerdict,
    StandardFormParams,
    bs_angle,
    gaussian_ergotropy,
    is_gaussian_passive,
    minimal_gaussian_energy,
    reduce_to_standard_form,
    thermal_product_passivity,
    tms_parameter,
)
from .fileio import (
    load_protocol_steps,
    load_state,
    protocol_to_dict,
    save_protocol,
    save_state,
    state_from_dict,
    state_to_dict,
    steps_from_dict,
    write_trace_csv,
)
from .gap import (
    FixedEntropyConstruction,
    GapReport,
    PureMatch,
    SwapWitness,
    ergotropy_gap,
    fixed_entropy_state,
    match_pure_state,
    pure_match_for_state,
    pure_match_vector,
    thermal_beta_for_entropy,
    thermal_swap_witness,
)
from .ops import (
    GaussianOp,
    ProtocolStep,
    PROTOCOL_STAGES,
    apply,
    beam_splitter,
    compose,
    describe,
    displacement,
    inverse,
    is_symplectic,
    op_from_label,
    rotation,
    squeeze,
    two_mode_squeeze,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_TOL",
    "MomentState",
    "ValidationReport",
    "gaussian_entropy",
    "mean_energy",
    "occupation_entropy",
    "purity",
    "require_valid",
    "state_entropy",
    "symplectic_form",
    "symplectic_spectrum",
    "thermal_state",
    "validate_state",
    "BudgetWarning",
    "ConvergenceError",
    "FileFormatError",
    "OptimalityWarning",
    "TruncationError",
    "TruncationWarning",
    "ValidationError",
    "ExtractionReport",
    "PassivityVerdict",
    "StandardFormParams",
    "bs_angle",
    "gaussian_ergotropy",
    "is_gaussian_passive",
    "minimal_gaussian_energy",
    "reduce_to_standard_form",
    "thermal_product_passivity",
    "tms_parameter",
    "load_protocol_steps",
    "load_state",
    "protocol_to_dict",
    "save_protocol",
    "save_state",
    "state_from_dict",
    "state_to_dict",
    "steps_from_dict",
    "write_trace_csv",
    "CUTOFF_CAP",
    "OracleReport",
    "TAIL_ERROR",
    "TAIL_WARN",
    "TruncatedDensityMatrix",
    "apply_gaussian_unitary",
    "brute_force_min_energy",
    "density_matrix",
    "energy_of",
    "entropy_of",
    "ergotropy_of",
    "fock_state",
    "gaussian_unitary_matrix",
    "ladder",
    "mixture",
    "moments_of",
    "pure_state",
    "thermal_fock_state",
    "verify",
    "FixedEntropyConstruction",
    "GapReport",
    "PureMatch",
    "SwapWitness",
    "ergotropy_gap",
    "fixed_entropy_state",
    "match_pure_state",
    "pure_match_for_state",
    "pure_match_vector",
    "thermal_beta_for_entropy",
    "thermal_swap_witness",
    "GaussianOp",
    "ProtocolStep",
    "PROTOCOL_STAGES",
    "apply",
    "beam_splitter",
    "compose",
    "describe",
    "displacement",
    "inverse",
    "is_symplectic",
    "op_from_label",
    "rotation",
    "squeeze",
    "two_mode_squeeze",
]


def __getattr__(name):
    if name in __all__:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
