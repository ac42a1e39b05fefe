"""Operational quantum measurement numerics.

Effects and POMs on finite-dimensional Hilbert spaces, Lüders instruments
with their nondisturbance/commutativity/objectivity equivalences, and
translation-covariant localization models on a cyclic lattice with
causality diagnostics.
"""

from .causality import (
    ChainReport,
    LeakageSeries,
    ScanReport,
    SingletonTable,
    builtin_model_family,
    inflated_set,
    leakage_scan,
    schlieder_scan,
    singleton_conditions,
    strong_causality_chain,
)
from .effects import (
    Effect,
    Projection,
    annihilation_equivalence,
    is_sharp,
    is_strongly_unsharp,
    range_projection,
    spectral_projection,
    validate_effect,
)
from .errors import (
    DimensionMismatchError,
    GeometryError,
    InvalidEffectError,
    NotHermitianError,
    NotNormalizedError,
    OpmeasError,
    SpectrumOutOfRangeError,
    SumExceedsIdentityError,
    UnknownOutcomeError,
)
from .linalg import (
    HermitianEigen,
    commutator,
    commutator_norm,
    dagger,
    eig_hermitian,
    hermitize,
    is_hermitian,
    op_norm,
    psd_sqrt,
)
from .localization import (
    LatticeModel,
    LocalizationMap,
    SpatialSet,
    check_covariance,
    check_local_commutativity,
    coherent_state_povm,
    cyclic_distance,
    effect_for,
    evolve_effect,
    gaussian_fiducial,
    hopping_hamiltonian,
    make_model,
    position_marginal,
    propagator,
    sharp_position_map,
    shift_matrix,
    smeared_position_map,
    spacelike_separated,
    three_point_kernel,
    zero_hamiltonian,
)
from .luders import (
    LudersInstrument,
    State,
    causality_check_C,
    heisenberg_dual,
    nondisturbance,
    objectivity_check,
    proposition1_verify,
)
from .povm import Pom, build_pom, effect_of, is_commutative, is_sharp_pom
from .serialize import (
    ModelConfig,
    build_construction,
    build_model,
    effect_from_json,
    effect_to_json,
    matrix_from_json,
    matrix_to_json,
    model_config_from_json,
    pom_from_json,
    pom_to_json,
)

__version__ = "0.1.0"

# The public API: every name imported above, and none of the submodules.
__all__ = [
    # causality
    "ChainReport", "LeakageSeries", "ScanReport", "SingletonTable",
    "builtin_model_family", "inflated_set", "leakage_scan", "schlieder_scan",
    "singleton_conditions", "strong_causality_chain",
    # effects
    "Effect", "Projection", "annihilation_equivalence", "is_sharp",
    "is_strongly_unsharp", "range_projection", "spectral_projection", "validate_effect",
    # errors
    "DimensionMismatchError", "GeometryError", "InvalidEffectError",
    "NotHermitianError", "NotNormalizedError", "OpmeasError", "SpectrumOutOfRangeError",
    "SumExceedsIdentityError", "UnknownOutcomeError",
    # linalg
    "HermitianEigen", "commutator", "commutator_norm", "dagger", "eig_hermitian",
    "hermitize", "is_hermitian", "op_norm", "psd_sqrt",
    # localization
    "LatticeModel", "LocalizationMap", "SpatialSet", "check_covariance",
    "check_local_commutativity", "coherent_state_povm", "cyclic_distance",
    "effect_for", "evolve_effect", "gaussian_fiducial", "hopping_hamiltonian",
    "make_model", "position_marginal", "propagator", "sharp_position_map",
    "shift_matrix", "smeared_position_map", "spacelike_separated",
    "three_point_kernel", "zero_hamiltonian",
    # luders
    "LudersInstrument", "State", "causality_check_C", "heisenberg_dual",
    "nondisturbance", "objectivity_check", "proposition1_verify",
    # povm
    "Pom", "build_pom", "effect_of", "is_commutative", "is_sharp_pom",
    # serialize
    "ModelConfig", "build_construction", "build_model", "effect_from_json",
    "effect_to_json", "matrix_from_json", "matrix_to_json", "model_config_from_json",
    "pom_from_json", "pom_to_json",
]
