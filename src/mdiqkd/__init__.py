"""Polarization-encoded MDI-QKD simulation and decoy-state analysis toolkit.

Importing the package loads numpy only.  The names of the bounding programs
(mdiqkd.decoy, which loads scipy) are resolved on first access.
"""

from .bsa import (
    BellOutcome,
    BsaInput,
    BsaResponse,
    DetectorModel,
    UnsupportedSizeError,
    classify_outcome,
    coherent_click_probs,
    fock_bsa_oracle,
)
from .decoy_types import (
    DEFAULT_F_EC,
    DEFAULT_TRUNCATION,
    DecoyResult,
    DegenerateBoundError,
    GainErrorMatrices,
    InfeasibleModelError,
    InsufficientCountsError,
)
from .io_formats import (
    TOOL_VERSION,
    FormatError,
    ResultReport,
    file_digest,
    format_counts,
    format_gains,
    format_hom_table,
    format_report,
    load_counts,
    load_gains,
    load_hom_config,
    load_session_config,
    parse_counts,
    parse_gains,
    parse_hom_config,
    parse_session_config,
    save_counts,
    save_gains,
    save_report,
)
from .optics import (
    BASIS_DIAG,
    BASIS_RECT,
    ChannelModel,
    IntensityClass,
    ParameterError,
    PolarizationState,
    SOP_BY_CODE,
    SOP_LABELS,
    attenuate,
    poisson_pmf,
    sop_overlap,
    standard_classes,
)
from .session import (
    COUNT_COLUMNS,
    CountTables,
    HomScanConfig,
    HomScanResult,
    SessionConfig,
    hom_scan,
    run_session,
    sift,
)

__version__ = TOOL_VERSION

__all__ = [
    "BASIS_DIAG",
    "BASIS_RECT",
    "BellOutcome",
    "BsaInput",
    "BsaResponse",
    "COUNT_COLUMNS",
    "ChannelModel",
    "CountTables",
    "DEFAULT_F_EC",
    "DEFAULT_TRUNCATION",
    "DecoyResult",
    "DegenerateBoundError",
    "DetectorModel",
    "ErrorBound",
    "FormatError",
    "GainErrorMatrices",
    "HomScanConfig",
    "HomScanResult",
    "InfeasibleModelError",
    "InsufficientCountsError",
    "IntensityClass",
    "ParameterError",
    "PolarizationState",
    "ResultReport",
    "SOP_BY_CODE",
    "SOP_LABELS",
    "SessionConfig",
    "TOOL_VERSION",
    "UnsupportedSizeError",
    "YieldBound",
    "analyze",
    "analyze_matrices",
    "attenuate",
    "classify_outcome",
    "coherent_click_probs",
    "errors_from_counts",
    "file_digest",
    "fock_bsa_oracle",
    "format_counts",
    "format_gains",
    "format_hom_table",
    "format_report",
    "gains_from_counts",
    "global_gain_qber",
    "hom_scan",
    "load_counts",
    "load_gains",
    "load_hom_config",
    "load_session_config",
    "lp_bound_error",
    "lp_bound_yield",
    "matrices_from_counts",
    "parse_counts",
    "parse_gains",
    "parse_hom_config",
    "parse_session_config",
    "poisson_pmf",
    "run_session",
    "save_counts",
    "save_gains",
    "save_report",
    "secret_key_rate",
    "shannon_entropy",
    "sift",
    "single_photon_gain",
    "sop_overlap",
    "standard_classes",
    "__version__",
]


def __getattr__(name: str):
    # The names of __all__ not imported above are those of the bounding
    # programs; importing mdiqkd.decoy on first access keeps scipy out of a
    # bare ``import mdiqkd``.
    if name in __all__:
        from . import decoy

        return getattr(decoy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
