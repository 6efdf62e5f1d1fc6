"""Source-independent quantum random number generation toolkit.

Simulates an untrusted photonic source read by trusted threshold
detectors, performs finite-size parameter estimation, extracts certified
random bits by Toeplitz hashing, and validates the output statistically.
"""

from .bits import BitBlock
from .config import RunConfig, SweepSpec, config_from_dict, load_config
from .entropy_math import (
    ProtocolAbortError,
    ProtocolParams,
    SecurityReport,
    binary_entropy,
    binary_entropy_derivative,
    composed_security,
    deviation_exponent,
    final_length,
    log2_deviation_failure_bound,
    trace_distance_from_fidelity,
)
from .estimation import (
    EstimationResult,
    estimate_session,
    observed_x_error,
    plan_x_count,
    solve_deviation,
)
from .extractor import extract_session
from .photonic_sim import (
    Basis,
    ChannelConfig,
    DetectorConfig,
    Pattern,
    SourceConfig,
    SourceMode,
    run_session,
)
from .pipeline import (
    CurvePoint,
    SessionResult,
    run_protocol_session,
    run_sweep,
)
from .randtest import TestReport, autocorrelation, run_battery
from .squash_sample import (
    SessionTally,
    TallyFold,
    plan_basis_positions,
    seed_length_required,
    squash_and_tally,
    unrank_combination,
)

__version__ = "0.1.0"
