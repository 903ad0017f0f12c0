"""lwerng: a pseudorandom bit generator whose seed is concealed in one row of
a lattice sample, b = A[0]*s + e_0 + r_0*floor(q/2), the only row drawn, and
expanded by a four-register master/slave LFSR machine with mask whitening."""

from .errors import (
    DegenerateState,
    DimensionMismatch,
    IdenticalSeeds,
    InconsistentLayout,
    InsufficientBits,
    InsufficientTrials,
    InvalidModulus,
    LwerngError,
)
from .lfsr import BankState, LfsrBank, initialize
from .lwe_hiding import (
    AdvantageReport,
    HiddenSeed,
    distinguishing_experiment,
    hide,
)
from .params import Params, default_params, validate
from .qkd import QkdSession, run_session
from .sampling import (
    EntropyInput,
    expand_matrix,
    sample_error,
    sample_secret,
    seed_payload,
)
from .stats import TestReport, dump_raw, run_battery, scatter_indexes
from .stream import DEFAULT_RESEED_INTERVAL, Generator

__version__ = "0.1.0"

__all__ = [
    "AdvantageReport",
    "BankState",
    "DEFAULT_RESEED_INTERVAL",
    "DegenerateState",
    "DimensionMismatch",
    "EntropyInput",
    "Generator",
    "HiddenSeed",
    "IdenticalSeeds",
    "InconsistentLayout",
    "InsufficientBits",
    "InsufficientTrials",
    "InvalidModulus",
    "LfsrBank",
    "LwerngError",
    "Params",
    "QkdSession",
    "TestReport",
    "default_params",
    "distinguishing_experiment",
    "dump_raw",
    "expand_matrix",
    "hide",
    "initialize",
    "run_battery",
    "run_session",
    "sample_error",
    "sample_secret",
    "scatter_indexes",
    "seed_payload",
    "validate",
]
