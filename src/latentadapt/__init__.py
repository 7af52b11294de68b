"""Forward-only test-time adaptation of latent vectors.

A fitted source subspace plus a frozen linear decoder turn adaptation into a
k-dimensional entropy-minimizing search per test sample, with optional 1-bit
and fixed-point quantized execution modes and a synthetic shift harness for
end-to-end verification.
"""

from .adapt import AdaptationConfig, AdaptationResult, BatchResult, adapt, adapt_batch
from .cmaes import CmaEsParams, default_lambda
from .datagen import (
    ShiftSpec,
    SyntheticTask,
    apply_shift,
    gen_source,
    make_decoder,
    make_task,
    preset_shifts,
)
from .decoder import LinearDecoder, Prediction, decode, fitness
from .errors import ContractViolation, ConvergenceFailure, DataFormatError
from .fileio import ModelArtifact, read_artifact, read_features, write_artifact, write_features
from .quant import FixedPointFormat, quantize_binary
from .subspace import PrincipalSubspace, apply_correction, fit, project, reconstruct

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "AdaptationResult",
    "BatchResult",
    "CmaEsParams",
    "ContractViolation",
    "ConvergenceFailure",
    "DataFormatError",
    "FixedPointFormat",
    "LinearDecoder",
    "ModelArtifact",
    "Prediction",
    "PrincipalSubspace",
    "ShiftSpec",
    "SyntheticTask",
    "adapt",
    "adapt_batch",
    "apply_correction",
    "apply_shift",
    "decode",
    "default_lambda",
    "fit",
    "fitness",
    "gen_source",
    "make_decoder",
    "make_task",
    "preset_shifts",
    "project",
    "quantize_binary",
    "read_artifact",
    "read_features",
    "reconstruct",
    "write_artifact",
    "write_features",
]
