"""Sentence-curve language modeling at desk scale.

Sentences are re-represented as B-spline control points; toy Gaussian and
masked diffusion language models predict those curves instead of static
word embeddings, and a verification suite checks the supporting theory
numerically.
"""

from . import autodiff, checkpoint, config, corpus, curvemap, harness, model, splines, theory, verify
from .curvemap import BasisCache, CurveConfig, build_cache
from .model import BackboneConfig, NoiseSchedule, SclmModel, build_schedule, sample, train_step
from .splines import BasisPair, SpectralReport, basis_matrix, build_pair, pseudo_inverse
from .theory import VerificationRecord, distance_correlation, logit_correlation_probe

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "checkpoint",
    "config",
    "corpus",
    "curvemap",
    "harness",
    "model",
    "splines",
    "theory",
    "verify",
    "BasisCache",
    "CurveConfig",
    "build_cache",
    "BackboneConfig",
    "NoiseSchedule",
    "SclmModel",
    "build_schedule",
    "sample",
    "train_step",
    "BasisPair",
    "SpectralReport",
    "basis_matrix",
    "build_pair",
    "pseudo_inverse",
    "VerificationRecord",
    "distance_correlation",
    "logit_correlation_probe",
    "__version__",
]
