"""Multimodal prediction of co-speech gesture properties.

A small research toolkit covering the full pipeline: prosodic and lexical
feature extraction from audio + time-aligned transcripts, frame-level label
encoding of gesture annotations at 20 fps, a dual-encoder dilated-convolution
classifier with in-repo reverse-mode autodiff, chance baselines, a Macro-F1
cross-validation protocol, and a synthetic corpus generator with planted
text/audio couplings used by the acceptance suite.
"""

__version__ = "0.1.0"

from .experiment import ExperimentConfig, run_cv, run_features
from .synth import generate_synthetic_corpus, preset

__all__ = ["ExperimentConfig", "generate_synthetic_corpus", "preset", "run_cv",
           "run_features"]
